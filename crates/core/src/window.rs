//! The origin look-ahead window: where a worker's origin lanes park the
//! bytes of stream positions whose sample no worker caches, until the
//! staging thread reaches them.
//!
//! Which positions those are is fixed by the placement before the
//! first fetch, so the lanes can walk the access stream ahead of the
//! staging cursor and keep as many origin reads in flight as the
//! performance model asks for ([`SystemSpec::origin_lanes`]), while the
//! staging threads stay the only ones that pay `write_time` and push
//! into the reorder stage.
//!
//! The window decides each plan-uncached position exactly once, under
//! its lock: either a lane **claims** it (reserving the sample's bytes
//! against the budget in the same critical section) or the staging
//! thread that reaches it first finds it unclaimed and reads it itself.
//! Nothing is read twice, and a staging thread never waits for a read
//! nobody has started.
//!
//! The window keeps this position-keyed claim of its own beside the
//! worker's per-sample fill claims (`worker::FillClaims`), for three
//! reasons:
//! - a plan-uncached sample is never filled into any tier, so there is
//!   no fill to claim;
//! - the same sample comes back at later stream positions, and each
//!   position is read once, which a per-sample claim cannot express;
//! - the window also holds the byte budget and the parked bytes, which
//!   a claim alone does not.
//!
//! Deadlock-freedom at any budget: a lane waits for budget only
//! *before* it claims, so every claimed position is being read or
//! already parked; staging threads visit every position, so every
//! parked sample is eventually taken and its bytes released; and a
//! claim is always admitted into an empty window, so a budget smaller
//! than one sample degrades to one read in flight instead of stopping.
//!
//! [`SystemSpec::origin_lanes`]: nopfs_perfmodel::SystemSpec::origin_lanes

use bytes::Bytes;
use nopfs_obs::{names, Counter, Gauge, Registry};
use parking_lot::{Condvar, Mutex};
use std::collections::VecDeque;
use std::time::Instant;

/// A lane-claimed stream position until a staging thread has taken it.
#[derive(Debug)]
struct Slot {
    pos: u64,
    /// Bytes reserved against the budget at claim time.
    size: u64,
    state: SlotState,
}

#[derive(Debug)]
enum SlotState {
    /// Claimed; the lane's origin read is in flight.
    Reading,
    Parked(Bytes),
    /// Handed to a staging thread while an earlier position was still
    /// parked (a second staging thread is ahead); dropped once it
    /// reaches the front.
    Emptied,
}

#[derive(Debug)]
struct State {
    /// Every stream position below this is decided: claimed by a lane,
    /// left to the staging threads, or cached somewhere and none of the
    /// window's business.
    cursor: u64,
    /// Claimed positions not yet taken, ascending (lanes claim in
    /// cursor order). Reused as a ring: steady state allocates nothing.
    slots: VecDeque<Slot>,
    /// Bytes reserved by `slots`.
    bytes: u64,
    closed: bool,
    /// Lanes asleep on `space` / staging threads asleep on `parked`, so
    /// that nobody pays a wake-up call with no one to wake.
    lanes_waiting: usize,
    takers_waiting: usize,
}

/// What [`OriginWindow::take`] found at a plan-uncached position.
#[derive(Debug)]
pub(crate) enum Taken {
    /// A lane had read it ahead.
    Parked(Bytes),
    /// No lane claimed it and none will: the caller reads the origin.
    Unclaimed,
    /// The window was closed under a waiting caller.
    Closed,
}

#[derive(Debug)]
pub(crate) struct OriginWindow {
    budget: u64,
    state: Mutex<State>,
    space: Condvar,
    parked: Condvar,
    bytes_gauge: Gauge,
    /// Time staging threads slept in [`Self::take`].
    origin_wait_nanos: Counter,
}

impl OriginWindow {
    /// A window that parks at most `budget` bytes (one sample when the
    /// budget is smaller than that), its gauge in `registry`; time
    /// slept in [`Self::take`] is added to `origin_wait_nanos`.
    pub(crate) fn new(budget: u64, registry: &Registry, origin_wait_nanos: Counter) -> Self {
        Self {
            budget,
            state: Mutex::new(State {
                cursor: 0,
                slots: VecDeque::new(),
                bytes: 0,
                closed: false,
                lanes_waiting: 0,
                takers_waiting: 0,
            }),
            space: Condvar::new(),
            parked: Condvar::new(),
            bytes_gauge: registry.gauge(names::WORKER_WINDOW_BYTES),
            origin_wait_nanos,
        }
    }

    /// A lane claims the next plan-uncached position: `next_uncached`
    /// maps a stream position to the first plan-uncached one at or
    /// after it and that sample's size (`None` past the end of the
    /// stream). Blocks while the budget cannot take the sample, unless
    /// the window is empty. Returns the claimed position, which the
    /// lane must [`deliver`](Self::deliver); `None` once the stream is
    /// exhausted or the window closed.
    pub(crate) fn claim(&self, next_uncached: impl Fn(u64) -> Option<(u64, u64)>) -> Option<u64> {
        let mut st = self.state.lock();
        loop {
            if st.closed {
                return None;
            }
            // Re-scanned after every sleep: a staging thread may have
            // moved the cursor past what was found before.
            let Some((pos, size)) = next_uncached(st.cursor) else {
                st.cursor = u64::MAX;
                return None;
            };
            // Everything in between is cached: a later scan starts here.
            st.cursor = pos;
            if st.bytes == 0 || st.bytes + size <= self.budget {
                st.cursor = pos + 1;
                st.bytes += size;
                st.slots.push_back(Slot {
                    pos,
                    size,
                    state: SlotState::Reading,
                });
                self.bytes_gauge.set(st.bytes);
                return Some(pos);
            }
            st.lanes_waiting += 1;
            self.space.wait(&mut st);
            st.lanes_waiting -= 1;
        }
    }

    /// Parks the bytes a lane read for the position it claimed.
    pub(crate) fn deliver(&self, pos: u64, data: Bytes) {
        let mut st = self.state.lock();
        let i = Self::slot_of(&st, pos).expect("a claimed position stays until it is taken");
        st.slots[i].state = SlotState::Parked(data);
        let wake = st.takers_waiting > 0;
        drop(st);
        if wake {
            self.parked.notify_all();
        }
    }

    /// A staging thread reaches the plan-uncached position `pos`:
    /// hands over what a lane read ahead (sleeping until the lane's
    /// read in flight lands), or settles that no lane will claim the
    /// position.
    pub(crate) fn take(&self, pos: u64) -> Taken {
        let mut st = self.state.lock();
        let Some(mut i) = Self::slot_of(&st, pos) else {
            st.cursor = st.cursor.max(pos + 1);
            return Taken::Unclaimed;
        };
        if matches!(st.slots[i].state, SlotState::Reading) {
            let slept = Instant::now();
            st.takers_waiting += 1;
            while matches!(st.slots[i].state, SlotState::Reading) && !st.closed {
                self.parked.wait(&mut st);
                // Slots ahead of this one may have been dropped.
                i = Self::slot_of(&st, pos).expect("only its taker removes a slot");
            }
            st.takers_waiting -= 1;
            self.origin_wait_nanos
                .add(slept.elapsed().as_nanos() as u64);
        }
        let data = match std::mem::replace(&mut st.slots[i].state, SlotState::Emptied) {
            SlotState::Parked(data) => data,
            SlotState::Reading => {
                // Closed mid-read: the slot stays for the lane's deliver.
                st.slots[i].state = SlotState::Reading;
                return Taken::Closed;
            }
            SlotState::Emptied => panic!("stream position {pos} taken twice"),
        };
        st.bytes -= st.slots[i].size;
        while matches!(st.slots.front(), Some(s) if matches!(s.state, SlotState::Emptied)) {
            st.slots.pop_front();
        }
        self.bytes_gauge.set(st.bytes);
        let wake = st.lanes_waiting > 0;
        drop(st);
        if wake {
            self.space.notify_all();
        }
        Taken::Parked(data)
    }

    /// Closes the window: lanes asleep on the budget and staging
    /// threads asleep on a read return.
    pub(crate) fn close(&self) {
        self.state.lock().closed = true;
        self.space.notify_all();
        self.parked.notify_all();
    }

    fn slot_of(st: &State, pos: u64) -> Option<usize> {
        // Staging threads take in stream order, so the front is the
        // common answer.
        match st.slots.front() {
            Some(s) if s.pos == pos => Some(0),
            _ => st.slots.binary_search_by_key(&pos, |s| s.pos).ok(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    const SIZE: u64 = 100;

    fn window(budget: u64) -> (Arc<OriginWindow>, Registry) {
        let registry = Registry::new();
        let wait = registry.counter(names::WORKER_STAGING_ORIGIN_WAIT_NANOS);
        (
            Arc::new(OriginWindow::new(budget, &registry, wait)),
            registry,
        )
    }

    /// A stream of `len` positions of which the odd ones are uncached.
    fn odd_positions(len: u64) -> impl Fn(u64) -> Option<(u64, u64)> {
        move |from| {
            let pos = from | 1;
            (pos < len).then_some((pos, SIZE))
        }
    }

    fn payload(pos: u64) -> Bytes {
        Bytes::from(vec![pos as u8; SIZE as usize])
    }

    /// Lanes that claim, "read" and deliver until the stream ends.
    fn spawn_lanes(
        w: &Arc<OriginWindow>,
        lanes: usize,
        len: u64,
    ) -> Vec<std::thread::JoinHandle<u64>> {
        (0..lanes)
            .map(|_| {
                let w = Arc::clone(w);
                std::thread::spawn(move || {
                    let mut reads = 0;
                    while let Some(pos) = w.claim(odd_positions(len)) {
                        w.deliver(pos, payload(pos));
                        reads += 1;
                    }
                    reads
                })
            })
            .collect()
    }

    #[test]
    fn a_budget_below_one_sample_still_delivers_every_position() {
        let len = 200;
        let (w, registry) = window(SIZE / 2);
        let lanes = spawn_lanes(&w, 3, len);
        let mut own_reads = 0;
        for pos in (1..len).step_by(2) {
            match w.take(pos) {
                Taken::Parked(data) => assert_eq!(data, payload(pos)),
                Taken::Unclaimed => own_reads += 1,
                Taken::Closed => panic!("nobody closed the window"),
            }
        }
        let lane_reads: u64 = lanes.into_iter().map(|l| l.join().unwrap()).sum();
        assert_eq!(lane_reads + own_reads, len / 2, "every position read once");
        assert_eq!(registry.gauge(names::WORKER_WINDOW_BYTES).get(), 0);
    }

    #[test]
    fn the_budget_bounds_what_lanes_park_ahead() {
        let (w, registry) = window(3 * SIZE);
        let claimed: Vec<u64> = (0..3)
            .map(|_| w.claim(odd_positions(100)).expect("within budget"))
            .collect();
        assert_eq!(claimed, vec![1, 3, 5]);
        let gauge = || registry.gauge(names::WORKER_WINDOW_BYTES).get();
        assert_eq!(gauge(), 3 * SIZE);
        // A fourth claim has to wait for the staging thread.
        let lane = {
            let w = Arc::clone(&w);
            std::thread::spawn(move || w.claim(odd_positions(100)))
        };
        while w.state.lock().lanes_waiting == 0 {
            std::thread::yield_now();
        }
        w.deliver(1, payload(1));
        assert!(matches!(w.take(1), Taken::Parked(d) if d == payload(1)));
        assert_eq!(lane.join().unwrap(), Some(7));
        assert_eq!(gauge(), 3 * SIZE);
    }

    #[test]
    fn an_unclaimed_position_is_left_to_its_staging_thread_for_good() {
        let (w, _) = window(10 * SIZE);
        // The staging thread gets to position 5 before any lane does:
        // it reads 5 itself, and lanes start beyond it.
        assert!(matches!(w.take(5), Taken::Unclaimed));
        assert_eq!(w.claim(odd_positions(100)), Some(7));
        // A second staging thread working an earlier run finds its
        // positions unclaimed too, without moving the cursor back.
        assert!(matches!(w.take(1), Taken::Unclaimed));
        assert!(matches!(w.take(3), Taken::Unclaimed));
        assert_eq!(w.claim(odd_positions(100)), Some(9));
    }

    #[test]
    fn two_staging_threads_take_by_position_in_any_order() {
        let (w, _) = window(10 * SIZE);
        for _ in 0..4 {
            let pos = w.claim(odd_positions(100)).unwrap();
            w.deliver(pos, payload(pos));
        }
        // Out of order: the later run's thread is ahead.
        for pos in [5, 1, 7, 3] {
            assert!(matches!(w.take(pos), Taken::Parked(d) if d == payload(pos)));
        }
        let st = w.state.lock();
        assert!(st.slots.is_empty(), "taken slots are dropped");
        assert_eq!(st.bytes, 0);
    }

    #[test]
    fn take_sleeps_until_the_read_in_flight_lands() {
        let (w, registry) = window(10 * SIZE);
        assert_eq!(w.claim(odd_positions(100)), Some(1));
        let taker = {
            let w = Arc::clone(&w);
            std::thread::spawn(move || w.take(1))
        };
        while w.state.lock().takers_waiting == 0 {
            std::thread::yield_now();
        }
        w.deliver(1, payload(1));
        assert!(matches!(taker.join().unwrap(), Taken::Parked(d) if d == payload(1)));
        let waited = registry
            .snapshot()
            .counter(names::WORKER_STAGING_ORIGIN_WAIT_NANOS);
        assert!(waited.is_some_and(|ns| ns > 0), "the sleep is accounted");
    }

    #[test]
    fn close_wakes_a_lane_on_the_budget_and_a_staging_thread_on_a_take() {
        let (w, _) = window(SIZE);
        assert_eq!(w.claim(odd_positions(100)), Some(1));
        let lane = {
            let w = Arc::clone(&w);
            std::thread::spawn(move || w.claim(odd_positions(100)))
        };
        let taker = {
            let w = Arc::clone(&w);
            std::thread::spawn(move || w.take(1))
        };
        loop {
            let st = w.state.lock();
            if st.lanes_waiting == 1 && st.takers_waiting == 1 {
                break;
            }
            drop(st);
            std::thread::yield_now();
        }
        w.close();
        assert_eq!(lane.join().unwrap(), None);
        assert!(matches!(taker.join().unwrap(), Taken::Closed));
        assert_eq!(w.claim(odd_positions(100)), None, "closed for good");
    }

    #[test]
    fn an_exhausted_stream_ends_the_lanes() {
        let (w, _) = window(10 * SIZE);
        assert_eq!(w.claim(odd_positions(4)), Some(1));
        assert_eq!(w.claim(odd_positions(4)), Some(3));
        assert_eq!(w.claim(odd_positions(4)), None);
        assert_eq!(w.claim(odd_positions(4)), None);
    }
}
