//! The staging buffer: the producer/consumer boundary between NoPFS's
//! prefetcher threads and the training loop.
//!
//! The paper describes "a special prefetcher for the staging buffer,
//! which is filled in a circular manner" and coordinates with the
//! consumer "via a producer/consumer queue to ensure that the consumer
//! knows when samples are available, and that the prefetcher knows when
//! samples have been consumed (and therefore can be replaced)". This
//! implementation reproduces those semantics with a byte-capacity-
//! bounded FIFO of reference-counted buffers: producers block while the
//! buffer is full, the consumer blocks while it is empty, samples leave
//! in exactly the order they entered (access-stream order, Rule 1), and
//! consuming frees capacity immediately (drop-after-use, the paper's
//! approximation of Rules 2–4).

use crate::SampleId;
use bytes::Bytes;
use nopfs_obs::{names, Counter, Gauge, Registry};
use parking_lot::{Condvar, Mutex};
use std::collections::VecDeque;
use std::sync::Arc;
use std::time::{Duration, Instant};

#[derive(Debug)]
struct State {
    queue: VecDeque<(SampleId, Bytes)>,
    used: u64,
    closed: bool,
    /// High-water mark of `used`, for reporting.
    max_used: u64,
    /// Registered producers currently alive (see [`ProducerGuard`]).
    producers: usize,
    /// Registered producers that died without completing: their owed
    /// samples will never arrive, so consumers must not keep waiting.
    lost: usize,
}

/// The buffer's registry handles (`staging.*` metrics): cumulative
/// push/pop counters plus a live occupancy gauge. Updated inside the
/// state lock, so [`StagingStats`] snapshots stay internally
/// consistent.
#[derive(Debug)]
struct Metrics {
    pushed: Counter,
    popped: Counter,
    used_bytes: Gauge,
    /// Registry values at construction: a buffer attached to existing
    /// counter names (a relaunched worker in a shared registry) reports
    /// only its own pushes/pops through [`StagingBuffer::stats`].
    base_pushed: u64,
    base_popped: u64,
}

impl Metrics {
    fn new(registry: &Registry) -> Self {
        let pushed = registry.counter(names::STAGING_PUSHED);
        let popped = registry.counter(names::STAGING_POPPED);
        Self {
            base_pushed: pushed.get(),
            base_popped: popped.get(),
            pushed,
            popped,
            used_bytes: registry.gauge(names::STAGING_USED_BYTES),
        }
    }
}

#[derive(Debug)]
struct Inner {
    capacity: u64,
    state: Mutex<State>,
    metrics: Metrics,
    /// Signalled when space frees up (producers wait on this).
    space: Condvar,
    /// Signalled when data arrives (consumers wait on this).
    data: Condvar,
}

/// A byte-capacity-bounded FIFO staging buffer. Clone to share between
/// prefetcher threads and the consumer.
#[derive(Debug, Clone)]
pub struct StagingBuffer {
    inner: Arc<Inner>,
}

impl StagingBuffer {
    /// Creates a buffer holding up to `capacity` bytes of samples.
    ///
    /// # Panics
    /// Panics if `capacity == 0`.
    pub fn new(capacity: u64) -> Self {
        Self::new_in_registry(capacity, &Registry::new())
    }

    /// Like [`Self::new`], but the `staging.*` metrics are registered
    /// in `registry` (with its scope labels) so the buffer's push/pop
    /// counters and occupancy gauge show up in live telemetry.
    ///
    /// # Panics
    /// Panics if `capacity == 0`.
    pub fn new_in_registry(capacity: u64, registry: &Registry) -> Self {
        assert!(capacity > 0, "staging buffer needs capacity");
        Self {
            inner: Arc::new(Inner {
                capacity,
                state: Mutex::new(State {
                    queue: VecDeque::new(),
                    used: 0,
                    closed: false,
                    max_used: 0,
                    producers: 0,
                    lost: 0,
                }),
                metrics: Metrics::new(registry),
                space: Condvar::new(),
                data: Condvar::new(),
            }),
        }
    }

    /// Capacity in bytes.
    pub fn capacity(&self) -> u64 {
        self.inner.capacity
    }

    /// Bytes currently buffered.
    pub fn used(&self) -> u64 {
        self.inner.state.lock().used
    }

    /// Samples currently buffered.
    pub fn len(&self) -> usize {
        self.inner.state.lock().queue.len()
    }

    /// Whether the buffer is currently empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Inserts a sample, blocking while the buffer lacks space.
    ///
    /// A sample larger than the whole capacity is admitted when the
    /// buffer is empty (otherwise it could never be staged at all);
    /// it simply occupies the buffer alone.
    ///
    /// Returns `false` if the buffer was closed (sample dropped).
    pub fn push(&self, id: SampleId, data: Bytes) -> bool {
        let size = data.len() as u64;
        let mut st = self.inner.state.lock();
        loop {
            if st.closed {
                return false;
            }
            let fits =
                st.used + size <= self.inner.capacity || (st.queue.is_empty() && st.used == 0);
            if fits {
                break;
            }
            self.inner.space.wait(&mut st);
        }
        st.used += size;
        st.max_used = st.max_used.max(st.used);
        self.inner.metrics.pushed.inc();
        self.inner.metrics.used_bytes.set(st.used);
        st.queue.push_back((id, data));
        drop(st);
        self.inner.data.notify_one();
        true
    }

    /// Registers a producer with the buffer. Hold the returned guard
    /// for the producer's lifetime and call [`ProducerGuard::complete`]
    /// on clean exit; dropping it without completing (a panic, a crash
    /// injected by a fault plan) marks the producer as dead, and
    /// consumers observe [`ProducerLost`] once the queue drains instead
    /// of blocking until timeout on samples that will never arrive.
    pub fn producer(&self) -> ProducerGuard {
        self.inner.state.lock().producers += 1;
        ProducerGuard {
            buf: self.clone(),
            completed: false,
        }
    }

    /// Registered producers that died without completing.
    pub fn lost_producers(&self) -> usize {
        self.inner.state.lock().lost
    }

    /// Removes the oldest sample, blocking until one is available.
    /// Returns `None` once the buffer is closed *and* drained, or as
    /// soon as a registered producer is known dead (use
    /// [`Self::pop_checked`] to distinguish the two).
    pub fn pop(&self) -> Option<(SampleId, Bytes)> {
        self.pop_until(None).unwrap_or(None)
    }

    /// Like [`Self::pop`] but gives up after `timeout`.
    pub fn pop_timeout(&self, timeout: Duration) -> Option<(SampleId, Bytes)> {
        self.pop_until(Some(Instant::now() + timeout))
            .unwrap_or(None)
    }

    /// Like [`Self::pop`]/[`Self::pop_timeout`] (`timeout: None` waits
    /// forever) but surfaces producer death: `Err(ProducerLost)` when a
    /// registered producer died mid-fill and the queue has drained,
    /// `Ok(None)` on clean close or timeout.
    pub fn pop_checked(
        &self,
        timeout: Option<Duration>,
    ) -> Result<Option<(SampleId, Bytes)>, ProducerLost> {
        self.pop_until(timeout.map(|t| Instant::now() + t))
    }

    /// The shared drain loop: waits for data until `deadline` (forever
    /// when `None`), draining the queue ahead of death/close/timeout
    /// checks so buffered samples are never lost. A dead registered
    /// producer surfaces as an error the moment the queue is empty —
    /// never by blocking out the timeout.
    fn pop_until(
        &self,
        deadline: Option<Instant>,
    ) -> Result<Option<(SampleId, Bytes)>, ProducerLost> {
        let mut st = self.inner.state.lock();
        loop {
            if let Some((id, data)) = st.queue.pop_front() {
                st.used -= data.len() as u64;
                self.inner.metrics.popped.inc();
                self.inner.metrics.used_bytes.set(st.used);
                drop(st);
                self.inner.space.notify_all();
                return Ok(Some((id, data)));
            }
            if st.lost > 0 {
                return Err(ProducerLost);
            }
            if st.closed {
                return Ok(None);
            }
            match deadline {
                Some(d) => {
                    if self.inner.data.wait_until(&mut st, d).timed_out() {
                        return Ok(None);
                    }
                }
                None => self.inner.data.wait(&mut st),
            }
        }
    }

    /// Closes the buffer: producers fail fast, the consumer drains what
    /// remains and then sees `None`.
    pub fn close(&self) {
        let mut st = self.inner.state.lock();
        st.closed = true;
        drop(st);
        self.inner.space.notify_all();
        self.inner.data.notify_all();
    }

    /// Cumulative producer/consumer statistics.
    pub fn stats(&self) -> StagingStats {
        let st = self.inner.state.lock();
        StagingStats {
            pushed: self.inner.metrics.pushed.get() - self.inner.metrics.base_pushed,
            popped: self.inner.metrics.popped.get() - self.inner.metrics.base_popped,
            max_used_bytes: st.max_used,
        }
    }
}

/// A producer died mid-fill: samples it owed the buffer will never
/// arrive, so the consumer's stream is broken past this point.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProducerLost;

impl std::fmt::Display for ProducerLost {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "staging producer died mid-fill")
    }
}

impl std::error::Error for ProducerLost {}

/// RAII registration of one producer (see [`StagingBuffer::producer`]).
#[derive(Debug)]
pub struct ProducerGuard {
    buf: StagingBuffer,
    completed: bool,
}

impl ProducerGuard {
    /// Marks this producer as cleanly finished; its eventual drop no
    /// longer counts as a death.
    pub fn complete(mut self) {
        self.completed = true;
    }
}

impl Drop for ProducerGuard {
    fn drop(&mut self) {
        let mut st = self.buf.inner.state.lock();
        st.producers -= 1;
        if !self.completed {
            st.lost += 1;
        }
        drop(st);
        // Wake consumers either way: a death must surface immediately.
        self.buf.inner.data.notify_all();
    }
}

/// Cumulative [`StagingBuffer`] statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StagingStats {
    /// Samples ever pushed.
    pub pushed: u64,
    /// Samples ever popped.
    pub popped: u64,
    /// High-water mark of buffered bytes.
    pub max_used_bytes: u64,
}

impl From<StagingStats> for crate::tier::TierStats {
    /// The staging buffer viewed as the topmost tier: pops are hits
    /// (consumers never miss — they block), pushes are fills.
    fn from(s: StagingStats) -> Self {
        crate::tier::TierStats {
            name: "staging".to_string(),
            hits: s.popped,
            fills: s.pushed,
            used: s.max_used_bytes,
            ..Default::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;

    #[test]
    fn fifo_order_is_preserved() {
        let buf = StagingBuffer::new(1_000_000);
        for i in 0..10u64 {
            assert!(buf.push(i, Bytes::from(vec![i as u8; 10])));
        }
        for i in 0..10u64 {
            let (id, data) = buf.pop().unwrap();
            assert_eq!(id, i);
            assert_eq!(data[0], i as u8);
        }
    }

    #[test]
    fn capacity_accounting() {
        let buf = StagingBuffer::new(100);
        buf.push(1, Bytes::from(vec![0u8; 60]));
        assert_eq!(buf.used(), 60);
        buf.push(2, Bytes::from(vec![0u8; 40]));
        assert_eq!(buf.used(), 100);
        buf.pop().unwrap();
        assert_eq!(buf.used(), 40);
        let stats = buf.stats();
        assert_eq!(
            stats,
            StagingStats {
                pushed: 2,
                popped: 1,
                max_used_bytes: 100
            }
        );
        // The staging view of the tiered statistics: pops are hits.
        let tier: crate::tier::TierStats = stats.into();
        assert_eq!((tier.hits, tier.fills, tier.used), (1, 2, 100));
    }

    #[test]
    fn producer_blocks_until_consumer_frees_space() {
        let buf = StagingBuffer::new(100);
        buf.push(1, Bytes::from(vec![0u8; 80]));
        let b2 = buf.clone();
        let t0 = Instant::now();
        let producer = thread::spawn(move || {
            b2.push(2, Bytes::from(vec![0u8; 80]));
        });
        thread::sleep(Duration::from_millis(30));
        assert!(!producer.is_finished(), "producer should be blocked");
        buf.pop().unwrap();
        producer.join().unwrap();
        assert!(t0.elapsed() >= Duration::from_millis(30));
        assert_eq!(buf.len(), 1);
    }

    #[test]
    fn consumer_blocks_until_data_arrives() {
        let buf = StagingBuffer::new(100);
        let b2 = buf.clone();
        let consumer = thread::spawn(move || b2.pop().unwrap());
        thread::sleep(Duration::from_millis(20));
        assert!(!consumer.is_finished(), "consumer should be blocked");
        buf.push(9, Bytes::from_static(b"x"));
        let (id, _) = consumer.join().unwrap();
        assert_eq!(id, 9);
    }

    #[test]
    fn oversized_sample_admitted_when_empty() {
        let buf = StagingBuffer::new(10);
        assert!(buf.push(1, Bytes::from(vec![0u8; 100])));
        assert_eq!(buf.pop().unwrap().1.len(), 100);
    }

    #[test]
    fn close_unblocks_consumer_with_none() {
        let buf = StagingBuffer::new(10);
        let b2 = buf.clone();
        let consumer = thread::spawn(move || b2.pop());
        thread::sleep(Duration::from_millis(10));
        buf.close();
        assert_eq!(consumer.join().unwrap(), None);
    }

    #[test]
    fn close_drains_remaining_samples_first() {
        let buf = StagingBuffer::new(100);
        buf.push(1, Bytes::from_static(b"a"));
        buf.push(2, Bytes::from_static(b"b"));
        buf.close();
        assert!(buf.pop().is_some());
        assert!(buf.pop().is_some());
        assert!(buf.pop().is_none());
    }

    #[test]
    fn close_unblocks_waiting_producer_with_false() {
        // A producer blocked in `push` (buffer full) must observe
        // `close()` and return `false` instead of hanging forever.
        let buf = StagingBuffer::new(100);
        assert!(buf.push(1, Bytes::from(vec![0u8; 90])));
        let b2 = buf.clone();
        let producer = thread::spawn(move || b2.push(2, Bytes::from(vec![0u8; 90])));
        thread::sleep(Duration::from_millis(20));
        assert!(!producer.is_finished(), "producer should be blocked");
        buf.close();
        assert!(!producer.join().unwrap(), "closed push must report false");
        // The blocked sample was dropped; only the first remains.
        assert_eq!(buf.len(), 1);
        assert!(buf.pop().is_some());
        assert!(buf.pop().is_none());
    }

    #[test]
    fn push_after_close_is_rejected() {
        let buf = StagingBuffer::new(100);
        buf.close();
        assert!(!buf.push(1, Bytes::from_static(b"a")));
    }

    #[test]
    fn pop_timeout_expires_when_empty() {
        let buf = StagingBuffer::new(10);
        let t0 = Instant::now();
        assert!(buf.pop_timeout(Duration::from_millis(25)).is_none());
        assert!(t0.elapsed() >= Duration::from_millis(25));
    }

    #[test]
    fn producer_death_surfaces_as_error_not_timeout() {
        let buf = StagingBuffer::new(100);
        let b2 = buf.clone();
        let producer = thread::spawn(move || {
            let guard = b2.producer();
            b2.push(1, Bytes::from_static(b"a"));
            drop(guard); // crash mid-fill: never completed
        });
        producer.join().unwrap();
        // The staged sample still drains first…
        assert_eq!(buf.pop_checked(None).unwrap().unwrap().0, 1);
        // …then the death surfaces immediately, well before the timeout.
        let t0 = Instant::now();
        assert_eq!(
            buf.pop_checked(Some(Duration::from_secs(10))),
            Err(ProducerLost)
        );
        assert!(t0.elapsed() < Duration::from_secs(1));
        assert_eq!(buf.lost_producers(), 1);
    }

    #[test]
    fn producer_death_wakes_a_blocked_consumer() {
        let buf = StagingBuffer::new(100);
        let b2 = buf.clone();
        let consumer = thread::spawn(move || b2.pop_checked(None));
        thread::sleep(Duration::from_millis(20));
        assert!(!consumer.is_finished(), "consumer should be blocked");
        drop(buf.producer()); // dies without completing
        assert_eq!(consumer.join().unwrap(), Err(ProducerLost));
    }

    #[test]
    fn completed_producers_do_not_trip_the_consumer() {
        let buf = StagingBuffer::new(100);
        let guard = buf.producer();
        buf.push(1, Bytes::from_static(b"a"));
        guard.complete();
        buf.close();
        assert_eq!(buf.pop_checked(None).unwrap().unwrap().0, 1);
        assert_eq!(buf.pop_checked(None), Ok(None));
        assert_eq!(buf.lost_producers(), 0);
    }

    #[test]
    fn unchecked_pops_stop_early_on_producer_death() {
        // Legacy Option-based pops cannot express the error, but they
        // must not hang either: they return None promptly.
        let buf = StagingBuffer::new(100);
        drop(buf.producer());
        let t0 = Instant::now();
        assert_eq!(buf.pop_timeout(Duration::from_secs(10)), None);
        assert!(t0.elapsed() < Duration::from_secs(1));
        assert_eq!(buf.pop(), None);
    }

    #[test]
    fn concurrent_producers_and_consumer_lose_nothing() {
        let buf = StagingBuffer::new(1_000);
        let per_producer = 500u64;
        let producers: Vec<_> = (0..4)
            .map(|p| {
                let b = buf.clone();
                thread::spawn(move || {
                    for i in 0..per_producer {
                        let id = p * per_producer + i;
                        assert!(b.push(id, Bytes::from(vec![(id % 251) as u8; 16])));
                    }
                })
            })
            .collect();
        let consumer = {
            let b = buf.clone();
            thread::spawn(move || {
                let mut seen = std::collections::HashSet::new();
                for _ in 0..4 * per_producer {
                    let (id, data) = b.pop().unwrap();
                    assert_eq!(data[0], (id % 251) as u8, "corrupted sample {id}");
                    assert!(seen.insert(id), "duplicate sample {id}");
                }
                seen
            })
        };
        for p in producers {
            p.join().unwrap();
        }
        let seen = consumer.join().unwrap();
        assert_eq!(seen.len(), 2_000);
        assert_eq!(buf.used(), 0);
    }
}
