//! The peer leg of the fetch path, run-granular like the other two:
//! one request [`Frame`] and one reply per owner per staged run.
//!
//! The requester half is [`PeerClient`], one per staging thread: the
//! thread [`want`](PeerClient::want)s the samples its run takes from
//! peers, [`post`](PeerClient::post)s one frame per distinct owner —
//! all of them before it [`collect`](PeerClient::collect)s the first
//! reply, so a run waits for its slowest owner and not for the sum of
//! its samples — and [`take`](PeerClient::take)s the payloads back.
//! Replies are matched to requests **by position**: the k-th sample
//! wanted from an owner is the k-th slot of that owner's frame, so a
//! run that holds the same id twice gets two slots and two payloads.
//!
//! The serving half is [`serve`], every loader's serving loop: per
//! frame one [`TierStack::locate_each`] pass over the catalog, then one
//! [`TierStack::read_tier_many`] sweep per tier that holds
//! any of its slots — the requester's local leg, run on the owner's
//! side — and **one** `Endpoint::pace` for the bytes found: the same
//! bandwidth term as a reply per sample, the latency once per message
//! as on a real transport.
//!
//! A frame's slot buffer makes the round trip and stays with the
//! client for the owner's next frame, and the serving loop reuses its
//! own two buffers from frame to frame, so in the steady state neither
//! half allocates.

use crate::msg::{Frame, Msg, Slots};
use crate::SampleId;
use bytes::Bytes;
use crossbeam::channel::{unbounded, Receiver, Sender};
use nopfs_net::Endpoint;
use nopfs_storage::TierStack;

/// What the client keeps per owner: the slot buffer — being filled by
/// `want`, away in a frame, or being emptied by `take` — and the
/// position of the next slot to take.
#[derive(Default)]
struct Pending {
    slots: Slots,
    taken: usize,
}

/// The requester half: one thread's frames to its peers and the
/// long-lived channel their replies come home on. Make it on the
/// thread that uses it, not in a loader's launch path.
pub struct PeerClient {
    home: Sender<(usize, Slots)>,
    replies: Receiver<(usize, Slots)>,
    /// Indexed by owner rank, grown on first use.
    pending: Vec<Pending>,
    /// Frames posted whose reply has not been collected.
    in_flight: u64,
}

impl Default for PeerClient {
    fn default() -> Self {
        Self::new()
    }
}

impl PeerClient {
    pub fn new() -> Self {
        let (home, replies) = unbounded();
        Self {
            home,
            replies,
            pending: Vec::new(),
            in_flight: 0,
        }
    }

    /// Queues sample `id` for `owner`'s next frame.
    pub fn want(&mut self, owner: usize, id: SampleId) {
        if self.pending.len() <= owner {
            self.pending.resize_with(owner + 1, Pending::default);
        }
        let p = &mut self.pending[owner];
        debug_assert_eq!(p.taken, 0, "the previous frame was not taken whole");
        p.slots.push((id, None));
    }

    /// Sends one frame per owner with samples queued and returns how
    /// many went out. A frame whose owner's endpoint is gone counts
    /// too: it comes home unanswered (see [`Frame`]).
    pub fn post(&mut self, endpoint: &Endpoint<Msg>) -> u64 {
        let mut frames = 0;
        for (owner, p) in self.pending.iter_mut().enumerate() {
            if p.slots.is_empty() {
                continue;
            }
            let frame = Frame {
                owner,
                slots: std::mem::take(&mut p.slots),
                home: self.home.clone(),
            };
            let _ = endpoint.send(owner, Msg::Fetch(frame));
            frames += 1;
        }
        self.in_flight += frames;
        frames
    }

    /// Waits until every posted frame is home.
    pub fn collect(&mut self) {
        while self.in_flight > 0 {
            let (owner, slots) = self
                .replies
                .recv()
                .expect("the client holds a sender of its own reply channel");
            self.pending[owner].slots = slots;
            self.in_flight -= 1;
        }
    }

    /// The payload of the next sample wanted from `owner`, in the order
    /// of the `want` calls; `None` when the owner did not have it — or
    /// never saw the frame. `id` is only checked against the slot.
    pub fn take(&mut self, owner: usize, id: SampleId) -> Option<Bytes> {
        let p = &mut self.pending[owner];
        let (slot_id, data) = &mut p.slots[p.taken];
        debug_assert_eq!(*slot_id, id, "replies are matched by position");
        let data = data.take();
        p.taken += 1;
        if p.taken == p.slots.len() {
            p.slots.clear();
            p.taken = 0;
        }
        data
    }
}

/// The serving half, a loader's whole serving loop: answers peers'
/// frames from `tiers` until [`Msg::Shutdown`] arrives or the cluster
/// is gone.
pub fn serve(endpoint: &Endpoint<Msg>, tiers: &TierStack) {
    // Reused from frame to frame: the tier that holds each slot's
    // sample, and the ids of the frame's catalog pass or of one sweep.
    let mut located: Vec<Option<usize>> = Vec::new();
    let mut ids: Vec<SampleId> = Vec::new();
    while let Ok(env) = endpoint.recv() {
        match env.msg {
            Msg::Fetch(mut frame) => {
                ids.clear();
                ids.extend(frame.slots.iter().map(|&(id, _)| id));
                located.clear();
                tiers.locate_each(&ids, |tier| located.push(tier));
                let mut found = 0u64;
                for tier in 0..tiers.cache_tiers() {
                    ids.clear();
                    ids.extend(
                        frame
                            .slots
                            .iter()
                            .zip(&located)
                            .filter(|(_, at)| **at == Some(tier))
                            .map(|(&(id, _), _)| id),
                    );
                    if ids.is_empty() {
                        continue;
                    }
                    let mut slots = frame
                        .slots
                        .iter_mut()
                        .zip(&located)
                        .filter(|(_, at)| **at == Some(tier))
                        .map(|(slot, _)| slot);
                    tiers.read_tier_many(tier, &ids, |r| {
                        let (_, data) = slots.next().expect("one result per id");
                        *data = r.ok();
                        found += data.as_ref().map_or(0, |d| d.len() as u64);
                    });
                }
                if found > 0 {
                    // Pay the wire cost of the payload.
                    endpoint.pace(found);
                }
                // Dropped here, the frame goes home.
            }
            Msg::Shutdown => break,
            // Setup finished before this loop started.
            Msg::Digest(_) => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nopfs_net::{cluster, NetConfig};
    use nopfs_perfmodel::presets::fig8_small_cluster;
    use nopfs_pfs::Pfs;
    use nopfs_util::timing::TimeScale;
    use std::sync::Arc;

    fn endpoints(n: usize) -> Vec<Endpoint<Msg>> {
        cluster(n, NetConfig::new(1e12, TimeScale::new(1e-6)))
    }

    fn payload(id: SampleId) -> Bytes {
        Bytes::from(vec![id as u8; 16])
    }

    /// A hierarchy over an empty PFS with `ids` cached: the even ones
    /// in its first tier, the odd ones in its second.
    fn tiers_holding(ids: &[SampleId]) -> TierStack {
        let sys = fig8_small_cluster();
        let scale = TimeScale::new(1e-6);
        let pfs = Pfs::in_memory(sys.pfs_read.clone(), scale);
        let tiers = crate::class_tier_stack(&sys, scale, Arc::new(pfs));
        for &id in ids {
            tiers
                .fill((id % 2) as usize, id, payload(id))
                .expect("the tier has room");
        }
        tiers
    }

    /// Shuts the servers on ranks `1..` down when dropped, so that a
    /// failed assertion in the client fails the test instead of
    /// leaving the scope waiting for them.
    struct Servers<'a>(&'a Endpoint<Msg>);

    impl Drop for Servers<'_> {
        fn drop(&mut self) {
            for rank in 1..self.0.world_size() {
                let _ = self.0.send(rank, Msg::Shutdown);
            }
        }
    }

    /// Runs `client` on rank 0 of a cluster whose other ranks serve
    /// `held[rank - 1]`.
    fn against_servers(held: &[&[SampleId]], client: impl FnOnce(&Endpoint<Msg>)) {
        let mut eps = endpoints(held.len() + 1);
        let servers = eps.split_off(1);
        let ep0 = eps.pop().expect("rank 0");
        std::thread::scope(|s| {
            for (ep, ids) in servers.iter().zip(held) {
                let tiers = tiers_holding(ids);
                s.spawn(move || serve(ep, &tiers));
            }
            let _servers = Servers(&ep0);
            client(&ep0);
        });
    }

    #[test]
    fn a_frame_comes_back_filled_in_request_order() {
        against_servers(&[&[3, 5, 6]], |ep| {
            let mut peers = PeerClient::new();
            // Ids cached in either tier and uncached ones mixed, one
            // id twice: six slots.
            let wanted = [3, 99, 6, 5, 3, 8];
            for id in wanted {
                peers.want(1, id);
            }
            assert_eq!(peers.post(ep), 1);
            peers.collect();
            let got: Vec<_> = wanted.iter().map(|&id| peers.take(1, id)).collect();
            let held = |id| Some(payload(id));
            assert_eq!(got, [held(3), None, held(6), held(5), held(3), None]);
            // Nothing wanted, nothing sent.
            assert_eq!(peers.post(ep), 0);
        });
    }

    #[test]
    fn the_slot_buffer_makes_the_round_trip_and_is_reused() {
        against_servers(&[&[1]], |ep| {
            // By hand: an all-`None` frame comes back whole, in the
            // buffer that was sent.
            let (home, replies) = unbounded();
            let slots: Slots = vec![(7, None), (8, None), (7, None)];
            let sent = (slots.as_ptr(), slots.clone());
            let frame = Frame {
                owner: 1,
                slots,
                home,
            };
            ep.send(1, Msg::Fetch(frame)).expect("the server is alive");
            let (owner, back) = replies.recv().expect("a reply");
            assert_eq!((owner, back.as_ptr(), back), (1, sent.0, sent.1));

            // Through the client: the second frame to an owner travels
            // in the first one's buffer.
            let mut peers = PeerClient::new();
            let mut buffers = Vec::new();
            for _ in 0..2 {
                for id in [1, 2, 1] {
                    peers.want(1, id);
                }
                assert_eq!(peers.post(ep), 1);
                assert_eq!(peers.pending[1].slots.capacity(), 0, "the buffer is away");
                peers.collect();
                buffers.push(peers.pending[1].slots.as_ptr());
                assert_eq!(peers.take(1, 1), Some(payload(1)));
                assert_eq!(peers.take(1, 2), None);
                assert_eq!(peers.take(1, 1), Some(payload(1)));
            }
            assert_eq!(buffers[0], buffers[1]);
        });
    }

    #[test]
    fn one_frame_per_owner_all_out_before_the_first_reply() {
        against_servers(&[&[10, 11], &[20], &[30, 31]], |ep| {
            let mut peers = PeerClient::new();
            // Interleaved owners, as a run's stream order has them.
            let wanted = [(3, 30), (1, 10), (2, 21), (3, 31), (1, 11), (2, 20)];
            for (owner, id) in wanted {
                peers.want(owner, id);
            }
            assert_eq!(peers.post(ep), 3);
            assert_eq!(peers.in_flight, 3);
            peers.collect();
            for (owner, id) in wanted {
                let expect = (id != 21).then(|| payload(id));
                assert_eq!(peers.take(owner, id), expect, "sample {id}");
            }
        });
    }

    #[test]
    fn a_frame_to_a_dropped_endpoint_comes_home_unanswered() {
        let mut eps = endpoints(2);
        drop(eps.pop());
        let ep0 = eps.pop().expect("rank 0");
        let mut peers = PeerClient::new();
        for id in [4, 5, 4] {
            peers.want(1, id);
        }
        assert_eq!(peers.post(&ep0), 1, "a lost frame is a frame");
        peers.collect();
        for id in [4, 5, 4] {
            assert_eq!(peers.take(1, id), None);
        }
    }

    #[test]
    fn a_frame_queued_at_an_endpoint_that_goes_away_comes_home_unanswered() {
        let mut eps = endpoints(2);
        let ep1 = eps.pop().expect("rank 1");
        let ep0 = eps.pop().expect("rank 0");
        let mut peers = PeerClient::new();
        peers.want(1, 4);
        peers.want(1, 5);
        // Nobody serves rank 1: the frame sits in its inbox...
        assert_eq!(peers.post(&ep0), 1);
        assert!(peers.replies.is_empty());
        // ...until the inbox goes.
        drop(ep1);
        peers.collect();
        assert_eq!(peers.take(1, 4), None);
        assert_eq!(peers.take(1, 5), None);
    }
}
