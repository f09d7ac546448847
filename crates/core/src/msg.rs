//! The inter-worker message protocol.
//!
//! Three message kinds cross the interconnect: the setup allgather that
//! distributes access-stream digests, sample-fetch frames to remote
//! caches, and shutdown markers. A [`Frame`] asks one owner for all the
//! samples a staged run wants from it; the owner fills the frame's
//! slots in place and the frame goes back through an in-process channel
//! it carries (the natural zero-copy idiom here), but the *server* pays
//! the modelled wire cost for the payload via `Endpoint::pace` before
//! replying, so timing matches a real transport. The requester and the
//! serving loop are in [`crate::peer`].

use crate::SampleId;
use bytes::Bytes;
use crossbeam::channel::Sender;
use nopfs_net::Wire;

/// The body of a [`Frame`]: the wanted samples in request order, each
/// with its payload once the owner has filled it in — `None` where the
/// owner had not cached the sample (a progress-heuristic false positive
/// — the paper: "the failure of this heuristic is not an error").
pub type Slots = Vec<(SampleId, Option<Bytes>)>;

/// One owner's share of a staged run's remote fetches.
///
/// A frame always comes home: whoever drops it — the serving loop when
/// it has filled the slots, `Endpoint::send` when the owner's endpoint
/// is gone, an inbox torn down with the frame still queued — sends the
/// slots back to the requester as they are. A frame that was never
/// answered therefore reads as a frame of false positives, and the
/// requester waits for exactly one reply per frame it sent.
///
/// ([`Msg`] is `Clone` for the setup allgather; nothing clones a frame,
/// and a clone would be a second frame that comes home on its own.)
#[derive(Debug, Clone)]
pub struct Frame {
    /// The rank asked, so the requester can tell its replies apart.
    pub(crate) owner: usize,
    pub(crate) slots: Slots,
    pub(crate) home: Sender<(usize, Slots)>,
}

impl Drop for Frame {
    fn drop(&mut self) {
        // An error means the requester is gone: nobody waits for this.
        let _ = self
            .home
            .send((self.owner, std::mem::take(&mut self.slots)));
    }
}

/// Messages between workers.
#[derive(Debug, Clone)]
pub enum Msg {
    /// Access-stream digest for the setup allgather (Sec. 5.2.2: the
    /// distributed manager distributes each worker's `R`; streams are
    /// recomputable from the seed, so a digest suffices to verify
    /// agreement).
    Digest(u64),
    /// Request for cached samples.
    Fetch(Frame),
    /// The cluster is done; the serving loop may exit.
    Shutdown,
}

impl Wire for Msg {
    fn wire_size(&self) -> u64 {
        match self {
            // Digest and fetch are metadata-sized messages: a header
            // and one id per slot.
            Msg::Digest(_) => 8,
            Msg::Fetch(frame) => 8 + 8 * frame.slots.len() as u64,
            Msg::Shutdown => 1,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wire_sizes_are_metadata_scale() {
        let (home, _rx) = crossbeam::channel::unbounded();
        assert_eq!(Msg::Digest(1).wire_size(), 8);
        let frame = |slots: Slots| {
            Msg::Fetch(Frame {
                owner: 1,
                slots,
                home: home.clone(),
            })
        };
        assert_eq!(frame(vec![(3, None)]).wire_size(), 16);
        assert_eq!(frame(vec![(3, None); 8]).wire_size(), 72);
        assert_eq!(Msg::Shutdown.wire_size(), 1);
    }

    #[test]
    fn a_dropped_frame_comes_home_as_it_is() {
        let (home, rx) = crossbeam::channel::unbounded();
        let slots: Slots = vec![(3, None), (9, Some(Bytes::from_static(b"x")))];
        drop(Frame {
            owner: 2,
            slots: slots.clone(),
            home,
        });
        assert_eq!(rx.try_recv().expect("the frame came home"), (2, slots));
        assert!(rx.try_recv().is_err(), "once");
    }
}
