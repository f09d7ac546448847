//! Per-rank sample cards: all a staging fetch reads about a sample that
//! the plan settles at setup (paper Secs. 3 and 5.2), in one 24-byte
//! slot per sample id — one cache miss per probe instead of one per
//! table (sizes, class map, holder lists, prefetch indices).

use crate::SampleId;
use nopfs_clairvoyance::placement::{GlobalPlacement, UNASSIGNED};
use std::sync::Arc;

/// Remote holders kept on the card — all of them for two ranks —; the
/// rest go to the side table.
pub(crate) const INLINE: usize = 1;

/// Another rank caching the sample in `class`, at `index` of its
/// prefetch list for that class: the remote-progress heuristic's input.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub(crate) struct Holder {
    pub index: u32,
    pub owner: u16,
    pub class: u8,
}

/// One sample as one rank's staging path sees it: its size, the class
/// this rank fills it into ([`UNASSIGNED`]: none) and its `remote`
/// holders, fastest class first, the first [`INLINE`] on the card and
/// the rest in the side table from `spill` on.
#[derive(Clone, Copy, Default)]
pub(crate) struct Card {
    pub size: u64,
    spill: u32,
    remote: u16,
    fill: u8,
    inline: [Holder; INLINE],
}

impl Card {
    /// The tier this rank's plan fills the sample into, if any (also
    /// the staging path's self-healing fill).
    pub fn fill_class(&self) -> Option<usize> {
        (self.fill != UNASSIGNED).then_some(usize::from(self.fill))
    }

    /// Whether no rank caches the sample: every access is an origin read.
    pub fn is_uncached(&self) -> bool {
        self.fill == UNASSIGNED && self.remote == 0
    }
}

/// One rank's cards, indexed by sample id, and its side table.
pub(crate) struct Cards {
    cards: Vec<Card>,
    spill: Vec<Holder>,
}

impl Cards {
    /// Every rank's cards under `placement` of samples of `sizes`.
    pub fn plan(placement: &GlobalPlacement, sizes: &[u64]) -> Vec<Arc<Self>> {
        let workers = placement.num_workers();
        assert!(workers <= 1 << 16, "a card names ranks in 16 bits");
        // index[w][k]: the position of sample k in w's prefetch list.
        let mut index = vec![vec![u32::MAX; sizes.len()]; workers];
        for (w, index) in index.iter_mut().enumerate() {
            let assignment = placement.assignment(w);
            for class in 0..assignment.num_classes() {
                for (i, &k) in assignment.prefetch_order(class).iter().enumerate() {
                    index[k as usize] = i as u32;
                }
            }
        }
        let rank_cards = |w: usize| {
            let mut spill = Vec::new();
            let class_of = placement.assignment(w).class_map();
            let cards = sizes.iter().zip(class_of).enumerate();
            let cards = cards.map(|(k, (&size, &fill))| {
                let at = spill.len();
                let spill_at = u32::try_from(at).expect("side table fits u32");
                let mut card = Card {
                    size,
                    spill: spill_at,
                    fill,
                    ..Card::default()
                };
                for &(o, class) in placement.holders(k as SampleId) {
                    if o != w {
                        let (index, owner) = (index[o][k], o as u16);
                        let holder = Holder {
                            index,
                            owner,
                            class,
                        };
                        match card.inline.get_mut(usize::from(card.remote)) {
                            Some(slot) => *slot = holder,
                            None => spill.push(holder),
                        }
                        card.remote += 1;
                    }
                }
                if card.remote > 1 {
                    // Fastest class first, stably (ranks stay ascending
                    // within a class), across the inline and the spilled.
                    let n = usize::from(card.remote).min(INLINE);
                    spill.splice(at..at, card.inline[..n].iter().copied());
                    spill[at..].sort_by_key(|h: &Holder| h.class);
                    card.inline[..n].copy_from_slice(&spill[at..at + n]);
                    spill.drain(at..at + n);
                }
                card
            });
            Self {
                cards: cards.collect(),
                spill,
            }
        };
        (0..workers).map(rank_cards).map(Arc::new).collect()
    }

    /// Sample `k`'s card.
    pub fn card(&self, k: SampleId) -> &Card {
        &self.cards[k as usize]
    }

    /// The other ranks holding `card`'s sample, fastest class first.
    pub fn holders<'a>(&'a self, card: &'a Card) -> impl Iterator<Item = &'a Holder> {
        let n = usize::from(card.remote);
        let spilled = &self.spill[card.spill as usize..][..n.saturating_sub(INLINE)];
        card.inline[..n.min(INLINE)].iter().chain(spilled)
    }
}
