//! The correctness oracle: every delivery of every rank is checked
//! against the clairvoyant stream and the generated payloads.

use crate::fixture::Fixture;
use bytes::Bytes;
use nopfs_core::SampleId;

/// How the traced pass thins its byte-for-byte comparison.
pub const DEEP_EVERY: u64 = 64;

/// Checks one rank's deliveries, in order.
pub struct Oracle<'a> {
    fixture: &'a Fixture,
    expected: &'a [SampleId],
    delivered: u64,
    failed: u64,
    /// Byte-compare every `n`-th delivery against `sample_bytes`.
    deep_every: Option<u64>,
    /// Whether payloads carry the dataset's verifiable header (the
    /// `Perfect` loader of the loop-floor replay hands out random
    /// bytes of the right length).
    check_payload: bool,
}

/// What one rank's oracle saw.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Verdict {
    /// Samples the stream says the rank must receive.
    pub expected: u64,
    /// Missing, out-of-order, wrong-length, undecodable or (deep
    /// check) byte-different deliveries.
    pub failed: u64,
}

impl Verdict {
    pub fn add(&mut self, other: &Verdict) {
        self.expected += other.expected;
        self.failed += other.failed;
    }

    /// A rank that panicked: whatever it did deliver cannot be trusted
    /// to have been checked, so all of its stream counts as failed.
    pub fn all_failed(expected: u64) -> Self {
        Self {
            expected,
            failed: expected,
        }
    }
}

impl<'a> Oracle<'a> {
    pub fn new(fixture: &'a Fixture, rank: usize) -> Self {
        Self {
            fixture,
            expected: fixture.expected_stream(rank),
            delivered: 0,
            failed: 0,
            deep_every: None,
            check_payload: true,
        }
    }

    pub fn deep_every(mut self, n: u64) -> Self {
        self.deep_every = Some(n);
        self
    }

    pub fn lengths_only(mut self) -> Self {
        self.check_payload = false;
        self
    }

    /// Samples the rank must receive over the whole round.
    pub fn expected_len(&self) -> u64 {
        self.expected.len() as u64
    }

    /// Checks the next delivery.
    pub fn check(&mut self, id: SampleId, data: &Bytes) {
        let pos = self.delivered;
        self.delivered += 1;
        if !self.delivery_is_right(pos, id, data) {
            self.failed += 1;
        }
    }

    fn delivery_is_right(&self, pos: u64, id: SampleId, data: &Bytes) -> bool {
        if self.expected.get(pos as usize) != Some(&id) {
            return false; // out of order, or beyond the stream's end
        }
        if data.len() as u64 != self.fixture.sizes[id as usize] {
            return false;
        }
        if !self.check_payload {
            return true;
        }
        if !matches!(self.fixture.profile.decode(data), Ok((got, _)) if got == id) {
            return false;
        }
        match self.deep_every {
            Some(n) if pos.is_multiple_of(n) => {
                *data == self.fixture.profile.sample_bytes(id, data.len() as u64)
            }
            _ => true,
        }
    }

    /// Closes the rank's account: undelivered samples are failures.
    pub fn finish(self) -> Verdict {
        let expected = self.expected.len() as u64;
        Verdict {
            expected,
            failed: self.failed + expected.saturating_sub(self.delivered),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixture::tests::tiny;

    fn deliver(
        f: &Fixture,
        tamper: impl Fn(usize, SampleId, Bytes) -> Option<(SampleId, Bytes)>,
    ) -> Verdict {
        let mut oracle = Oracle::new(f, 0).deep_every(1);
        for (pos, &id) in f.expected_stream(0).iter().enumerate() {
            if let Some((id, data)) = tamper(pos, id, f.payloads[id as usize].clone()) {
                oracle.check(id, &data);
            }
        }
        oracle.finish()
    }

    #[test]
    fn a_faithful_run_passes() {
        let f = Fixture::new(&tiny(1), 5);
        let v = deliver(&f, |_, id, data| Some((id, data)));
        assert_eq!(
            v,
            Verdict {
                expected: 288,
                failed: 0
            }
        );
    }

    #[test]
    fn injected_faults_are_counted() {
        let f = Fixture::new(&tiny(1), 5);
        let stream = f.expected_stream(0);
        // Two deliveries swapped: both positions are out of order.
        let swapped = deliver(&f, |pos, id, data| match pos {
            10 => Some((stream[11], f.payloads[stream[11] as usize].clone())),
            11 => Some((stream[10], f.payloads[stream[10] as usize].clone())),
            _ => Some((id, data)),
        });
        assert_eq!(swapped.failed, 2);
        // One payload cut short.
        let truncated = deliver(&f, |pos, id, data| {
            Some((
                id,
                if pos == 20 {
                    data.slice(0..data.len() - 1)
                } else {
                    data
                },
            ))
        });
        assert_eq!(truncated.failed, 1);
        // One byte flipped in the header region `decode` verifies, one
        // deep in the payload where only the byte comparison looks.
        for offset in [18usize, 300] {
            let corrupted = deliver(&f, |pos, id, data| {
                if pos != 30 {
                    return Some((id, data));
                }
                let mut v = data.to_vec();
                v[offset] ^= 0x40;
                Some((id, Bytes::from(v)))
            });
            assert_eq!(corrupted.failed, 1, "offset {offset}");
        }
        // The last delivery never arrives.
        let dropped = deliver(&f, |pos, id, data| (pos != 287).then_some((id, data)));
        assert_eq!(dropped.failed, 1);
    }

    #[test]
    fn a_panicked_rank_fails_its_whole_stream() {
        assert_eq!(
            Verdict::all_failed(9),
            Verdict {
                expected: 9,
                failed: 9
            }
        );
    }
}
