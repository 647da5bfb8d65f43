//! Deterministic loss/duplication injection at the socket edge.
//!
//! The simulator injects faults per link direction (`FaultProfile` in
//! `daiet-netsim`), seeded so a given seed always drops the same frames.
//! The real-time backend needs the same property — a CI job that "proves
//! NACK recovery over genuine UDP" is worthless if the loss pattern is
//! whatever the kernel felt like — so the driver routes every egress
//! datagram through a [`FaultShim`]: a seeded `SmallRng` stream of
//! drop/duplicate decisions, plus an optional scripted list of exact
//! egress indices to drop (for regression tests that must kill one
//! specific frame, e.g. a flush END).
//!
//! Injection is on egress, before the socket write: a dropped frame never
//! reaches the wire, a duplicated one is written twice back-to-back. Both
//! are indistinguishable, to the receiver, from genuine network loss and
//! duplication.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeSet;

/// What to do with one egress frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShimDecision {
    /// Write the datagram once.
    Deliver,
    /// Do not write the datagram at all.
    Drop,
    /// Write the datagram twice back-to-back.
    Duplicate,
}

/// A seeded fault filter for one driver's egress path (see module docs).
#[derive(Debug)]
pub struct FaultShim {
    drop_p: f64,
    dup_p: f64,
    rng: SmallRng,
    /// Exact egress indices (0-based, pre-shim count) to drop, on top of
    /// the probabilistic stream.
    scripted_drops: BTreeSet<u64>,
    seen: u64,
    /// Frames dropped (probabilistic + scripted).
    pub dropped: u64,
    /// Frames duplicated.
    pub duplicated: u64,
}

impl FaultShim {
    /// A transparent shim: every frame is delivered exactly once.
    pub fn none() -> FaultShim {
        FaultShim::seeded(0, 0.0, 0.0)
    }

    /// A shim dropping each frame with probability `drop_p` and
    /// duplicating with `dup_p`, drawn from a stream derived from `seed`.
    /// The same seed always yields the same decision sequence.
    pub fn seeded(seed: u64, drop_p: f64, dup_p: f64) -> FaultShim {
        assert!((0.0..=1.0).contains(&drop_p), "drop_p must be a probability");
        assert!((0.0..=1.0).contains(&dup_p), "dup_p must be a probability");
        FaultShim {
            drop_p,
            dup_p,
            rng: SmallRng::seed_from_u64(seed ^ SHIM_SEED_TAG),
            scripted_drops: BTreeSet::new(),
            seen: 0,
            dropped: 0,
            duplicated: 0,
        }
    }

    /// Additionally drops the frames at exactly these egress indices
    /// (counted from 0 over this driver's lifetime).
    pub fn with_scripted_drops(mut self, indices: impl IntoIterator<Item = u64>) -> FaultShim {
        self.scripted_drops.extend(indices);
        self
    }

    /// Decides the fate of the next egress frame.
    pub fn decide(&mut self) -> ShimDecision {
        let idx = self.seen;
        self.seen += 1;
        // Draw both variates unconditionally so scripted drops never
        // shift the probabilistic stream for later frames.
        let d: f64 = self.rng.random();
        let u: f64 = self.rng.random();
        if self.scripted_drops.contains(&idx) || (self.drop_p > 0.0 && d < self.drop_p) {
            self.dropped += 1;
            return ShimDecision::Drop;
        }
        if self.dup_p > 0.0 && u < self.dup_p {
            self.duplicated += 1;
            return ShimDecision::Duplicate;
        }
        ShimDecision::Deliver
    }
}

/// A seed perturbation so `FaultShim::seeded(s, ..)` and a simulator run
/// seeded `s` never share a stream by accident.
const SHIM_SEED_TAG: u64 = 0x00fa_b71c_5ead;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn none_is_transparent() {
        let mut s = FaultShim::none();
        for _ in 0..1000 {
            assert_eq!(s.decide(), ShimDecision::Deliver);
        }
        assert_eq!(s.dropped, 0);
        assert_eq!(s.duplicated, 0);
    }

    #[test]
    fn same_seed_same_decisions() {
        let run = |seed| {
            let mut s = FaultShim::seeded(seed, 0.2, 0.1);
            (0..500).map(|_| s.decide()).collect::<Vec<_>>()
        };
        assert_eq!(run(42), run(42));
        assert_ne!(run(42), run(43));
    }

    #[test]
    fn rates_are_roughly_honoured() {
        let mut s = FaultShim::seeded(7, 0.1, 0.0);
        for _ in 0..10_000 {
            s.decide();
        }
        assert!((800..1200).contains(&(s.dropped as i64)), "got {}", s.dropped);
    }

    #[test]
    fn scripted_drop_hits_the_exact_frame_without_shifting_the_stream() {
        let mut plain = FaultShim::seeded(9, 0.05, 0.05);
        let base: Vec<_> = (0..100).map(|_| plain.decide()).collect();
        let mut scripted = FaultShim::seeded(9, 0.05, 0.05).with_scripted_drops([13]);
        let got: Vec<_> = (0..100).map(|_| scripted.decide()).collect();
        assert_eq!(got[13], ShimDecision::Drop);
        for i in (0..100).filter(|&i| i != 13) {
            assert_eq!(got[i], base[i], "frame {i} shifted");
        }
    }
}
