//! Aggregation functions.
//!
//! §1 of the paper singles out functions that are **commutative and
//! associative**, "which implies that they can be applied separately on
//! different portions of the input data, disregarding the order, without
//! affecting the correctness of the final result". These laws are exactly
//! what makes partial in-network aggregation safe, and the property tests
//! in this module pin them down for every supported function.
//!
//! Values on the wire are 32-bit lanes; their interpretation is chosen per
//! tree:
//!
//! * [`AggFn::Sum`] uses wrapping addition, which is simultaneously
//!   correct unsigned addition and two's-complement signed addition — the
//!   same trick lets ML gradients ride the Sum path as fixed-point
//!   integers (see [`fixed`]).
//! * [`AggFn::Min`]/[`AggFn::Max`] compare unsigned (SSSP distances, WCC
//!   component ids are naturally unsigned).
//! * [`AggFn::BitOr`]/[`AggFn::BitAnd`] support set-union/intersection
//!   style combiners.

/// A commutative, associative aggregation function over `u32` lanes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum AggFn {
    /// Wrapping sum (default; WordCount counts, PageRank contributions,
    /// gradient accumulation in fixed point).
    #[default]
    Sum,
    /// Unsigned minimum (SSSP distances, WCC component ids).
    Min,
    /// Unsigned maximum.
    Max,
    /// Bitwise OR.
    BitOr,
    /// Bitwise AND.
    BitAnd,
}

impl AggFn {
    /// Applies the function to two lanes.
    #[inline]
    pub fn apply(self, a: u32, b: u32) -> u32 {
        match self {
            AggFn::Sum => a.wrapping_add(b),
            AggFn::Min => a.min(b),
            AggFn::Max => a.max(b),
            AggFn::BitOr => a | b,
            AggFn::BitAnd => a & b,
        }
    }

    /// The identity element: `apply(identity, x) == x` for every `x`.
    #[inline]
    pub fn identity(self) -> u32 {
        match self {
            AggFn::Sum | AggFn::BitOr => 0,
            AggFn::Min | AggFn::BitAnd => u32::MAX,
            AggFn::Max => 0,
        }
    }

    /// Folds an iterator of lanes; `None` on an empty input (there is no
    /// meaningful aggregate of nothing — DAIET never emits a pair it never
    /// received).
    pub fn fold(self, values: impl IntoIterator<Item = u32>) -> Option<u32> {
        values.into_iter().reduce(|a, b| self.apply(a, b))
    }

    /// All supported functions (handy for exhaustive tests).
    pub const ALL: [AggFn; 5] = [AggFn::Sum, AggFn::Min, AggFn::Max, AggFn::BitOr, AggFn::BitAnd];
}

/// Fixed-point encoding of real values into the 32-bit Sum lane.
///
/// Gradient aggregation needs signed fractional values; switches only add
/// integers. Scaling by `2^frac_bits` and storing two's complement in the
/// u32 lane makes wrapping-u32 addition compute exact signed fixed-point
/// addition (overflow wraps, so callers pick `frac_bits` to leave enough
/// headroom — the mlsim crate uses 16 fractional bits for gradients in
/// `[-1000, 1000]`).
pub mod fixed {
    /// Encodes `x` with `frac_bits` fractional bits.
    pub fn encode(x: f64, frac_bits: u32) -> u32 {
        let scaled = (x * f64::from(1u32 << frac_bits)).round();
        (scaled as i64 as i32) as u32
    }

    /// Decodes a lane produced by [`encode`] (possibly after summation).
    pub fn decode(lane: u32, frac_bits: u32) -> f64 {
        f64::from(lane as i32) / f64::from(1u32 << frac_bits)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn apply_matches_semantics() {
        assert_eq!(AggFn::Sum.apply(2, 3), 5);
        assert_eq!(AggFn::Sum.apply(u32::MAX, 1), 0); // wrapping
        assert_eq!(AggFn::Min.apply(2, 3), 2);
        assert_eq!(AggFn::Max.apply(2, 3), 3);
        assert_eq!(AggFn::BitOr.apply(0b0101, 0b0011), 0b0111);
        assert_eq!(AggFn::BitAnd.apply(0b0101, 0b0011), 0b0001);
    }

    #[test]
    fn identity_is_neutral() {
        for f in AggFn::ALL {
            for x in [0u32, 1, 42, 0xDEAD_BEEF, u32::MAX] {
                assert_eq!(f.apply(f.identity(), x), x, "{f:?} identity");
                assert_eq!(f.apply(x, f.identity()), x, "{f:?} identity (right)");
            }
        }
    }

    #[test]
    fn fold_reduces_in_any_grouping() {
        let vals = [5u32, 9, 2, 14, 7];
        assert_eq!(AggFn::Sum.fold(vals), Some(37));
        assert_eq!(AggFn::Min.fold(vals), Some(2));
        assert_eq!(AggFn::Max.fold(vals), Some(14));
        assert_eq!(AggFn::Sum.fold(std::iter::empty()), None);
    }

    #[test]
    fn fixed_point_round_trips() {
        for x in [0.0, 1.5, -2.25, 1000.0, -999.875, 0.0000152587890625] {
            let lane = fixed::encode(x, 16);
            let back = fixed::decode(lane, 16);
            assert!((x - back).abs() < 1.0 / 65536.0, "{x} -> {back}");
        }
    }

    #[test]
    fn fixed_point_sums_through_the_sum_lane() {
        // Sum of signed values via wrapping u32 addition.
        let xs = [1.5f64, -0.75, 2.25, -3.5];
        let lanes: Vec<u32> = xs.iter().map(|&x| fixed::encode(x, 16)).collect();
        let lane_sum = AggFn::Sum.fold(lanes).unwrap();
        let expect: f64 = xs.iter().sum();
        assert!((fixed::decode(lane_sum, 16) - expect).abs() < 1e-4);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #[test]
        fn commutative(f in prop::sample::select(&AggFn::ALL[..]), a: u32, b: u32) {
            prop_assert_eq!(f.apply(a, b), f.apply(b, a));
        }

        #[test]
        fn associative(f in prop::sample::select(&AggFn::ALL[..]), a: u32, b: u32, c: u32) {
            prop_assert_eq!(f.apply(f.apply(a, b), c), f.apply(a, f.apply(b, c)));
        }

        #[test]
        fn identity_neutral(f in prop::sample::select(&AggFn::ALL[..]), a: u32) {
            prop_assert_eq!(f.apply(f.identity(), a), a);
        }

        /// The core correctness property behind in-network aggregation:
        /// any partition of the inputs, aggregated partially and then
        /// combined, equals the direct aggregate (paper §1, third
        /// characteristic of aggregation functions).
        #[test]
        fn partition_invariance(
            f in prop::sample::select(&AggFn::ALL[..]),
            values in prop::collection::vec(any::<u32>(), 1..40),
            split in 0usize..40,
        ) {
            let split = split % values.len();
            let direct = f.fold(values.iter().copied()).unwrap();
            let (left, right) = values.split_at(split);
            let parts: Vec<u32> = [f.fold(left.iter().copied()), f.fold(right.iter().copied())]
                .into_iter()
                .flatten()
                .collect();
            let combined = f.fold(parts).unwrap();
            prop_assert_eq!(direct, combined);
        }

        #[test]
        fn fixed_point_addition_is_exact_for_quarter_steps(
            a in -100_000i32..100_000,
            b in -100_000i32..100_000,
        ) {
            // Values on a 2^-16 grid add exactly through the lane.
            let x = f64::from(a) / 65536.0;
            let y = f64::from(b) / 65536.0;
            let lane = AggFn::Sum.apply(fixed::encode(x, 16), fixed::encode(y, 16));
            prop_assert_eq!(fixed::decode(lane, 16), x + y);
        }
    }
}
