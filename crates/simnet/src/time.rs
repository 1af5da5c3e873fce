//! Simulated time.
//!
//! The engine keeps time in integer **nanoseconds** so that event
//! ordering is exact and runs are bit-reproducible. All of the paper's
//! parameters (λ = 95.0 µs, τ = 0.394 µs/B, δ = 10.3 µs/dim,
//! ρ = 0.54 µs/B, ...) are exact multiples of a nanosecond.

use serde::{Deserialize, Serialize};

/// An absolute simulated time (nanoseconds since simulation start).
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct SimTime(pub u64);

impl SimTime {
    /// Simulation origin.
    pub const ZERO: SimTime = SimTime(0);

    /// Latest instant a caller's input may schedule: a tenant job's
    /// start, a background stream's last injection, the end of a
    /// `Compute`, a flow-control backoff. Half the `u64` range
    /// (2^63 − 1 ns, about 292 years), so the transmissions, barriers
    /// and shuffles the engine adds on top cannot wrap the clock.
    /// Inputs past it are typed errors (`SimError::InvalidConfig`, or
    /// `InvalidProgram` for a `Compute`).
    pub const HORIZON: SimTime = SimTime(u64::MAX / 2);

    /// Construct from microseconds (the paper's unit), rounding to the
    /// nearest nanosecond.
    ///
    /// Negative, NaN or infinite inputs are programming errors: they
    /// debug-assert, and in release builds saturate through the
    /// float-to-int cast (negative/NaN to `0`). Configuration-level
    /// inputs should be vetted by [`crate::SimConfig::validate`]
    /// before they reach here.
    #[inline]
    pub fn from_us(us: f64) -> SimTime {
        debug_assert!(us >= 0.0 && us.is_finite(), "invalid time {us}");
        SimTime(round_ns(us * 1000.0))
    }

    /// The time in microseconds.
    #[inline]
    pub fn as_us(self) -> f64 {
        self.0 as f64 / 1000.0
    }

    /// The time in nanoseconds.
    #[inline]
    pub fn as_ns(self) -> u64 {
        self.0
    }

    /// Advance by a duration in nanoseconds. Panics in every build —
    /// never wraps — if the sum passes `u64::MAX`; validated inputs
    /// keep the engine's clock near [`SimTime::HORIZON`] at most.
    #[inline]
    pub fn plus_ns(self, ns: u64) -> SimTime {
        SimTime(self.0.checked_add(ns).expect("simulated time passed u64::MAX ns"))
    }

    /// `self + ns`, or `None` when the sum passes [`SimTime::HORIZON`]
    /// (or `u64::MAX`): the check for additions a caller controls.
    #[inline]
    pub fn checked_plus_ns(self, ns: u64) -> Option<SimTime> {
        self.0.checked_add(ns).map(SimTime).filter(|&t| t <= SimTime::HORIZON)
    }

    /// Saturating difference in nanoseconds.
    #[inline]
    pub fn since(self, earlier: SimTime) -> u64 {
        self.0.saturating_sub(earlier.0)
    }
}

impl std::fmt::Display for SimTime {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:.3}us", self.as_us())
    }
}

/// Convert a duration in microseconds to nanoseconds, rounding.
///
/// Negative, NaN or infinite durations debug-assert (release builds
/// saturate through the cast); see [`SimTime::from_us`].
#[inline]
pub fn us_to_ns(us: f64) -> u64 {
    debug_assert!(us >= 0.0 && us.is_finite(), "invalid duration {us}");
    round_ns(us * 1000.0)
}

/// `ns.round() as u64` without the libm call `f64::round` is on
/// baseline x86-64: the saturating truncation, plus one when the
/// dropped fraction (exact: `t` is `ns`'s integer part) is at least a
/// half.
#[inline]
pub(crate) fn round_ns(ns: f64) -> u64 {
    let t = ns as u64;
    if ns - t as f64 >= 0.5 {
        t.saturating_add(1)
    } else {
        t
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrips() {
        for us in [0.0, 0.394, 10.3, 82.5, 95.0, 150.0, 12345.678] {
            let t = SimTime::from_us(us);
            assert!((t.as_us() - us).abs() < 1e-9, "{us}");
        }
    }

    #[test]
    fn paper_constants_are_exact() {
        assert_eq!(us_to_ns(0.394), 394);
        assert_eq!(us_to_ns(10.3), 10_300);
        assert_eq!(us_to_ns(82.5), 82_500);
        assert_eq!(us_to_ns(0.54), 540);
    }

    /// `round_ns` is `f64::round() as u64` bit for bit.
    #[test]
    fn round_ns_is_round_then_cast() {
        let two52 = (1u64 << 52) as f64;
        let two64 = 18_446_744_073_709_551_616.0f64;
        let mut cases = vec![
            0.0,
            -0.0,
            0.5,
            1.5,
            2.5,
            0.49999999999999994,
            1.4999999999999998,
            4_503_599_627_370_495.5,
            two52,
            two52 + 1.0,
            two52 * 2.0 - 1.0,
            two52 * 2.0,
            two64 - 2048.0,
            two64,
            two64 * 2.0,
            f64::MAX,
            -0.5,
            -0.49999999999999994,
            -1.5,
            -1e300,
            f64::MIN,
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::MIN_POSITIVE,
            f64::EPSILON,
        ];
        for k in 0..2000u32 {
            let x = f64::from(k) / 4.0;
            cases.extend([x, x.next_up(), x.next_down(), x * 1e6 + 0.5]);
        }
        let mut rng = proptest::TestRng::from_name("round_ns");
        cases.extend((0..10_000).map(|_| f64::from_bits(rng.next_u64())));
        for x in cases {
            assert_eq!(round_ns(x), x.round() as u64, "{x:e} ({:#x})", x.to_bits());
        }
    }

    #[test]
    fn arithmetic() {
        let t = SimTime::from_us(1.0).plus_ns(500);
        assert_eq!(t.as_ns(), 1500);
        assert_eq!(t.since(SimTime::from_us(1.0)), 500);
        assert_eq!(SimTime::ZERO.since(t), 0, "saturating");
        assert_eq!(t.checked_plus_ns(500), Some(SimTime(2000)));
        let h = SimTime::HORIZON;
        assert_eq!(SimTime::ZERO.checked_plus_ns(h.as_ns()), Some(h));
        assert_eq!(h.checked_plus_ns(1), None, "past the horizon");
        assert_eq!(t.checked_plus_ns(u64::MAX), None, "past u64::MAX");
    }

    #[test]
    #[should_panic(expected = "simulated time passed u64::MAX ns")]
    fn plus_ns_panics_instead_of_wrapping() {
        let _ = SimTime(10).plus_ns(u64::MAX - 3);
    }

    #[test]
    fn ordering_and_display() {
        assert!(SimTime::from_us(1.0) < SimTime::from_us(2.0));
        assert_eq!(format!("{}", SimTime::from_us(1.5)), "1.500us");
    }

    #[test]
    #[cfg_attr(debug_assertions, should_panic(expected = "invalid time"))]
    fn rejects_negative_in_debug() {
        let t = SimTime::from_us(-1.0);
        // Release builds: the cast saturates to the origin.
        assert_eq!(t, SimTime::ZERO);
    }

    #[test]
    #[cfg_attr(debug_assertions, should_panic(expected = "invalid duration"))]
    fn rejects_nan_duration_in_debug() {
        let ns = us_to_ns(f64::NAN);
        assert_eq!(ns, 0);
    }
}
