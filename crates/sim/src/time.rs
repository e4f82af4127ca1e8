//! Simulated time and CPU-cycle accounting.
//!
//! The simulation clock is a monotonically increasing count of nanoseconds.
//! Process work is expressed in CPU cycles and converted to wall time with
//! the frequency of the hardware thread executing it, so the same component
//! runs proportionally faster on the 2.26 GHz Xeon than on the 1.9 GHz AMD —
//! exactly as in the paper's two testbeds.

use std::fmt;
use std::ops::{Add, AddAssign, Sub};

/// CPU cycles of work charged by a process handler.
pub type Cycles = u64;

/// A point in simulated time, in nanoseconds since simulation start.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Time(pub u64);

impl Time {
    pub const ZERO: Time = Time(0);

    /// Largest representable instant; used as "never".
    pub const MAX: Time = Time(u64::MAX);

    pub fn from_nanos(ns: u64) -> Time {
        Time(ns)
    }

    pub fn from_micros(us: u64) -> Time {
        Time(us * 1_000)
    }

    pub fn from_millis(ms: u64) -> Time {
        Time(ms * 1_000_000)
    }

    pub fn from_secs(s: u64) -> Time {
        Time(s * 1_000_000_000)
    }

    pub fn as_nanos(self) -> u64 {
        self.0
    }

    pub fn as_micros_f64(self) -> f64 {
        self.0 as f64 / 1e3
    }

    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Duration since an earlier instant (saturating).
    pub fn since(self, earlier: Time) -> Time {
        Time(self.0.saturating_sub(earlier.0))
    }
}

impl Add for Time {
    type Output = Time;
    fn add(self, rhs: Time) -> Time {
        Time(self.0 + rhs.0)
    }
}

impl AddAssign for Time {
    fn add_assign(&mut self, rhs: Time) {
        self.0 += rhs.0;
    }
}

impl Sub for Time {
    type Output = Time;
    fn sub(self, rhs: Time) -> Time {
        Time(self.0.saturating_sub(rhs.0))
    }
}

impl fmt::Display for Time {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 1_000_000_000 {
            write!(f, "{:.3}s", self.as_secs_f64())
        } else if self.0 >= 1_000_000 {
            write!(f, "{:.3}ms", self.as_millis_f64())
        } else if self.0 >= 1_000 {
            write!(f, "{:.3}us", self.as_micros_f64())
        } else {
            write!(f, "{}ns", self.0)
        }
    }
}

/// A CPU clock frequency.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Freq {
    /// Frequency in kHz (1.9 GHz == 1_900_000).
    pub khz: u64,
}

impl Freq {
    pub fn ghz(g: f64) -> Freq {
        Freq {
            khz: (g * 1e6) as u64,
        }
    }

    /// Convert a cycle count to wall-clock nanoseconds at this frequency,
    /// rounding up so nonzero work always consumes nonzero time.
    pub fn cycles_to_time(self, cycles: Cycles) -> Time {
        if cycles == 0 {
            return Time::ZERO;
        }
        // ns = cycles / (khz * 1e3 / 1e9) = cycles * 1e6 / khz, in u64 while
        // the product fits (up to 1.8e13 cycles, hours of work) and in u128
        // beyond: the same quotient either way.
        let ns = match cycles.checked_mul(1_000_000) {
            Some(scaled) => scaled.div_ceil(self.khz),
            None => (cycles as u128 * 1_000_000).div_ceil(self.khz as u128) as u64,
        };
        Time(ns)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn time_units_compose() {
        assert_eq!(Time::from_secs(2), Time::from_millis(2_000));
        assert_eq!(Time::from_millis(3), Time::from_micros(3_000));
        assert_eq!(Time::from_micros(5), Time::from_nanos(5_000));
    }

    #[test]
    fn time_arith() {
        let a = Time::from_micros(10);
        let b = Time::from_micros(4);
        assert_eq!((a + b).as_nanos(), 14_000);
        assert_eq!((a - b).as_nanos(), 6_000);
        // subtraction saturates rather than wrapping
        assert_eq!((b - a).as_nanos(), 0);
        assert_eq!(b.since(a), Time::ZERO);
        assert_eq!(a.since(b).as_nanos(), 6_000);
    }

    #[test]
    fn freq_cycle_conversion_roundtrip() {
        let f = Freq::ghz(1.9);
        // 1.9e9 cycles == 1 second
        assert_eq!(f.cycles_to_time(1_900_000_000), Time::from_secs(1));
        let f2 = Freq::ghz(2.26);
        assert_eq!(f2.cycles_to_time(2_260_000), Time::from_millis(1));
    }

    #[test]
    fn u64_and_u128_conversions_agree_where_they_meet() {
        let edge = u64::MAX / 1_000_000;
        for f in [
            Freq::ghz(1.9),
            Freq::ghz(2.26),
            Freq::ghz(3.0),
            Freq { khz: 7 },
        ] {
            for cycles in [1, 999, edge - 1, edge, edge + 1, u64::MAX / 2, u64::MAX] {
                let ns = (cycles as u128 * 1_000_000).div_ceil(f.khz as u128) as u64;
                assert_eq!(
                    f.cycles_to_time(cycles),
                    Time(ns),
                    "{cycles} cycles at {f:?}"
                );
            }
        }
    }

    #[test]
    fn nonzero_cycles_take_nonzero_time() {
        let f = Freq::ghz(3.0);
        assert!(f.cycles_to_time(1) > Time::ZERO);
        assert_eq!(f.cycles_to_time(0), Time::ZERO);
    }

    #[test]
    fn display_picks_unit() {
        assert_eq!(format!("{}", Time::from_nanos(12)), "12ns");
        assert_eq!(format!("{}", Time::from_micros(12)), "12.000us");
        assert_eq!(format!("{}", Time::from_millis(12)), "12.000ms");
        assert_eq!(format!("{}", Time::from_secs(12)), "12.000s");
    }
}
