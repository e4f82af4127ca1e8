//! Deterministic, seedable PRNG: xoshiro256\*\* with SplitMix64 seeding.
//!
//! The surface intentionally mirrors the parts of `rand` the workspace
//! used (`seed_from_u64`, `gen`, `gen_range`, `gen_bool`, `fill_bytes`,
//! `shuffle`), plus [`Rng::split`] for deriving statistically independent
//! child streams — one per replica / component / injector — so that adding
//! a consumer never perturbs the draws seen by existing ones.
//!
//! Determinism contract: for a given seed, every method produces the same
//! results on every platform and every build. Nothing here reads the OS,
//! the clock, or address-space layout.

/// SplitMix64 step: the standard seeding/stream-derivation mixer.
#[inline]
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// xoshiro256\*\* — 256 bits of state, period 2^256 − 1, passes BigCrush.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Rng {
    s: [u64; 4],
}

impl Rng {
    /// Seed the full 256-bit state from a 64-bit seed via SplitMix64
    /// (the construction recommended by the xoshiro authors).
    pub fn seed_from_u64(seed: u64) -> Rng {
        let mut sm = seed;
        let s = [
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
        ];
        Rng { s }
    }

    /// Derive an independent child stream. The child is seeded from fresh
    /// parent output passed through a distinct SplitMix64 stream, so
    /// parent and child (and siblings) never correlate. Drawing from the
    /// parent afterwards continues its own stream unaffected except for
    /// the one draw consumed here.
    pub fn split(&mut self) -> Rng {
        // Domain-separate the child derivation from plain reseeding.
        let mut sm = self.next_u64() ^ 0xA076_1D64_78BD_642F;
        let s = [
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
        ];
        Rng { s }
    }

    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let s = &mut self.s;
        let result = s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        result
    }

    /// Uniform value of any [`FromRng`] type (mirrors `rand::Rng::gen`).
    #[inline]
    pub fn gen<T: FromRng>(&mut self) -> T {
        T::from_rng(self)
    }

    /// Uniform draw from a half-open or inclusive integer range
    /// (mirrors `rand::Rng::gen_range`). Panics on an empty range.
    #[inline]
    pub fn gen_range<R: SampleRange>(&mut self, range: R) -> R::Output {
        range.sample(self)
    }

    /// Bernoulli draw with probability `p` of `true`.
    pub fn gen_bool(&mut self, p: f64) -> bool {
        assert!((0.0..=1.0).contains(&p), "gen_bool p out of range: {p}");
        self.gen::<f64>() < p
    }

    /// Fill a byte slice with uniform bytes.
    pub fn fill_bytes(&mut self, dst: &mut [u8]) {
        let mut chunks = dst.chunks_exact_mut(8);
        for c in &mut chunks {
            c.copy_from_slice(&self.next_u64().to_le_bytes());
        }
        let rem = chunks.into_remainder();
        if !rem.is_empty() {
            let b = self.next_u64().to_le_bytes();
            rem.copy_from_slice(&b[..rem.len()]);
        }
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, slice: &mut [T]) {
        for i in (1..slice.len()).rev() {
            let j = self.below(i as u64 + 1) as usize;
            slice.swap(i, j);
        }
    }

    /// Uniform draw in `[0, n)` — Lemire's multiply-shift with rejection,
    /// so the result is exactly uniform. Panics if `n == 0`.
    pub fn below(&mut self, n: u64) -> u64 {
        assert!(n > 0, "empty range");
        let mut x = self.next_u64();
        let mut m = (x as u128) * (n as u128);
        let mut low = m as u64;
        if low < n {
            let threshold = n.wrapping_neg() % n;
            while low < threshold {
                x = self.next_u64();
                m = (x as u128) * (n as u128);
                low = m as u64;
            }
        }
        (m >> 64) as u64
    }
}

/// Types [`Rng::gen`] can produce uniformly.
pub trait FromRng {
    fn from_rng(rng: &mut Rng) -> Self;
}

macro_rules! from_rng_uint {
    ($($t:ty),*) => {$(
        impl FromRng for $t {
            #[inline]
            fn from_rng(rng: &mut Rng) -> $t {
                rng.next_u64() as $t
            }
        }
    )*};
}
from_rng_uint!(u8, u16, u32, u64, usize);

macro_rules! from_rng_int {
    ($($t:ty),*) => {$(
        impl FromRng for $t {
            #[inline]
            fn from_rng(rng: &mut Rng) -> $t {
                rng.next_u64() as $t
            }
        }
    )*};
}
from_rng_int!(i8, i16, i32, i64, isize);

impl FromRng for u128 {
    #[inline]
    fn from_rng(rng: &mut Rng) -> u128 {
        ((rng.next_u64() as u128) << 64) | rng.next_u64() as u128
    }
}

impl FromRng for bool {
    #[inline]
    fn from_rng(rng: &mut Rng) -> bool {
        // Use the high bit; xoshiro's low bits are the weakest.
        rng.next_u64() >> 63 == 1
    }
}

impl FromRng for f64 {
    /// Uniform in `[0, 1)` with 53 bits of precision.
    #[inline]
    fn from_rng(rng: &mut Rng) -> f64 {
        (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

impl FromRng for f32 {
    #[inline]
    fn from_rng(rng: &mut Rng) -> f32 {
        (rng.next_u64() >> 40) as f32 * (1.0 / (1u64 << 24) as f32)
    }
}

impl<const N: usize> FromRng for [u8; N] {
    #[inline]
    fn from_rng(rng: &mut Rng) -> [u8; N] {
        let mut out = [0u8; N];
        rng.fill_bytes(&mut out);
        out
    }
}

/// Ranges [`Rng::gen_range`] can sample from.
pub trait SampleRange {
    type Output;
    fn sample(self, rng: &mut Rng) -> Self::Output;
}

macro_rules! sample_range_uint {
    ($($t:ty),*) => {$(
        impl SampleRange for core::ops::Range<$t> {
            type Output = $t;
            #[inline]
            fn sample(self, rng: &mut Rng) -> $t {
                assert!(self.start < self.end, "empty range");
                self.start + rng.below((self.end - self.start) as u64) as $t
            }
        }
        impl SampleRange for core::ops::RangeInclusive<$t> {
            type Output = $t;
            #[inline]
            fn sample(self, rng: &mut Rng) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "empty range");
                let span = (hi - lo) as u64;
                if span == u64::MAX {
                    return rng.next_u64() as $t;
                }
                lo + rng.below(span + 1) as $t
            }
        }
    )*};
}
sample_range_uint!(u8, u16, u32, u64, usize);

macro_rules! sample_range_int {
    ($($t:ty),*) => {$(
        impl SampleRange for core::ops::Range<$t> {
            type Output = $t;
            #[inline]
            fn sample(self, rng: &mut Rng) -> $t {
                assert!(self.start < self.end, "empty range");
                let span = (self.end as i64).wrapping_sub(self.start as i64) as u64;
                (self.start as i64).wrapping_add(rng.below(span) as i64) as $t
            }
        }
        impl SampleRange for core::ops::RangeInclusive<$t> {
            type Output = $t;
            #[inline]
            fn sample(self, rng: &mut Rng) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "empty range");
                let span = (hi as i64).wrapping_sub(lo as i64) as u64;
                if span == u64::MAX {
                    return rng.next_u64() as $t;
                }
                (lo as i64).wrapping_add(rng.below(span + 1) as i64) as $t
            }
        }
    )*};
}
sample_range_int!(i8, i16, i32, i64, isize);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = Rng::seed_from_u64(0xDEAD_BEEF);
        let mut b = Rng::seed_from_u64(0xDEAD_BEEF);
        let xs: Vec<u64> = (0..1000).map(|_| a.next_u64()).collect();
        let ys: Vec<u64> = (0..1000).map(|_| b.next_u64()).collect();
        assert_eq!(xs, ys);
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = Rng::seed_from_u64(1);
        let mut b = Rng::seed_from_u64(2);
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn reference_vector_is_stable() {
        // Pin the exact stream so a refactor can never silently change
        // every seeded experiment in the repo. Values captured from this
        // implementation (xoshiro256** seeded via SplitMix64 from 0).
        let mut r = Rng::seed_from_u64(0);
        let got: Vec<u64> = (0..4).map(|_| r.next_u64()).collect();
        let again: Vec<u64> = {
            let mut r = Rng::seed_from_u64(0);
            (0..4).map(|_| r.next_u64()).collect()
        };
        assert_eq!(got, again);
        assert_eq!(got, REFERENCE_SEED0);
    }

    /// First four outputs for seed 0 — update only with a deliberate,
    /// documented break of the determinism contract.
    const REFERENCE_SEED0: [u64; 4] = [
        11091344671253066420,
        13793997310169335082,
        1900383378846508768,
        7684712102626143532,
    ];

    #[test]
    fn split_streams_are_independent() {
        let mut parent = Rng::seed_from_u64(42);
        let mut c1 = parent.split();
        let mut c2 = parent.split();
        // Children differ from each other and from the parent stream.
        let a: Vec<u64> = (0..100).map(|_| c1.next_u64()).collect();
        let b: Vec<u64> = (0..100).map(|_| c2.next_u64()).collect();
        let p: Vec<u64> = (0..100).map(|_| parent.next_u64()).collect();
        assert_ne!(a, b);
        assert_ne!(a, p);
        assert_ne!(b, p);
        // No element-wise collisions either (overwhelmingly unlikely for
        // independent 64-bit streams).
        assert!(a.iter().zip(&b).all(|(x, y)| x != y));
    }

    #[test]
    fn split_is_deterministic() {
        let mk = || {
            let mut p = Rng::seed_from_u64(7);
            let mut c = p.split();
            (0..10).map(|_| c.next_u64()).collect::<Vec<_>>()
        };
        assert_eq!(mk(), mk());
    }

    #[test]
    fn gen_range_bounds_and_coverage() {
        let mut r = Rng::seed_from_u64(3);
        let mut seen = [false; 10];
        for _ in 0..1000 {
            let x = r.gen_range(0usize..10);
            seen[x] = true;
        }
        assert!(seen.iter().all(|&s| s), "all values hit: {seen:?}");
        for _ in 0..1000 {
            let x = r.gen_range(5u64..6);
            assert_eq!(x, 5);
            let y = r.gen_range(-3i32..=3);
            assert!((-3..=3).contains(&y));
        }
        // Full-width inclusive ranges don't overflow.
        let _: u64 = r.gen_range(0u64..=u64::MAX);
        let _: u8 = r.gen_range(0u8..=u8::MAX);
    }

    #[test]
    fn gen_bool_frequency() {
        let mut r = Rng::seed_from_u64(11);
        let hits = (0..10_000).filter(|_| r.gen_bool(0.25)).count();
        assert!((2200..2800).contains(&hits), "{hits}");
        assert!(!(0..100).any(|_| r.gen_bool(0.0)));
        assert!((0..100).all(|_| r.gen_bool(1.0)));
    }

    #[test]
    fn fill_bytes_covers_tail() {
        let mut r = Rng::seed_from_u64(9);
        let mut buf = [0u8; 13];
        r.fill_bytes(&mut buf);
        // 13 zero bytes after filling is a 2^-104 event.
        assert!(buf.iter().any(|&b| b != 0));
        let mut r2 = Rng::seed_from_u64(9);
        let mut buf2 = [0u8; 13];
        r2.fill_bytes(&mut buf2);
        assert_eq!(buf, buf2);
    }

    #[test]
    fn shuffle_permutes_deterministically() {
        let mut r = Rng::seed_from_u64(5);
        let mut v: Vec<u32> = (0..50).collect();
        r.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
        assert_ne!(v, (0..50).collect::<Vec<_>>(), "50 elements stayed put");
        let mut r2 = Rng::seed_from_u64(5);
        let mut v2: Vec<u32> = (0..50).collect();
        r2.shuffle(&mut v2);
        assert_eq!(v, v2);
    }

    #[test]
    fn f64_in_unit_interval() {
        let mut r = Rng::seed_from_u64(13);
        for _ in 0..10_000 {
            let x: f64 = r.gen();
            assert!((0.0..1.0).contains(&x));
        }
    }
}
