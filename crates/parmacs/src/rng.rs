//! Small deterministic pseudo-random generator for input synthesis.
//!
//! The kernels only need reproducible, statistically reasonable inputs — not
//! cryptographic quality — so this module replaces the registry `rand`
//! dependency with an in-repo PCG-style generator (`splitmix64` seeding +
//! `xorshift64*` stream). The API mirrors the subset of `rand` the kernels
//! used (`seed_from_u64`, `gen`, `gen_range`) so call sites stay idiomatic.

use std::ops::Range;

/// Seeded pseudo-random generator (xorshift64* over a splitmix64-initialized
/// state). Deterministic across platforms and runs.
#[derive(Debug, Clone)]
pub struct SmallRng {
    state: u64,
}

impl SmallRng {
    /// Create a generator from a 64-bit seed. Any seed (including 0) yields a
    /// full-quality stream: the seed passes through splitmix64 first.
    pub fn seed_from_u64(seed: u64) -> SmallRng {
        // splitmix64: guarantees a non-zero, well-mixed xorshift state.
        let mut z = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
        SmallRng {
            state: if z == 0 { 0x9E37_79B9_7F4A_7C15 } else { z },
        }
    }

    /// Next raw 64-bit value (xorshift64*).
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let mut x = self.state;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.state = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// Next value of a primitive type ([`GenValue`]): `rng.gen::<u32>()`.
    #[inline]
    pub fn gen<T: GenValue>(&mut self) -> T {
        T::gen_from(self)
    }

    /// Uniform sample from a half-open range: `rng.gen_range(-1.0..1.0)` or
    /// `rng.gen_range(0..n)`.
    ///
    /// # Panics
    /// Panics on an empty range.
    #[inline]
    pub fn gen_range<T: SampleUniform>(&mut self, range: Range<T>) -> T {
        T::sample(self, range)
    }

    /// Uniform `f64` in `[0, 1)` with 53 bits of precision.
    #[inline]
    pub fn unit_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

/// Types [`SmallRng::gen`] can produce.
pub trait GenValue {
    /// Draw one value.
    fn gen_from(rng: &mut SmallRng) -> Self;
}

impl GenValue for u32 {
    #[inline]
    fn gen_from(rng: &mut SmallRng) -> u32 {
        (rng.next_u64() >> 32) as u32
    }
}

impl GenValue for u64 {
    #[inline]
    fn gen_from(rng: &mut SmallRng) -> u64 {
        rng.next_u64()
    }
}

impl GenValue for f64 {
    #[inline]
    fn gen_from(rng: &mut SmallRng) -> f64 {
        rng.unit_f64()
    }
}

impl GenValue for bool {
    #[inline]
    fn gen_from(rng: &mut SmallRng) -> bool {
        rng.next_u64() & 1 == 1
    }
}

/// Types [`SmallRng::gen_range`] can sample uniformly over a `Range`.
pub trait SampleUniform: Sized {
    /// Draw one value from `range`.
    fn sample(rng: &mut SmallRng, range: Range<Self>) -> Self;
}

impl SampleUniform for f64 {
    #[inline]
    fn sample(rng: &mut SmallRng, range: Range<f64>) -> f64 {
        assert!(range.start < range.end, "empty range");
        range.start + (range.end - range.start) * rng.unit_f64()
    }
}

macro_rules! impl_sample_int {
    ($($t:ty),*) => {$(
        impl SampleUniform for $t {
            #[inline]
            fn sample(rng: &mut SmallRng, range: Range<$t>) -> $t {
                assert!(range.start < range.end, "empty range");
                let span = (range.end - range.start) as u64;
                // Multiply-shift bounded sampling; bias is < 2^-64 per draw,
                // far below what input synthesis can observe.
                let hi = ((rng.next_u64() as u128 * span as u128) >> 64) as u64;
                range.start + hi as $t
            }
        }
    )*};
}
impl_sample_int!(u32, u64, usize);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = SmallRng::seed_from_u64(42);
        let mut b = SmallRng::seed_from_u64(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = SmallRng::seed_from_u64(1);
        let mut b = SmallRng::seed_from_u64(2);
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn zero_seed_is_usable() {
        let mut r = SmallRng::seed_from_u64(0);
        let v: Vec<u64> = (0..8).map(|_| r.next_u64()).collect();
        assert!(v.iter().any(|&x| x != 0));
        assert_eq!(v.iter().collect::<std::collections::HashSet<_>>().len(), 8);
    }

    #[test]
    fn float_ranges_stay_in_bounds() {
        let mut r = SmallRng::seed_from_u64(7);
        for _ in 0..10_000 {
            let v = r.gen_range(-0.25..1.5);
            assert!((-0.25..1.5).contains(&v));
        }
    }

    #[test]
    fn int_ranges_stay_in_bounds_and_cover() {
        let mut r = SmallRng::seed_from_u64(9);
        let mut seen = [false; 10];
        for _ in 0..1_000 {
            let v = r.gen_range(0usize..10);
            seen[v] = true;
        }
        assert!(seen.iter().all(|&s| s), "all buckets hit: {seen:?}");
    }

    #[test]
    fn unit_floats_look_uniform() {
        let mut r = SmallRng::seed_from_u64(1234);
        let n = 20_000;
        let mean: f64 = (0..n).map(|_| r.unit_f64()).sum::<f64>() / n as f64;
        assert!((mean - 0.5).abs() < 0.01, "mean {mean}");
    }

    #[test]
    fn gen_produces_varied_u32() {
        let mut r = SmallRng::seed_from_u64(5);
        let vals: std::collections::HashSet<u32> = (0..100).map(|_| r.gen::<u32>()).collect();
        assert!(vals.len() > 95);
    }
}
