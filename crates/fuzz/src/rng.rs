//! Seeded deterministic randomness for the generator and case derivation.
//!
//! SplitMix64: tiny, fast, and good enough for fuzzing. Using our own
//! generator (rather than a `rand` RNG) pins the byte-exact case stream to
//! the seed forever — a corpus file's `(seed N)` must regenerate the same
//! kernel on every toolchain and every future version of this crate's
//! dependencies.

use gpucmp_ptx::splitmix64;

/// A SplitMix64 stream.
#[derive(Clone, Debug)]
pub struct Rng {
    state: u64,
}

impl Rng {
    /// A stream seeded with `seed`.
    pub fn new(seed: u64) -> Self {
        Rng { state: seed }
    }

    /// Next raw 64-bit value.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        splitmix64(&mut self.state)
    }

    /// Uniform value in `0..n` (`0` when `n == 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        if n == 0 {
            return 0;
        }
        self.next_u64() % n
    }

    /// Uniform value in `lo..hi` (exclusive upper bound; `lo` if empty).
    pub fn range(&mut self, lo: i64, hi: i64) -> i64 {
        if hi <= lo {
            return lo;
        }
        lo + self.below((hi - lo) as u64) as i64
    }

    /// True with probability `num / den`.
    pub fn chance(&mut self, num: u64, den: u64) -> bool {
        self.below(den) < num
    }

    /// Uniformly pick an element of a non-empty slice.
    pub fn pick<'a, T>(&mut self, xs: &'a [T]) -> &'a T {
        &xs[self.below(xs.len() as u64) as usize]
    }
}

/// Derive the per-case seed for case `index` of a campaign seeded with
/// `seed` (one SplitMix64 mixing step, so neighbouring cases share no
/// low-bit structure).
pub fn case_seed(seed: u64, index: u64) -> u64 {
    let mut r = Rng::new(seed ^ index.wrapping_mul(0xA076_1D64_78BD_642F));
    r.next_u64()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_stream() {
        let mut a = Rng::new(42);
        let mut b = Rng::new(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn below_respects_bound() {
        let mut r = Rng::new(7);
        for _ in 0..1000 {
            assert!(r.below(13) < 13);
        }
        assert_eq!(r.below(0), 0);
    }

    #[test]
    fn case_seeds_are_distinct() {
        let s: Vec<u64> = (0..64).map(|i| case_seed(8, i)).collect();
        let mut uniq = s.clone();
        uniq.sort_unstable();
        uniq.dedup();
        assert_eq!(uniq.len(), s.len());
    }
}
