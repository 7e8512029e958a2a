//! Deterministic, order-independent randomness.
//!
//! Fleet simulations interleave millions of operations across thousands of
//! simulated cores; if activation draws came from one shared sequential RNG,
//! any change in iteration order (a new screener, a reordered scheduler
//! decision) would perturb *every* downstream draw and make experiments
//! impossible to compare. Instead we use a **counter-based** generator: each
//! draw is a pure function of `(seed, stream, counter)`, in the spirit of
//! SplitMix64. Two runs that perform the same logical operation get the same
//! draw no matter what happened in between.

use serde::{Deserialize, Serialize};

/// SplitMix64's finalizer: a high-quality 64-bit mixing function.
///
/// This passes the usual avalanche tests and is the standard tool for
/// counter-based generation (Steele et al., "Fast Splittable Pseudorandom
/// Number Generators").
#[inline]
pub fn mix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Combines a seed with up to three stream identifiers into one 64-bit key.
#[inline]
pub fn stream_key(seed: u64, a: u64, b: u64, c: u64) -> u64 {
    StreamFamily::new(seed, b, c).key(a)
}

/// The streams `(seed, ·, b, c)`: every key [`stream_key`] derives with
/// those three parts fixed, told apart by `a`.
///
/// A per-core or per-machine stream varies only `a` across a whole run,
/// so the family mixes the three fixed parts once and each member costs
/// one `mix64` for its key. The key is a plain XOR of the four mixed
/// parts, so `StreamFamily::new(s, b, c).key(a) == stream_key(s, a, b, c)`
/// for every input — [`stream_key`] is defined through this type.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StreamFamily {
    /// `mix64(seed) ^ mix64(b·K_b) ^ mix64(c·K_c)`.
    base: u64,
}

impl StreamFamily {
    /// The family of streams keyed on `(seed, ·, b, c)`.
    #[inline]
    pub fn new(seed: u64, b: u64, c: u64) -> StreamFamily {
        // Each component is mixed before combination so that low-entropy
        // ids (small integers) still decorrelate the streams.
        StreamFamily {
            base: mix64(seed)
                ^ mix64(b.wrapping_mul(0xa076_1d64_78bd_642f))
                ^ mix64(c.wrapping_mul(0xe703_7ed1_a0b4_28db)),
        }
    }

    /// The key of member `a`.
    #[inline]
    pub fn key(&self, a: u64) -> u64 {
        self.base ^ mix64(a.wrapping_mul(MEMBER_MUL))
    }

    /// The generator of member `a`, at counter zero.
    #[inline]
    pub fn rng(&self, a: u64) -> CounterRng {
        CounterRng::new(self.key(a))
    }

    /// Calls `hit(i)`, in ascending `i`, for each member `first + i`
    /// (`i < n`) whose first draw lands `coin`: exactly the `i` with
    /// `coin.hits(self.rng(first + i).at(0))`.
    ///
    /// A member's first draw is `mix64(base ^ mix64(a·K))`, and `a·K`
    /// steps by the constant `K` from one member to the next, so the walk
    /// runs eight members at a time as eight independent lanes of the
    /// two `mix64` rounds and the threshold compare; only a hit leaves
    /// the lanes. The body is compiled twice: plainly, and for AVX-512
    /// (whose 64-bit lane multiply does the rounds in one vector), which
    /// runs where the CPU has it ([`coin_kernel`] names the one chosen).
    #[inline]
    pub fn coin_hits(&self, first: u64, n: u64, coin: Coin, hit: impl FnMut(u64)) {
        #[cfg(target_arch = "x86_64")]
        if wide_lanes() {
            // SAFETY: `wide_lanes` has just found every feature that
            // `coin_hits_avx512` is compiled for on this CPU.
            unsafe { coin_hits_avx512(self.base, first, n, coin, hit) };
            return;
        }
        coin_hits_lanes(self.base, first, n, coin, hit);
    }
}

/// The multiplier that spreads a member id `a` before its `mix64`.
const MEMBER_MUL: u64 = 0xd6e8_feb8_6659_fd93;

/// Members per step of [`StreamFamily::coin_hits`]'s lane walk.
const LANES: u64 = 8;

/// The body of [`StreamFamily::coin_hits`] over a family's `base`,
/// written once and compiled into each caller.
#[inline(always)]
fn coin_hits_lanes(base: u64, first: u64, n: u64, coin: Coin, mut hit: impl FnMut(u64)) {
    let draw = |spread: u64| mix64(base ^ mix64(spread)) >> 11;
    let mut spread = first.wrapping_mul(MEMBER_MUL);
    let mut i = 0;
    while n - i >= LANES {
        // All eight draws, then one any-hit test over them: the shape the
        // vectoriser keeps in full-width lanes. A hit (one group in ~8,000
        // at the catalog's rates) rescans the eight.
        let mut draws = [0u64; LANES as usize];
        for (l, d) in draws.iter_mut().enumerate() {
            *d = draw(spread.wrapping_add((l as u64).wrapping_mul(MEMBER_MUL)));
        }
        if draws
            .iter()
            .fold(false, |any, &d| any | (d < coin.threshold))
        {
            for (l, &d) in draws.iter().enumerate() {
                if d < coin.threshold {
                    hit(i + l as u64);
                }
            }
        }
        spread = spread.wrapping_add(LANES.wrapping_mul(MEMBER_MUL));
        i += LANES;
    }
    while i < n {
        if draw(spread) < coin.threshold {
            hit(i);
        }
        spread = spread.wrapping_add(MEMBER_MUL);
        i += 1;
    }
}

/// [`coin_hits_lanes`] compiled for AVX-512F and -DQ. Code not compiled
/// for both calls it in an `unsafe` block, after [`wide_lanes`] has found
/// them on the running CPU: on one without them it would fault.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,avx512dq")]
fn coin_hits_avx512(base: u64, first: u64, n: u64, coin: Coin, hit: impl FnMut(u64)) {
    coin_hits_lanes(base, first, n, coin, hit);
}

/// Whether this CPU has every feature `coin_hits_avx512` is compiled for.
#[cfg(target_arch = "x86_64")]
fn wide_lanes() -> bool {
    use std::arch::is_x86_feature_detected as cpu_has;
    cpu_has!("avx512f") && cpu_has!("avx512dq")
}

/// The compilation [`StreamFamily::coin_hits`] runs on this CPU:
/// `"avx512"` or `"plain"`.
pub fn coin_kernel() -> &'static str {
    #[cfg(target_arch = "x86_64")]
    if wide_lanes() {
        return "avx512";
    }
    "plain"
}

/// The Bernoulli test `uniform_at(counter) < p` on the raw 64-bit draw.
///
/// A uniform is `(raw >> 11)·2⁻⁵³`, and multiplying by a power of two is
/// exact, so `u < p` holds exactly when the integer `raw >> 11` is below
/// `p·2⁵³` — that is, below `ceil(p·2⁵³)`. The saturating float-to-int
/// cast sends NaN and `p <= 0` to a threshold of 0 (never hits, as `u < p`
/// never holds) and `p >= 1` to at least 2⁵³ (always hits), so the two
/// tests agree for every `f64`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Coin {
    /// Hits are the draws with `raw >> 11` below this.
    threshold: u64,
}

impl Coin {
    /// A coin that lands heads with probability `p`.
    #[inline]
    pub fn new(p: f64) -> Coin {
        Coin {
            threshold: (p * UNIT_STEPS).ceil() as u64,
        }
    }

    /// Whether the raw draw `raw` (a [`CounterRng::at`] value) is a hit.
    #[inline]
    pub fn hits(self, raw: u64) -> bool {
        (raw >> 11) < self.threshold
    }
}

/// 2⁵³: the number of distinct uniforms in `[0, 1)` a draw can produce.
const UNIT_STEPS: f64 = (1u64 << 53) as f64;

/// A counter-based pseudorandom generator.
///
/// `CounterRng` is `Copy`-cheap to construct, has no heap state, and every
/// output is a pure function of `(key, counter)`.
///
/// # Examples
///
/// ```
/// use mercurial_fault::CounterRng;
///
/// let mut a = CounterRng::from_parts(42, 7, 3, 0);
/// let mut b = CounterRng::from_parts(42, 7, 3, 0);
/// assert_eq!(a.next_u64(), b.next_u64());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct CounterRng {
    key: u64,
    counter: u64,
}

impl CounterRng {
    /// Creates a generator for a given key, starting at counter zero.
    pub fn new(key: u64) -> CounterRng {
        CounterRng { key, counter: 0 }
    }

    /// Creates a generator keyed on `(seed, a, b, c)` stream identifiers.
    pub fn from_parts(seed: u64, a: u64, b: u64, c: u64) -> CounterRng {
        StreamFamily::new(seed, b, c).rng(a)
    }

    /// The draw at an explicit counter value, without advancing state.
    #[inline]
    pub fn at(&self, counter: u64) -> u64 {
        mix64(self.key ^ counter.wrapping_mul(0x2545_f491_4f6c_dd1d))
    }

    /// A uniform `f64` in `[0, 1)` at an explicit counter value.
    #[inline]
    pub fn uniform_at(&self, counter: u64) -> f64 {
        // 53 bits of mantissa.
        (self.at(counter) >> 11) as f64 * (1.0 / UNIT_STEPS)
    }

    /// The current counter value.
    pub fn counter(&self) -> u64 {
        self.counter
    }

    /// A uniform `f64` in `[0, 1)`, advancing the counter.
    #[inline]
    pub fn next_uniform(&mut self) -> f64 {
        let v = self.uniform_at(self.counter);
        self.counter = self.counter.wrapping_add(1);
        v
    }

    /// A Bernoulli draw with probability `p`, advancing the counter.
    #[inline]
    pub fn next_bool(&mut self, p: f64) -> bool {
        self.next_uniform() < p
    }

    /// A uniform integer in `[0, n)`, advancing the counter.
    ///
    /// Uses the widening-multiply method; bias is negligible for the `n`
    /// values used in simulation (far below 2^32).
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    #[inline]
    pub fn next_below(&mut self, n: u64) -> u64 {
        assert!(n > 0, "next_below(0) is meaningless");
        ((self.next_u64() as u128 * n as u128) >> 64) as u64
    }

    /// An exponentially distributed draw with the given rate (mean `1/rate`).
    ///
    /// # Panics
    ///
    /// Panics if `rate` is not strictly positive.
    #[inline]
    pub fn next_exp(&mut self, rate: f64) -> f64 {
        assert!(rate > 0.0, "exponential rate must be positive");
        let u = self.next_uniform();
        // `1 - u` is in (0, 1], so the log is finite.
        -(1.0 - u).ln() / rate
    }

    /// A raw 64-bit draw, advancing the counter.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let v = self.at(self.counter);
        self.counter = self.counter.wrapping_add(1);
        v
    }

    /// Fills `dest` with little-endian draws, one counter value per 8
    /// bytes (the last draw truncated).
    pub fn fill_bytes(&mut self, dest: &mut [u8]) {
        for chunk in dest.chunks_mut(8) {
            let v = self.next_u64().to_le_bytes();
            chunk.copy_from_slice(&v[..chunk.len()]);
        }
    }

    /// A standard normal draw (Box–Muller, consuming two counter values).
    pub fn next_normal(&mut self) -> f64 {
        let u1 = self.next_uniform();
        let u2 = self.next_uniform();
        let r = (-2.0 * (1.0 - u1).ln()).sqrt();
        r * (std::f64::consts::TAU * u2).cos()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_across_instances() {
        let a = CounterRng::from_parts(1, 2, 3, 4);
        let b = CounterRng::from_parts(1, 2, 3, 4);
        for c in 0..100 {
            assert_eq!(a.at(c), b.at(c));
        }
    }

    #[test]
    fn different_streams_decorrelate() {
        let a = CounterRng::from_parts(1, 2, 3, 4);
        let b = CounterRng::from_parts(1, 2, 3, 5);
        let same = (0..1000).filter(|&c| a.at(c) == b.at(c)).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn uniform_in_unit_interval() {
        let mut rng = CounterRng::new(99);
        for _ in 0..10_000 {
            let u = rng.next_uniform();
            assert!((0.0..1.0).contains(&u));
        }
    }

    #[test]
    fn uniform_mean_is_half() {
        let mut rng = CounterRng::new(7);
        let n = 100_000;
        let sum: f64 = (0..n).map(|_| rng.next_uniform()).sum();
        let mean = sum / n as f64;
        assert!((mean - 0.5).abs() < 0.01, "mean was {mean}");
    }

    #[test]
    fn bernoulli_rate_matches() {
        let mut rng = CounterRng::new(11);
        let n = 100_000;
        let hits = (0..n).filter(|_| rng.next_bool(0.25)).count();
        let rate = hits as f64 / n as f64;
        assert!((rate - 0.25).abs() < 0.01, "rate was {rate}");
    }

    #[test]
    fn next_below_covers_range() {
        let mut rng = CounterRng::new(13);
        let mut seen = [false; 10];
        for _ in 0..1000 {
            seen[rng.next_below(10) as usize] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    #[should_panic(expected = "meaningless")]
    fn next_below_zero_panics() {
        CounterRng::new(0).next_below(0);
    }

    #[test]
    fn exponential_mean() {
        let mut rng = CounterRng::new(17);
        let n = 100_000;
        let sum: f64 = (0..n).map(|_| rng.next_exp(2.0)).sum();
        let mean = sum / n as f64;
        assert!((mean - 0.5).abs() < 0.02, "mean was {mean}");
    }

    #[test]
    fn normal_moments() {
        let mut rng = CounterRng::new(19);
        let n = 100_000;
        let draws: Vec<f64> = (0..n).map(|_| rng.next_normal()).collect();
        let mean = draws.iter().sum::<f64>() / n as f64;
        let var = draws.iter().map(|d| (d - mean) * (d - mean)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.02, "mean was {mean}");
        assert!((var - 1.0).abs() < 0.05, "variance was {var}");
    }

    #[test]
    fn fill_bytes_deterministic() {
        let mut a = CounterRng::new(23);
        let mut b = CounterRng::new(23);
        let mut ba = [0u8; 17];
        let mut bb = [0u8; 17];
        a.fill_bytes(&mut ba);
        b.fill_bytes(&mut bb);
        assert_eq!(ba, bb);
    }

    /// One way to run [`StreamFamily::coin_hits`]'s walk over a `base`.
    type Walk = fn(u64, u64, u64, Coin, &mut dyn FnMut(u64));

    #[test]
    fn coin_hits_match_the_per_member_coin_in_both_compilations() {
        let mut walks: Vec<(&str, Walk)> = vec![
            ("plain", |b, f, n, c, hit| coin_hits_lanes(b, f, n, c, hit)),
            ("dispatched", |b, f, n, c, hit| {
                StreamFamily { base: b }.coin_hits(f, n, c, hit)
            }),
        ];
        #[cfg(target_arch = "x86_64")]
        if wide_lanes() {
            // SAFETY: `wide_lanes` found every feature the wrapper needs.
            walks.push(("avx512", |b, f, n, c, hit| unsafe {
                coin_hits_avx512(b, f, n, c, hit)
            }));
        }
        let family = StreamFamily::new(0x5eed, 0x6d65, 0);
        // p = 0.3 makes most eight-lane groups hold a hit and some two.
        let coins = [0.0, f64::NAN, 1e-4, 0.3, 1.0].map(Coin::new);
        let firsts = [0, 1, 0x0000_0007_0001_0000, u64::MAX - 20];
        for (name, walk) in walks {
            for coin in coins {
                for first in firsts {
                    for n in 0..=17 {
                        let expected: Vec<u64> = (0..n)
                            .filter(|&i| coin.hits(family.rng(first.wrapping_add(i)).at(0)))
                            .collect();
                        let mut got = Vec::new();
                        walk(family.base, first, n, coin, &mut |i| got.push(i));
                        assert_eq!(got, expected, "{name}: first {first:#x}, n {n}, {coin:?}");
                    }
                }
            }
        }
        assert!(["avx512", "plain"].contains(&coin_kernel()));
    }

    #[test]
    fn mix64_avalanche_smoke() {
        // Flipping one input bit should flip roughly half the output bits.
        let x = 0x0123_4567_89ab_cdefu64;
        let flipped = (mix64(x) ^ mix64(x ^ 1)).count_ones();
        assert!((16..=48).contains(&flipped), "flipped {flipped} bits");
    }
}
