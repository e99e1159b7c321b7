//! The lazily-presented random oracle.
//!
//! A uniformly random function `RO : {0,1}^n → {0,1}^n` cannot be
//! materialized for the `n` the paper cares about, so we present it lazily:
//! the simulator holds a *hidden seed*, and each answer is derived
//! deterministically from `(seed, query)`. From the point of view of any
//! algorithm that does not know the seed, answers to distinct queries are
//! independent uniform strings — exactly the lazy-sampling formulation used
//! in Lemma 3.3's proof ("the oracle answer to `e'` is still uniform …
//! lazily assigned").
//!
//! Deriving answers from the query rather than from sampling order has a
//! property the simulator depends on: **order independence**. Machines of
//! an MPC round run in parallel and may race on first-touch of an entry;
//! with derived answers every interleaving yields the same oracle, so whole
//! experiments are bit-reproducible from `(seed, parameters)`.

use crate::sha256::Sha256;
use crate::traits::{check_input_width, with_slice_words, Oracle};
use mph_bits::{BitSlice, BitVec};
use rand::{RngCore, SeedableRng};
use rand_chacha::ChaCha12Rng;

/// A random oracle presented lazily from a hidden seed.
///
/// # Examples
///
/// ```
/// use mph_oracle::{LazyOracle, Oracle};
/// use mph_bits::BitVec;
///
/// let ro = LazyOracle::new(42, 16, 16);
/// let q = BitVec::from_u64(0x1234, 16);
/// let a1 = ro.query(&q);
/// let a2 = ro.query(&q);
/// assert_eq!(a1, a2);              // deterministic
/// assert_eq!(a1.len(), 16);        // exactly n_out bits
/// let other = LazyOracle::new(43, 16, 16);
/// assert_ne!(other.query(&q), a1); // a different oracle draw
/// ```
pub struct LazyOracle {
    seed: u64,
    n_in: usize,
    n_out: usize,
    /// The digest state after the constant key prefix
    /// `"mph-oracle/lazy/v1" ‖ seed ‖ n_in ‖ n_out` (42 bytes). Every
    /// query clones it and absorbs only the query words, so the key
    /// message — and hence every answer — is byte-for-byte the one a
    /// from-scratch hasher would build.
    prefix: Sha256,
}

impl LazyOracle {
    /// A fresh oracle over `{0,1}^n_in → {0,1}^n_out`, determined by `seed`.
    ///
    /// Distinct seeds model independent draws of `RO` from the space of all
    /// functions; Monte-Carlo estimates over "the random choice of RO"
    /// iterate the seed.
    pub fn new(seed: u64, n_in: usize, n_out: usize) -> Self {
        assert!(n_out > 0, "oracle output width must be positive");
        let mut prefix = Sha256::new();
        prefix.update(b"mph-oracle/lazy/v1");
        prefix.update(&seed.to_le_bytes());
        prefix.update(&(n_in as u64).to_le_bytes());
        prefix.update(&(n_out as u64).to_le_bytes());
        LazyOracle { seed, n_in, n_out, prefix }
    }

    /// A square oracle `{0,1}^n → {0,1}^n`, the paper's standard shape.
    pub fn square(seed: u64, n: usize) -> Self {
        Self::new(seed, n, n)
    }

    /// The seed that determines this oracle (the simulator's secret; never
    /// exposed to algorithms under test).
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Derives the answer for the query whose packed words are `words`
    /// into `out`: a ChaCha stream keyed by the domain-separated digest of
    /// `(seed, widths, query bytes)`, one `u64` per answer word, the last
    /// masked to `n_out`. Every query path funnels here, so owned, view
    /// and buffer queries are bit-identical by construction.
    ///
    /// `words` are the query's little-endian packed words with tail bits
    /// beyond `n_in` zero, so they hash exactly the bytes
    /// `BitVec::to_bytes` would produce.
    fn derive_into(&self, words: &[u64], out: &mut BitVec) {
        let mut h = self.prefix.clone();
        h.update_words(words, self.n_in);
        let mut rng = ChaCha12Rng::from_seed(h.finalize());
        // Resize without reallocating a recycled buffer, then overwrite
        // in chunks of a stack block (one chunk for n_out <= 2048).
        out.clear();
        out.extend_zeros(self.n_out);
        let mut block = [0u64; 32];
        let mut at = 0;
        while at < self.n_out {
            let take = (self.n_out - at).min(64 * block.len());
            let chunk = &mut block[..take.div_ceil(64)];
            for word in chunk.iter_mut() {
                *word = rng.next_u64();
            }
            out.write_words(at, chunk, take);
            at += take;
        }
    }
}

impl Oracle for LazyOracle {
    fn n_in(&self) -> usize {
        self.n_in
    }

    fn n_out(&self) -> usize {
        self.n_out
    }

    fn query(&self, input: &BitVec) -> BitVec {
        check_input_width("LazyOracle", self.n_in, input);
        // `BitVec` keeps tail bits beyond `len` zero, so its words are the
        // exact key-schedule feed — no intermediate byte `Vec`.
        let mut out = BitVec::new();
        self.derive_into(input.words(), &mut out);
        out
    }

    fn query_slice(&self, input: &BitSlice<'_>) -> BitVec {
        let mut out = BitVec::new();
        self.query_into(input, &mut out);
        out
    }

    fn query_into(&self, input: &BitSlice<'_>, out: &mut BitVec) {
        assert_eq!(
            input.len(),
            self.n_in,
            "LazyOracle: query width {} does not match oracle domain {}",
            input.len(),
            self.n_in
        );
        // Stream the view's words into the digest without materializing the
        // query: `read_word` masks tail bits to zero, so the gathered words
        // contribute exactly the bytes `BitVec::to_bytes` would produce and
        // the key — therefore the answer — equals the owned path's.
        with_slice_words(input, |words| self.derive_into(words, out));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_and_order_independent() {
        let ro = LazyOracle::square(7, 24);
        let a = BitVec::from_u64(1, 24);
        let b = BitVec::from_u64(2, 24);
        // Query in both orders; answers must match.
        let (a1, b1) = (ro.query(&a), ro.query(&b));
        let ro2 = LazyOracle::square(7, 24);
        let (b2, a2) = (ro2.query(&b), ro2.query(&a));
        assert_eq!(a1, a2);
        assert_eq!(b1, b2);
        assert_ne!(a1, b1);
    }

    #[test]
    fn output_width_exact() {
        for n_out in [1usize, 7, 64, 65, 200] {
            let ro = LazyOracle::new(1, 16, n_out);
            assert_eq!(ro.query(&BitVec::zeros(16)).len(), n_out);
        }
    }

    #[test]
    fn different_seeds_differ() {
        let q = BitVec::zeros(32);
        let a = LazyOracle::square(1, 32).query(&q);
        let b = LazyOracle::square(2, 32).query(&q);
        assert_ne!(a, b);
    }

    #[test]
    fn answers_look_uniform() {
        // Aggregate bit balance across many entries.
        let ro = LazyOracle::square(9, 64);
        let mut ones = 0usize;
        let trials = 2000;
        for i in 0..trials {
            ones += ro.query(&BitVec::from_u64(i, 64)).count_ones();
        }
        let total = trials as usize * 64;
        let frac = ones as f64 / total as f64;
        assert!((frac - 0.5).abs() < 0.02, "bit balance {frac}");
    }

    #[test]
    fn slice_queries_stream_identically() {
        // The streamed view path must key the very same ChaCha stream as
        // the owned path, for aligned and unaligned views of every width
        // (including widths whose final byte is partial).
        for n in [1usize, 7, 8, 24, 63, 64, 65, 130] {
            let ro = LazyOracle::square(13, n);
            let query = {
                use rand::SeedableRng;
                let mut rng = ChaCha12Rng::seed_from_u64(n as u64);
                mph_bits::random_bitvec(&mut rng, n)
            };
            let owned = ro.query(&query);
            assert_eq!(ro.query_slice(&query.as_view()), owned, "aligned, n = {n}");
            let mut arena = BitVec::from_u64(0b11, 2); // force unaligned offset
            arena.extend_bits(&query);
            assert_eq!(ro.query_slice(&arena.view(2, n)), owned, "unaligned, n = {n}");
        }
    }

    #[test]
    fn rectangular_domains_supported() {
        // Definition 2.2 allows RO : {0,1}^h -> {0,1}^c with h != c.
        let ro = LazyOracle::new(5, 10, 30);
        assert_eq!(ro.n_in(), 10);
        assert_eq!(ro.n_out(), 30);
        assert_eq!(ro.query(&BitVec::ones(10)).len(), 30);
    }

    #[test]
    fn thread_safety_and_consistency() {
        use std::sync::Arc;
        let ro = Arc::new(LazyOracle::square(11, 32));
        let expected = ro.query(&BitVec::from_u64(99, 32));
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let ro = Arc::clone(&ro);
                let expected = expected.clone();
                std::thread::spawn(move || {
                    for _ in 0..100 {
                        assert_eq!(ro.query(&BitVec::from_u64(99, 32)), expected);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
    }
}
