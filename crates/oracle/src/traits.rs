//! The [`Oracle`] trait — the single abstraction every party queries.

use mph_bits::{BitSlice, BitVec};
use std::sync::Arc;

/// A deterministic total function on fixed-width bit strings, queried by
/// reference.
///
/// This is the `RO : {0,1}^h → {0,1}^c` of Definition 2.2 (for the paper's
/// main construction, `h = c = n`). Implementations must be:
///
/// * **Total and deterministic** — the same input always yields the same
///   output, across threads and across calls. Laziness is an implementation
///   detail ([`crate::LazyOracle`] derives answers from a hidden seed so
///   even *first* queries are order-independent).
/// * **Thread-safe** — `Send + Sync`; the MPC executor drives all machines
///   of a round in parallel against one shared oracle.
///
/// Inputs must be exactly [`Oracle::n_in`] bits; implementations panic
/// otherwise, because a width mismatch is always a harness bug, never an
/// adversary strategy (the model fixes the oracle's domain).
pub trait Oracle: Send + Sync {
    /// Input width in bits (the `n` of `RO : {0,1}^n → {0,1}^n`).
    fn n_in(&self) -> usize;

    /// Output width in bits.
    fn n_out(&self) -> usize;

    /// Evaluates the oracle. Panics if `input.len() != self.n_in()`.
    fn query(&self, input: &BitVec) -> BitVec;

    /// Evaluates the oracle on a batch of inputs, answer `i` corresponding
    /// to `inputs[i]`.
    ///
    /// Semantically identical to mapping [`Oracle::query`] over the batch —
    /// Lemma 3.3's lazy-sampling semantics make answers order-independent,
    /// so batching can never change them. Implementations may override this
    /// to amortize per-query dispatch (e.g. [`crate::CachedOracle`] resolves
    /// a whole batch shard by shard under one lock acquisition each).
    fn query_many(&self, inputs: &[BitVec]) -> Vec<BitVec> {
        inputs.iter().map(|input| self.query(input)).collect()
    }

    /// Evaluates the oracle on a borrowed bit-slice view — the zero-copy
    /// entry point of the arena message plane (`docs/MESSAGE_PLANE.md`).
    ///
    /// Semantically identical to `query(&input.to_bitvec())`; the default
    /// materializes and delegates, so every oracle (caching, counting,
    /// transcript-recording, patched) keeps its `query`-path behaviour.
    /// Implementations whose answers are derived by *reading* the input —
    /// [`crate::LazyOracle`] hashes it — override this to stream the view's
    /// words directly, with no intermediate `BitVec`.
    fn query_slice(&self, input: &BitSlice<'_>) -> BitVec {
        self.query(&input.to_bitvec())
    }

    /// Evaluates the oracle on a batch of borrowed views, answer `i`
    /// corresponding to `inputs[i]` — the view-based counterpart of
    /// [`Oracle::query_many`], used by `RoundCtx::query_many_views` to
    /// resolve batched queries straight out of the round arena.
    fn query_many_slices(&self, inputs: &[BitSlice<'_>]) -> Vec<BitVec> {
        inputs.iter().map(|input| self.query_slice(input)).collect()
    }

    /// Evaluates the oracle on a borrowed view, writing the answer into a
    /// caller-owned buffer — the allocation-free entry point of the hot
    /// query path.
    ///
    /// Semantically identical to `*out = self.query_slice(input)`; the
    /// default does exactly that. [`crate::CachedOracle`] overrides this so
    /// a warm hit copies the interned answer words straight into `out`
    /// without allocating, letting callers that loop (`RoundCtx::query` in
    /// the executor's compute phase) reuse one scratch `BitVec` across
    /// queries. [`crate::LazyOracle`] overrides it to write a fresh
    /// derivation into `out`, which is how a cached miss stays
    /// allocation-free too.
    fn query_into(&self, input: &BitSlice<'_>, out: &mut BitVec) {
        *out = self.query_slice(input);
    }

    /// Evaluates the oracle on a batch of borrowed views, concatenating the
    /// answers into one caller-owned buffer: answer `i` occupies bits
    /// `i * n_out .. (i + 1) * n_out` of `out` (whose prior contents are
    /// replaced).
    ///
    /// This is the batch counterpart of [`Oracle::query_into`]: one buffer
    /// is (re)filled for the whole batch instead of one heap-owned answer
    /// per query, so a caller that drains batches in a loop performs no
    /// steady-state allocation. Semantically it is exactly
    /// [`Oracle::query_many_slices`] flattened — the default resolves each
    /// view through [`Oracle::query_into`] and appends. [`crate::CachedOracle`]
    /// overrides it to copy warm answers from the memo arena straight into
    /// `out`, skipping the per-answer `BitVec` entirely.
    fn query_many_into(&self, inputs: &[BitSlice<'_>], out: &mut BitVec) {
        out.clear();
        let mut scratch = BitVec::new();
        for input in inputs {
            self.query_into(input, &mut scratch);
            out.extend_bits(&scratch);
        }
    }
}

/// A shareable, dynamically typed oracle handle.
///
/// The simulator, algorithms, encoders and experiments all pass oracles
/// around as `DynOracle` so that lazy, table, patched, counting and hash
/// oracles compose freely.
pub type DynOracle = Arc<dyn Oracle>;

impl<T: Oracle + ?Sized> Oracle for Arc<T> {
    fn n_in(&self) -> usize {
        (**self).n_in()
    }

    fn n_out(&self) -> usize {
        (**self).n_out()
    }

    fn query(&self, input: &BitVec) -> BitVec {
        (**self).query(input)
    }

    fn query_many(&self, inputs: &[BitVec]) -> Vec<BitVec> {
        (**self).query_many(inputs)
    }

    fn query_slice(&self, input: &BitSlice<'_>) -> BitVec {
        (**self).query_slice(input)
    }

    fn query_many_slices(&self, inputs: &[BitSlice<'_>]) -> Vec<BitVec> {
        (**self).query_many_slices(inputs)
    }

    fn query_into(&self, input: &BitSlice<'_>, out: &mut BitVec) {
        (**self).query_into(input, out)
    }

    fn query_many_into(&self, inputs: &[BitSlice<'_>], out: &mut BitVec) {
        (**self).query_many_into(inputs, out)
    }
}

impl<T: Oracle + ?Sized> Oracle for &T {
    fn n_in(&self) -> usize {
        (**self).n_in()
    }

    fn n_out(&self) -> usize {
        (**self).n_out()
    }

    fn query(&self, input: &BitVec) -> BitVec {
        (**self).query(input)
    }

    fn query_many(&self, inputs: &[BitVec]) -> Vec<BitVec> {
        (**self).query_many(inputs)
    }

    fn query_slice(&self, input: &BitSlice<'_>) -> BitVec {
        (**self).query_slice(input)
    }

    fn query_many_slices(&self, inputs: &[BitSlice<'_>]) -> Vec<BitVec> {
        (**self).query_many_slices(inputs)
    }

    fn query_into(&self, input: &BitSlice<'_>, out: &mut BitVec) {
        (**self).query_into(input, out)
    }

    fn query_many_into(&self, inputs: &[BitSlice<'_>], out: &mut BitVec) {
        (**self).query_many_into(inputs, out)
    }
}

/// Calls `f` with the words of `input` gathered into a contiguous slice,
/// using a stack buffer for every realistic oracle width (≤ 2048 bits) and
/// falling back to a heap allocation only beyond it.
///
/// The gathered words are exactly what `BitSlice::read_word` yields —
/// tail bits beyond `input.len()` are zero — so feeding them to
/// `Sha256::update_words` produces the byte stream `BitVec::to_bytes`
/// would have produced for the owned copy of the view.
#[inline]
pub(crate) fn with_slice_words<R>(input: &BitSlice<'_>, f: impl FnOnce(&[u64]) -> R) -> R {
    let n_words = input.n_words();
    if n_words <= 32 {
        let mut buf = [0u64; 32];
        for (i, slot) in buf[..n_words].iter_mut().enumerate() {
            *slot = input.read_word(i);
        }
        f(&buf[..n_words])
    } else {
        let words: Vec<u64> = (0..n_words).map(|i| input.read_word(i)).collect();
        f(&words)
    }
}

/// Checks the width contract shared by all oracle implementations.
///
/// Called at the top of every `query` implementation in this crate.
#[inline]
pub(crate) fn check_input_width(oracle_name: &str, expected: usize, input: &BitVec) {
    assert_eq!(
        input.len(),
        expected,
        "{oracle_name}: query width {} does not match oracle domain {expected}",
        input.len()
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    struct XorOracle {
        n: usize,
    }

    impl Oracle for XorOracle {
        fn n_in(&self) -> usize {
            self.n
        }
        fn n_out(&self) -> usize {
            self.n
        }
        fn query(&self, input: &BitVec) -> BitVec {
            check_input_width("XorOracle", self.n, input);
            let mut out = input.clone();
            out.xor_assign(&BitVec::ones(self.n));
            out
        }
    }

    #[test]
    fn arc_forwarding() {
        let oracle: DynOracle = Arc::new(XorOracle { n: 8 });
        assert_eq!(oracle.n_in(), 8);
        let out = oracle.query(&BitVec::zeros(8));
        assert_eq!(out, BitVec::ones(8));
        // &T forwarding
        let r: &dyn Oracle = &*oracle;
        assert_eq!((&r).n_out(), 8);
    }

    #[test]
    fn query_many_matches_query() {
        let oracle = XorOracle { n: 8 };
        let inputs: Vec<BitVec> = (0..5).map(|i| BitVec::from_u64(i, 8)).collect();
        let batch = oracle.query_many(&inputs);
        assert_eq!(batch.len(), inputs.len());
        for (q, a) in inputs.iter().zip(&batch) {
            assert_eq!(a, &oracle.query(q));
        }
        // Arc and &T forwarding reach the same default implementation.
        let arc: DynOracle = Arc::new(XorOracle { n: 8 });
        assert_eq!(arc.query_many(&inputs), batch);
        let r: &dyn Oracle = &*arc;
        assert_eq!((&r).query_many(&inputs), batch);
    }

    #[test]
    #[should_panic(expected = "does not match oracle domain")]
    fn width_contract_enforced() {
        let oracle = XorOracle { n: 8 };
        oracle.query(&BitVec::zeros(7));
    }

    #[test]
    fn slice_queries_match_owned_queries() {
        // A view carved out of a larger arena at an unaligned offset must
        // get the same answer as the owned query, through every forwarding
        // layer (default impl, Arc<T>, &T).
        let oracle = XorOracle { n: 8 };
        let mut arena = BitVec::from_u64(0b101, 3);
        arena.extend_bits(&BitVec::from_u64(0xA5, 8));
        arena.extend_bits(&BitVec::from_u64(0x3C, 8));
        let views = [arena.view(3, 8), arena.view(11, 8)];
        let owned: Vec<BitVec> = views.iter().map(|v| v.to_bitvec()).collect();
        assert_eq!(oracle.query_slice(&views[0]), oracle.query(&owned[0]));
        assert_eq!(oracle.query_many_slices(&views), oracle.query_many(&owned));
        let arc: DynOracle = Arc::new(XorOracle { n: 8 });
        assert_eq!(arc.query_slice(&views[1]), arc.query(&owned[1]));
        let r: &dyn Oracle = &*arc;
        assert_eq!((&r).query_many_slices(&views), arc.query_many(&owned));
    }

    #[test]
    fn query_into_matches_query_through_every_forwarding_layer() {
        let oracle = XorOracle { n: 8 };
        let mut arena = BitVec::from_u64(0b101, 3);
        arena.extend_bits(&BitVec::from_u64(0xA5, 8));
        let view = arena.view(3, 8);
        let expected = oracle.query(&view.to_bitvec());
        let mut out = BitVec::zeros(1); // wrong width: query_into must replace it
        oracle.query_into(&view, &mut out);
        assert_eq!(out, expected);
        let arc: DynOracle = Arc::new(XorOracle { n: 8 });
        arc.query_into(&view, &mut out);
        assert_eq!(out, expected);
        let r: &dyn Oracle = &*arc;
        (&r).query_into(&view, &mut out);
        assert_eq!(out, expected);
    }

    #[test]
    fn query_many_into_concatenates_answers() {
        let oracle = XorOracle { n: 8 };
        let inputs: Vec<BitVec> = (0..5).map(|i| BitVec::from_u64(i, 8)).collect();
        let views: Vec<BitSlice<'_>> = inputs.iter().map(|q| q.as_view()).collect();
        let mut out = BitVec::from_u64(1, 1); // prior contents must be replaced
        oracle.query_many_into(&views, &mut out);
        assert_eq!(out.len(), 5 * 8);
        for (i, q) in inputs.iter().enumerate() {
            assert_eq!(out.slice(i * 8, 8), oracle.query(q), "answer {i}");
        }
        // Arc and &T forwarding reach the same implementation.
        let arc: DynOracle = Arc::new(XorOracle { n: 8 });
        let mut forwarded = BitVec::new();
        arc.query_many_into(&views, &mut forwarded);
        assert_eq!(forwarded, out);
        let r: &dyn Oracle = &*arc;
        forwarded.clear();
        (&r).query_many_into(&views, &mut forwarded);
        assert_eq!(forwarded, out);
    }

    #[test]
    fn with_slice_words_gathers_masked_words() {
        // Small (stack) and large (heap) gathers both reproduce the owned
        // word stream, tail bits zeroed.
        for n in [5usize, 64, 130, 32 * 64, 32 * 64 + 7] {
            let mut arena = BitVec::from_u64(0b1, 1);
            let mut payload = BitVec::zeros(n);
            for i in (0..n).step_by(3) {
                payload.set(i, true);
            }
            arena.extend_bits(&payload);
            let view = arena.view(1, n);
            with_slice_words(&view, |words| {
                assert_eq!(words.len(), payload.words().len(), "n = {n}");
                assert_eq!(words, payload.words(), "n = {n}");
            });
        }
    }
}
