//! Property-based tests for the pipeline's wire codec and the trace-free
//! reference evaluators.

use mph_bits::{random_bitvec, random_blocks, BitVec};
use mph_core::algorithms::{Codec, ParsedView};
use mph_core::{Line, LineParams, SimLine};
use mph_oracle::{CachedOracle, HashOracle, LazyOracle, Oracle};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Shapes for the codec properties. `v` not a power of two leaves room for
/// out-of-range indices in the index field. In the last two a two-record
/// bundle is exactly as long as a token (`2·block_bits == token_bits`):
/// the width collision `decode_view` guards against, at bundle
/// granularity (a single record is always shorter than a token).
fn codec_shapes() -> Vec<LineParams> {
    vec![
        LineParams::new(64, 100, 16, 10),
        LineParams::new(64, 512, 16, 64),
        LineParams::new(48, 40, 7, 3),
        LineParams::new(8, 10, 1, 2),
        LineParams::new(16, 20, 1, 3),
    ]
}

/// The reference reading of a bundle: every record decodes, one by one,
/// to a block under the general-purpose decoder.
fn every_record_is_a_block(codec: &Codec, payload: &BitVec) -> bool {
    let bb = codec.block_bits();
    let view = payload.as_view();
    (0..payload.len() / bb).all(|k| {
        matches!(codec.decode_view(codec.bundle_record(&view, k)), Some(ParsedView::Block { .. }))
    })
}

/// A bundle of `records` block records with indices drawn from
/// `0..2^l_width` (so some may be out of range) and, with probability
/// about one half, one record given a random tag.
fn random_bundle(codec: &Codec, params: &LineParams, rng: &mut StdRng, records: usize) -> BitVec {
    let idx_limit = 1u64 << params.l_width();
    let mut bundle = BitVec::new();
    for _ in 0..records {
        let idx = rng.gen_range(0..idx_limit);
        let mut record = BitVec::new();
        record.push_u64(1, 2);
        record.push_u64(idx, params.l_width());
        record.extend_bits(&random_bitvec(rng, params.u));
        assert_eq!(record.len(), codec.block_bits());
        bundle.extend_bits(&record);
    }
    if rng.gen_bool(0.5) {
        let k = rng.gen_range(0..records);
        bundle.write_u64(k * codec.block_bits(), rng.gen_range(0..4), 2);
    }
    bundle
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// `validate_bundle` accepts a bundle exactly when every record decodes
    /// to a block, and then reports the record count.
    #[test]
    fn validate_bundle_matches_per_record_decode(
        shape in 0usize..5,
        records in 1usize..12,
        flips in 0usize..4,
        seed in any::<u64>(),
    ) {
        let params = codec_shapes()[shape];
        let codec = Codec::new(params);
        let mut rng = StdRng::seed_from_u64(seed);

        // A well-formed bundle encoded by the codec itself, then bit-flipped.
        let mut honest = BitVec::new();
        for _ in 0..records {
            let idx = rng.gen_range(0..params.v);
            honest.extend_bits(&codec.encode_block(idx, &random_bitvec(&mut rng, params.u)));
        }
        prop_assert_eq!(codec.validate_bundle(&honest.as_view()), Some(records));
        for _ in 0..flips {
            let bit = rng.gen_range(0..honest.len());
            honest.set(bit, !honest.get(bit));
        }

        for payload in [honest, random_bundle(&codec, &params, &mut rng, records)] {
            let expected = every_record_is_a_block(&codec, &payload).then_some(records);
            prop_assert_eq!(codec.validate_bundle(&payload.as_view()), expected);
        }
    }

    /// Payloads that are not a whole number of records are never bundles,
    /// and a token is never mistaken for one, even when its length equals
    /// a bundle's.
    #[test]
    fn validate_bundle_rejects_non_bundles(
        shape in 0usize..5,
        extra in 1usize..40,
        seed in any::<u64>(),
    ) {
        let params = codec_shapes()[shape];
        let codec = Codec::new(params);
        let mut rng = StdRng::seed_from_u64(seed);
        let ragged = random_bitvec(&mut rng, codec.block_bits() * (extra % 3) + extra);
        if ragged.len() % codec.block_bits() != 0 {
            prop_assert_eq!(codec.validate_bundle(&ragged.as_view()), None);
        }
        prop_assert_eq!(codec.validate_bundle(&BitVec::new().as_view()), None);

        let i = rng.gen_range(1..=params.w);
        let l = rng.gen_range(0..params.v);
        let token = codec.encode_token(i, l, &random_bitvec(&mut rng, params.u));
        prop_assert!(
            matches!(codec.decode_view(token.as_view()), Some(ParsedView::Token { .. })),
            "token must decode as a token"
        );
        prop_assert_eq!(codec.validate_bundle(&token.as_view()), None);
    }

    /// The trace-free evaluators return exactly the trace's output, over a
    /// lazily sampled oracle, the SHA-256 instantiation, and a cold cache.
    #[test]
    fn eval_equals_trace_output(
        u in 1usize..20,
        v in 2usize..40,
        w in 1u64..200,
        seed in any::<u64>(),
    ) {
        let n = 2 * u + 16;
        let params = LineParams::new(n, w, u, v);
        let mut rng = StdRng::seed_from_u64(seed);
        let blocks = random_blocks(&mut rng, v, u);
        let label = format!("eval-{seed}");
        let oracles: Vec<Box<dyn Fn() -> Box<dyn Oracle>>> = vec![
            Box::new(|| Box::new(LazyOracle::square(seed, n))),
            Box::new(|| Box::new(HashOracle::square(&label, n))),
            Box::new(|| Box::new(CachedOracle::new(LazyOracle::square(seed, n)))),
        ];
        for fresh in &oracles {
            let line = Line::new(params);
            prop_assert_eq!(line.eval(&*fresh(), &blocks), line.trace(&*fresh(), &blocks).output);
            let simline = SimLine::new(params);
            prop_assert_eq!(
                simline.eval(&*fresh(), &blocks),
                simline.trace(&*fresh(), &blocks).output
            );
        }
    }
}
