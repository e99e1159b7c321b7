//! Golden oracle answers: the exact bytes every derivation path must
//! produce, recorded from the scalar-SHA-256 implementation.
//!
//! The other oracle tests compare the code against itself (owned vs view
//! vs cached paths), which a kernel that is consistent but wrong would
//! pass. These constants pin the answers themselves. The `LazyOracle`
//! shapes cover key messages of one SHA-256 block (42-byte prefix plus at
//! most 13 query bytes) and of two (`n_in` = 130, 300), and outputs that
//! are not a multiple of 64 bits. Each answer is asserted through every
//! query path: `query`, an unaligned `query_slice`, `query_into` into a
//! dirty buffer, a `CachedOracle` miss and then a hit, and
//! `query_many_into`.

use mph_bits::BitVec;
use mph_oracle::{CachedOracle, HashOracle, LazyOracle, Oracle, RandomTape};

/// The seed of every golden `LazyOracle`.
const SEED: u64 = 0x5eed_2020;

const LAZY: &[(usize, usize, [&str; 6])] = &[
    (
        64,
        64,
        [
            "67d807fffb78c195",
            "508e8b12053445aa",
            "cc7db2f8e3cf4d06",
            "4e250459c7edbc91",
            "1b22d4c520d55b08",
            "f7bb626df9dda1c8",
        ],
    ),
    (16, 7, ["47", "54", "37", "86", "22", "74"]),
    (
        100,
        200,
        [
            "f48769ec73a19d0d0d8530a59f30a051bf25c4e948f9f83956",
            "def36dee0ee28f89c980745c79cbfe71095bb49a25f3bfa899",
            "2cb78e36f6f65692cb2f0acaf25fceea8903ce26ec84c74d0f",
            "768118394ab52cbe3595b779da5f97774d238ac668595c96a5",
            "be213e94d4df088b1dc920133cf3e020b53e463451b991e498",
            "9071521562a76df1a8fbfe00a9274b58c6fd77d95fd74b53b6",
        ],
    ),
    (
        130,
        65,
        [
            "4b1b44a19ffa7c781",
            "3eee25a445e630161",
            "12ee9634bab44d001",
            "6fcf4b87bc760cb81",
            "cee73d8e8542ec811",
            "e7ac529ea4be94ef1",
        ],
    ),
    (300, 1, ["0", "0", "1", "1", "1", "0"]),
];
const HASH_256: [&str; 6] = [
    "d158858f53ce0c1b3170c4657ec4b4d4c67d003758fa76e4b7961cc556c049d5",
    "5c4d212b817c974fcec177e5fd03f2da9bf9fa7f4e5119979bb44aa57c1e7726",
    "88337087e49c3e5e04beda9c0c0ff798d0cd94db9987fdf0926ecab4d253ce95",
    "ea213e20ac2f8814e0c50d820088077e3a7b26a12212ae8639c3aadb8e1edf21",
    "d4f4719470ed0b22c9bd56d6ec5311e3d525e96911812bb30bcf3f6d4b7626fe",
    "b5310dd54696301a3f520116c0f94faeb614096f010c1cff4f0e7bad90f6a0ea",
];
const TAPE: &[(u64, usize, &str)] = &[
    (0, 256, "9b4581e9eb13f901727b31685a1521fdc5ce386f1f4292dd8fe42cd6fd719df7"),
    (1_000_003, 300, "9d8e5d378d608315b402eee8c0f02b31db331a6383b8a671ae3ca614ef31854f8ebebf8813b"),
    (u64::MAX - 100, 100, "4cd9d3fd68327c1fef1128bfc"),
    (255, 2, "2"),
];

/// Query `k` of width `n`: all zeros, all ones, then four fixed patterns.
fn query(n: usize, k: usize) -> BitVec {
    match k {
        0 => BitVec::zeros(n),
        1 => BitVec::ones(n),
        _ => {
            let mut q = BitVec::zeros(n);
            for i in 0..n {
                q.set(i, (i * i + 3 * i + k) % 7 < 3);
            }
            q
        }
    }
}

/// Asserts that oracles built by `make` answer query `k` with
/// `expected[k]` (hex) on every query path.
fn assert_every_path<O: Oracle>(make: impl Fn() -> O, expected: &[&str], what: &str) {
    let oracle = make();
    let (n_in, n_out) = (oracle.n_in(), oracle.n_out());
    let queries: Vec<BitVec> = (0..expected.len()).map(|k| query(n_in, k)).collect();
    let cached = CachedOracle::new(make());
    let mut dirty = BitVec::ones(777);
    for (k, (q, &want)) in queries.iter().zip(expected).enumerate() {
        let at = format!("{what}, query {k}");
        let mut arena = BitVec::from_u64(0b101, 3); // unaligned offset
        arena.extend_bits(q);
        let view = arena.view(3, n_in);

        assert_eq!(oracle.query(q).to_hex(), want, "query: {at}");
        assert_eq!(oracle.query_slice(&view).to_hex(), want, "query_slice: {at}");
        oracle.query_into(&view, &mut dirty);
        assert_eq!(dirty.to_hex(), want, "query_into: {at}");

        let (misses, hits) = (cached.misses(), cached.hits());
        cached.query_into(&view, &mut dirty);
        assert_eq!(dirty.to_hex(), want, "cached miss: {at}");
        assert_eq!(cached.query(q).to_hex(), want, "cached hit: {at}");
        assert_eq!((cached.misses(), cached.hits()), (misses + 1, hits + 1), "{at}");
    }

    // One batch with a repeat, through the bare oracle and a cold cache.
    let order: Vec<usize> = (0..expected.len()).chain([2]).collect();
    let batch: Vec<_> = order.iter().map(|&k| queries[k].as_view()).collect();
    for (path, batched) in
        [("bare", &oracle as &dyn Oracle), ("cached", &CachedOracle::new(make()))]
    {
        let mut out = BitVec::ones(5);
        batched.query_many_into(&batch, &mut out);
        assert_eq!(out.len(), order.len() * n_out, "{path} query_many_into: {what}");
        for (i, &k) in order.iter().enumerate() {
            let got = out.slice(i * n_out, n_out).to_hex();
            assert_eq!(got, expected[k], "{path} query_many_into: {what}, slot {i}");
        }
    }
}

#[test]
fn lazy_oracle_answers_match_golden_bytes() {
    for &(n_in, n_out, expected) in LAZY {
        assert_every_path(
            || LazyOracle::new(SEED, n_in, n_out),
            &expected,
            &format!("LazyOracle({n_in}, {n_out})"),
        );
    }
}

#[test]
fn hash_oracle_answers_match_golden_bytes() {
    assert_every_path(|| HashOracle::square("golden", 256), &HASH_256, "HashOracle(256)");
}

#[test]
fn random_tape_reads_match_golden_bytes() {
    let tape = RandomTape::new(2020);
    for &(offset, len, expected) in TAPE {
        assert_eq!(tape.read(offset, len).to_hex(), expected, "read({offset}, {len})");
    }
}
