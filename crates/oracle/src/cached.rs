//! A sharded memo table over any oracle — the hot-path cache.
//!
//! Every measured run funnels through `Oracle::query`, and the honest
//! pipeline plus the compression encoder re-query the same entries
//! thousands of times. A cold [`LazyOracle`](crate::LazyOracle) answer
//! costs one SHA-256 compression of the key message (two once the query
//! exceeds 104 bits), one ChaCha12 block, and an intern here — a few
//! hundred nanoseconds. A warm hit costs a fingerprint probe and a word
//! copy, so memoizing repeats still pays wherever entries repeat.
//!
//! Caching is *semantically invisible* by Lemma 3.3's lazy-sampling
//! argument: a random oracle's answers are determined per entry, not per
//! query, so replaying a stored answer is indistinguishable from
//! re-deriving it. Concretely, every inner oracle in this crate is total
//! and deterministic, which makes the memo a pure cache — eviction never
//! changes an answer, it only costs a recomputation. Answers are therefore
//! byte-identical to the uncached oracle regardless of capacity, shard
//! count, or thread interleaving.
//!
//! # Storage layout
//!
//! Each shard interns key and answer bits in flat word arenas indexed by a
//! fingerprint table, instead of a `HashMap<BitVec, BitVec>`:
//!
//! * `keys` / `answers` — all cached entries' backing words, one fixed-width
//!   slot per entry (every key is exactly `n_in` bits and every answer
//!   exactly `n_out` bits, so slots are uniform and slot `i` lives at word
//!   offset `i * width`).
//! * `hashes` — each slot's full 64-bit FNV-1a fingerprint, so probes
//!   compare one word before touching key words and rehashing on table
//!   growth re-reads no key bits.
//! * `table` — an open-addressed, linear-probed index of slot numbers,
//!   grown lazily (a fresh cache allocates nothing), with backward-shift
//!   deletion when an evicted slot leaves the table.
//!
//! A warm hit therefore costs one 64-bit hash of the query words, one table
//! probe, and a word copy of the answer — no allocation (via
//! [`Oracle::query_into`]) and no `BitVec` clones. A miss through
//! `query_into` derives straight into the caller's buffer with the inner
//! oracle's `query_into` and is interned from that buffer, so the cold
//! path allocates nothing beyond arena growth either. Eviction is FIFO per
//! shard, tracked by a ring cursor over the slot array rather than a
//! `VecDeque` of owned keys.

use crate::traits::{check_input_width, with_slice_words, Oracle};
use mph_bits::{BitSlice, BitVec};
use mph_metrics::{emit, Event, MetricsSink, QueryKind};
use parking_lot::Mutex;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Number of independent lock stripes. A power of two so the shard index
/// is a mask of the key hash.
const SHARDS: usize = 16;

/// Default total capacity in cached entries, spread across shards.
const DEFAULT_CAPACITY: usize = 1 << 20;

/// Vacant fingerprint-table cell.
const EMPTY: u32 = u32::MAX;

/// Full 64-bit FNV-1a fingerprint of a query's backing words and bit
/// length. The low bits select the lock stripe (exactly the historic shard
/// assignment, so eviction order and the fresh/cached event stream are
/// unchanged run to run); the remaining bits seed the in-shard probe.
#[inline]
fn fingerprint(words: &[u64], len_bits: usize) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &word in words {
        h = (h ^ word).wrapping_mul(0x0000_0100_0000_01b3);
    }
    (h ^ len_bits as u64).wrapping_mul(0x0000_0100_0000_01b3)
}

/// First probe position for a fingerprint: the shard-selection bits are
/// shifted off so in-table placement is independent of the stripe choice.
#[inline]
fn probe_start(h: u64) -> usize {
    (h >> 4) as usize
}

/// One lock stripe: interned entry slots plus their fingerprint index.
#[derive(Default)]
struct Shard {
    /// Key words, `key_words` per slot.
    keys: Vec<u64>,
    /// Answer words, `ans_words` per slot.
    answers: Vec<u64>,
    /// Per-slot full fingerprint (for probe filtering and cheap rehash).
    hashes: Vec<u64>,
    /// Occupied slots, `<= cap`.
    len: usize,
    /// FIFO ring cursor: the oldest slot once the shard is full. Stays `0`
    /// while filling, so slot order *is* insertion order until the first
    /// eviction.
    head: usize,
    /// Open-addressed index of slot numbers; power-of-two length; grown
    /// lazily so unused caches cost no memory.
    table: Vec<u32>,
}

impl Shard {
    /// The slot holding `key`, if cached.
    fn lookup(&self, h: u64, key: &[u64], key_words: usize) -> Option<usize> {
        if self.table.is_empty() {
            return None;
        }
        let mask = self.table.len() - 1;
        let mut pos = probe_start(h) & mask;
        loop {
            let slot = self.table[pos];
            if slot == EMPTY {
                return None;
            }
            let s = slot as usize;
            if self.hashes[s] == h && self.keys[s * key_words..(s + 1) * key_words] == *key {
                return Some(s);
            }
            pos = (pos + 1) & mask;
        }
    }

    /// Interns `(key, answer)`, evicting the oldest slot if the shard is at
    /// capacity. The caller has already established the key is absent.
    fn insert(&mut self, h: u64, key: &[u64], answer: &[u64], kw: usize, aw: usize, cap: usize) {
        self.ensure_table(cap);
        let slot = if self.len < cap {
            let s = self.len;
            self.len += 1;
            self.keys.extend_from_slice(key);
            self.answers.extend_from_slice(answer);
            self.hashes.push(h);
            s
        } else {
            let s = self.head;
            self.table_remove(s as u32);
            self.keys[s * kw..(s + 1) * kw].copy_from_slice(key);
            self.answers[s * aw..(s + 1) * aw].copy_from_slice(answer);
            self.hashes[s] = h;
            self.head = (self.head + 1) % cap;
            s
        };
        self.table_insert(slot as u32);
    }

    /// The slot at FIFO position `k` (0 = oldest).
    #[inline]
    fn slot_at(&self, k: usize, cap: usize) -> usize {
        // `head` is 0 until the shard fills, so this is plain `k` while
        // slot order still equals insertion order.
        (self.head + k) % cap
    }

    /// Grows the fingerprint table if the next insert would push occupancy
    /// past 7/8 load. Rebuilds from per-slot hashes — key bits are never
    /// re-read.
    fn ensure_table(&mut self, cap: usize) {
        let needed = (self.len + 1).min(cap);
        if needed * 8 <= self.table.len() * 7 {
            return;
        }
        let mut size = (self.table.len() * 2).max(8);
        while needed * 8 > size * 7 {
            size *= 2;
        }
        self.table.clear();
        self.table.resize(size, EMPTY);
        for slot in 0..self.len {
            self.table_insert(slot as u32);
        }
    }

    /// Links `slot` into the fingerprint table (first free probe cell).
    fn table_insert(&mut self, slot: u32) {
        let mask = self.table.len() - 1;
        let mut pos = probe_start(self.hashes[slot as usize]) & mask;
        while self.table[pos] != EMPTY {
            pos = (pos + 1) & mask;
        }
        self.table[pos] = slot;
    }

    /// Unlinks `slot` with backward-shift deletion, so probe chains stay
    /// contiguous without tombstones.
    fn table_remove(&mut self, slot: u32) {
        let mask = self.table.len() - 1;
        let mut pos = probe_start(self.hashes[slot as usize]) & mask;
        while self.table[pos] != slot {
            pos = (pos + 1) & mask;
        }
        let mut hole = pos;
        let mut next = (hole + 1) & mask;
        while self.table[next] != EMPTY {
            let ideal = probe_start(self.hashes[self.table[next] as usize]) & mask;
            // The entry at `next` may slide back into the hole only if its
            // ideal cell lies at or before the hole along its probe chain.
            if (next.wrapping_sub(ideal) & mask) >= (next.wrapping_sub(hole) & mask) {
                self.table[hole] = self.table[next];
                hole = next;
            }
            next = (next + 1) & mask;
        }
        self.table[hole] = EMPTY;
    }
}

/// Reusable scratch for [`CachedOracle::query_many`]: gathered key words,
/// fingerprints, and the pending-miss index, retained across batches so
/// steady-state batching performs no per-call allocation.
#[derive(Default)]
struct BatchScratch {
    /// Gathered key words, `key_words` per query.
    keys: Vec<u64>,
    /// Per-query fingerprint.
    hashes: Vec<u64>,
    /// First-occurrence query index of each distinct miss in the batch.
    miss_uniq: Vec<u32>,
    /// `(query index, ordinal into miss_uniq)` for every miss in the
    /// batch, including duplicates of a pending miss.
    miss_members: Vec<(u32, u32)>,
    /// Open-addressed index into `miss_uniq`, probed by query fingerprint,
    /// so classifying a repeat of a pending miss costs expected O(1)
    /// instead of a scan of every distinct miss so far. One table serves
    /// the whole batch: equal keys share a fingerprint and therefore a
    /// shard, so entries from other shards may lengthen a probe chain but
    /// can never compare equal.
    pending: Vec<u32>,
}

/// A bounded, sharded, lock-striped memo table over an inner [`Oracle`].
///
/// Repeat queries are answered from the cache; first-time queries fall
/// through to the inner oracle and are stored, evicting the oldest entry
/// of the shard once its capacity share is full (FIFO). Because the inner
/// oracle is deterministic, answers are byte-identical to the bare oracle
/// under any interleaving — the cache affects cost, never values.
///
/// When a telemetry sink is attached, each query emits an
/// [`Event::OracleQuery`] classified [`QueryKind::Cached`] (hit) or
/// [`QueryKind::Fresh`] (miss). A shard's lock is held across the inner
/// query on a miss, so for a fixed query multiset each resident entry is
/// fresh exactly once — the classification is deterministic, which the
/// telemetry snapshot tests rely on.
///
/// # Examples
///
/// ```
/// use mph_oracle::{CachedOracle, LazyOracle, Oracle};
/// use mph_bits::BitVec;
///
/// let cached = CachedOracle::new(LazyOracle::square(7, 16));
/// let q = BitVec::from_u64(42, 16);
/// let first = cached.query(&q);
/// let second = cached.query(&q); // served from the memo table
/// assert_eq!(first, second);
/// assert_eq!(first, LazyOracle::square(7, 16).query(&q));
/// assert_eq!((cached.misses(), cached.hits()), (1, 1));
/// ```
pub struct CachedOracle<O: Oracle> {
    inner: O,
    shards: Vec<Mutex<Shard>>,
    capacity_per_shard: usize,
    n_in: usize,
    n_out: usize,
    key_words: usize,
    ans_words: usize,
    hits: AtomicU64,
    misses: AtomicU64,
    metrics: Option<Arc<dyn MetricsSink>>,
    batch_scratch: Mutex<BatchScratch>,
}

impl<O: Oracle> CachedOracle<O> {
    /// Wraps `inner` with the default capacity (2²⁰ entries).
    pub fn new(inner: O) -> Self {
        Self::with_capacity(inner, DEFAULT_CAPACITY)
    }

    /// Wraps `inner`, bounding the memo table to `capacity` entries total.
    ///
    /// Panics if `capacity == 0` — a cache that can hold nothing would
    /// evict on every insert.
    pub fn with_capacity(inner: O, capacity: usize) -> Self {
        assert!(capacity > 0, "CachedOracle capacity must be positive");
        let capacity_per_shard = capacity.div_ceil(SHARDS);
        assert!(
            capacity_per_shard < EMPTY as usize,
            "CachedOracle capacity {capacity} exceeds the slot index range"
        );
        let (n_in, n_out) = (inner.n_in(), inner.n_out());
        CachedOracle {
            inner,
            shards: (0..SHARDS).map(|_| Mutex::new(Shard::default())).collect(),
            capacity_per_shard,
            n_in,
            n_out,
            key_words: n_in.div_ceil(64),
            ans_words: n_out.div_ceil(64),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            metrics: None,
            batch_scratch: Mutex::new(BatchScratch::default()),
        }
    }

    /// Attaches a telemetry sink, builder-style. Every subsequent query
    /// emits an [`Event::OracleQuery`] classified fresh (miss) or cached
    /// (hit).
    pub fn with_metrics(mut self, sink: Arc<dyn MetricsSink>) -> Self {
        self.metrics = Some(sink);
        self
    }

    /// The wrapped oracle.
    pub fn inner(&self) -> &O {
        &self.inner
    }

    /// Queries answered from the memo table so far.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Queries that fell through to the inner oracle so far.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Number of entries currently cached, across all shards.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.lock().len).sum()
    }

    /// Whether the memo table is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The memo table's entries in a canonical order: shard by shard, each
    /// shard in FIFO insertion order. The order is deterministic (shard
    /// assignment is FNV-based, insertion order is the query order), so
    /// snapshots of the same cache state are byte-identical.
    pub fn entries(&self) -> Vec<(BitVec, BitVec)> {
        let (kw, aw) = (self.key_words, self.ans_words);
        let mut out = Vec::new();
        for shard in &self.shards {
            let guard = shard.lock();
            for k in 0..guard.len {
                let s = guard.slot_at(k, self.capacity_per_shard);
                out.push((
                    BitVec::from_words(&guard.keys[s * kw..(s + 1) * kw], self.n_in),
                    BitVec::from_words(&guard.answers[s * aw..(s + 1) * aw], self.n_out),
                ));
            }
        }
        out
    }

    /// Re-inserts previously captured `entries` (from
    /// [`CachedOracle::entries`]) through the normal insertion path:
    /// shard assignment, FIFO order, and capacity eviction all apply, so a
    /// restored cache behaves exactly like one that answered those queries.
    /// Entries do not touch the inner oracle and are not counted as hits
    /// or misses — restoring is bookkeeping, not querying.
    ///
    /// An entry whose key is already resident is skipped outright — it
    /// touches neither the FIFO ring nor the fingerprint table, so
    /// re-restoring a snapshot can never double-count capacity. Entries
    /// whose widths do not match this oracle's domain (a snapshot from a
    /// different configuration) are ignored: they could never be hit by a
    /// width-checked query, so interning them would only waste capacity.
    pub fn restore_entries(&self, entries: Vec<(BitVec, BitVec)>) {
        let (kw, aw, cap) = (self.key_words, self.ans_words, self.capacity_per_shard);
        for (input, answer) in entries {
            if input.len() != self.n_in || answer.len() != self.n_out {
                continue;
            }
            let h = fingerprint(input.words(), input.len());
            let mut shard = self.shards[(h as usize) & (SHARDS - 1)].lock();
            if shard.lookup(h, input.words(), kw).is_some() {
                continue;
            }
            shard.insert(h, input.words(), answer.words(), kw, aw, cap);
        }
    }

    /// The width contract for a view query.
    #[inline]
    fn check_view_width(&self, input: &BitSlice<'_>) {
        assert_eq!(
            input.len(),
            self.n_in,
            "CachedOracle: query width {} does not match oracle domain {}",
            input.len(),
            self.n_in
        );
    }

    /// Records and classifies a hit.
    #[inline]
    fn note_hit(&self) {
        self.hits.fetch_add(1, Ordering::Relaxed);
        emit(&self.metrics, || Event::OracleQuery { kind: QueryKind::Cached });
    }

    /// Records and classifies a miss.
    #[inline]
    fn note_miss(&self) {
        self.misses.fetch_add(1, Ordering::Relaxed);
        emit(&self.metrics, || Event::OracleQuery { kind: QueryKind::Fresh });
    }

    /// Resolves one gathered key against its shard into `out`: a warm
    /// answer is copied straight from the arena; a miss is derived by
    /// `fresh` into `out` while the stripe lock is held — so a key is never
    /// computed (and counted fresh) twice — and interned from `out`.
    fn resolve_into(
        &self,
        key: &[u64],
        len_bits: usize,
        out: &mut BitVec,
        fresh: impl FnOnce(&mut BitVec),
    ) {
        let (kw, aw) = (self.key_words, self.ans_words);
        let h = fingerprint(key, len_bits);
        let mut guard = self.shards[(h as usize) & (SHARDS - 1)].lock();
        if let Some(s) = guard.lookup(h, key, kw) {
            self.note_hit();
            out.copy_from_words(&guard.answers[s * aw..(s + 1) * aw], self.n_out);
            return;
        }
        fresh(out);
        self.note_miss();
        debug_assert_eq!(out.len(), self.n_out, "inner oracle answered the wrong width");
        guard.insert(h, key, out.words(), kw, aw, self.capacity_per_shard);
    }

    /// Batch resolution over gathered keys — the core of `query_many`,
    /// `query_many_slices` and `query_many_into`. Every lock stripe is
    /// acquired once per batch (in index order, so concurrent batches and
    /// single queries cannot deadlock); the batch is classified in input
    /// order against the state at batch entry, and every distinct miss is
    /// forwarded to the inner oracle in one grouped call, then interned in
    /// first-occurrence order.
    ///
    /// Answers are delivered through `sink(query_index, answer_words)`,
    /// exactly once per query but *not* in index order: hits are emitted
    /// during the input-order walk, misses (and their in-batch duplicates)
    /// after the grouped derive. The sink decides how to materialize the
    /// words — per-answer `BitVec`s for the `Vec` entry points, arena
    /// writes for [`Oracle::query_many_into`].
    fn resolve_batch_with(&self, inputs: &[BitSlice<'_>], mut sink: impl FnMut(usize, &[u64])) {
        let n = inputs.len();
        let (kw, aw, cap) = (self.key_words, self.ans_words, self.capacity_per_shard);

        // Reuse the shared scratch when free; a contended batch builds its
        // own rather than serializing behind another thread's
        // classification.
        let mut local = BatchScratch::default();
        let mut shared = self.batch_scratch.try_lock();
        let scratch: &mut BatchScratch = match shared {
            Some(ref mut guard) => guard,
            None => &mut local,
        };

        // When the whole batch is word-aligned at both ends — every
        // `query_many` input whose width is a word multiple — keys are
        // hashed and compared in place, borrowing each view's backing
        // words with no copy at all; any other batch gathers keys into
        // the scratch arena (shift/mask) as the walk reaches them.
        let in_place = inputs.iter().all(|input| input.as_words().is_some());
        scratch.keys.clear();
        scratch.hashes.clear();

        /// The key words of query `i`: the view's own backing words on the
        /// in-place path, its gathered copy otherwise (present for every
        /// index the walk has passed).
        fn key_at<'s>(
            in_place: bool,
            inputs: &'s [BitSlice<'_>],
            keys: &'s [u64],
            kw: usize,
            i: usize,
        ) -> &'s [u64] {
            if in_place {
                inputs[i].as_words().expect("in-place batch keys are aligned")
            } else {
                &keys[i * kw..(i + 1) * kw]
            }
        }

        // One lock acquisition per stripe for the whole batch, in index
        // order (the single-query path takes exactly one stripe, so no
        // lock-order cycle is possible). Holding the full set across the
        // grouped inner call keeps the per-query guarantee — a resident
        // entry is derived (and counted fresh) exactly once — while the
        // walk stays in input order: no shard permutation to build,
        // sequential scratch access, and a hit/miss event stream identical
        // to the sequential walk's.
        let mut guards: Vec<_> = self.shards.iter().map(|shard| shard.lock()).collect();

        // Pending-miss index for the whole batch, sized for half load at
        // `n` entries so probe chains stay short. Cleared lazily on the
        // first miss — an all-hit batch (the warm steady state) never
        // touches it.
        let table_len = (2 * n).next_power_of_two().max(16);
        let pmask = table_len - 1;
        let mut pending_ready = false;
        scratch.miss_uniq.clear();
        scratch.miss_members.clear();

        for (i, input) in inputs.iter().enumerate() {
            self.check_view_width(input);
            let key: &[u64] = if in_place {
                input.as_words().expect("in-place batch keys are aligned")
            } else {
                let start = i * kw;
                scratch.keys.resize(start + kw, 0);
                for (w, slot) in scratch.keys[start..].iter_mut().enumerate() {
                    *slot = input.read_word(w);
                }
                &scratch.keys[start..start + kw]
            };
            let h = fingerprint(key, input.len());
            scratch.hashes.push(h);
            let guard = &guards[(h as usize) & (SHARDS - 1)];
            if let Some(s) = guard.lookup(h, key, kw) {
                self.note_hit();
                sink(i, &guard.answers[s * aw..(s + 1) * aw]);
                continue;
            }
            // A repeat of a miss still pending in this batch is classified
            // as cached: the first occurrence is derived and interned once
            // on its behalf. (Only under capacity smaller than one batch's
            // distinct misses could a query-at-a-time walk diverge, by
            // evicting and re-deriving inside the batch — classification
            // counts shift, answers never do.)
            if !pending_ready {
                scratch.pending.clear();
                scratch.pending.resize(table_len, EMPTY);
                pending_ready = true;
            }
            let mut pos = probe_start(h) & pmask;
            loop {
                let e = scratch.pending[pos];
                if e == EMPTY {
                    self.note_miss();
                    scratch.pending[pos] = scratch.miss_uniq.len() as u32;
                    scratch.miss_members.push((i as u32, scratch.miss_uniq.len() as u32));
                    scratch.miss_uniq.push(i as u32);
                    break;
                }
                let u = scratch.miss_uniq[e as usize] as usize;
                if scratch.hashes[u] == h && key_at(in_place, inputs, &scratch.keys, kw, u) == key {
                    self.note_hit();
                    scratch.miss_members.push((i as u32, e));
                    break;
                }
                pos = (pos + 1) & pmask;
            }
        }

        if !scratch.miss_uniq.is_empty() {
            // One grouped call to the inner oracle for the whole batch,
            // stripe locks held: each distinct key is derived (and counted
            // fresh) exactly once, as on the sequential path. Interning in
            // first-occurrence order preserves each shard's FIFO sequence
            // exactly as the per-shard walk produced it.
            let views: Vec<BitSlice<'_>> =
                scratch.miss_uniq.iter().map(|&u| inputs[u as usize]).collect();
            let fresh = self.inner.query_many_slices(&views);
            for (&u, answer) in scratch.miss_uniq.iter().zip(&fresh) {
                let i = u as usize;
                let h = scratch.hashes[i];
                guards[(h as usize) & (SHARDS - 1)].insert(
                    h,
                    key_at(in_place, inputs, &scratch.keys, kw, i),
                    answer.words(),
                    kw,
                    aw,
                    cap,
                );
            }
            for &(qi, ordinal) in &scratch.miss_members {
                sink(qi as usize, fresh[ordinal as usize].words());
            }
        }
    }

    /// Batch resolution materializing one owned `BitVec` per answer — the
    /// shape behind `query_many` / `query_many_slices`.
    fn resolve_batch(&self, inputs: &[BitSlice<'_>]) -> Vec<BitVec> {
        // `BitVec::new()` allocates nothing; the sink overwrites every
        // slot — `resolve_batch_with` delivers each query exactly once.
        let mut answers: Vec<BitVec> = vec![BitVec::new(); inputs.len()];
        self.resolve_batch_with(inputs, |i, words| {
            answers[i] = BitVec::from_words(words, self.n_out);
        });
        debug_assert!(answers.iter().all(|a| a.len() == self.n_out), "every index resolved");
        answers
    }
}

impl<O: Oracle> Oracle for CachedOracle<O> {
    fn n_in(&self) -> usize {
        self.n_in
    }

    fn n_out(&self) -> usize {
        self.n_out
    }

    fn query(&self, input: &BitVec) -> BitVec {
        check_input_width("CachedOracle", self.n_in, input);
        let mut out = BitVec::new();
        self.resolve_into(input.words(), input.len(), &mut out, |out| {
            *out = self.inner.query(input);
        });
        out
    }

    fn query_slice(&self, input: &BitSlice<'_>) -> BitVec {
        self.check_view_width(input);
        let mut out = BitVec::new();
        with_slice_words(input, |key| {
            self.resolve_into(key, input.len(), &mut out, |out| {
                *out = self.inner.query_slice(input);
            })
        });
        out
    }

    fn query_into(&self, input: &BitSlice<'_>, out: &mut BitVec) {
        self.check_view_width(input);
        // The allocation-free read path: a warm hit copies the interned
        // answer words into the caller's buffer, and a miss derives into
        // that same buffer and is interned from it.
        with_slice_words(input, |key| {
            self.resolve_into(key, input.len(), out, |out| self.inner.query_into(input, out))
        });
    }

    fn query_many(&self, inputs: &[BitVec]) -> Vec<BitVec> {
        let views: Vec<BitSlice<'_>> = inputs.iter().map(|input| input.as_view()).collect();
        self.resolve_batch(&views)
    }

    fn query_many_slices(&self, inputs: &[BitSlice<'_>]) -> Vec<BitVec> {
        self.resolve_batch(inputs)
    }

    fn query_many_into(&self, inputs: &[BitSlice<'_>], out: &mut BitVec) {
        // The allocation-free batched read: `out` is sized once for the
        // whole batch and every answer — warm hits straight from the memo
        // arena, fresh derivations after the grouped inner call — is
        // written in place at its `i * n_out` offset. Steady-state batch
        // consumers reusing one buffer allocate nothing per answer.
        let n_out = self.n_out;
        out.clear();
        out.extend_zeros(inputs.len() * n_out);
        self.resolve_batch_with(inputs, |i, words| {
            out.write_words(i * n_out, words, n_out);
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::LazyOracle;

    #[test]
    fn answers_byte_identical_to_inner() {
        let bare = LazyOracle::square(9, 24);
        let cached = CachedOracle::new(LazyOracle::square(9, 24));
        for i in 0..200u64 {
            let q = BitVec::from_u64(i % 50, 24); // repeats after 50
            assert_eq!(cached.query(&q), bare.query(&q));
        }
        assert_eq!(cached.misses(), 50);
        assert_eq!(cached.hits(), 150);
        assert_eq!(cached.len(), 50);
    }

    #[test]
    fn query_many_matches_sequential_queries() {
        let cached = CachedOracle::new(LazyOracle::square(3, 16));
        let inputs: Vec<BitVec> = (0..40u64).map(|i| BitVec::from_u64(i % 10, 16)).collect();
        let batch = cached.query_many(&inputs);
        let bare = LazyOracle::square(3, 16);
        for (q, a) in inputs.iter().zip(&batch) {
            assert_eq!(a, &bare.query(q));
        }
        assert_eq!(cached.misses(), 10);
        assert_eq!(cached.hits(), 30);
    }

    #[test]
    fn bounded_capacity_evicts_but_stays_correct() {
        let cached = CachedOracle::with_capacity(LazyOracle::square(5, 16), 16);
        let bare = LazyOracle::square(5, 16);
        // Far more distinct keys than capacity: eviction must kick in,
        // and answers must remain identical to the bare oracle throughout.
        for pass in 0..3 {
            for i in 0..200u64 {
                let q = BitVec::from_u64(i, 16);
                assert_eq!(cached.query(&q), bare.query(&q), "pass {pass} key {i}");
            }
        }
        assert!(cached.len() <= 16, "len {} exceeds capacity", cached.len());
    }

    #[test]
    fn capacity_one_cache_stays_correct() {
        // The tightest ring: every shard holds one slot, so each insert past
        // the first in a shard exercises evict-and-replace with table
        // removal. Answers must stay byte-identical throughout.
        let cached = CachedOracle::with_capacity(LazyOracle::square(8, 16), 1);
        let bare = LazyOracle::square(8, 16);
        for pass in 0..3 {
            for i in 0..100u64 {
                let q = BitVec::from_u64(i, 16);
                assert_eq!(cached.query(&q), bare.query(&q), "pass {pass} key {i}");
            }
        }
        assert!(cached.len() <= SHARDS);
        // A repeat streak on one key is all hits after the first touch.
        let q = BitVec::from_u64(7, 16);
        cached.query(&q);
        let h1 = cached.hits();
        cached.query(&q);
        cached.query(&q);
        assert_eq!(cached.hits(), h1 + 2, "repeats hit the single slot");
    }

    #[test]
    fn concurrent_hits_and_misses_are_consistent() {
        let cached = Arc::new(CachedOracle::new(LazyOracle::square(2, 16)));
        let bare = LazyOracle::square(2, 16);
        let expected: Vec<BitVec> =
            (0..64u64).map(|i| bare.query(&BitVec::from_u64(i, 16))).collect();
        let threads: Vec<_> = (0..8)
            .map(|_| {
                let cached = Arc::clone(&cached);
                let expected = expected.clone();
                std::thread::spawn(move || {
                    for round in 0..4 {
                        for i in 0..64u64 {
                            let got = cached.query(&BitVec::from_u64(i, 16));
                            assert_eq!(got, expected[i as usize], "round {round} key {i}");
                        }
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        // Per-shard locking across the miss path: each key is fresh once.
        assert_eq!(cached.misses(), 64);
        assert_eq!(cached.hits() + cached.misses(), 8 * 4 * 64);
    }

    #[test]
    fn metrics_classify_hits_and_misses() {
        let recorder = Arc::new(mph_metrics::Recorder::new());
        let cached = CachedOracle::new(LazyOracle::square(1, 16)).with_metrics(recorder.clone());
        let q = BitVec::from_u64(3, 16);
        cached.query(&q);
        cached.query(&q);
        cached.query(&BitVec::from_u64(4, 16));
        let snap = recorder.snapshot();
        assert_eq!(snap.oracle.fresh, 2);
        assert_eq!(snap.oracle.cached, 1);
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_rejected() {
        let _ = CachedOracle::with_capacity(LazyOracle::square(0, 8), 0);
    }

    #[test]
    fn entries_round_trip_through_restore() {
        let cached = CachedOracle::new(LazyOracle::square(6, 16));
        for i in 0..30u64 {
            cached.query(&BitVec::from_u64(i, 16));
        }
        let entries = cached.entries();
        assert_eq!(entries.len(), 30);

        // A fresh cache restored from the captured entries answers every
        // warmed query as a hit — no inner-oracle traffic, no miss counts.
        let restored = CachedOracle::new(LazyOracle::square(6, 16));
        restored.restore_entries(entries.clone());
        assert_eq!(restored.len(), 30);
        assert_eq!((restored.hits(), restored.misses()), (0, 0));
        for i in 0..30u64 {
            let q = BitVec::from_u64(i, 16);
            assert_eq!(restored.query(&q), cached.query(&q));
        }
        assert_eq!(restored.misses(), 0, "every restored entry is a hit");
        // And the restored cache's canonical entry order matches.
        assert_eq!(restored.entries(), entries);
    }

    #[test]
    fn restore_respects_capacity_and_skips_duplicates() {
        let small = CachedOracle::with_capacity(LazyOracle::square(6, 16), 16);
        let dup = BitVec::from_u64(1, 16);
        let answer = LazyOracle::square(6, 16).query(&dup);
        small.restore_entries(vec![(dup.clone(), answer.clone()), (dup.clone(), answer)]);
        assert_eq!(small.len(), 1, "duplicate restores collapse");
        let many: Vec<(BitVec, BitVec)> = (0..200u64)
            .map(|i| {
                let q = BitVec::from_u64(i, 16);
                let a = LazyOracle::square(6, 16).query(&q);
                (q, a)
            })
            .collect();
        small.restore_entries(many);
        assert!(small.len() <= 16, "restore evicts past capacity like queries do");
    }

    #[test]
    fn restore_ignores_mismatched_widths() {
        // Entries from a differently-shaped snapshot can never be hit by a
        // width-checked query; they must not consume capacity.
        let cached = CachedOracle::new(LazyOracle::square(6, 16));
        cached.restore_entries(vec![
            (BitVec::zeros(8), BitVec::zeros(16)),  // wrong key width
            (BitVec::zeros(16), BitVec::zeros(8)),  // wrong answer width
            (BitVec::zeros(16), BitVec::zeros(16)), // well-formed
        ]);
        assert_eq!(cached.len(), 1);
    }

    #[test]
    fn repeated_restore_never_double_counts() {
        // Restoring the same snapshot again — the resume-after-resume path —
        // must leave length, order, and hit behaviour untouched.
        let cached = CachedOracle::with_capacity(LazyOracle::square(6, 16), 64);
        for i in 0..40u64 {
            cached.query(&BitVec::from_u64(i, 16));
        }
        let entries = cached.entries();
        let restored = CachedOracle::with_capacity(LazyOracle::square(6, 16), 64);
        for _ in 0..3 {
            restored.restore_entries(entries.clone());
            assert_eq!(restored.len(), 40);
            assert_eq!(restored.entries(), entries);
        }
        for i in 0..40u64 {
            restored.query(&BitVec::from_u64(i, 16));
        }
        assert_eq!(restored.misses(), 0, "all entries survived the re-restores");
    }

    #[test]
    fn slice_and_into_paths_share_the_memo() {
        let cached = CachedOracle::new(LazyOracle::square(12, 48));
        let bare = LazyOracle::square(12, 48);
        let mut arena = BitVec::from_u64(0b1, 1); // unaligned views
        let mut offsets = Vec::new();
        for i in 0..20u64 {
            offsets.push(arena.len());
            arena.extend_bits(&BitVec::from_u64(i % 5, 48));
        }
        let mut out = BitVec::new();
        for (k, &off) in offsets.iter().enumerate() {
            let view = arena.view(off, 48);
            let expected = bare.query(&view.to_bitvec());
            assert_eq!(cached.query_slice(&view), expected, "slice {k}");
            cached.query_into(&view, &mut out);
            assert_eq!(out, expected, "into {k}");
        }
        // 5 distinct keys were derived once each; every other resolution —
        // slice- or into-keyed — was a warm hit on the shared memo.
        assert_eq!(cached.misses(), 5);
        assert_eq!(cached.hits(), 2 * 20 - 5);
    }

    #[test]
    fn batch_with_in_batch_duplicates_matches_sequential_counts() {
        // Duplicates *within* one batch: the first occurrence is fresh, the
        // repeat is cached — exactly as if the batch were walked one query
        // at a time.
        let cached = CachedOracle::new(LazyOracle::square(4, 16));
        let inputs: Vec<BitVec> =
            [3u64, 3, 9, 3, 9, 11].iter().map(|&i| BitVec::from_u64(i, 16)).collect();
        let batch = cached.query_many(&inputs);
        let bare = LazyOracle::square(4, 16);
        for (q, a) in inputs.iter().zip(&batch) {
            assert_eq!(a, &bare.query(q));
        }
        assert_eq!(cached.misses(), 3);
        assert_eq!(cached.hits(), 3);
    }

    #[test]
    fn query_many_into_matches_query_many() {
        // The arena entry point must agree with the Vec-returning batch —
        // same answers bit for bit, same hit/miss classification — at
        // word-multiple and odd answer widths (aligned and unaligned
        // arena offsets).
        for n in [64usize, 48] {
            let cached = CachedOracle::new(LazyOracle::square(15, n));
            let inputs: Vec<BitVec> =
                [3u64, 3, 9, 3, 9, 11, 2].iter().map(|&i| BitVec::from_u64(i, n)).collect();
            let views: Vec<BitSlice<'_>> = inputs.iter().map(|q| q.as_view()).collect();
            let mut arena = BitVec::from_u64(0x7, 3); // non-empty: contents must be replaced
            cached.query_many_into(&views, &mut arena);
            let counts = (cached.hits(), cached.misses());
            let reference = CachedOracle::new(LazyOracle::square(15, n));
            let expected = reference.query_many(&inputs);
            assert_eq!(arena.len(), inputs.len() * n);
            for (i, want) in expected.iter().enumerate() {
                assert_eq!(arena.slice(i * n, n), *want, "answer {i} at width {n}");
            }
            assert_eq!(counts, (reference.hits(), reference.misses()));
            // A second, all-warm pass refills the same buffer identically.
            let snapshot = arena.clone();
            cached.query_many_into(&views, &mut arena);
            assert_eq!(arena, snapshot);
            assert_eq!(cached.misses(), counts.1, "warm pass derives nothing");
        }
    }

    #[test]
    fn batched_slices_match_owned_batches() {
        let cached = CachedOracle::new(LazyOracle::square(21, 32));
        let mut arena = BitVec::from_u64(0b101, 3);
        let mut offsets = Vec::new();
        for i in 0..30u64 {
            offsets.push(arena.len());
            arena.extend_bits(&BitVec::from_u64(i % 7, 32));
        }
        let views: Vec<BitSlice<'_>> = offsets.iter().map(|&off| arena.view(off, 32)).collect();
        let owned: Vec<BitVec> = views.iter().map(|v| v.to_bitvec()).collect();
        let from_views = cached.query_many_slices(&views);
        let reference = CachedOracle::new(LazyOracle::square(21, 32));
        assert_eq!(from_views, reference.query_many(&owned));
        assert_eq!(cached.misses(), 7);
        assert_eq!(cached.hits(), 23);
    }
}
