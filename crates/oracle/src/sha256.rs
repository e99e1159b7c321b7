//! SHA-256, implemented from scratch (FIPS 180-4).
//!
//! The random-oracle methodology's second step replaces the ideal `RO` with
//! a "good cryptographic hash function" such as SHA-2/SHA-3. We implement
//! SHA-256 here rather than pulling an external crate so that the entire
//! system — ideal oracle, concrete instantiation, and everything between —
//! is built within this workspace. It backs [`crate::HashOracle`] (the
//! concrete `f^h`) and keys [`crate::LazyOracle`]'s answer derivation.
//!
//! The compression function has two kernels with identical output. On
//! x86_64 CPUs with the SHA extensions (SHA-NI, detected at run time) one
//! block costs a few dozen nanoseconds through `sha256rnds2`,
//! `sha256msg1` and `sha256msg2`; everywhere else the portable scalar loop
//! runs. The scalar kernel is also the reference: the FIPS and CAVP
//! vectors below pin it directly, and a differential property test checks
//! the hardware kernel against it block by block. This matters because
//! one compression dominates a cold [`crate::LazyOracle`] answer — the
//! cost of every first query of a trial.

/// Initial hash values: the first 32 bits of the fractional parts of the
/// square roots of the first 8 primes.
const H0: [u32; 8] = [
    0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19,
];

/// Round constants: the first 32 bits of the fractional parts of the cube
/// roots of the first 64 primes.
const K: [u32; 64] = [
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4, 0xab1c5ed5,
    0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174,
    0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967,
    0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85,
    0xa2bfe8a1, 0xa81a664b, 0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
    0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2,
];

/// Incremental SHA-256 hasher.
///
/// # Examples
///
/// ```
/// use mph_oracle::sha256::Sha256;
///
/// let mut h = Sha256::new();
/// h.update(b"abc");
/// assert_eq!(
///     hex(&h.finalize()),
///     "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
/// );
///
/// fn hex(d: &[u8; 32]) -> String {
///     d.iter().map(|b| format!("{b:02x}")).collect()
/// }
/// ```
#[derive(Clone)]
pub struct Sha256 {
    state: [u32; 8],
    /// Bytes buffered toward the next 64-byte block.
    buffer: [u8; 64],
    buffer_len: usize,
    /// Total message length in bytes so far.
    total_len: u64,
}

impl Default for Sha256 {
    fn default() -> Self {
        Self::new()
    }
}

impl Sha256 {
    /// A fresh hasher.
    pub fn new() -> Self {
        Sha256 { state: H0, buffer: [0; 64], buffer_len: 0, total_len: 0 }
    }

    /// Absorbs `data`.
    pub fn update(&mut self, data: &[u8]) {
        self.total_len =
            self.total_len.checked_add(data.len() as u64).expect("SHA-256 message length overflow");
        let mut data = data;
        // Fill a partial buffer first.
        if self.buffer_len > 0 {
            let take = data.len().min(64 - self.buffer_len);
            self.buffer[self.buffer_len..self.buffer_len + take].copy_from_slice(&data[..take]);
            self.buffer_len += take;
            data = &data[take..];
            if self.buffer_len == 64 {
                let block = self.buffer;
                self.compress(&block);
                self.buffer_len = 0;
            }
        }
        // Whole blocks straight from the input.
        while data.len() >= 64 {
            let (block, rest) = data.split_at(64);
            self.compress(block.try_into().unwrap());
            data = rest;
        }
        // Stash the tail.
        if !data.is_empty() {
            self.buffer[..data.len()].copy_from_slice(data);
            self.buffer_len = data.len();
        }
    }

    /// Absorbs `bit_len` bits presented as little-endian packed `u64`
    /// words — the `mph-bits` backing representation, where byte `i` of
    /// the message is byte `i % 8` of `words[i / 8]`.
    ///
    /// Exactly equivalent to [`Sha256::update`] on the packed byte
    /// serialization (`BitVec::to_bytes`), without materializing it:
    /// whole 64-byte blocks are fed to the compression function straight
    /// from the words. When the stream is byte-misaligned inside the
    /// words (the usual case after a domain-separation prefix), each
    /// schedule word is the branch-free combination of two neighbouring
    /// input words.
    pub fn update_words(&mut self, words: &[u64], bit_len: usize) {
        let n_bytes = bit_len.div_ceil(8);
        debug_assert!(words.len() >= n_bytes.div_ceil(8), "word slice shorter than bit length");
        self.total_len =
            self.total_len.checked_add(n_bytes as u64).expect("SHA-256 message length overflow");

        let mut pos = 0usize; // next message byte to consume
                              // Route bytes through the byte buffer until it reaches a block
                              // boundary (or the message ends).
        if self.buffer_len > 0 {
            while pos < n_bytes && self.buffer_len < 64 {
                let bytes = words[pos / 8].to_le_bytes();
                let in_word = pos % 8;
                let take = (8 - in_word).min(n_bytes - pos).min(64 - self.buffer_len);
                self.buffer[self.buffer_len..self.buffer_len + take]
                    .copy_from_slice(&bytes[in_word..in_word + take]);
                self.buffer_len += take;
                pos += take;
            }
            if self.buffer_len == 64 {
                let block = self.buffer;
                self.compress(&block);
                self.buffer_len = 0;
            }
        }
        // Whole 64-byte blocks straight from the words. `r` is the byte
        // misalignment of the stream within the words — fixed from here
        // on, so the schedule head is built without per-byte branches.
        let r = pos % 8;
        while n_bytes - pos >= 64 {
            let base = pos / 8;
            let mut block = [0u32; 16];
            if r == 0 {
                for i in 0..8 {
                    let w = words[base + i];
                    block[2 * i] = (w as u32).swap_bytes();
                    block[2 * i + 1] = ((w >> 32) as u32).swap_bytes();
                }
            } else {
                let shift = 8 * r as u32;
                let mut prev = words[base] >> shift;
                for i in 0..8 {
                    let next = words[base + i + 1];
                    let w = prev | (next << (64 - shift));
                    block[2 * i] = (w as u32).swap_bytes();
                    block[2 * i + 1] = ((w >> 32) as u32).swap_bytes();
                    prev = next >> shift;
                }
            }
            self.compress_words(&block);
            pos += 64;
        }
        // Stash the sub-block tail in the byte buffer.
        while pos < n_bytes {
            let bytes = words[pos / 8].to_le_bytes();
            let in_word = pos % 8;
            let take = (8 - in_word).min(n_bytes - pos);
            self.buffer[self.buffer_len..self.buffer_len + take]
                .copy_from_slice(&bytes[in_word..in_word + take]);
            self.buffer_len += take;
            pos += take;
        }
        debug_assert!(self.buffer_len < 64);
    }

    /// Completes the hash, returning the 32-byte digest.
    pub fn finalize(mut self) -> [u8; 32] {
        let bit_len = self.total_len.wrapping_mul(8);
        // Padding: 0x80, zeros, 64-bit big-endian bit length — written in
        // one pass, spilling into a second block only when fewer than 9
        // bytes of the current one are free.
        let used = self.buffer_len;
        self.buffer[used] = 0x80;
        self.buffer[used + 1..].fill(0);
        if used >= 56 {
            let block = self.buffer;
            self.compress(&block);
            self.buffer = [0; 64];
        }
        self.buffer[56..].copy_from_slice(&bit_len.to_be_bytes());
        let block = self.buffer;
        self.compress(&block);
        let mut out = [0u8; 32];
        for (i, word) in self.state.iter().enumerate() {
            out[i * 4..i * 4 + 4].copy_from_slice(&word.to_be_bytes());
        }
        out
    }

    /// The SHA-256 compression function on one 64-byte block.
    fn compress(&mut self, block: &[u8; 64]) {
        let mut head = [0u32; 16];
        for (i, chunk) in block.chunks_exact(4).enumerate() {
            head[i] = u32::from_be_bytes(chunk.try_into().unwrap());
        }
        self.compress_words(&head);
    }

    /// The compression function on one block given as its 16 big-endian
    /// schedule head words (the word-streaming entry point). Dispatches to
    /// the SHA-NI kernel when the CPU has it, else the scalar loop.
    #[inline]
    fn compress_words(&mut self, head: &[u32; 16]) {
        if !compress_hardware(&mut self.state, head) {
            compress_scalar(&mut self.state, head);
        }
    }
}

/// The portable compression function: the FIPS 180-4 message schedule and
/// 64 rounds, one block. The reference every other kernel must match.
fn compress_scalar(state: &mut [u32; 8], head: &[u32; 16]) {
    let mut w = [0u32; 64];
    w[..16].copy_from_slice(head);
    for i in 16..64 {
        let s0 = w[i - 15].rotate_right(7) ^ w[i - 15].rotate_right(18) ^ (w[i - 15] >> 3);
        let s1 = w[i - 2].rotate_right(17) ^ w[i - 2].rotate_right(19) ^ (w[i - 2] >> 10);
        w[i] = w[i - 16].wrapping_add(s0).wrapping_add(w[i - 7]).wrapping_add(s1);
    }

    let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = *state;
    for i in 0..64 {
        let s1 = e.rotate_right(6) ^ e.rotate_right(11) ^ e.rotate_right(25);
        let ch = (e & f) ^ (!e & g);
        let temp1 = h.wrapping_add(s1).wrapping_add(ch).wrapping_add(K[i]).wrapping_add(w[i]);
        let s0 = a.rotate_right(2) ^ a.rotate_right(13) ^ a.rotate_right(22);
        let maj = (a & b) ^ (a & c) ^ (b & c);
        let temp2 = s0.wrapping_add(maj);
        h = g;
        g = f;
        f = e;
        e = d.wrapping_add(temp1);
        d = c;
        c = b;
        b = a;
        a = temp1.wrapping_add(temp2);
    }

    for (s, v) in state.iter_mut().zip([a, b, c, d, e, f, g, h]) {
        *s = s.wrapping_add(v);
    }
}

/// Runs the SHA-NI kernel on one block when the CPU supports it, returning
/// whether it ran. Detection is cached by `std` after the first call, so
/// the check is one relaxed atomic load per block.
#[inline]
fn compress_hardware(state: &mut [u32; 8], head: &[u32; 16]) -> bool {
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("sha") && std::arch::is_x86_feature_detected!("sse4.1") {
        // SAFETY: `shani::compress` needs exactly the `sha` and `sse4.1`
        // target features (which imply the SSE2 and SSSE3 it also uses),
        // and both were just detected on this CPU.
        unsafe { shani::compress(state, head) };
        return true;
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = (state, head);
    false
}

/// The SHA-NI compression kernel (Intel SHA extensions).
///
/// The hardware keeps the eight working variables as two vectors,
/// `ABEF` and `CDGH`; each `sha256rnds2` performs two rounds, so a group
/// of four rounds is two instructions fed one vector of `W[i] + K[i]`.
/// `sha256msg1` / `sha256msg2` compute the message schedule four words at
/// a time.
#[cfg(target_arch = "x86_64")]
mod shani {
    use super::K;
    use std::arch::x86_64::*;

    /// `[x[i], x[i + 1], x[i + 2], x[i + 3]]` as one vector, lane 0 first.
    #[inline]
    #[target_feature(enable = "sse2")]
    fn lanes(x: &[u32], i: usize) -> __m128i {
        _mm_set_epi32(x[i + 3] as i32, x[i + 2] as i32, x[i + 1] as i32, x[i] as i32)
    }

    /// Four rounds: `msg` holds schedule words `4·group .. 4·group + 4`.
    #[inline]
    #[target_feature(enable = "sha")]
    fn rounds4(abef: &mut __m128i, cdgh: &mut __m128i, msg: __m128i, group: usize) {
        let wk = _mm_add_epi32(msg, lanes(&K, 4 * group));
        *cdgh = _mm_sha256rnds2_epu32(*cdgh, *abef, wk);
        *abef = _mm_sha256rnds2_epu32(*abef, *cdgh, _mm_shuffle_epi32::<0x0E>(wk));
    }

    /// The next four schedule words from the previous sixteen (`w0` oldest).
    #[inline]
    #[target_feature(enable = "sha,ssse3")]
    fn schedule(w0: __m128i, w1: __m128i, w2: __m128i, w3: __m128i) -> __m128i {
        let t = _mm_add_epi32(_mm_sha256msg1_epu32(w0, w1), _mm_alignr_epi8::<4>(w3, w2));
        _mm_sha256msg2_epu32(t, w3)
    }

    /// One block through the SHA-NI rounds; bit-identical to
    /// `compress_scalar`.
    #[target_feature(enable = "sha,sse4.1")]
    pub(super) fn compress(state: &mut [u32; 8], head: &[u32; 16]) {
        // Repack [a b c d] [e f g h] into the ABEF / CDGH lane order.
        let cdab = _mm_shuffle_epi32::<0xB1>(lanes(state, 0));
        let efgh = _mm_shuffle_epi32::<0x1B>(lanes(state, 4));
        let mut abef = _mm_alignr_epi8::<8>(cdab, efgh);
        let mut cdgh = _mm_blend_epi16::<0xF0>(efgh, cdab);
        let (abef_in, cdgh_in) = (abef, cdgh);

        let mut w = [lanes(head, 0), lanes(head, 4), lanes(head, 8), lanes(head, 12)];
        for (group, &msg) in w.iter().enumerate() {
            rounds4(&mut abef, &mut cdgh, msg, group);
        }
        for group in 4..16 {
            let next = schedule(w[0], w[1], w[2], w[3]);
            rounds4(&mut abef, &mut cdgh, next, group);
            w = [w[1], w[2], w[3], next];
        }

        abef = _mm_add_epi32(abef, abef_in);
        cdgh = _mm_add_epi32(cdgh, cdgh_in);
        // Back to [a b c d] [e f g h].
        let feba = _mm_shuffle_epi32::<0x1B>(abef);
        let dchg = _mm_shuffle_epi32::<0xB1>(cdgh);
        let dcba = _mm_blend_epi16::<0xF0>(feba, dchg);
        let hgef = _mm_alignr_epi8::<8>(dchg, feba);
        *state = [
            _mm_extract_epi32::<0>(dcba) as u32,
            _mm_extract_epi32::<1>(dcba) as u32,
            _mm_extract_epi32::<2>(dcba) as u32,
            _mm_extract_epi32::<3>(dcba) as u32,
            _mm_extract_epi32::<0>(hgef) as u32,
            _mm_extract_epi32::<1>(hgef) as u32,
            _mm_extract_epi32::<2>(hgef) as u32,
            _mm_extract_epi32::<3>(hgef) as u32,
        ];
    }
}

/// One-shot SHA-256 of `data`.
pub fn sha256(data: &[u8]) -> [u8; 32] {
    let mut h = Sha256::new();
    h.update(data);
    h.finalize()
}

/// One-shot SHA-256 over the concatenation of several byte slices, without
/// materializing the concatenation.
pub fn sha256_concat(parts: &[&[u8]]) -> [u8; 32] {
    let mut h = Sha256::new();
    for p in parts {
        h.update(p);
    }
    h.finalize()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn hex(digest: &[u8; 32]) -> String {
        digest.iter().map(|b| format!("{b:02x}")).collect()
    }

    /// SHA-256 of `msg` through the scalar kernel alone, with its own
    /// padding: checks the portable fallback even on CPUs where dispatch
    /// always picks the hardware kernel.
    pub(super) fn scalar_sha256(msg: &[u8]) -> [u8; 32] {
        let mut padded = msg.to_vec();
        padded.push(0x80);
        while padded.len() % 64 != 56 {
            padded.push(0);
        }
        padded.extend_from_slice(&(msg.len() as u64 * 8).to_be_bytes());
        let mut state = H0;
        for block in padded.chunks_exact(64) {
            let mut head = [0u32; 16];
            for (word, bytes) in head.iter_mut().zip(block.chunks_exact(4)) {
                *word = u32::from_be_bytes(bytes.try_into().unwrap());
            }
            compress_scalar(&mut state, &head);
        }
        let mut out = [0u8; 32];
        for (bytes, word) in out.chunks_exact_mut(4).zip(state) {
            bytes.copy_from_slice(&word.to_be_bytes());
        }
        out
    }

    /// Asserts both the dispatched hasher and the scalar kernel produce
    /// `expected` for `msg`.
    fn assert_digest(msg: &[u8], expected: &str) {
        assert_eq!(hex(&sha256(msg)), expected, "dispatched, len {}", msg.len());
        assert_eq!(hex(&scalar_sha256(msg)), expected, "scalar, len {}", msg.len());
    }

    #[test]
    fn fips_vector_empty() {
        assert_digest(b"", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
    }

    #[test]
    fn fips_vector_abc() {
        assert_digest(b"abc", "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
    }

    #[test]
    fn fips_vector_two_blocks() {
        assert_digest(
            b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1",
        );
    }

    #[test]
    fn fips_vector_million_a() {
        assert_digest(
            &vec![b'a'; 1_000_000],
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0",
        );
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The hardware kernel equals the scalar reference on arbitrary
        /// chaining states and blocks, not only on states reachable from
        /// `H0`.
        #[test]
        fn hardware_compress_matches_scalar(words in prop::collection::vec(any::<u32>(), 24)) {
            let mut hardware: [u32; 8] = words[..8].try_into().unwrap();
            let head: [u32; 16] = words[8..].try_into().unwrap();
            let mut scalar = hardware;
            compress_scalar(&mut scalar, &head);
            if !compress_hardware(&mut hardware, &head) {
                eprintln!("sha256: this CPU has no SHA extensions; only the scalar kernel ran");
                return Ok(());
            }
            prop_assert_eq!(hardware, scalar);
        }
    }

    #[test]
    fn incremental_equals_oneshot() {
        let data: Vec<u8> = (0..1000u32).map(|i| (i % 251) as u8).collect();
        // Split at awkward boundaries relative to the 64-byte block size.
        for splits in [vec![0usize], vec![1, 63, 64, 65], vec![500], vec![999]] {
            let mut h = Sha256::new();
            let mut prev = 0;
            for &s in &splits {
                h.update(&data[prev..s]);
                prev = s;
            }
            h.update(&data[prev..]);
            assert_eq!(h.finalize(), sha256(&data));
        }
    }

    #[test]
    fn concat_equals_joined() {
        let a = b"hello ";
        let b = b"world";
        let joined = [&a[..], &b[..]].concat();
        assert_eq!(sha256_concat(&[a, b]), sha256(&joined));
    }

    #[test]
    fn length_extension_boundary_inputs() {
        // Messages whose padded length straddles one vs two extra blocks:
        // 55 bytes leave room for 0x80 and the length, 56..=63 do not.
        for len in [0usize, 1, 54, 55, 56, 57, 62, 63, 64, 119, 120, 127, 128] {
            let msg = vec![0xAB; len];
            let d1 = sha256(&msg);
            let mut h = Sha256::new();
            for b in &msg {
                h.update(std::slice::from_ref(b));
            }
            assert_eq!(h.finalize(), d1, "len {len}");
            assert_eq!(scalar_sha256(&msg), d1, "independent padding, len {len}");
        }
    }

    #[test]
    fn distinct_inputs_distinct_digests() {
        let d1 = sha256(b"input-1");
        let d2 = sha256(b"input-2");
        assert_ne!(d1, d2);
    }

    /// Packs a byte message into little-endian u64 words, the `mph-bits`
    /// backing layout.
    fn to_words(bytes: &[u8]) -> Vec<u64> {
        let mut words = vec![0u64; bytes.len().div_ceil(8)];
        for (i, &b) in bytes.iter().enumerate() {
            words[i / 8] |= u64::from(b) << (8 * (i % 8));
        }
        words
    }

    #[test]
    fn update_words_equals_update_on_fips_vectors() {
        let million = vec![b'a'; 1_000_000];
        let vectors: [&[u8]; 4] =
            [b"", b"abc", b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq", &million];
        for msg in vectors {
            let mut h = Sha256::new();
            h.update_words(&to_words(msg), msg.len() * 8);
            assert_eq!(h.finalize(), sha256(msg), "len {}", msg.len());
        }
    }

    #[test]
    fn update_words_equals_update_across_block_boundaries() {
        // Every combination of a byte prefix (misaligning the buffer by
        // 0..64 bytes, covering the domain-prefix case) and a word-fed
        // message length straddling one/two/three blocks.
        let data: Vec<u8> = (0..4096u32).map(|i| (i.wrapping_mul(0x9e37) >> 3) as u8).collect();
        for prefix in [0usize, 1, 7, 8, 22, 42, 55, 56, 63] {
            for len in [0usize, 1, 7, 8, 9, 21, 22, 63, 64, 65, 127, 128, 129, 200, 256, 300] {
                let msg = &data[..len];
                let mut via_words = Sha256::new();
                via_words.update(&data[1000..1000 + prefix]);
                via_words.update_words(&to_words(msg), len * 8);
                let mut via_bytes = Sha256::new();
                via_bytes.update(&data[1000..1000 + prefix]);
                via_bytes.update(msg);
                assert_eq!(via_words.finalize(), via_bytes.finalize(), "prefix {prefix} len {len}");
            }
        }
    }

    #[test]
    fn update_words_respects_sub_byte_bit_lengths() {
        // A bit length that is not a whole number of bytes hashes exactly
        // ceil(bit_len / 8) bytes — matching BitVec::to_bytes, whose
        // trailing partial byte carries zero padding bits in the words.
        for bit_len in [1usize, 3, 9, 17, 170, 513] {
            let n_bytes = bit_len.div_ceil(8);
            let mut bytes: Vec<u8> = (0..n_bytes as u32).map(|i| (i * 37 + 11) as u8).collect();
            // Zero the padding bits of the last byte, as the BitVec
            // invariant guarantees.
            let tail_bits = bit_len % 8;
            if tail_bits != 0 {
                bytes[n_bytes - 1] &= (1u8 << tail_bits) - 1;
            }
            let mut h = Sha256::new();
            h.update_words(&to_words(&bytes), bit_len);
            assert_eq!(h.finalize(), sha256(&bytes), "bit_len {bit_len}");
        }
    }

    #[test]
    fn update_words_interleaves_with_update() {
        // words → bytes → words chaining stays equivalent to one byte run.
        let data: Vec<u8> = (0..512u32).map(|i| (i % 251) as u8).collect();
        let mut mixed = Sha256::new();
        mixed.update_words(&to_words(&data[..40]), 40 * 8);
        mixed.update(&data[40..100]);
        mixed.update_words(&to_words(&data[100..]), (data.len() - 100) * 8);
        assert_eq!(mixed.finalize(), sha256(&data));
    }
}

#[cfg(test)]
mod cavp_vectors {
    //! Additional NIST CAVP short-message vectors (SHA256ShortMsg.rsp).
    use super::*;

    fn hex_digest(digest: &[u8; 32]) -> String {
        digest.iter().map(|b| format!("{b:02x}")).collect()
    }

    fn from_hex(s: &str) -> Vec<u8> {
        (0..s.len()).step_by(2).map(|i| u8::from_str_radix(&s[i..i + 2], 16).unwrap()).collect()
    }

    #[test]
    fn cavp_short_messages() {
        // (message hex, expected digest hex)
        let vectors = [
            // Len = 8
            ("d3", "28969cdfa74a12c82f3bad960b0b000aca2ac329deea5c2328ebc6f2ba9802c1"),
            // Len = 16
            ("11af", "5ca7133fa735326081558ac312c620eeca9970d1e70a4b95533d956f072d1f98"),
            // Len = 24
            ("b4190e", "dff2e73091f6c05e528896c4c831b9448653dc2ff043528f6769437bc7b975c2"),
            // Len = 32
            ("74ba2521", "b16aa56be3880d18cd41e68384cf1ec8c17680c45a02b1575dc1518923ae8b0e"),
            // Len = 64
            (
                "5738c929c4f4ccb6",
                "963bb88f27f512777aab6c8b1a02c70ec0ad651d428f870036e1917120fb48bf",
            ),
            // Len = 128
            (
                "0a27847cdc98bd6f62220b046edd762b",
                "80c25ec1600587e7f28b18b1b18e3cdc89928e39cab3bc25e4d4a4c139bcedc4",
            ),
            // Len = 256
            (
                "09fc1accc230a205e4a208e64a8f204291f581a12756392da4b8c0cf5ef02b95",
                "4f44c1c7fbebb6f9601829f3897bfd650c56fa07844be76489076356ac1886a4",
            ),
        ];
        for (msg, expected) in vectors {
            let msg_bytes = from_hex(msg);
            assert_eq!(hex_digest(&sha256(&msg_bytes)), expected, "msg {msg}");
            let scalar = super::tests::scalar_sha256(&msg_bytes);
            assert_eq!(hex_digest(&scalar), expected, "scalar kernel, msg {msg}");
        }
    }
}
