//! SHA-256 (FIPS 180-4), implemented from scratch.
//!
//! The branch store is content-addressed like Irmin and Git: states and
//! commits are identified by the digest of their content. No cryptography
//! crate is on the approved dependency list, so the hash is implemented
//! here and validated against the NIST test vectors.
//!
//! Every update commit hashes the whole canonical state, so the block
//! compress is the store's hottest loop. It has two implementations
//! behind one entry point, `compress_blocks`: portable scalar rounds,
//! and on x86_64 CPUs that report the SHA extensions (`sha_ni`) the
//! `sha256rnds2` / `sha256msg1` / `sha256msg2` instructions. The choice is
//! made at run time from CPU feature detection alone; both produce the
//! same digests, which the tests check block for block. The call into the
//! accelerated compress is the workspace's one `unsafe` block.

#![deny(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

/// Initial hash values: first 32 bits of the fractional parts of the square
/// roots of the first 8 primes.
const H0: [u32; 8] = [
    0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19,
];

/// Round constants: first 32 bits of the fractional parts of the cube roots
/// of the first 64 primes.
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

/// Incremental SHA-256 context.
///
/// # Example
///
/// ```
/// use peepul_sha256::Sha256;
///
/// let mut ctx = Sha256::new();
/// ctx.update(b"abc");
/// let digest = ctx.finalize();
/// assert_eq!(
///     hex(&digest),
///     "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
/// );
///
/// fn hex(bytes: &[u8]) -> String {
///     bytes.iter().fold(String::new(), |mut s, b| {
///         use std::fmt::Write;
///         write!(s, "{b:02x}").unwrap();
///         s
///     })
/// }
/// ```
#[derive(Clone, Debug)]
pub struct Sha256 {
    state: [u32; 8],
    /// Pending input that has not yet filled a 64-byte block.
    buffer: [u8; 64],
    buffered: usize,
    /// Total message length in bytes.
    length: u64,
}

impl Sha256 {
    /// Creates a fresh context.
    pub fn new() -> Self {
        Sha256 {
            state: H0,
            buffer: [0; 64],
            buffered: 0,
            length: 0,
        }
    }

    /// Absorbs input bytes.
    pub fn update(&mut self, data: &[u8]) {
        self.update_with(data, compress_blocks);
    }

    /// Completes the hash, producing the 32-byte digest.
    pub fn finalize(self) -> [u8; 32] {
        self.finalize_with(compress_blocks)
    }

    /// One-shot convenience.
    pub fn digest(data: &[u8]) -> [u8; 32] {
        let mut ctx = Sha256::new();
        ctx.update(data);
        ctx.finalize()
    }

    /// [`update`](Self::update) on a given compress: whole blocks go from
    /// `data` to `compress` in one call, without a copy; only a partial
    /// block is buffered.
    fn update_with(&mut self, mut data: &[u8], compress: impl Fn(&mut [u32; 8], &[u8]) -> bool) {
        self.length += data.len() as u64;
        if self.buffered > 0 {
            let take = (64 - self.buffered).min(data.len());
            self.buffer[self.buffered..self.buffered + take].copy_from_slice(&data[..take]);
            self.buffered += take;
            data = &data[take..];
            if self.buffered < 64 {
                return;
            }
            compress(&mut self.state, &self.buffer);
            self.buffered = 0;
        }
        let (blocks, rest) = data.split_at(data.len() - data.len() % 64);
        if !blocks.is_empty() {
            compress(&mut self.state, blocks);
        }
        self.buffer[..rest.len()].copy_from_slice(rest);
        self.buffered = rest.len();
    }

    /// [`finalize`](Self::finalize) on a given compress: the padding — 0x80,
    /// zeros, then the 64-bit big-endian bit length — is built in place as
    /// one block, or two when fewer than 9 bytes of the last one are free.
    fn finalize_with(mut self, compress: impl Fn(&mut [u32; 8], &[u8]) -> bool) -> [u8; 32] {
        let mut tail = [0u8; 128];
        tail[..self.buffered].copy_from_slice(&self.buffer[..self.buffered]);
        tail[self.buffered] = 0x80;
        let len = if self.buffered < 56 { 64 } else { 128 };
        tail[len - 8..len].copy_from_slice(&(self.length * 8).to_be_bytes());
        compress(&mut self.state, &tail[..len]);

        let mut out = [0u8; 32];
        for (chunk, word) in out.chunks_exact_mut(4).zip(self.state) {
            chunk.copy_from_slice(&word.to_be_bytes());
        }
        out
    }
}

impl Default for Sha256 {
    fn default() -> Self {
        Sha256::new()
    }
}

/// Compresses `blocks` (a whole number of 64-byte blocks) into `state` on
/// the fastest path this CPU has, and says which one ran: `true` for the
/// SHA extensions, `false` for the scalar rounds.
///
/// The choice is `is_x86_feature_detected!`'s, which std caches after the
/// first query; every target other than x86_64 runs scalar.
fn compress_blocks(state: &mut [u32; 8], blocks: &[u8]) -> bool {
    debug_assert_eq!(blocks.len() % 64, 0, "whole blocks only");
    #[cfg(target_arch = "x86_64")]
    if is_x86_feature_detected!("sha") && is_x86_feature_detected!("sse4.1") {
        // SAFETY: `sha_ni::compress_blocks` is compiled for sha, sse2, ssse3
        // and sse4.1. The line above has just detected sha and sse4.1 on
        // the running CPU; sse4.1 implies ssse3, and sse2 is part of the
        // x86_64 baseline. That function has no other precondition.
        #[allow(unsafe_code)]
        unsafe {
            sha_ni::compress_blocks(state, blocks)
        };
        return true;
    }
    scalar::compress_blocks(state, blocks);
    false
}

/// The portable compress: the FIPS 180-4 rounds on `u32`s.
mod scalar {
    use super::K;

    /// Compresses each 64-byte block of `blocks` into `state`, reading the
    /// message words straight from the slice.
    pub(super) fn compress_blocks(state: &mut [u32; 8], blocks: &[u8]) {
        for block in blocks.chunks_exact(64) {
            let mut w = [0u32; 64];
            for (word, chunk) in w.iter_mut().zip(block.chunks_exact(4)) {
                *word = u32::from_be_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]);
            }
            for i in 16..64 {
                let s0 = w[i - 15].rotate_right(7) ^ w[i - 15].rotate_right(18) ^ (w[i - 15] >> 3);
                let s1 = w[i - 2].rotate_right(17) ^ w[i - 2].rotate_right(19) ^ (w[i - 2] >> 10);
                w[i] = w[i - 16]
                    .wrapping_add(s0)
                    .wrapping_add(w[i - 7])
                    .wrapping_add(s1);
            }

            let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = *state;
            for i in 0..64 {
                let s1 = e.rotate_right(6) ^ e.rotate_right(11) ^ e.rotate_right(25);
                let ch = (e & f) ^ (!e & g);
                let t1 = h
                    .wrapping_add(s1)
                    .wrapping_add(ch)
                    .wrapping_add(K[i])
                    .wrapping_add(w[i]);
                let s0 = a.rotate_right(2) ^ a.rotate_right(13) ^ a.rotate_right(22);
                let maj = (a & b) ^ (a & c) ^ (b & c);
                let t2 = s0.wrapping_add(maj);
                h = g;
                g = f;
                f = e;
                e = d.wrapping_add(t1);
                d = c;
                c = b;
                b = a;
                a = t1.wrapping_add(t2);
            }

            for (s, v) in state.iter_mut().zip([a, b, c, d, e, f, g, h]) {
                *s = s.wrapping_add(v);
            }
        }
    }
}

/// The x86_64 SHA-extensions compress.
///
/// The state lives in two registers, `abef` and `cdgh` (named from the
/// highest 32-bit lane down), the layout `sha256rnds2` works on. Each
/// `sha256rnds2` runs two rounds, so a group of four rounds is two of them
/// over one message vector plus its round constants. Words are moved in
/// with `_mm_set_epi32` and out with `_mm_extract_epi32`: the function
/// takes no pointer intrinsic, so it holds no `unsafe` of its own.
#[cfg(target_arch = "x86_64")]
mod sha_ni {
    use super::K;
    use std::arch::x86_64::{
        __m128i, _mm_add_epi32, _mm_alignr_epi8, _mm_extract_epi32, _mm_set_epi32,
        _mm_sha256msg1_epu32, _mm_sha256msg2_epu32, _mm_sha256rnds2_epu32, _mm_shuffle_epi32,
    };

    /// Compresses each 64-byte block of `blocks` into `state`.
    #[target_feature(enable = "sha,sse2,ssse3,sse4.1")]
    pub(super) fn compress_blocks(state: &mut [u32; 8], blocks: &[u8]) {
        let [a, b, c, d, e, f, g, h] = state.map(|v| v as i32);
        let mut abef = _mm_set_epi32(a, b, e, f);
        let mut cdgh = _mm_set_epi32(c, d, g, h);
        for block in blocks.chunks_exact(64) {
            let word =
                |i: usize| i32::from_be_bytes([block[i], block[i + 1], block[i + 2], block[i + 3]]);
            // Message words 4j..4j+4, lowest lane first.
            let mut w: [__m128i; 4] = [0, 16, 32, 48]
                .map(|o| _mm_set_epi32(word(o + 12), word(o + 8), word(o + 4), word(o)));
            let (abef_in, cdgh_in) = (abef, cdgh);
            for j in 0..16 {
                let msg = if j < 4 {
                    w[j]
                } else {
                    // W[t] for the next four t from the sixteen before them.
                    let next = _mm_sha256msg2_epu32(
                        _mm_add_epi32(
                            _mm_sha256msg1_epu32(w[0], w[1]),
                            _mm_alignr_epi8::<4>(w[3], w[2]),
                        ),
                        w[3],
                    );
                    w = [w[1], w[2], w[3], next];
                    next
                };
                let k = _mm_set_epi32(
                    K[4 * j + 3] as i32,
                    K[4 * j + 2] as i32,
                    K[4 * j + 1] as i32,
                    K[4 * j] as i32,
                );
                let wk = _mm_add_epi32(msg, k);
                cdgh = _mm_sha256rnds2_epu32(cdgh, abef, wk);
                abef = _mm_sha256rnds2_epu32(abef, cdgh, _mm_shuffle_epi32::<0x0e>(wk));
            }
            abef = _mm_add_epi32(abef, abef_in);
            cdgh = _mm_add_epi32(cdgh, cdgh_in);
        }
        *state = [
            _mm_extract_epi32::<3>(abef),
            _mm_extract_epi32::<2>(abef),
            _mm_extract_epi32::<3>(cdgh),
            _mm_extract_epi32::<2>(cdgh),
            _mm_extract_epi32::<1>(abef),
            _mm_extract_epi32::<0>(abef),
            _mm_extract_epi32::<1>(cdgh),
            _mm_extract_epi32::<0>(cdgh),
        ]
        .map(|v| v as u32);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// A whole-block compress as `Sha256` drives it.
    type Compress = fn(&mut [u32; 8], &[u8]) -> bool;

    fn scalar(state: &mut [u32; 8], blocks: &[u8]) -> bool {
        scalar::compress_blocks(state, blocks);
        false
    }

    /// The dispatcher, required to have taken the accelerated path.
    fn accelerated(state: &mut [u32; 8], blocks: &[u8]) -> bool {
        assert!(compress_blocks(state, blocks), "dispatcher ran scalar");
        true
    }

    /// Whether the CPU itself reports what the accelerated path needs.
    fn cpu_has_sha_ni() -> bool {
        #[cfg(target_arch = "x86_64")]
        return is_x86_feature_detected!("sha") && is_x86_feature_detected!("sse4.1");
        #[cfg(not(target_arch = "x86_64"))]
        false
    }

    /// Both compress functions when this CPU has the accelerated one,
    /// else only the scalar one.
    fn paths() -> Vec<(&'static str, Compress)> {
        let mut paths: Vec<(&'static str, Compress)> = vec![("scalar", scalar)];
        if cpu_has_sha_ni() {
            paths.push(("sha_ni", accelerated));
        } else {
            eprintln!("this CPU lacks sha/sse4.1: only the scalar compress is exercised");
        }
        paths
    }

    /// Hashes `parts`, one `update` each, on `compress`.
    fn hash(compress: Compress, parts: &[&[u8]]) -> [u8; 32] {
        let mut ctx = Sha256::new();
        for part in parts {
            ctx.update_with(part, compress);
        }
        ctx.finalize_with(compress)
    }

    fn hex(bytes: &[u8]) -> String {
        use std::fmt::Write;
        let mut s = String::with_capacity(bytes.len() * 2);
        for b in bytes {
            write!(s, "{b:02x}").unwrap();
        }
        s
    }

    /// NIST FIPS 180-4 / secure hash test vectors.
    #[test]
    fn nist_vectors() {
        let cases: &[(&[u8], &str)] = &[
            (
                b"",
                "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
            ),
            (
                b"abc",
                "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad",
            ),
            (
                b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
                "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1",
            ),
            (
                b"abcdefghbcdefghicdefghijdefghijkefghijklfghijklmghijklmnhijklmnoijklmnopjklmnopqklmnopqrlmnopqrsmnopqrstnopqrstu",
                "cf5b16a778af8380036ce59e7b0492370b249b11e8f07a51afac45037afee9d1",
            ),
        ];
        for (name, compress) in paths() {
            for (input, want) in cases {
                assert_eq!(hex(&hash(compress, &[input])), *want, "{name}");
            }
        }
        for (input, want) in cases {
            assert_eq!(hex(&Sha256::digest(input)), *want, "public API");
        }
    }

    #[test]
    fn million_a_vector() {
        let chunk = [b'a'; 1000];
        let parts = [&chunk[..]; 1000];
        for (name, compress) in paths() {
            assert_eq!(
                hex(&hash(compress, &parts)),
                "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0",
                "{name}"
            );
        }
    }

    #[test]
    fn incremental_equals_oneshot_across_split_points() {
        let data: Vec<u8> = (0..=255u8).cycle().take(1000).collect();
        for (name, compress) in paths() {
            let want = hash(compress, &[&data]);
            for split in [0, 1, 55, 56, 63, 64, 65, 127, 500, 999, 1000] {
                let got = hash(compress, &[&data[..split], &data[split..]]);
                assert_eq!(got, want, "{name}: split at {split}");
            }
        }
    }

    /// Scalar and accelerated agree on every length across the padding
    /// boundaries of the first seventeen blocks, and on random lengths up
    /// to 64 KiB fed through random `update` split points.
    #[test]
    fn scalar_and_accelerated_agree() {
        let paths = paths();
        let mut rng = StdRng::seed_from_u64(0x5a256);
        let data: Vec<u8> = (0..64 * 1024).map(|_| rng.gen::<u8>()).collect();
        for len in 0..=1100 {
            let want = hash(scalar, &[&data[..len]]);
            for (name, compress) in &paths {
                assert_eq!(hash(*compress, &[&data[..len]]), want, "{name}: len {len}");
            }
        }
        for _ in 0..64 {
            let len = rng.gen_range(0..data.len() + 1);
            let mut cuts: Vec<usize> = (0..rng.gen_range(0..8usize))
                .map(|_| rng.gen_range(0..len + 1))
                .collect();
            cuts.sort_unstable();
            let mut parts = Vec::new();
            let mut at = 0;
            for &cut in cuts.iter().chain([&len]) {
                parts.push(&data[at..cut]);
                at = cut;
            }
            let want = hash(scalar, &[&data[..len]]);
            for (name, compress) in &paths {
                assert_eq!(
                    hash(*compress, &parts),
                    want,
                    "{name}: len {len} cut at {cuts:?}"
                );
            }
        }
    }

    /// A dispatcher that runs scalar on a CPU with the SHA extensions
    /// passes every other test while losing the speed it exists for.
    #[test]
    fn dispatcher_takes_the_accelerated_path_when_the_cpu_has_it() {
        let mut state = H0;
        let took = compress_blocks(&mut state, &[0u8; 64]);
        eprintln!(
            "compress path on this host: {}",
            if took { "sha_ni" } else { "scalar" }
        );
        assert_eq!(took, cpu_has_sha_ni());
    }

    #[test]
    fn distinct_inputs_distinct_digests() {
        assert_ne!(Sha256::digest(b"peepul"), Sha256::digest(b"quark"));
    }
}
