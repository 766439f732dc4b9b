//! SHA-1 implemented from FIPS 180-4.
//!
//! SHA-1 produces exactly the 20-byte digests the paper's experiments assume
//! ("A digest consumes 20 bytes for both SAE and TOM"). The implementation is
//! a streaming Merkle–Damgård construction; it is *not* intended to resist
//! modern collision attacks, but it plays the same structural role (one-way,
//! collision-resistant in the paper's threat model).
//!
//! Structure of the compression function:
//! - 64-byte blocks are compressed straight from the input slice; only a
//!   partial block left over between `update` calls is buffered;
//! - the 80 rounds are written out as four 20-round stages (Ch, Parity, Maj,
//!   Parity) of a `round!` macro that renames the working registers instead
//!   of shifting `a..e` every round;
//! - the message schedule is a rolling 16-word window, each word expanded
//!   in place just before the round that consumes it;
//! - finalization writes the padding and bit length as one (or, when the
//!   tail leaves fewer than 9 free bytes, two) whole blocks.

use crate::digest::{Digest, DIGEST_LEN};

const BLOCK_LEN: usize = 64;
const H0: [u32; 5] = [0x67452301, 0xEFCDAB89, 0x98BADCFE, 0x10325476, 0xC3D2E1F0];
const K: [u32; 4] = [0x5A827999, 0x6ED9EBA1, 0x8F1BBCDC, 0xCA62C1D6];

/// Incremental SHA-1 hasher.
#[derive(Clone)]
pub struct Sha1 {
    state: [u32; 5],
    buffer: [u8; BLOCK_LEN],
    buffer_len: usize,
    total_len: u64,
}

impl Default for Sha1 {
    fn default() -> Self {
        Self::new()
    }
}

impl Sha1 {
    /// Creates a fresh hasher.
    pub fn new() -> Self {
        Sha1 {
            state: H0,
            buffer: [0u8; BLOCK_LEN],
            buffer_len: 0,
            total_len: 0,
        }
    }

    /// Absorbs `data` into the hash state.
    pub fn update(&mut self, data: &[u8]) {
        self.total_len = self.total_len.wrapping_add(data.len() as u64);
        let mut input = data;

        if self.buffer_len > 0 {
            let take = (BLOCK_LEN - self.buffer_len).min(input.len());
            self.buffer[self.buffer_len..self.buffer_len + take].copy_from_slice(&input[..take]);
            self.buffer_len += take;
            input = &input[take..];
            if self.buffer_len < BLOCK_LEN {
                return;
            }
            compress(&mut self.state, std::slice::from_ref(&self.buffer));
            self.buffer_len = 0;
        }

        let (blocks, rest) = input.as_chunks::<BLOCK_LEN>();
        compress(&mut self.state, blocks);
        self.buffer[..rest.len()].copy_from_slice(rest);
        self.buffer_len = rest.len();
    }

    /// Finalizes the hash and returns the 20-byte digest.
    pub fn finalize(mut self) -> Digest {
        let bit_len = self.total_len.wrapping_mul(8);
        // The buffered tail, 0x80, zero padding, then the 64-bit big-endian
        // bit length, ending on a block boundary: one block when the tail
        // leaves room for the 9 trailer bytes, otherwise two.
        let n = self.buffer_len;
        let mut tail = [[0u8; BLOCK_LEN]; 2];
        let blocks = if n + 9 <= BLOCK_LEN { 1 } else { 2 };
        let flat = tail.as_flattened_mut();
        flat[..n].copy_from_slice(&self.buffer[..n]);
        flat[n] = 0x80;
        let end = blocks * BLOCK_LEN;
        flat[end - 8..end].copy_from_slice(&bit_len.to_be_bytes());
        compress(&mut self.state, &tail[..blocks]);

        let mut out = [0u8; DIGEST_LEN];
        for (chunk, word) in out.chunks_exact_mut(4).zip(self.state) {
            chunk.copy_from_slice(&word.to_be_bytes());
        }
        Digest::new(out)
    }

    /// One-shot convenience: hash `data` and return the digest.
    pub fn digest(data: &[u8]) -> Digest {
        let mut h = Sha1::new();
        h.update(data);
        h.finalize()
    }
}

#[inline(always)]
fn ch(b: u32, c: u32, d: u32) -> u32 {
    d ^ (b & (c ^ d))
}

#[inline(always)]
fn parity(b: u32, c: u32, d: u32) -> u32 {
    b ^ c ^ d
}

#[inline(always)]
fn maj(b: u32, c: u32, d: u32) -> u32 {
    (b & c) | (d & (b | c))
}

/// Runs the SHA-1 compression function over each block in turn.
// The words expanded for rounds 77–79 are stored back into the window like
// every other, and never read again.
#[allow(unused_assignments)]
fn compress(state: &mut [u32; 5], blocks: &[[u8; BLOCK_LEN]]) {
    for block in blocks {
        let mut w = [0u32; 16];
        for (word, bytes) in w.iter_mut().zip(block.as_chunks::<4>().0) {
            *word = u32::from_be_bytes(*bytes);
        }
        let [mut a, mut b, mut c, mut d, mut e] = *state;

        // Schedule word `t`: rounds 0..16 read the block; later rounds
        // expand the rolling window in place. `t` is always a literal, so
        // the branch and the indices fold away.
        macro_rules! w {
            ($t:expr) => {
                if $t < 16 {
                    w[$t & 15]
                } else {
                    let x = (w[($t + 13) & 15] ^ w[($t + 8) & 15] ^ w[($t + 2) & 15] ^ w[$t & 15])
                        .rotate_left(1);
                    w[$t & 15] = x;
                    x
                }
            };
        }
        // One round. The caller rotates the register names, so the new `a`
        // lands in the old `e` and no register is moved.
        macro_rules! round {
            ($a:ident, $b:ident, $c:ident, $d:ident, $e:ident, $f:ident, $k:expr, $t:expr) => {
                $e = $e
                    .wrapping_add($k)
                    .wrapping_add(w!($t))
                    .wrapping_add($f($b, $c, $d))
                    .wrapping_add($a.rotate_left(5));
                $b = $b.rotate_left(30);
            };
        }
        // Five rounds bring the register names back to where they started.
        macro_rules! five {
            ($f:ident, $k:expr, $t:expr) => {
                round!(a, b, c, d, e, $f, $k, $t);
                round!(e, a, b, c, d, $f, $k, $t + 1);
                round!(d, e, a, b, c, $f, $k, $t + 2);
                round!(c, d, e, a, b, $f, $k, $t + 3);
                round!(b, c, d, e, a, $f, $k, $t + 4);
            };
        }

        five!(ch, K[0], 0);
        five!(ch, K[0], 5);
        five!(ch, K[0], 10);
        five!(ch, K[0], 15);
        five!(parity, K[1], 20);
        five!(parity, K[1], 25);
        five!(parity, K[1], 30);
        five!(parity, K[1], 35);
        five!(maj, K[2], 40);
        five!(maj, K[2], 45);
        five!(maj, K[2], 50);
        five!(maj, K[2], 55);
        five!(parity, K[3], 60);
        five!(parity, K[3], 65);
        five!(parity, K[3], 70);
        five!(parity, K[3], 75);

        for (s, v) in state.iter_mut().zip([a, b, c, d, e]) {
            *s = s.wrapping_add(v);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hex(data: &[u8]) -> String {
        Sha1::digest(data).to_hex()
    }

    #[test]
    fn empty_string() {
        assert_eq!(hex(b""), "da39a3ee5e6b4b0d3255bfef95601890afd80709");
    }

    #[test]
    fn abc() {
        assert_eq!(hex(b"abc"), "a9993e364706816aba3e25717850c26c9cd0d89d");
    }

    #[test]
    fn two_block_message() {
        assert_eq!(
            hex(b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"),
            "84983e441c3bd26ebaae4aa1f95129e5e54670f1"
        );
    }

    #[test]
    fn quick_brown_fox() {
        assert_eq!(
            hex(b"The quick brown fox jumps over the lazy dog"),
            "2fd4e1c67a2d28fced849ee1bb76e7391b93eb12"
        );
    }

    #[test]
    fn million_a() {
        let data = vec![b'a'; 1_000_000];
        assert_eq!(hex(&data), "34aa973cd4c4daa4f61eeb2bdbad27316534016f");
    }

    #[test]
    fn streaming_matches_one_shot() {
        for len in [0usize, 1, 55, 56, 63, 64, 65, 119, 120, 128, 500, 4_000] {
            let data = pattern(len);
            let one_shot = Sha1::digest(&data);
            assert_eq!(one_shot, reference_digest(&data), "len {len}");
            for chunk_size in [1usize, 3, 17, 63, 64, 65, 200] {
                let mut h = Sha1::new();
                for chunk in data.chunks(chunk_size) {
                    h.update(chunk);
                }
                assert_eq!(h.finalize(), one_shot, "len {len}, chunk size {chunk_size}");
            }
        }
    }

    #[test]
    fn boundary_lengths_are_consistent() {
        // Exercise all padding branches: lengths around the 56/64-byte
        // boundaries must produce distinct, deterministic digests.
        let mut seen = std::collections::HashSet::new();
        for len in 50..=70usize {
            let data = vec![0x42u8; len];
            let d1 = Sha1::digest(&data);
            let d2 = Sha1::digest(&data);
            assert_eq!(d1, d2);
            assert!(seen.insert(d1), "collision for length {len}");
        }
    }

    /// The single-block compression function the unrolled one replaced:
    /// an 80-word schedule and a `match` on the round number in every
    /// round. Kept as the oracle for the differential tests below.
    fn compress_reference(state: &mut [u32; 5], block: &[u8; BLOCK_LEN]) {
        let mut w = [0u32; 80];
        for (i, chunk) in block.chunks_exact(4).enumerate() {
            w[i] = u32::from_be_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]);
        }
        for i in 16..80 {
            w[i] = (w[i - 3] ^ w[i - 8] ^ w[i - 14] ^ w[i - 16]).rotate_left(1);
        }

        let [mut a, mut b, mut c, mut d, mut e] = *state;

        for (i, &wi) in w.iter().enumerate() {
            let (f, k) = match i {
                0..=19 => ((b & c) | ((!b) & d), 0x5A827999u32),
                20..=39 => (b ^ c ^ d, 0x6ED9EBA1),
                40..=59 => ((b & c) | (b & d) | (c & d), 0x8F1BBCDC),
                _ => (b ^ c ^ d, 0xCA62C1D6),
            };
            let temp = a
                .rotate_left(5)
                .wrapping_add(f)
                .wrapping_add(e)
                .wrapping_add(k)
                .wrapping_add(wi);
            e = d;
            d = c;
            c = b.rotate_left(30);
            b = a;
            a = temp;
        }

        state[0] = state[0].wrapping_add(a);
        state[1] = state[1].wrapping_add(b);
        state[2] = state[2].wrapping_add(c);
        state[3] = state[3].wrapping_add(d);
        state[4] = state[4].wrapping_add(e);
    }

    /// SHA-1 the way the replaced code did it: pad byte by byte, then run
    /// [`compress_reference`] over each 64-byte block.
    fn reference_digest(data: &[u8]) -> Digest {
        let mut message = data.to_vec();
        message.push(0x80);
        while message.len() % BLOCK_LEN != 56 {
            message.push(0);
        }
        message.extend_from_slice(&(data.len() as u64).wrapping_mul(8).to_be_bytes());
        let mut state = H0;
        for block in message.chunks_exact(BLOCK_LEN) {
            let mut b = [0u8; BLOCK_LEN];
            b.copy_from_slice(block);
            compress_reference(&mut state, &b);
        }
        let mut out = [0u8; DIGEST_LEN];
        for (chunk, word) in out.chunks_exact_mut(4).zip(state) {
            chunk.copy_from_slice(&word.to_be_bytes());
        }
        Digest::new(out)
    }

    fn pattern(len: usize) -> Vec<u8> {
        (0..len as u32)
            .map(|i| (i.wrapping_mul(2_654_435_761) >> 11) as u8)
            .collect()
    }

    #[test]
    fn matches_the_reference_compression_at_every_short_length() {
        for len in 0..=300 {
            let data = pattern(len);
            assert_eq!(Sha1::digest(&data), reference_digest(&data), "len {len}");
        }
    }

    #[test]
    fn different_inputs_give_different_digests() {
        assert_ne!(Sha1::digest(b"record-1"), Sha1::digest(b"record-2"));
    }
}
