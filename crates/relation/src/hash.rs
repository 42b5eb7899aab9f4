//! The lane hash: one platform-stable 64-bit hash for everything that is
//! persisted or compared across processes — [`Relation::fingerprint`]
//! (arity plus rows) and the store's checksums.
//!
//! The input is read as little-endian `u64` words, dealt round-robin to
//! four independent lanes. Each lane folds its words as FNV-1a does bytes —
//! xor the word in, multiply by the FNV prime — and then rotates, so high
//! bits feed the low bits of the next multiply. The four multiply chains do
//! not depend on each other, so a core keeps all four in flight and the
//! hash runs at about a word per cycle instead of FNV-1a's byte per four.
//! A tail fold takes the lanes, the last `< 32` bytes (zero-padded to whole
//! words) and the byte length, and a final avalanche spreads the result.
//!
//! Every step is a bijection of the state for a fixed word and of the word
//! for a fixed state, so inputs of equal length that differ in exactly one
//! word — for example by one flipped bit — always hash differently. The
//! hash guards against bit rot and keys caches; it is not meant to resist
//! an adversary.
//!
//! [`Relation::fingerprint`]: crate::Relation::fingerprint

use crate::Value;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
/// Bytes per block: one little-endian word for each of the four lanes.
const BLOCK_BYTES: usize = 32;

/// One lane step: xor the word in, multiply by the FNV prime, rotate.
#[inline(always)]
fn step(h: u64, word: u64) -> u64 {
    (h ^ word).wrapping_mul(FNV_PRIME).rotate_left(29)
}

/// The four lanes' starting states: distinct, so words that trade lanes
/// do not trade places in the result.
fn lanes(seed: u64) -> [u64; 4] {
    std::array::from_fn(|i| {
        (FNV_OFFSET ^ seed).wrapping_add((i as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15))
    })
}

/// Folds the lanes, the tail words and the byte length into one state,
/// then avalanches it (the 64-bit finalizer of MurmurHash3).
fn finish(seed: u64, lanes: [u64; 4], tail: impl Iterator<Item = u64>, len: usize) -> u64 {
    let mut h = FNV_OFFSET ^ seed;
    for l in lanes {
        h = step(h, l);
    }
    for w in tail {
        h = step(h, w);
    }
    h = step(h, len as u64);
    h ^= h >> 33;
    h = h.wrapping_mul(0xff51_afd7_ed55_8ccd);
    h ^= h >> 33;
    h = h.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
    h ^ (h >> 33)
}

/// The lane hash of `bytes` — the store's checksum of a section.
///
/// # Example
///
/// ```
/// use triejax_relation::lane_hash;
///
/// let a = lane_hash(b"an edge list");
/// assert_eq!(a, lane_hash(b"an edge list"));
/// assert_ne!(a, lane_hash(b"an edge lisu"));
/// ```
pub fn lane_hash(bytes: &[u8]) -> u64 {
    hash_bytes(0, bytes)
}

/// The lane hash of `bytes` under `seed`.
fn hash_bytes(seed: u64, bytes: &[u8]) -> u64 {
    let word = |c: &[u8]| {
        let mut w = [0u8; 8];
        w[..c.len()].copy_from_slice(c);
        u64::from_le_bytes(w)
    };
    let mut h = lanes(seed);
    let mut blocks = bytes.chunks_exact(BLOCK_BYTES);
    for block in &mut blocks {
        for (l, w) in h.iter_mut().zip(block.chunks_exact(8)) {
            *l = step(*l, word(w));
        }
    }
    finish(seed, h, blocks.remainder().chunks(8).map(word), bytes.len())
}

/// The lane hash, under `seed`, of the little-endian bytes of `values` —
/// equal to hashing those bytes, without materializing them.
pub(crate) fn hash_values(seed: u64, values: &[Value]) -> u64 {
    // Two values make one little-endian word, low value first.
    let word = |p: &[Value]| u64::from(p[0]) | p.get(1).map_or(0, |&v| u64::from(v) << 32);
    let mut h = lanes(seed);
    let mut blocks = values.chunks_exact(BLOCK_BYTES / 4);
    for block in &mut blocks {
        for (l, p) in h.iter_mut().zip(block.chunks_exact(2)) {
            *l = step(*l, word(p));
        }
    }
    let len = std::mem::size_of_val(values);
    finish(seed, h, blocks.remainder().chunks(2).map(word), len)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn golden_values() {
        // Golden values: the store checksum and every persisted fingerprint
        // depend on this hash never changing. If this test fails, the store
        // format version must bump.
        assert_eq!(lane_hash(b""), 0x7950_8805_958e_a4c5);
        assert_eq!(lane_hash(b"a"), 0xafe2_cb84_5115_6445);
        assert_eq!(
            lane_hash(b"the quick brown fox jumps over the lazy dog"),
            0x43e2_8a6e_b2a1_d6fd
        );
    }

    #[test]
    fn values_hash_like_their_little_endian_bytes() {
        let values: Vec<Value> = (0..40u32).map(|i| i.wrapping_mul(0x9e37_79b9)).collect();
        for n in 0..values.len() {
            let bytes: Vec<u8> = values[..n].iter().flat_map(|v| v.to_le_bytes()).collect();
            for seed in [0, 2, u64::MAX] {
                assert_eq!(
                    hash_values(seed, &values[..n]),
                    hash_bytes(seed, &bytes),
                    "{n} values, seed {seed}"
                );
            }
        }
    }

    #[test]
    fn every_single_bit_flip_changes_the_hash() {
        let bytes: Vec<u8> = (0..75u32).map(|i| (i * 37 % 251) as u8).collect();
        let base = lane_hash(&bytes);
        for bit in 0..bytes.len() * 8 {
            let mut flipped = bytes.clone();
            flipped[bit / 8] ^= 1 << (bit % 8);
            assert_ne!(lane_hash(&flipped), base, "bit {bit}");
        }
    }

    #[test]
    fn length_and_seed_participate() {
        // Zero padding of the tail is told apart by the length.
        assert_ne!(lane_hash(b""), lane_hash(&[0]));
        assert_ne!(lane_hash(&[0; 7]), lane_hash(&[0; 8]));
        assert_ne!(lane_hash(&[0; 32]), lane_hash(&[0; 40]));
        assert_ne!(hash_values(1, &[1, 2]), hash_values(2, &[1, 2]));
        // The top bit of a word reaches the rest of the state: flipping it
        // in two words of one lane does not cancel.
        let mut twice = [0u8; 64];
        twice[7] = 0x80;
        twice[39] = 0x80;
        assert_ne!(lane_hash(&twice), lane_hash(&[0; 64]));
    }
}
