//! Byte-level primitives of the store format: a little-endian writer and a
//! bounds-checked reader over a borrowed payload.
//!
//! Every read validates the remaining length *before* touching (or
//! allocating for) the data, so a truncated or count-inflated file fails
//! with [`StoreError::Truncated`] instead of panicking or ballooning memory
//! on a crafted length field.

use crate::StoreError;
use triejax_relation::Relation;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// Continues a byte-serial 64-bit FNV-1a hash from state `h` over `bytes`.
fn fnv1a64_from(mut h: u64, bytes: &[u8]) -> u64 {
    const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// 64-bit FNV-1a over a byte slice — the checksum of format versions 1
/// and 2, kept to read those files.
pub(crate) fn fnv1a64(bytes: &[u8]) -> u64 {
    fnv1a64_from(FNV_OFFSET, bytes)
}

/// The relation fingerprint of format versions 1 and 2: FNV-1a over the
/// arity as a little-endian `u64`, then every value as a little-endian
/// `u32`. Kept to re-key the tries of those files.
pub(crate) fn legacy_fingerprint(relation: &Relation) -> u64 {
    let arity = fnv1a64_from(FNV_OFFSET, &(relation.arity() as u64).to_le_bytes());
    relation
        .values()
        .iter()
        .fold(arity, |h, v| fnv1a64_from(h, &v.to_le_bytes()))
}

/// Append-only little-endian payload writer.
#[derive(Debug, Default)]
pub(crate) struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    pub(crate) fn new() -> Self {
        Writer::default()
    }

    pub(crate) fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub(crate) fn bytes(&mut self, v: &[u8]) {
        self.buf.extend_from_slice(v);
    }

    /// Writes a length-prefixed UTF-8 string.
    pub(crate) fn string(&mut self, v: &str) {
        self.u64(v.len() as u64);
        self.bytes(v.as_bytes());
    }

    /// Writes a `u32` array as raw little-endian words (no length prefix).
    pub(crate) fn words(&mut self, v: &[u32]) {
        self.buf.reserve(4 * v.len());
        for &w in v {
            self.buf.extend_from_slice(&w.to_le_bytes());
        }
    }

    /// Bytes written so far.
    pub(crate) fn len(&self) -> usize {
        self.buf.len()
    }

    pub(crate) fn as_bytes(&self) -> &[u8] {
        &self.buf
    }

    pub(crate) fn into_bytes(self) -> Vec<u8> {
        self.buf
    }
}

/// Bounds-checked little-endian reader over a borrowed payload.
#[derive(Debug)]
pub(crate) struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    pub(crate) fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }

    pub(crate) fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    pub(crate) fn is_exhausted(&self) -> bool {
        self.pos == self.buf.len()
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], StoreError> {
        if self.remaining() < n {
            return Err(StoreError::Truncated {
                needed: n,
                available: self.remaining(),
            });
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    pub(crate) fn u64(&mut self) -> Result<u64, StoreError> {
        let s = self.take(8)?;
        Ok(u64::from_le_bytes(s.try_into().expect("8-byte slice")))
    }

    pub(crate) fn u32(&mut self) -> Result<u32, StoreError> {
        let s = self.take(4)?;
        Ok(u32::from_le_bytes(s.try_into().expect("4-byte slice")))
    }

    /// Reads a `u64` that will be used as an in-memory count or index,
    /// rejecting values that cannot fit a `usize`.
    pub(crate) fn count(&mut self) -> Result<usize, StoreError> {
        let v = self.u64()?;
        usize::try_from(v).map_err(|_| StoreError::Malformed {
            detail: format!("count {v} exceeds the address space"),
        })
    }

    /// Reads a length-prefixed UTF-8 string.
    pub(crate) fn string(&mut self) -> Result<String, StoreError> {
        let len = self.count()?;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| StoreError::Malformed {
            detail: "name is not valid UTF-8".into(),
        })
    }

    /// Reads `n` raw little-endian `u32` words. The byte length is checked
    /// (with overflow-safe arithmetic) before the vector is allocated, so an
    /// inflated count cannot trigger an outsized allocation.
    pub(crate) fn words(&mut self, n: usize) -> Result<Vec<u32>, StoreError> {
        let nbytes = n.checked_mul(4).ok_or(StoreError::Truncated {
            needed: usize::MAX,
            available: self.remaining(),
        })?;
        Ok(decode_words(self.take(nbytes)?))
    }
}

/// The little-endian `u32` words of `bytes` (a trailing partial word is
/// ignored; callers check the length).
pub(crate) fn decode_words(bytes: &[u8]) -> Vec<u32> {
    bytes
        .chunks_exact(4)
        .map(|c| u32::from_le_bytes(c.try_into().expect("4-byte chunk")))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_primitives() {
        let mut w = Writer::new();
        w.u64(42);
        w.u64(7);
        w.bytes(b"abc");
        w.words(&[1, u32::MAX, 0]);
        let bytes = w.into_bytes();

        let mut r = Reader::new(&bytes);
        assert_eq!(r.u64().unwrap(), 42);
        assert_eq!(r.count().unwrap(), 7);
        let mut r2 = Reader::new(&bytes[16..]);
        assert_eq!(&bytes[16..19], b"abc");
        r2.take(3).unwrap();
        assert_eq!(r2.words(3).unwrap(), vec![1, u32::MAX, 0]);
        assert!(r2.is_exhausted());
    }

    #[test]
    fn truncated_reads_fail_without_allocating() {
        let mut r = Reader::new(&[1, 2, 3]);
        assert!(matches!(
            r.u64(),
            Err(StoreError::Truncated {
                needed: 8,
                available: 3
            })
        ));
        // A count claiming billions of words must fail the length check,
        // not attempt the allocation.
        let mut r = Reader::new(&[0; 8]);
        assert!(matches!(
            r.words(1 << 40),
            Err(StoreError::Truncated { .. })
        ));
    }

    #[test]
    fn legacy_fingerprint_is_byte_fnv_over_arity_and_rows() {
        // The value earlier builds pinned for this relation.
        let rel = Relation::from_pairs(vec![(1, 2), (3, 4)]);
        assert_eq!(legacy_fingerprint(&rel), 8_260_193_526_488_586_819);
    }

    #[test]
    fn fnv_matches_reference_vectors() {
        // Published FNV-1a test vectors.
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x85944171f73967e8);
    }
}
