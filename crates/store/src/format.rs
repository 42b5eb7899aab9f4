//! Byte-level primitives of the store format: a little-endian writer and a
//! bounds-checked reader over a borrowed payload.
//!
//! Every read validates the remaining length *before* touching (or
//! allocating for) the data, so a truncated or count-inflated file fails
//! with [`StoreError::Truncated`] instead of panicking or ballooning memory
//! on a crafted length field.

use crate::StoreError;

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
        assert_eq!(decode_words(r2.take(12).unwrap()), vec![1, u32::MAX, 0]);
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
        // A length claiming a terabyte must fail the length check, not
        // attempt the allocation.
        let mut w = Writer::new();
        w.u64(1 << 40);
        let mut r = Reader::new(w.as_bytes());
        assert!(matches!(r.string(), Err(StoreError::Truncated { .. })));
    }
}
