use std::error::Error;
use std::fmt;
use std::sync::Arc;

/// Errors produced while reading or writing a stored catalog.
///
/// Every way a store file can be wrong maps to a distinct variant so
/// operators can tell a half-written file ([`StoreError::Truncated`]) from
/// bit rot ([`StoreError::ChecksumMismatch`]) from a version skew
/// ([`StoreError::UnsupportedVersion`]) from an attack on the offset table
/// ([`StoreError::OversizeOffset`]). Corrupt input is always rejected with
/// one of these — never a panic, never a silently-garbage catalog.
///
/// Errors clone and compare, so a stored trie that fails its first-touch
/// check can hand the same error to every later query.
#[derive(Debug, Clone)]
#[non_exhaustive]
pub enum StoreError {
    /// The underlying file could not be read or written.
    Io(Arc<std::io::Error>),
    /// The buffer ended before a declared field or array was complete.
    Truncated {
        /// Bytes the next field required.
        needed: usize,
        /// Bytes actually remaining.
        available: usize,
    },
    /// The file does not start with the `TJXSTORE` magic bytes.
    BadMagic,
    /// The file declares a format version this build cannot read.
    UnsupportedVersion {
        /// Version found in the header.
        found: u32,
        /// The one version this build reads.
        supported: u32,
    },
    /// The hash of a checked section — the directory or one entry's body —
    /// does not match the checksum recorded for it.
    ChecksumMismatch {
        /// Checksum recorded in the file.
        expected: u64,
        /// Checksum recomputed over the section.
        found: u64,
    },
    /// A stored trie's child-range table points outside its level arrays.
    OversizeOffset {
        /// Trie level whose child-range array is inconsistent.
        level: usize,
        /// Index of the offending entry.
        index: usize,
        /// The offending offset value.
        offset: u32,
        /// The maximum admissible offset.
        limit: usize,
    },
    /// The payload is structurally inconsistent in some other way
    /// (non-UTF-8 name, row buffer not divisible by arity, level-count
    /// mismatch, ...).
    Malformed {
        /// Human-readable description of the inconsistency.
        detail: String,
    },
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::Io(e) => write!(f, "store i/o error: {e}"),
            StoreError::Truncated { needed, available } => write!(
                f,
                "store file truncated: next field needs {needed} bytes, {available} remain"
            ),
            StoreError::BadMagic => write!(f, "not a TrieJax store file (bad magic)"),
            StoreError::UnsupportedVersion { found, supported } => write!(
                f,
                "store format version {found} is not supported (this build reads only \
                 version {supported})"
            ),
            StoreError::ChecksumMismatch { expected, found } => write!(
                f,
                "store checksum {found:#018x} does not match the recorded {expected:#018x}"
            ),
            StoreError::OversizeOffset {
                level,
                index,
                offset,
                limit,
            } => write!(
                f,
                "stored trie level {level} child-range entry {index} is {offset}, \
                 outside 0..={limit}"
            ),
            StoreError::Malformed { detail } => write!(f, "malformed store payload: {detail}"),
        }
    }
}

// Every variant displays every field it holds, so two errors of one
// variant are equal exactly when they display alike.
impl PartialEq for StoreError {
    fn eq(&self, other: &Self) -> bool {
        std::mem::discriminant(self) == std::mem::discriminant(other)
            && self.to_string() == other.to_string()
    }
}

impl Eq for StoreError {}

impl Error for StoreError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            StoreError::Io(e) => Some(&**e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for StoreError {
    fn from(e: std::io::Error) -> Self {
        StoreError::Io(Arc::new(e))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_distinguishes_every_variant() {
        let msgs = [
            StoreError::Truncated {
                needed: 8,
                available: 3,
            }
            .to_string(),
            StoreError::BadMagic.to_string(),
            StoreError::UnsupportedVersion {
                found: 9,
                supported: 1,
            }
            .to_string(),
            StoreError::ChecksumMismatch {
                expected: 1,
                found: 2,
            }
            .to_string(),
            StoreError::OversizeOffset {
                level: 0,
                index: 4,
                offset: 99,
                limit: 5,
            }
            .to_string(),
            StoreError::Malformed { detail: "x".into() }.to_string(),
        ];
        for (i, a) in msgs.iter().enumerate() {
            for b in msgs.iter().skip(i + 1) {
                assert_ne!(a, b);
            }
        }
    }

    #[test]
    fn errors_clone_and_compare() {
        let io = StoreError::from(std::io::Error::other("disk"));
        assert_eq!(io.clone(), io);
        assert_ne!(io, StoreError::BadMagic);
        let bad = StoreError::Malformed { detail: "x".into() };
        assert_eq!(bad.clone(), bad);
        assert_ne!(bad, StoreError::Malformed { detail: "y".into() });
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<StoreError>();
    }
}
