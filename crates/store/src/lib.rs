//! Persistent, relocatable catalog of relations and pre-built tries.
//!
//! TrieJax's premise is "build the trie index once, then let the hardware
//! rip through joins" — this crate makes the *once* literal across process
//! boundaries. A [`StoredCatalog`] serializes base relations together with
//! their built [`Trie`] indexes into a single versioned, checksummed file.
//! A cold process calls [`StoredCatalog::open`] and can serve queries in
//! O(bytes-read) with **zero** trie builds: each stored trie is keyed by the
//! same `(name, content fingerprint, permutation)` scheme the in-process
//! trie cache uses, so after the underlying data changes, stale entries are
//! simply unreachable — there is no invalidation protocol.
//!
//! Relocation is what makes this cheap: a [`Trie`] is one contiguous `u32`
//! buffer plus a per-level offset table ([`Trie::words`] /
//! [`Trie::level_dims`]), so saving is a buffer copy and opening is a
//! validated buffer adoption ([`Trie::from_parts`]) — no pointer fix-ups,
//! no rebuild.
//!
//! # File format (version 3)
//!
//! All integers little-endian.
//!
//! ```text
//! magic        8 bytes   "TJXSTORE"
//! version      u32       3
//! payload_len  u64
//! checksum     u64       lane hash over the payload bytes
//! payload:
//!   rel_count  u64
//!   per relation:
//!     name_len u64, name (UTF-8), arity u64, word_count u64, words u32[]
//!   trie_count u64
//!   per trie:
//!     name_len u64, name (UTF-8), fingerprint u64,
//!     perm_len u64, perm u64[], tuple_count u64,
//!     level_count u64, (values_len u64, child_len u64) per level,
//!     word_count u64, words u32[]
//!   delta_count u64
//!   per delta:
//!     name_len u64, name (UTF-8), arity u64,
//!     insert_word_count u64, words u32[],
//!     tombstone_word_count u64, words u32[]
//! ```
//!
//! The checksum and every trie's fingerprint ([`Relation::fingerprint`])
//! are the [`lane_hash`]: four independent FNV-style multiply chains over
//! little-endian words, so validating a file costs about a pass over its
//! bytes. The delta section carries the pending [`RelationDelta`]s of a
//! mutable session (`triejax-join`'s `Session::apply`), so a snapshot taken
//! mid-mutation round-trips exactly; a frozen catalog writes
//! `delta_count = 0`.
//!
//! # Older versions
//!
//! Versions 1 and 2 still open. They share version 3's layout, except that
//! version 1 has no delta section, and they hash with byte-serial FNV-1a
//! instead: the checksum over the payload, and the fingerprint over the
//! arity (as a `u64`) and the row words. The reader verifies their
//! checksum with FNV-1a and re-keys their tries: a stored trie whose
//! fingerprint equals the FNV-1a fingerprint of the relation of the same
//! name in the file is re-filed under that relation's current
//! fingerprint, so it keeps serving with zero builds. Any other key was
//! already stale when the file was saved and stays unreachable. Only old
//! files pay the byte-serial hashing.
//!
//! # Validation
//!
//! Every length is validated against the remaining bytes before any
//! allocation, every trie's offset table is structurally validated by
//! [`Trie::from_parts`] and its permutation checked against its depth,
//! and every delta's insert/tombstone sets are checked for equal arity and
//! disjointness at parse time; corrupt input yields a typed
//! [`StoreError`], never a panic or a silently-wrong catalog. Row buffers
//! are adopted as read ([`Relation::from_values`]): one strict-ascending
//! check, and a sort only for a file whose rows are out of order.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod error;
mod format;

pub use error::StoreError;

use format::{fnv1a64, legacy_fingerprint, Reader, Writer};
use std::path::Path;
use std::sync::Arc;
use triejax_relation::{delta, lane_hash, Relation, RelationDelta, Trie, TrieLayoutError};

/// The magic bytes opening every store file.
const MAGIC: &[u8; 8] = b"TJXSTORE";

/// The store format version this build writes. Versions 1 and 2 are still
/// read (see the crate docs).
pub const FORMAT_VERSION: u32 = 3;

/// The oldest store format version this build reads.
const MIN_FORMAT_VERSION: u32 = 1;

/// One pre-built trie in a stored catalog, addressed by the same
/// `(name, fingerprint, perm)` triple the in-process trie cache uses.
#[derive(Debug, Clone)]
pub struct StoredTrie {
    /// Name of the relation the trie indexes.
    pub name: String,
    /// Content fingerprint of the relation *at build time*
    /// ([`Relation::fingerprint`]). If the relation changes, lookups
    /// compute a different fingerprint and this entry is never found.
    pub fingerprint: u64,
    /// The attribute permutation the trie was built under.
    pub perm: Vec<usize>,
    /// The trie itself, shared so openers can hand it straight to a cache.
    pub trie: Arc<Trie>,
}

/// A serializable catalog: named base relations plus the tries built over
/// them.
///
/// # Example
///
/// ```no_run
/// use std::sync::Arc;
/// use triejax_relation::{Relation, Trie};
/// use triejax_store::StoredCatalog;
///
/// let edges = Relation::from_pairs(vec![(1, 2), (2, 3), (3, 1)]);
/// let trie = Arc::new(Trie::build(&edges));
/// let mut cat = StoredCatalog::new();
/// cat.insert_trie("edge", edges.fingerprint(), vec![0, 1], trie);
/// cat.insert_relation("edge", edges);
/// cat.save("graph.tjx")?;
///
/// // ... later, in a cold process:
/// let reopened = StoredCatalog::open("graph.tjx")?;
/// assert_eq!(reopened.tries().len(), 1); // zero Trie::build calls
/// # Ok::<(), triejax_store::StoreError>(())
/// ```
#[derive(Debug, Clone, Default)]
pub struct StoredCatalog {
    relations: Vec<(String, Relation)>,
    tries: Vec<StoredTrie>,
    deltas: Vec<(String, RelationDelta)>,
}

impl StoredCatalog {
    /// Creates an empty catalog.
    pub fn new() -> Self {
        StoredCatalog::default()
    }

    /// Adds a named base relation.
    pub fn insert_relation(&mut self, name: impl Into<String>, relation: Relation) {
        self.relations.push((name.into(), relation));
    }

    /// Adds a pre-built trie under its cache key.
    pub fn insert_trie(
        &mut self,
        name: impl Into<String>,
        fingerprint: u64,
        perm: Vec<usize>,
        trie: Arc<Trie>,
    ) {
        self.tries.push(StoredTrie {
            name: name.into(),
            fingerprint,
            perm,
            trie,
        });
    }

    /// The stored relations, in insertion order.
    pub fn relations(&self) -> &[(String, Relation)] {
        &self.relations
    }

    /// The stored tries, in insertion order.
    pub fn tries(&self) -> &[StoredTrie] {
        &self.tries
    }

    /// Adds a named pending [`RelationDelta`] (a mutable session's
    /// uncompacted inserts and tombstones over the relation of the same
    /// name).
    pub fn insert_delta(&mut self, name: impl Into<String>, delta: RelationDelta) {
        self.deltas.push((name.into(), delta));
    }

    /// The stored pending deltas, in insertion order (empty for every
    /// version-1 file).
    pub fn deltas(&self) -> &[(String, RelationDelta)] {
        &self.deltas
    }

    /// Moves the stored relations out, in insertion order, so an opener
    /// adopts them instead of copying them.
    pub fn into_relations(self) -> Vec<(String, Relation)> {
        self.relations
    }

    /// Serializes the catalog as format version 3.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut p = Writer::new();
        p.u64(self.relations.len() as u64);
        for (name, rel) in &self.relations {
            p.u64(name.len() as u64);
            p.bytes(name.as_bytes());
            p.u64(rel.arity() as u64);
            p.u64(rel.values().len() as u64);
            p.words(rel.values());
        }
        p.u64(self.tries.len() as u64);
        for t in &self.tries {
            p.u64(t.name.len() as u64);
            p.bytes(t.name.as_bytes());
            p.u64(t.fingerprint);
            p.u64(t.perm.len() as u64);
            for &x in &t.perm {
                p.u64(x as u64);
            }
            p.u64(t.trie.tuple_count() as u64);
            let dims = t.trie.level_dims();
            p.u64(dims.len() as u64);
            for (v, c) in dims {
                p.u64(v as u64);
                p.u64(c as u64);
            }
            p.u64(t.trie.words().len() as u64);
            p.words(t.trie.words());
        }
        p.u64(self.deltas.len() as u64);
        for (name, d) in &self.deltas {
            p.u64(name.len() as u64);
            p.bytes(name.as_bytes());
            p.u64(d.arity() as u64);
            p.u64(d.inserts().values().len() as u64);
            p.words(d.inserts().values());
            p.u64(d.tombstones().values().len() as u64);
            p.words(d.tombstones().values());
        }
        let payload = p.into_bytes();

        let mut out = Vec::with_capacity(28 + payload.len());
        out.extend_from_slice(MAGIC);
        out.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
        out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
        out.extend_from_slice(&lane_hash(&payload).to_le_bytes());
        out.extend_from_slice(&payload);
        out
    }

    /// Parses a catalog from bytes, validating header, checksum, and every
    /// structural invariant of the payload.
    ///
    /// # Errors
    ///
    /// Returns the [`StoreError`] describing the first problem found; see
    /// the variant docs for the taxonomy.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, StoreError> {
        if bytes.len() < 8 {
            return Err(StoreError::Truncated {
                needed: 8,
                available: bytes.len(),
            });
        }
        if &bytes[..8] != MAGIC {
            return Err(StoreError::BadMagic);
        }
        let mut h = Reader::new(&bytes[8..]);
        let version = h.u32()?;
        if !(MIN_FORMAT_VERSION..=FORMAT_VERSION).contains(&version) {
            return Err(StoreError::UnsupportedVersion {
                found: version,
                supported: FORMAT_VERSION,
            });
        }
        let payload_len = h.count()?;
        let checksum = h.u64()?;
        let payload_start = bytes.len() - h.remaining();
        let available = bytes.len() - payload_start;
        if available < payload_len {
            return Err(StoreError::Truncated {
                needed: payload_len,
                available,
            });
        }
        if available > payload_len {
            return Err(StoreError::Malformed {
                detail: format!("{} trailing bytes after payload", available - payload_len),
            });
        }
        let payload = &bytes[payload_start..];
        let found = match version {
            1 | 2 => fnv1a64(payload),
            _ => lane_hash(payload),
        };
        if found != checksum {
            return Err(StoreError::ChecksumMismatch {
                expected: checksum,
                found,
            });
        }

        let mut r = Reader::new(payload);
        let mut catalog = StoredCatalog::new();
        let rel_count = r.count()?;
        for _ in 0..rel_count {
            let name = r.string()?;
            let arity = r.count()?;
            let word_count = r.count()?;
            let data = r.words(word_count)?;
            let rel = Relation::from_values(arity, data).map_err(|e| StoreError::Malformed {
                detail: format!("relation {name:?}: {e}"),
            })?;
            catalog.insert_relation(name, rel);
        }
        let trie_count = r.count()?;
        for _ in 0..trie_count {
            let name = r.string()?;
            let fingerprint = r.u64()?;
            let perm_len = r.count()?;
            let mut perm = Vec::with_capacity(perm_len.min(r.remaining() / 8));
            for _ in 0..perm_len {
                perm.push(r.count()?);
            }
            let tuple_count = r.count()?;
            let level_count = r.count()?;
            let mut dims = Vec::with_capacity(level_count.min(r.remaining() / 16));
            for _ in 0..level_count {
                let v = r.count()?;
                let c = r.count()?;
                dims.push((v, c));
            }
            let word_count = r.count()?;
            let words = r.words(word_count)?;
            let trie = Trie::from_parts(words, &dims, tuple_count).map_err(|e| match e {
                TrieLayoutError::Offset {
                    level,
                    index,
                    offset,
                    limit,
                } => StoreError::OversizeOffset {
                    level,
                    index,
                    offset,
                    limit,
                },
                other => StoreError::Malformed {
                    detail: format!("stored trie {name:?}: {other}"),
                },
            })?;
            // A cursor opens one level per perm entry: a trie filed under
            // anything but a permutation of its own levels would panic or
            // mis-join mid-query, so it is rejected here.
            if !is_permutation(&perm, trie.arity()) {
                return Err(StoreError::Malformed {
                    detail: format!(
                        "stored trie {name:?} of {} levels is filed under a perm of length \
                         {} that is not a permutation of its levels",
                        trie.arity(),
                        perm.len()
                    ),
                });
            }
            catalog.insert_trie(name, fingerprint, perm, Arc::new(trie));
        }
        if version >= 2 {
            let delta_count = r.count()?;
            for _ in 0..delta_count {
                let name = r.string()?;
                let arity = r.count()?;
                if arity == 0 {
                    return Err(StoreError::Malformed {
                        detail: format!("delta for {name:?} has arity 0"),
                    });
                }
                let side = |what: &str, r: &mut Reader<'_>| -> Result<Relation, StoreError> {
                    let word_count = r.count()?;
                    let data = r.words(word_count)?;
                    Relation::from_values(arity, data).map_err(|e| StoreError::Malformed {
                        detail: format!("delta {what} of {name:?}: {e}"),
                    })
                };
                let inserts = side("inserts", &mut r)?;
                let tombstones = side("tombstones", &mut r)?;
                if !delta::intersection(&inserts, &tombstones).is_empty() {
                    return Err(StoreError::Malformed {
                        detail: format!(
                            "delta of {name:?} lists the same row as insert and tombstone"
                        ),
                    });
                }
                let d = RelationDelta::from_parts(inserts, tombstones).map_err(|e| {
                    StoreError::Malformed {
                        detail: format!("delta of {name:?}: {e}"),
                    }
                })?;
                catalog.insert_delta(name, d);
            }
        }
        if !r.is_exhausted() {
            return Err(StoreError::Malformed {
                detail: format!("{} unparsed bytes inside payload", r.remaining()),
            });
        }
        if version < 3 {
            catalog.rekey_legacy_tries();
        }
        Ok(catalog)
    }

    /// Re-files the tries of a version-1 or version-2 file under the
    /// current fingerprint: a trie keyed by the FNV-1a fingerprint of the
    /// same-name relation in the file is that relation's trie. Any other
    /// key was stale when saved and stays as it is, unreachable.
    fn rekey_legacy_tries(&mut self) {
        let legacy: Vec<u64> = self
            .relations
            .iter()
            .map(|(_, rel)| legacy_fingerprint(rel))
            .collect();
        for t in &mut self.tries {
            let owner = self
                .relations
                .iter()
                .zip(&legacy)
                .find(|((name, _), &fp)| *name == t.name && fp == t.fingerprint);
            if let Some(((_, rel), _)) = owner {
                t.fingerprint = rel.fingerprint();
            }
        }
    }

    /// Writes the catalog to `path` (atomically enough for a build
    /// artifact: a full rewrite, no partial update protocol).
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::Io`] if the file cannot be written.
    pub fn save(&self, path: impl AsRef<Path>) -> Result<(), StoreError> {
        std::fs::write(path, self.to_bytes())?;
        Ok(())
    }

    /// Reads and validates a catalog from `path`. Cost is O(bytes-read):
    /// no trie is ever rebuilt.
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::Io`] if the file cannot be read, or any
    /// validation error from [`StoredCatalog::from_bytes`].
    pub fn open(path: impl AsRef<Path>) -> Result<Self, StoreError> {
        let bytes = std::fs::read(path)?;
        StoredCatalog::from_bytes(&bytes)
    }
}

/// Whether `perm` is a permutation of `0..n`.
fn is_permutation(perm: &[usize], n: usize) -> bool {
    let mut seen = vec![false; n];
    perm.len() == n
        && perm
            .iter()
            .all(|&p| p < n && !std::mem::replace(&mut seen[p], true))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_catalog() -> StoredCatalog {
        let edges = Relation::from_pairs(vec![(1, 2), (2, 3), (3, 1), (1, 3)]);
        let rev = edges.permute(&[1, 0]);
        let mut cat = StoredCatalog::new();
        cat.insert_trie(
            "edge",
            edges.fingerprint(),
            vec![0, 1],
            Arc::new(Trie::build(&edges)),
        );
        cat.insert_trie(
            "edge",
            edges.fingerprint(),
            vec![1, 0],
            Arc::new(Trie::build(&rev)),
        );
        cat.insert_relation("edge", edges);
        cat
    }

    /// Wraps a raw payload in a valid version-3 header (correct checksum),
    /// so tests can hand-craft payload-level corruption.
    fn frame(payload: &[u8]) -> Vec<u8> {
        framed(FORMAT_VERSION, lane_hash(payload), payload)
    }

    fn framed(version: u32, checksum: u64, payload: &[u8]) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(MAGIC);
        out.extend_from_slice(&version.to_le_bytes());
        out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
        out.extend_from_slice(&checksum.to_le_bytes());
        out.extend_from_slice(payload);
        out
    }

    /// What an earlier build wrote for `cat` as format `version` (1 or 2):
    /// the same payload — without the delta section for version 1 — with
    /// every trie keyed by the FNV-1a fingerprint of its relation, under an
    /// FNV-1a checksum.
    fn legacy_bytes(cat: &StoredCatalog, version: u32) -> Vec<u8> {
        let mut old = cat.clone();
        for t in &mut old.tries {
            let owner = cat
                .relations
                .iter()
                .find(|(name, rel)| *name == t.name && rel.fingerprint() == t.fingerprint);
            if let Some((_, rel)) = owner {
                t.fingerprint = legacy_fingerprint(rel);
            }
        }
        let mut payload = old.to_bytes().split_off(28);
        if version == 1 {
            assert!(cat.deltas.is_empty(), "version 1 has no delta section");
            payload.truncate(payload.len() - 8);
        }
        framed(version, fnv1a64(&payload), &payload)
    }

    #[test]
    fn round_trip_preserves_relations_and_tries() {
        let cat = sample_catalog();
        let bytes = cat.to_bytes();
        let back = StoredCatalog::from_bytes(&bytes).unwrap();
        assert_eq!(back.relations().len(), 1);
        assert_eq!(back.relations()[0].0, "edge");
        assert_eq!(back.relations()[0].1, cat.relations()[0].1);
        assert_eq!(
            back.relations()[0].1.fingerprint(),
            cat.relations()[0].1.fingerprint(),
            "fingerprints must survive the round trip (they key the cache)"
        );
        assert_eq!(back.tries().len(), 2);
        for (a, b) in back.tries().iter().zip(cat.tries()) {
            assert_eq!(a.name, b.name);
            assert_eq!(a.fingerprint, b.fingerprint);
            assert_eq!(a.perm, b.perm);
            assert_eq!(*a.trie, *b.trie, "tries must be byte-identical");
        }
    }

    #[test]
    fn save_and_open_round_trip_through_a_file() {
        let cat = sample_catalog();
        let path = std::env::temp_dir().join("triejax_store_roundtrip.tjx");
        cat.save(&path).unwrap();
        let back = StoredCatalog::open(&path).unwrap();
        assert_eq!(back.to_bytes(), cat.to_bytes());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn open_missing_file_is_io_error() {
        let err = StoredCatalog::open("/nonexistent/definitely/missing.tjx").unwrap_err();
        assert!(matches!(err, StoreError::Io(_)));
    }

    #[test]
    fn truncated_files_are_rejected_at_every_cut() {
        let bytes = sample_catalog().to_bytes();
        // Cut inside the magic, the header, and the payload.
        for cut in [0, 4, 8, 12, 20, 27, 28, bytes.len() / 2, bytes.len() - 1] {
            let err = StoredCatalog::from_bytes(&bytes[..cut]).unwrap_err();
            assert!(
                matches!(err, StoreError::Truncated { .. }),
                "cut at {cut} gave {err:?}"
            );
        }
    }

    #[test]
    fn bad_magic_is_rejected() {
        let mut bytes = sample_catalog().to_bytes();
        bytes[0] ^= 0xFF;
        assert!(matches!(
            StoredCatalog::from_bytes(&bytes).unwrap_err(),
            StoreError::BadMagic
        ));
    }

    #[test]
    fn unsupported_version_is_rejected() {
        let mut bytes = sample_catalog().to_bytes();
        bytes[8] = 99;
        assert!(matches!(
            StoredCatalog::from_bytes(&bytes).unwrap_err(),
            StoreError::UnsupportedVersion {
                found: 99,
                supported: FORMAT_VERSION
            }
        ));
    }

    #[test]
    fn flipped_payload_bit_is_a_checksum_mismatch() {
        let mut bytes = sample_catalog().to_bytes();
        let last = bytes.len() - 1;
        bytes[last] ^= 0x01;
        assert!(matches!(
            StoredCatalog::from_bytes(&bytes).unwrap_err(),
            StoreError::ChecksumMismatch { .. }
        ));
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let mut bytes = sample_catalog().to_bytes();
        bytes.push(0);
        assert!(matches!(
            StoredCatalog::from_bytes(&bytes).unwrap_err(),
            StoreError::Malformed { .. }
        ));
    }

    #[test]
    fn oversize_offset_is_rejected_with_its_own_error() {
        // Hand-craft a payload with a valid checksum whose trie offset
        // table points past the leaf level: 0 relations, 1 binary trie
        // with values [1] and child_starts [0, 9] over a 1-wide leaf.
        let mut p = Writer::new();
        p.u64(0); // rel_count
        p.u64(1); // trie_count
        p.u64(1);
        p.bytes(b"t");
        p.u64(0xDEAD); // fingerprint
        p.u64(2); // perm_len
        p.u64(0);
        p.u64(1);
        p.u64(1); // tuple_count
        p.u64(2); // level_count
        p.u64(1); // level 0 values
        p.u64(2); // level 0 child entries
        p.u64(1); // level 1 values (leaf)
        p.u64(0);
        p.u64(4); // word_count
        p.words(&[1, 0, 9, 5]); // values, starts 0..9 (!), leaf value
        let bytes = frame(&p.into_bytes());
        let err = StoredCatalog::from_bytes(&bytes).unwrap_err();
        assert!(
            matches!(
                err,
                StoreError::OversizeOffset {
                    level: 0,
                    offset: 9,
                    limit: 1,
                    ..
                }
            ),
            "got {err:?}"
        );
    }

    #[test]
    fn malformed_payloads_are_rejected_not_panicked_on() {
        // Row buffer not divisible by arity.
        let mut p = Writer::new();
        p.u64(1);
        p.u64(1);
        p.bytes(b"r");
        p.u64(2); // arity
        p.u64(3); // word_count — not a multiple of 2
        p.words(&[1, 2, 3]);
        p.u64(0);
        assert!(matches!(
            StoredCatalog::from_bytes(&frame(&p.into_bytes())).unwrap_err(),
            StoreError::Malformed { .. }
        ));

        // Zero-arity relation.
        let mut p = Writer::new();
        p.u64(1);
        p.u64(1);
        p.bytes(b"r");
        p.u64(0);
        p.u64(0);
        p.u64(0);
        assert!(matches!(
            StoredCatalog::from_bytes(&frame(&p.into_bytes())).unwrap_err(),
            StoreError::Malformed { .. }
        ));

        // Non-UTF-8 name.
        let mut p = Writer::new();
        p.u64(1);
        p.u64(2);
        p.bytes(&[0xFF, 0xFE]);
        assert!(matches!(
            StoredCatalog::from_bytes(&frame(&p.into_bytes())).unwrap_err(),
            StoreError::Malformed { .. }
        ));

        // Inflated word count: claims 2^40 words in an 8-byte payload.
        let mut p = Writer::new();
        p.u64(1);
        p.u64(1);
        p.bytes(b"r");
        p.u64(2);
        p.u64(1 << 40);
        assert!(matches!(
            StoredCatalog::from_bytes(&frame(&p.into_bytes())).unwrap_err(),
            StoreError::Truncated { .. }
        ));
    }

    #[test]
    fn empty_catalog_round_trips() {
        let cat = StoredCatalog::new();
        let back = StoredCatalog::from_bytes(&cat.to_bytes()).unwrap();
        assert!(back.relations().is_empty());
        assert!(back.tries().is_empty());
        assert!(back.deltas().is_empty());
    }

    #[test]
    fn every_catalog_writes_version_3() {
        let bytes = sample_catalog().to_bytes();
        assert_eq!(u32::from_le_bytes(bytes[8..12].try_into().unwrap()), 3);
        assert_eq!(
            u64::from_le_bytes(bytes[20..28].try_into().unwrap()),
            lane_hash(&bytes[28..])
        );
        // A frozen catalog still carries the (empty) delta section.
        assert_eq!(&bytes[bytes.len() - 8..], &[0; 8]);
        assert!(StoredCatalog::from_bytes(&bytes)
            .unwrap()
            .deltas()
            .is_empty());
    }

    #[test]
    fn deltas_round_trip_as_version_3() {
        let mut cat = sample_catalog();
        let d = RelationDelta::from_parts(
            Relation::from_pairs(vec![(7, 8), (9, 1)]),
            Relation::from_pairs(vec![(1, 2)]),
        )
        .unwrap();
        cat.insert_delta("edge", d.clone());
        let bytes = cat.to_bytes();
        assert_eq!(u32::from_le_bytes(bytes[8..12].try_into().unwrap()), 3);
        let back = StoredCatalog::from_bytes(&bytes).unwrap();
        assert_eq!(back.deltas().len(), 1);
        assert_eq!(back.deltas()[0].0, "edge");
        assert_eq!(back.deltas()[0].1, d);
        assert_eq!(back.to_bytes(), bytes, "re-serialization is stable");
    }

    #[test]
    fn legacy_files_open_with_their_tries_re_keyed() {
        let mut cat = sample_catalog();
        // A stale trie, keyed by data the file no longer holds.
        let stale = Relation::from_pairs(vec![(5, 6)]);
        cat.insert_trie(
            "edge",
            legacy_fingerprint(&stale),
            vec![0, 1],
            Arc::new(Trie::build(&stale)),
        );
        let fresh = cat.relations()[0].1.fingerprint();
        for version in [1, 2] {
            let mut file = cat.clone();
            if version == 2 {
                file.insert_delta(
                    "edge",
                    RelationDelta::from_parts(
                        Relation::from_pairs(vec![(7, 8)]),
                        Relation::from_pairs(vec![(1, 2)]),
                    )
                    .unwrap(),
                );
            }
            let bytes = legacy_bytes(&file, version);
            let back = StoredCatalog::from_bytes(&bytes)
                .unwrap_or_else(|e| panic!("version {version} does not open: {e}"));
            assert_eq!(back.relations(), file.relations());
            assert_eq!(back.deltas(), file.deltas());
            let keys: Vec<u64> = back.tries().iter().map(|t| t.fingerprint).collect();
            assert_eq!(
                keys,
                [fresh, fresh, legacy_fingerprint(&stale)],
                "version {version}: live tries re-keyed, the stale one left alone"
            );
            // Saving again writes version 3 with the current keys.
            let again = StoredCatalog::from_bytes(&back.to_bytes()).unwrap();
            assert_eq!(again.tries()[0].fingerprint, fresh);
        }
        // A legacy file checked with the new hash, or a new file checked
        // with the old one, is a checksum mismatch.
        let v1 = legacy_bytes(&sample_catalog(), 1);
        let mut as_v3 = v1.clone();
        as_v3[8..12].copy_from_slice(&3u32.to_le_bytes());
        assert!(matches!(
            StoredCatalog::from_bytes(&as_v3).unwrap_err(),
            StoreError::ChecksumMismatch { .. }
        ));
        let mut as_v2 = sample_catalog().to_bytes();
        as_v2[8..12].copy_from_slice(&2u32.to_le_bytes());
        assert!(matches!(
            StoredCatalog::from_bytes(&as_v2).unwrap_err(),
            StoreError::ChecksumMismatch { .. }
        ));
    }

    #[test]
    fn a_trie_filed_under_a_non_permutation_is_rejected() {
        let edges = Relation::from_pairs(vec![(1, 2), (2, 3)]);
        let unary = Relation::from_tuples(1, vec![vec![1u32], vec![2]]).unwrap();
        let cases: [(&Relation, Vec<usize>); 5] = [
            // A 1-level trie under a 2-column perm: a query would open
            // past its leaf.
            (&unary, vec![0, 1]),
            // A 2-level trie under a 1-column perm: a query would mis-join.
            (&edges, vec![0]),
            (&edges, vec![0, 0]),
            (&edges, vec![1, 2]),
            (&edges, vec![]),
        ];
        for (rel, perm) in cases {
            let mut cat = StoredCatalog::new();
            cat.insert_relation("edge", edges.clone());
            cat.insert_trie(
                "edge",
                edges.fingerprint(),
                perm.clone(),
                Arc::new(Trie::build(rel)),
            );
            let err = StoredCatalog::from_bytes(&cat.to_bytes()).unwrap_err();
            assert!(
                matches!(err, StoreError::Malformed { ref detail } if detail.contains("permutation")),
                "perm {perm:?}: {err:?}"
            );
        }
    }

    #[test]
    fn overlapping_delta_sides_are_rejected_at_parse_time() {
        // Hand-craft a v2 payload whose delta lists (1,2) as both insert
        // and tombstone — from_parts can't see this (it only checks
        // arity), so the store validates disjointness itself.
        let mut p = Writer::new();
        p.u64(0); // rel_count
        p.u64(0); // trie_count
        p.u64(1); // delta_count
        p.u64(1);
        p.bytes(b"r");
        p.u64(2); // arity
        p.u64(2); // insert words
        p.words(&[1, 2]);
        p.u64(2); // tombstone words
        p.words(&[1, 2]);
        let err = StoredCatalog::from_bytes(&frame(&p.into_bytes())).unwrap_err();
        assert!(
            matches!(err, StoreError::Malformed { ref detail } if detail.contains("insert and tombstone")),
            "got {err:?}"
        );
    }

    #[test]
    fn version_1_files_do_not_carry_a_delta_section() {
        // A v1 frame whose payload *ends* in delta-looking bytes must be
        // rejected as unparsed bytes, not silently parsed.
        let v1 = legacy_bytes(&sample_catalog(), 1);
        let mut payload = v1[28..].to_vec();
        payload.extend_from_slice(&0u64.to_le_bytes());
        let bytes = framed(1, fnv1a64(&payload), &payload);
        assert!(matches!(
            StoredCatalog::from_bytes(&bytes).unwrap_err(),
            StoreError::Malformed { ref detail } if detail.contains("unparsed")
        ));
    }
}
