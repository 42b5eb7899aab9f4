//! Persistent, relocatable catalog of relations and pre-built tries.
//!
//! TrieJax's premise is "build the trie index once, then let the hardware
//! rip through joins" — this crate makes the *once* literal across process
//! boundaries. A [`StoredCatalog`] serializes base relations together with
//! their built [`Trie`] indexes into a single versioned, checksummed file.
//! A cold process calls [`StoredCatalog::open`] and can serve queries with
//! **zero** trie builds: each stored trie is keyed by the same `(name,
//! content fingerprint, permutation)` scheme the in-process trie cache
//! uses, so after the underlying data changes, stale entries are simply
//! unreachable — there is no invalidation protocol.
//!
//! Relocation is what makes this cheap: a [`Trie`] is one contiguous `u32`
//! buffer plus a per-level offset table ([`Trie::words`] /
//! [`Trie::level_dims`]), so saving is a buffer copy and loading is a
//! validated buffer adoption ([`Trie::from_parts`]) — no pointer fix-ups,
//! no rebuild.
//!
//! # File format (version 4)
//!
//! All integers little-endian. A directory names every entry and says where
//! its body lies, so each body is addressable and checked on its own.
//!
//! ```text
//! magic        8 bytes   "TJXSTORE"
//! version      u32       4
//! dir_len      u64       bytes of the directory
//! dir_checksum u64       lane hash over the directory
//! directory:
//!   entry_count u64
//!   per entry:
//!     kind u64           1 relation, 2 trie, 3 delta
//!     name_len u64, name (UTF-8)
//!     key, by kind:
//!       relation: arity u64
//!       trie:     fingerprint u64, perm_len u64, perm u64[], tuple_count u64,
//!                 level_count u64, (values_len u64, child_len u64) per level
//!       delta:    arity u64, insert_word_count u64, tombstone_word_count u64
//!     offset u64, len u64  the body's bytes, from the start of the bodies
//!     checksum u64         lane hash over the body; for a relation, its
//!                          fingerprint (the lane hash seeded with the arity)
//! bodies, back to back in directory order, each a u32 array:
//!   relation: its rows, row-major; trie: its flat word buffer
//!   (Trie::words); delta: its inserts' rows, then its tombstones' rows
//! ```
//!
//! The checksums and every trie's fingerprint ([`Relation::fingerprint`])
//! are the [`lane_hash`]: four independent FNV-style multiply chains over
//! little-endian words, so checking a body costs about a pass over its
//! bytes. A relation's checksum *is* its fingerprint, so checking it also
//! computes the key its tries are found by, and no query hashes the
//! relation again. The delta entries carry the pending [`RelationDelta`]s of a
//! mutable session (`triejax-join`'s `Session::apply`), so a snapshot taken
//! mid-mutation round-trips exactly; a frozen catalog has none.
//!
//! # What is checked when
//!
//! [`StoredCatalog::open`] reads the file once into one shared buffer.
//! Opening ([`StoredCatalog::open`], [`StoredCatalog::from_bytes`]) checks,
//! before anything is served:
//!
//! * the header, the directory's checksum and its structure: every length
//!   is checked against the bytes that remain before anything is
//!   allocated, and the bodies must tile the rest of the file exactly;
//! * every relation and every delta: its checksum, its rows (adopted as
//!   read by [`Relation::from_values`]: one strict-ascending pass, and a
//!   sort only for rows out of order), and for a delta that its inserts
//!   and tombstones are disjoint;
//! * every trie's directory entry: that its word count matches its level
//!   table and that its permutation is a permutation of its levels;
//! * across entries: no relation is named twice, and every delta belongs
//!   to a relation in the file, of its arity, and to no other delta.
//!
//! A trie body is checked on its **first touch** — the first
//! [`StoredTrie::trie`] call, which is the first trie-cache lookup that
//! wants it: its checksum, its decode, [`Trie::from_parts`]'s structural
//! validation and its derived indexes. The outcome is kept, so a trie is
//! checked once, and a body that fails returns the same typed
//! [`StoreError`] to every caller: it is never served, and nothing panics.
//! A query that never reads a trie never pays for it. Callers that want
//! every byte checked before they serve call [`StoredCatalog::verify`].
//!
//! Files of versions 1–3 are rejected with
//! [`StoreError::UnsupportedVersion`]; a holder of one re-saves it with an
//! earlier build that still reads them, and it is written as version 4.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod error;
mod format;

pub use error::StoreError;

use format::{decode_words, Reader, Writer};
use std::collections::{HashMap, HashSet};
use std::fmt;
use std::ops::Range;
use std::path::Path;
use std::sync::{Arc, OnceLock};
use triejax_relation::{delta, lane_hash, Relation, RelationDelta, Trie, TrieLayoutError};

/// The magic bytes opening every store file.
const MAGIC: &[u8; 8] = b"TJXSTORE";

/// The store format version this build writes, and the only one it reads.
pub const FORMAT_VERSION: u32 = 4;

/// Bytes before the directory: magic, version, directory length and
/// directory checksum.
const HEADER_BYTES: usize = 28;

/// Directory entry kinds.
const RELATION: u64 = 1;
const TRIE: u64 = 2;
const DELTA: u64 = 3;

/// One pre-built trie in a stored catalog, addressed by the same
/// `(name, fingerprint, perm)` triple the in-process trie cache uses.
///
/// A trie read from a file is a window into the file's buffer until its
/// first [`StoredTrie::trie`] call checks and decodes it; one inserted
/// built is ready from the start.
/// Clones share the window and the outcome of its check.
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
    body: Arc<TrieBody>,
}

/// A stored trie: built, or a window into a file with the outcome of its
/// check once it has had one.
enum TrieBody {
    /// Inserted built: nothing to check.
    Built(Arc<Trie>),
    /// Read from a file: checked on its first touch.
    Stored {
        window: Window,
        trie: OnceLock<Result<Arc<Trie>, StoreError>>,
    },
}

/// A trie body inside a shared file buffer, with the directory's account
/// of it.
struct Window {
    file: Arc<Vec<u8>>,
    range: Range<usize>,
    checksum: u64,
    dims: Vec<(usize, usize)>,
    tuple_count: usize,
}

impl Window {
    fn bytes(&self) -> &[u8] {
        &self.file[self.range.clone()]
    }

    /// Checks and decodes the body of the trie `name`.
    fn load(&self, name: &str) -> Result<Arc<Trie>, StoreError> {
        let bytes = self.bytes();
        check_body(bytes, self.checksum)?;
        let trie = Trie::from_parts(decode_words(bytes), &self.dims, self.tuple_count)
            .map_err(|e| layout_error(name, e))?;
        Ok(Arc::new(trie))
    }
}

impl fmt::Debug for TrieBody {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TrieBody::Built(t) => f.debug_tuple("Built").field(&t.tuple_count()).finish(),
            TrieBody::Stored { window, trie } => f
                .debug_struct("Stored")
                .field("range", &window.range)
                .field("checked", &trie.get().map(Result::is_ok))
                .finish(),
        }
    }
}

impl StoredTrie {
    /// A stored trie that is already built (and so needs no check).
    pub fn new(
        name: impl Into<String>,
        fingerprint: u64,
        perm: Vec<usize>,
        trie: Arc<Trie>,
    ) -> Self {
        StoredTrie {
            name: name.into(),
            fingerprint,
            perm,
            body: Arc::new(TrieBody::Built(trie)),
        }
    }

    /// The trie. The first call on a trie read from a file checks
    /// its body — checksum, decode, [`Trie::from_parts`] and the derived
    /// indexes — and every later call, on any clone, returns that outcome.
    ///
    /// # Errors
    ///
    /// Returns the [`StoreError`] the body failed its check with.
    pub fn trie(&self) -> Result<Arc<Trie>, StoreError> {
        match &*self.body {
            TrieBody::Built(t) => Ok(Arc::clone(t)),
            TrieBody::Stored { window, trie } => {
                trie.get_or_init(|| window.load(&self.name)).clone()
            }
        }
    }

    /// Whether the trie has been checked (or was built): a
    /// [`StoredTrie::trie`] call will not touch the file's bytes.
    pub fn is_checked(&self) -> bool {
        match &*self.body {
            TrieBody::Built(_) => true,
            TrieBody::Stored { trie, .. } => trie.get().is_some(),
        }
    }

    /// Bytes of the trie's flat word buffer, as stored.
    pub fn stored_bytes(&self) -> u64 {
        match &*self.body {
            TrieBody::Built(t) => 4 * t.words().len() as u64,
            TrieBody::Stored { window, .. } => window.range.len() as u64,
        }
    }

    /// Whether `other` is a clone of this entry (the same body).
    pub fn same_entry(&self, other: &StoredTrie) -> bool {
        Arc::ptr_eq(&self.body, &other.body)
    }
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
/// reopened.verify()?; // every trie body checked now, not on first touch
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
        self.tries
            .push(StoredTrie::new(name, fingerprint, perm, trie));
    }

    /// Adds a stored trie as it is: one read from a file and not yet
    /// checked is saved again from its bytes, without decoding them.
    pub fn insert_stored_trie(&mut self, trie: StoredTrie) {
        self.tries.push(trie);
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

    /// The stored pending deltas, in insertion order.
    pub fn deltas(&self) -> &[(String, RelationDelta)] {
        &self.deltas
    }

    /// Moves the stored relations out, in insertion order, so an opener
    /// adopts them instead of copying them.
    pub fn into_relations(self) -> Vec<(String, Relation)> {
        self.relations
    }

    /// Checks every stored trie now (see [`StoredTrie::trie`]), so that no
    /// query meets a damaged one later.
    ///
    /// # Errors
    ///
    /// Returns the first [`StoreError`] a trie fails its check with.
    pub fn verify(&self) -> Result<(), StoreError> {
        self.tries.iter().try_for_each(|t| t.trie().map(drop))
    }

    /// Serializes the catalog as format version 4. A trie read from a file
    /// is written from its stored bytes under its stored checksum, whether
    /// it was checked or not, so saving never launders a damaged body.
    pub fn to_bytes(&self) -> Vec<u8> {
        let entries = self.relations.len() + self.tries.len() + self.deltas.len();
        let mut dir = Writer::new();
        let mut bodies = Writer::new();
        dir.u64(entries as u64);
        for (name, rel) in &self.relations {
            dir.u64(RELATION);
            dir.string(name);
            dir.u64(rel.arity() as u64);
            let start = bodies.len();
            bodies.words(rel.values());
            body_entry(&mut dir, &bodies, start, Some(rel.fingerprint()));
        }
        for t in &self.tries {
            dir.u64(TRIE);
            dir.string(&t.name);
            dir.u64(t.fingerprint);
            dir.u64(t.perm.len() as u64);
            for &x in &t.perm {
                dir.u64(x as u64);
            }
            let start = bodies.len();
            let checksum = match &*t.body {
                TrieBody::Built(trie) => {
                    dir_dims(&mut dir, trie.tuple_count(), &trie.level_dims());
                    bodies.words(trie.words());
                    None
                }
                TrieBody::Stored { window, .. } => {
                    dir_dims(&mut dir, window.tuple_count, &window.dims);
                    bodies.bytes(window.bytes());
                    Some(window.checksum)
                }
            };
            body_entry(&mut dir, &bodies, start, checksum);
        }
        for (name, d) in &self.deltas {
            dir.u64(DELTA);
            dir.string(name);
            dir.u64(d.arity() as u64);
            dir.u64(d.inserts().values().len() as u64);
            dir.u64(d.tombstones().values().len() as u64);
            let start = bodies.len();
            bodies.words(d.inserts().values());
            bodies.words(d.tombstones().values());
            body_entry(&mut dir, &bodies, start, None);
        }
        let (dir, bodies) = (dir.into_bytes(), bodies.into_bytes());
        let mut out = Vec::with_capacity(HEADER_BYTES + dir.len() + bodies.len());
        out.extend_from_slice(MAGIC);
        out.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
        out.extend_from_slice(&(dir.len() as u64).to_le_bytes());
        out.extend_from_slice(&lane_hash(&dir).to_le_bytes());
        out.extend_from_slice(&dir);
        out.extend_from_slice(&bodies);
        out
    }

    /// Parses a catalog from bytes (copied into the catalog's own buffer),
    /// checking what [`StoredCatalog::open`] checks.
    ///
    /// # Errors
    ///
    /// Returns the [`StoreError`] describing the first problem found; see
    /// the variant docs for the taxonomy.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, StoreError> {
        StoredCatalog::from_file(Arc::new(bytes.to_vec()))
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

    /// Reads a catalog from `path` into one buffer, checking its header,
    /// directory, relations and deltas; each trie is checked on its first
    /// touch (see the crate docs). No trie is ever rebuilt.
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::Io`] if the file cannot be read, or any
    /// validation error from [`StoredCatalog::from_bytes`].
    pub fn open(path: impl AsRef<Path>) -> Result<Self, StoreError> {
        StoredCatalog::from_file(Arc::new(std::fs::read(path)?))
    }

    /// Parses the file held in `file`: the header, then the directory.
    fn from_file(file: Arc<Vec<u8>>) -> Result<Self, StoreError> {
        let bytes = &file[..];
        if bytes.len() < MAGIC.len() {
            return Err(StoreError::Truncated {
                needed: MAGIC.len(),
                available: bytes.len(),
            });
        }
        if &bytes[..MAGIC.len()] != MAGIC {
            return Err(StoreError::BadMagic);
        }
        let mut h = Reader::new(&bytes[MAGIC.len()..]);
        let version = h.u32()?;
        if version != FORMAT_VERSION {
            return Err(StoreError::UnsupportedVersion {
                found: version,
                supported: FORMAT_VERSION,
            });
        }
        let dir_len = h.count()?;
        let checksum = h.u64()?;
        let available = bytes.len() - HEADER_BYTES;
        if available < dir_len {
            return Err(StoreError::Truncated {
                needed: dir_len,
                available,
            });
        }
        let dir = &bytes[HEADER_BYTES..HEADER_BYTES + dir_len];
        check_body(dir, checksum)?;
        let catalog = parse_directory(dir, &file, HEADER_BYTES + dir_len)?;
        catalog.check_names()?;
        Ok(catalog)
    }

    /// Rejects a catalog no session could serve faithfully: a relation
    /// named twice (which copy would a query read?), or a delta with no
    /// relation of its name, of another arity, or beside a second delta of
    /// the same relation.
    fn check_names(&self) -> Result<(), StoreError> {
        let malformed = |detail: String| Err(StoreError::Malformed { detail });
        let mut arity: HashMap<&str, usize> = HashMap::new();
        for (name, rel) in &self.relations {
            if arity.insert(name, rel.arity()).is_some() {
                return malformed(format!("relation {name:?} is stored twice"));
            }
        }
        let mut seen = HashSet::new();
        for (name, d) in &self.deltas {
            match arity.get(name.as_str()) {
                None => {
                    return malformed(format!("delta of {name:?} has no relation of that name"))
                }
                Some(&a) if a != d.arity() => {
                    return malformed(format!(
                        "delta of {name:?} has arity {} but its relation has arity {a}",
                        d.arity()
                    ))
                }
                Some(_) if !seen.insert(name) => {
                    return malformed(format!("relation {name:?} has two deltas"))
                }
                Some(_) => {}
            }
        }
        Ok(())
    }
}

/// Writes a trie's tuple count and level table into its directory entry.
fn dir_dims(dir: &mut Writer, tuple_count: usize, dims: &[(usize, usize)]) {
    dir.u64(tuple_count as u64);
    dir.u64(dims.len() as u64);
    for &(v, c) in dims {
        dir.u64(v as u64);
        dir.u64(c as u64);
    }
}

/// Closes a directory entry whose body was written to `bodies` from
/// `start` on: its offset, length and checksum (the lane hash of the body
/// unless one is given).
fn body_entry(dir: &mut Writer, bodies: &Writer, start: usize, checksum: Option<u64>) {
    let body = &bodies.as_bytes()[start..];
    dir.u64(start as u64);
    dir.u64(body.len() as u64);
    dir.u64(checksum.unwrap_or_else(|| lane_hash(body)));
}

/// Parses and checks a version-4 directory whose checksum has been
/// verified, and the relation and delta bodies it names; the bodies start
/// at `bodies_start` in `file`.
fn parse_directory(
    dir: &[u8],
    file: &Arc<Vec<u8>>,
    bodies_start: usize,
) -> Result<StoredCatalog, StoreError> {
    let bodies_len = file.len() - bodies_start;
    let mut r = Reader::new(dir);
    let mut catalog = StoredCatalog::new();
    let entries = r.count()?;
    let mut next = 0;
    for _ in 0..entries {
        let kind = r.u64()?;
        let name = r.string()?;
        let key = match kind {
            RELATION => Key::Relation { arity: r.count()? },
            TRIE => {
                let fingerprint = r.u64()?;
                let perm_len = r.count()?;
                let mut perm = Vec::with_capacity(perm_len.min(r.remaining() / 8));
                for _ in 0..perm_len {
                    perm.push(r.count()?);
                }
                let tuple_count = r.count()?;
                let levels = r.count()?;
                let mut dims = Vec::with_capacity(levels.min(r.remaining() / 16));
                for _ in 0..levels {
                    dims.push((r.count()?, r.count()?));
                }
                Key::Trie {
                    fingerprint,
                    perm,
                    tuple_count,
                    dims,
                }
            }
            DELTA => Key::Delta {
                arity: r.count()?,
                insert_words: r.count()?,
                tombstone_words: r.count()?,
            },
            other => {
                return Err(StoreError::Malformed {
                    detail: format!("entry {name:?} has unknown kind {other}"),
                })
            }
        };
        let offset = r.count()?;
        let len = r.count()?;
        let checksum = r.u64()?;
        if offset != next {
            return Err(StoreError::Malformed {
                detail: format!("entry {name:?} starts at byte {offset}, not at {next}"),
            });
        }
        if len > bodies_len - offset {
            return Err(StoreError::Truncated {
                needed: len,
                available: bodies_len - offset,
            });
        }
        if len % 4 != 0 {
            return Err(StoreError::Malformed {
                detail: format!("entry {name:?} is {len} bytes, not whole u32 words"),
            });
        }
        next = offset + len;
        let range = bodies_start + offset..bodies_start + next;
        let body = &file[range.clone()];
        match key {
            Key::Relation { arity } => {
                let rel = Relation::from_values(arity, decode_words(body)).map_err(|e| {
                    StoreError::Malformed {
                        detail: format!("relation {name:?}: {e}"),
                    }
                })?;
                // The relation's checksum is its fingerprint: checking it
                // computes the fingerprint every query keys its tries by.
                if rel.fingerprint() != checksum {
                    return Err(StoreError::ChecksumMismatch {
                        expected: checksum,
                        found: rel.fingerprint(),
                    });
                }
                catalog.insert_relation(name, rel);
            }
            Key::Trie {
                fingerprint,
                perm,
                tuple_count,
                dims,
            } => {
                let words = dims
                    .iter()
                    .try_fold(0usize, |acc, &(v, c)| acc.checked_add(v)?.checked_add(c));
                if words != Some(len / 4) {
                    return Err(StoreError::Malformed {
                        detail: format!(
                            "stored trie {name:?} is {} words but its levels need {words:?}",
                            len / 4
                        ),
                    });
                }
                check_perm(&name, &perm, dims.len())?;
                let window = Window {
                    file: Arc::clone(file),
                    range,
                    checksum,
                    dims,
                    tuple_count,
                };
                catalog.tries.push(StoredTrie {
                    name,
                    fingerprint,
                    perm,
                    body: Arc::new(TrieBody::Stored {
                        window,
                        trie: OnceLock::new(),
                    }),
                });
            }
            Key::Delta {
                arity,
                insert_words,
                tombstone_words,
            } => {
                if insert_words.checked_add(tombstone_words) != Some(len / 4) {
                    return Err(StoreError::Malformed {
                        detail: format!(
                            "delta of {name:?} is {} words, not {insert_words} inserted and \
                             {tombstone_words} tombstoned",
                            len / 4
                        ),
                    });
                }
                check_body(body, checksum)?;
                let mut inserts = decode_words(body);
                let tombstones = inserts.split_off(insert_words);
                let d = delta_from_sides(&name, arity, inserts, tombstones)?;
                catalog.insert_delta(name, d);
            }
        }
    }
    if !r.is_exhausted() {
        return Err(StoreError::Malformed {
            detail: format!("{} unparsed bytes inside the directory", r.remaining()),
        });
    }
    if next != bodies_len {
        return Err(StoreError::Malformed {
            detail: format!("{} trailing bytes after the last entry", bodies_len - next),
        });
    }
    Ok(catalog)
}

/// The key of a version-4 directory entry.
enum Key {
    Relation {
        arity: usize,
    },
    Trie {
        fingerprint: u64,
        perm: Vec<usize>,
        tuple_count: usize,
        dims: Vec<(usize, usize)>,
    },
    Delta {
        arity: usize,
        insert_words: usize,
        tombstone_words: usize,
    },
}

/// Fails with [`StoreError::ChecksumMismatch`] unless `body` hashes to
/// `checksum`.
fn check_body(body: &[u8], checksum: u64) -> Result<(), StoreError> {
    let found = lane_hash(body);
    if found != checksum {
        return Err(StoreError::ChecksumMismatch {
            expected: checksum,
            found,
        });
    }
    Ok(())
}

/// The store's error for a trie buffer [`Trie::from_parts`] rejects.
fn layout_error(name: &str, e: TrieLayoutError) -> StoreError {
    match e {
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
    }
}

/// A cursor opens one level per perm entry: a trie filed under anything but
/// a permutation of its own `levels` would panic or mis-join mid-query, so
/// it is rejected.
fn check_perm(name: &str, perm: &[usize], levels: usize) -> Result<(), StoreError> {
    let mut seen = vec![false; levels];
    let ok = perm.len() == levels
        && perm
            .iter()
            .all(|&p| p < levels && !std::mem::replace(&mut seen[p], true));
    if ok {
        return Ok(());
    }
    Err(StoreError::Malformed {
        detail: format!(
            "stored trie {name:?} of {levels} levels is filed under a perm of length {} that \
             is not a permutation of its levels",
            perm.len()
        ),
    })
}

/// A delta from its stored sides' row words: a non-zero arity, whole rows
/// on each side, and no row both inserted and tombstoned.
fn delta_from_sides(
    name: &str,
    arity: usize,
    inserts: Vec<u32>,
    tombstones: Vec<u32>,
) -> Result<RelationDelta, StoreError> {
    let malformed = |detail: String| StoreError::Malformed { detail };
    if arity == 0 {
        return Err(malformed(format!("delta for {name:?} has arity 0")));
    }
    let side = |what: &str, words: Vec<u32>| {
        Relation::from_values(arity, words)
            .map_err(|e| malformed(format!("delta {what} of {name:?}: {e}")))
    };
    let inserts = side("inserts", inserts)?;
    let tombstones = side("tombstones", tombstones)?;
    if !delta::intersection(&inserts, &tombstones).is_empty() {
        return Err(malformed(format!(
            "delta of {name:?} lists the same row as insert and tombstone"
        )));
    }
    RelationDelta::from_parts(inserts, tombstones)
        .map_err(|e| malformed(format!("delta of {name:?}: {e}")))
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

    /// A version-4 file of one hand-made directory and the bodies after it.
    fn frame_v4(dir: Writer, bodies: &[u8]) -> Vec<u8> {
        let dir = dir.into_bytes();
        let mut out = MAGIC.to_vec();
        out.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
        out.extend_from_slice(&(dir.len() as u64).to_le_bytes());
        out.extend_from_slice(&lane_hash(&dir).to_le_bytes());
        out.extend_from_slice(&dir);
        out.extend_from_slice(bodies);
        out
    }

    /// The byte range of the body of the `i`-th trie in a version-4 file
    /// written by `to_bytes`.
    fn trie_window(bytes: &[u8], i: usize) -> Range<usize> {
        let cat = StoredCatalog::from_bytes(bytes).unwrap();
        match &*cat.tries[i].body {
            TrieBody::Stored { window, .. } => window.range.clone(),
            TrieBody::Built(_) => panic!("a version-4 trie is a window"),
        }
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
            assert!(!a.is_checked(), "opening leaves trie bodies unread");
            assert_eq!(a.stored_bytes(), b.stored_bytes());
            assert_eq!(
                *a.trie().unwrap(),
                *b.trie().unwrap(),
                "tries must be byte-identical"
            );
            assert!(a.is_checked());
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
    fn saving_an_opened_catalog_rewrites_the_same_bytes() {
        let mut cat = sample_catalog();
        cat.insert_delta(
            "edge",
            RelationDelta::from_parts(
                Relation::from_pairs(vec![(7, 8)]),
                Relation::from_pairs(vec![(1, 2)]),
            )
            .unwrap(),
        );
        let bytes = cat.to_bytes();
        let untouched = StoredCatalog::from_bytes(&bytes).unwrap();
        assert_eq!(untouched.to_bytes(), bytes, "no entry touched");
        untouched.tries()[1].trie().unwrap();
        assert_eq!(untouched.to_bytes(), bytes, "one entry touched");
        untouched.verify().unwrap();
        assert_eq!(untouched.to_bytes(), bytes, "every entry touched");
    }

    #[test]
    fn open_missing_file_is_io_error() {
        let err = StoredCatalog::open("/nonexistent/definitely/missing.tjx").unwrap_err();
        assert!(matches!(err, StoreError::Io(_)));
    }

    #[test]
    fn truncated_files_are_rejected_at_every_cut() {
        let bytes = sample_catalog().to_bytes();
        // Cut inside the magic, the header, the directory and the bodies.
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
        // Versions 1–3 are the formats earlier builds wrote; 0, 5 and
        // u32::MAX were never written.
        let valid = sample_catalog().to_bytes();
        for version in [0, 1, 2, 3, 5, u32::MAX] {
            let mut bytes = valid.clone();
            bytes[8..12].copy_from_slice(&version.to_le_bytes());
            let err = StoredCatalog::from_bytes(&bytes).unwrap_err();
            assert!(
                matches!(
                    err,
                    StoreError::UnsupportedVersion { found, supported: 4 } if found == version
                ),
                "version {version}: {err:?}"
            );
        }
    }

    #[test]
    fn flipped_payload_bit_is_a_checksum_mismatch() {
        // In the directory: caught when the file opens.
        let bytes = sample_catalog().to_bytes();
        let mut dir = bytes.clone();
        dir[HEADER_BYTES + 3] ^= 0x01;
        assert!(matches!(
            StoredCatalog::from_bytes(&dir).unwrap_err(),
            StoreError::ChecksumMismatch { .. }
        ));
        // In a relation body: caught when the file opens.
        let mut rel = bytes.clone();
        rel[trie_window(&bytes, 0).start - 1] ^= 0x01;
        assert!(matches!(
            StoredCatalog::from_bytes(&rel).unwrap_err(),
            StoreError::ChecksumMismatch { .. }
        ));
        // In the last trie body: caught on first touch, or by verify().
        let mut trie = bytes.clone();
        let last = trie.len() - 1;
        trie[last] ^= 0x01;
        let opened = StoredCatalog::from_bytes(&trie).expect("trie bodies wait for first touch");
        assert!(matches!(
            opened.verify().unwrap_err(),
            StoreError::ChecksumMismatch { .. }
        ));
    }

    #[test]
    fn a_damaged_trie_fails_its_first_touch_and_every_later_one() {
        let mut bytes = sample_catalog().to_bytes();
        let window = trie_window(&bytes, 1);
        bytes[window.start + 2] ^= 0x10;
        let opened = StoredCatalog::from_bytes(&bytes).unwrap();
        let good = opened.tries()[0].trie().expect("the other trie serves");
        assert_eq!(*good, Trie::build(&opened.relations()[0].1));
        let first = opened.tries()[1].trie().unwrap_err();
        assert!(
            matches!(first, StoreError::ChecksumMismatch { .. }),
            "{first:?}"
        );
        assert!(opened.tries()[1].is_checked());
        let clone = opened.clone();
        assert_eq!(
            clone.tries()[1].trie().unwrap_err(),
            first,
            "same error again"
        );
        assert_eq!(opened.verify().unwrap_err(), first);
        // Saving keeps the damaged body and its recorded checksum, so the
        // damage is found again after a reopen.
        let resaved = opened.to_bytes();
        assert_eq!(resaved, bytes);
        let reopened = StoredCatalog::from_bytes(&resaved).unwrap();
        assert_eq!(reopened.verify().unwrap_err(), first);
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
        // A binary trie with values [1] and child_starts [0, 9] over a
        // 1-wide leaf: the offset table points past the leaf level. It is
        // caught on first touch.
        let mut body = Writer::new();
        body.words(&[1, 0, 9, 5]); // values, starts 0..9 (!), leaf value
        let body = body.into_bytes();
        let mut dir = Writer::new();
        dir.u64(1); // entry_count
        dir.u64(TRIE);
        dir.string("t");
        dir.u64(0xDEAD);
        dir.u64(2);
        dir.u64(0);
        dir.u64(1);
        dir_dims(&mut dir, 1, &[(1, 2), (1, 0)]);
        dir.u64(0); // offset
        dir.u64(body.len() as u64);
        dir.u64(lane_hash(&body));
        let opened = StoredCatalog::from_bytes(&frame_v4(dir, &body)).unwrap();
        let err = opened.verify().unwrap_err();
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
        // One relation entry over a 3-word body, its key fields as given.
        let relation = |kind: u64, name: &[u8], arity: u64, offset: u64, len: u64| {
            let body: Vec<u8> = [1u32, 2, 3].iter().flat_map(|w| w.to_le_bytes()).collect();
            let mut dir = Writer::new();
            dir.u64(1);
            dir.u64(kind);
            dir.u64(name.len() as u64);
            dir.bytes(name);
            dir.u64(arity);
            dir.u64(offset);
            dir.u64(len);
            dir.u64(lane_hash(&body));
            StoredCatalog::from_bytes(&frame_v4(dir, &body)).unwrap_err()
        };
        for (what, err) in [
            ("3 words under arity 2", relation(RELATION, b"r", 2, 0, 12)),
            ("zero arity", relation(RELATION, b"r", 0, 0, 12)),
            (
                "non-UTF-8 name",
                relation(RELATION, &[0xFF, 0xFE], 1, 0, 12),
            ),
            ("unknown kind", relation(9, b"r", 1, 0, 12)),
            ("past its predecessor", relation(RELATION, b"r", 1, 4, 12)),
        ] {
            assert!(
                matches!(err, StoreError::Malformed { .. }),
                "{what}: {err:?}"
            );
        }
        // Inflated word count: claims 2^40 words over a 12-byte body.
        let err = relation(RELATION, b"r", 1, 0, 4 << 40);
        assert!(matches!(err, StoreError::Truncated { .. }), "{err:?}");
    }

    #[test]
    fn catalogs_no_session_could_serve_are_rejected_at_open() {
        let edges = || Relation::from_pairs(vec![(1, 2), (2, 3)]);
        let delta = |arity: usize| {
            let row: Vec<u32> = (0..arity as u32).collect();
            RelationDelta::from_parts(
                Relation::from_tuples(arity, [&row]).unwrap(),
                Relation::new(arity).unwrap(),
            )
            .unwrap()
        };
        let mut twice = StoredCatalog::new();
        twice.insert_relation("G", edges());
        twice.insert_relation("G", Relation::from_pairs(vec![(5, 6)]));
        let mut wide = StoredCatalog::new();
        wide.insert_relation("G", edges());
        wide.insert_delta("G", delta(3));
        let mut orphan = StoredCatalog::new();
        orphan.insert_relation("G", edges());
        orphan.insert_delta("H", delta(2));
        let mut doubled = StoredCatalog::new();
        doubled.insert_relation("G", edges());
        doubled.insert_delta("G", delta(2));
        doubled.insert_delta("G", delta(2));
        for (what, cat, says) in [
            ("a relation named twice", twice, "stored twice"),
            ("a delta of another arity", wide, "arity 3"),
            ("a delta without its relation", orphan, "no relation"),
            ("two deltas of one relation", doubled, "two deltas"),
        ] {
            let err = StoredCatalog::from_bytes(&cat.to_bytes()).unwrap_err();
            assert!(
                matches!(err, StoreError::Malformed { ref detail } if detail.contains(says)),
                "{what}: {err:?}"
            );
        }
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
    fn every_catalog_writes_version_4() {
        let bytes = sample_catalog().to_bytes();
        assert_eq!(u32::from_le_bytes(bytes[8..12].try_into().unwrap()), 4);
        let dir_len = u64::from_le_bytes(bytes[12..20].try_into().unwrap()) as usize;
        assert_eq!(
            u64::from_le_bytes(bytes[20..28].try_into().unwrap()),
            lane_hash(&bytes[HEADER_BYTES..HEADER_BYTES + dir_len])
        );
        // One relation and two tries, and no delta.
        assert_eq!(&bytes[HEADER_BYTES..HEADER_BYTES + 8], &3u64.to_le_bytes());
        assert!(StoredCatalog::from_bytes(&bytes)
            .unwrap()
            .deltas()
            .is_empty());
    }

    #[test]
    fn deltas_round_trip_as_version_4() {
        let mut cat = sample_catalog();
        let d = RelationDelta::from_parts(
            Relation::from_pairs(vec![(7, 8), (9, 1)]),
            Relation::from_pairs(vec![(1, 2)]),
        )
        .unwrap();
        cat.insert_delta("edge", d.clone());
        let bytes = cat.to_bytes();
        assert_eq!(u32::from_le_bytes(bytes[8..12].try_into().unwrap()), 4);
        let back = StoredCatalog::from_bytes(&bytes).unwrap();
        assert_eq!(back.deltas().len(), 1);
        assert_eq!(back.deltas()[0].0, "edge");
        assert_eq!(back.deltas()[0].1, d);
        assert_eq!(back.to_bytes(), bytes, "re-serialization is stable");
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
        // Hand-craft a delta entry that lists (1,2) as both insert and
        // tombstone — from_parts can't see this (it only checks arity), so
        // the store validates disjointness itself.
        let mut body = Writer::new();
        body.words(&[1, 2, 1, 2]);
        let body = body.into_bytes();
        let mut dir = Writer::new();
        dir.u64(1); // entry_count
        dir.u64(DELTA);
        dir.string("r");
        dir.u64(2); // arity
        dir.u64(2); // insert words
        dir.u64(2); // tombstone words
        dir.u64(0); // offset
        dir.u64(body.len() as u64);
        dir.u64(lane_hash(&body));
        let err = StoredCatalog::from_bytes(&frame_v4(dir, &body)).unwrap_err();
        assert!(
            matches!(err, StoreError::Malformed { ref detail } if detail.contains("insert and tombstone")),
            "got {err:?}"
        );
    }
}
