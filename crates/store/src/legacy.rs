//! The eager reader of store format versions 1–3, kept only to open files
//! written by earlier builds; nothing writes these versions any more.
//!
//! Their payload is one stream, checked by one checksum over all of it:
//!
//! ```text
//! rel_count  u64
//! per relation:
//!   name_len u64, name (UTF-8), arity u64, word_count u64, words u32[]
//! trie_count u64
//! per trie:
//!   name_len u64, name (UTF-8), fingerprint u64,
//!   perm_len u64, perm u64[], tuple_count u64,
//!   level_count u64, (values_len u64, child_len u64) per level,
//!   word_count u64, words u32[]
//! delta_count u64                       (versions 2 and 3)
//! per delta:
//!   name_len u64, name (UTF-8), arity u64,
//!   insert_word_count u64, words u32[],
//!   tombstone_word_count u64, words u32[]
//! ```
//!
//! Versions 1 and 2 hash with byte-serial FNV-1a instead of the lane hash:
//! the checksum over the payload, and the fingerprint over the arity (as a
//! `u64`) and the row words. Their tries are re-keyed: a stored trie whose
//! fingerprint equals the FNV-1a fingerprint of the relation of the same
//! name in the file is re-filed under that relation's current fingerprint,
//! so it keeps serving with zero builds. Any other key was already stale
//! when the file was saved and stays unreachable.

use std::sync::Arc;

use triejax_relation::{Relation, Trie};

use crate::format::{legacy_fingerprint, Reader};
use crate::{check_perm, delta_from_sides, layout_error, StoreError, StoredCatalog};

/// Parses the payload of a version-1, -2 or -3 file whose checksum has
/// already been verified, checking every trie and delta as it goes.
pub(crate) fn parse(version: u32, payload: &[u8]) -> Result<StoredCatalog, StoreError> {
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
        let trie =
            Trie::from_parts(words, &dims, tuple_count).map_err(|e| layout_error(&name, e))?;
        check_perm(&name, &perm, trie.arity())?;
        catalog.insert_trie(name, fingerprint, perm, Arc::new(trie));
    }
    if version >= 2 {
        let delta_count = r.count()?;
        for _ in 0..delta_count {
            let name = r.string()?;
            let arity = r.count()?;
            let insert_words = r.count()?;
            let inserts = r.words(insert_words)?;
            let tombstone_words = r.count()?;
            let tombstones = r.words(tombstone_words)?;
            let delta = delta_from_sides(&name, arity, inserts, tombstones)?;
            catalog.insert_delta(name, delta);
        }
    }
    if !r.is_exhausted() {
        return Err(StoreError::Malformed {
            detail: format!("{} unparsed bytes inside payload", r.remaining()),
        });
    }
    if version < 3 {
        rekey_tries(&mut catalog);
    }
    Ok(catalog)
}

/// Re-files the tries of a version-1 or version-2 file under the current
/// fingerprint: a trie keyed by the FNV-1a fingerprint of the same-name
/// relation in the file is that relation's trie. Any other key was stale
/// when saved and stays as it is, unreachable.
fn rekey_tries(catalog: &mut StoredCatalog) {
    let legacy: Vec<u64> = catalog
        .relations
        .iter()
        .map(|(_, rel)| legacy_fingerprint(rel))
        .collect();
    for t in &mut catalog.tries {
        let owner = catalog
            .relations
            .iter()
            .zip(&legacy)
            .find(|((name, _), &fp)| *name == t.name && fp == t.fingerprint);
        if let Some(((_, rel), _)) = owner {
            t.fingerprint = rel.fingerprint();
        }
    }
}
