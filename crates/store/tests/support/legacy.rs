//! A writer of store format versions 1–3, which the library reads but no
//! longer writes, so tests can make the files earlier builds made.

use triejax_relation::{lane_hash, Relation};
use triejax_store::StoredCatalog;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// Continues byte-serial FNV-1a, the hash of format versions 1 and 2.
pub fn fnv1a64(h: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(h, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// The fingerprint of versions 1 and 2: FNV-1a over the arity as a `u64`,
/// then the row words.
pub fn fnv_fingerprint(rel: &Relation) -> u64 {
    let arity = fnv1a64(FNV_OFFSET, &(rel.arity() as u64).to_le_bytes());
    rel.values()
        .iter()
        .fold(arity, |h, v| fnv1a64(h, &v.to_le_bytes()))
}

/// What a build writing format `version` (1, 2 or 3) wrote for `cat`: one
/// payload of relations, tries and — from version 2 on — deltas, under one
/// checksum. Versions 1 and 2 hash with FNV-1a, and key every trie that
/// indexes a relation of the catalog by that relation's FNV-1a
/// fingerprint.
///
/// # Panics
///
/// Panics if a trie of `cat` fails its check, or if `cat` holds deltas
/// and `version` is 1.
pub fn legacy_file(cat: &StoredCatalog, version: u32) -> Vec<u8> {
    fn u64_(p: &mut Vec<u8>, v: u64) {
        p.extend_from_slice(&v.to_le_bytes());
    }
    fn name(p: &mut Vec<u8>, s: &str) {
        u64_(p, s.len() as u64);
        p.extend_from_slice(s.as_bytes());
    }
    fn words(p: &mut Vec<u8>, w: &[u32]) {
        u64_(p, w.len() as u64);
        p.extend(w.iter().flat_map(|x| x.to_le_bytes()));
    }
    let mut p = Vec::new();
    u64_(&mut p, cat.relations().len() as u64);
    for (n, rel) in cat.relations() {
        name(&mut p, n);
        u64_(&mut p, rel.arity() as u64);
        words(&mut p, rel.values());
    }
    u64_(&mut p, cat.tries().len() as u64);
    for t in cat.tries() {
        let trie = t.trie().expect("a checked trie");
        let owner = (cat.relations().iter())
            .find(|(n, rel)| *n == t.name && rel.fingerprint() == t.fingerprint);
        let fingerprint = match owner {
            Some((_, rel)) if version < 3 => fnv_fingerprint(rel),
            _ => t.fingerprint,
        };
        name(&mut p, &t.name);
        u64_(&mut p, fingerprint);
        u64_(&mut p, t.perm.len() as u64);
        for &x in &t.perm {
            u64_(&mut p, x as u64);
        }
        u64_(&mut p, trie.tuple_count() as u64);
        u64_(&mut p, trie.arity() as u64);
        for (v, c) in trie.level_dims() {
            u64_(&mut p, v as u64);
            u64_(&mut p, c as u64);
        }
        words(&mut p, trie.words());
    }
    if version >= 2 {
        u64_(&mut p, cat.deltas().len() as u64);
        for (n, d) in cat.deltas() {
            name(&mut p, n);
            u64_(&mut p, d.arity() as u64);
            words(&mut p, d.inserts().values());
            words(&mut p, d.tombstones().values());
        }
    } else {
        assert!(cat.deltas().is_empty(), "version 1 has no delta section");
    }
    let checksum = match version {
        1 | 2 => fnv1a64(FNV_OFFSET, &p),
        _ => lane_hash(&p),
    };
    let mut file = b"TJXSTORE".to_vec();
    file.extend_from_slice(&version.to_le_bytes());
    file.extend_from_slice(&(p.len() as u64).to_le_bytes());
    file.extend_from_slice(&checksum.to_le_bytes());
    file.extend_from_slice(&p);
    file
}
