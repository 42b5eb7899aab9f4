//! The byte boundary of the store: whatever is done to a valid file — cut
//! short, one bit flipped, a length field made to lie — opening it and
//! checking every trie returns a typed [`StoreError`], never a panic or an
//! outsized allocation, and a flipped bit past the header is always caught
//! by a checksum.

use std::sync::Arc;

use proptest::prelude::*;
use triejax_relation::{lane_hash, Relation, RelationDelta, Trie, Value};
use triejax_store::{StoreError, StoredCatalog};

/// Bytes before the directory: magic, version, directory length, checksum.
const HEADER: usize = 28;

/// Every permutation of `0..n` for `n <= 3`, in lexicographic order.
fn perms(n: usize) -> Vec<Vec<usize>> {
    match n {
        1 => vec![vec![0]],
        2 => vec![vec![0, 1], vec![1, 0]],
        _ => vec![
            vec![0, 1, 2],
            vec![0, 2, 1],
            vec![1, 0, 2],
            vec![1, 2, 0],
            vec![2, 0, 1],
            vec![2, 1, 0],
        ],
    }
}

/// A catalog of one or two relations over a small domain, each with a trie
/// under a chosen permutation, plus a pending delta on the first relation
/// when `delta` is non-empty.
fn catalog(shapes: &[(usize, Vec<Vec<Value>>, usize)], delta: &[Vec<Value>]) -> StoredCatalog {
    let mut cat = StoredCatalog::new();
    for (i, (arity, rows, perm)) in shapes.iter().enumerate() {
        let name = format!("r{i}");
        let cut = |rows: &[Vec<Value>]| {
            Relation::from_tuples(*arity, rows.iter().map(|t| &t[..*arity])).unwrap()
        };
        let rel = cut(rows);
        let all = perms(*arity);
        let perm = all[perm % all.len()].clone();
        let trie = Arc::new(Trie::build(&rel.permute(&perm)));
        cat.insert_trie(name.clone(), rel.fingerprint(), perm, trie);
        if i == 0 && !delta.is_empty() {
            let candidates = cut(delta);
            let fresh: Vec<&[Value]> = candidates
                .iter()
                .filter(|t| !rel.iter().any(|r| r == *t))
                .collect();
            let inserts = Relation::from_tuples(*arity, fresh).unwrap();
            let tombstones = Relation::from_tuples(*arity, rel.iter().take(1)).unwrap();
            let d = RelationDelta::from_parts(inserts, tombstones).unwrap();
            cat.insert_delta(name.clone(), d);
        }
        cat.insert_relation(name, rel);
    }
    cat
}

/// Reads the little-endian `u64` at `*at`, advancing past it, and records
/// its offset in `fields` when it counts bytes or entries.
fn field(bytes: &[u8], at: &mut usize, fields: &mut Vec<usize>, is_length: bool) -> usize {
    if is_length {
        fields.push(*at);
    }
    let v = u64::from_le_bytes(bytes[*at..*at + 8].try_into().unwrap()) as usize;
    *at += 8;
    v
}

/// Offsets (within the directory) of every field of the directory that
/// counts bytes or entries, or places a body.
fn length_fields(dir: &[u8]) -> Vec<usize> {
    let mut fields = Vec::new();
    let mut at = 0;
    let f = &mut fields;
    for _ in 0..field(dir, &mut at, f, true) {
        let kind = field(dir, &mut at, f, false);
        at += field(dir, &mut at, f, true); // name
        match kind {
            1 => {
                field(dir, &mut at, f, false); // arity
            }
            2 => {
                field(dir, &mut at, f, false); // fingerprint
                for _ in 0..field(dir, &mut at, f, true) {
                    field(dir, &mut at, f, false); // perm entry
                }
                field(dir, &mut at, f, false); // tuple count
                for _ in 0..field(dir, &mut at, f, true) {
                    field(dir, &mut at, f, true); // values
                    field(dir, &mut at, f, true); // child entries
                }
            }
            _ => {
                field(dir, &mut at, f, false); // arity
                field(dir, &mut at, f, true); // insert words
                field(dir, &mut at, f, true); // tombstone words
            }
        }
        field(dir, &mut at, f, true); // offset
        field(dir, &mut at, f, true); // length
        field(dir, &mut at, f, false); // checksum
    }
    assert_eq!(at, dir.len(), "the walk covers the directory");
    fields
}

/// Opens `bytes` and checks every trie in it.
fn open_and_verify(bytes: &[u8]) -> Result<StoredCatalog, StoreError> {
    let catalog = StoredCatalog::from_bytes(bytes)?;
    catalog.verify()?;
    Ok(catalog)
}

/// `bytes`' header around a new directory `dir` of the same length, with a
/// correct checksum, and `bytes`' bodies after it.
fn reframe(bytes: &[u8], dir: &[u8]) -> Vec<u8> {
    let mut out = bytes[..20].to_vec();
    out.extend_from_slice(&lane_hash(dir).to_le_bytes());
    out.extend_from_slice(dir);
    out.extend_from_slice(&bytes[HEADER + dir.len()..]);
    out
}

fn arb_shape() -> impl Strategy<Value = (usize, Vec<Vec<Value>>, usize)> {
    (
        1usize..=3,
        prop::collection::vec(prop::collection::vec(0u32..9, 3), 0..24),
        0usize..6,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Cuts, bit flips and lying length fields all give a typed error.
    #[test]
    fn damaged_files_give_typed_errors(
        shapes in prop::collection::vec(arb_shape(), 1..3),
        delta in prop::collection::vec(prop::collection::vec(0u32..9, 3), 0..6),
        cut in any::<u64>(),
        lie in any::<u64>(),
    ) {
        let bytes = catalog(&shapes, &delta).to_bytes();
        prop_assert!(open_and_verify(&bytes).is_ok());

        // Cut anywhere: inside the header, or short of the sections it
        // announces.
        let cut = (cut % bytes.len() as u64) as usize;
        let err = open_and_verify(&bytes[..cut]).unwrap_err();
        prop_assert!(matches!(err, StoreError::Truncated { .. }), "cut {}: {:?}", cut, err);

        // Every single-bit flip fails; past the header it is a checksum
        // mismatch.
        for bit in 0..bytes.len() * 8 {
            let mut flipped = bytes.clone();
            flipped[bit / 8] ^= 1 << (bit % 8);
            let err = open_and_verify(&flipped).unwrap_err();
            prop_assert!(
                bit / 8 < HEADER || matches!(err, StoreError::ChecksumMismatch { .. }),
                "bit {}: {:?}", bit, err
            );
        }

        // Each length field in turn claiming more than it holds, under a
        // valid checksum so the parser itself has to catch it.
        let dir_len = u64::from_le_bytes(bytes[12..20].try_into().unwrap()) as usize;
        let dir = &bytes[HEADER..HEADER + dir_len];
        for at in length_fields(dir) {
            let truth = u64::from_le_bytes(dir[at..at + 8].try_into().unwrap());
            for claim in [truth + 1 + lie % 64, 1 << 40, u64::MAX - lie % 4] {
                let mut lying = dir.to_vec();
                lying[at..at + 8].copy_from_slice(&claim.to_le_bytes());
                prop_assert!(
                    open_and_verify(&reframe(&bytes, &lying)).is_err(),
                    "field at {} claiming {} (truly {}) parsed", at, claim, truth
                );
            }
        }
    }
}
