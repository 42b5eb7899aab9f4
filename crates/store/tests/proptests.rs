//! The byte boundary of the store: whatever is done to a valid file — cut
//! short, one bit flipped, a length field made to lie — opening it returns
//! a typed [`StoreError`], never a panic or an outsized allocation, and a
//! flipped payload bit is always caught by the checksum.

use std::sync::Arc;

use proptest::prelude::*;
use triejax_relation::{lane_hash, Relation, RelationDelta, Trie, Value};
use triejax_store::{StoreError, StoredCatalog};

/// Bytes before the payload: magic, version, payload length, checksum.
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

/// Offsets (within the payload) of every field that counts bytes or
/// entries, found by walking the version-3 layout.
fn length_fields(payload: &[u8]) -> Vec<usize> {
    let mut fields = Vec::new();
    let mut at = 0;
    let mut read = |at: &mut usize, is_length: bool| {
        if is_length {
            fields.push(*at);
        }
        let v = u64::from_le_bytes(payload[*at..*at + 8].try_into().unwrap()) as usize;
        *at += 8;
        v
    };
    for _ in 0..read(&mut at, true) {
        at += read(&mut at, true); // name
        read(&mut at, false); // arity
        at += 4 * read(&mut at, true);
    }
    for _ in 0..read(&mut at, true) {
        at += read(&mut at, true); // name
        read(&mut at, false); // fingerprint
        for _ in 0..read(&mut at, true) {
            read(&mut at, false); // perm entry
        }
        read(&mut at, false); // tuple count
        for _ in 0..read(&mut at, true) {
            read(&mut at, true); // values
            read(&mut at, true); // child entries
        }
        at += 4 * read(&mut at, true);
    }
    for _ in 0..read(&mut at, true) {
        at += read(&mut at, true); // name
        read(&mut at, false); // arity
        at += 4 * read(&mut at, true); // inserts
        at += 4 * read(&mut at, true); // tombstones
    }
    assert_eq!(at, payload.len(), "the walk covers the payload");
    fields
}

/// `bytes`' header around a new `payload`, with a correct length and
/// checksum.
fn reframe(bytes: &[u8], payload: &[u8]) -> Vec<u8> {
    let mut out = bytes[..12].to_vec();
    out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    out.extend_from_slice(&lane_hash(payload).to_le_bytes());
    out.extend_from_slice(payload);
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
        prop_assert!(StoredCatalog::from_bytes(&bytes).is_ok());

        // Cut anywhere: inside the header, or short of the payload it
        // announces.
        let cut = (cut % bytes.len() as u64) as usize;
        let err = StoredCatalog::from_bytes(&bytes[..cut]).unwrap_err();
        prop_assert!(matches!(err, StoreError::Truncated { .. }), "cut {}: {:?}", cut, err);

        // Every single-bit flip fails; inside the payload it is a checksum
        // mismatch.
        for bit in 0..bytes.len() * 8 {
            let mut flipped = bytes.clone();
            flipped[bit / 8] ^= 1 << (bit % 8);
            let err = StoredCatalog::from_bytes(&flipped).unwrap_err();
            prop_assert!(
                bit / 8 < HEADER || matches!(err, StoreError::ChecksumMismatch { .. }),
                "bit {}: {:?}", bit, err
            );
        }

        // Each length field in turn claiming more than it holds, under a
        // valid checksum so the parser itself has to catch it.
        let payload = &bytes[HEADER..];
        for at in length_fields(payload) {
            let truth = u64::from_le_bytes(payload[at..at + 8].try_into().unwrap());
            for claim in [truth + 1 + lie % 64, 1 << 40, u64::MAX - lie % 4] {
                let mut lying = payload.to_vec();
                lying[at..at + 8].copy_from_slice(&claim.to_le_bytes());
                prop_assert!(
                    StoredCatalog::from_bytes(&reframe(&bytes, &lying)).is_err(),
                    "field at {} claiming {} (truly {}) parsed", at, claim, truth
                );
            }
        }
    }
}
