//! Property tests for the relation/trie substrate.

use proptest::prelude::*;
use triejax_exec::WorkerPool;
use triejax_relation::{
    AccessCounter, JoinCursor, MergeCursor, NoTally, Relation, RelationDelta, Trie, TrieCursor,
    Value,
};

fn arb_tuples(
    arity: usize,
    max_len: usize,
    domain: Value,
) -> impl Strategy<Value = Vec<Vec<Value>>> {
    prop::collection::vec(prop::collection::vec(0..domain, arity), 0..max_len)
}

/// Depth-first enumeration of everything below the cursor's root.
fn enumerate<C: JoinCursor>(cur: &mut C, arity: usize) -> Vec<Vec<Value>> {
    fn walk<C: JoinCursor>(
        cur: &mut C,
        arity: usize,
        row: &mut Vec<Value>,
        out: &mut Vec<Vec<Value>>,
    ) {
        let c = &mut AccessCounter::default();
        if !cur.open(c) {
            return;
        }
        loop {
            row.push(cur.key());
            if cur.depth() == arity {
                out.push(row.clone());
            } else {
                let before = out.len();
                walk(cur, arity, row, out);
                assert!(out.len() > before, "phantom node at {row:?}");
            }
            row.pop();
            if !cur.next(c) {
                break;
            }
        }
        cur.up();
    }
    let mut out = Vec::new();
    walk(cur, arity, &mut Vec::new(), &mut out);
    out
}

/// Everything a driver can observe of a cursor between two operations.
#[derive(Debug, PartialEq)]
struct Observed {
    answer: Option<u64>,
    depth: usize,
    key: Option<Value>,
    siblings: Vec<Value>,
    tally: AccessCounter,
}

/// Applies one scripted operation when the cursor's state allows it (the
/// guards read only what `Observed` compares, so two cursors that agreed so
/// far take the same branch) and reports what the cursor shows afterwards.
fn step<C: JoinCursor>(
    cur: &mut C,
    arity: usize,
    (op, v, w): (u8, Value, Value),
    c: &mut AccessCounter,
) -> Observed {
    let live = cur.depth() > 0 && !cur.at_end();
    let can_open = cur.depth() < arity && (cur.depth() == 0 || live);
    let answer = match op {
        0 if can_open => Some(cur.open(c) as u64),
        1 if can_open => Some(cur.open_range(v, (w > 0).then_some(v + w), c) as u64),
        2 if live => Some(cur.next(c) as u64),
        3 if live => Some(cur.seek(v, c) as u64),
        4 if cur.depth() > 0 => {
            cur.up();
            None
        }
        _ => None,
    };
    let open = cur.depth() > 0;
    Observed {
        answer,
        depth: cur.depth(),
        key: (open && !cur.at_end()).then(|| cur.key()),
        siblings: match open {
            true => cur.sibling_slice().expect("one slice per level").to_vec(),
            false => Vec::new(),
        },
        tally: *c,
    }
}

proptest! {
    /// The patched merged view is indistinguishable from a trie rebuilt
    /// over `delta.merge_into(base)`: same tuples, no node without a tuple
    /// below it, and under any operation sequence the same answers, keys,
    /// sibling slices and tallies as a `TrieCursor` over the rebuilt trie.
    /// Small domains make overlapping inserts, re-inserted tombstones,
    /// fully tombstoned subtrees and one-sided views common.
    #[test]
    fn merged_view_equals_the_rebuilt_trie(
        arity in 1usize..=3,
        raw_base in arb_tuples(3, 40, 5),
        batches in prop::collection::vec((arb_tuples(3, 12, 5), arb_tuples(3, 30, 5)), 0..4),
        keep_empty_base in 0u8..2,
        script in prop::collection::vec((0u8..5, 0u32..7, 0u32..4), 0..60),
    ) {
        let cut = |rows: Vec<Vec<Value>>| {
            Relation::from_tuples(arity, rows.into_iter().map(|mut t| { t.truncate(arity); t }))
                .unwrap()
        };
        let base_rel = cut(raw_base);
        let mut delta = RelationDelta::empty(arity).unwrap();
        for (inserts, deletes) in batches {
            delta = delta.apply_batch(&base_rel, &cut(inserts), &cut(deletes));
        }
        let merged_rel = delta.merge_into(&base_rel);
        let rebuilt = Trie::build(&merged_rel);

        let base = (!base_rel.is_empty() || keep_empty_base == 1).then(|| Trie::build(&base_rel));
        let inserts = (!delta.inserts().is_empty()).then(|| Trie::build(delta.inserts()));
        let merged = MergeCursor::new(base.as_ref(), inserts.as_ref(), delta.tombstones());

        let expect: Vec<Vec<Value>> = merged_rel.iter().map(<[Value]>::to_vec).collect();
        prop_assert_eq!(enumerate(&mut merged.fresh(), arity), expect);

        let (mut ours, mut theirs) = (merged.fresh(), TrieCursor::new(&rebuilt));
        let (mut c_ours, mut c_theirs) = (AccessCounter::default(), AccessCounter::default());
        for (i, op) in script.into_iter().enumerate() {
            let got = step(&mut ours, arity, op, &mut c_ours);
            let want = step(&mut theirs, arity, op, &mut c_theirs);
            prop_assert_eq!(got, want, "operation {} = {:?}", i, op);
        }
    }

    /// Trie enumeration reproduces exactly the sorted deduplicated input.
    #[test]
    fn trie_round_trip(tuples in arb_tuples(3, 60, 16)) {
        let rel = Relation::from_tuples(3, tuples).unwrap();
        let trie = Trie::build(&rel);
        let out = trie.enumerate();
        let expect: Vec<Vec<Value>> = rel.iter().map(|t| t.to_vec()).collect();
        prop_assert_eq!(out, expect);
        prop_assert_eq!(trie.tuple_count(), rel.len());
    }

    /// The one-pass build holds exactly the relation's rows, and its flat
    /// buffer is one `from_parts` accepts and re-adopts unchanged — on
    /// arities 1–4, roots uniform or piled up near zero, and domains
    /// sparse (24 ids) or dense (3 ids, so most prefixes repeat).
    #[test]
    fn trie_build_matches_the_rows(
        arity in 1usize..=4,
        raw in arb_tuples(4, 120, 24),
        skew in 0u32..2,
        domain in prop::sample::select(vec![3u32, 24]),
    ) {
        let tuples = raw.into_iter().map(|t| {
            let mut t: Vec<Value> = t[..arity].iter().map(|&v| v % domain).collect();
            if skew == 1 {
                t[0] = (t[0] * t[0]) / domain;
            }
            t
        });
        let rel = Relation::from_tuples(arity, tuples).unwrap();
        let trie = Trie::build(&rel);
        let rows: Vec<Vec<Value>> = rel.iter().map(<[Value]>::to_vec).collect();
        prop_assert_eq!(trie.enumerate(), rows);
        prop_assert_eq!(trie.tuple_count(), rel.len());
        let adopted = Trie::from_parts(trie.words().to_vec(), &trie.level_dims(), rel.len());
        prop_assert_eq!(adopted.as_ref(), Ok(&trie));
    }

    /// Every trie level stores sorted runs within each parent's child range.
    #[test]
    fn trie_sibling_runs_are_sorted(tuples in arb_tuples(2, 80, 12)) {
        let rel = Relation::from_tuples(2, tuples).unwrap();
        let trie = Trie::build(&rel);
        let l0 = trie.level(0);
        prop_assert!(l0.values().windows(2).all(|w| w[0] < w[1]));
        for i in 0..l0.len() {
            let (s, e) = l0.child_range(i);
            let kids = &trie.level(1).values()[s..e];
            prop_assert!(!kids.is_empty());
            prop_assert!(kids.windows(2).all(|w| w[0] < w[1]));
        }
    }

    /// `seek` agrees with a linear scan for the lowest upper bound.
    #[test]
    fn seek_matches_linear_scan(mut vals in prop::collection::btree_set(0u32..200, 1..50), probe in 0u32..220) {
        let tuples: Vec<Vec<Value>> = vals.iter().map(|&v| vec![v]).collect();
        let rel = Relation::from_tuples(1, tuples).unwrap();
        let trie = Trie::build(&rel);
        let mut cur = TrieCursor::new(&trie);
        let mut c = AccessCounter::default();
        cur.open(&mut c);
        let found = cur.seek(probe, &mut c);
        let expect = vals.iter().copied().find(|&v| v >= probe);
        match expect {
            Some(v) => {
                prop_assert!(found);
                prop_assert_eq!(cur.key(), v);
            }
            None => prop_assert!(!found),
        }
        // Keep the borrow checker quiet about `vals` mutability lint.
        vals.clear();
    }

    /// An untallied seek lands where the tallied one does — same answer,
    /// position, at-end flag and key — on dense roots (which usually carry
    /// a root directory) and roots spread ×1000 (which never do), inside a
    /// random `open_root_range` clamp, over seek sequences that mix
    /// `max + 1`, targets past `max`, targets behind the current key and
    /// forward strides.
    #[test]
    fn untallied_seek_equals_tallied_seek(
        roots in prop::collection::btree_set(0u32..48, 1..40),
        spread in prop::sample::select(vec![1u32, 1000]),
        (min, width) in (0u32..56, 0u32..56),
        seeks in prop::collection::vec((0u8..4, 0u32..64), 1..40),
    ) {
        let trie = Trie::build(&Relation::from_pairs(roots.iter().map(|&x| (x * spread, x))));
        // Beyond the stored words, the resident ones are the leaf bitmaps —
        // one `u64` per root here, every leaf being a single value below
        // 64 — and the directory, which exists exactly when
        // `max + 2 <= 2 * len`.
        let max = roots.last().unwrap() * spread;
        let leaf_bytes = 8 * roots.len() as u64;
        let has_dir = trie.bytes() > trie.words().len() as u64 * 4 + leaf_bytes;
        prop_assert_eq!(has_dir, max as usize + 2 <= 2 * roots.len());
        let (min, sup) = (min * spread, (width > 0).then_some((min + width) * spread));

        let (mut fast, mut slow) = (TrieCursor::new(&trie), TrieCursor::new(&trie));
        let mut c = AccessCounter::default();
        let opened = slow.open_root_range(min, sup, &mut c);
        prop_assert_eq!(fast.open_root_range(min, sup, &mut NoTally), opened);
        prop_assume!(opened);
        for (i, (kind, w)) in seeks.into_iter().enumerate() {
            if slow.at_end() {
                break;
            }
            let key = slow.key();
            let v = match kind {
                0 => max + 1,
                1 => max + 1 + w,
                2 => key.saturating_sub(w),
                _ => key + w * spread / 4,
            };
            let found = slow.seek(v, &mut c);
            prop_assert_eq!(fast.seek(v, &mut NoTally), found, "seek {} to {}", i, v);
            prop_assert_eq!(fast.at_end(), slow.at_end(), "seek {} to {}", i, v);
            prop_assert_eq!(fast.sibling_slice(), slow.sibling_slice(), "seek {} to {}", i, v);
            if found {
                prop_assert_eq!((fast.pos(), fast.key()), (slow.pos(), slow.key()));
            }
        }
    }

    /// A trie keeps leaf bitmaps exactly when they fit the cap — at most
    /// one `u64` word per leaf value across all parents — and a cursor
    /// hands one out exactly when its leaf frame is the whole child list
    /// of its parent, as a set equal to `sibling_slice`. Under random
    /// operation scripts on dense and spread ids, a frame narrowed by
    /// `open_range`, or moved by `next` or `seek`, gets `None`.
    #[test]
    fn sibling_bits_equal_the_whole_sibling_slice(
        arity in 1usize..=3,
        raw in arb_tuples(3, 60, 12),
        spread in prop::sample::select(vec![1u32, 7, 1000]),
        script in prop::collection::vec((0u8..5, 0u32..90, 0u32..30), 0..60),
    ) {
        let rel = Relation::from_tuples(
            arity,
            raw.into_iter().map(|t| t[..arity].iter().map(|&v| v * spread).collect::<Vec<_>>()),
        )
        .unwrap();
        let trie = Trie::build(&rel);
        let leaf = trie.level(arity - 1).values();
        let parents = if arity == 1 { 1 } else { trie.level(arity - 2).len() };
        let fits = leaf.iter().max().is_some_and(|&max| parents * (max as usize / 64 + 1) <= leaf.len());
        let mut cur = TrieCursor::new(&trie);
        prop_assert_eq!(cur.has_leaf_bits(), fits);

        let c = &mut AccessCounter::default();
        for (i, (op, v, w)) in script.into_iter().enumerate() {
            let before = (cur.depth() > 0 && !cur.at_end()).then(|| cur.key());
            step(&mut cur, arity, (op, v * spread / 4, w * spread / 4), c);
            if cur.depth() != arity {
                continue;
            }
            // The whole child list of the leaf frame's parent.
            let mut whole = cur.clone();
            whole.up();
            whole.open(&mut NoTally);
            let is_whole = cur.sibling_slice() == whole.sibling_slice();
            let bits = cur.sibling_bits();
            prop_assert_eq!(bits.is_some(), fits && is_whole, "operation {}", i);
            let moved = match op {
                2 => before.is_some(),
                3 => before.is_some() && (cur.at_end() || before != Some(cur.key())),
                _ => false,
            };
            prop_assert!(!(moved && bits.is_some()), "operation {} moved", i);
            if let Some(bits) = bits {
                let set: Vec<Value> = (0..bits.len() * 64)
                    .filter(|&b| bits[b / 64] >> (b % 64) & 1 == 1)
                    .map(|b| b as Value)
                    .collect();
                prop_assert_eq!(&set[..], cur.sibling_slice(), "operation {}", i);
            }
        }
    }

    /// Parallel trie construction is byte-identical to the sequential
    /// build — same `Trie`, field for field — across pool sizes (1, 2,
    /// 7), arities 1–4, and both uniform and power-law root-key skew
    /// (squaring a uniform draw concentrates mass near zero, so
    /// partition boundaries land mid-root-group and must snap forward).
    /// Empty and single-row relations ride along via the 0-length end of
    /// the size range.
    #[test]
    fn par_build_matches_build(
        arity in 1usize..=4,
        raw in arb_tuples(4, 80, 24),
        skew in 0u32..2,
    ) {
        let tuples: Vec<Vec<Value>> = raw
            .into_iter()
            .map(|mut t| {
                t.truncate(arity);
                if skew == 1 {
                    t[0] = (t[0] * t[0]) / 24; // power-law-ish pile-up at small roots
                }
                t
            })
            .collect();
        let rel = Relation::from_tuples(arity, tuples).unwrap();
        let seq = Trie::build(&rel);
        for workers in [1usize, 2, 7] {
            let pool = WorkerPool::with_workers(workers);
            let par = Trie::par_build(&rel, &pool);
            prop_assert_eq!(&par, &seq, "pool of {} diverged", workers);
        }
    }

    /// Pool-parallel permute+normalize produces exactly the sequential
    /// relation: same sort, same dedup, any worker count.
    #[test]
    fn permute_on_matches_permute_under_any_pool(tuples in arb_tuples(3, 70, 8)) {
        let rel = Relation::from_tuples(3, tuples).unwrap();
        let perm = [2usize, 0, 1];
        let seq = rel.permute(&perm);
        for workers in [1usize, 2, 7] {
            let pool = WorkerPool::with_workers(workers);
            prop_assert_eq!(&rel.permute_on(&perm, &pool), &seq);
        }
    }

    /// Permuting twice with inverse permutations round-trips.
    #[test]
    fn permute_round_trip(tuples in arb_tuples(3, 40, 10)) {
        let rel = Relation::from_tuples(3, tuples).unwrap();
        let perm = [2usize, 0, 1];
        let inv = [1usize, 2, 0];
        prop_assert_eq!(rel.permute(&perm).permute(&inv), rel);
    }

    /// Cursor traversal visits tuples in lexicographic order and counts
    /// at least one access per visited node.
    #[test]
    fn full_scan_is_ordered(tuples in arb_tuples(2, 60, 10)) {
        let rel = Relation::from_tuples(2, tuples).unwrap();
        let trie = Trie::build(&rel);
        let mut cur = TrieCursor::new(&trie);
        let mut c = AccessCounter::default();
        let mut seen: Vec<(Value, Value)> = Vec::new();
        if cur.open(&mut c) {
            loop {
                let x = cur.key();
                cur.open(&mut c);
                loop {
                    seen.push((x, cur.key()));
                    if !cur.next(&mut c) { break; }
                }
                cur.up();
                if !cur.next(&mut c) { break; }
            }
        }
        let expect: Vec<(Value, Value)> = rel.iter().map(|t| (t[0], t[1])).collect();
        prop_assert_eq!(&seen, &expect);
        if !seen.is_empty() {
            prop_assert!(c.index_reads as usize >= seen.len());
        }
    }
}
