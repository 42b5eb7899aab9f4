//! Pending mutations kept beside a frozen base relation.
//!
//! A [`RelationDelta`] is the mutation layer of the incremental
//! maintenance subsystem: a small sorted relation of pending *inserts*
//! plus a sorted *tombstone* set of pending deletes, both held in **normal
//! form** relative to the base relation `B`:
//!
//! * `inserts ∩ B = ∅` — a pending insert is never already present;
//! * `tombstones ⊆ B` — a tombstone always names a live base tuple;
//! * (consequently `inserts ∩ tombstones = ∅`).
//!
//! The merged view a [`crate::MergeCursor`] exposes is then exactly
//! `(B − tombstones) ∪ inserts`, with the two unions/differences disjoint
//! — every tuple of the view comes from exactly one side, so
//! `|inserts| + |tombstones|` measures how far the view really is from
//! the base (what the compaction ratio compares).
//!
//! Batches fold in with *deletes-first, insert-wins* semantics (a tuple
//! both deleted and inserted in one batch ends up present):
//!
//! ```text
//! I' = (I \ del) ∪ (ins \ B)
//! T' = (T ∪ (del ∩ B)) \ ins
//! ```

use crate::{Relation, RelationError, Value};

/// Pending inserts and tombstoned deletes for one base relation, in
/// normal form (see the module docs).
///
/// # Example
///
/// ```
/// use triejax_relation::{Relation, RelationDelta};
///
/// let base = Relation::from_pairs(vec![(1, 2), (3, 4)]);
/// let delta = RelationDelta::empty(2)?.apply_batch(
///     &base,
///     &Relation::from_pairs(vec![(5, 6), (1, 2)]), // (1,2) already present
///     &Relation::from_pairs(vec![(3, 4), (9, 9)]), // (9,9) never existed
/// );
/// assert_eq!(delta.inserts(), &Relation::from_pairs(vec![(5, 6)]));
/// assert_eq!(delta.tombstones(), &Relation::from_pairs(vec![(3, 4)]));
/// let merged = delta.merge_into(&base);
/// assert_eq!(merged, Relation::from_pairs(vec![(1, 2), (5, 6)]));
/// # Ok::<(), triejax_relation::RelationError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RelationDelta {
    inserts: Relation,
    tombstones: Relation,
}

impl RelationDelta {
    /// An empty delta of the given arity.
    ///
    /// # Errors
    ///
    /// Returns [`RelationError::ZeroArity`] if `arity == 0`.
    pub fn empty(arity: usize) -> Result<Self, RelationError> {
        Ok(RelationDelta {
            inserts: Relation::new(arity)?,
            tombstones: Relation::new(arity)?,
        })
    }

    /// Reconstructs a delta from parts already known to be in normal form
    /// relative to their base (e.g. read back from the store).
    ///
    /// # Errors
    ///
    /// Returns [`RelationError::ArityMismatch`] when the two parts
    /// disagree on arity.
    pub fn from_parts(inserts: Relation, tombstones: Relation) -> Result<Self, RelationError> {
        if inserts.arity() != tombstones.arity() {
            return Err(RelationError::ArityMismatch {
                expected: inserts.arity(),
                found: tombstones.arity(),
            });
        }
        Ok(RelationDelta {
            inserts,
            tombstones,
        })
    }

    /// Number of attributes per tuple.
    pub fn arity(&self) -> usize {
        self.inserts.arity()
    }

    /// `true` when no mutation is pending.
    pub fn is_empty(&self) -> bool {
        self.inserts.is_empty() && self.tombstones.is_empty()
    }

    /// Total pending mutation size `|inserts| + |tombstones|` — the
    /// quantity the compaction ratio compares against the base size.
    pub fn len(&self) -> usize {
        self.inserts.len() + self.tombstones.len()
    }

    /// The pending inserts (disjoint from the base).
    pub fn inserts(&self) -> &Relation {
        &self.inserts
    }

    /// The pending deletes (a subset of the base).
    pub fn tombstones(&self) -> &Relation {
        &self.tombstones
    }

    /// Folds one mutation batch into this delta, returning the new delta
    /// in normal form relative to `base`. Deletes apply first and an
    /// insert of the same tuple wins, so a tuple both deleted and
    /// inserted in the batch ends up present.
    ///
    /// # Panics
    ///
    /// Panics when `base`, `inserts` or `deletes` disagree on arity.
    #[must_use]
    pub fn apply_batch(&self, base: &Relation, inserts: &Relation, deletes: &Relation) -> Self {
        assert_eq!(self.arity(), base.arity(), "delta/base arity mismatch");
        assert_eq!(self.arity(), inserts.arity(), "insert batch arity mismatch");
        assert_eq!(self.arity(), deletes.arity(), "delete batch arity mismatch");
        let next_inserts = union(
            &difference(&self.inserts, deletes),
            &difference(inserts, base),
        );
        let next_tombstones = difference(
            &union(&self.tombstones, &intersection(deletes, base)),
            inserts,
        );
        debug_assert!(intersection(&next_inserts, base).is_empty());
        debug_assert_eq!(intersection(&next_tombstones, base), next_tombstones);
        RelationDelta {
            inserts: next_inserts,
            tombstones: next_tombstones,
        }
    }

    /// Materializes the merged view `(base − tombstones) ∪ inserts` — the
    /// compaction product that becomes the new frozen base.
    ///
    /// # Panics
    ///
    /// Panics when `base` disagrees on arity.
    pub fn merge_into(&self, base: &Relation) -> Relation {
        assert_eq!(self.arity(), base.arity(), "delta/base arity mismatch");
        union(&difference(base, &self.tombstones), &self.inserts)
    }

    /// The *net effect* of a batch applied on top of this delta: the
    /// tuples the merged view gains (`added`) and loses (`removed`).
    /// These feed the semi-naive standing-query evaluation — `added` is
    /// disjoint from the old view, `removed` is a subset of it, and
    /// (new view) = (old view − removed) ∪ added.
    ///
    /// # Panics
    ///
    /// Panics when any argument disagrees on arity.
    pub fn batch_effects(
        &self,
        base: &Relation,
        inserts: &Relation,
        deletes: &Relation,
    ) -> (Relation, Relation) {
        assert_eq!(self.arity(), base.arity(), "delta/base arity mismatch");
        assert_eq!(self.arity(), inserts.arity(), "insert batch arity mismatch");
        assert_eq!(self.arity(), deletes.arity(), "delete batch arity mismatch");
        let in_old_view = |row: &[Value]| {
            (contains_row(base, row) && !contains_row(&self.tombstones, row))
                || contains_row(&self.inserts, row)
        };
        let added =
            Relation::from_tuples(self.arity(), inserts.iter().filter(|row| !in_old_view(row)))
                .expect("arity checked above");
        let removed = Relation::from_tuples(
            self.arity(),
            deletes
                .iter()
                .filter(|row| in_old_view(row) && !contains_row(inserts, row)),
        )
        .expect("arity checked above");
        (added, removed)
    }
}

/// `true` when the sorted relation contains `row` (binary search).
///
/// # Panics
///
/// Panics when `row.len()` differs from the relation arity.
pub fn contains_row(rel: &Relation, row: &[Value]) -> bool {
    assert_eq!(rel.arity(), row.len(), "probe arity mismatch");
    let mut lo = 0usize;
    let mut hi = rel.len();
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        match rel.tuple(mid).cmp(row) {
            std::cmp::Ordering::Less => lo = mid + 1,
            std::cmp::Ordering::Greater => hi = mid,
            std::cmp::Ordering::Equal => return true,
        }
    }
    false
}

/// Rows of `a` absent from `b` (sorted two-pointer merge).
pub fn difference(a: &Relation, b: &Relation) -> Relation {
    assert_eq!(a.arity(), b.arity(), "set-op arity mismatch");
    merge_rows(a, b, true, false, false)
}

/// Rows present in both `a` and `b`.
pub fn intersection(a: &Relation, b: &Relation) -> Relation {
    assert_eq!(a.arity(), b.arity(), "set-op arity mismatch");
    merge_rows(a, b, false, false, true)
}

/// Rows present in `a` or `b`.
pub fn union(a: &Relation, b: &Relation) -> Relation {
    assert_eq!(a.arity(), b.arity(), "set-op arity mismatch");
    merge_rows(a, b, true, true, true)
}

/// Two-pointer merge over two sorted relations, keeping rows according to
/// which side(s) they appear on: `only_a`, `only_b`, `both`.
fn merge_rows(a: &Relation, b: &Relation, only_a: bool, only_b: bool, both: bool) -> Relation {
    let arity = a.arity();
    let (mut i, mut j) = (0usize, 0usize);
    let mut rows: Vec<&[Value]> = Vec::new();
    while i < a.len() && j < b.len() {
        match a.tuple(i).cmp(b.tuple(j)) {
            std::cmp::Ordering::Less => {
                if only_a {
                    rows.push(a.tuple(i));
                }
                i += 1;
            }
            std::cmp::Ordering::Greater => {
                if only_b {
                    rows.push(b.tuple(j));
                }
                j += 1;
            }
            std::cmp::Ordering::Equal => {
                if both {
                    rows.push(a.tuple(i));
                }
                i += 1;
                j += 1;
            }
        }
    }
    if only_a {
        while i < a.len() {
            rows.push(a.tuple(i));
            i += 1;
        }
    }
    if only_b {
        while j < b.len() {
            rows.push(b.tuple(j));
            j += 1;
        }
    }
    Relation::from_tuples(arity, rows).expect("arity checked by callers")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rel(pairs: Vec<(Value, Value)>) -> Relation {
        Relation::from_pairs(pairs)
    }

    #[test]
    fn set_ops_agree_with_naive_definitions() {
        let a = rel(vec![(1, 1), (2, 2), (3, 3), (5, 5)]);
        let b = rel(vec![(2, 2), (4, 4), (5, 5)]);
        assert_eq!(difference(&a, &b), rel(vec![(1, 1), (3, 3)]));
        assert_eq!(intersection(&a, &b), rel(vec![(2, 2), (5, 5)]));
        assert_eq!(
            union(&a, &b),
            rel(vec![(1, 1), (2, 2), (3, 3), (4, 4), (5, 5)])
        );
        assert!(contains_row(&a, &[3, 3]));
        assert!(!contains_row(&a, &[4, 4]));
    }

    #[test]
    fn batches_fold_in_normal_form() {
        let base = rel(vec![(1, 2), (3, 4), (5, 6)]);
        let d0 = RelationDelta::empty(2).unwrap();
        // Batch 1: delete (3,4), insert (7,8) and the no-op (1,2).
        let d1 = d0.apply_batch(&base, &rel(vec![(7, 8), (1, 2)]), &rel(vec![(3, 4)]));
        assert_eq!(d1.inserts(), &rel(vec![(7, 8)]));
        assert_eq!(d1.tombstones(), &rel(vec![(3, 4)]));
        assert_eq!(d1.len(), 2);
        // Batch 2: re-insert the tombstoned (3,4), delete the pending
        // (7,8), delete the never-present (9,9).
        let d2 = d1.apply_batch(&base, &rel(vec![(3, 4)]), &rel(vec![(7, 8), (9, 9)]));
        assert!(d2.inserts().is_empty());
        assert!(d2.tombstones().is_empty());
        assert!(d2.is_empty());
        assert_eq!(d2.merge_into(&base), base);
    }

    #[test]
    fn delete_then_insert_in_one_batch_keeps_the_tuple() {
        let base = rel(vec![(1, 2)]);
        let d = RelationDelta::empty(2).unwrap().apply_batch(
            &base,
            &rel(vec![(1, 2), (3, 4)]),
            &rel(vec![(1, 2), (3, 4)]),
        );
        // (1,2): present, deleted, re-inserted → still present, no delta.
        // (3,4): absent, "deleted" (no-op), inserted → pending insert.
        assert_eq!(d.inserts(), &rel(vec![(3, 4)]));
        assert!(d.tombstones().is_empty());
        assert_eq!(d.merge_into(&base), rel(vec![(1, 2), (3, 4)]));
    }

    #[test]
    fn batch_effects_report_the_net_view_change() {
        let base = rel(vec![(1, 2), (3, 4)]);
        let d0 = RelationDelta::empty(2).unwrap();
        let (added, removed) = d0.batch_effects(
            &base,
            &rel(vec![(1, 2), (5, 6), (9, 9)]), // (1,2) is a no-op re-insert
            &rel(vec![(3, 4), (9, 9), (8, 8)]), // (9,9) re-inserted same batch
        );
        assert_eq!(added, rel(vec![(5, 6), (9, 9)]));
        assert_eq!(removed, rel(vec![(3, 4)]));
        // And the invariant: new view = (old − removed) ∪ added.
        let d1 = d0.apply_batch(
            &base,
            &rel(vec![(1, 2), (5, 6), (9, 9)]),
            &rel(vec![(3, 4), (9, 9), (8, 8)]),
        );
        assert_eq!(
            d1.merge_into(&base),
            union(&difference(&d0.merge_into(&base), &removed), &added)
        );
    }

    #[test]
    fn effects_account_for_the_standing_delta() {
        let base = rel(vec![(1, 2), (3, 4)]);
        let d = RelationDelta::empty(2).unwrap().apply_batch(
            &base,
            &rel(vec![(5, 6)]),
            &rel(vec![(3, 4)]),
        );
        // Old view: {(1,2), (5,6)}. Re-inserting (5,6) is a no-op;
        // re-inserting the tombstoned (3,4) is an addition; deleting the
        // pending (5,6) is a removal.
        let (added, removed) =
            d.batch_effects(&base, &rel(vec![(5, 6), (3, 4)]), &rel(vec![(5, 6)]));
        assert_eq!(added, rel(vec![(3, 4)]));
        assert!(
            removed.is_empty(),
            "deleted tuple was re-inserted? no — (5,6) is in the insert batch so it survives"
        );
    }

    #[test]
    fn from_parts_checks_arity() {
        let i = Relation::new(2).unwrap();
        let t = Relation::new(3).unwrap();
        assert!(RelationDelta::from_parts(i, t).is_err());
    }
}
