use crate::hash::hash_values;
use crate::{RelationError, Value};
use triejax_exec::WorkerPool;

/// A relation: a sorted, duplicate-free set of fixed-arity tuples.
///
/// Tuples are stored row-major and kept in lexicographic order, which is the
/// order required to build the trie index (see [`crate::Trie`]). Construction
/// sorts and deduplicates eagerly so every downstream consumer can rely on
/// the invariant.
///
/// # Example
///
/// ```
/// use triejax_relation::Relation;
///
/// let rel = Relation::from_tuples(2, vec![vec![2, 1], vec![1, 3], vec![2, 1]])?;
/// assert_eq!(rel.len(), 2); // duplicate removed
/// assert_eq!(rel.tuple(0), &[1, 3]); // sorted
/// # Ok::<(), triejax_relation::RelationError>(())
/// ```
#[derive(Debug, Clone)]
pub struct Relation {
    arity: usize,
    /// Row-major tuple storage; `data.len() == arity * len`.
    data: Vec<Value>,
    /// Lazily memoized content fingerprint: computed on first use, so
    /// caches and stores never rehash the full row buffer per query —
    /// and throwaway intermediates (e.g. the permuted relation a trie
    /// build consumes) never pay the hash at all.
    fingerprint: std::sync::OnceLock<u64>,
}

// Equality, ordering-for-hash and the fingerprint are all functions of
// (arity, data) alone — the memo cell must not participate, or an
// unhashed relation would compare unequal to its hashed twin.
impl PartialEq for Relation {
    fn eq(&self, other: &Self) -> bool {
        self.arity == other.arity && self.data == other.data
    }
}

impl Eq for Relation {}

impl std::hash::Hash for Relation {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.arity.hash(state);
        self.data.hash(state);
    }
}

impl Relation {
    /// Creates an empty relation of the given arity.
    ///
    /// # Errors
    ///
    /// Returns [`RelationError::ZeroArity`] if `arity == 0`.
    pub fn new(arity: usize) -> Result<Self, RelationError> {
        if arity == 0 {
            return Err(RelationError::ZeroArity);
        }
        Ok(Relation {
            arity,
            data: Vec::new(),
            fingerprint: std::sync::OnceLock::new(),
        })
    }

    /// Builds a relation from an iterator of tuples, sorting and removing
    /// duplicates.
    ///
    /// # Errors
    ///
    /// Returns [`RelationError::ZeroArity`] for `arity == 0`, or
    /// [`RelationError::ArityMismatch`] if any tuple length differs from
    /// `arity`.
    pub fn from_tuples<I, T>(arity: usize, tuples: I) -> Result<Self, RelationError>
    where
        I: IntoIterator<Item = T>,
        T: AsRef<[Value]>,
    {
        if arity == 0 {
            return Err(RelationError::ZeroArity);
        }
        let mut data = Vec::new();
        for t in tuples {
            let t = t.as_ref();
            if t.len() != arity {
                return Err(RelationError::ArityMismatch {
                    expected: arity,
                    found: t.len(),
                });
            }
            data.extend_from_slice(t);
        }
        Relation::from_values(arity, data)
    }

    /// Adopts a row-major value buffer (`arity` values per tuple) as a
    /// relation without copying it. A buffer that is already strictly
    /// ascending — what [`Relation::values`] hands out, and so what a store
    /// file holds — is taken as is after one comparison pass; any other
    /// buffer is sorted and deduplicated first.
    ///
    /// # Errors
    ///
    /// Returns [`RelationError::ZeroArity`] for `arity == 0`, or
    /// [`RelationError::ArityMismatch`] (naming the length of the trailing
    /// partial tuple) if `data.len()` is not a multiple of `arity`.
    pub fn from_values(arity: usize, data: Vec<Value>) -> Result<Self, RelationError> {
        let mut rel = Relation::new(arity)?;
        if !data.len().is_multiple_of(arity) {
            return Err(RelationError::ArityMismatch {
                expected: arity,
                found: data.len() % arity,
            });
        }
        rel.data = data;
        rel.normalize();
        Ok(rel)
    }

    /// Builds a binary relation from `(source, target)` pairs.
    ///
    /// This is the common path for graph edge tables, where each pair is one
    /// directed edge.
    pub fn from_pairs<I>(pairs: I) -> Self
    where
        I: IntoIterator<Item = (Value, Value)>,
    {
        let mut data = Vec::new();
        for (a, b) in pairs {
            data.push(a);
            data.push(b);
        }
        let mut rel = Relation {
            arity: 2,
            data,
            fingerprint: std::sync::OnceLock::new(),
        };
        rel.normalize();
        rel
    }

    /// Number of attributes (columns) per tuple.
    pub fn arity(&self) -> usize {
        self.arity
    }

    /// Number of tuples.
    pub fn len(&self) -> usize {
        self.data.len() / self.arity
    }

    /// Returns `true` if the relation holds no tuples.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Returns the `i`-th tuple in lexicographic order.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.len()`.
    pub fn tuple(&self, i: usize) -> &[Value] {
        &self.data[i * self.arity..(i + 1) * self.arity]
    }

    /// Iterates over tuples in lexicographic order.
    pub fn iter(&self) -> impl Iterator<Item = &[Value]> + '_ {
        self.data.chunks_exact(self.arity)
    }

    /// Returns a new relation whose columns are permuted by `perm`:
    /// output column `i` is input column `perm[i]`.
    ///
    /// This is how one edge table yields tries in different attribute
    /// orders, e.g. `T(z, w)` versus `T(w, z)` in paper Figure 2. The
    /// identity order is a copy. Swapping the columns of a binary relation
    /// is a counting sort over the target ids when they are dense (a CSR
    /// transpose), and a sort of packed `u64` row keys when they are not.
    /// Wider relations comparison-sort row indexes.
    ///
    /// # Panics
    ///
    /// Panics if `perm` is not a permutation of `0..arity`.
    pub fn permute(&self, perm: &[usize]) -> Relation {
        self.validate_perm(perm);
        let data = match perm {
            // The identity order is the relation's own: nothing to sort.
            [0] | [0, 1] => self.data.clone(),
            [1, 0] => transpose_pairs(&self.data),
            _ => {
                let mut data = Vec::with_capacity(self.data.len());
                for t in self.iter() {
                    for &p in perm {
                        data.push(t[p]);
                    }
                }
                sort_dedup_rows(&mut data, self.arity);
                data
            }
        };
        Relation {
            arity: self.arity,
            data,
            fingerprint: std::sync::OnceLock::new(),
        }
    }

    /// Parallel [`Relation::permute`]: column-permutes row chunks as pool
    /// tasks (each chunk sorted and deduplicated locally), then k-way
    /// merge-deduplicates the sorted chunks on the caller's thread. Unary
    /// and binary relations take the sequential path, which does not
    /// comparison-sort them.
    ///
    /// The result is the sorted duplicate-free set of permuted tuples, which
    /// is independent of the chunking — `permute_on` is deterministic and
    /// always equals [`Relation::permute`].
    ///
    /// # Panics
    ///
    /// Panics if `perm` is not a permutation of `0..arity`.
    pub fn permute_on(&self, perm: &[usize], pool: &WorkerPool) -> Relation {
        self.validate_perm(perm);
        let arity = self.arity;
        let n = self.len();
        let k = pool.workers().min(n);
        // Binary and unary permutes are a counting sort or a copy, cheaper
        // than any chunked comparison sort.
        if k <= 1 || arity <= 2 {
            return self.permute(perm);
        }
        let chunks: Vec<(usize, usize)> = (0..k)
            .map(|i| (i * n / k, (i + 1) * n / k))
            .filter(|&(s, e)| s < e)
            .collect();
        let (parts, _stats) = pool.run(&chunks, |_ctx, _lane, &(s, e)| {
            let mut part = Vec::with_capacity((e - s) * arity);
            for i in s..e {
                let t = self.tuple(i);
                for &p in perm {
                    part.push(t[p]);
                }
            }
            sort_dedup_rows(&mut part, arity);
            part
        });
        // K-way merge of the sorted chunks, dropping cross-chunk duplicates
        // by comparing against the last emitted row.
        let total: usize = parts.iter().map(Vec::len).sum();
        let mut data: Vec<Value> = Vec::with_capacity(total);
        let mut pos = vec![0usize; parts.len()];
        loop {
            let mut best: Option<usize> = None;
            for (pi, part) in parts.iter().enumerate() {
                if pos[pi] >= part.len() {
                    continue;
                }
                let r = &part[pos[pi]..pos[pi] + arity];
                best = match best {
                    Some(b) if parts[b][pos[b]..pos[b] + arity] <= *r => Some(b),
                    _ => Some(pi),
                };
            }
            let Some(b) = best else { break };
            let r = &parts[b][pos[b]..pos[b] + arity];
            if data.len() < arity || data[data.len() - arity..] != *r {
                data.extend_from_slice(r);
            }
            pos[b] += arity;
        }
        // The merge emits sorted, duplicate-free rows directly, so no
        // normalize() pass runs here; the fingerprint memo starts empty
        // either way.
        Relation {
            arity,
            data,
            fingerprint: std::sync::OnceLock::new(),
        }
    }

    /// Total bytes of the row-major tuple payload (4 bytes per value).
    pub fn payload_bytes(&self) -> u64 {
        (self.data.len() * std::mem::size_of::<Value>()) as u64
    }

    /// The memoized content fingerprint: the [`lane_hash`](crate::lane_hash)
    /// of the normalized row buffer's little-endian bytes, seeded with the
    /// arity.
    ///
    /// Two relations with equal tuples always share a fingerprint, and the
    /// value is stable across processes, platforms and Rust versions — it
    /// keys both the in-process trie cache and the persistent store, so a
    /// trie saved by one process is found by another as long as the data is
    /// unchanged. Computed on first use, then free: relations whose
    /// fingerprint is never asked for (e.g. the permuted intermediate a trie
    /// build consumes) never pay the hash. Changing this function changes
    /// every stored key, so it needs a store format version bump (store
    /// format 3 introduced it; older files are re-keyed when they open). A
    /// store's relation checksum is this fingerprint.
    pub fn fingerprint(&self) -> u64 {
        *self
            .fingerprint
            .get_or_init(|| hash_values(self.arity as u64, &self.data))
    }

    /// The raw row-major value buffer (length `arity * len`), sorted and
    /// duplicate-free, for serialization. Reconstruct with
    /// [`Relation::from_values`], which adopts the buffer without copying.
    pub fn values(&self) -> &[Value] {
        &self.data
    }

    fn validate_perm(&self, perm: &[usize]) {
        assert_eq!(
            perm.len(),
            self.arity,
            "permutation length must equal arity"
        );
        let mut seen = vec![false; self.arity];
        for &p in perm {
            assert!(
                p < self.arity && !seen[p],
                "perm must be a permutation of 0..arity"
            );
            seen[p] = true;
        }
    }

    /// Sorts tuples lexicographically and removes duplicates, establishing
    /// the struct invariant.
    fn normalize(&mut self) {
        sort_dedup_rows(&mut self.data, self.arity);
        // Any mutation invalidates the memo; the next fingerprint() call
        // rehashes.
        self.fingerprint = std::sync::OnceLock::new();
    }
}

/// Sorts row-major `data` lexicographically by row and removes duplicate
/// rows. A strict-ascending pre-check skips all work when the rows are
/// already sorted *and* duplicate-free (the common case for data that went
/// through [`Relation`] construction once). Rows of arity 1 and 2 are
/// checked and sorted in place by packed `u64` keys, whose integer order
/// is the rows' lexicographic order; wider rows sort row **indexes**
/// instead of a `Vec<&[Value]>` of slice refs, halving the scratch
/// allocation.
fn sort_dedup_rows(data: &mut Vec<Value>, arity: usize) {
    match arity {
        1 => return sort_dedup_packed::<1>(data),
        2 => return sort_dedup_packed::<2>(data),
        _ => {}
    }
    let n = data.len() / arity;
    let already_sorted =
        (1..n).all(|i| data[(i - 1) * arity..i * arity] < data[i * arity..(i + 1) * arity]);
    if already_sorted {
        return;
    }
    debug_assert!(n <= u32::MAX as usize, "row count exceeds u32 index space");
    let mut idx: Vec<u32> = (0..n as u32).collect();
    {
        let d = &*data;
        let row = |i: u32| &d[i as usize * arity..(i as usize + 1) * arity];
        idx.sort_unstable_by(|&a, &b| row(a).cmp(row(b)));
        idx.dedup_by(|a, b| row(*a) == row(*b));
    }
    let mut out = Vec::with_capacity(idx.len() * arity);
    for i in idx {
        out.extend_from_slice(&data[i as usize * arity..(i as usize + 1) * arity]);
    }
    *data = out;
}

/// Whether `keys` is strictly ascending.
fn strictly_ascending(mut keys: impl Iterator<Item = u64>) -> bool {
    let Some(mut prev) = keys.next() else {
        return true;
    };
    keys.all(|k| std::mem::replace(&mut prev, k) < k)
}

/// [`sort_dedup_rows`] for rows of `N <= 2` values, compared as packed
/// `u64` keys and sorted in place.
fn sort_dedup_packed<const N: usize>(data: &mut Vec<Value>) {
    let key = |r: &[Value; N]| r.iter().fold(0u64, |k, &v| k << 32 | u64::from(v));
    let (rows, _) = data.as_chunks_mut::<N>();
    if strictly_ascending(rows.iter().map(key)) {
        return;
    }
    rows.sort_unstable_by_key(key);
    let mut kept = 0;
    for i in 0..rows.len() {
        if kept == 0 || rows[i] != rows[kept - 1] {
            rows[kept] = rows[i];
            kept += 1;
        }
    }
    data.truncate(N * kept);
}

/// The column swap of a strictly ascending binary row buffer, strictly
/// ascending again. When the second column's ids are dense — at most two
/// ids per row below the largest — a counting sort places each row in its
/// target id's bucket, in source order, which is already first-column
/// order within a bucket: a CSR transpose, no comparisons. Sparse ids sort
/// the swapped rows as packed keys instead.
fn transpose_pairs(data: &[Value]) -> Vec<Value> {
    let rows = data.len() / 2;
    let max = data.chunks_exact(2).map(|r| r[1]).max().unwrap_or(0) as usize;
    if max / 2 > rows || u32::try_from(rows).is_err() {
        let mut out = Vec::with_capacity(data.len());
        for r in data.chunks_exact(2) {
            out.extend_from_slice(&[r[1], r[0]]);
        }
        sort_dedup_rows(&mut out, 2);
        return out;
    }
    // starts[v] is where target id v's rows begin, advanced as they land.
    let mut starts = vec![0u32; max + 2];
    for r in data.chunks_exact(2) {
        starts[r[1] as usize + 1] += 1;
    }
    for v in 1..starts.len() {
        starts[v] += starts[v - 1];
    }
    let mut out = vec![0; data.len()];
    for r in data.chunks_exact(2) {
        let at = &mut starts[r[1] as usize];
        let i = *at as usize * 2;
        out[i] = r[1];
        out[i + 1] = r[0];
        *at += 1;
    }
    out
}

impl<'a> IntoIterator for &'a Relation {
    type Item = &'a [Value];
    type IntoIter = std::slice::ChunksExact<'a, Value>;

    fn into_iter(self) -> Self::IntoIter {
        self.data.chunks_exact(self.arity)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_arity_is_rejected() {
        assert_eq!(Relation::new(0).unwrap_err(), RelationError::ZeroArity);
    }

    #[test]
    fn arity_mismatch_is_rejected() {
        let err = Relation::from_tuples(2, vec![vec![1u32, 2, 3]]).unwrap_err();
        assert_eq!(
            err,
            RelationError::ArityMismatch {
                expected: 2,
                found: 3
            }
        );
    }

    #[test]
    fn tuples_are_sorted_and_deduplicated() {
        let rel = Relation::from_tuples(
            2,
            vec![
                vec![3u32, 1],
                vec![1, 2],
                vec![3, 1],
                vec![1, 1],
                vec![2, 9],
            ],
        )
        .unwrap();
        let rows: Vec<_> = rel.iter().collect();
        assert_eq!(rows, vec![&[1u32, 1][..], &[1, 2], &[2, 9], &[3, 1]]);
        assert_eq!(rel.len(), 4);
        assert!(!rel.is_empty());
    }

    #[test]
    fn from_pairs_matches_from_tuples() {
        let a = Relation::from_pairs(vec![(2, 1), (1, 2), (2, 1)]);
        let b = Relation::from_tuples(2, vec![vec![1u32, 2], vec![2, 1]]).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn from_values_adopts_sorted_buffers_and_normalizes_others() {
        let sorted = vec![1u32, 2, 1, 3, 4, 0];
        let ptr = sorted.as_ptr();
        let rel = Relation::from_values(2, sorted).unwrap();
        assert_eq!(rel.values().as_ptr(), ptr, "a sorted buffer is adopted");
        assert_eq!(rel, Relation::from_pairs(vec![(1, 2), (1, 3), (4, 0)]));
        let unsorted = Relation::from_values(2, vec![4, 0, 1, 2, 4, 0]).unwrap();
        assert_eq!(unsorted, Relation::from_pairs(vec![(1, 2), (4, 0)]));
        assert_eq!(
            Relation::from_values(2, vec![1, 2, 3]).unwrap_err(),
            RelationError::ArityMismatch {
                expected: 2,
                found: 1
            }
        );
        assert_eq!(
            Relation::from_values(0, Vec::new()).unwrap_err(),
            RelationError::ZeroArity
        );
    }

    #[test]
    fn permute_swaps_columns_and_resorts() {
        let rel = Relation::from_pairs(vec![(1, 9), (2, 3)]);
        let rev = rel.permute(&[1, 0]);
        let rows: Vec<_> = rev.iter().collect();
        assert_eq!(rows, vec![&[3u32, 2][..], &[9, 1]]);
    }

    #[test]
    #[should_panic(expected = "perm must be a permutation")]
    fn permute_rejects_non_permutation() {
        let rel = Relation::from_pairs(vec![(1, 2)]);
        let _ = rel.permute(&[0, 0]);
    }

    #[test]
    fn identity_permutation_is_noop() {
        let rel = Relation::from_pairs(vec![(5, 4), (1, 2), (5, 5)]);
        assert_eq!(rel.permute(&[0, 1]), rel);
    }

    #[test]
    fn payload_bytes_counts_words() {
        let rel = Relation::from_pairs(vec![(1, 2), (3, 4)]);
        assert_eq!(rel.payload_bytes(), 16);
    }

    #[test]
    fn empty_relation_iterates_nothing() {
        let rel = Relation::new(3).unwrap();
        assert_eq!(rel.iter().count(), 0);
        assert_eq!(rel.len(), 0);
        assert!(rel.is_empty());
    }

    #[test]
    fn sorted_input_skips_the_sort_pass() {
        // Already strictly ascending: the pre-check must leave data as-is.
        let mut data = vec![1u32, 1, 1, 2, 2, 9];
        let before = data.clone();
        sort_dedup_rows(&mut data, 2);
        assert_eq!(data, before);
        // Sorted but with a duplicate: the pre-check must NOT fire.
        let mut dup = vec![1u32, 1, 1, 1, 2, 9];
        sort_dedup_rows(&mut dup, 2);
        assert_eq!(dup, vec![1, 1, 2, 9]);
    }

    #[test]
    fn permute_on_matches_permute() {
        use triejax_exec::WorkerPool;
        // Rows chosen so duplicates appear only *after* the column swap and
        // straddle chunk boundaries.
        let tuples: Vec<Vec<Value>> = (0..64u32)
            .map(|i| vec![i % 8, i / 8, i % 3])
            .chain((0..64u32).map(|i| vec![i / 8, i % 8, i % 3]))
            .collect();
        let rel = Relation::from_tuples(3, tuples).unwrap();
        for workers in [1, 2, 3, 7] {
            let pool = WorkerPool::with_workers(workers);
            for perm in [[0, 1, 2], [2, 1, 0], [1, 2, 0]] {
                assert_eq!(rel.permute_on(&perm, &pool), rel.permute(&perm));
            }
        }
        let empty = Relation::new(2).unwrap();
        let pool = WorkerPool::with_workers(4);
        assert_eq!(empty.permute_on(&[1, 0], &pool), empty.permute(&[1, 0]));
    }

    #[test]
    #[should_panic(expected = "perm must be a permutation")]
    fn permute_on_rejects_non_permutation() {
        let rel = Relation::from_pairs(vec![(1, 2)]);
        let _ = rel.permute_on(&[1, 1], &triejax_exec::WorkerPool::with_workers(2));
    }

    #[test]
    fn fingerprint_tracks_content_not_construction_path() {
        // Same tuple set through different construction orders and paths.
        let a = Relation::from_pairs(vec![(2, 1), (1, 2), (2, 1)]);
        let b = Relation::from_tuples(2, vec![vec![1u32, 2], vec![2, 1]]).unwrap();
        assert_eq!(a.fingerprint(), b.fingerprint());
        // Different content, different fingerprint.
        let c = Relation::from_pairs(vec![(1, 2)]);
        assert_ne!(a.fingerprint(), c.fingerprint());
        // Arity participates: {1,2} as one binary tuple vs two unary tuples.
        let bin = Relation::from_tuples(2, vec![vec![1u32, 2]]).unwrap();
        let un = Relation::from_tuples(1, vec![vec![1u32], vec![2]]).unwrap();
        assert_ne!(bin.fingerprint(), un.fingerprint());
        // permute_on (no normalize pass) agrees with permute (normalize).
        let pool = WorkerPool::with_workers(3);
        let rel = Relation::from_tuples(
            2,
            (0..32u32).map(|i| vec![i % 5, i % 7]).collect::<Vec<_>>(),
        )
        .unwrap();
        assert_eq!(
            rel.permute_on(&[1, 0], &pool).fingerprint(),
            rel.permute(&[1, 0]).fingerprint()
        );
    }

    #[test]
    fn fingerprint_is_stable_across_processes() {
        // Golden value: the persisted store format depends on this hash
        // never changing. If this test fails, the store version must bump.
        let rel = Relation::from_pairs(vec![(1, 2), (3, 4)]);
        assert_eq!(rel.fingerprint(), 3_477_876_841_789_237_809);
        let triples = Relation::from_tuples(3, vec![vec![1u32, 2, 3], vec![4, 5, 6]]).unwrap();
        assert_eq!(triples.fingerprint(), 15_813_784_252_158_167_135);
    }

    #[test]
    fn triple_arity_sorting_is_lexicographic() {
        let rel =
            Relation::from_tuples(3, vec![vec![1u32, 2, 3], vec![1, 2, 1], vec![0, 9, 9]]).unwrap();
        assert_eq!(rel.tuple(0), &[0, 9, 9]);
        assert_eq!(rel.tuple(1), &[1, 2, 1]);
        assert_eq!(rel.tuple(2), &[1, 2, 3]);
    }
}
