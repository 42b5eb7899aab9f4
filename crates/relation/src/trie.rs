use crate::{AddressSpace, ArraySpan, Relation, TrieLayoutError, Value, WORD_BYTES};
use triejax_exec::WorkerPool;

/// A borrowed view of one level of a [`Trie`] in the flat EmptyHeaded-style
/// layout.
///
/// `values` concatenates, parent by parent, the sorted unique values of this
/// attribute. `child_starts` (absent on the deepest level) has one more
/// entry than `values`: node `i`'s children occupy
/// `child_starts[i]..child_starts[i+1]` of the next level's `values` array.
/// This mirrors paper Figure 6, where `Rx = [1,2,3,4]` carries the child
/// ranges array `[0,2,3,4,5]` into `Ry`.
///
/// The view is `Copy` and borrows directly into the trie's single
/// contiguous word buffer — a level never owns its arrays, which is what
/// makes the whole trie relocatable (serialize the buffer, reload it
/// anywhere, and every view is valid again).
#[derive(Debug, Clone, Copy)]
pub struct TrieLevel<'a> {
    values: &'a [Value],
    child_starts: &'a [u32],
    values_span: ArraySpan,
    child_span: ArraySpan,
}

impl<'a> TrieLevel<'a> {
    /// The concatenated sorted value array of this level.
    #[inline]
    pub fn values(self) -> &'a [Value] {
        self.values
    }

    /// The cumulative child-range array (empty on the leaf level).
    #[inline]
    pub fn child_starts(self) -> &'a [u32] {
        self.child_starts
    }

    /// Number of trie nodes on this level.
    #[inline]
    pub fn len(self) -> usize {
        self.values.len()
    }

    /// Returns `true` if the level holds no nodes.
    #[inline]
    pub fn is_empty(self) -> bool {
        self.values.is_empty()
    }

    /// Range of node `i`'s children in the next level's value array.
    ///
    /// # Panics
    ///
    /// Panics if this is the leaf level or `i` is out of bounds.
    #[inline]
    pub fn child_range(self, i: usize) -> (usize, usize) {
        (
            self.child_starts[i] as usize,
            self.child_starts[i + 1] as usize,
        )
    }

    /// Simulated placement of the value array (valid after
    /// [`Trie::assign_addresses`]).
    #[inline]
    pub fn values_span(self) -> ArraySpan {
        self.values_span
    }

    /// Simulated placement of the child-range array.
    #[inline]
    pub fn child_span(self) -> ArraySpan {
        self.child_span
    }
}

/// Placement of one level's arrays inside the flat word buffer, plus the
/// simulated address spans assigned by [`Trie::assign_addresses`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
struct LevelMeta {
    values_start: usize,
    values_len: usize,
    child_start: usize,
    child_len: usize,
    values_span: ArraySpan,
    child_span: ArraySpan,
}

/// A columnar trie index over a [`Relation`], one level per attribute.
///
/// Built once per (relation, attribute order) pair; join engines walk it
/// through [`crate::TrieCursor`]s, and the TrieJax simulator reads its raw
/// arrays at simulated addresses.
///
/// Physically the trie is **one contiguous `u32` buffer** (per level: the
/// value array, then the child-range array) plus a per-level offset table —
/// no pointers, no per-level ownership. [`Trie::words`] and
/// [`Trie::level_dims`] expose the buffer for serialization and
/// [`Trie::from_parts`] validates and re-adopts it, so a trie can be copied
/// byte-for-byte to disk and back ("relocated") without rebuilding.
///
/// Beside the buffer sit two derived, never-serialized indexes, each
/// built only while it costs at most two `u32` words per value of the
/// level it indexes:
///
/// * a *root directory* mapping every value `v` up to one past the largest
///   root value to the root's lower bound of `v`. Untallied cursors answer
///   a root-level seek with one read of it instead of a galloping search;
///   see [`TrieCursor::seek`](crate::TrieCursor::seek).
/// * *leaf bitmaps*: per parent node of the leaf level, one presence bit
///   per value `0..=max` of the leaf level. Untallied drivers intersect the
///   last join variable's sibling sets as word ANDs over them; see
///   [`TrieCursor::sibling_bits`](crate::TrieCursor::sibling_bits).
///
/// # Example
///
/// ```
/// use triejax_relation::{Relation, Trie};
///
/// // R(x,y) from paper Figure 6.
/// let r = Relation::from_pairs(vec![(1, 1), (1, 2), (2, 2), (3, 5), (4, 4)]);
/// let trie = Trie::build(&r);
/// assert_eq!(trie.level(0).values(), &[1, 2, 3, 4]);
/// assert_eq!(trie.level(0).child_starts(), &[0, 2, 3, 4, 5]);
/// assert_eq!(trie.level(1).values(), &[1, 2, 2, 5, 4]);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Trie {
    /// The single flat buffer: per level, values then child_starts.
    words: Vec<u32>,
    meta: Vec<LevelMeta>,
    tuple_count: usize,
    /// `root_dir[v]` is the first root position whose value is `>= v`,
    /// for `v` in `0..=max + 1`; empty when the root is too sparse (see
    /// [`root_directory`]). Derived from `words`, so never serialized.
    root_dir: Vec<u32>,
    /// The leaf bitmaps (see [`leaf_bitmaps`]): parent node `i`'s children
    /// are the set bits of `leaf_bits[i * leaf_words..(i + 1) * leaf_words]`.
    /// Empty, with `leaf_words == 0`, when the leaf level is too sparse.
    /// Derived from `words`, so never serialized.
    leaf_bits: Vec<u64>,
    leaf_words: usize,
}

/// Most `u32` words a derived index may spend per value of the level it
/// indexes. A root whose largest value `max` needs more (`max + 2 > 2 *
/// len`) gets no directory, and a leaf level whose bitmaps need more
/// (`parents * (max / 64 + 1)` `u64` words `> len`) gets none, so sparse
/// ids — or a corrupted store frame claiming a huge `max` — never cause an
/// allocation larger than twice the indexed level itself.
const DERIVED_WORDS_PER_VALUE: usize = 2;

/// Builds the root directory of the root level `values`: entry `v` is the
/// lower bound of `v` in `values`, for every `v` in `0..=max + 1` where
/// `max` is the last value. Empty when `values` is empty or the table
/// would exceed [`DERIVED_WORDS_PER_VALUE`] words per value. Never panics,
/// whatever `values` holds.
fn root_directory(values: &[Value]) -> Vec<u32> {
    let Some(&max) = values.last() else {
        return Vec::new();
    };
    let entries = max as usize + 2;
    if entries > DERIVED_WORDS_PER_VALUE * values.len() || u32::try_from(values.len()).is_err() {
        return Vec::new();
    }
    let mut dir = Vec::with_capacity(entries);
    let mut i = 0;
    for v in 0..entries {
        while i < values.len() && (values[i] as usize) < v {
            i += 1;
        }
        dir.push(i as u32);
    }
    dir
}

/// Builds the leaf bitmaps of the leaf level `leaf`, whose parent nodes own
/// the child ranges `starts[i]..starts[i + 1]` (`[0, leaf.len()]` when the
/// leaf is the root): one bitmap of `W = max / 64 + 1` words per parent,
/// where `max` is the largest leaf value, with bit `v` set when `v` is
/// among that parent's children. Returns the bitmaps and `W`, or nothing
/// when the leaf level is empty or the bitmaps would exceed
/// [`DERIVED_WORDS_PER_VALUE`] `u32` words per leaf value. `starts` must
/// be monotone and end at `leaf.len()` ([`Trie::from_parts`] checks it);
/// the values themselves may be anything, unsorted or not.
fn leaf_bitmaps(leaf: &[Value], starts: &[u32]) -> (Vec<u64>, usize) {
    let Some(&max) = leaf.iter().max() else {
        return (Vec::new(), 0);
    };
    let words = max as usize / 64 + 1;
    let parents = starts.len().saturating_sub(1);
    let fits = parents
        .checked_mul(2 * words)
        .is_some_and(|w| w <= DERIVED_WORDS_PER_VALUE * leaf.len());
    if !fits {
        return (Vec::new(), 0);
    }
    let mut bits = vec![0u64; parents * words];
    for (i, w) in starts.windows(2).enumerate() {
        let node = &mut bits[i * words..(i + 1) * words];
        for &v in &leaf[w[0] as usize..w[1] as usize] {
            node[v as usize / 64] |= 1 << (v % 64);
        }
    }
    (bits, words)
}

/// A trie's flat word buffer under construction, with its per-level
/// `(value count, child-range entry count)` dims.
#[derive(Debug)]
struct Flat {
    words: Vec<u32>,
    dims: Vec<(usize, usize)>,
}

impl Flat {
    /// Where each level's value array and child-range array start.
    fn starts(&self) -> impl Iterator<Item = (usize, usize)> + '_ {
        self.dims.iter().scan(0, |at, &(v, c)| {
            let level = (*at, *at + v);
            *at += v + c;
            Some(level)
        })
    }
}

impl Trie {
    /// Builds the trie for `relation` in its stored attribute order.
    ///
    /// Use [`Relation::permute`] first to index a different attribute order.
    pub fn build(relation: &Relation) -> Trie {
        Trie::adopt(build_flat(relation, 0, relation.len()), relation.len())
    }

    /// Builds the trie for `relation` with the row range partitioned across
    /// `pool`, producing a result **byte-identical** to [`Trie::build`].
    ///
    /// Rows are split into contiguous ranges whose boundaries are snapped
    /// forward to the next root-key change, so no root value ever spans two
    /// partitions. Each partition then runs the exact sequential pass of
    /// [`Trie::build`] as an independent pool task, and the per-partition
    /// buffers are stitched back together by rebasing `child_starts`
    /// offsets. Because the grouping never crosses a root-key boundary,
    /// concatenating the levels in partition order reproduces the
    /// sequential word buffer exactly — every engine, the simulator and
    /// [`Trie::assign_addresses`] consume the result unchanged.
    pub fn par_build(relation: &Relation, pool: &WorkerPool) -> Trie {
        let parts = partition_rows(relation, pool.workers());
        if parts.len() <= 1 {
            return Trie::build(relation);
        }
        let (frags, _stats) = pool.run(&parts, |_ctx, _lane, &(s, e)| build_flat(relation, s, e));
        Trie::adopt(stitch_fragments(&frags), relation.len())
    }

    /// Adopts a structurally valid flat buffer: lays out the level table
    /// and derives the indexes.
    fn adopt(flat: Flat, tuple_count: usize) -> Trie {
        let meta = flat
            .starts()
            .zip(&flat.dims)
            .map(
                |((values_start, child_start), &(values_len, child_len))| LevelMeta {
                    values_start,
                    values_len,
                    child_start,
                    child_len,
                    ..LevelMeta::default()
                },
            )
            .collect();
        Trie {
            words: flat.words,
            meta,
            tuple_count,
            ..Trie::default()
        }
        .derive_indexes()
    }

    /// Builds the derived indexes — root directory and leaf bitmaps — from
    /// the word buffer.
    fn derive_indexes(mut self) -> Trie {
        let Some(leaf) = self.arity().checked_sub(1) else {
            return self;
        };
        self.root_dir = root_directory(self.level(0).values());
        let values = self.level(leaf).values();
        (self.leaf_bits, self.leaf_words) = match leaf.checked_sub(1) {
            Some(parent) => leaf_bitmaps(values, self.level(parent).child_starts()),
            // A root leaf: one parent owning the whole level.
            None => u32::try_from(values.len())
                .map_or((Vec::new(), 0), |len| leaf_bitmaps(values, &[0, len])),
        };
        self
    }

    /// Re-adopts a previously exported flat buffer (see [`Trie::words`] /
    /// [`Trie::level_dims`]) after validating its structure: every
    /// child-range array must be exactly one entry longer than its value
    /// array, start at `0`, be monotone, and end exactly at the next
    /// level's width. The validation is what makes deserialized tries safe
    /// to walk — a corrupted offset is rejected here instead of panicking
    /// (or reading garbage) deep inside a cursor.
    ///
    /// Reconstructing with the dims returned by [`Trie::level_dims`] and
    /// the buffer returned by [`Trie::words`] yields a trie equal to the
    /// original (simulated address spans reset to unassigned).
    ///
    /// # Errors
    ///
    /// Returns a [`TrieLayoutError`] describing the first structural
    /// violation found.
    pub fn from_parts(
        words: Vec<u32>,
        dims: &[(usize, usize)],
        tuple_count: usize,
    ) -> Result<Trie, TrieLayoutError> {
        // Checked: a lying offset table must not overflow the sum into a
        // match (and the per-level offsets below stay within it).
        let expected = dims
            .iter()
            .try_fold(0usize, |acc, &(v, c)| acc.checked_add(v)?.checked_add(c));
        if expected != Some(words.len()) {
            return Err(TrieLayoutError::WordCount {
                expected: expected.unwrap_or(usize::MAX),
                found: words.len(),
            });
        }
        let mut offset = 0usize;
        for (l, &(values_len, child_len)) in dims.iter().enumerate() {
            let child_start = offset + values_len;
            offset = child_start + child_len;
            let leaf = l + 1 == dims.len();
            if (leaf && child_len != 0) || (!leaf && child_len != values_len + 1) {
                return Err(TrieLayoutError::ChildCount {
                    level: l,
                    values: values_len,
                    child_entries: child_len,
                });
            }
            if !leaf {
                let starts = &words[child_start..child_start + child_len];
                let next_len = dims[l + 1].0;
                if starts[0] != 0 {
                    return Err(TrieLayoutError::Offset {
                        level: l,
                        index: 0,
                        offset: starts[0],
                        limit: 0,
                    });
                }
                for (i, w) in starts.windows(2).enumerate() {
                    if w[1] < w[0] || w[1] as usize > next_len {
                        return Err(TrieLayoutError::Offset {
                            level: l,
                            index: i + 1,
                            offset: w[1],
                            limit: next_len,
                        });
                    }
                }
                if starts[child_len - 1] as usize != next_len {
                    return Err(TrieLayoutError::Offset {
                        level: l,
                        index: child_len - 1,
                        offset: starts[child_len - 1],
                        limit: next_len,
                    });
                }
            }
        }
        let leaf_len = dims.last().map_or(0, |&(v, _)| v);
        if tuple_count != leaf_len {
            return Err(TrieLayoutError::TupleCount {
                expected: leaf_len,
                found: tuple_count,
            });
        }
        let dims = dims.to_vec();
        Ok(Trie::adopt(Flat { words, dims }, tuple_count))
    }

    /// Number of attributes (trie depth).
    #[inline]
    pub fn arity(&self) -> usize {
        self.meta.len()
    }

    /// Number of tuples (root-to-leaf paths).
    #[inline]
    pub fn tuple_count(&self) -> usize {
        self.tuple_count
    }

    /// The `i`-th level, as a borrowed view into the flat buffer.
    ///
    /// Constructing the view is a meta lookup plus two bounds-checked
    /// slicings of the flat buffer — cheap, but not free in a per-probe
    /// loop. [`TrieCursor`](crate::TrieCursor) therefore caches one view
    /// per depth at construction instead of calling this per operation.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.arity()`.
    #[inline]
    pub fn level(&self, i: usize) -> TrieLevel<'_> {
        let m = &self.meta[i];
        TrieLevel {
            values: &self.words[m.values_start..m.values_start + m.values_len],
            child_starts: &self.words[m.child_start..m.child_start + m.child_len],
            values_span: m.values_span,
            child_span: m.child_span,
        }
    }

    /// The single contiguous word buffer backing every level: per level,
    /// the value array immediately followed by the child-range array. Pair
    /// with [`Trie::level_dims`] to serialize, and [`Trie::from_parts`] to
    /// reload.
    pub fn words(&self) -> &[u32] {
        &self.words
    }

    /// Per-level `(value count, child-range entry count)` pairs, root
    /// first — the offset table that, together with [`Trie::words`], fully
    /// describes the flat layout.
    pub fn level_dims(&self) -> Vec<(usize, usize)> {
        self.meta
            .iter()
            .map(|m| (m.values_len, m.child_len))
            .collect()
    }

    /// Total in-memory footprint in bytes: values, child-range words and
    /// the derived root directory and leaf bitmaps. The derived indexes are
    /// never serialized, so a stored trie's size is [`Trie::words`] alone;
    /// the resident size — what a cache bounded in bytes must charge —
    /// includes them.
    pub fn bytes(&self) -> u64 {
        (self.words.len() + self.root_dir.len() + 2 * self.leaf_bits.len()) as u64 * WORD_BYTES
    }

    /// The root directory (empty when the root is too sparse to have one).
    #[inline]
    pub(crate) fn root_dir(&self) -> &[u32] {
        &self.root_dir
    }

    /// The leaf bitmaps and the words per parent node (empty and `0` when
    /// the leaf level is too sparse to have them).
    #[inline]
    pub(crate) fn leaf_bits(&self) -> (&[u64], usize) {
        (&self.leaf_bits, self.leaf_words)
    }

    /// Places every level's arrays in the simulated address space.
    ///
    /// Must be called before a cycle-level simulator derives addresses from
    /// [`TrieLevel::values_span`] / [`TrieLevel::child_span`].
    pub fn assign_addresses(&mut self, asp: &mut AddressSpace) {
        for m in &mut self.meta {
            m.values_span = asp.alloc(m.values_len as u64 * WORD_BYTES);
            m.child_span = asp.alloc(m.child_len as u64 * WORD_BYTES);
        }
    }

    /// Reconstructs every tuple by depth-first traversal (mainly for tests:
    /// the result must equal the source relation's tuples).
    pub fn enumerate(&self) -> Vec<Vec<Value>> {
        let mut out = Vec::with_capacity(self.tuple_count);
        if self.meta.is_empty() || self.level(0).is_empty() {
            return out;
        }
        let mut path = Vec::with_capacity(self.arity());
        self.walk(0, 0, self.level(0).len(), &mut path, &mut out);
        out
    }

    fn walk(
        &self,
        level: usize,
        lo: usize,
        hi: usize,
        path: &mut Vec<Value>,
        out: &mut Vec<Vec<Value>>,
    ) {
        let l = self.level(level);
        for i in lo..hi {
            path.push(l.values()[i]);
            if level + 1 == self.arity() {
                out.push(path.clone());
            } else {
                let (s, e) = l.child_range(i);
                self.walk(level + 1, s, e, path, out);
            }
            path.pop();
        }
    }
}

impl From<&Relation> for Trie {
    fn from(relation: &Relation) -> Self {
        Trie::build(relation)
    }
}

/// Builds the flat buffer of the row range `lo..hi`, with
/// *fragment-local* `child_starts` offsets, in two passes over the rows.
/// Row `i` opens a new node on every level from the first column where it
/// differs from row `i - 1` down to the leaf (the first row of the range
/// opens one on every level). The first pass counts each level's nodes,
/// which sizes the one buffer exactly; the second fills it.
///
/// Neither pass branches on the data. Each level keeps the count of its
/// nodes so far, advanced by the row's "opens a node here" flag; the row
/// writes its value at the level's last node (rewriting an equal value
/// when it opened none), and every non-leaf level writes the next level's
/// count as the end of its last node's child range — the start of the
/// next node's, should the next row open one.
///
/// [`Trie::build`] is exactly `build_flat(rel, 0, rel.len())`, which is
/// what makes the partition/stitch scheme of [`Trie::par_build`]
/// byte-identical by construction: both paths run the same passes over
/// the same rows.
fn build_flat(relation: &Relation, lo: usize, hi: usize) -> Flat {
    let arity = relation.arity();
    let rows = &relation.values()[lo * arity..hi * arity];
    // A constant arity and per-level state in arrays let the compiler
    // unroll the per-level loops and keep the state in registers.
    match arity {
        1 => fill_flat(rows, [0; 1]),
        2 => fill_flat(rows, [0; 2]),
        3 => fill_flat(rows, [0; 3]),
        _ => fill_flat(rows, vec![0; arity]),
    }
}

/// [`build_flat`]'s two passes over the row-major `rows`, whose arity is
/// the length of `state`.
#[inline(always)]
fn fill_flat<S: AsMut<[usize]> + Clone>(rows: &[Value], state: S) -> Flat {
    let (mut nodes, mut last, mut end) = (state.clone(), state.clone(), state);
    let (nodes, last, end) = (nodes.as_mut(), last.as_mut(), end.as_mut());
    let arity = nodes.len();
    // Consecutive row pairs; the first row opens a node on every level.
    let pairs = || {
        let rest = &rows[arity.min(rows.len())..];
        rows.chunks_exact(arity).zip(rest.chunks_exact(arity))
    };
    nodes.fill(usize::from(!rows.is_empty()));
    for (prev, row) in pairs() {
        let mut new = false;
        for ((n, a), b) in nodes.iter_mut().zip(row).zip(prev) {
            new |= a != b;
            *n += usize::from(new);
        }
    }
    let dims: Vec<(usize, usize)> = nodes
        .iter()
        .enumerate()
        .map(|(l, &n)| (n, if l + 1 < arity { n + 1 } else { 0 }))
        .collect();
    let total = dims.iter().map(|&(v, c)| v + c).sum();
    let mut flat = Flat {
        words: vec![0; total],
        dims,
    };
    // Per level: the index of its last node's value, and of that node's
    // child-range end, both one before the level's first entry until the
    // first row opens a node. Child-range entry 0 is the zero the buffer
    // starts with.
    nodes.fill(0);
    for ((l, e), (v, c)) in last.iter_mut().zip(end.iter_mut()).zip(flat.starts()) {
        (*l, *e) = (v.wrapping_sub(1), c);
    }
    let words = &mut flat.words[..];
    let before: Vec<Value> = rows
        .get(..arity)
        .map_or(Vec::new(), |r| r.iter().map(|v| !v).collect());
    let firsts = rows.get(..arity).map(|r| (&before[..], r));
    for (prev, row) in firsts.into_iter().chain(pairs()) {
        let mut new = false;
        for l in 0..arity {
            new |= row[l] != prev[l];
            nodes[l] += usize::from(new);
            last[l] = last[l].wrapping_add(usize::from(new));
            end[l] += usize::from(new);
            words[last[l]] = row[l];
        }
        for l in 1..arity {
            words[end[l - 1]] = nodes[l] as u32;
        }
    }
    flat
}

/// Splits `0..relation.len()` into at most `parts` contiguous row ranges
/// whose boundaries fall on root-key changes. Every range is non-empty; a
/// range may be larger than its even share when one root value dominates
/// (the boundary is snapped *forward* past the run).
fn partition_rows(relation: &Relation, parts: usize) -> Vec<(usize, usize)> {
    let nrows = relation.len();
    if nrows == 0 || parts <= 1 {
        return vec![(0, nrows)];
    }
    let mut bounds = vec![0usize];
    for k in 1..parts {
        let mut b = k * nrows / parts;
        if b <= *bounds.last().expect("bounds is never empty") {
            continue;
        }
        while b < nrows && relation.tuple(b)[0] == relation.tuple(b - 1)[0] {
            b += 1;
        }
        if b < nrows {
            bounds.push(b);
        }
    }
    bounds.push(nrows);
    bounds.windows(2).map(|w| (w[0], w[1])).collect()
}

/// Concatenates per-partition buffers level by level in partition order,
/// rebasing each fragment's `child_starts` by the number of next-level
/// values already emitted (a fragment's last cumulative entry *is* its
/// next-level value count, so the running base is simply the last entry
/// stitched so far). The result is sized exactly up front.
fn stitch_fragments(frags: &[Flat]) -> Flat {
    let arity = frags.first().map_or(0, |f| f.dims.len());
    let dims: Vec<(usize, usize)> = (0..arity)
        .map(|l| {
            let values = frags.iter().map(|f| f.dims[l].0).sum();
            (values, if l + 1 < arity { values + 1 } else { 0 })
        })
        .collect();
    let total = dims.iter().map(|&(v, c)| v + c).sum();
    let mut words = Vec::with_capacity(total);
    let starts: Vec<Vec<(usize, usize)>> = frags.iter().map(|f| f.starts().collect()).collect();
    for l in 0..arity {
        for (f, s) in frags.iter().zip(&starts) {
            let (v, _) = s[l];
            words.extend_from_slice(&f.words[v..v + f.dims[l].0]);
        }
        if l + 1 < arity {
            words.push(0);
            let mut base = 0;
            for (f, s) in frags.iter().zip(&starts) {
                let (_, c) = s[l];
                let ends = &f.words[c + 1..c + f.dims[l].1];
                words.extend(ends.iter().map(|&e| base + e));
                base += f.dims[l + 1].0 as u32;
            }
        }
    }
    Flat { words, dims }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn figure6_r() -> Relation {
        Relation::from_pairs(vec![(1, 1), (1, 2), (2, 2), (3, 5), (4, 4)])
    }

    fn figure6_s() -> Relation {
        Relation::from_pairs(vec![(1, 1), (1, 2), (1, 3), (2, 5), (2, 7)])
    }

    #[test]
    fn figure6_layout_r() {
        let trie = Trie::build(&figure6_r());
        assert_eq!(trie.arity(), 2);
        assert_eq!(trie.level(0).values(), &[1, 2, 3, 4]);
        assert_eq!(trie.level(0).child_starts(), &[0, 2, 3, 4, 5]);
        assert_eq!(trie.level(1).values(), &[1, 2, 2, 5, 4]);
        assert!(trie.level(1).child_starts().is_empty());
    }

    #[test]
    fn figure6_layout_s() {
        let trie = Trie::build(&figure6_s());
        assert_eq!(trie.level(0).values(), &[1, 2]);
        assert_eq!(trie.level(0).child_starts(), &[0, 3, 5]);
        assert_eq!(trie.level(1).values(), &[1, 2, 3, 5, 7]);
    }

    #[test]
    fn flat_buffer_concatenates_levels_in_order() {
        let trie = Trie::build(&figure6_r());
        // Level 0 values, level 0 child_starts, level 1 values.
        assert_eq!(trie.words(), &[1, 2, 3, 4, 0, 2, 3, 4, 5, 1, 2, 2, 5, 4]);
        assert_eq!(trie.level_dims(), vec![(4, 5), (5, 0)]);
    }

    #[test]
    fn from_parts_round_trips_the_flat_buffer() {
        for rel in [figure6_r(), figure6_s()] {
            let trie = Trie::build(&rel);
            let rebuilt = Trie::from_parts(
                trie.words().to_vec(),
                &trie.level_dims(),
                trie.tuple_count(),
            )
            .expect("exported parts are valid");
            assert_eq!(rebuilt, trie, "relocation must be lossless");
            assert_eq!(rebuilt.enumerate(), trie.enumerate());
        }
        // Empty tries relocate too.
        let empty = Trie::build(&Relation::new(2).unwrap());
        let rebuilt = Trie::from_parts(empty.words().to_vec(), &empty.level_dims(), 0).unwrap();
        assert_eq!(rebuilt, empty);
    }

    #[test]
    fn from_parts_rejects_corrupted_layouts() {
        let trie = Trie::build(&figure6_r());
        let dims = trie.level_dims();
        let words = trie.words().to_vec();
        // Wrong total word count.
        let mut short = words.clone();
        short.pop();
        assert!(matches!(
            Trie::from_parts(short, &dims, trie.tuple_count()),
            Err(TrieLayoutError::WordCount { .. })
        ));
        // Child array not values + 1 entries long.
        assert!(matches!(
            Trie::from_parts(words.clone(), &[(4, 4), (6, 0)], trie.tuple_count()),
            Err(TrieLayoutError::ChildCount { level: 0, .. })
        ));
        // Oversize child offset: the last start runs past the leaf level.
        let mut oversize = words.clone();
        oversize[8] = 99; // child_starts[4] of level 0
        assert!(matches!(
            Trie::from_parts(oversize, &dims, trie.tuple_count()),
            Err(TrieLayoutError::Offset {
                level: 0,
                offset: 99,
                ..
            })
        ));
        // Non-monotone offsets.
        let mut backwards = words.clone();
        backwards[6] = 1; // starts 0,2,1,...
        assert!(matches!(
            Trie::from_parts(backwards, &dims, trie.tuple_count()),
            Err(TrieLayoutError::Offset { level: 0, .. })
        ));
        // First offset not zero.
        let mut nonzero = words.clone();
        nonzero[4] = 1;
        assert!(matches!(
            Trie::from_parts(nonzero, &dims, trie.tuple_count()),
            Err(TrieLayoutError::Offset {
                level: 0,
                index: 0,
                ..
            })
        ));
        // Dims whose sum overflows cannot wrap around to the buffer length.
        let wrap = [(usize::MAX, 0), (words.len() + 1, 0)];
        assert!(matches!(
            Trie::from_parts(words.clone(), &wrap, trie.tuple_count()),
            Err(TrieLayoutError::WordCount { .. })
        ));
        // Tuple count disagreeing with the leaf width.
        assert!(matches!(
            Trie::from_parts(words, &dims, 99),
            Err(TrieLayoutError::TupleCount {
                expected: 5,
                found: 99
            })
        ));
    }

    #[test]
    fn child_range_indexes_next_level() {
        let trie = Trie::build(&figure6_r());
        assert_eq!(trie.level(0).child_range(0), (0, 2));
        assert_eq!(trie.level(0).child_range(3), (4, 5));
        let (s, e) = trie.level(0).child_range(0);
        assert_eq!(&trie.level(1).values()[s..e], &[1, 2]);
    }

    #[test]
    fn enumerate_round_trips() {
        let rel = Relation::from_tuples(
            3,
            vec![
                vec![1u32, 2, 3],
                vec![1, 2, 4],
                vec![1, 5, 1],
                vec![2, 1, 1],
                vec![9, 9, 9],
            ],
        )
        .unwrap();
        let trie = Trie::build(&rel);
        assert_eq!(trie.tuple_count(), rel.len());
        let tuples = trie.enumerate();
        let expect: Vec<Vec<Value>> = rel.iter().map(|t| t.to_vec()).collect();
        assert_eq!(tuples, expect);
    }

    #[test]
    fn empty_relation_builds_empty_trie() {
        let rel = Relation::new(2).unwrap();
        let trie = Trie::build(&rel);
        assert_eq!(trie.tuple_count(), 0);
        assert!(trie.level(0).is_empty());
        assert!(trie.enumerate().is_empty());
    }

    #[test]
    fn unary_relation_trie() {
        let rel = Relation::from_tuples(1, vec![vec![4u32], vec![1], vec![4]]).unwrap();
        let trie = Trie::build(&rel);
        assert_eq!(trie.level(0).values(), &[1, 4]);
        assert_eq!(trie.enumerate(), vec![vec![1], vec![4]]);
    }

    #[test]
    fn assign_addresses_gives_disjoint_spans() {
        let mut trie = Trie::build(&figure6_r());
        let mut asp = AddressSpace::new();
        trie.assign_addresses(&mut asp);
        let v0 = trie.level(0).values_span();
        let c0 = trie.level(0).child_span();
        let v1 = trie.level(1).values_span();
        assert_eq!(v0.bytes, 16);
        assert_eq!(c0.bytes, 20);
        assert_eq!(v1.bytes, 20);
        assert!(v0.base + v0.bytes <= c0.base);
        assert!(c0.base + c0.bytes <= v1.base);
    }

    #[test]
    fn bytes_counts_all_words() {
        let trie = Trie::build(&figure6_r());
        // 4 + 5 values, 5 child starts = 14 words, plus the root directory
        // over 0..=5 (root [1, 2, 3, 4] is dense) = 6 words, plus one
        // one-`u64` leaf bitmap per root node = 8 words.
        assert_eq!(trie.root_dir(), &[0, 0, 1, 2, 3, 4]);
        assert_eq!(
            trie.leaf_bits(),
            (&[0b110, 0b100, 0b10_0000, 0b1_0000][..], 1)
        );
        assert_eq!(trie.bytes(), (14 + 6 + 8) * 4);
        // A sparse trie has neither index: only the stored words count.
        let sparse = Trie::build(&Relation::from_pairs(vec![(1, 1), (90, 200)]));
        assert!(sparse.root_dir().is_empty());
        assert_eq!(sparse.leaf_bits().1, 0);
        assert_eq!(sparse.bytes(), sparse.words().len() as u64 * 4);
    }

    #[test]
    fn root_directory_exists_only_for_dense_roots() {
        let pairs = |roots: &[Value]| Relation::from_pairs(roots.iter().map(|&x| (x, 0)));
        // At the cap: max + 2 == 2 * len.
        let at_cap = Trie::build(&pairs(&[0, 3, 4, 6]));
        assert_eq!(at_cap.root_dir(), &[0, 1, 1, 1, 2, 3, 3, 4]);
        // One past the cap.
        assert!(Trie::build(&pairs(&[0, 3, 4, 7])).root_dir().is_empty());
        // A root ending at u32::MAX - 1 (or u32::MAX): sizing the table
        // neither overflows nor allocates.
        for top in [u32::MAX - 1, u32::MAX] {
            let huge = Trie::build(&pairs(&[0, 1, top]));
            assert!(huge.root_dir().is_empty(), "root ending at {top}");
        }
        assert!(Trie::build(&Relation::new(2).unwrap())
            .root_dir()
            .is_empty());
        // Arity 1: the root is the leaf level.
        let unary = Relation::from_tuples(1, vec![vec![1u32], vec![2], vec![3]]).unwrap();
        assert_eq!(Trie::build(&unary).root_dir(), &[0, 0, 1, 2, 3]);
    }

    #[test]
    fn from_parts_derives_the_directory_from_untrusted_roots() {
        let trie = Trie::build(&figure6_r());
        let rebuilt = Trie::from_parts(
            trie.words().to_vec(),
            &trie.level_dims(),
            trie.tuple_count(),
        )
        .unwrap();
        assert_eq!(rebuilt.root_dir(), trie.root_dir());
        assert_eq!(rebuilt.bytes(), trie.bytes());
        // A corrupted root claiming a huge last value: no directory, no
        // large allocation.
        let mut words = trie.words().to_vec();
        words[3] = u32::MAX - 1;
        let lying = Trie::from_parts(words, &trie.level_dims(), trie.tuple_count()).unwrap();
        assert!(lying.root_dir().is_empty());
        // An unsorted root within the cap still builds a bounded table
        // without panicking.
        let mut words = trie.words().to_vec();
        words[..4].copy_from_slice(&[5, 0, 4, 2]);
        let unsorted = Trie::from_parts(words, &trie.level_dims(), trie.tuple_count()).unwrap();
        assert_eq!(unsorted.root_dir().len(), 4);
        assert!(unsorted.root_dir().iter().all(|&d| d <= 4));
    }

    #[test]
    fn leaf_bitmaps_exist_only_within_the_cap() {
        // Four parents and four leaf values: at the cap while one word per
        // parent suffices (every leaf value below 64), past it from 64 on.
        let rel = |top: Value| Relation::from_pairs([(0, 1), (1, 2), (2, 3), (3, top)]);
        let at_cap = Trie::build(&rel(63));
        assert_eq!(at_cap.leaf_bits(), (&[0b10, 0b100, 0b1000, 1 << 63][..], 1));
        assert_eq!(Trie::build(&rel(64)).leaf_bits(), (&[][..], 0));
        // Arity 1: the root is the leaf level, one parent for all of it.
        let unary = Relation::from_tuples(1, vec![vec![0u32], vec![65]]).unwrap();
        assert_eq!(Trie::build(&unary).leaf_bits(), (&[1, 0b10][..], 2));
        let empty = Trie::build(&Relation::new(2).unwrap());
        assert_eq!(empty.leaf_bits(), (&[][..], 0));
    }

    #[test]
    fn from_parts_derives_leaf_bitmaps_from_untrusted_leaves() {
        let trie = Trie::build(&figure6_r());
        // Leaf values sit at words 9..14 (4 root values, 5 child starts).
        let leaf = 9..14;
        // A corrupted leaf claiming a huge value: no bitmaps, no large
        // allocation, and no panic.
        for top in [u32::MAX - 1, u32::MAX] {
            let mut words = trie.words().to_vec();
            words[leaf.end - 1] = top;
            let lying = Trie::from_parts(words, &trie.level_dims(), trie.tuple_count()).unwrap();
            assert_eq!(lying.leaf_bits(), (&[][..], 0), "leaf holding {top}");
        }
        // Unsorted leaf frames within the cap still build bounded bitmaps
        // holding exactly each parent's values.
        let mut words = trie.words().to_vec();
        words[leaf].copy_from_slice(&[2, 1, 0, 5, 3]);
        let unsorted = Trie::from_parts(words, &trie.level_dims(), trie.tuple_count()).unwrap();
        assert_eq!(
            unsorted.leaf_bits(),
            (&[0b110, 0b1, 0b10_0000, 0b1000][..], 1)
        );
    }

    #[test]
    fn partition_boundaries_fall_on_root_key_changes() {
        // Root value 1 owns 6 of 8 rows; no boundary may land inside its run.
        let rel = Relation::from_tuples(
            2,
            (0..6u32)
                .map(|y| vec![1u32, y])
                .chain([vec![2, 0], vec![3, 0]])
                .collect::<Vec<_>>(),
        )
        .unwrap();
        for parts in 1..=8 {
            let ranges = partition_rows(&rel, parts);
            assert_eq!(ranges[0].0, 0);
            assert_eq!(ranges.last().unwrap().1, rel.len());
            for w in ranges.windows(2) {
                assert_eq!(w[0].1, w[1].0, "ranges must be contiguous");
            }
            for &(s, e) in &ranges {
                assert!(s < e, "ranges must be non-empty");
                if s > 0 {
                    assert_ne!(
                        rel.tuple(s - 1)[0],
                        rel.tuple(s)[0],
                        "boundary inside a root-key run"
                    );
                }
            }
        }
    }

    #[test]
    fn par_build_matches_build_on_figure6() {
        for workers in [1, 2, 3, 7] {
            let pool = WorkerPool::with_workers(workers);
            assert_eq!(
                Trie::par_build(&figure6_r(), &pool),
                Trie::build(&figure6_r())
            );
            assert_eq!(
                Trie::par_build(&figure6_s(), &pool),
                Trie::build(&figure6_s())
            );
        }
    }

    #[test]
    fn par_build_handles_empty_and_single_row() {
        let pool = WorkerPool::with_workers(4);
        let empty = Relation::new(3).unwrap();
        assert_eq!(Trie::par_build(&empty, &pool), Trie::build(&empty));
        let one = Relation::from_tuples(2, vec![vec![7u32, 9]]).unwrap();
        assert_eq!(Trie::par_build(&one, &pool), Trie::build(&one));
    }

    #[test]
    fn par_build_single_root_value_collapses_to_one_partition() {
        let rel =
            Relation::from_tuples(2, (0..100u32).map(|y| vec![5, y]).collect::<Vec<_>>()).unwrap();
        let pool = WorkerPool::with_workers(4);
        assert_eq!(partition_rows(&rel, 4).len(), 1);
        assert_eq!(Trie::par_build(&rel, &pool), Trie::build(&rel));
    }
}
