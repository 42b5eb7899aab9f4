use std::collections::HashSet;

use triejax_relation::Relation;

/// A directed graph stored as a deduplicated edge list.
///
/// Vertices are dense `u32` identifiers in `0..num_nodes`. Self-loops are
/// rejected at construction: the paper's pattern queries treat the graph as
/// an adjacency relation, and SNAP's versions of these datasets are
/// loop-free.
///
/// # Example
///
/// ```
/// use triejax_graph::Graph;
///
/// let g = Graph::from_edges(4, vec![(0, 1), (1, 2), (0, 1), (2, 0)]);
/// assert_eq!(g.num_edges(), 3); // duplicate removed
/// assert_eq!(g.num_nodes(), 4);
/// assert_eq!(g.max_out_degree(), 1);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Graph {
    num_nodes: u32,
    edges: Vec<(u32, u32)>,
}

impl Graph {
    /// Builds a graph from an edge list, deduplicating and dropping
    /// self-loops. Node ids must be below `num_nodes`.
    ///
    /// # Panics
    ///
    /// Panics if an endpoint is `>= num_nodes`.
    pub fn from_edges<I>(num_nodes: u32, edges: I) -> Graph
    where
        I: IntoIterator<Item = (u32, u32)>,
    {
        let keys = edges
            .into_iter()
            .filter_map(|(a, b)| {
                assert!(a < num_nodes && b < num_nodes, "edge endpoint out of range");
                (a != b).then(|| edge_key(a, b))
            })
            .collect();
        Graph::from_keys(num_nodes, keys)
    }

    /// Builds a graph from [`edge_key`]s of loop-free edges whose
    /// endpoints are below `num_nodes`: one sort, one dedup, one unpack.
    pub(crate) fn from_keys(num_nodes: u32, mut keys: Vec<u64>) -> Graph {
        keys.sort_unstable();
        keys.dedup();
        let edges = keys
            .into_iter()
            .map(|key| ((key >> 32) as u32, key as u32))
            .collect();
        Graph { num_nodes, edges }
    }

    /// Declared vertex-count (some ids may have no incident edge).
    pub fn num_nodes(&self) -> u32 {
        self.num_nodes
    }

    /// Number of directed edges.
    pub fn num_edges(&self) -> usize {
        self.edges.len()
    }

    /// The sorted, deduplicated edge list.
    pub fn edges(&self) -> &[(u32, u32)] {
        &self.edges
    }

    /// Maximum out-degree over all vertices.
    pub fn max_out_degree(&self) -> usize {
        let mut best = 0;
        let mut i = 0;
        while i < self.edges.len() {
            let v = self.edges[i].0;
            let mut j = i;
            while j < self.edges.len() && self.edges[j].0 == v {
                j += 1;
            }
            best = best.max(j - i);
            i = j;
        }
        best
    }

    /// Mean out-degree over *declared* vertices.
    pub fn avg_degree(&self) -> f64 {
        if self.num_nodes == 0 {
            0.0
        } else {
            self.edges.len() as f64 / self.num_nodes as f64
        }
    }

    /// Number of vertices with at least one incident edge.
    pub fn touched_nodes(&self) -> usize {
        let mut seen: HashSet<u32> = HashSet::new();
        for &(a, b) in &self.edges {
            seen.insert(a);
            seen.insert(b);
        }
        seen.len()
    }

    /// The adjacency relation `G(src, dst)` used by every pattern query.
    pub fn edge_relation(&self) -> Relation {
        Relation::from_pairs(self.edges.iter().copied())
    }

    /// The symmetrized graph: every edge also present reversed.
    pub fn undirected(&self) -> Graph {
        let keys = self
            .edges
            .iter()
            .flat_map(|&(a, b)| [edge_key(a, b), edge_key(b, a)])
            .collect();
        Graph::from_keys(self.num_nodes, keys)
    }
}

/// Packs a directed edge into one sort key, `a` in the high half, so key
/// order is the edge list's lexicographic order.
pub(crate) fn edge_key(a: u32, b: u32) -> u64 {
    (u64::from(a) << 32) | u64::from(b)
}

#[cfg(test)]
mod tests {
    use super::*;

    impl Graph {
        /// Out-degree of vertex `v`.
        fn out_degree(&self, v: u32) -> usize {
            let lo = self.edges.partition_point(|&(a, _)| a < v);
            let hi = self.edges.partition_point(|&(a, _)| a <= v);
            hi - lo
        }
    }

    #[test]
    fn dedup_and_no_self_loops() {
        let g = Graph::from_edges(3, vec![(0, 1), (0, 1), (1, 1), (2, 0)]);
        assert_eq!(g.num_edges(), 2);
        assert_eq!(g.edges(), &[(0, 1), (2, 0)]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_panics() {
        let _ = Graph::from_edges(2, vec![(0, 2)]);
    }

    #[test]
    fn degrees() {
        let g = Graph::from_edges(5, vec![(0, 1), (0, 2), (0, 3), (1, 2)]);
        assert_eq!(g.out_degree(0), 3);
        assert_eq!(g.out_degree(1), 1);
        assert_eq!(g.out_degree(4), 0);
        assert_eq!(g.max_out_degree(), 3);
        assert!((g.avg_degree() - 0.8).abs() < 1e-12);
        assert_eq!(g.touched_nodes(), 4);
    }

    #[test]
    fn edge_relation_round_trips() {
        let g = Graph::from_edges(4, vec![(3, 1), (0, 2)]);
        let rel = g.edge_relation();
        let back: Vec<(u32, u32)> = rel.iter().map(|t| (t[0], t[1])).collect();
        assert_eq!(back, vec![(0, 2), (3, 1)]);
    }

    #[test]
    fn undirected_symmetrizes() {
        let g = Graph::from_edges(3, vec![(0, 1), (1, 2)]).undirected();
        assert_eq!(g.num_edges(), 4);
        assert!(g.edges().contains(&(1, 0)));
        assert!(g.edges().contains(&(2, 1)));
    }

    #[test]
    fn empty_graph() {
        let g = Graph::from_edges(0, Vec::new());
        assert_eq!(g.num_edges(), 0);
        assert_eq!(g.avg_degree(), 0.0);
        assert_eq!(g.max_out_degree(), 0);
    }
}
