//! Graph statistics: degree distributions, reciprocity, clustering, and
//! walk counts — the structural properties that drive every evaluation
//! figure (degree skew powers the Path4 blowups; triangle density powers
//! the cyclic-query counts).

use std::collections::HashSet;

use crate::Graph;

/// Summary statistics of one graph.
#[derive(Debug, Clone, PartialEq)]
pub struct GraphStats {
    /// Declared vertex count.
    pub nodes: u32,
    /// Directed edge count.
    pub edges: usize,
    /// Maximum out-degree.
    pub max_out_degree: usize,
    /// Mean out-degree over declared vertices.
    pub avg_degree: f64,
    /// Degree skew: max out-degree over mean (1.0 = perfectly uniform).
    pub skew: f64,
    /// Fraction of edges whose reverse also exists.
    pub reciprocity: f64,
    /// Global clustering coefficient of the symmetrized graph:
    /// `3 * triangles / wedges`.
    pub clustering: f64,
    /// Directed walk counts of lengths 1..=4 (floating point: these grow
    /// beyond `u64` on full-size social graphs).
    pub walks: [f64; 4],
}

impl GraphStats {
    /// Computes all statistics for `graph`.
    ///
    /// Cost is `O(E * avg_degree)` for the clustering term; fine for the
    /// bundled dataset sizes.
    pub fn compute(graph: &Graph) -> GraphStats {
        let n = graph.num_nodes() as usize;
        let edges = graph.edges();
        let edge_set: HashSet<(u32, u32)> = edges.iter().copied().collect();

        let reciprocity = if edges.is_empty() {
            0.0
        } else {
            edges
                .iter()
                .filter(|&&(a, b)| edge_set.contains(&(b, a)))
                .count() as f64
                / edges.len() as f64
        };

        // Symmetrized adjacency for clustering.
        let und = graph.undirected();
        let mut adj: Vec<Vec<u32>> = vec![Vec::new(); n];
        for &(a, b) in und.edges() {
            adj[a as usize].push(b);
        }
        let und_set: HashSet<(u32, u32)> = und.edges().iter().copied().collect();
        let mut wedges = 0u64;
        let mut closed = 0u64;
        for nbrs in &adj {
            let d = nbrs.len() as u64;
            wedges += d.saturating_sub(1) * d / 2;
            for i in 0..nbrs.len() {
                for j in i + 1..nbrs.len() {
                    if und_set.contains(&(nbrs[i], nbrs[j])) {
                        closed += 1;
                    }
                }
            }
        }
        let clustering = if wedges == 0 {
            0.0
        } else {
            closed as f64 / wedges as f64
        };

        GraphStats {
            nodes: graph.num_nodes(),
            edges: graph.num_edges(),
            max_out_degree: graph.max_out_degree(),
            avg_degree: graph.avg_degree(),
            skew: if graph.avg_degree() > 0.0 {
                graph.max_out_degree() as f64 / graph.avg_degree()
            } else {
                0.0
            },
            reciprocity,
            clustering,
            walks: walk_counts(graph),
        }
    }
}

impl std::fmt::Display for GraphStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} nodes, {} edges, max deg {}, avg deg {:.2}, skew {:.1}, \
             reciprocity {:.2}, clustering {:.3}",
            self.nodes,
            self.edges,
            self.max_out_degree,
            self.avg_degree,
            self.skew,
            self.reciprocity,
            self.clustering
        )
    }
}

/// Exact number of directed walks of lengths 1..=4, by dynamic
/// programming over the adjacency (each entry `k` counts the sequences
/// `v0 -> v1 -> ... -> vk`).
///
/// These predict the unfiltered expansion cost of vertex-programming
/// pattern matching and upper-bound the path-query result counts.
fn walk_counts(graph: &Graph) -> [f64; 4] {
    let n = graph.num_nodes() as usize;
    let mut ending_at = vec![1.0f64; n];
    let mut counts = [0.0; 4];
    for c in &mut counts {
        let mut next = vec![0.0f64; n];
        let mut total = 0.0;
        for &(a, b) in graph.edges() {
            next[b as usize] += ending_at[a as usize];
            total += ending_at[a as usize];
        }
        *c = total;
        ending_at = next;
    }
    counts
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Dataset, Scale};

    /// Out-degree histogram: `histogram[d]` = number of vertices with
    /// out-degree `d` (the last bucket aggregates the tail).
    fn degree_histogram(graph: &Graph, buckets: usize) -> Vec<usize> {
        let mut hist = vec![0usize; buckets.max(1)];
        let mut per_node = vec![0usize; graph.num_nodes() as usize];
        for &(a, _) in graph.edges() {
            per_node[a as usize] += 1;
        }
        for d in per_node {
            let b = d.min(hist.len() - 1);
            hist[b] += 1;
        }
        hist
    }

    fn triangle() -> Graph {
        Graph::from_edges(3, vec![(0, 1), (1, 2), (2, 0)])
    }

    #[test]
    fn walk_counts_on_a_cycle_are_constant() {
        let w = walk_counts(&triangle());
        assert_eq!(w, [3.0, 3.0, 3.0, 3.0]);
    }

    #[test]
    fn walk_counts_on_a_chain_shrink() {
        let g = Graph::from_edges(4, vec![(0, 1), (1, 2), (2, 3)]);
        assert_eq!(walk_counts(&g), [3.0, 2.0, 1.0, 0.0]);
    }

    #[test]
    fn triangle_is_fully_clustered_and_reciprocal_free() {
        let s = GraphStats::compute(&triangle());
        assert_eq!(s.reciprocity, 0.0);
        assert!((s.clustering - 1.0).abs() < 1e-12);
        assert_eq!(s.edges, 3);
    }

    #[test]
    fn mutual_edges_are_reciprocal() {
        let g = Graph::from_edges(2, vec![(0, 1), (1, 0)]);
        assert_eq!(GraphStats::compute(&g).reciprocity, 1.0);
    }

    #[test]
    fn social_graphs_cluster_more_than_p2p() {
        let fb = GraphStats::compute(&Dataset::Facebook.generate(Scale::Tiny));
        let gnu = GraphStats::compute(&Dataset::Gnutella04.generate(Scale::Tiny));
        assert!(
            fb.clustering > 2.0 * gnu.clustering,
            "facebook {:.3} vs gnutella {:.3}",
            fb.clustering,
            gnu.clustering
        );
    }

    #[test]
    fn degree_histogram_sums_to_node_count() {
        let g = Dataset::GrQc.generate(Scale::Tiny);
        let hist = degree_histogram(&g, 16);
        assert_eq!(hist.iter().sum::<usize>(), g.num_nodes() as usize);
    }

    #[test]
    fn display_is_informative() {
        let s = GraphStats::compute(&triangle()).to_string();
        assert!(s.contains("3 nodes"));
        assert!(s.contains("clustering"));
    }

    #[test]
    fn empty_graph_stats_are_zeroed() {
        let s = GraphStats::compute(&Graph::from_edges(0, Vec::new()));
        assert_eq!(s.reciprocity, 0.0);
        assert_eq!(s.clustering, 0.0);
        assert_eq!(s.walks, [0.0; 4]);
    }
}
