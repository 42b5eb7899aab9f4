//! The six evaluation datasets of paper Table 2, as deterministic
//! synthetic stand-ins.
//!
//! | name     | nodes  | edges   | category      |
//! |----------|--------|---------|---------------|
//! | grqc     | 5,242  | 14,496  | Collaboration |
//! | bitcoin  | 3,783  | 24,186  | Bitcoin       |
//! | gnu04    | 10,876 | 39,994  | P2P           |
//! | facebook | 4,039  | 88,234  | Social        |
//! | wiki     | 7,115  | 103,689 | Social        |
//! | gnu31    | 62,586 | 147,892 | P2P           |
//!
//! At [`Scale::Full`] the generated graphs match these counts exactly.
//! Smaller scales divide both counts, preserving density and topology class
//! while keeping simulation times short.

use crate::generators::{erdos_renyi, pad_or_trim, power_law_fixed, triangle_closure};
use crate::Graph;

/// Topology class, which selects the generator.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Category {
    /// Co-authorship style: power-law plus strong triangle closure.
    Collaboration,
    /// Trust network: power-law, moderate closure.
    Bitcoin,
    /// Peer-to-peer overlay: near-uniform degrees, few triangles.
    P2p,
    /// Social network: dense power-law with heavy closure.
    Social,
}

impl Category {
    /// Label as printed in Table 2.
    pub fn label(self) -> &'static str {
        match self {
            Category::Collaboration => "Collabor.",
            Category::Bitcoin => "Bitcoin",
            Category::P2p => "P2P",
            Category::Social => "Social",
        }
    }
}

/// Static description of one Table-2 dataset.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DatasetProfile {
    /// Short name used in the paper's figures (e.g. `"wiki"`).
    pub name: &'static str,
    /// Full SNAP identifier (e.g. `"wiki-Vote"`).
    pub snap_name: &'static str,
    /// Node count at full scale.
    pub nodes: u32,
    /// Directed edge count at full scale.
    pub edges: usize,
    /// Topology class.
    pub category: Category,
}

/// Generation scale: full Table-2 size or a proportionally shrunk variant.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Scale {
    /// Exact Table-2 node and edge counts.
    Full,
    /// One eighth of the full size — the default for experiment binaries,
    /// keeping every (query, dataset, system) cell within seconds.
    #[default]
    Mini,
    /// One fortieth of the full size — for unit tests.
    Tiny,
}

impl Scale {
    /// The divisor applied to node and edge counts.
    fn divisor(self) -> u32 {
        match self {
            Scale::Full => 1,
            Scale::Mini => 8,
            Scale::Tiny => 40,
        }
    }

    /// Short label for table headers.
    pub fn label(self) -> &'static str {
        match self {
            Scale::Full => "full",
            Scale::Mini => "mini",
            Scale::Tiny => "tiny",
        }
    }
}

/// The six evaluation datasets (paper Table 2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
#[non_exhaustive]
pub enum Dataset {
    /// ca-GrQc collaboration network.
    GrQc,
    /// soc-sign-bitcoin-alpha trust network.
    Bitcoin,
    /// p2p-Gnutella04 peer-to-peer snapshot.
    Gnutella04,
    /// ego-Facebook social circles.
    Facebook,
    /// wiki-Vote adminship votes.
    WikiVote,
    /// p2p-Gnutella31 peer-to-peer snapshot.
    Gnutella31,
}

impl Dataset {
    /// All six datasets in the paper's Table-2 order.
    pub const ALL: [Dataset; 6] = [
        Dataset::GrQc,
        Dataset::Bitcoin,
        Dataset::Gnutella04,
        Dataset::Facebook,
        Dataset::WikiVote,
        Dataset::Gnutella31,
    ];

    /// Static profile (Table-2 row).
    pub fn profile(self) -> DatasetProfile {
        match self {
            Dataset::GrQc => DatasetProfile {
                name: "grqc",
                snap_name: "ca-GrQc",
                nodes: 5_242,
                edges: 14_496,
                category: Category::Collaboration,
            },
            Dataset::Bitcoin => DatasetProfile {
                name: "bitcoin",
                snap_name: "soc-sign-bitcoin-alpha",
                nodes: 3_783,
                edges: 24_186,
                category: Category::Bitcoin,
            },
            Dataset::Gnutella04 => DatasetProfile {
                name: "gnu04",
                snap_name: "p2p-Gnutella04",
                nodes: 10_876,
                edges: 39_994,
                category: Category::P2p,
            },
            Dataset::Facebook => DatasetProfile {
                name: "facebook",
                snap_name: "ego-Facebook",
                nodes: 4_039,
                edges: 88_234,
                category: Category::Social,
            },
            Dataset::WikiVote => DatasetProfile {
                name: "wiki",
                snap_name: "wiki-Vote",
                nodes: 7_115,
                edges: 103_689,
                category: Category::Social,
            },
            Dataset::Gnutella31 => DatasetProfile {
                name: "gnu31",
                snap_name: "p2p-Gnutella31",
                nodes: 62_586,
                edges: 147_892,
                category: Category::P2p,
            },
        }
    }

    /// Short figure label (e.g. `"wiki"`).
    pub fn label(self) -> &'static str {
        self.profile().name
    }

    /// Finds a dataset by its short name, case-insensitively.
    pub fn from_label(label: &str) -> Option<Dataset> {
        Dataset::ALL
            .into_iter()
            .find(|d| d.label().eq_ignore_ascii_case(label))
    }

    /// Deterministically generates the synthetic stand-in at `scale`.
    ///
    /// Node and edge counts equal the profile's counts divided by the
    /// scale's divisor, 1, 8 or 40 (exactly; the generator pads or trims to
    /// the target edge count).
    pub fn generate(self, scale: Scale) -> Graph {
        let p = self.profile();
        let div = scale.divisor();
        let n = (p.nodes / div).max(16);
        let m = (p.edges / div as usize).max(32);
        let seed = 0x7249_0000 + self as u64;
        let g = match p.category {
            Category::Collaboration => {
                // Power-law with strong clustering: collaborations are
                // triangle-dense.
                let base = power_law_fixed(n, m * 7 / 10, 2.4, seed);
                triangle_closure(&base, m / 2, seed ^ 0xAB)
            }
            Category::Bitcoin => {
                let base = power_law_fixed(n, m * 4 / 5, 2.1, seed);
                triangle_closure(&base, m / 4, seed ^ 0xAB)
            }
            Category::P2p => {
                // Gnutella overlays are engineered: near-uniform degree,
                // almost no clustering.
                erdos_renyi(n, m, seed)
            }
            Category::Social => {
                let base = power_law_fixed(n, m * 3 / 4, 2.0, seed);
                triangle_closure(&base, m / 2, seed ^ 0xAB)
            }
        };
        pad_or_trim(&g, m, seed ^ 0xCD)
    }
}

impl std::fmt::Display for Dataset {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiny_scale_matches_divided_counts() {
        for d in Dataset::ALL {
            let p = d.profile();
            let g = d.generate(Scale::Tiny);
            let want_edges = (p.edges / 40).max(32);
            assert_eq!(g.num_edges(), want_edges, "{d}");
            assert_eq!(g.num_nodes(), (p.nodes / 40).max(16), "{d}");
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let a = Dataset::WikiVote.generate(Scale::Tiny);
        let b = Dataset::WikiVote.generate(Scale::Tiny);
        assert_eq!(a, b);
    }

    #[test]
    fn social_graphs_have_hubs_p2p_does_not() {
        let fb = Dataset::Facebook.generate(Scale::Mini);
        let gnu = Dataset::Gnutella04.generate(Scale::Mini);
        let fb_skew = fb.max_out_degree() as f64 / fb.avg_degree();
        let gnu_skew = gnu.max_out_degree() as f64 / gnu.avg_degree();
        assert!(
            fb_skew > 2.0 * gnu_skew,
            "facebook skew {fb_skew:.1} should exceed gnutella {gnu_skew:.1}"
        );
    }

    #[test]
    fn labels_round_trip() {
        for d in Dataset::ALL {
            assert_eq!(Dataset::from_label(d.label()), Some(d));
        }
        assert_eq!(Dataset::from_label("WIKI"), Some(Dataset::WikiVote));
        assert_eq!(Dataset::from_label("nope"), None);
    }

    #[test]
    fn profiles_match_table2() {
        assert_eq!(Dataset::GrQc.profile().nodes, 5242);
        assert_eq!(Dataset::GrQc.profile().edges, 14496);
        assert_eq!(Dataset::Gnutella31.profile().nodes, 62586);
        assert_eq!(Dataset::Gnutella31.profile().edges, 147892);
        assert_eq!(Dataset::Facebook.profile().category.label(), "Social");
    }

    #[test]
    fn full_scale_grqc_matches_exactly() {
        // One full-scale generation to pin the exact-count contract
        // (the others are exercised at tiny scale for speed).
        let g = Dataset::GrQc.generate(Scale::Full);
        assert_eq!(g.num_edges(), 14496);
        assert_eq!(g.num_nodes(), 5242);
    }
}
