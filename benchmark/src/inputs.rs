//! The workloads and their seeded inputs.
//!
//! Graphs follow the category recipes of `Dataset::generate`
//! (`crates/graph/src/datasets.rs`) and reach the program only as SNAP
//! text and datalog text.
//!
//! A workload's topology is fixed, like the paper's SNAP datasets: the
//! result sizes of one power-law recipe differ by ±10 % and more from one
//! draw to the next, which would bury a 5 % change of the program under
//! the luck of the draw. `--seed` draws what the program sees of that
//! topology — the order of the edge lines in the SNAP file, and with it
//! the dense node ids `read_snap` hands out by first appearance, so every
//! trie, shard boundary and result row differs from seed to seed — and
//! the mutation batches of `live_delta`.

use std::collections::{HashMap, HashSet};
use std::io::{BufWriter, Write as _};
use std::path::{Path, PathBuf};

use triejax_graph::{erdos_renyi, power_law_fixed, triangle_closure, Graph};

use crate::{Args, Rng};

/// Name of the one edge relation every query joins copies of.
pub const EDGE_RELATION: &str = "G";

/// The five paper patterns (Table 1) as the datalog text a client sends.
pub const PATH3: &str = "path3(x,y,z) = G(x,y),G(y,z).";
/// Four-vertex path.
pub const PATH4: &str = "path4(x,y,z,w) = G(x,y),G(y,z),G(z,w).";
/// Directed triangle.
pub const CYCLE3: &str = "cycle3(x,y,z) = G(x,y),G(y,z),G(z,x).";
/// Directed four-cycle.
pub const CYCLE4: &str = "cycle4(x,y,z,w) = G(x,y),G(y,z),G(z,w),G(w,x).";
/// Four-clique.
pub const CLIQUE4: &str = "clique4(x,y,z,w) = G(x,y),G(y,z),G(z,w),G(w,x),G(z,x),G(w,y).";
/// All five, in the round-robin order `small_queries` sends them.
pub const PAPER_PATTERNS: [&str; 5] = [PATH3, PATH4, CYCLE3, CYCLE4, CLIQUE4];

/// Rows a first page holds (`cold_start`).
pub const FIRST_PAGE_ROWS: u64 = 1024;

/// Edges one `live_delta` round inserts, and as many it deletes, so the
/// graph keeps its size and shape however many rounds a run completes.
pub const LIVE_BATCH: usize = 64;

/// Topology class of a generated graph (paper Table 2's categories).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Recipe {
    /// Near-uniform degrees, almost no clustering (Gnutella).
    P2p,
    /// Dense power law with heavy triangle closure (Facebook, wiki-Vote).
    Social,
    /// Power law with strong clustering (ca-GrQc).
    Collaboration,
}

/// What one operation of a workload is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// One query into a counting sink on the default engine.
    Count,
    /// The same through `QueryHandle::with_ctj()`.
    CountCtj,
    /// One query pulled row by row through `QueryHandle::stream()`.
    Stream,
    /// `Session::open(store)` plus the first page of a query, then
    /// `Session::new(catalog)` plus the same first page.
    ColdStart,
    /// Apply a batch, receive the standing query's update, query again.
    LiveDelta,
    /// One round of small queries, each pattern once.
    Round,
}

/// One benchmark workload: a graph recipe at a size, the queries sent
/// against it, and what an operation is.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    /// Name in `BENCHMARK.json`.
    pub name: &'static str,
    /// What one operation is.
    pub kind: Kind,
    /// Graph topology.
    pub recipe: Recipe,
    /// Node count.
    pub nodes: u32,
    /// Edge count.
    pub edges: usize,
    /// Query texts; all but `Round` have one.
    pub queries: &'static [&'static str],
}

/// The seven workloads. Sizes are calibrated on the 2-core container so a
/// median operation of the four query workloads takes 60–120 ms — long
/// enough to repeat within a few percent, short enough for 140+ samples in
/// the timed phase.
pub const WORKLOADS: [Workload; 7] = [
    Workload {
        name: "sparse_seek",
        kind: Kind::Count,
        recipe: Recipe::P2p,
        nodes: 62_586,
        edges: 147_892,
        queries: &[CYCLE4],
    },
    Workload {
        name: "dense_clique",
        kind: Kind::Count,
        recipe: Recipe::Social,
        nodes: 200,
        edges: 4_500,
        queries: &[CLIQUE4],
    },
    Workload {
        name: "pjr_reuse",
        kind: Kind::CountCtj,
        recipe: Recipe::Social,
        nodes: 100,
        edges: 1_500,
        queries: &[CYCLE4],
    },
    Workload {
        name: "emit_stream",
        kind: Kind::Stream,
        recipe: Recipe::Collaboration,
        nodes: 3_000,
        edges: 7_100,
        queries: &[PATH4],
    },
    Workload {
        name: "cold_start",
        kind: Kind::ColdStart,
        recipe: Recipe::P2p,
        nodes: 62_586,
        edges: 147_892,
        queries: &[PATH3],
    },
    Workload {
        name: "live_delta",
        kind: Kind::LiveDelta,
        recipe: Recipe::Collaboration,
        nodes: 5_242,
        edges: 14_496,
        queries: &[CYCLE3],
    },
    Workload {
        name: "small_queries",
        kind: Kind::Round,
        recipe: Recipe::Collaboration,
        nodes: 131,
        edges: 362,
        queries: &PAPER_PATTERNS,
    },
];

/// Seed of every workload's topology; see the module documentation.
const TOPOLOGY_SEED: u64 = 0x7A1E_1A55;

/// The seeded inputs of one run.
#[derive(Debug, Clone)]
pub struct Inputs {
    /// The edge lines of the SNAP file, in the order `--seed` drew.
    pub lines: Edges,
    /// The same graph under the dense first-appearance node ids
    /// `snap::read_snap` assigns — the ids the program's relation, every
    /// result row and every mutation batch use.
    pub loaded: Graph,
    /// `live_delta` only (empty otherwise): the edges a run may insert, in
    /// `loaded` ids. They come from a second graph of the same recipe and
    /// size, so swapping live edges for them round after round leaves the
    /// degree skew and clustering where they were; uniform random inserts
    /// would flatten both and the query would get cheaper as the run goes.
    pub insert_pool: Edges,
}

/// A list of directed edges.
pub type Edges = Vec<(u32, u32)>;

/// The client's view of the `live_delta` graph: which edges are live and
/// which wait in the insert pool.
#[derive(Debug, Clone)]
pub struct LiveEdges {
    /// Edges currently in the program's relation.
    pub live: Edges,
    pool: Edges,
    rng: Rng,
}

impl LiveEdges {
    /// Starts from the loaded graph and the insert pool of `inputs`.
    pub fn new(inputs: &Inputs, seed: u64) -> LiveEdges {
        LiveEdges {
            live: inputs.loaded.edges().to_vec(),
            pool: inputs.insert_pool.clone(),
            rng: Rng::new(seed, 17),
        }
    }

    /// Draws the next batch — `LIVE_BATCH` pool edges to insert and as
    /// many live edges to delete — and swaps them between the two sides.
    pub fn next_batch(&mut self) -> (Edges, Edges) {
        let mut inserts = Vec::with_capacity(LIVE_BATCH);
        let mut deletes = Vec::with_capacity(LIVE_BATCH);
        for _ in 0..LIVE_BATCH {
            let i = self.rng.below(self.pool.len());
            inserts.push(self.pool.swap_remove(i));
            let d = self.rng.below(self.live.len());
            deletes.push(self.live.swap_remove(d));
        }
        self.live.extend(&inserts);
        self.pool.extend(&deletes);
        (inserts, deletes)
    }
}

impl Workload {
    /// Finds a workload by name.
    pub fn by_name(name: &str) -> Option<&'static Workload> {
        WORKLOADS.iter().find(|w| w.name == name)
    }

    /// The inputs of this workload, a function of `seed` alone.
    pub fn inputs(&self, seed: u64) -> Inputs {
        let topology = generate(self.recipe, self.nodes, self.edges, TOPOLOGY_SEED);
        let mut lines = topology.edges().to_vec();
        Rng::new(seed, 5).shuffle(&mut lines);
        let mut ids: HashMap<u32, u32> = HashMap::new();
        let mut dense = |v: u32| {
            let next = ids.len() as u32;
            *ids.entry(v).or_insert(next)
        };
        let edges: Vec<_> = lines.iter().map(|&(a, b)| (dense(a), dense(b))).collect();
        let loaded = Graph::from_edges(ids.len() as u32, edges);
        let mut insert_pool = Vec::new();
        if self.kind == Kind::LiveDelta {
            let live: HashSet<_> = loaded.edges().iter().copied().collect();
            let other = generate(
                self.recipe,
                self.nodes,
                self.edges,
                TOPOLOGY_SEED ^ 0x5EED_F00D,
            );
            insert_pool = other
                .edges()
                .iter()
                .filter_map(|(a, b)| Some((*ids.get(a)?, *ids.get(b)?)))
                .filter(|e| !live.contains(e))
                .collect();
            Rng::new(seed, 11).shuffle(&mut insert_pool);
        }
        Inputs {
            lines,
            loaded,
            insert_pool,
        }
    }
}

/// `Dataset::generate`'s recipe for `recipe` with exactly `m` edges,
/// seeded by the caller.
pub fn generate(recipe: Recipe, n: u32, m: usize, seed: u64) -> Graph {
    let mut rng = Rng::new(seed, 3);
    let (s1, s2) = (rng.next_u64(), rng.next_u64());
    let graph = match recipe {
        Recipe::P2p => erdos_renyi(n, m, s1),
        Recipe::Social => triangle_closure(&power_law_fixed(n, m * 3 / 4, 2.0, s1), m / 2, s2),
        Recipe::Collaboration => {
            triangle_closure(&power_law_fixed(n, m * 7 / 10, 2.4, s1), m / 2, s2)
        }
    };
    // Closure overshoots or undershoots `m`; drop random edges or add
    // uniform ones, as the dataset registry does, so sizes are exact.
    let mut edges = graph.edges().to_vec();
    while edges.len() > m {
        let i = rng.below(edges.len());
        edges.swap_remove(i);
    }
    let mut present: HashSet<_> = edges.iter().copied().collect();
    while edges.len() < m {
        let e = (rng.below(n as usize) as u32, rng.below(n as usize) as u32);
        if e.0 != e.1 && present.insert(e) {
            edges.push(e);
        }
    }
    Graph::from_edges(n, edges)
}

/// Writes `lines` as SNAP text to `path`, one edge a line in the order
/// given — the form the program reads.
///
/// # Errors
///
/// Returns the I/O error as text.
fn write_snap_file(lines: &[(u32, u32)], path: &Path) -> Result<(), String> {
    let file = std::fs::File::create(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let mut out = BufWriter::new(file);
    let mut write = || -> std::io::Result<()> {
        writeln!(out, "# Directed graph, {} edges", lines.len())?;
        for (a, b) in lines {
            writeln!(out, "{a}\t{b}")?;
        }
        out.flush()
    };
    write().map_err(|e| format!("{}: {e}", path.display()))
}

/// One run's workload, seeded inputs and files: the SNAP text the program
/// reads and the path its store file may take. Both files are removed
/// when this is dropped, however the run ends.
#[derive(Debug)]
pub struct Prepared {
    /// The workload `--workload` names.
    pub workload: &'static Workload,
    /// Its inputs for `--seed`.
    pub inputs: Inputs,
    /// SNAP text of `inputs.lines`.
    pub snap: PathBuf,
    /// Where the run may save a store file.
    pub store: PathBuf,
}

impl Prepared {
    /// Generates the inputs and writes the SNAP file under `--out-dir`.
    ///
    /// # Errors
    ///
    /// Returns an unknown workload name or an I/O error as text.
    pub fn new(args: &Args) -> Result<Prepared, String> {
        let workload = Workload::by_name(&args.workload)
            .ok_or_else(|| format!("unknown workload {:?}", args.workload))?;
        let inputs = workload.inputs(args.seed);
        std::fs::create_dir_all(&args.out_dir).map_err(|e| e.to_string())?;
        // The process id keeps concurrent runs of one workload apart.
        let stem = format!("{}-{}-{}", workload.name, args.seed, std::process::id());
        let prepared = Prepared {
            workload,
            inputs,
            snap: args.out_dir.join(format!("{stem}.snap")),
            store: args.out_dir.join(format!("{stem}.tjx")),
        };
        write_snap_file(&prepared.inputs.lines, &prepared.snap)?;
        Ok(prepared)
    }
}

impl Drop for Prepared {
    fn drop(&mut self) {
        for path in [&self.snap, &self.store] {
            let _ = std::fs::remove_file(path);
        }
    }
}
