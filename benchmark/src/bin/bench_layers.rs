//! The traced run: per-layer metrics on a workload's own data.
//!
//! Two parts. First the workload's query path is decomposed *from outside*
//! into spans — `op` ⊃ `query.parse`, `query.compile`, `join.tries`,
//! `join.run` ⊃ `sink.push` — kept in memory and written to
//! `<out-dir>/trace-<workload>.json` at exit; the same code with recording
//! off is the untraced twin that gives `trace.overhead_pct`. Then each
//! layer's public functions are timed on the workload's graph and query,
//! and the counters the engines already return (`EngineStats`) are read.
//!
//! Layers are the crates. Unlike `bench_e2e` this binary calls the deep
//! API on purpose: it is the one an engine refactor is expected to touch.

use std::fs::File;
use std::path::Path;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::{Duration, Instant};

use triejax_benchmark::inputs::{
    Inputs, Kind, LiveEdges, Prepared, Workload, EDGE_RELATION, FIRST_PAGE_ROWS, LIVE_BATCH,
    PAPER_PATTERNS,
};
use triejax_benchmark::{
    median, print_environment, print_result, run_main, time_median_ns, Args, Metric, Rng, Tracer,
    CORES, POOL,
};
use triejax_exec::{OrderedMerge, WorkerPool};
use triejax_graph::snap::read_snap;
use triejax_join::{
    intersect_sorted, CancelReason, Catalog, Counting, Ctj, EngineStats, JoinError, Leapfrog, Lftj,
    NoTally, ParCtj, ParLftj, ResultSink, Session, StoredCatalog, TrieCache, TrieSet,
};
use triejax_query::{parse_query, CompiledQuery};
use triejax_relation::{JoinCursor, MergeCursor, Relation, RelationDelta, Trie, TrieCursor, Value};

/// Share of `--seconds` the traced operations and their untraced twins
/// get; the layer probes split the rest.
const TRACE_SHARE: f64 = 0.25;

/// Traced operations kept at most, so the span file stays readable.
const MAX_TRACED_OPS: usize = 200;

/// Timed probes the layer phase runs, for dividing its time budget.
const PROBES: f64 = 48.0;

/// Counts rows; in a traced operation also times its own callbacks, so
/// the sink's share of `join.run` shows as a child span.
#[derive(Default)]
struct TimingSink {
    rows: u64,
    timing: bool,
    first_call: Option<Instant>,
    busy: Duration,
    calls: u64,
}

impl TimingSink {
    fn new(timing: bool) -> TimingSink {
        TimingSink {
            timing,
            ..TimingSink::default()
        }
    }

    fn timed(&mut self, rows: u64) {
        if !self.timing {
            self.rows += rows;
            return;
        }
        let t0 = Instant::now();
        self.first_call.get_or_insert(t0);
        self.rows += rows;
        self.calls += 1;
        self.busy += t0.elapsed();
    }
}

impl ResultSink for TimingSink {
    fn push(&mut self, _tuple: &[Value]) {
        self.timed(1);
    }

    fn push_rows(&mut self, rows: &[Value], arity: usize) {
        self.timed((rows.len() / arity.max(1)) as u64);
    }
}

fn compile(text: &str) -> Result<CompiledQuery, String> {
    let query = parse_query(text).map_err(|e| e.to_string())?;
    CompiledQuery::compile(&query).map_err(|e| e.to_string())
}

/// The parallel engine a workload's queries run on, configured the way
/// `QueryHandle` configures it.
fn run_engine(
    workload: &Workload,
    plan: &CompiledQuery,
    session: &Session,
    sink: &mut dyn ResultSink,
) -> Result<EngineStats, JoinError> {
    let (catalog, deltas) = (session.catalog(), session.deltas());
    let cache = Arc::clone(session.trie_cache());
    let limit = workload.kind == Kind::ColdStart;
    let result = if workload.kind == Kind::CountCtj {
        let mut e = ParCtj::with_pool(POOL).with_trie_cache(cache);
        if limit {
            e = e.with_row_limit(FIRST_PAGE_ROWS);
        }
        e.run_tallied_with::<Counting>(plan, &catalog, &deltas, sink)
    } else {
        let mut e = ParLftj::with_pool(POOL).with_trie_cache(cache);
        if limit {
            e = e.with_row_limit(FIRST_PAGE_ROWS);
        }
        e.run_tallied_with::<Counting>(plan, &catalog, &deltas, sink)
    };
    match result {
        Err(JoinError::Cancelled {
            reason: CancelReason::RowLimit,
            partial,
        }) => Ok(*partial),
        other => other,
    }
}

/// One operation of the workload's query path, layer by layer. With the
/// tracer recording this is the traced operation; with recording off the
/// spans vanish and the sink stops timing, leaving the untraced twin.
fn layered_op(
    t: &mut Tracer,
    workload: &Workload,
    session: &Session,
    text: &str,
) -> Result<u64, String> {
    let timing = t.recording();
    t.span("op", |t| {
        let query = t
            .span("query.parse", |_| parse_query(text))
            .map_err(|e| e.to_string())?;
        let plan = t
            .span("query.compile", |_| CompiledQuery::compile(&query))
            .map_err(|e| e.to_string())?;
        t.span("join.tries", |_| {
            TrieSet::build_on(
                &plan,
                &session.catalog(),
                &WorkerPool::with_workers(POOL),
                Some(session.trie_cache()),
            )
        })
        .map_err(|e| e.to_string())?;
        t.span("join.run", |t| {
            let mut sink = TimingSink::new(timing);
            run_engine(workload, &plan, session, &mut sink).map_err(|e| e.to_string())?;
            if let Some(first) = sink.first_call {
                t.folded("sink.push", first, sink.busy, sink.calls);
            }
            Ok(sink.rows)
        })
    })
}

/// Metrics collected so far plus the running account of checked results.
#[derive(Default)]
struct Report {
    metrics: Vec<Metric>,
    attempted: u64,
    failed: u64,
}

impl Report {
    fn add(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push(Metric::new(name, value, unit));
    }

    /// Counts one checked result: `got` rows where `want` were expected.
    fn check(&mut self, what: &str, got: u64, want: u64) {
        self.attempted += 1;
        if got != want {
            self.failed += 1;
            eprintln!("FAILED {what}: {got} rows, expected {want}");
        }
    }
}

/// Everything the probes share: the workload, its inputs and the time one
/// timed probe may take.
struct Ctx<'a> {
    workload: &'static Workload,
    inputs: &'a Inputs,
    seed: u64,
    snap: &'a Path,
    store: &'a Path,
    slice: Duration,
}

impl Ctx<'_> {
    /// Median milliseconds of `f`, within one probe's time slice.
    fn ms(&self, f: impl FnMut()) -> f64 {
        time_median_ns(self.slice, 2, 10_000, f) / 1e6
    }

    /// Median microseconds of `f`.
    fn us(&self, f: impl FnMut()) -> f64 {
        time_median_ns(self.slice, 3, 100_000, f) / 1e3
    }

    fn catalog(&self, edges: &Relation) -> Catalog {
        let mut catalog = Catalog::new();
        catalog.insert(EDGE_RELATION, edges.clone());
        catalog
    }
}

/// Full depth-first enumeration of a binary relation through the cursor
/// interface both the frozen and the merged view implement.
fn scan<C: JoinCursor>(cur: &mut C) -> u64 {
    let tally = &mut NoTally;
    let mut rows = 0u64;
    if !cur.open(tally) {
        return 0;
    }
    loop {
        if cur.open(tally) {
            loop {
                rows += 1;
                if !cur.next(tally) {
                    break;
                }
            }
            cur.up();
        }
        if !cur.next(tally) {
            break;
        }
    }
    cur.up();
    rows
}

/// A delta over `edges` touching `percent` % of its rows: half of the
/// changes insert pairs that are absent, half tombstone rows that exist.
fn delta_of(edges: &Relation, nodes: u32, percent: usize, rng: &mut Rng) -> RelationDelta {
    let half = edges.len() * percent / 200;
    let inserts = Relation::from_pairs((0..half).map(|_| {
        (
            rng.below(nodes as usize) as Value,
            rng.below(nodes as usize) as Value,
        )
    }));
    let deletes = Relation::from_pairs((0..half).map(|_| {
        let row = edges.tuple(rng.below(edges.len()));
        (row[0], row[1])
    }));
    RelationDelta::empty(2)
        .expect("arity 2")
        .apply_batch(edges, &inserts, &deletes)
}

/// Mutation batches of `LIVE_BATCH` inserts and as many deletes: the
/// workload's own pool swaps for `live_delta`, random absent pairs and
/// existing rows for the workloads that have no insert pool.
struct Batches<'a> {
    live: Option<LiveEdges>,
    edges: &'a Relation,
    nodes: u32,
    rng: Rng,
}

impl<'a> Batches<'a> {
    fn new(ctx: &Ctx, edges: &'a Relation) -> Batches<'a> {
        let pooled = ctx.inputs.insert_pool.len() >= LIVE_BATCH;
        Batches {
            live: pooled.then(|| LiveEdges::new(ctx.inputs, ctx.seed)),
            edges,
            nodes: ctx.inputs.loaded.num_nodes(),
            rng: Rng::new(ctx.seed, 31),
        }
    }

    fn next(&mut self) -> (Relation, Relation) {
        let (inserts, deletes) = match &mut self.live {
            Some(live) => live.next_batch(),
            None => {
                let d = delta_of(self.edges, self.nodes, 1, &mut self.rng);
                let take = |rel: &Relation| -> Vec<(Value, Value)> {
                    rel.iter().take(LIVE_BATCH).map(|t| (t[0], t[1])).collect()
                };
                (take(d.inserts()), take(d.tombstones()))
            }
        };
        (Relation::from_pairs(inserts), Relation::from_pairs(deletes))
    }
}

/// Traced operations alternating with their untraced twins; returns the
/// recorder for writing out.
fn trace_phase(ctx: &Ctx, session: &Session, budget: Duration, r: &mut Report) -> Tracer {
    let workload = ctx.workload;
    let mut tracer = Tracer::new();
    let (mut traced, mut untraced) = (Vec::new(), Vec::new());
    let mut rows_traced = 0u64;
    let start = Instant::now();
    let mut i = 0usize;
    while traced.len() < 5 || (traced.len() < MAX_TRACED_OPS && start.elapsed() < budget) {
        let text = workload.queries[i % workload.queries.len()];
        for record in [true, false] {
            tracer.set_recording(record);
            let t0 = Instant::now();
            let result = layered_op(&mut tracer, workload, session, text);
            let elapsed = t0.elapsed().as_secs_f64() * 1e3;
            r.attempted += 1;
            match result {
                Ok(rows) if record => {
                    traced.push(elapsed);
                    rows_traced += rows;
                }
                Ok(_) => untraced.push(elapsed),
                Err(e) => {
                    r.failed += 1;
                    eprintln!("FAILED layered operation: {e}");
                }
            }
        }
        i += 1;
    }
    tracer.set_recording(true);
    println!(
        "traced {} operations (p50 {:.4} ms) against {} untraced (p50 {:.4} ms)",
        traced.len(),
        median(&traced),
        untraced.len(),
        median(&untraced)
    );
    r.add(
        "trace.overhead_pct",
        (median(&traced) / median(&untraced) - 1.0) * 100.0,
        "%",
    );
    r.add("trace.op_self_us", tracer.median_self_us("op"), "us");
    r.add(
        "trace.parse_self_us",
        tracer.median_self_us("query.parse"),
        "us",
    );
    r.add(
        "trace.compile_self_us",
        tracer.median_self_us("query.compile"),
        "us",
    );
    r.add(
        "trace.tries_self_us",
        tracer.median_self_us("join.tries"),
        "us",
    );
    r.add("trace.run_self_us", tracer.median_self_us("join.run"), "us");
    r.add(
        "trace.sink_self_us",
        tracer.median_self_us("sink.push"),
        "us",
    );
    r.add(
        "trace.self_time_gap_pct",
        tracer.worst_self_time_gap_pct(),
        "%",
    );
    let sink_ns: u64 = tracer
        .spans()
        .iter()
        .filter(|s| s.name == "sink.push")
        .map(|s| s.end_ns - s.start_ns)
        .sum();
    r.add(
        "join.sink_ns_per_row",
        sink_ns as f64 / rows_traced.max(1) as f64,
        "ns",
    );
    tracer
}

fn query_layer(ctx: &Ctx, r: &mut Report) -> Result<(), String> {
    let texts = ctx.workload.queries;
    let mut parse = Vec::new();
    let mut compile = Vec::new();
    for text in texts {
        let query = parse_query(text).map_err(|e| e.to_string())?;
        parse.push(ctx.us(|| {
            std::hint::black_box(parse_query(std::hint::black_box(text)).is_ok());
        }));
        compile.push(ctx.us(|| {
            std::hint::black_box(CompiledQuery::compile(&query).is_ok());
        }));
    }
    r.add("query.parse_us", median(&parse), "us");
    r.add("query.compile_us", median(&compile), "us");
    Ok(())
}

fn graph_layer(ctx: &Ctx, r: &mut Report) -> Result<(), String> {
    let read = || read_snap(File::open(ctx.snap).expect("the benchmark wrote this file"));
    let graph = read().map_err(|e| e.to_string())?;
    r.check(
        "read_snap",
        graph.num_edges() as u64,
        ctx.inputs.loaded.num_edges() as u64,
    );
    r.add(
        "graph.read_snap_ms",
        ctx.ms(|| {
            std::hint::black_box(read().is_ok());
        }),
        "ms",
    );
    r.add(
        "graph.edge_relation_ms",
        ctx.ms(|| {
            std::hint::black_box(graph.edge_relation().len());
        }),
        "ms",
    );
    Ok(())
}

fn relation_layer(ctx: &Ctx, edges: &Relation, r: &mut Report) {
    let nodes = ctx.inputs.loaded.num_nodes();
    let pool = WorkerPool::with_workers(CORES);
    let trie = Trie::build(edges);
    let mut rng = Rng::new(ctx.seed, 23);

    // Seeded probe keys: rows that exist (root hit, child hit) and the
    // same sources paired with a random target that is absent (root hit,
    // child miss — the lowest-upper-bound case).
    let probes = 4096.min(edges.len());
    let hits: Vec<(Value, Value)> = (0..probes)
        .map(|_| {
            let row = edges.tuple(rng.below(edges.len()));
            (row[0], row[1])
        })
        .collect();
    let misses: Vec<(Value, Value)> = hits
        .iter()
        .map(|&(a, _)| loop {
            let b = rng.below(nodes as usize) as Value;
            if !triejax_relation::delta::contains_row(edges, &[a, b]) {
                break (a, b);
            }
        })
        .collect();
    let seek_all = |keys: &[(Value, Value)]| {
        let tally = &mut NoTally;
        let mut cur = TrieCursor::new(&trie);
        let mut found = 0u64;
        for &(a, b) in keys {
            cur.open(tally);
            if cur.seek(a, tally) && cur.open(tally) {
                found += u64::from(cur.seek(b, tally) && cur.key() == b);
                cur.up();
            }
            cur.up();
        }
        found
    };
    r.check("seek hits", seek_all(&hits), probes as u64);
    r.check("seek misses", seek_all(&misses), 0);
    let per_seek = |keys: &[(Value, Value)]| {
        ctx.ms(|| {
            std::hint::black_box(seek_all(keys));
        }) * 1e6
            / (2 * probes) as f64
    };
    r.add("relation.seek_hit_ns", per_seek(&hits), "ns");
    r.add("relation.seek_miss_ns", per_seek(&misses), "ns");

    r.check(
        "trie scan",
        scan(&mut TrieCursor::new(&trie)),
        edges.len() as u64,
    );
    let scan_ms = ctx.ms(|| {
        std::hint::black_box(scan(&mut TrieCursor::new(&trie)));
    });
    r.add(
        "relation.scan_ns_per_tuple",
        scan_ms * 1e6 / edges.len() as f64,
        "ns",
    );
    r.add(
        "relation.trie_build_ms",
        ctx.ms(|| {
            std::hint::black_box(Trie::build(edges).tuple_count());
        }),
        "ms",
    );
    r.add(
        "relation.trie_par_build_ms",
        ctx.ms(|| {
            std::hint::black_box(Trie::par_build(edges, &pool).tuple_count());
        }),
        "ms",
    );
    r.add(
        "relation.permute_ms",
        ctx.ms(|| {
            std::hint::black_box(edges.permute(&[1, 0]).len());
        }),
        "ms",
    );
    r.add(
        "relation.trie_bytes_per_tuple",
        trie.bytes() as f64 / edges.len() as f64,
        "B",
    );

    for (name, percent) in [
        ("relation.merge_scan_ratio_d0", 0),
        ("relation.merge_scan_ratio_d1", 1),
        ("relation.merge_scan_ratio_d10", 10),
    ] {
        let delta = delta_of(edges, nodes, percent, &mut rng);
        let inserts = (!delta.inserts().is_empty()).then(|| Trie::build(delta.inserts()));
        let merged = || MergeCursor::new(Some(&trie), inserts.as_ref(), delta.tombstones());
        r.check(
            name,
            scan(&mut merged()),
            delta.merge_into(edges).len() as u64,
        );
        let merged_ms = ctx.ms(|| {
            std::hint::black_box(scan(&mut merged()));
        });
        r.add(name, merged_ms / scan_ms, "x");
    }

    let (inserts, deletes) = Batches::new(ctx, edges).next();
    let pending = delta_of(edges, nodes, 1, &mut rng);
    r.add(
        "relation.delta_apply_us",
        ctx.us(|| {
            std::hint::black_box(pending.apply_batch(edges, &inserts, &deletes).len());
        }),
        "us",
    );
    r.add(
        "relation.delta_merge_into_ms",
        ctx.ms(|| {
            std::hint::black_box(pending.merge_into(edges).len());
        }),
        "ms",
    );
}

/// `intersect_sorted` on synthetic sorted sets sized like the workload's
/// root level: `len` values in the large side, a quarter as many in the
/// probing side, `percent` % of which are present in the large side.
fn intersect_probe(ctx: &Ctx, len: usize, percent: usize, rng: &mut Rng) -> f64 {
    let len = len.max(64);
    // Even values are members of the large side, odd values never are.
    let mut large: Vec<Value> = (0..len as Value).map(|i| 2 * i).collect();
    rng.shuffle(&mut large);
    let mut small: Vec<Value> = large
        .iter()
        .take(len / 4)
        .enumerate()
        .map(|(i, &v)| {
            if i * 100 / (len / 4) < percent {
                v
            } else {
                v + 1
            }
        })
        .collect();
    large.sort_unstable();
    small.sort_unstable();
    let mut out = Vec::new();
    let mut stats = EngineStats::<NoTally>::default();
    ctx.ms(|| {
        intersect_sorted(&small, &large, &mut out, &mut stats);
        std::hint::black_box(out.len());
    }) * 1e6
        / small.len() as f64
}

/// Leapfrog over `k` root-level cursors — sources, targets, sources — of
/// the workload's graph; nanoseconds per matched value.
fn leapfrog_probe(ctx: &Ctx, tries: [&Trie; 3], k: usize) -> f64 {
    let run = || {
        let mut stats = EngineStats::<NoTally>::default();
        let mut cursors: Vec<TrieCursor> = tries[..k].iter().map(|t| TrieCursor::new(t)).collect();
        for c in &mut cursors {
            if !c.open(&mut stats.access) {
                return 0u64;
            }
        }
        let mut frog = Leapfrog::new((0..k).collect());
        let mut matches = 0u64;
        let mut at = frog.search(&mut cursors, &mut stats);
        while at.is_some() {
            matches += 1;
            at = frog.next(&mut cursors, &mut stats);
        }
        matches
    };
    let matches = run().max(1);
    ctx.ms(|| {
        std::hint::black_box(run());
    }) * 1e6
        / matches as f64
}

fn join_layer(ctx: &Ctx, edges: &Relation, r: &mut Report) -> Result<(), String> {
    let workload = ctx.workload;
    let text = workload.queries[0];
    let plan = compile(text)?;
    let catalog = ctx.catalog(edges);
    let mut rng = Rng::new(ctx.seed, 29);

    let forward = Trie::build(edges);
    let backward = Trie::build(&edges.permute(&[1, 0]));
    let roots = forward.level(0).len();
    r.add(
        "join.intersect_ns_per_elem_s1",
        intersect_probe(ctx, roots, 1, &mut rng),
        "ns",
    );
    r.add(
        "join.intersect_ns_per_elem_s50",
        intersect_probe(ctx, roots, 50, &mut rng),
        "ns",
    );
    let tries = [&forward, &backward, &forward];
    r.add(
        "join.leapfrog_k2_ns_per_match",
        leapfrog_probe(ctx, tries, 2),
        "ns",
    );
    r.add(
        "join.leapfrog_k3_ns_per_match",
        leapfrog_probe(ctx, tries, 3),
        "ns",
    );

    // One sequential counting run is the reference: its row count checks
    // every other engine, and its operation counters repeat exactly.
    let mut count = TimingSink::new(false);
    let seq: EngineStats = Lftj::new()
        .run_tallied(&plan, &catalog, &mut count)
        .map_err(|e| e.to_string())?;
    let want = count.rows;
    r.add("join.lub_ops", seq.lub_ops as f64, "count");
    r.add("join.expand_ops", seq.expand_ops as f64, "count");
    r.add("join.match_ops", seq.match_ops as f64, "count");
    r.add(
        "join.memory_accesses",
        seq.memory_accesses() as f64,
        "count",
    );
    r.add(
        "join.seeks_per_result",
        seq.lub_ops as f64 / want.max(1) as f64,
        "1/row",
    );

    // Each engine variant: timed into a counting sink, row count checked.
    let cache = Arc::new(TrieCache::unbounded());
    let engine = |name: &str,
                  r: &mut Report,
                  run: &mut dyn FnMut(&mut TimingSink) -> Result<EngineStats, JoinError>|
     -> Result<(f64, EngineStats), String> {
        let mut last = None;
        let ms = ctx.ms(|| {
            let mut sink = TimingSink::new(false);
            last = Some(run(&mut sink).map(|stats| (sink.rows, stats)));
        });
        let (rows, stats) = last
            .expect("a probe runs at least once")
            .map_err(|e| e.to_string())?;
        r.check(name, rows, want);
        Ok((ms, stats))
    };
    let (lftj_seq, _) = engine("lftj_seq", r, &mut |s| {
        Lftj::new().run_tallied::<Counting>(&plan, &catalog, s)
    })?;
    let (lftj_fast, _) = engine("lftj_seq_notally", r, &mut |s| {
        Lftj::new()
            .run_tallied::<NoTally>(&plan, &catalog, s)
            .map(|stats| stats.to_counting())
    })?;
    let (lftj_pool1, _) = engine("lftj_pool1", r, &mut |s| {
        ParLftj::with_pool(1)
            .with_trie_cache(Arc::clone(&cache))
            .run_tallied::<Counting>(&plan, &catalog, s)
    })?;
    let (lftj_pool2, pool_stats) = engine("lftj_pool2", r, &mut |s| {
        ParLftj::with_pool(CORES)
            .with_trie_cache(Arc::clone(&cache))
            .run_tallied::<Counting>(&plan, &catalog, s)
    })?;
    let (ctj_seq, _) = engine("ctj_seq", r, &mut |s| {
        Ctj::new().run_tallied::<Counting>(&plan, &catalog, s)
    })?;
    let (ctj_pool2, pjr) = engine("ctj_pool2", r, &mut |s| {
        ParCtj::with_pool(CORES)
            .with_trie_cache(Arc::clone(&cache))
            .run_tallied::<Counting>(&plan, &catalog, s)
    })?;
    r.add("join.lftj_seq_ms", lftj_seq, "ms");
    r.add("join.lftj_pool1_ms", lftj_pool1, "ms");
    r.add("join.lftj_pool2_ms", lftj_pool2, "ms");
    r.add("join.ctj_seq_ms", ctj_seq, "ms");
    r.add("join.ctj_pool2_ms", ctj_pool2, "ms");
    r.add("join.ctj_over_lftj", ctj_pool2 / lftj_pool2, "x");
    r.add("join.pjr_hit_rate", pjr.cache_hit_rate(), "ratio");
    r.add("join.pjr_entries_built", pjr.cache_misses as f64, "count");
    r.add("join.pjr_evictions", pjr.cache_evictions as f64, "count");
    r.add("join.intermediates", pjr.intermediates as f64, "count");
    r.add("join.tally_overhead", lftj_seq / lftj_fast, "x");
    r.add("exec.pool2_speedup", lftj_pool1 / lftj_pool2, "x");
    r.add("exec.shards", pool_stats.shards as f64, "count");
    r.add("exec.steals", pool_stats.steals as f64, "count");
    r.add("exec.splits", pool_stats.splits as f64, "count");

    let pool = WorkerPool::with_workers(CORES);
    r.add(
        "join.tries_warm_us",
        ctx.us(|| {
            std::hint::black_box(TrieSet::build_on(&plan, &catalog, &pool, Some(&cache)).is_ok());
        }),
        "us",
    );
    r.add(
        "join.tries_cold_ms",
        ctx.ms(|| {
            let cold = TrieCache::unbounded();
            std::hint::black_box(TrieSet::build_on(&plan, &catalog, &pool, Some(&cold)).is_ok());
        }),
        "ms",
    );

    // Session level: the same query through `Session::query`, run and
    // streamed, against the direct engine call above.
    let session = Session::new(ctx.catalog(edges)).with_pool(CORES);
    let via_session = ctx.ms(|| {
        let mut sink = TimingSink::new(false);
        std::hint::black_box(session.query(&plan).run(&mut sink).is_ok());
    });
    r.add(
        "join.session_overhead_us",
        (via_session - lftj_pool2) * 1e3,
        "us",
    );
    let mut first_row = Vec::new();
    let mut streamed = 0u64;
    let via_stream = ctx.ms(|| {
        let t0 = Instant::now();
        let mut rows = 0u64;
        for _row in session.query(&plan).stream() {
            if rows == 0 {
                first_row.push(t0.elapsed().as_secs_f64() * 1e3);
            }
            rows += 1;
        }
        streamed = rows;
    });
    r.check("stream", streamed, want);
    r.add("join.stream_over_run", via_stream / via_session, "x");
    r.add(
        "join.stream_first_row_ms",
        if first_row.is_empty() {
            via_stream
        } else {
            median(&first_row)
        },
        "ms",
    );

    // Standing query: what one watcher adds to an apply.
    let apply_ms = |watching: bool| -> Result<f64, String> {
        let session = Session::new(ctx.catalog(edges)).with_pool(CORES);
        let watch = if watching {
            Some(session.watch(&plan).map_err(|e| e.to_string())?)
        } else {
            None
        };
        let mut batches = Batches::new(ctx, edges);
        let ms = ctx.ms(|| {
            let (inserts, deletes) = batches.next();
            let applied = session.apply(EDGE_RELATION, &inserts, &deletes);
            std::hint::black_box(applied.is_ok());
            if let Some(w) = &watch {
                std::hint::black_box(w.recv().map(|u| u.rows.len()));
            }
        });
        Ok(ms)
    };
    r.add(
        "join.watch_emit_ms",
        apply_ms(true)? - apply_ms(false)?,
        "ms",
    );
    Ok(())
}

fn exec_layer(ctx: &Ctx, r: &mut Report) {
    for (name, workers) in [
        ("exec.pool_run_noop_us_w1", 1),
        ("exec.pool_run_noop_us_w2", 2),
    ] {
        let pool = WorkerPool::with_workers(workers);
        let tasks = vec![(); workers];
        r.add(
            name,
            ctx.us(|| {
                std::hint::black_box(pool.run(&tasks, |_, lane, ()| lane).0.len());
            }),
            "us",
        );
    }
    let pool = WorkerPool::with_workers(CORES);
    r.add(
        "exec.spawning_roundtrip_us",
        ctx.us(|| {
            let ((done, _), ()) = pool.run_spawning(
                vec![0u32],
                |_, spawner, task| {
                    if task == 0 {
                        spawner.spawn(1);
                    }
                    task
                },
                || (),
            );
            std::hint::black_box(done.len());
        }),
        "us",
    );
    const BATCHES: usize = 256;
    for (name, lanes) in [
        ("exec.merge_ns_per_batch_l1", 1),
        ("exec.merge_ns_per_batch_l4", 4),
    ] {
        let batch: Vec<Value> = vec![7; 256 * 4];
        r.add(
            name,
            ctx.ms(|| {
                let merge = OrderedMerge::new(lanes);
                for i in 0..BATCHES {
                    merge.push(i % lanes, batch.clone());
                }
                (0..lanes).for_each(|lane| merge.finish(lane));
                let mut drained = 0usize;
                merge.drain(|b: Vec<Value>| drained += b.len());
                std::hint::black_box(drained);
            }) * 1e6
                / BATCHES as f64,
            "ns",
        );
    }
}

fn store_layer(ctx: &Ctx, edges: &Relation, r: &mut Report) -> Result<(), String> {
    let session = Session::new(ctx.catalog(edges)).with_pool(CORES);
    let plans = PAPER_PATTERNS
        .iter()
        .map(|text| compile(text))
        .collect::<Result<Vec<_>, _>>()?;
    let stored = session.snapshot(&plans).map_err(|e| e.to_string())?;
    stored.save(ctx.store).map_err(|e| e.to_string())?;
    r.add(
        "store.save_ms",
        ctx.ms(|| {
            std::hint::black_box(stored.save(ctx.store).is_ok());
        }),
        "ms",
    );
    let bytes = std::fs::read(ctx.store).map_err(|e| e.to_string())?;
    let reopened = StoredCatalog::open(ctx.store).map_err(|e| e.to_string())?;
    r.check(
        "store round trip",
        reopened.tries().len() as u64,
        stored.tries().len() as u64,
    );
    r.add("store.file_bytes", bytes.len() as f64, "B");
    r.add(
        "store.bytes_per_edge",
        bytes.len() as f64 / edges.len() as f64,
        "B",
    );
    r.add(
        "store.open_ms",
        ctx.ms(|| {
            std::hint::black_box(StoredCatalog::open(ctx.store).is_ok());
        }),
        "ms",
    );
    r.add(
        "store.from_bytes_ms",
        ctx.ms(|| {
            std::hint::black_box(StoredCatalog::from_bytes(&bytes).is_ok());
        }),
        "ms",
    );
    r.add(
        "store.preload_ms",
        ctx.ms(|| {
            let cache = TrieCache::unbounded();
            cache.preload(&reopened);
            std::hint::black_box(cache.len());
        }),
        "ms",
    );
    Ok(())
}

/// The session the traced operations run against, in the state the
/// workload's operations meet: opened from the store for `cold_start`,
/// carrying a pending delta for `live_delta`, freshly built otherwise.
fn traced_session(ctx: &Ctx, edges: &Relation) -> Result<Session, String> {
    match ctx.workload.kind {
        Kind::ColdStart => Ok(Session::open(ctx.store)
            .map_err(|e| e.to_string())?
            .with_pool(POOL)),
        Kind::LiveDelta => {
            let session = Session::new(ctx.catalog(edges)).with_pool(POOL);
            let mut batches = Batches::new(ctx, edges);
            for _ in 0..8 {
                let (inserts, deletes) = batches.next();
                session
                    .apply(EDGE_RELATION, &inserts, &deletes)
                    .map_err(|e| e.to_string())?;
            }
            Ok(session)
        }
        _ => Ok(Session::new(ctx.catalog(edges)).with_pool(POOL)),
    }
}

fn run(args: &Args) -> Result<(), String> {
    let prepared = Prepared::new(args)?;
    let (workload, inputs) = (prepared.workload, &prepared.inputs);
    print_environment(args);
    let edges = inputs.loaded.edge_relation();
    let layer_seconds = args.seconds * (1.0 - TRACE_SHARE);
    let ctx = Ctx {
        workload,
        inputs,
        seed: args.seed,
        snap: &prepared.snap,
        store: &prepared.store,
        slice: Duration::from_secs_f64(layer_seconds / PROBES),
    };

    let mut report = Report::default();
    store_layer(&ctx, &edges, &mut report)?;
    let session = traced_session(&ctx, &edges)?;
    let tracer = trace_phase(
        &ctx,
        &session,
        Duration::from_secs_f64(args.seconds * TRACE_SHARE),
        &mut report,
    );
    drop(session);
    query_layer(&ctx, &mut report)?;
    graph_layer(&ctx, &mut report)?;
    relation_layer(&ctx, &edges, &mut report);
    join_layer(&ctx, &edges, &mut report)?;
    exec_layer(&ctx, &mut report);

    let spans = args.out_dir.join(format!("trace-{}.json", workload.name));
    std::fs::write(&spans, format!("{}\n", tracer.to_json())).map_err(|e| e.to_string())?;
    println!(
        "spans: {} written to {}",
        tracer.spans().len(),
        spans.display()
    );
    report.metrics.sort_by_key(|m| m.name);
    print_result(report.attempted, report.failed, &report.metrics);
    Ok(())
}

fn main() -> ExitCode {
    run_main("bench_layers", true, run)
}
