//! End-to-end serving benchmark: one closed-loop client against one
//! `Session`, timing operations from query text in to last row in the sink.
//!
//! The program under test is reached only through its session-level
//! surface — `read_snap`, `Graph::edge_relation`, `Catalog`, `parse_query`,
//! `CompiledQuery::compile`, `Session::{new, open, with_pool, query, apply,
//! watch, snapshot}`, `QueryHandle::{run, stream, with_row_limit,
//! with_ctj}`, `StoredCatalog::save` and the `ResultSink` trait — so a
//! refactor of engine internals cannot stop these numbers from compiling.
//! The one exception is [`oracle`], which runs the sequential `Lftj`
//! reference in the untimed phases.

use std::collections::{BTreeMap, HashSet};
use std::fs::File;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use triejax_benchmark::inputs::{
    Kind, LiveEdges, Prepared, Workload, EDGE_RELATION, FIRST_PAGE_ROWS, PAPER_PATTERNS,
};
use triejax_benchmark::{
    median, peak_rss_mb, percentile, print_environment, print_result, run_main,
    supported_percentile, Args, Metric, POOL, SETUP_BUDGET, SETUP_MAX_REPS, SETUP_MIN_REPS,
};
use triejax_graph::snap::read_snap;
use triejax_graph::Graph;
use triejax_join::{CancelReason, Catalog, JoinError, ResultSink, Session, WatchStream};
use triejax_query::{parse_query, CompiledQuery};
use triejax_relation::{Relation, Value};

/// `live_delta` compares one `WatchUpdate` in this many against the
/// difference of two oracle evaluations.
const LIVE_ORACLE_EVERY: u64 = 25;

/// The reference the program's answers are checked against: sequential
/// `Lftj` over the same relation. Kept apart because it is the only code
/// here that reaches below the session surface.
mod oracle {
    use super::*;
    use triejax_join::{JoinEngine, Lftj};

    /// Row count and order-sensitive checksum of the first `limit` rows
    /// that `texts`, run one after the other over `edges`, emit in
    /// sequential order.
    pub fn expect(
        texts: &[&str],
        edges: &Relation,
        limit: Option<u64>,
    ) -> Result<Expected, String> {
        let mut sink = CheckSink::hashing(limit);
        for text in texts {
            run(text, edges, &mut sink)?;
        }
        Ok(sink.seen())
    }

    /// Every result row of `text` over `edges`, in emission order.
    pub fn rows(text: &str, edges: &Relation) -> Result<Vec<Vec<Value>>, String> {
        struct Collect(Vec<Vec<Value>>);
        impl ResultSink for Collect {
            fn push(&mut self, tuple: &[Value]) {
                self.0.push(tuple.to_vec());
            }
        }
        let mut sink = Collect(Vec::new());
        run(text, edges, &mut sink)?;
        Ok(sink.0)
    }

    fn run(text: &str, edges: &Relation, sink: &mut dyn ResultSink) -> Result<(), String> {
        let plan = compile(text)?;
        let mut catalog = Catalog::new();
        catalog.insert(EDGE_RELATION, edges.clone());
        Lftj::new()
            .execute(&plan, &catalog, sink)
            .map_err(|e| e.to_string())?;
        Ok(())
    }
}

/// What an operation must deliver.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Expected {
    rows: u64,
    checksum: u64,
}

/// The benchmark's sink: counts rows and, when hashing, folds every value
/// into a checksum that changes if two rows swap places. Rows past
/// `limit` are ignored, which is how the oracle describes a first page.
#[derive(Clone)]
struct CheckSink {
    rows: u64,
    checksum: u64,
    hashing: bool,
    limit: u64,
}

impl CheckSink {
    fn counting() -> CheckSink {
        CheckSink {
            rows: 0,
            checksum: 0,
            hashing: false,
            limit: u64::MAX,
        }
    }

    fn hashing(limit: Option<u64>) -> CheckSink {
        CheckSink {
            hashing: true,
            limit: limit.unwrap_or(u64::MAX),
            ..CheckSink::counting()
        }
    }

    fn seen(&self) -> Expected {
        Expected {
            rows: self.rows,
            checksum: self.checksum,
        }
    }
}

impl ResultSink for CheckSink {
    fn push(&mut self, tuple: &[Value]) {
        if self.rows == self.limit {
            return;
        }
        self.rows += 1;
        if self.hashing {
            for &v in tuple {
                self.checksum = (self.checksum.rotate_left(5) ^ u64::from(v))
                    .wrapping_mul(0x0000_0100_0000_01B3);
            }
        }
    }

    fn push_rows(&mut self, rows: &[Value], arity: usize) {
        if self.hashing || self.limit != u64::MAX {
            rows.chunks_exact(arity.max(1)).for_each(|t| self.push(t));
        } else {
            self.rows += (rows.len() / arity.max(1)) as u64;
        }
    }
}

fn compile(text: &str) -> Result<CompiledQuery, String> {
    let query = parse_query(text).map_err(|e| e.to_string())?;
    CompiledQuery::compile(&query).map_err(|e| e.to_string())
}

/// What one operation reports back.
struct Outcome {
    /// Operation latency: text in to last row in the sink.
    elapsed: Duration,
    /// What the sink received.
    seen: Expected,
    /// Named parts of the operation, printed beside the metrics.
    parts: Vec<(&'static str, Duration)>,
}

/// The program under test after set-up, plus the client-side state the
/// mutating workload keeps.
struct Program {
    workload: &'static Workload,
    session: Session,
    store: PathBuf,
    /// `cold_start` rebuilds its catalog from this before every operation
    /// (untimed), so no operation inherits a memoized fingerprint.
    graph: Graph,
    /// `live_delta` only.
    live: Option<Live>,
}

/// What the mutating workload's client keeps between rounds: its standing
/// query, its record of the graph and the last row count it saw.
struct Live {
    watch: WatchStream,
    edges: LiveEdges,
    round: u64,
    rows: u64,
}

impl Program {
    /// Program-side set-up: SNAP text → relation → session (→ store file /
    /// standing query), without the warm-up operation.
    fn set_up(prepared: &Prepared, seed: u64) -> Result<Program, String> {
        let Prepared {
            workload,
            inputs,
            snap,
            store,
        } = prepared;
        let file = File::open(snap).map_err(|e| format!("{}: {e}", snap.display()))?;
        let graph = read_snap(file).map_err(|e| e.to_string())?;
        let mut catalog = Catalog::new();
        catalog.insert(EDGE_RELATION, graph.edge_relation());
        let session = Session::new(catalog).with_pool(POOL);
        let mut live = None;
        match workload.kind {
            Kind::ColdStart => {
                let plans = PAPER_PATTERNS
                    .iter()
                    .map(|text| compile(text))
                    .collect::<Result<Vec<_>, _>>()?;
                session
                    .snapshot(&plans)
                    .map_err(|e| e.to_string())?
                    .save(store)
                    .map_err(|e| e.to_string())?;
            }
            Kind::LiveDelta => {
                let plan = compile(workload.queries[0])?;
                live = Some(Live {
                    watch: session.watch(&plan).map_err(|e| e.to_string())?,
                    edges: LiveEdges::new(inputs, seed),
                    round: 0,
                    rows: 0,
                });
            }
            _ => {}
        }
        Ok(Program {
            workload,
            session,
            store: store.clone(),
            graph,
            live,
        })
    }

    /// Runs one operation. `verify` asks for the order-sensitive checksum
    /// as well as the row count.
    fn operation(&mut self, verify: bool) -> Result<Outcome, String> {
        let queries = self.workload.queries;
        let text = queries[0];
        let mut sink = match (verify, self.workload.kind) {
            (false, _) => CheckSink::counting(),
            (true, Kind::ColdStart) => CheckSink::hashing(Some(FIRST_PAGE_ROWS)),
            (true, _) => CheckSink::hashing(None),
        };
        let mut parts = Vec::new();
        let elapsed = match self.workload.kind {
            Kind::Count | Kind::CountCtj | Kind::Round => {
                let t0 = Instant::now();
                for text in queries {
                    let plan = compile(text)?;
                    let mut handle = self.session.query(&plan);
                    if self.workload.kind == Kind::CountCtj {
                        handle = handle.with_ctj();
                    }
                    handle.run(&mut sink).map_err(|e| e.to_string())?;
                }
                t0.elapsed()
            }
            Kind::Stream => {
                let t0 = Instant::now();
                let plan = compile(text)?;
                let mut stream = self.session.query(&plan).stream();
                let mut first_row = None;
                for row in &mut stream {
                    first_row.get_or_insert_with(|| t0.elapsed());
                    sink.push(&row);
                }
                if let Some(Err(e)) = stream.outcome() {
                    return Err(e.to_string());
                }
                let elapsed = t0.elapsed();
                parts.extend(first_row.map(|d| ("first_row", d)));
                elapsed
            }
            Kind::ColdStart => {
                let mut catalog = Catalog::new();
                catalog.insert(EDGE_RELATION, self.graph.edge_relation());
                let mut rebuilt = sink.clone();

                let t0 = Instant::now();
                let session = Session::open(&self.store)
                    .map_err(|e| e.to_string())?
                    .with_pool(POOL);
                parts.push(("open", t0.elapsed()));
                let build_ns = first_page(&session, text, &mut sink)?;
                let opened = t0.elapsed();
                parts.push(("open_page", opened));
                let session = Session::new(catalog).with_pool(POOL);
                let rebuild_ns = first_page(&session, text, &mut rebuilt)?;
                let elapsed = t0.elapsed();
                parts.push(("build_page", elapsed - opened));
                parts.push(("trie_build", Duration::from_nanos(rebuild_ns)));

                if build_ns != 0 {
                    return Err(format!(
                        "store-backed first page built tries for {build_ns} ns"
                    ));
                }
                if rebuilt.seen() != sink.seen() {
                    return Err(format!(
                        "page from the store {:?}, page from a fresh build {:?}",
                        sink.seen(),
                        rebuilt.seen()
                    ));
                }
                elapsed
            }
            Kind::LiveDelta => self
                .live
                .as_mut()
                .expect("live_delta set-up registers a watcher")
                .round(&self.session, text, verify, &mut sink, &mut parts)?,
        };
        Ok(Outcome {
            elapsed,
            seen: sink.seen(),
            parts,
        })
    }
}

impl Live {
    /// One `live_delta` round: swap a batch of live edges for as many from
    /// the insert pool, wait for the standing query's update, then
    /// query the merged view. Checks the update against the oracle when
    /// `verify` is set and on every `LIVE_ORACLE_EVERY`-th round, and
    /// against the row counts on the others.
    fn round(
        &mut self,
        session: &Session,
        text: &str,
        verify: bool,
        sink: &mut CheckSink,
        parts: &mut Vec<(&'static str, Duration)>,
    ) -> Result<Duration, String> {
        let sampled = verify || self.round.is_multiple_of(LIVE_ORACLE_EVERY);
        self.round += 1;
        let before = if sampled {
            let rows = oracle::rows(text, &Relation::from_pairs(self.edges.live.iter().copied()))?;
            self.rows = rows.len() as u64;
            Some(rows)
        } else {
            None
        };
        let (inserts, deletes) = self.edges.next_batch();
        let (inserts, deletes) = (Relation::from_pairs(inserts), Relation::from_pairs(deletes));

        let t0 = Instant::now();
        let epoch = session
            .apply(EDGE_RELATION, &inserts, &deletes)
            .map_err(|e| e.to_string())?;
        let update = self.watch.recv().ok_or("the standing query hung up")?;
        let applied = t0.elapsed();
        let plan = compile(text)?;
        session.query(&plan).run(sink).map_err(|e| e.to_string())?;
        let elapsed = t0.elapsed();
        parts.push(("apply", applied));
        parts.push(("query", elapsed - applied));

        if update.epoch != epoch {
            return Err(format!(
                "update for epoch {} after apply {epoch}",
                update.epoch
            ));
        }
        // Deletes only remove results and inserts only add the update's
        // rows, which bounds the new count from both sides.
        let (created, now) = (update.rows.len() as u64, sink.rows);
        if now < created || now > self.rows + created {
            return Err(format!(
                "{now} rows after {} plus {created} created",
                self.rows
            ));
        }
        self.rows = now;
        if let Some(before) = before {
            let after = oracle::rows(text, &Relation::from_pairs(self.edges.live.iter().copied()))?;
            if after.len() as u64 != now {
                return Err(format!("{now} rows, oracle has {}", after.len()));
            }
            let before: HashSet<_> = before.into_iter().collect();
            let created: Vec<_> = after.into_iter().filter(|r| !before.contains(r)).collect();
            if created != update.rows {
                return Err(format!(
                    "update has {} rows, oracle difference {}",
                    update.rows.len(),
                    created.len()
                ));
            }
        }
        Ok(elapsed)
    }
}

/// Parses, compiles and runs `text` for its first page; returns the
/// nanoseconds the engine spent building tries.
fn first_page(session: &Session, text: &str, sink: &mut CheckSink) -> Result<u64, String> {
    let plan = compile(text)?;
    match session
        .query(&plan)
        .with_row_limit(FIRST_PAGE_ROWS)
        .run(sink)
    {
        Ok(stats) => Ok(stats.trie_build_ns),
        Err(JoinError::Cancelled {
            reason: CancelReason::RowLimit,
            partial,
        }) => Ok(partial.trie_build_ns),
        Err(e) => Err(e.to_string()),
    }
}

/// What an operation of `workload` must deliver; `None` for `live_delta`,
/// which mutates the graph before it queries and so carries its own oracle
/// checks in its rounds.
fn expectation(workload: &Workload, edges: &Relation) -> Result<Option<Expected>, String> {
    if workload.kind == Kind::LiveDelta {
        return Ok(None);
    }
    let limit = (workload.kind == Kind::ColdStart).then_some(FIRST_PAGE_ROWS);
    oracle::expect(workload.queries, edges, limit).map(Some)
}

/// Running account of attempted and failed operations.
#[derive(Default)]
struct Ledger {
    attempted: u64,
    failed: u64,
}

impl Ledger {
    /// Records one operation; returns its outcome only if it succeeded
    /// and delivered what the oracle expects, so a failed operation never
    /// contributes a latency sample.
    fn check(
        &mut self,
        what: &str,
        result: Result<Outcome, String>,
        expected: Option<Expected>,
        verify: bool,
    ) -> Option<Outcome> {
        self.attempted += 1;
        let problem = match &result {
            Err(e) => Some(e.clone()),
            Ok(o) => expected.and_then(|want| {
                let rows_ok = o.seen.rows == want.rows;
                let order_ok = !verify || o.seen.checksum == want.checksum;
                (!(rows_ok && order_ok)).then(|| format!("got {:?}, want {want:?}", o.seen))
            }),
        };
        if let Some(problem) = problem {
            self.failed += 1;
            if self.failed <= 5 {
                eprintln!("FAILED {what}: {problem}");
            }
            return None;
        }
        result.ok()
    }
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn run(args: &Args) -> Result<(), String> {
    // The benchmark's own work: inputs from the seed, answers from the oracle.
    let t0 = Instant::now();
    let prepared = Prepared::new(args)?;
    let (workload, inputs) = (prepared.workload, &prepared.inputs);
    let generated = t0.elapsed();
    print_environment(args);
    let t0 = Instant::now();
    let want = expectation(workload, &inputs.loaded.edge_relation())?;
    println!(
        "inputs: {} nodes {} edges generated in {:.1} ms, oracle {:.1} ms, {:?} rows expected",
        inputs.loaded.num_nodes(),
        inputs.loaded.num_edges(),
        ms(generated),
        ms(t0.elapsed()),
        want.map(|e| e.rows)
    );

    // Set-ups run in two phases, before and after the timed operations, so
    // their median samples the machine over the whole run and not only
    // its first second.
    let set_up_phase = |ledger: &mut Ledger, setups: &mut Vec<f64>| -> Result<Program, String> {
        let started = Instant::now();
        let mut reps = 0;
        loop {
            let t0 = Instant::now();
            let mut fresh = Program::set_up(&prepared, args.seed)?;
            let warm = fresh.operation(true);
            ledger.check("warm-up", warm, want, true);
            setups.push(t0.elapsed().as_secs_f64());
            reps += 1;
            if reps >= SETUP_MIN_REPS
                && (reps >= SETUP_MAX_REPS || started.elapsed() >= SETUP_BUDGET)
            {
                return Ok(fresh);
            }
        }
    };
    let mut ledger = Ledger::default();
    let mut setups = Vec::new();
    let mut program = set_up_phase(&mut ledger, &mut setups)?;
    let store_bytes = std::fs::metadata(&prepared.store).map(|m| m.len()).ok();

    let mut latencies = Vec::new();
    let mut parts: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    let mut rows = 0u64;
    let timed = Instant::now();
    while timed.elapsed() < args.budget() {
        let result = program.operation(false);
        if let Some(outcome) = ledger.check("operation", result, want, false) {
            latencies.push(ms(outcome.elapsed));
            rows += outcome.seen.rows;
            for (name, d) in outcome.parts {
                parts.entry(name).or_default().push(ms(d));
            }
        }
    }
    let wall = timed.elapsed().as_secs_f64();
    let busy = latencies.iter().sum::<f64>() / 1e3;
    let last = program.operation(true);
    ledger.check("final", last, want, true);
    drop(program);
    set_up_phase(&mut ledger, &mut setups)?;

    if latencies.is_empty() {
        return Err("no operation succeeded".into());
    }
    let n = latencies.len();
    println!(
        "timed phase: {n} operations taking {busy:.3} s within {wall:.3} s, {} failed of {} attempted (incl. warm-up and final checks)",
        ledger.failed, ledger.attempted
    );
    if let Some(p) = supported_percentile(n) {
        println!(
            "op latency: p50 {:.4} ms, p{p} {:.4} ms (highest percentile with ten samples beyond it), n={n}",
            median(&latencies),
            percentile(&latencies, p)
        );
    }
    println!(
        "op latency quantiles (ms): min {:.4}, p10 {:.4}, p25 {:.4}, p75 {:.4}, p90 {:.4}, max {:.4}, mean {:.4}",
        percentile(&latencies, 0.0),
        percentile(&latencies, 10.0),
        percentile(&latencies, 25.0),
        percentile(&latencies, 75.0),
        percentile(&latencies, 90.0),
        percentile(&latencies, 100.0),
        busy * 1e3 / n as f64
    );
    if n < 40 {
        println!("note: op_p75_ms rests on {n} samples, fewer than ten beyond it");
    }
    for (name, samples) in &parts {
        println!(
            "part {name}: p50 {:.4} ms, p90 {:.4} ms, n={}",
            median(samples),
            percentile(samples, 90.0),
            samples.len()
        );
    }
    println!(
        "throughput: {:.4} operations/s and {:.0} rows/s of operation time",
        n as f64 / busy,
        rows as f64 / busy
    );
    if let Some(bytes) = store_bytes {
        println!(
            "store file: {bytes} bytes, {:.3} bytes per edge",
            bytes as f64 / inputs.loaded.num_edges() as f64
        );
    }
    println!(
        "setup: median of {} set-ups, fastest {:.4} s, slowest {:.4} s",
        setups.len(),
        percentile(&setups, 0.0),
        percentile(&setups, 100.0)
    );
    print_result(
        ledger.attempted,
        ledger.failed,
        &[
            Metric::new("op_p50_ms", median(&latencies), "ms"),
            Metric::new("op_p75_ms", percentile(&latencies, 75.0), "ms"),
            Metric::new("setup_s", median(&setups), "s"),
            Metric::new("peak_rss_mb", peak_rss_mb().unwrap_or(f64::NAN), "MB"),
        ],
    );
    Ok(())
}

fn main() -> ExitCode {
    run_main("bench_e2e", false, run)
}
