//! Harness shared by `bench_e2e` and `bench_layers`: argument parsing, a
//! seeded generator, order statistics, a JSON writer, the in-memory span
//! recorder and the result line the driver reads.
//!
//! Nothing in this file depends on a `triejax-*` crate, so the statistics
//! and the output format cannot move with the code they measure. Input
//! generation, which needs `triejax_graph`, lives in [`inputs`].

#![forbid(unsafe_code)]

pub mod inputs;

use std::fmt::{self, Write as _};
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};

/// `nproc` of the container, and so the most threads a workload may keep
/// busy at once: with more than that a run times the scheduler and not the
/// program. Only the layer probes named after two workers use it.
pub const CORES: usize = 2;

/// Worker count every session of the end-to-end run is pinned to; never
/// the ambient `TRIEJAX_POOL`. A pool run's calling thread merges the
/// workers' batches into the sink, so one worker already keeps two threads
/// busy, and the container's two are a shared host's: at two workers the
/// same operation repeated 80 or 115 ms long depending on which thread the
/// host ran first. What two workers gain is a per-layer metric
/// (`exec.pool2_speedup`, `join.lftj_pool2_ms`), which has no bound to
/// break.
pub const POOL: usize = 1;

/// The program-side set-up runs in two phases, before and after the timed
/// operations, each at least this often; `setup_s` is the median of all.
pub const SETUP_MIN_REPS: usize = 3;

/// Set-ups of a few milliseconds repeat further, until a phase has taken
/// [`SETUP_BUDGET`] or this many have run, so their median is as steady as
/// that of the long ones.
pub const SETUP_MAX_REPS: usize = 30;

/// Time one phase of set-ups may take beyond [`SETUP_MIN_REPS`].
pub const SETUP_BUDGET: Duration = Duration::from_millis(500);

/// Command-line arguments of both binaries, as the driver passes them.
#[derive(Debug, Clone)]
pub struct Args {
    /// Workload name from `BENCHMARK.json`.
    pub workload: String,
    /// Seed every generated input derives from.
    pub seed: u64,
    /// Length of the timed phase.
    pub seconds: f64,
    /// `false`: end-to-end metrics; `true`: traced run, per-layer metrics.
    pub trace: bool,
    /// Directory for generated inputs, the store file and span files.
    pub out_dir: PathBuf,
}

impl Args {
    /// Parses `--workload W --seed N --seconds S --trace 0|1 [--out-dir D]`.
    ///
    /// # Errors
    ///
    /// Returns a usage message for an unknown flag or a malformed value.
    pub fn parse(argv: impl Iterator<Item = String>) -> Result<Args, String> {
        let mut args = Args {
            workload: String::new(),
            seed: 1,
            seconds: 10.0,
            trace: false,
            out_dir: PathBuf::from("benchmark/out"),
        };
        let mut argv = argv.skip(1);
        while let Some(flag) = argv.next() {
            let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
            let bad = |what: &str| format!("{flag}: {value:?} is not {what}");
            match flag.as_str() {
                "--workload" => args.workload = value,
                "--seed" => args.seed = value.parse().map_err(|_| bad("a seed"))?,
                "--seconds" => {
                    args.seconds = value
                        .parse()
                        .ok()
                        .filter(|s: &f64| *s > 0.0 && s.is_finite())
                        .ok_or_else(|| bad("a positive number of seconds"))?;
                }
                "--trace" => {
                    args.trace = match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(bad("0 or 1")),
                    }
                }
                "--out-dir" => args.out_dir = PathBuf::from(value),
                _ => return Err(format!("unknown argument {flag}")),
            }
        }
        if args.workload.is_empty() {
            return Err("--workload is required".into());
        }
        Ok(args)
    }

    /// The timed phase as a [`Duration`].
    pub fn budget(&self) -> Duration {
        Duration::from_secs_f64(self.seconds)
    }
}

/// `main` of both binaries: parses the arguments, refuses the run that
/// belongs to the other binary (`traced` says which one this is), and
/// turns an error into a message and a non-zero exit without a result line.
pub fn run_main(
    name: &str,
    traced: bool,
    run: impl FnOnce(&Args) -> Result<(), String>,
) -> ExitCode {
    let outcome = match Args::parse(std::env::args()) {
        Ok(args) if args.trace == traced => run(&args),
        Ok(_) => Err(format!("--trace {} runs the other binary", !traced as u8)),
        Err(usage) => Err(usage),
    };
    match outcome {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("{name}: {e}");
            ExitCode::FAILURE
        }
    }
}

/// SplitMix64: the benchmark's own generator, so its inputs depend on the
/// seed alone and not on the `rand` stand-in the product links.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`, decorrelated per `stream` so each use of
    /// the workload seed draws an independent sequence.
    pub fn new(seed: u64, stream: u64) -> Rng {
        Rng(seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15))
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`); the modulo bias is below 2⁻³² for the
    /// sizes used here.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// The `p`-th percentile (`0..=100`) of `samples` by linear interpolation
/// between order statistics; `NaN` for an empty slice.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = p / 100.0 * (sorted.len() - 1) as f64;
    let (lo, hi) = (rank.floor() as usize, rank.ceil() as usize);
    sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64)
}

/// The median of `samples`.
pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 50.0)
}

/// The highest of p50/p75/p90/p95/p99/p99.9 that still has at least ten
/// samples beyond it in a sample of `n` — the tail a timing may be
/// reported at. `None` below twenty samples (not even the median has ten
/// on each side).
pub fn supported_percentile(n: usize) -> Option<f64> {
    [99.9, 99.0, 95.0, 90.0, 75.0, 50.0]
        .into_iter()
        .find(|p| n as f64 * (100.0 - p) / 100.0 >= 10.0)
}

/// Calls `f` until `budget` has elapsed, at least `min_reps` and at most
/// `max_reps` times, and returns the median duration of a call in
/// nanoseconds. The layer probes use it so a traced run stays inside its
/// `--seconds` whatever the workload's size.
pub fn time_median_ns(
    budget: Duration,
    min_reps: usize,
    max_reps: usize,
    mut f: impl FnMut(),
) -> f64 {
    let start = Instant::now();
    let mut samples = Vec::new();
    while samples.len() < min_reps || (samples.len() < max_reps && start.elapsed() < budget) {
        let t0 = Instant::now();
        f();
        samples.push(t0.elapsed().as_nanos() as f64);
    }
    median(&samples)
}

/// Peak resident set of this process in MiB (`VmHWM` of
/// `/proc/self/status`); `None` where that file does not exist.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// A JSON value; `Display` writes it compactly. No `serde` offline.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `true` / `false`.
    Bool(bool),
    /// A whole number.
    Int(i64),
    /// A measured number; non-finite values are written as `null`.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, keys in insertion order.
    Obj(Vec<(String, Json)>),
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Json::Bool(b) => write!(f, "{b}"),
            Json::Int(i) => write!(f, "{i}"),
            Json::Num(x) if x.is_finite() => write!(f, "{x}"),
            Json::Num(_) => f.write_str("null"),
            Json::Str(s) => write_json_str(f, s),
            Json::Arr(items) => {
                f.write_char('[')?;
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        f.write_str(", ")?;
                    }
                    write!(f, "{item}")?;
                }
                f.write_char(']')
            }
            Json::Obj(fields) => {
                f.write_char('{')?;
                for (i, (key, value)) in fields.iter().enumerate() {
                    if i > 0 {
                        f.write_str(", ")?;
                    }
                    write_json_str(f, key)?;
                    write!(f, ": {value}")?;
                }
                f.write_char('}')
            }
        }
    }
}

fn write_json_str(f: &mut fmt::Formatter<'_>, s: &str) -> fmt::Result {
    f.write_char('"')?;
    for c in s.chars() {
        match c {
            '"' => f.write_str("\\\"")?,
            '\\' => f.write_str("\\\\")?,
            '\n' => f.write_str("\\n")?,
            c if (c as u32) < 0x20 => write!(f, "\\u{:04x}", c as u32)?,
            c => f.write_char(c)?,
        }
    }
    f.write_char('"')
}

/// One reported metric: name, value as measured, unit.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Name as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// The measured value, all digits.
    pub value: f64,
    /// Unit as listed in `BENCHMARK.json`.
    pub unit: &'static str,
}

impl Metric {
    /// Shorthand constructor.
    pub fn new(name: &'static str, value: f64, unit: &'static str) -> Metric {
        Metric { name, value, unit }
    }
}

/// Prints every metric by name with its unit, then — as the last line of
/// standard output — the result object the driver parses. The run is
/// `correct` only if no operation failed and every metric is a number.
pub fn print_result(attempted: u64, failed: u64, metrics: &[Metric]) {
    let mut fields = Vec::new();
    let mut all_finite = true;
    for m in metrics {
        println!("{:<34} {:>16.4} {}", m.name, m.value, m.unit);
        all_finite &= m.value.is_finite();
        fields.push((
            m.name.to_owned(),
            Json::Obj(vec![
                ("value".into(), Json::Num(m.value)),
                ("unit".into(), Json::Str(m.unit.into())),
            ]),
        ));
    }
    let result = Json::Obj(vec![
        ("correct".into(), Json::Bool(failed == 0 && all_finite)),
        ("attempted".into(), Json::Int(attempted.max(1) as i64)),
        ("failed".into(), Json::Int(failed as i64)),
        ("metrics".into(), Json::Obj(fields)),
    ]);
    println!("{result}");
}

/// Prints the facts a reader needs to compare two result lines: machine,
/// toolchain, commit, pool and seed. The checkout the driver runs in is
/// not a git repository, so the commit may read `unknown`.
pub fn print_environment(args: &Args) {
    let run = |cmd: &str, argv: &[&str]| {
        std::process::Command::new(cmd)
            .args(argv)
            .stderr(std::process::Stdio::null())
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_owned())
            .unwrap_or_else(|| "unknown".into())
    };
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    println!(
        "workload={} seed={} seconds={} trace={} pool={POOL} nproc={nproc}",
        args.workload, args.seed, args.seconds, args.trace as u8
    );
    println!(
        "rustc={:?} commit={}",
        run("rustc", &["--version"]),
        run("git", &["rev-parse", "--short", "HEAD"])
    );
}

/// One recorded span: a named interval of one operation, with the span
/// that caused it.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer-boundary name, e.g. `join.run`.
    pub name: &'static str,
    /// Operation the span belongs to; spans of one operation share it.
    pub op: u64,
    /// Index of the enclosing span in the recorder, `None` for an `op`.
    pub parent: Option<usize>,
    /// Start, nanoseconds since the recorder was created.
    pub start_ns: u64,
    /// End, nanoseconds since the recorder was created.
    pub end_ns: u64,
    /// Calls folded into this span (1 for a plain interval; the number of
    /// sink callbacks for the aggregated `sink.push` span).
    pub calls: u64,
}

/// In-memory span recorder for the traced run: spans nest through an
/// explicit stack on the one client thread and are written out only when
/// the run ends.
#[derive(Debug)]
pub struct Tracer {
    recording: bool,
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    op: u64,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new()
    }
}

impl Tracer {
    /// An empty recorder whose clock starts now.
    pub fn new() -> Tracer {
        Tracer {
            recording: true,
            epoch: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            op: 0,
        }
    }

    /// Switches recording on or off. While off, [`Tracer::span`] only
    /// calls its closure, so one piece of code serves as both the traced
    /// operation and its untraced twin.
    pub fn set_recording(&mut self, on: bool) {
        self.recording = on;
    }

    /// Whether spans are being recorded.
    pub fn recording(&self) -> bool {
        self.recording
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name`, child of the innermost open
    /// span. A span opened at the top level starts a new operation.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> R) -> R {
        if !self.recording {
            return f(self);
        }
        if self.stack.is_empty() {
            self.op += 1;
        }
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            op: self.op,
            parent: self.stack.last().copied(),
            start_ns,
            end_ns: start_ns,
            calls: 1,
        });
        self.stack.push(id);
        let out = f(self);
        self.stack.pop();
        self.spans[id].end_ns = self.now_ns();
        out
    }

    /// Records `busy` spread over `calls` callbacks as one child of the
    /// innermost open span, starting at `first_call` — how the timing sink
    /// reports its callbacks without a span per batch.
    pub fn folded(&mut self, name: &'static str, first_call: Instant, busy: Duration, calls: u64) {
        if !self.recording {
            return;
        }
        let start_ns = first_call.saturating_duration_since(self.epoch).as_nanos() as u64;
        self.spans.push(Span {
            name,
            op: self.op,
            parent: self.stack.last().copied(),
            start_ns,
            end_ns: start_ns + busy.as_nanos() as u64,
            calls,
        });
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of every span in nanoseconds: its duration minus the part
    /// its direct children cover.
    pub fn self_times_ns(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self.spans.iter().map(|s| s.end_ns - s.start_ns).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p] = own[p].saturating_sub(s.end_ns - s.start_ns);
            }
        }
        own
    }

    /// Median self time, in microseconds, of the spans named `name` (one
    /// sample per operation that recorded it); `0` if none did.
    pub fn median_self_us(&self, name: &str) -> f64 {
        let own = self.self_times_ns();
        let samples: Vec<f64> = self
            .spans
            .iter()
            .zip(&own)
            .filter(|(s, _)| s.name == name)
            .map(|(_, &ns)| ns as f64 / 1e3)
            .collect();
        if samples.is_empty() {
            0.0
        } else {
            median(&samples)
        }
    }

    /// Worst relative gap, over all operations, between an `op` span and
    /// the sum of the self times of the spans under it, in percent.
    pub fn worst_self_time_gap_pct(&self) -> f64 {
        let own = self.self_times_ns();
        let mut sums = vec![0u64; self.op as usize + 1];
        for (s, &ns) in self.spans.iter().zip(&own) {
            sums[s.op as usize] += ns;
        }
        self.spans
            .iter()
            .filter(|s| s.parent.is_none())
            .map(|s| {
                let total = (s.end_ns - s.start_ns) as f64;
                (sums[s.op as usize] as f64 - total).abs() / total * 100.0
            })
            .fold(0.0, f64::max)
    }

    /// The spans as a JSON array (name, op, parent, start, end, calls).
    pub fn to_json(&self) -> Json {
        Json::Arr(
            self.spans
                .iter()
                .enumerate()
                .map(|(id, s)| {
                    Json::Obj(vec![
                        ("id".into(), Json::Int(id as i64)),
                        ("name".into(), Json::Str(s.name.into())),
                        ("op".into(), Json::Int(s.op as i64)),
                        (
                            "parent".into(),
                            s.parent.map_or(Json::Int(-1), |p| Json::Int(p as i64)),
                        ),
                        ("start_ns".into(), Json::Int(s.start_ns as i64)),
                        ("end_ns".into(), Json::Int(s.end_ns as i64)),
                        ("calls".into(), Json::Int(s.calls as i64)),
                    ])
                })
                .collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_interpolate_and_respect_the_ten_beyond_rule() {
        let xs: Vec<f64> = (1..=101).map(f64::from).collect();
        assert_eq!(median(&xs), 51.0);
        assert_eq!(percentile(&xs, 90.0), 91.0);
        assert_eq!(supported_percentile(19), None);
        assert_eq!(supported_percentile(20), Some(50.0));
        assert_eq!(supported_percentile(99), Some(75.0));
        assert_eq!(supported_percentile(100), Some(90.0));
        assert_eq!(supported_percentile(20_000), Some(99.9));
    }

    #[test]
    fn rng_is_a_function_of_seed_and_stream() {
        let draw = |seed, stream| Rng::new(seed, stream).next_u64();
        assert_eq!(draw(7, 1), draw(7, 1));
        assert_ne!(draw(7, 1), draw(8, 1));
        assert_ne!(draw(7, 1), draw(7, 2));
    }

    #[test]
    fn json_escapes_and_nests() {
        let v = Json::Obj(vec![
            ("a\"b".into(), Json::Arr(vec![Json::Int(1), Json::Num(0.5)])),
            ("nan".into(), Json::Num(f64::NAN)),
        ]);
        assert_eq!(v.to_string(), r#"{"a\"b": [1, 0.5], "nan": null}"#);
    }

    #[test]
    fn self_times_sum_to_the_operation() {
        let mut t = Tracer::new();
        t.span("op", |t| {
            t.span("a", |t| {
                t.span("b", |_| std::thread::sleep(Duration::from_millis(2)))
            });
            let first = Instant::now();
            std::thread::sleep(Duration::from_millis(1));
            t.folded("c", first, Duration::from_micros(10), 3);
        });
        let own = t.self_times_ns();
        let total = t.spans()[0].end_ns - t.spans()[0].start_ns;
        assert_eq!(own.iter().sum::<u64>(), total);
        assert!(t.worst_self_time_gap_pct() < 1e-9);
        assert!(t.median_self_us("b") >= 2_000.0);
        assert_eq!(t.spans()[3].calls, 3);
    }
}
