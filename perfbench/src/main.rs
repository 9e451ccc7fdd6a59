//! End-to-end and per-layer benchmark of the pinpoint pipeline.
//!
//! Run from the repository root:
//!
//! ```sh
//! cargo run --release --offline --quiet --manifest-path perfbench/Cargo.toml -- \
//!     --workload analyze --seed 1 --seconds 12 --trace 0
//! ```
//!
//! Workloads (`BENCHMARK.json` records why each exists):
//!
//! - `profile` — an instrumented ResNet-18 training profile streamed into
//!   a `.ptrc` store (executor → caching allocator → trace sink → store
//!   writer);
//! - `analyze` — the offline `report --json` path: open a store, run the
//!   fused five-fold scan, render the JSON;
//! - `serve-hot` — an in-process daemon driven by two kept-alive clients
//!   repeating three report keys, so the result cache answers;
//! - `serve-cold` — the same, except that no key repeats, so every answer
//!   is folded from the chunk cache and rendered;
//! - `serve-connect` — the hot keys on a fresh connection per request, so
//!   the connection path (accept, hand-off, close) dominates.
//!
//! Each run builds its inputs from `--seed`, then runs operations back to
//! back for `--seconds`, checks the answers against ones computed
//! independently, and prints one JSON object as the last line of stdout:
//! the end-to-end metrics with `--trace 0`, the per-layer ones with
//! `--trace 1`. Per-layer times come from `pinpoint-obs` spans: the
//! program's own where it has them, and spans recorded here around each
//! layer call where it does not.
//! `setup_s` is the median time of building the inputs, over copies built
//! in bursts spread across the run ([`SetUps`]).
//!
//! Latency is reported at p90, and neither at p50 nor as a rate. On a
//! shared two-CPU virtual machine each CPU alternates, for seconds at a
//! time, between two speeds about 1.4x apart. The median lands on either
//! side from run to run and the mean (hence the rate) follows how long a
//! run spent in the fast mode, while p90 stays inside the slower mode. The
//! rate can still be read off `attempted` over `--seconds`.

mod analyze;
mod http;
mod profile;
mod serve;

use pinpoint_obs::tracer;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::Barrier;
use std::time::{Duration, Instant};

/// Slices the measured window is cut into, with a burst of set-ups
/// before each (see [`SetUps`]).
const SLICES: u32 = 8;

/// Fewest set-ups in a burst.
const BURST_SETUPS: usize = 2;

/// Least wall time of a burst, in seconds.
const BURST_SECS: f64 = 0.25;

/// Closed-loop streams every workload runs (daemon clients, for the daemon
/// mixes): one per CPU of the two-CPU machine the bounds were set on.
/// Keeping both CPUs busy averages the two CPUs' speed modes within every
/// run.
pub const STREAMS: usize = 2;

/// Every per-layer metric, printed by every workload under `--trace 1`
/// (0 where the workload does not exercise the layer).
const PER_LAYER: [(&str, &str); 23] = [
    ("profile.exec_ms", "ms"),
    ("profile.sink_flush_ms", "ms"),
    ("alloc.mallocs", "count"),
    ("alloc.cache_hit_pct", "%"),
    ("store.bytes_per_event", "B"),
    ("analyze.open_ms", "ms"),
    ("analyze.scan_ms", "ms"),
    ("analyze.read_ms", "ms"),
    ("analyze.decode_ms", "ms"),
    ("analyze.fold_ms", "ms"),
    ("analyze.merge_ms", "ms"),
    ("analyze.render_ms", "ms"),
    ("analyze.chunks_decoded", "count"),
    ("serve.request_us", "us"),
    ("serve.queue_us", "us"),
    ("serve.parse_us", "us"),
    ("serve.lookup_us", "us"),
    ("serve.fold_us", "us"),
    ("serve.render_us", "us"),
    ("serve.write_us", "us"),
    ("serve.client_wait_us", "us"),
    ("serve.chunk_cache_hit_pct", "%"),
    ("serve.result_cache_hit_pct", "%"),
];

/// Command-line arguments.
#[derive(Debug)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
}

/// What a measured window recorded.
#[derive(Debug, Default)]
pub struct Window {
    /// Wall time of every attempted operation, in nanoseconds.
    pub latencies_ns: Vec<u64>,
    /// Operations that failed or returned a wrong answer.
    pub failed: u64,
    /// Wall time of the window.
    pub elapsed: Duration,
}

/// What one workload measured.
#[derive(Debug, Default)]
pub struct Outcome {
    pub window: Window,
    /// Whether every answer checked after the window matched.
    pub correct: bool,
    /// Per-layer metrics (filled on `--trace 1` runs).
    pub layers: BTreeMap<&'static str, f64>,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let value = |flag: &str| -> Result<&str, String> {
        let i = argv
            .iter()
            .position(|a| a == flag)
            .ok_or_else(|| format!("missing {flag}"))?;
        argv.get(i + 1)
            .map(String::as_str)
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    let num = |flag: &str| -> Result<u64, String> {
        value(flag)?.parse().map_err(|e| format!("{flag}: {e}"))
    };
    Ok(Args {
        workload: value("--workload")?.to_string(),
        seed: num("--seed")?,
        seconds: num("--seconds")?.max(1),
        trace: num("--trace")? != 0,
    })
}

/// Builds a copy of a workload's inputs in the given directory.
type Build<'a, T> = Box<dyn FnMut(&Path) -> Result<T, String> + 'a>;

/// Times set-ups of a workload's inputs. The copy the workload runs on is
/// built once, into `inputs/` under the run's directory; every further
/// copy is built into `setup/` beside it and dropped at once. Further
/// copies are built in bursts, one before each slice of the measured
/// window, so that the samples span the run's CPU speed modes: set-ups
/// timed back to back swung by up to 1.7x between runs. Runs that print
/// per-layer metrics time no bursts: their output has no `setup_s`.
pub struct SetUps<'a, T> {
    build: Build<'a, T>,
    scratch: Option<PathBuf>,
    secs: Vec<f64>,
}

impl<'a, T> SetUps<'a, T> {
    /// Builds and times the copy the workload runs on.
    pub fn new(
        args: &Args,
        work: &Path,
        build: impl FnMut(&Path) -> Result<T, String> + 'a,
    ) -> Result<(Self, T), String> {
        let (inputs, scratch) = (work.join("inputs"), work.join("setup"));
        for dir in [&inputs, &scratch] {
            std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        }
        let mut setups = SetUps {
            build: Box::new(build),
            scratch: (!args.trace).then_some(scratch),
            secs: Vec::new(),
        };
        let t0 = Instant::now();
        let state = (setups.build)(&inputs)?;
        setups.secs.push(t0.elapsed().as_secs_f64());
        Ok((setups, state))
    }

    /// One burst: at least [`BURST_SETUPS`] set-ups, for at least
    /// [`BURST_SECS`]. A set-up's time ends when its copy is built; tearing
    /// the copy down is not counted.
    pub fn burst(&mut self) -> Result<(), String> {
        let Some(scratch) = &self.scratch else {
            return Ok(());
        };
        let start = Instant::now();
        let mut n = 0;
        while n < BURST_SETUPS || start.elapsed().as_secs_f64() < BURST_SECS {
            let t0 = Instant::now();
            let copy = (self.build)(scratch)?;
            self.secs.push(t0.elapsed().as_secs_f64());
            drop(copy);
            n += 1;
        }
        Ok(())
    }

    /// Median set-up time in seconds.
    pub fn median(&self) -> f64 {
        let mut secs = self.secs.clone();
        secs.sort_by(f64::total_cmp);
        secs[secs.len() / 2]
    }
}

/// Runs `streams` threads for `seconds`, each calling its own operation
/// (`make(stream)`) back to back and recording every call's wall time.
/// An operation returns whether it succeeded. The window is cut into
/// [`SLICES`] slices; before each, every stream waits while `between` runs.
pub fn closed_loop<F: FnMut() -> bool>(
    seconds: u64,
    streams: usize,
    make: impl Fn(usize) -> F + Sync,
    mut between: impl FnMut() -> Result<(), String>,
) -> Result<Window, String> {
    let slice = Duration::from_secs(seconds) / SLICES;
    let gate = Barrier::new(streams + 1);
    let mut elapsed = Duration::ZERO;
    let mut failure = Ok(());
    let per_stream: Vec<(Vec<u64>, u64)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..streams)
            .map(|stream| {
                let (make, gate) = (&make, &gate);
                scope.spawn(move || {
                    let mut op = make(stream);
                    let mut latencies = Vec::new();
                    let mut failed = 0u64;
                    for _ in 0..SLICES {
                        gate.wait();
                        let start = Instant::now();
                        while start.elapsed() < slice {
                            let t0 = Instant::now();
                            let ok = op();
                            latencies.push(t0.elapsed().as_nanos() as u64);
                            failed += u64::from(!ok);
                        }
                        gate.wait();
                    }
                    (latencies, failed)
                })
            })
            .collect();
        for _ in 0..SLICES {
            if failure.is_ok() {
                failure = between();
            }
            gate.wait();
            let start = Instant::now();
            gate.wait();
            elapsed += start.elapsed();
        }
        handles
            .into_iter()
            .map(|h| h.join().expect("stream thread panicked"))
            .collect()
    });
    failure?;
    Ok(Window {
        failed: per_stream.iter().map(|s| s.1).sum(),
        latencies_ns: per_stream.into_iter().flat_map(|s| s.0).collect(),
        elapsed,
    })
}

/// Span totals by name — `(spans, total ns)` — over what the process
/// tracer holds. Its per-thread rings keep the newest spans, so per-call
/// averages divide by the count of an enclosing span from the same
/// snapshot, never by the number of operations run.
#[derive(Debug)]
pub struct SpanTotals(BTreeMap<&'static str, (u64, u64)>);

impl SpanTotals {
    pub fn snapshot() -> Self {
        SpanTotals(
            tracer()
                .snapshot()
                .totals_by_name()
                .into_iter()
                .map(|(name, count, ns)| (name, (count, ns)))
                .collect(),
        )
    }

    /// Mean nanoseconds in spans called `name` per span called `per`.
    pub fn per(&self, name: &str, per: &str) -> f64 {
        let ns = self.0.get(name).map_or(0, |e| e.1);
        let count = self.0.get(per).map_or(0, |e| e.0);
        ns as f64 / count.max(1) as f64
    }
}

/// Linear-interpolated percentile of an ascending slice.
fn percentile(sorted: &[u64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = p / 100.0 * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    let frac = rank - lo as f64;
    sorted[lo] as f64 * (1.0 - frac) + sorted[hi] as f64 * frac
}

/// The run's scratch directory for stores, under the working directory;
/// removed when dropped.
struct WorkDir(PathBuf);

const WORK_ROOT: &str = ".perfbench_work";

impl WorkDir {
    fn create(workload: &str) -> Result<Self, String> {
        let dir = Path::new(WORK_ROOT).join(format!("{workload}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        Ok(WorkDir(dir))
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        // fails, harmlessly, while another run still has its directory
        let _ = std::fs::remove_dir(WORK_ROOT);
    }
}

fn json_metrics(values: &[(&str, f64, &str)]) -> String {
    let fields: Vec<String> = values
        .iter()
        .map(|(name, value, unit)| format!("\"{name}\":{{\"value\":{value},\"unit\":\"{unit}\"}}"))
        .collect();
    format!("{{{}}}", fields.join(","))
}

fn run(args: &Args) -> Result<(Outcome, f64), String> {
    let work = WorkDir::create(&args.workload)?;
    match args.workload.as_str() {
        "profile" => profile::run(args, &work.0),
        "analyze" => analyze::run(args, &work.0),
        "serve-hot" => serve::run(args, &work.0, serve::Mix::Hot),
        "serve-cold" => serve::run(args, &work.0, serve::Mix::Cold),
        "serve-connect" => serve::run(args, &work.0, serve::Mix::Connect),
        other => Err(format!(
            "unknown workload `{other}` (profile|analyze|serve-hot|serve-cold|serve-connect)"
        )),
    }
}

fn main() -> std::process::ExitCode {
    let result = parse_args().and_then(|args| Ok((run(&args)?, args)));
    let ((outcome, setup_s), args) = match result {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return std::process::ExitCode::FAILURE;
        }
    };

    let window = &outcome.window;
    let mut sorted = window.latencies_ns.clone();
    sorted.sort_unstable();
    let attempted = sorted.len() as u64;
    let p50_ms = percentile(&sorted, 50.0) / 1e6;
    let p90_ms = percentile(&sorted, 90.0) / 1e6;
    let throughput = attempted as f64 / window.elapsed.as_secs_f64();
    eprintln!(
        "perfbench: {} seed {}: {attempted} ops in {:.2}s, p50 {p50_ms:.4} ms, \
         p90 {p90_ms:.4} ms, {throughput:.1}/s, setup {setup_s:.4}s, {} failed",
        args.workload,
        args.seed,
        window.elapsed.as_secs_f64(),
        window.failed,
    );

    let metrics = if args.trace {
        let values: Vec<(&str, f64, &str)> = PER_LAYER
            .iter()
            .map(|&(name, unit)| (name, outcome.layers.get(name).copied().unwrap_or(0.0), unit))
            .collect();
        json_metrics(&values)
    } else {
        json_metrics(&[("p90_ms", p90_ms, "ms"), ("setup_s", setup_s, "s")])
    };
    println!(
        "{{\"correct\":{},\"attempted\":{attempted},\"failed\":{},\"metrics\":{metrics}}}",
        outcome.correct && window.failed == 0 && attempted > 0,
        window.failed,
    );
    std::process::ExitCode::SUCCESS
}
