//! End-to-end benchmark for odflow.
//!
//! ```text
//! cargo run --release --manifest-path e2ebench/Cargo.toml -- \
//!     --workload <batch_week|serve_paced|serve_durable> --seed <n> --seconds <n> --trace <0|1>
//! ```
//!
//! Repeats the workload until `--seconds` have passed (at least once),
//! checks every iteration's output, prints one line per iteration and one
//! per metric, and ends with a single JSON result line: the end-to-end
//! metrics with `--trace 0`, the per-layer metrics with `--trace 1`. The
//! exit code is non-zero when a check fails. See `README.md` beside this
//! crate for the workloads and metrics.

#![forbid(unsafe_code)]

mod batch;
mod report;
mod serve;
mod stats;
mod trace;

use odflow_serve::metrics::monotonic_now;
use report::{layer_metric, Outcome, END_TO_END, PER_LAYER, RESIDUAL_FLAG_SHARE};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};
use trace::Trace;

/// The workloads, in the order `BENCHMARK.json` lists them.
const WORKLOADS: &[&str] = &["batch_week", "serve_paced", "serve_durable"];

/// Whether this run measures the end-to-end metrics or traces layers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Tracing off: end-to-end metrics.
    Timed,
    /// Each untraced iteration is followed by a traced one.
    Traced,
}

/// When a run stops starting new iterations.
#[derive(Debug)]
pub struct Deadline {
    start: Instant,
    budget: Duration,
}

impl Deadline {
    fn new(seconds: u64) -> Deadline {
        Deadline { start: monotonic_now(), budget: Duration::from_secs(seconds) }
    }

    /// Restarts the budget, once inputs are prepared.
    pub fn restart(&mut self) {
        self.start = monotonic_now();
    }

    /// `true` once the measuring budget is spent.
    #[must_use]
    pub fn passed(&self) -> bool {
        self.start.elapsed() >= self.budget
    }
}

/// End-to-end figures of one untraced iteration.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    /// Set-up time, seconds.
    pub setup_s: f64,
    /// First input to complete result, seconds.
    pub wall_s: f64,
    /// Records ingested.
    pub records: u64,
    /// Peak resident set of the process so far, MB.
    pub peak_rss_mb: f64,
}

impl Sample {
    /// A sample taken at the end of an iteration.
    #[must_use]
    pub fn new(setup_s: f64, wall_s: f64, records: u64) -> Sample {
        Sample { setup_s, wall_s, records, peak_rss_mb: peak_rss_mb() }
    }
}

/// Set-ups timed per iteration; the iteration reports their median.
pub const SETUP_REPS: usize = 9;

/// Runs the set-up `f` [`SETUP_REPS`] times and returns the last result
/// with the median set-up time in seconds.
///
/// # Errors
///
/// The first failed set-up.
pub fn timed_setup<T>(mut f: impl FnMut() -> Result<T, String>) -> Result<(T, f64), String> {
    let mut secs = Vec::with_capacity(SETUP_REPS);
    let mut last = None;
    for _ in 0..SETUP_REPS {
        drop(last.take());
        let t0 = monotonic_now();
        last = Some(f()?);
        secs.push(t0.elapsed().as_secs_f64());
    }
    let value = last.ok_or("no set-up ran")?;
    Ok((value, stats::median(&secs)))
}

/// Per-layer figures of one traced iteration, by metric name.
pub type Layers = BTreeMap<String, f64>;

/// Self times of traced iteration `iter` under their metric names, plus
/// `trace.wall_ms`, the sum over the wall-clock trees.
#[must_use]
pub fn layers_of(trace: &Trace, iter: u32) -> Layers {
    let mut layers: Layers =
        trace.self_ms(iter).into_iter().map(|(span, v)| (layer_metric(span), v)).collect();
    layers.insert("trace.wall_ms".to_owned(), trace.wall_ms(iter));
    layers
}

/// Directory for the run's own outputs (span dumps, checkpoints).
#[must_use]
pub fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// Peak resident set of this process in MB (`VmHWM`), 0 if unreadable.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Fills `out` from the untraced samples and the traced layer maps,
/// prints every metric, and writes the span dump.
pub fn summarize(out: &mut Outcome, samples: &[Sample], traced: &[Layers], trace: &Trace, w: &str) {
    let col = |f: fn(&Sample) -> f64| samples.iter().map(f).collect::<Vec<f64>>();
    let wall_s = stats::median(&col(|s| s.wall_s));
    out.set("setup_s", stats::median(&col(|s| s.setup_s)));
    out.set("wall_s", wall_s);
    out.set("records_per_s", stats::median(&col(|s| s.records as f64 / s.wall_s)));
    // Memory through the first iteration, inputs included: later
    // iterations only add allocator reuse noise, and how many run
    // depends on timing.
    out.set("peak_rss_mb", samples.first().map_or(0.0, |s| s.peak_rss_mb));
    println!("untraced iterations: {}", samples.len());
    for (name, unit) in END_TO_END {
        println!("metric {name} {} {unit}", out.values[*name]);
    }
    if traced.is_empty() {
        return;
    }
    let mut names: Vec<&String> = traced.iter().flat_map(BTreeMap::keys).collect();
    names.sort();
    names.dedup();
    let mut merged = Layers::new();
    for name in names {
        let v: Vec<f64> = traced.iter().map(|l| l.get(name).copied().unwrap_or(0.0)).collect();
        merged.insert(name.clone(), stats::median(&v));
    }
    let traced_wall_ms = merged.remove("trace.wall_ms").unwrap_or(0.0);
    let residual_ms = wall_s * 1e3 - traced_wall_ms;
    let share = residual_ms / (wall_s * 1e3);
    merged.insert("trace.residual_ms".to_owned(), residual_ms);
    merged.insert("trace.residual_share".to_owned(), share);
    for (name, v) in merged {
        out.set(&name, v);
    }
    out.absent_as_zero(PER_LAYER);
    println!("traced iterations: {}", traced.len());
    for (name, unit) in PER_LAYER {
        println!("metric {name} {} {unit}", out.values[*name]);
    }
    println!(
        "trace: untraced wall {:.1} ms, sum of layer self times {traced_wall_ms:.1} ms, \
         residual {residual_ms:.1} ms ({:.1}%){}",
        wall_s * 1e3,
        share * 100.0,
        if share.abs() > RESIDUAL_FLAG_SHARE { "  FLAG: residual above 5% of wall_s" } else { "" }
    );
    let path = out_dir().join(format!("trace-{w}.tsv"));
    match trace.write_tsv(&path) {
        Ok(()) => println!("spans written to {}", path.display()),
        Err(e) => println!("spans not written: {e}"),
    }
}

/// Parsed command line.
struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    mode: Mode,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut mode = Mode::Timed;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || value.parse::<u64>().map_err(|e| format!("{flag} {value}: {e}"));
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?),
            "--trace" => {
                mode = match value.as_str() {
                    "0" => Mode::Timed,
                    "1" => Mode::Traced,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}; one of {WORKLOADS:?}"));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?.max(1),
        mode,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("e2ebench: {e}");
            return ExitCode::from(2);
        }
    };
    println!(
        "e2ebench workload {} seed {} seconds {} trace {} threads {} hardware_threads {}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.mode == Mode::Traced),
        odflow_par::max_threads(),
        std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
    );
    let mut deadline = Deadline::new(args.seconds);
    let mut out = Outcome::default();
    let ran = match args.workload.as_str() {
        "batch_week" => batch::run(args.seed, &deadline, args.mode, &mut out),
        "serve_paced" => serve::run_paced(args.seed, &mut deadline, args.mode, &mut out),
        _ => serve::run_durable(args.seed, &mut deadline, args.mode, &mut out),
    };
    if let Err(e) = ran {
        eprintln!("e2ebench: {e}");
        return ExitCode::FAILURE;
    }
    out.correct = out.failed == 0;
    let set = if args.mode == Mode::Traced { PER_LAYER } else { END_TO_END };
    match out.json(set) {
        Ok(line) => println!("{line}"),
        Err(e) => {
            eprintln!("e2ebench: {e}");
            return ExitCode::FAILURE;
        }
    }
    if out.correct {
        ExitCode::SUCCESS
    } else {
        eprintln!("e2ebench: {} of {} iterations failed a check", out.failed, out.attempted);
        ExitCode::FAILURE
    }
}
