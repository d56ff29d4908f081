//! The elp2im benchmark: one closed-loop client per run, one workload per
//! run, every output checked against an independent reference.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <bitmap|scan|synth|montecarlo> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Two clocks are kept apart: *host* time (how fast the simulator runs,
//! `*_ms`/`*_us`/`setup_s`) and *modeled* DRAM time and energy (what
//! ELP2IM hardware would take, `modeled.*` and `sched.*_ns`).
//!
//! `--trace 0` prints the end-to-end metrics. `--trace 1` sends every
//! request twice, untraced and then layer by layer with spans on a twin
//! instance, and prints the per-layer metrics; the gap between the two
//! median latencies is the tracing overhead. The last stdout line is the
//! JSON result; every line before it is a human-readable metric. Spans of
//! the traced requests go to `perfbench/out/`.

mod batchop;
mod bitmap;
mod montecarlo;
mod rng;
mod scan;
mod stats;
mod synth;
mod trace;

use stats::{median, ratio, tail};
use std::process::ExitCode;
use std::time::{Duration, Instant};
use trace::Trace;

/// End-to-end metrics (`--trace 0`), reported by every workload. Latency
/// is gated at the 10th percentile: on a shared host, steal time moves the
/// median of the 64-thread `bitmap` requests by up to 2x between runs,
/// while the fastest requests still show the program's own cost.
const END_TO_END: [(&str, &str); 3] =
    [("setup_s", "s"), ("req_p10_ms", "ms"), ("peak_rss_mb", "MB")];

/// Per-layer metrics (`--trace 1`), reported by every workload; a layer a
/// workload never calls reads 0.
const PER_LAYER: [(&str, &str); 30] = [
    ("batch.new_ms", "ms"),
    ("batch.prepare_us", "us"),
    ("batch.op_us", "us"),
    ("batch.exec_self_us", "us"),
    ("batch.exec_overhead_us", "us"),
    ("batch.units_busy", "count"),
    ("batch.store_us", "us"),
    ("batch.release_us", "us"),
    ("batch.load_us", "us"),
    ("apps.ops_per_req", "count"),
    ("engine.kernel_us", "us"),
    ("engine.words", "count"),
    ("engine.share", "ratio"),
    ("sched.us", "us"),
    ("sched.commands", "count"),
    ("sched.ns_per_cmd", "ns"),
    ("sched.pump_stall_ns", "ns"),
    ("sched.bus_wait_ns", "ns"),
    ("sched.makespan_over_busy", "ratio"),
    ("planlint.certify_us", "us"),
    ("planlint.certify_share", "ratio"),
    ("analysis.cache_entries", "count"),
    ("mc.trials_per_s", "1/s"),
    ("mc.trials_per_s_1t", "1/s"),
    ("mc.thread_speedup", "ratio"),
    ("ref.bitvec_and_ns_per_word", "ns"),
    ("modeled.us_per_req", "us"),
    ("modeled.nj_per_req", "nJ"),
    ("trace.req_p50_ms", "ms"),
    ("trace.overhead_frac", "ratio"),
];

/// Metrics printed but left out of the result line: the median, tail and
/// throughput (with one client, 1 / mean latency), which host steal makes
/// too unsteady to gate on, and the layers of the `synth` workload, which
/// is run by hand only (see `LEDGER.md`).
const PRINTED_ONLY: [(&str, &str); 11] = [
    ("req_p50_ms", "ms"),
    ("req_tail_ms", "ms"),
    ("req_per_s", "1/s"),
    ("synth.ms", "ms"),
    ("synth.egraph_nodes", "count"),
    ("synth.saturated_frac", "ratio"),
    ("synth.fallback_frac", "ratio"),
    ("synth.gates", "count"),
    ("synth.modeled_over_greedy", "ratio"),
    ("greedy.ms", "ms"),
    ("analysis.analyze_us", "us"),
];

/// Setup rounds per run; `setup_s` is their median.
const SETUP_ROUNDS: usize = 9;
/// A setup round repeats the setup until it has taken at least this long,
/// so that tiny setups are timed above the clock's resolution.
const SETUP_ROUND_MIN: Duration = Duration::from_millis(5);

/// One workload: a device with its resident dataset, driven by requests
/// whose inputs are pure functions of `(seed, request index)`.
pub trait Workload: Sized {
    /// A request's generated input.
    type In;
    /// A request's output.
    type Out;
    /// Requests replayed on a fresh instance to prove that modeled results
    /// repeat bit for bit.
    const REPLAY: usize;
    /// Requests after which `peak_rss_mb` is read, so that it measures a
    /// fixed amount of work however fast the host is.
    const RSS_AFTER: usize;

    /// Constructs the device and stores the resident dataset. Returns the
    /// instance and the time spent in the batch layer's constructor
    /// ([`elp2im_core::DeviceArray::new`]), if the workload uses one.
    fn setup(seed: u64) -> Result<(Self, Option<Duration>), String>;
    /// Generates request `req`'s input (not timed).
    fn input(&mut self, req: u64) -> Self::In;
    /// Serves one request: through the public app-level calls when `trace`
    /// is `None`, layer by layer with spans otherwise.
    fn request(&mut self, input: Self::In, trace: Option<&mut Trace>) -> Result<Self::Out, String>;
    /// Checks an output against the independent reference (not timed).
    fn check(&mut self, out: &Self::Out) -> Result<(), String>;
    /// Modeled DRAM time (ns) and energy (pJ) of the request.
    fn modeled(out: &Self::Out) -> (f64, f64);
    /// Exact quantities that must repeat bit for bit for one seed.
    fn fingerprint(out: &Self::Out) -> Vec<u64>;
    /// Workload-specific per-layer metrics of a traced phase.
    fn layer_metrics(&self, trace: &Trace, m: &mut Metrics);
}

/// Named metric values.
#[derive(Default)]
pub struct Metrics(Vec<(&'static str, f64)>);

impl Metrics {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.0.retain(|(n, _)| *n != name);
        self.0.push((name, value));
    }

    fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|(n, _)| *n == name).map(|(_, v)| *v)
    }
}

/// The exact outcome of one request: modeled (ns, pJ) and fingerprint.
struct Record {
    modeled: (f64, f64),
    fingerprint: Vec<u64>,
}

/// What one instance's sequence of requests measured.
#[derive(Default)]
struct Phase {
    latencies_ms: Vec<f64>,
    /// Per request; `None` if it failed.
    results: Vec<Option<Record>>,
    failed: u64,
    /// Peak RSS (MB) once [`Workload::RSS_AFTER`] requests completed.
    rss_mb: Option<f64>,
}

/// Sends request `req` to `w` and records its latency and checked outcome.
fn serve<W: Workload>(w: &mut W, req: u64, mut trace: Option<&mut Trace>, phase: &mut Phase) {
    let input = w.input(req);
    if let Some(t) = trace.as_deref_mut() {
        t.set_request(req);
    }
    let t = Instant::now();
    let out = w.request(input, trace);
    phase.latencies_ms.push(t.elapsed().as_secs_f64() * 1e3);
    match out.and_then(|o| w.check(&o).map(|()| o)) {
        Ok(o) => phase
            .results
            .push(Some(Record { modeled: W::modeled(&o), fingerprint: W::fingerprint(&o) })),
        Err(e) => {
            eprintln!("request {req} failed: {e}");
            phase.failed += 1;
            phase.results.push(None);
        }
    }
    if req as usize + 1 == W::RSS_AFTER {
        phase.rss_mb = Some(stats::peak_rss_mb());
    }
}

/// Requests of `a` and `b` (same seed, same request indices) whose modeled
/// results or fingerprints differ bit for bit (a failed request differs).
fn mismatches(a: &Phase, b: &Phase) -> usize {
    let bits = |r: &Record| (r.modeled.0.to_bits(), r.modeled.1.to_bits(), r.fingerprint.clone());
    a.results
        .iter()
        .zip(&b.results)
        .filter(|(x, y)| match (x, y) {
            (Some(x), Some(y)) => bits(x) != bits(y),
            _ => true,
        })
        .count()
}

/// Runs the setup [`SETUP_ROUNDS`] times and returns (median setup s,
/// median constructor ms, the instance to measure, a twin instance). A
/// round that repeats a tiny set-up keeps only its latest instance, so the
/// repetitions do not inflate `peak_rss_mb`.
fn setup<W: Workload>(seed: u64) -> Result<(f64, f64, W, W), String> {
    let mut kept: Vec<W> = Vec::new();
    let (mut setup_s, mut new_ms) = (Vec::new(), Vec::new());
    for _ in 0..SETUP_ROUNDS {
        let (mut n, mut latest, mut constructor) = (0u32, None, Duration::ZERO);
        let t = Instant::now();
        while n == 0 || t.elapsed() < SETUP_ROUND_MIN {
            let (w, c) = W::setup(seed)?;
            constructor += c.unwrap_or_default();
            latest = Some(w);
            n += 1;
        }
        setup_s.push(t.elapsed().as_secs_f64() / f64::from(n));
        new_ms.push(constructor.as_secs_f64() * 1e3 / f64::from(n));
        if kept.len() < 2 {
            kept.extend(latest);
        }
    }
    let twin = kept.pop().expect("two rounds kept");
    let main = kept.pop().expect("two rounds kept");
    Ok((median(&setup_s), median(&new_ms), main, twin))
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args { workload: String::new(), seed: 1, seconds: 10.0, trace: false };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => args.seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => args.trace = value.parse::<u8>().map_err(|e| bad(&e))? != 0,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !(args.seconds > 0.0 && args.seconds <= 600.0) {
        return Err(format!("--seconds {} out of range", args.seconds));
    }
    Ok(args)
}

/// Runs workload `W` and returns (correct, attempted, failed, metrics).
fn run<W: Workload>(args: &Args) -> Result<(bool, u64, u64, Metrics), String> {
    let ref_kernel = stats::ref_and_ns_per_word();
    let (setup_s, new_ms, mut main, mut twin) = setup::<W>(args.seed)?;
    let budget = Duration::from_secs_f64(args.seconds);
    let mut m = Metrics::default();
    // One client, closed loop. A traced run alternates each untraced
    // request with the same request on the twin, traced, so both see the
    // same host conditions; an untraced run replays a prefix on the twin.
    let (mut phase, mut check) = (Phase::default(), Phase::default());
    let mut tr = Trace::new();
    let start = Instant::now();
    let mut req = 0;
    while start.elapsed() < budget {
        serve(&mut main, req, None, &mut phase);
        if args.trace {
            serve(&mut twin, req, Some(&mut tr), &mut check);
        }
        req += 1;
    }
    if args.trace {
        let overhead = ratio(median(&check.latencies_ms), median(&phase.latencies_ms)) - 1.0;
        m.set("trace.overhead_frac", overhead);
        layer_metrics(&twin, &tr, &check, &mut m);
        write_spans(&args.workload, &tr);
    } else {
        for req in 0..phase.results.len().min(W::REPLAY) {
            serve(&mut twin, req as u64, None, &mut check);
        }
    }
    let diverged = mismatches(&phase, &check);
    if diverged > 0 {
        eprintln!("{diverged} requests did not repeat bit for bit on a fresh instance");
    }

    let lat = &phase.latencies_ms;
    let (tail_ms, tail_p, n) = tail(lat);
    let total_s: f64 = lat.iter().sum::<f64>() / 1e3;
    // Modeled figures come from the fixed prefix of requests the run
    // replays, so they repeat bit for bit for one seed however fast the
    // host is.
    let prefix = || phase.results.iter().take(W::REPLAY).flatten();
    let modeled_us = median(&prefix().map(|r| r.modeled.0 / 1e3).collect::<Vec<_>>());
    let modeled_nj = median(&prefix().map(|r| r.modeled.1 / 1e3).collect::<Vec<_>>());
    m.set("setup_s", setup_s);
    m.set("req_p10_ms", stats::percentile(lat, 10.0));
    m.set("req_p50_ms", median(lat));
    m.set("req_tail_ms", tail_ms);
    m.set("req_per_s", ratio(n as f64, total_s));
    m.set("peak_rss_mb", phase.rss_mb.unwrap_or_else(stats::peak_rss_mb));
    m.set("batch.new_ms", new_ms);
    m.set("ref.bitvec_and_ns_per_word", ref_kernel);
    m.set("modeled.us_per_req", modeled_us);
    m.set("modeled.nj_per_req", modeled_nj);

    let attempted = (phase.results.len() + check.results.len()) as u64;
    let failed = phase.failed + check.failed;
    println!("workload {} seed {} trace {}", args.workload, args.seed, u8::from(args.trace));
    println!("req_tail_ms is p{tail_p:.2} of {n} requests");
    println!("failed_frac {}", ratio(failed as f64, attempted as f64));
    println!("repeat_mismatches {diverged} of {} requests", check.results.len());
    Ok((failed == 0 && diverged == 0, attempted.max(1), failed, m))
}

/// Per-layer metrics common to every workload, then the workload's own.
fn layer_metrics<W: Workload>(w: &W, tr: &Trace, traced: &Phase, m: &mut Metrics) {
    let ops = tr.durations_us("batch.op");
    let kernel = tr.durations_us("engine.kernel");
    let sched = tr.durations_us("sched.schedule");
    let certify = tr.durations_us("planlint.certify");
    // exec self = op − prepare − schedule, per decomposed op.
    let groups = tr.sibling_sums_us(&["batch.op", "batch.prepare", "sched.schedule"]);
    let exec_self: Vec<f64> = groups.iter().map(|g| g[0] - g[1] - g[2]).collect();
    let overhead: Vec<f64> = tr
        .sibling_sums_us(&["batch.op", "batch.prepare", "sched.schedule", "engine.kernel"])
        .iter()
        .map(|g| g[0] - g[1] - g[2] - g[3])
        .collect();
    let sum = |v: &[f64]| v.iter().sum::<f64>();
    m.set("batch.prepare_us", median(&tr.durations_us("batch.prepare")));
    m.set("batch.op_us", median(&ops));
    m.set("batch.exec_self_us", median(&exec_self));
    m.set("batch.exec_overhead_us", median(&overhead));
    m.set("batch.units_busy", median(&tr.values("batch.units_busy")));
    m.set("batch.store_us", median(&tr.durations_us("batch.store")));
    m.set("batch.release_us", median(&tr.durations_us("batch.release")));
    m.set("batch.load_us", median(&tr.durations_us("batch.load")));
    m.set("apps.ops_per_req", median(&tr.per_req_sums("apps.ops")));
    m.set("engine.kernel_us", median(&kernel));
    m.set("engine.words", median(&tr.per_req_sums("engine.words")));
    m.set("engine.share", ratio(sum(&kernel), sum(&ops)));
    m.set("sched.us", median(&sched));
    m.set("sched.commands", median(&tr.values("sched.commands")));
    m.set("sched.ns_per_cmd", ratio(sum(&sched) * 1e3, tr.total("sched.commands")));
    m.set("sched.pump_stall_ns", median(&tr.per_req_sums("sched.pump_stall_ns")));
    m.set("sched.bus_wait_ns", median(&tr.per_req_sums("sched.bus_wait_ns")));
    m.set(
        "sched.makespan_over_busy",
        ratio(tr.total("sched.makespan_ns"), tr.total("sched.busy_ns")),
    );
    m.set("planlint.certify_us", median(&certify));
    m.set("planlint.certify_share", ratio(sum(&certify), sum(&ops)));
    m.set("trace.req_p50_ms", median(&traced.latencies_ms));
    w.layer_metrics(tr, m);
}

/// Writes the traced phase's spans to `perfbench/out/spans-<workload>.csv`.
fn write_spans(workload: &str, tr: &Trace) {
    let dir = std::path::Path::new("perfbench/out");
    let path = dir.join(format!("spans-{workload}.csv"));
    let written = std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&path, tr.spans_csv()));
    match written {
        Ok(()) => println!("spans written to {}", path.display()),
        Err(e) => eprintln!("spans not written to {}: {e}", path.display()),
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let result = match args.workload.as_str() {
        "bitmap" => run::<bitmap::Bitmap>(&args),
        "scan" => run::<scan::Scan>(&args),
        "synth" => run::<synth::Synth>(&args),
        "montecarlo" => run::<montecarlo::MonteCarloSweep>(&args),
        other => Err(format!("unknown workload {other:?}")),
    };
    let (correct, attempted, failed, m) = match result {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    let names: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    let metrics: Vec<(&str, f64, &str)> =
        names.iter().map(|&(name, unit)| (name, m.get(name).unwrap_or(0.0), unit)).collect();
    for (name, value) in &m.0 {
        let unit = END_TO_END
            .iter()
            .chain(&PER_LAYER)
            .chain(&PRINTED_ONLY)
            .find(|(n, _)| n == name)
            .map_or("", |u| u.1);
        println!("{name} {value} {unit}");
    }
    println!("{}", stats::result_json(correct, attempted, failed, &metrics));
    ExitCode::SUCCESS
}
