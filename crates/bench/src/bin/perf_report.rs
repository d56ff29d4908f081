//! `perf_report` — the committed performance trajectory (BENCH_006).
//!
//! Re-measures the workspace's headline host-simulation workloads with
//! `std::time::Instant` (criterion is a dev-dependency and not available
//! to binaries) and emits an `elp2im-report-v1` document. Every ratio in
//! it divides two rows measured in the same run on the same host — each
//! row names its reference row, and its ratio is its time per element
//! over the reference's — so the document compares workloads, not
//! machines. The committed `BENCH_006.json` at the repository root is the
//! durable record of the word-packed hot path; CI re-emits a smoke
//! variant and validates both against the schema so the document cannot
//! drift.
//!
//! The binary also emits `BENCH_007.json`, the fault-injection soak of
//! [`elp2im_bench::soak`]: three protection policies over the same faulty
//! device, proving the selective fault-aware runtime meets the target
//! logical error rate at a lower modeled makespan than blanket parity ECC.
//!
//! `BENCH_008.json` is the topology-scaling record: the same bulk-AND
//! work scheduled by the hierarchical scheduler on 1, 2, and 4 channels
//! (× 2 ranks × 8 banks) under the JEDEC pump budget. The modeled
//! schedule is deterministic, so the committed document regenerates
//! bit-identically; `--check` enforces the near-linear scaling invariant
//! (4-channel makespan ≤ 0.35× single-channel).
//!
//! `BENCH_009.json` is the logic-synthesis record: per-function modeled
//! latency of the e-graph synthesizer's output vs the hand-written or
//! greedy reference lowering (see `elp2im_bench::synthbench`). Fully
//! deterministic; `--check` enforces that the auto-synthesized XOR
//! rediscovers the Fig. 8 seq6 cost (≤ 297 ns).
//!
//! Usage:
//!   perf_report [--smoke] [--out PATH]   measure and emit BENCH_006
//!   perf_report --soak [--smoke] [--out PATH]   run and emit BENCH_007
//!   perf_report --topology [--out PATH]  model and emit BENCH_008
//!   perf_report --synth [--out PATH]     synthesize and emit BENCH_009
//!   perf_report --check PATH             validate an emitted report
//!
//! `--smoke` runs one short sample per workload (seconds, not minutes);
//! the timings it records are not meaningful and the report says so.
//! `--check` dispatches on the document's `experiment` field.

use elp2im_apps::backend::PimBackend;
use elp2im_apps::bitmap::BitmapStudy;
use elp2im_apps::tablescan::TableScanStudy;
use elp2im_bench::report::{validate_report, Table};
use elp2im_core::batch::{BatchConfig, DeviceArray};
use elp2im_core::bitvec::BitVec;
use elp2im_core::compile::{compile, xor_sequence, CompileMode, LogicOp, Operands};
use elp2im_core::engine::SubarrayEngine;
use elp2im_dram::constraint::PumpBudget;
use elp2im_dram::geometry::{Geometry, Topology};
use elp2im_dram::json::Json;
use elp2im_dram::stats::RunStats;
use std::time::{Duration, Instant};

/// Median-of-samples timing, mirroring the vendored criterion harness:
/// warm up once, pick an iteration count targeting ~20 ms of measurement,
/// take the median of 5 samples. In smoke mode a single short sample.
fn measure(smoke: bool, mut routine: impl FnMut()) -> Duration {
    let t0 = Instant::now();
    routine();
    let once = t0.elapsed().max(Duration::from_nanos(1));
    if smoke {
        let iters = (Duration::from_millis(1).as_nanos() / once.as_nanos()).clamp(1, 10) as u32;
        let start = Instant::now();
        for _ in 0..iters {
            routine();
        }
        return start.elapsed() / iters;
    }
    let target = Duration::from_millis(20);
    let iters = (target.as_nanos() / once.as_nanos()).clamp(1, 10_000) as u32;
    let mut samples: Vec<Duration> = (0..5)
        .map(|_| {
            let start = Instant::now();
            for _ in 0..iters {
                routine();
            }
            start.elapsed() / iters
        })
        .collect();
    samples.sort_unstable();
    samples[samples.len() / 2]
}

/// The bench geometry shared by BENCH_006 and BENCH_008: an 8-bank rank
/// kept small enough that the host-functional simulation is cheap.
fn bench_geometry(banks: usize) -> Geometry {
    Geometry { banks, subarrays_per_bank: 8, rows_per_subarray: 64, row_bytes: 1024 }
}

fn array_with_banks(banks: usize) -> DeviceArray {
    DeviceArray::new(BatchConfig {
        topology: Topology::module(bench_geometry(banks)),
        budget: PumpBudget::unconstrained(),
        ..BatchConfig::default()
    })
}

/// The batch bulk-AND workload, exactly as `benches/batch.rs` times it:
/// a fresh array, two striped stores, one bank-parallel AND.
fn batch_bulk_and(banks: usize, a: &BitVec, b: &BitVec) {
    let mut array = array_with_banks(banks);
    let ha = array.store(a).unwrap();
    let hb = array.store(b).unwrap();
    let (hc, run) = array.binary(LogicOp::And, ha, hb).unwrap();
    std::hint::black_box((hc, run.stats().makespan));
}

struct Row {
    name: &'static str,
    elements: Option<u64>,
    measured: Duration,
    /// The same-run row this one is compared against, if any.
    reference: Option<&'static str>,
}

/// Row of the wide bulk AND that `planlint/certify_bulk_and/rank_rows`
/// certifies; `--check` bounds certify's share of it.
const RANK_ROWS_OP: &str = "batch_bulk_and/rank_rows";
const CERTIFY_ROW: &str = "planlint/certify_bulk_and/rank_rows";
/// The word-parallel AND every word-level row is normalized against.
const BITVEC_AND: &str = "bitvec/and_1mbit";

fn measured_rows(smoke: bool) -> (Vec<Row>, RunStats) {
    let mut rows = Vec::new();

    // Headline: the striped bulk AND over 65536 bits, per bank count,
    // each against the one-bank op (more banks must not cost more host
    // time).
    let bits = array_with_banks(1).row_bits() * 8;
    let a: BitVec = (0..bits).map(|i| i % 3 == 0).collect();
    let b: BitVec = (0..bits).map(|i| i % 7 == 0).collect();
    for banks in [1usize, 2, 4, 8] {
        let name: &'static str = match banks {
            1 => "batch_bulk_and/banks/1",
            2 => "batch_bulk_and/banks/2",
            4 => "batch_bulk_and/banks/4",
            _ => "batch_bulk_and/banks/8",
        };
        let measured = measure(smoke, || batch_bulk_and(banks, &a, &b));
        let reference = (banks > 1).then_some("batch_bulk_and/banks/1");
        rows.push(Row { name, elements: Some(bits as u64), measured, reference });
    }
    // Modeled-DRAM stats of the 8-bank op, attached as the report's raw
    // measurement block (host timing above; device timing here).
    let mut array = array_with_banks(8);
    let ha = array.store(&a).unwrap();
    let hb = array.store(&b).unwrap();
    let (_, run) = array.binary(LogicOp::And, ha, hb).unwrap();
    let device_stats = run.stats().clone();

    // Plan-level static verifier overhead at deployment-scale row width.
    // The analyzer's cost is per plan step (its scheduler replay never
    // moves row data), so the right denominator is an op over rank-level
    // rows — 64 KB, eight x8 chips opening an 8 KB row in lockstep — not
    // the deliberately small bench geometry above. All 64 subarrays get
    // one stripe. The certify row's reference is the op it certifies, so
    // its ratio is the analyzer's overhead (`--check` enforces < 5%).
    let wide = Geometry { row_bytes: 65536, ..bench_geometry(8) };
    let mut array = DeviceArray::new(BatchConfig {
        topology: Topology::module(wide),
        budget: PumpBudget::unconstrained(),
        ..BatchConfig::default()
    });
    let wide_bits = wide.row_bits() * wide.banks * wide.subarrays_per_bank;
    let wa: BitVec = (0..wide_bits).map(|i| i % 3 == 0).collect();
    let wb: BitVec = (0..wide_bits).map(|i| i % 7 == 0).collect();
    let ha = array.store(&wa).unwrap();
    let hb = array.store(&wb).unwrap();
    let op = measure(smoke, || {
        let (hc, run) = array.binary(LogicOp::And, ha, hb).unwrap();
        std::hint::black_box(run.stats().makespan);
        array.release(hc).unwrap();
    });
    let plan = array.plan(LogicOp::And, ha, Some(hb)).unwrap();
    let measured = measure(smoke, || {
        std::hint::black_box(elp2im_core::planlint::certify(&plan).is_accepted());
    });
    rows.push(Row {
        name: RANK_ROWS_OP,
        elements: Some(wide_bits as u64),
        measured: op,
        reference: Some("batch_bulk_and/banks/8"),
    });
    rows.push(Row {
        name: CERTIFY_ROW,
        elements: Some(wide_bits as u64),
        measured,
        reference: Some(RANK_ROWS_OP),
    });

    // Engine microbenchmarks (from `benches/engine.rs`), per bit against
    // the plain word-parallel AND of `bitvec/and_1mbit`.
    for width in [1024usize, 8192] {
        let (and_name, xor_name): (&'static str, &'static str) = if width == 1024 {
            ("engine_bulk_ops/and_low_latency/1024", "engine_bulk_ops/xor_seq6/1024")
        } else {
            ("engine_bulk_ops/and_low_latency/8192", "engine_bulk_ops/xor_seq6/8192")
        };
        let mut e = SubarrayEngine::new(width, 8, 2);
        e.write_row(0, BitVec::ones(width)).unwrap();
        e.write_row(1, BitVec::zeros(width)).unwrap();
        e.write_row(2, BitVec::zeros(width)).unwrap();
        let prog = compile(LogicOp::And, CompileMode::LowLatency, Operands::standard(), 2).unwrap();
        let measured = measure(smoke, || e.run(prog.primitives()).unwrap());
        rows.push(Row {
            name: and_name,
            elements: Some(width as u64),
            measured,
            reference: Some(BITVEC_AND),
        });

        let mut e = SubarrayEngine::new(width, 8, 2);
        e.write_row(0, BitVec::ones(width)).unwrap();
        e.write_row(1, BitVec::zeros(width)).unwrap();
        e.write_row(2, BitVec::zeros(width)).unwrap();
        let prog = xor_sequence(6, Operands::standard(), 2).unwrap();
        let measured = measure(smoke, || e.run(prog.primitives()).unwrap());
        rows.push(Row {
            name: xor_name,
            elements: Some(width as u64),
            measured,
            reference: Some(and_name),
        });
    }

    // BitVec kernels (from `benches/engine.rs`); `bitvec/and_1mbit` is
    // the same-run reference for the word-level rows.
    let ones = BitVec::ones(1 << 20);
    let zeros = BitVec::zeros(1 << 20);
    let measured = measure(smoke, || {
        std::hint::black_box(ones.and(&zeros));
    });
    rows.push(Row { name: BITVEC_AND, elements: Some(1 << 20), measured, reference: None });
    let measured = measure(smoke, || {
        std::hint::black_box(ones.count_ones());
    });
    rows.push(Row {
        name: "bitvec/popcount_1mbit",
        elements: Some(1 << 20),
        measured,
        reference: Some(BITVEC_AND),
    });

    // Application studies (from `benches/apps.rs`) — regression guards:
    // these ride on the same engine but are model-bound, so they should
    // hold steady rather than speed up.
    let study = BitmapStudy::paper_setup(4);
    let measured = measure(smoke, || {
        let mut acc = 0.0;
        for r in [4usize, 6, 8, 10] {
            acc += study.system_improvement(&PimBackend::ambit_with_reserved(r));
        }
        acc += study.system_improvement(&PimBackend::elp2im_high_throughput());
        std::hint::black_box(acc);
    });
    rows.push(Row {
        name: "apps/bitmap_study_full_sweep",
        elements: None,
        measured,
        reference: None,
    });
    let study = TableScanStudy::paper_setup();
    let e = PimBackend::elp2im_high_throughput();
    let measured = measure(smoke, || {
        std::hint::black_box(
            TableScanStudy::widths().iter().map(|&w| study.system_improvement(&e, w)).sum::<f64>(),
        );
    });
    rows.push(Row {
        name: "apps/tablescan_study_all_widths",
        elements: None,
        measured,
        reference: None,
    });

    (rows, device_stats)
}

fn build_table(smoke: bool) -> Table {
    let (rows, device_stats) = measured_rows(smoke);
    let mut t = Table::new(
        "BENCH_006: word-packed hot-path throughput",
        &["workload", "elems/iter", "measured µs/iter", "reference", "vs reference", "Melem/s"],
    );
    let per_elem = |r: &Row| r.measured.as_secs_f64() / r.elements.unwrap_or(1) as f64;
    for r in &rows {
        let us = r.measured.as_nanos() as f64 / 1e3;
        let melems = match r.elements {
            Some(n) => format!("{:.1}", n as f64 / r.measured.as_secs_f64() / 1e6),
            None => "-".into(),
        };
        let reference = r
            .reference
            .map(|name| rows.iter().find(|x| x.name == name).expect("reference rows are measured"));
        t.push(vec![
            r.name.to_string(),
            r.elements.map_or_else(|| "-".into(), |n| n.to_string()),
            format!("{us:.3}"),
            r.reference.unwrap_or("-").to_string(),
            reference.map_or_else(|| "-".into(), |x| format!("{:.4}x", per_elem(r) / per_elem(x))),
            melems,
        ]);
    }
    t.attach_stats(&device_stats);
    t.note("measured column: median of 5 samples, ~20 ms per sample, std::time::Instant");
    t.note(
        "vs reference: this row's time per element over the reference row's, both measured \
         in this run on this host (below 1x = cheaper per element)",
    );
    t.note("stats block: modeled DRAM schedule of the 8-bank bulk AND (not host time)");
    t.note(
        "planlint row: certify of a 64-stripe bulk AND over rank-level 64 KB rows, against \
         that op (batch_bulk_and/rank_rows); --check requires certify < 5% of the op",
    );
    if smoke {
        t.note("SMOKE RUN: single short sample per workload; timings are not meaningful");
    }
    t
}

/// BENCH_008: the hierarchical scheduler's topology scaling. Equal total
/// work (every unit of the widest topology gets one stripe) on 1, 2, and
/// 4 channels × 2 ranks × 8 banks under the JEDEC pump budget. Purely
/// modeled — the schedule is deterministic, so the emitted document is
/// reproducible bit for bit.
fn build_topology_table() -> Table {
    const RANKS: usize = 2;
    const CHANNELS: [usize; 3] = [1, 2, 4];
    let geometry = bench_geometry(8);
    let mut t = Table::new(
        "BENCH_008: hierarchical scheduler topology scaling",
        &[
            "channels",
            "ranks/ch",
            "units",
            "stripes/unit",
            "makespan ms",
            "pump stall ms",
            "busy ms",
            "vs 1ch",
        ],
    );
    // All 64 units of the 4-channel topology busy → equal work everywhere.
    let total_stripes = CHANNELS[2] * RANKS * geometry.banks;
    let bits = geometry.row_bits() * total_stripes;
    let a: BitVec = (0..bits).map(|i| i % 3 == 0).collect();
    let b: BitVec = (0..bits).map(|i| i % 7 == 0).collect();
    let mut base_ms = None;
    let mut widest_stats = None;
    for channels in CHANNELS {
        let mut array = DeviceArray::new(BatchConfig {
            topology: Topology::new(channels, RANKS, geometry),
            budget: PumpBudget::jedec_ddr3_1600(),
            ..BatchConfig::default()
        });
        let ha = array.store(&a).unwrap();
        let hb = array.store(&b).unwrap();
        let (_, run) = array.binary(LogicOp::And, ha, hb).unwrap();
        let s = run.stats();
        let ms = s.makespan.as_f64() / 1e6;
        let base = *base_ms.get_or_insert(ms);
        t.push(vec![
            channels.to_string(),
            RANKS.to_string(),
            run.banks_used.to_string(),
            (total_stripes / run.banks_used).to_string(),
            format!("{ms:.6}"),
            format!("{:.6}", s.pump_stall.as_f64() / 1e6),
            format!("{:.6}", s.busy_time.as_f64() / 1e6),
            format!("{:.3}x", base / ms),
        ]);
        if channels == CHANNELS[2] {
            widest_stats = Some(s.clone());
        }
    }
    t.attach_stats(&widest_stats.expect("4-channel row always runs"));
    t.note("modeled DRAM schedule under the JEDEC DDR3-1600 pump budget; no host timing");
    t.note("equal total work per row: 64 bulk-AND row stripes placed channel-major");
    t.note("stats block: modeled schedule of the 4-channel configuration");
    t.note("--check invariant: 4-channel makespan <= 0.35x single-channel");
    t
}

fn check(path: &str) -> Result<(), String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
    let doc = Json::parse(&text).map_err(|e| format!("parse {path}: {e:?}"))?;
    validate_report(&doc)?;
    let experiment = doc.get("experiment").and_then(Json::as_str).unwrap_or_default();
    match experiment {
        "bench_006" => check_bench_006(&doc),
        "bench_007" => check_bench_007(&doc),
        "bench_008" => check_bench_008(&doc),
        "bench_009" => check_bench_009(&doc),
        other => {
            Err(format!("experiment must be \"bench_006\" through \"bench_009\", got {other:?}"))
        }
    }
}

fn check_bench_006(doc: &Json) -> Result<(), String> {
    let rows: Vec<&[Json]> = doc
        .get("rows")
        .and_then(Json::as_array)
        .expect("validated")
        .iter()
        .filter_map(Json::as_array)
        .collect();
    let find = |name: &str| rows.iter().find(|c| c.first().and_then(Json::as_str) == Some(name));
    if find("batch_bulk_and/banks/8").is_none() {
        return Err("missing the batch_bulk_and/banks/8 headline row".into());
    }
    // Every ratio is same-run: a named reference must be a row of this
    // document.
    for cells in &rows {
        let reference = cells.get(3).and_then(Json::as_str).unwrap_or("-");
        if reference != "-" && find(reference).is_none() {
            let name = cells.first().and_then(Json::as_str).unwrap_or("?");
            return Err(format!("row {name}: reference row {reference} is not in the report"));
        }
    }
    // Analyzer-overhead invariant: the static plan verifier must cost
    // less than 5% of the batch op it certifies. Smoke runs keep the rows
    // but skip the threshold — their single-sample timings are not
    // meaningful.
    let measured_us = |name: &str| -> Result<f64, String> {
        find(name)
            .ok_or_else(|| format!("missing the {name} row"))?
            .get(2)
            .and_then(Json::as_str)
            .and_then(|s| s.parse::<f64>().ok())
            .ok_or_else(|| format!("{name}: unparsable measured cell"))
    };
    let certify_us = measured_us(CERTIFY_ROW)?;
    let op_us = measured_us(RANK_ROWS_OP)?;
    let smoke = doc
        .get("notes")
        .and_then(Json::as_array)
        .is_some_and(|ns| ns.iter().any(|n| n.as_str().is_some_and(|s| s.contains("SMOKE RUN"))));
    let overhead_pct = certify_us / op_us * 100.0;
    if !smoke && overhead_pct >= 5.0 {
        return Err(format!(
            "planlint certify {certify_us:.3} us is {overhead_pct:.2}% of the {op_us:.3} us \
             batch op (must stay < 5%)"
        ));
    }
    Ok(())
}

/// BENCH_007 invariants: both protected scenarios meet the target error
/// rate, and the selective policy's makespan beats blanket parity ECC.
fn check_bench_007(doc: &Json) -> Result<(), String> {
    let rows = doc.get("rows").and_then(Json::as_array).expect("validated");
    let cells = |scenario: &str| -> Result<Vec<String>, String> {
        rows.iter()
            .filter_map(Json::as_array)
            .find(|c| c.first().and_then(Json::as_str) == Some(scenario))
            .map(|c| c.iter().map(|v| v.as_str().unwrap_or_default().to_string()).collect())
            .ok_or_else(|| format!("missing the {scenario} row"))
    };
    let ecc = cells("ecc_everything")?;
    let sel = cells("selective_policy")?;
    // Columns: scenario, ops, logical errors, error rate, meets target,
    // makespan ms, retries, parity xors.
    for (name, row) in [("ecc_everything", &ecc), ("selective_policy", &sel)] {
        if row.get(4).map(String::as_str) != Some("yes") {
            return Err(format!("{name} does not meet the target error rate"));
        }
    }
    let ms = |row: &[String], name: &str| -> Result<f64, String> {
        row.get(5)
            .and_then(|s| s.parse::<f64>().ok())
            .ok_or_else(|| format!("{name}: unparsable makespan cell"))
    };
    let ecc_ms = ms(&ecc, "ecc_everything")?;
    let sel_ms = ms(&sel, "selective_policy")?;
    if sel_ms >= ecc_ms {
        return Err(format!("selective makespan {sel_ms} ms must beat ecc-everything {ecc_ms} ms"));
    }
    Ok(())
}

/// BENCH_008 invariant: the 4-channel makespan is at most 0.35× the
/// single-channel makespan — near-linear scaling with a margin for the
/// shared per-rank pump edges.
fn check_bench_008(doc: &Json) -> Result<(), String> {
    let rows = doc.get("rows").and_then(Json::as_array).expect("validated");
    let makespan = |channels: &str| -> Result<f64, String> {
        rows.iter()
            .filter_map(Json::as_array)
            .find(|c| c.first().and_then(Json::as_str) == Some(channels))
            .and_then(|c| c.get(4)?.as_str()?.parse::<f64>().ok())
            .ok_or_else(|| format!("missing or unparsable makespan for {channels} channel(s)"))
    };
    let one = makespan("1")?;
    let four = makespan("4")?;
    if four > one * 0.35 {
        return Err(format!(
            "4-channel makespan {four} ms must be <= 0.35x the single-channel {one} ms"
        ));
    }
    Ok(())
}

/// BENCH_009 invariants: the auto-synthesized XOR must match or beat the
/// hand-written Fig. 8 seq6 cost (297 ns), and no row may regress past
/// its reference lowering.
fn check_bench_009(doc: &Json) -> Result<(), String> {
    let rows = doc.get("rows").and_then(Json::as_array).expect("validated");
    let mut saw_xor = false;
    for row in rows.iter().filter_map(Json::as_array) {
        let name = row.first().and_then(Json::as_str).unwrap_or_default();
        let cell = |i: usize, what: &str| -> Result<f64, String> {
            row.get(i)
                .and_then(Json::as_str)
                .and_then(|s| s.parse::<f64>().ok())
                .ok_or_else(|| format!("{name}: unparsable {what} cell"))
        };
        let reference = cell(2, "reference ns")?;
        let synth = cell(3, "synth ns")?;
        if synth > reference + 1e-9 {
            return Err(format!(
                "{name}: synthesis {synth} ns regresses past reference {reference} ns"
            ));
        }
        if name.starts_with("xor2") {
            saw_xor = true;
            if synth > 297.0 {
                return Err(format!(
                    "auto-synthesized XOR {synth} ns must be <= 297 ns (Fig. 8 seq6)"
                ));
            }
        }
    }
    if !saw_xor {
        return Err("missing the xor2 headline row".into());
    }
    Ok(())
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if let Some(i) = args.iter().position(|a| a == "--check") {
        let Some(path) = args.get(i + 1) else {
            eprintln!("--check requires a path");
            std::process::exit(2);
        };
        match check(path) {
            Ok(()) => println!("{path}: valid elp2im-report-v1"),
            Err(e) => {
                eprintln!("{path}: INVALID: {e}");
                std::process::exit(1);
            }
        }
        return;
    }
    let smoke = args.iter().any(|a| a == "--smoke");
    let soak = args.iter().any(|a| a == "--soak");
    let topology = args.iter().any(|a| a == "--topology");
    let synth = args.iter().any(|a| a == "--synth");
    let out = args.iter().position(|a| a == "--out").map(|i| {
        args.get(i + 1).cloned().unwrap_or_else(|| {
            eprintln!("--out requires a path");
            std::process::exit(2);
        })
    });
    let table = if synth {
        elp2im_bench::synthbench::build_synth_table()
    } else if topology {
        build_topology_table()
    } else if soak {
        elp2im_bench::soak::build_soak_table(smoke)
    } else {
        build_table(smoke)
    };
    print!("{table}");
    if let Some(path) = out {
        let json = table.to_json().pretty();
        std::fs::write(&path, json + "\n").unwrap_or_else(|e| {
            eprintln!("write {path}: {e}");
            std::process::exit(1);
        });
        println!("wrote {path}");
    }
}
