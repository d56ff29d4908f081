//! Command-line front end for the ELP2IM reproduction.
//!
//! ```text
//! elp2im op <and|or|xor|nand|nor|xnor|not> <bits> [bits]   device op
//! elp2im run "<prmt program>" [rN=bits ...]                raw primitives
//! elp2im compile <op> [--mode lowlatency|highthroughput|inplace] [--buffers N]
//! elp2im waveform [csv-path]                               Fig. 10 trace
//! elp2im help
//! ```

use elp2im::circuit::params::CircuitParams;
use elp2im::circuit::primitive::fig10_waveform;
use elp2im::core::batch::{BatchConfig, DeviceArray};
use elp2im::core::bitvec::BitVec;
use elp2im::core::compile::{compile, CompileMode, LogicOp, Operands};
use elp2im::core::engine::SubarrayEngine;
use elp2im::core::parse::parse_program;
use elp2im::core::primitive::RowRef;
use elp2im::dram::timing::Ddr3Timing;
use std::process::ExitCode;

const USAGE: &str = "usage:
  elp2im op <and|or|xor|nand|nor|xnor|not> <bits> [bits]
      run one bulk operation on the device, e.g. `elp2im op and 1100 1010`
  elp2im run \"<prmt program>\" [rN=bits ...]
      execute raw primitives, e.g.
      `elp2im run \"APP(r0)·or ; AP(r1)\" r0=1100 r1=1010`
  elp2im compile <op> [--mode lowlatency|highthroughput|inplace] [--buffers N]
      print the primitive sequence, latency, and wordline count for an op
  elp2im waveform [csv-path]
      render the Fig. 10 APP-AP waveform (optionally dump CSV)
  elp2im help";

fn parse_bits(s: &str) -> Result<BitVec, String> {
    if s.is_empty() || !s.chars().all(|c| c == '0' || c == '1') {
        return Err(format!("expected a 0/1 string, got {s:?}"));
    }
    Ok(s.chars().map(|c| c == '1').collect())
}

fn parse_op(s: &str) -> Result<LogicOp, String> {
    match s {
        "and" => Ok(LogicOp::And),
        "or" => Ok(LogicOp::Or),
        "xor" => Ok(LogicOp::Xor),
        "nand" => Ok(LogicOp::Nand),
        "nor" => Ok(LogicOp::Nor),
        "xnor" => Ok(LogicOp::Xnor),
        "not" => Ok(LogicOp::Not),
        other => Err(format!("unknown op {other:?}")),
    }
}

fn cmd_op(args: &[String]) -> Result<(), String> {
    let [op_s, rest @ ..] = args else { return Err("op: missing operation".into()) };
    let op = parse_op(op_s)?;
    let a = parse_bits(rest.first().ok_or("op: missing first operand")?)?;
    let mut dev = DeviceArray::new(BatchConfig {
        reserved_rows: 2,
        ..BatchConfig::subarray(a.len().div_ceil(8), 16)
    });
    let ha = dev.store(&a).map_err(|e| e.to_string())?;
    let (result, _) = if op.is_unary() {
        dev.not(ha).map_err(|e| e.to_string())?
    } else {
        let b = parse_bits(rest.get(1).ok_or("op: missing second operand")?)?;
        if b.len() != a.len() {
            return Err("operand lengths differ".into());
        }
        let hb = dev.store(&b).map_err(|e| e.to_string())?;
        dev.binary(op, ha, hb).map_err(|e| e.to_string())?
    };
    println!("{}", dev.load(result).map_err(|e| e.to_string())?);
    eprintln!("[{}]", dev.stats());
    Ok(())
}

fn cmd_run(args: &[String]) -> Result<(), String> {
    let [text, rest @ ..] = args else { return Err("run: missing program".into()) };
    let trace = rest.iter().any(|a| a == "--trace");
    let rows: Vec<&String> = rest.iter().filter(|a| *a != "--trace").collect();
    let prog = parse_program("cli", text).map_err(|e| e.to_string())?;
    let mut width = 8;
    let mut writes: Vec<(usize, BitVec)> = Vec::new();
    for spec in rows {
        let (name, bits) = spec.split_once('=').ok_or(format!("bad row spec {spec:?}"))?;
        let idx: usize = name
            .strip_prefix('r')
            .and_then(|n| n.parse().ok())
            .ok_or(format!("bad row name {name:?}"))?;
        let v = parse_bits(bits)?;
        width = width.max(v.len());
        writes.push((idx, v));
    }
    let mut e = SubarrayEngine::new(width, 16, 2);
    if trace {
        e.enable_trace();
    }
    let mut touched = Vec::new();
    for (idx, v) in writes {
        let mut padded = BitVec::zeros(width);
        for i in 0..v.len() {
            padded.set(i, v.get(i));
        }
        e.write_row(idx, padded).map_err(|err| err.to_string())?;
        touched.push(idx);
    }
    e.run_verified(&prog).map_err(|err| err.to_string())?;
    let t = Ddr3Timing::ddr3_1600();
    println!("program: {prog}");
    println!("latency: {}", prog.latency(&t));
    for idx in 0..16 {
        if let Ok(row) = e.row(RowRef::Data(idx)) {
            println!("r{idx} = {row}");
        }
    }
    if trace {
        println!("trace:");
        for entry in e.trace() {
            println!("  #{:<3} t={:>8}  {}", entry.index, entry.start, entry.primitive);
        }
    }
    eprintln!("[{}]", e.stats());
    Ok(())
}

fn cmd_compile(args: &[String]) -> Result<(), String> {
    let [op_s, rest @ ..] = args else { return Err("compile: missing operation".into()) };
    let op = parse_op(op_s)?;
    let mut mode = CompileMode::LowLatency;
    let mut buffers = 1usize;
    let mut it = rest.iter();
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--mode" => {
                mode = match it.next().map(String::as_str) {
                    Some("lowlatency") => CompileMode::LowLatency,
                    Some("highthroughput") => CompileMode::HighThroughput,
                    Some("inplace") => CompileMode::InPlace,
                    other => return Err(format!("bad --mode {other:?}")),
                };
            }
            "--buffers" => {
                buffers = it.next().and_then(|n| n.parse().ok()).ok_or("bad --buffers value")?;
            }
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    let rows = if mode == CompileMode::InPlace {
        Operands { a: 0, b: 2, dst: 2, scratch: None }
    } else {
        Operands::standard()
    };
    let prog = compile(op, mode, rows, buffers).map_err(|e| e.to_string())?;
    let t = Ddr3Timing::ddr3_1600();
    println!("{prog}");
    println!(
        "{} commands, {}, {} wordline events",
        prog.len(),
        prog.latency(&t),
        prog.wordline_events(&t)
    );
    Ok(())
}

fn cmd_waveform(args: &[String]) -> Result<(), String> {
    let params = CircuitParams::long_bitline();
    let wave = fig10_waveform(params.clone());
    println!("{}", wave.ascii_plot(params.vdd, 100, 16));
    if let Some(path) = args.first() {
        std::fs::write(path, wave.to_csv()).map_err(|e| e.to_string())?;
        println!("trace written to {path}");
    }
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("op") => cmd_op(&args[1..]),
        Some("run") => cmd_run(&args[1..]),
        Some("compile") => cmd_compile(&args[1..]),
        Some("waveform") => cmd_waveform(&args[1..]),
        Some("help") | None => {
            println!("{USAGE}");
            Ok(())
        }
        Some(other) => Err(format!("unknown command {other:?}\n{USAGE}")),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("error: {msg}");
            ExitCode::FAILURE
        }
    }
}
