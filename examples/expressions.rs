//! Compiling arbitrary Boolean expressions (§4.2.3): the median example,
//! common-subexpression reuse, and evaluation across a multi-bank device.
//!
//! Run with `cargo run --example expressions`.

use elp2im::core::batch::{BatchConfig, DeviceArray};
use elp2im::core::bitvec::BitVec;
use elp2im::core::compile::CompileMode;
use elp2im::core::expr::{compile_expr, Expr, ExprOperands};
use elp2im::core::optimizer::PhysRow;
use elp2im::core::validate::{validate, SubarrayShape};
use elp2im::dram::timing::Ddr3Timing;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let t = Ddr3Timing::ddr3_1600();

    // §4.2.3's example: the Boolean median AB + AC + BC.
    let median = Expr::majority(Expr::var(0), Expr::var(1), Expr::var(2));
    let rows = ExprOperands { inputs: vec![0, 1, 2], dst: 3, temps: (4..12).collect() };
    let prog = compile_expr(&median, &rows, CompileMode::LowLatency, 1)?;
    println!("median(A,B,C) compiles to {} primitives, {}:", prog.len(), prog.latency(&t));
    println!("  {prog}");

    // The §5.1 controller would validate the buffered sequence statically.
    let shape = SubarrayShape { data_rows: 16, dcc_rows: 2 };
    let live_in = [PhysRow::Data(0), PhysRow::Data(1), PhysRow::Data(2)];
    let violations = validate(&prog, shape, &live_in);
    println!("  static validation: {} violations", violations.len());

    // Common subexpressions compile once.
    let shared = Expr::var(0) ^ Expr::var(1);
    let reused = (shared.clone() & Expr::var(2)) | (shared ^ Expr::var(2));
    let rows2 = ExprOperands { inputs: vec![0, 1, 2], dst: 3, temps: (4..12).collect() };
    let prog2 = compile_expr(&reused, &rows2, CompileMode::LowLatency, 2)?;
    println!(
        "\n(A^B)&C | (A^B)^C: {} distinct ops -> {} primitives ({})",
        reused.distinct_ops(),
        prog2.len(),
        prog2.latency(&t)
    );

    // Evaluate the median across the eight banks of a DDR3 module.
    let mut array = DeviceArray::new(BatchConfig::default());
    let bits = array.row_bits() * array.banks();
    let a: BitVec = (0..bits).map(|i| i % 2 == 0).collect();
    let b: BitVec = (0..bits).map(|i| i % 3 == 0).collect();
    let c: BitVec = (0..bits).map(|i| i % 5 == 0).collect();
    let ha = array.store(&a)?;
    let hb = array.store(&b)?;
    let hc = array.store(&c)?;
    let (result, stats) = array.eval_expr(&median, &[ha, hb, hc])?;
    let out = array.load(result)?;
    println!(
        "\n{}-bank median over {bits} bits: {} ones, makespan {}, {} commands",
        array.banks(),
        out.count_ones(),
        stats.makespan,
        stats.total_commands()
    );

    // Check every bit against software evaluation.
    assert_eq!(out, median.eval_bitvec(&[a, b, c]));
    println!("verified against software evaluation");
    Ok(())
}
