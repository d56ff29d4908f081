//! The logic-operation compiler: Boolean operations → primitive programs.
//!
//! Implements the three execution strategies of Fig. 5 and all six XOR
//! sequences of Fig. 8:
//!
//! * [`CompileMode::InPlace`] — `dst := dst OP src` via APP-AP (§3.3),
//!   the shortest form, limited to AND/OR with a shared destination.
//! * [`CompileMode::HighThroughput`] — AAP-APP-AP style: only
//!   single-wordline commands, the power-friendly mode for
//!   power-constrained banks (§3.3, used by the Bitmap/TableScan studies).
//! * [`CompileMode::LowLatency`] — oAAP/oAPP with the reserved
//!   dual-contact row(s): the reduced-latency mode (used by the CNN
//!   accelerator studies).
//!
//! Every generated program is property-tested against software Boolean
//! logic on the functional engine.

use crate::analysis::AnalysisCache;
use crate::error::CoreError;
use crate::isa::Program;
use crate::optimizer::PhysRow;
use crate::primitive::{Primitive, RegulateMode, RowRef};
use crate::validate::SubarrayShape;
use elp2im_dram::timing::Ddr3Timing;
use elp2im_dram::units::Ns;
use std::fmt;

/// A bulk Boolean operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LogicOp {
    /// `dst := !a`
    Not,
    /// `dst := a & b`
    And,
    /// `dst := a | b`
    Or,
    /// `dst := !(a & b)`
    Nand,
    /// `dst := !(a | b)`
    Nor,
    /// `dst := a ^ b`
    Xor,
    /// `dst := !(a ^ b)`
    Xnor,
}

impl LogicOp {
    /// All seven operations, in the order Fig. 12 charts them.
    pub const ALL: [LogicOp; 7] = [
        LogicOp::Not,
        LogicOp::And,
        LogicOp::Or,
        LogicOp::Nand,
        LogicOp::Nor,
        LogicOp::Xor,
        LogicOp::Xnor,
    ];

    /// Software reference semantics (for NOT, `b` is ignored).
    pub fn eval(self, a: bool, b: bool) -> bool {
        match self {
            LogicOp::Not => !a,
            LogicOp::And => a && b,
            LogicOp::Or => a || b,
            LogicOp::Nand => !(a && b),
            LogicOp::Nor => !(a || b),
            LogicOp::Xor => a ^ b,
            LogicOp::Xnor => !(a ^ b),
        }
    }

    /// Whether the operation takes a single operand.
    pub fn is_unary(self) -> bool {
        matches!(self, LogicOp::Not)
    }

    /// Lower-case name.
    pub fn name(self) -> &'static str {
        match self {
            LogicOp::Not => "not",
            LogicOp::And => "and",
            LogicOp::Or => "or",
            LogicOp::Nand => "nand",
            LogicOp::Nor => "nor",
            LogicOp::Xor => "xor",
            LogicOp::Xnor => "xnor",
        }
    }
}

impl fmt::Display for LogicOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Execution strategy (Fig. 5).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum CompileMode {
    /// `dst := dst OP src`, APP-AP. Fastest; AND/OR only.
    InPlace,
    /// AAP-APP-AP: single-wordline commands only, minimizing charge-pump
    /// draw — the mode to use under the power constraint.
    HighThroughput,
    /// oAAP/oAPP with reserved rows: minimum latency.
    #[default]
    LowLatency,
}

/// Row assignment for a compiled operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Operands {
    /// First operand (data row index).
    pub a: usize,
    /// Second operand (ignored by NOT).
    pub b: usize,
    /// Destination row.
    pub dst: usize,
    /// Optional scratch data row (needed by XOR sequence 1).
    pub scratch: Option<usize>,
}

impl Operands {
    /// The conventional layout used by the basic-operation benchmarks:
    /// `a = r0`, `b = r1`, `dst = r2`, `scratch = r3`.
    pub fn standard() -> Self {
        Operands { a: 0, b: 1, dst: 2, scratch: Some(3) }
    }
}

const R0T: RowRef = RowRef::DccTrue(0);
const R0B: RowRef = RowRef::DccBar(0);
const R1T: RowRef = RowRef::DccTrue(1);
const R1B: RowRef = RowRef::DccBar(1);

fn mode_of(op: LogicOp) -> RegulateMode {
    match op {
        LogicOp::And | LogicOp::Nand => RegulateMode::And,
        LogicOp::Or | LogicOp::Nor => RegulateMode::Or,
        _ => unreachable!("mode_of only serves AND/OR families"),
    }
}

/// Whether `row` is one a compiled operation may assume holds data: its
/// operands (plus the destination for in-place mode, whose prior content
/// *is* operand `b`). Everything else — scratch, reserved rows, the
/// destination — must be written before it is read, and the self-check
/// proves it.
fn declared_live_in(unary: bool, in_place: bool, rows: Operands, row: PhysRow) -> bool {
    let second = if in_place { rows.dst } else { rows.b };
    row == PhysRow::Data(rows.a) || (!unary && row == PhysRow::Data(second))
}

/// Runs the static analyzer over a freshly compiled program with only the
/// declared operands live-in: every compiler output must be legal and
/// def-use sound for *all* operand values before it is handed out. The
/// verdict comes from the process-wide canonical verdict memo
/// ([`AnalysisCache`]), so each program shape is analyzed once per
/// process, not once per compilation.
fn self_check(
    prog: &Program,
    rows: Operands,
    reserved_rows: usize,
    live_in: impl Fn(PhysRow) -> bool,
) -> Result<(), CoreError> {
    let data_rows = 1 + [Some(rows.a), Some(rows.b), Some(rows.dst), rows.scratch]
        .into_iter()
        .flatten()
        .fold(0, usize::max);
    let shape = SubarrayShape { data_rows, dcc_rows: reserved_rows };
    match AnalysisCache::global().first_violation(prog, shape, live_in) {
        Some(v) => Err(v.into()),
        None => Ok(()),
    }
}

/// Compiled program names, `"{op}-{mode}"` in lower case, indexed by
/// `[op as usize][mode as usize]` (declaration order of [`LogicOp`] and
/// [`CompileMode`]).
const PROGRAM_NAMES: [[&str; 3]; 7] = [
    ["not-inplace", "not-highthroughput", "not-lowlatency"],
    ["and-inplace", "and-highthroughput", "and-lowlatency"],
    ["or-inplace", "or-highthroughput", "or-lowlatency"],
    ["nand-inplace", "nand-highthroughput", "nand-lowlatency"],
    ["nor-inplace", "nor-highthroughput", "nor-lowlatency"],
    ["xor-inplace", "xor-highthroughput", "xor-lowlatency"],
    ["xnor-inplace", "xnor-highthroughput", "xnor-lowlatency"],
];

/// Compiles `op` over `rows` under `mode` with `reserved_rows` dual-contact
/// rows available.
///
/// # Errors
///
/// * [`CoreError::UnsupportedInPlace`] / [`CoreError::InPlaceOperandMismatch`]
///   for invalid in-place requests.
/// * [`CoreError::NotEnoughReservedRows`] when the strategy needs the DCC
///   row(s) and the configuration lacks them.
/// * [`CoreError::StaticViolation`] if the generated program fails its own
///   static analysis (a compiler bug surfacing — no current sequence does).
pub fn compile(
    op: LogicOp,
    mode: CompileMode,
    rows: Operands,
    reserved_rows: usize,
) -> Result<Program, CoreError> {
    let need_reserved = |n: usize| -> Result<(), CoreError> {
        if reserved_rows < n {
            Err(CoreError::NotEnoughReservedRows { needed: n, available: reserved_rows })
        } else {
            Ok(())
        }
    };
    let a = RowRef::Data(rows.a);
    let b = RowRef::Data(rows.b);
    let dst = RowRef::Data(rows.dst);
    let name = PROGRAM_NAMES[op as usize][mode as usize];

    let prog = match mode {
        CompileMode::InPlace => match op {
            LogicOp::And | LogicOp::Or => {
                if rows.b != rows.dst {
                    return Err(CoreError::InPlaceOperandMismatch { b: rows.b, dst: rows.dst });
                }
                Ok(Program::new(
                    name,
                    vec![Primitive::App { row: a, mode: mode_of(op) }, Primitive::Ap { row: dst }],
                ))
            }
            other => Err(CoreError::UnsupportedInPlace { op: other.name() }),
        },
        CompileMode::HighThroughput => match op {
            LogicOp::Not => {
                need_reserved(1)?;
                Ok(Program::new(
                    name,
                    vec![Primitive::Aap { src: a, dst: R0T }, Primitive::Aap { src: R0B, dst }],
                ))
            }
            LogicOp::And | LogicOp::Or => Ok(Program::new(
                name,
                vec![
                    Primitive::Aap { src: a, dst },
                    Primitive::App { row: b, mode: mode_of(op) },
                    Primitive::Ap { row: dst },
                ],
            )),
            LogicOp::Nand | LogicOp::Nor => {
                need_reserved(1)?;
                Ok(Program::new(
                    name,
                    vec![
                        Primitive::Aap { src: a, dst: R0T },
                        Primitive::App { row: b, mode: mode_of(op) },
                        Primitive::Ap { row: R0T },
                        Primitive::Aap { src: R0B, dst },
                    ],
                ))
            }
            LogicOp::Xor => {
                need_reserved(1)?;
                Ok(Program::new(
                    name,
                    vec![
                        Primitive::Aap { src: a, dst: R0T },
                        Primitive::App { row: b, mode: RegulateMode::And },
                        Primitive::Aap { src: R0B, dst },
                        Primitive::Aap { src: b, dst: R0T },
                        Primitive::App { row: a, mode: RegulateMode::And },
                        Primitive::App { row: R0B, mode: RegulateMode::Or },
                        Primitive::Ap { row: dst },
                    ],
                ))
            }
            LogicOp::Xnor => {
                need_reserved(1)?;
                Ok(Program::new(
                    name,
                    vec![
                        Primitive::Aap { src: a, dst: R0T },
                        Primitive::App { row: b, mode: RegulateMode::And },
                        Primitive::Aap { src: R0T, dst },
                        Primitive::Aap { src: b, dst: R0T },
                        Primitive::App { row: a, mode: RegulateMode::Or },
                        Primitive::Ap { row: R0T },
                        Primitive::TApp { row: R0B, mode: RegulateMode::Or },
                        Primitive::Ap { row: dst },
                    ],
                ))
            }
        },
        CompileMode::LowLatency => match op {
            LogicOp::Not => {
                need_reserved(1)?;
                Ok(Program::new(
                    name,
                    vec![Primitive::OAap { src: a, dst: R0T }, Primitive::OAap { src: R0B, dst }],
                ))
            }
            LogicOp::And | LogicOp::Or => {
                need_reserved(1)?;
                Ok(Program::new(
                    name,
                    vec![
                        Primitive::OAap { src: a, dst: R0T },
                        Primitive::OApp { row: b, mode: mode_of(op) },
                        Primitive::OAap { src: R0T, dst },
                    ],
                ))
            }
            LogicOp::Nand | LogicOp::Nor => {
                need_reserved(1)?;
                Ok(Program::new(
                    name,
                    vec![
                        Primitive::OAap { src: a, dst: R0T },
                        Primitive::OApp { row: b, mode: mode_of(op) },
                        Primitive::Ap { row: R0T },
                        Primitive::OAap { src: R0B, dst },
                    ],
                ))
            }
            LogicOp::Xor => {
                if reserved_rows >= 2 {
                    xor_sequence(6, rows, reserved_rows)
                } else {
                    xor_sequence(5, rows, reserved_rows)
                }
            }
            LogicOp::Xnor => {
                need_reserved(1)?;
                if reserved_rows >= 2 {
                    Ok(Program::new(
                        "xnor-2buf",
                        vec![
                            Primitive::OAap { src: a, dst: R0T },
                            Primitive::OAppCopy { src: b, dst: R1T, mode: RegulateMode::And },
                            Primitive::OAap { src: R0T, dst },
                            Primitive::OApp { row: a, mode: RegulateMode::Or },
                            Primitive::Ap { row: R1T },
                            Primitive::OtApp { row: R1B, mode: RegulateMode::Or },
                            Primitive::Ap { row: dst },
                        ],
                    ))
                } else {
                    Ok(Program::new(
                        "xnor-1buf",
                        vec![
                            Primitive::OAap { src: a, dst: R0T },
                            Primitive::OApp { row: b, mode: RegulateMode::And },
                            Primitive::OAap { src: R0T, dst },
                            Primitive::OAap { src: b, dst: R0T },
                            Primitive::OApp { row: a, mode: RegulateMode::Or },
                            Primitive::Ap { row: R0T },
                            Primitive::OtApp { row: R0B, mode: RegulateMode::Or },
                            Primitive::Ap { row: dst },
                        ],
                    ))
                }
            }
        },
    }?;
    let (unary, in_place) = (op.is_unary(), mode == CompileMode::InPlace);
    self_check(&prog, rows, reserved_rows, |row| declared_live_in(unary, in_place, rows, row))?;
    Ok(prog)
}

/// The Table-1 latency of one compiled `op` gate under `mode` with
/// `reserved_rows` dual-contact rows — the per-gate entry of the synthesis
/// extraction cost model ([`crate::synth`]). `None` when the op cannot
/// compile under that strategy (e.g. XOR in-place).
///
/// The cost is measured on the actual compiled sequence, so it tracks the
/// compiler (seq5 vs seq6 XOR, fused NAND/NOR/XNOR) instead of a separate
/// constant table that could drift.
pub fn gate_latency(
    op: LogicOp,
    mode: CompileMode,
    reserved_rows: usize,
    t: &Ddr3Timing,
) -> Option<Ns> {
    let rows = match mode {
        // In-place requires b == dst; use a layout that satisfies it.
        CompileMode::InPlace => Operands { a: 0, b: 2, dst: 2, scratch: None },
        _ => Operands::standard(),
    };
    compile(op, mode, rows, reserved_rows).ok().map(|p| p.latency(t))
}

/// Builds XOR sequence `n` of Fig. 8 (`n` in `1..=6`).
///
/// Latency totals under DDR3-1600 (paper's Fig. 8(a)): seq1 519 ns,
/// seq2 409 ns, seq3/4 388 ns, seq5 346 ns, seq6 ≈297 ns (we measure
/// 293 ns; see DESIGN.md §3.3).
///
/// # Errors
///
/// * [`CoreError::ScratchRowRequired`] — sequence 1 without a scratch row.
/// * [`CoreError::NotEnoughReservedRows`] — sequence 6 with fewer than two
///   reserved rows, or any sequence with none.
/// * [`CoreError::StaticViolation`] — the sequence failed its own static
///   analysis (a compiler bug surfacing; no current sequence does).
///
/// # Panics
///
/// Panics if `n` is outside `1..=6`.
pub fn xor_sequence(n: u8, rows: Operands, reserved_rows: usize) -> Result<Program, CoreError> {
    assert!((1..=6).contains(&n), "XOR sequences are numbered 1..=6, got {n}");
    if reserved_rows < 1 {
        return Err(CoreError::NotEnoughReservedRows { needed: 1, available: reserved_rows });
    }
    let a = RowRef::Data(rows.a);
    let b = RowRef::Data(rows.b);
    let dst = RowRef::Data(rows.dst);
    let name = format!("xor-seq{n}");
    let prog: Result<Program, CoreError> = match n {
        1 => {
            let scratch = RowRef::Data(rows.scratch.ok_or(CoreError::ScratchRowRequired)?);
            Ok(Program::new(
                name,
                vec![
                    // dst := a·!b
                    Primitive::OAap { src: b, dst: R0T },
                    Primitive::App { row: a, mode: RegulateMode::And },
                    Primitive::OAap { src: R0B, dst },
                    // scratch := !a·b
                    Primitive::OAap { src: a, dst: R0T },
                    Primitive::App { row: b, mode: RegulateMode::And },
                    Primitive::OAap { src: R0B, dst: scratch },
                    // dst := dst + scratch
                    Primitive::OAap { src: dst, dst: R0T },
                    Primitive::App { row: scratch, mode: RegulateMode::Or },
                    Primitive::OAap { src: R0T, dst },
                ],
            ))
        }
        2 => Ok(Program::new(
            name,
            vec![
                Primitive::OAap { src: b, dst: R0T },
                Primitive::App { row: a, mode: RegulateMode::And },
                Primitive::OAap { src: R0B, dst },
                Primitive::OAap { src: a, dst: R0T },
                Primitive::App { row: b, mode: RegulateMode::And },
                // Merged AP(R0)+APP(R0): compute !a·b and regulate in one go.
                Primitive::App { row: R0B, mode: RegulateMode::Or },
                Primitive::Ap { row: dst },
            ],
        )),
        3 => Ok(Program::new(
            name,
            vec![
                Primitive::OAap { src: b, dst: R0T },
                Primitive::App { row: a, mode: RegulateMode::And },
                Primitive::OAap { src: R0B, dst },
                Primitive::OAap { src: a, dst: R0T },
                Primitive::App { row: b, mode: RegulateMode::And },
                // !a·b is intermediate: trim the restore (R0 destroyed).
                Primitive::TApp { row: R0B, mode: RegulateMode::Or },
                Primitive::Ap { row: dst },
            ],
        )),
        4 => Ok(Program::new(
            name,
            vec![
                Primitive::OAap { src: a, dst: R0T },
                Primitive::App { row: b, mode: RegulateMode::And },
                Primitive::OAap { src: R0B, dst },
                Primitive::OAap { src: b, dst: R0T },
                Primitive::App { row: a, mode: RegulateMode::And },
                Primitive::TApp { row: R0B, mode: RegulateMode::Or },
                Primitive::Ap { row: dst },
            ],
        )),
        5 => Ok(Program::new(
            name,
            vec![
                Primitive::OAap { src: a, dst: R0T },
                Primitive::OApp { row: b, mode: RegulateMode::And },
                Primitive::OAap { src: R0B, dst },
                Primitive::OAap { src: b, dst: R0T },
                Primitive::OApp { row: a, mode: RegulateMode::And },
                Primitive::OtApp { row: R0B, mode: RegulateMode::Or },
                Primitive::Ap { row: dst },
            ],
        )),
        _ => {
            if reserved_rows < 2 {
                return Err(CoreError::NotEnoughReservedRows {
                    needed: 2,
                    available: reserved_rows,
                });
            }
            Ok(Program::new(
                name,
                vec![
                    Primitive::OAap { src: a, dst: R0T },
                    // Fused copy+regulate: the merged "copy B / retain B"
                    // primitive enabled by the second buffer (§4.3).
                    Primitive::OAppCopy { src: b, dst: R1T, mode: RegulateMode::And },
                    Primitive::OAap { src: R0B, dst },
                    Primitive::OApp { row: a, mode: RegulateMode::And },
                    Primitive::OtApp { row: R1B, mode: RegulateMode::Or },
                    Primitive::Ap { row: dst },
                ],
            ))
        }
    };
    let prog = prog?;
    self_check(&prog, rows, reserved_rows, |row| declared_live_in(false, false, rows, row))?;
    Ok(prog)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bitvec::BitVec;
    use crate::engine::SubarrayEngine;

    #[test]
    fn program_names_are_lowercase_op_dash_mode() {
        for op in LogicOp::ALL {
            for mode in [CompileMode::InPlace, CompileMode::HighThroughput, CompileMode::LowLatency]
            {
                let want = format!("{}-{:?}", op.name(), mode).to_lowercase();
                assert_eq!(PROGRAM_NAMES[op as usize][mode as usize], want);
            }
        }
    }

    /// Runs `prog` on a fresh engine holding every 2-bit operand combination
    /// column-wise and checks the destination against software logic.
    fn check_program(op: LogicOp, prog: &Program, rows: Operands, dcc_rows: usize) {
        let a_bits = [false, false, true, true];
        let b_bits = [false, true, false, true];
        let mut e = SubarrayEngine::new(4, 8, dcc_rows);
        e.write_row(rows.a, BitVec::from_bools(&a_bits)).unwrap();
        e.write_row(rows.b, BitVec::from_bools(&b_bits)).unwrap();
        // Destination/scratch start initialized (arbitrary garbage).
        e.write_row(rows.dst, BitVec::from_bools(&[true, false, false, true])).unwrap();
        if let Some(s) = rows.scratch {
            e.write_row(s, BitVec::zeros(4)).unwrap();
        }
        e.run(prog.primitives()).unwrap_or_else(|err| panic!("{}: {err}", prog.name()));
        let got = e.row(RowRef::Data(rows.dst)).unwrap();
        let want: Vec<bool> = a_bits.iter().zip(&b_bits).map(|(&x, &y)| op.eval(x, y)).collect();
        assert_eq!(got.to_bools(), want, "{}", prog);
        assert!(!e.has_pending_regulation(), "{} leaks regulation", prog.name());
    }

    #[test]
    fn low_latency_programs_compute_correctly() {
        for op in LogicOp::ALL {
            for reserved in [1usize, 2] {
                let rows = Operands::standard();
                let prog = compile(op, CompileMode::LowLatency, rows, reserved).unwrap();
                check_program(op, &prog, rows, reserved);
            }
        }
    }

    #[test]
    fn high_throughput_programs_compute_correctly() {
        for op in LogicOp::ALL {
            let rows = Operands::standard();
            let prog = compile(op, CompileMode::HighThroughput, rows, 1).unwrap();
            check_program(op, &prog, rows, 1);
        }
    }

    #[test]
    fn in_place_and_or() {
        for op in [LogicOp::And, LogicOp::Or] {
            let rows = Operands { a: 0, b: 2, dst: 2, scratch: None };
            let prog = compile(op, CompileMode::InPlace, rows, 0).unwrap();
            assert_eq!(prog.len(), 2);
            // b and dst share row 2: operand b arrives via the dst initial
            // content, so check manually.
            let a_bits = [false, false, true, true];
            let b_bits = [false, true, false, true];
            let mut e = SubarrayEngine::new(4, 4, 1);
            e.write_row(0, BitVec::from_bools(&a_bits)).unwrap();
            e.write_row(2, BitVec::from_bools(&b_bits)).unwrap();
            e.run(prog.primitives()).unwrap();
            let want: Vec<bool> =
                a_bits.iter().zip(&b_bits).map(|(&x, &y)| op.eval(x, y)).collect();
            assert_eq!(e.row(RowRef::Data(2)).unwrap().to_bools(), want);
        }
    }

    #[test]
    fn in_place_rejects_other_ops_and_bad_operands() {
        let rows = Operands { a: 0, b: 2, dst: 2, scratch: None };
        assert!(matches!(
            compile(LogicOp::Xor, CompileMode::InPlace, rows, 1),
            Err(CoreError::UnsupportedInPlace { .. })
        ));
        let bad = Operands { a: 0, b: 1, dst: 2, scratch: None };
        assert!(matches!(
            compile(LogicOp::And, CompileMode::InPlace, bad, 1),
            Err(CoreError::InPlaceOperandMismatch { .. })
        ));
    }

    #[test]
    fn all_six_xor_sequences_compute_xor() {
        for n in 1..=6u8 {
            let rows = Operands::standard();
            let reserved = if n == 6 { 2 } else { 1 };
            let prog = xor_sequence(n, rows, reserved).unwrap();
            check_program(LogicOp::Xor, &prog, rows, reserved);
        }
    }

    /// Fig. 8(a): the latency ladder 519 → 409 → 388 → 388 → 346 → ~297 ns.
    #[test]
    fn xor_sequence_latencies_match_fig8() {
        use elp2im_dram::timing::Ddr3Timing;
        let t = Ddr3Timing::ddr3_1600();
        let rows = Operands::standard();
        let expect = [519.0, 409.0, 388.0, 388.0, 346.0, 293.0];
        let counts = [9, 7, 7, 7, 7, 6];
        for (i, (&ns, &cnt)) in expect.iter().zip(&counts).enumerate() {
            let n = (i + 1) as u8;
            let prog = xor_sequence(n, rows, 2).unwrap();
            assert_eq!(prog.len(), cnt, "seq{n} primitive count");
            let got = prog.latency(&t).as_f64();
            assert!((got - ns).abs() < 3.0, "seq{n}: expected ~{ns} ns, got {got:.1}");
        }
    }

    #[test]
    fn sequence1_requires_scratch() {
        let rows = Operands { scratch: None, ..Operands::standard() };
        assert!(matches!(xor_sequence(1, rows, 1), Err(CoreError::ScratchRowRequired)));
    }

    #[test]
    fn sequence6_requires_two_buffers() {
        let rows = Operands::standard();
        assert!(matches!(
            xor_sequence(6, rows, 1),
            Err(CoreError::NotEnoughReservedRows { needed: 2, .. })
        ));
    }

    #[test]
    fn reserved_row_requirements() {
        let rows = Operands::standard();
        assert!(matches!(
            compile(LogicOp::Not, CompileMode::LowLatency, rows, 0),
            Err(CoreError::NotEnoughReservedRows { .. })
        ));
        // AND in high-throughput mode works without any reserved rows.
        assert!(compile(LogicOp::And, CompileMode::HighThroughput, rows, 0).is_ok());
    }

    /// §6.2 headline: mean per-op speedup of ELP2IM over Ambit ≈ 1.17×
    /// (1-buffer); checked end to end in the fig12 bench — here we lock the
    /// per-op latencies that produce it.
    #[test]
    fn low_latency_basic_op_latencies() {
        use elp2im_dram::timing::Ddr3Timing;
        let t = Ddr3Timing::ddr3_1600();
        let rows = Operands::standard();
        let expect = [
            (LogicOp::Not, 106.0),
            (LogicOp::And, 159.0),
            (LogicOp::Or, 159.0),
            (LogicOp::Nand, 208.0),
            (LogicOp::Nor, 208.0),
            (LogicOp::Xor, 346.0),
            (LogicOp::Xnor, 395.0),
        ];
        for (op, ns) in expect {
            let prog = compile(op, CompileMode::LowLatency, rows, 1).unwrap();
            let got = prog.latency(&t).as_f64();
            assert!((got - ns).abs() < 3.0, "{op}: expected ~{ns}, got {got:.1}");
        }
    }

    #[test]
    fn logic_op_eval_and_names() {
        assert!(LogicOp::Nand.eval(true, false));
        assert!(!LogicOp::Nand.eval(true, true));
        assert!(LogicOp::Xnor.eval(true, true));
        assert!(LogicOp::Not.is_unary());
        assert_eq!(LogicOp::Xor.to_string(), "xor");
        assert_eq!(LogicOp::ALL.len(), 7);
    }
}
