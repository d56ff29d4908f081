//! Logic synthesis: arbitrary multi-input/multi-output boolean networks →
//! minimum-latency primitive programs, self-checked end to end.
//!
//! The pipeline has four stages:
//!
//! 1. **Ingest** — one or more [`Expr`]s (including the MAJ/MUX/ITE
//!    extensions) become a shared logic network in the [`EGraph`], with
//!    structurally equal subterms hashconsed into one class.
//! 2. **Rewrite** — equality saturation under the boolean rule set of
//!    [`crate::egraph`] (De Morgan both ways, absorption, factoring, XOR
//!    recognition/decomposition, MAJ identities, constant folding) grows
//!    the space of equivalent implementations.
//! 3. **Extract** — a per-class min-cost fixpoint picks the cheapest gate
//!    per class under the Table-1 latency cost model
//!    ([`crate::compile::gate_latency`]), with NAND/NOR/XNOR *fused*
//!    through `Not` classes so De-Morgan'd forms cost one gate, not three.
//!    The chosen gates are scheduled onto rows with last-use temp
//!    recycling and every output root steered directly into its
//!    destination row.
//! 4. **Validate** — the extracted program is translation-validated with
//!    the [`crate::analysis`] truth-table oracle: the abstract interpreter
//!    recovers each destination row's exact truth table, which must equal
//!    the network's reference table (and the program must be statically
//!    clean and leave no pending regulation). A synthesis result is never
//!    handed out unproven.
//!
//! [`crate::expr::compile_expr`] is a thin front-end over this module: it
//! tries synthesis first and falls back to greedy lowering past the
//! [`MAX_VARS`] exhaustive-analysis budget (or when synthesis cannot place
//! the network in the provided rows).

use crate::analysis::{analyze, TruthTable, MAX_VARS};
use crate::compile::{compile, gate_latency, CompileMode, LogicOp, Operands};
use crate::egraph::{EGraph, Id, Node, SaturationLimits, SaturationStats};
use crate::error::CoreError;
use crate::expr::Expr;
use crate::isa::Program;
use crate::optimizer::{optimize, PhysRow};
use crate::primitive::{Primitive, RowRef};
use crate::validate::SubarrayShape;
use elp2im_dram::timing::Ddr3Timing;
use std::collections::HashMap;

/// Row assignment for a multi-output synthesis.
#[derive(Debug, Clone)]
pub struct SynthOperands {
    /// Data-row index of each input variable (variable `j` lives in
    /// `inputs[j]`).
    pub inputs: Vec<usize>,
    /// Destination row of each output, in `outputs` order. Must be
    /// distinct from the inputs and temps.
    pub dsts: Vec<usize>,
    /// Temporary rows the scheduler may use (distinct from inputs/dsts).
    pub temps: Vec<usize>,
}

/// A successful synthesis: the validated program plus pipeline statistics.
#[derive(Debug, Clone)]
pub struct Synthesis {
    /// The extracted, optimized, truth-table-validated program.
    pub program: Program,
    /// Saturation statistics of the rewrite stage.
    pub saturation: SaturationStats,
    /// Gates the extraction chose (before cross-gate optimization).
    pub gates: usize,
    /// The extraction cost estimate in nanoseconds (tree cost; the real
    /// program is never slower than `gates` compiled independently).
    pub estimated_ns: f64,
}

/// Per-gate latency costs for the extraction, measured from the compiler
/// itself so the model can never drift from what `compile()` emits.
#[derive(Debug, Clone, Copy)]
struct GateCosts {
    not: f64,
    and: f64,
    or: f64,
    nand: f64,
    nor: f64,
    xor: f64,
    xnor: f64,
    constant: f64,
}

impl GateCosts {
    fn measure(mode: CompileMode, reserved_rows: usize) -> Result<Self, CoreError> {
        let t = Ddr3Timing::ddr3_1600();
        let g = |op: LogicOp| -> Result<f64, CoreError> {
            gate_latency(op, mode, reserved_rows, &t).map(|ns| ns.as_f64()).ok_or_else(|| {
                CoreError::SynthesisFailed(format!(
                    "{op} has no compiled form under {mode:?} with {reserved_rows} reserved rows"
                ))
            })
        };
        let not = g(LogicOp::Not)?;
        // Constants are materialized as `dst := !x; dst := dst OP x`.
        let inplace = gate_latency(LogicOp::And, CompileMode::InPlace, reserved_rows, &t)
            .map_or(f64::INFINITY, |ns| ns.as_f64());
        Ok(GateCosts {
            not,
            and: g(LogicOp::And)?,
            or: g(LogicOp::Or)?,
            nand: g(LogicOp::Nand)?,
            nor: g(LogicOp::Nor)?,
            xor: g(LogicOp::Xor)?,
            xnor: g(LogicOp::Xnor)?,
            constant: not + inplace,
        })
    }

    fn of(&self, op: LogicOp) -> f64 {
        match op {
            LogicOp::Not => self.not,
            LogicOp::And => self.and,
            LogicOp::Or => self.or,
            LogicOp::Nand => self.nand,
            LogicOp::Nor => self.nor,
            LogicOp::Xor => self.xor,
            LogicOp::Xnor => self.xnor,
        }
    }
}

/// The implementation the extraction chose for one equivalence class.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Gate {
    /// The class is input variable `i` — free.
    Input(usize),
    /// A boolean constant (materialized only when it reaches a root).
    Constant(bool),
    /// A compiled one- or two-operand gate over other classes (`b == a`
    /// for the unary NOT).
    Op(LogicOp, Id, Id),
}

impl Gate {
    fn children(self) -> Vec<Id> {
        match self {
            Gate::Input(_) | Gate::Constant(_) => Vec::new(),
            Gate::Op(op, a, b) => {
                if op.is_unary() {
                    vec![a]
                } else {
                    vec![a, b]
                }
            }
        }
    }
}

/// Synthesizes one program computing every expression of `outputs` into
/// the corresponding `rows.dsts` row, sharing subterms across outputs.
///
/// The result is validated before being returned: the static analyzer must
/// accept the program, each destination row's recovered truth table must
/// equal the network's reference table exactly, and no pseudo-precharge
/// regulation may dangle.
///
/// # Errors
///
/// * [`CoreError::UnknownVariable`] — an expression names a variable with
///   no input row.
/// * [`CoreError::InvalidHandle`] — `outputs`/`rows.dsts` lengths differ.
/// * [`CoreError::SynthesisFailed`] — more than [`MAX_VARS`] inputs (the
///   exhaustive oracle budget), no compiled gate forms under `mode`, or a
///   constant output with no input row to materialize from.
/// * [`CoreError::CapacityExceeded`] — `rows.temps` cannot hold the chosen
///   network's live set.
/// * Compilation errors of individual gates propagate.
pub fn synthesize(
    outputs: &[Expr],
    rows: &SynthOperands,
    mode: CompileMode,
    reserved_rows: usize,
) -> Result<Synthesis, CoreError> {
    if outputs.len() != rows.dsts.len() {
        return Err(CoreError::InvalidHandle(rows.dsts.len()));
    }
    if outputs.is_empty() {
        return Err(CoreError::SynthesisFailed("no outputs requested".into()));
    }
    if rows.inputs.len() > MAX_VARS {
        return Err(CoreError::SynthesisFailed(format!(
            "{} inputs exceed the {MAX_VARS}-variable exhaustive-validation budget",
            rows.inputs.len()
        )));
    }
    for e in outputs {
        if let Some(max) = e.max_var() {
            if max >= rows.inputs.len() {
                return Err(CoreError::UnknownVariable { var: max, inputs: rows.inputs.len() });
            }
        }
    }
    let costs = GateCosts::measure(mode, reserved_rows)?;

    // Stage 1: ingest the network.
    let mut g = EGraph::new();
    let mut memo: HashMap<Expr, Id> = HashMap::new();
    let roots: Vec<Id> = outputs.iter().map(|e| ingest(e, &mut g, &mut memo)).collect();

    // Stage 2: equality saturation.
    let saturation = g.saturate(SaturationLimits::default());

    // Stage 3: extraction + scheduling.
    let choices = extract(&g, &costs);
    let mut sched = Scheduler {
        g: &g,
        choices: &choices,
        rows,
        mode,
        reserved_rows,
        free: rows.temps.iter().rev().copied().collect(),
        row_of: HashMap::new(),
        remaining: HashMap::new(),
        prims: Vec::new(),
        gates: 0,
    };
    let mut estimated_ns = 0.0;
    for (k, &root) in roots.iter().enumerate() {
        let root = g.find(root);
        let choice = choices.get(&root).ok_or_else(|| {
            CoreError::SynthesisFailed("extraction found no implementation".into())
        })?;
        estimated_ns += choice.0;
        sched.count_uses(root);
        sched.schedule_root(root, rows.dsts[k])?;
        let _ = k;
    }
    let gates = sched.gates;
    let name = match outputs {
        [single] => format!("synth({single})"),
        many => format!("synth[{} outputs]", many.len()),
    };
    let prog = Program::new(name, sched.prims);

    // Cross-gate optimization (merge/trim/overlap), preserving operands
    // and results. Overlap is only legal when the isolation transistor is
    // assumed — the low-latency strategy; high-throughput programs must
    // keep single-wordline commands.
    let mut preserve: Vec<PhysRow> = rows.inputs.iter().map(|&r| PhysRow::Data(r)).collect();
    preserve.extend(rows.dsts.iter().map(|&r| PhysRow::Data(r)));
    let prog = optimize(&prog, &preserve, mode == CompileMode::LowLatency);

    // Stage 4: exhaustive truth-table validation (the verify_transform
    // oracle applied to the final program against the source network).
    validate(&prog, outputs, rows, reserved_rows)?;

    Ok(Synthesis { program: prog, saturation, gates, estimated_ns })
}

/// Recursively adds `e` to the graph; ITE/MUX is decomposed at ingest
/// (`c·t + !c·f`), every other variant maps to one node.
fn ingest(e: &Expr, g: &mut EGraph, memo: &mut HashMap<Expr, Id>) -> Id {
    if let Some(&id) = memo.get(e) {
        return g.find(id);
    }
    let id = match e {
        Expr::Var(i) => g.add(Node::Var(*i as u32)),
        Expr::Not(x) => {
            let x = ingest(x, g, memo);
            g.add(Node::Not(x))
        }
        Expr::And(a, b) => {
            let (a, b) = (ingest(a, g, memo), ingest(b, g, memo));
            g.add(Node::And(a, b))
        }
        Expr::Or(a, b) => {
            let (a, b) = (ingest(a, g, memo), ingest(b, g, memo));
            g.add(Node::Or(a, b))
        }
        Expr::Xor(a, b) => {
            let (a, b) = (ingest(a, g, memo), ingest(b, g, memo));
            g.add(Node::Xor(a, b))
        }
        Expr::Maj(a, b, c) => {
            let (a, b, c) = (ingest(a, g, memo), ingest(b, g, memo), ingest(c, g, memo));
            g.add(Node::Maj(a, b, c))
        }
        Expr::Ite(c, t, f) => {
            let (c, t, f) = (ingest(c, g, memo), ingest(t, g, memo), ingest(f, g, memo));
            let nc = g.add(Node::Not(c));
            let then_arm = g.add(Node::And(c, t));
            let else_arm = g.add(Node::And(nc, f));
            g.add(Node::Or(then_arm, else_arm))
        }
    };
    memo.insert(e.clone(), id);
    id
}

/// Per-class min-cost fixpoint over the saturated graph. Tree cost (shared
/// classes are charged per reference, then deduplicated by the scheduler),
/// with fused NAND/NOR/XNOR candidates looked up through `Not` classes.
/// All gate costs are strictly positive, so every chosen gate's operands
/// have strictly smaller best cost and the chosen network is acyclic.
fn extract(g: &EGraph, costs: &GateCosts) -> HashMap<Id, (f64, Gate)> {
    let mut best: HashMap<Id, (f64, Gate)> = HashMap::new();
    let ids = g.class_ids();
    loop {
        let mut changed = false;
        for &id in &ids {
            let mut candidate: Option<(f64, Gate)> = best.get(&id).copied();
            for node in g.nodes(id) {
                for (cost, gate) in node_candidates(g, costs, node, &best) {
                    if candidate.is_none_or(|(c, _)| cost < c) {
                        candidate = Some((cost, gate));
                    }
                }
            }
            if let Some((cost, gate)) = candidate {
                let prev = best.insert(id, (cost, gate));
                if prev.is_none_or(|(c, _)| cost < c) {
                    changed = true;
                } else if let Some(prev) = prev {
                    best.insert(id, prev); // keep the earlier, equal-or-better pick
                }
            }
        }
        if !changed {
            break;
        }
    }
    best
}

fn node_candidates(
    g: &EGraph,
    costs: &GateCosts,
    node: &Node,
    best: &HashMap<Id, (f64, Gate)>,
) -> Vec<(f64, Gate)> {
    let cost_of = |id: Id| best.get(&g.find(id)).map(|&(c, _)| c);
    let mut out = Vec::new();
    match *node {
        Node::Var(i) => out.push((0.0, Gate::Input(i as usize))),
        Node::Const(v) => out.push((costs.constant, Gate::Constant(v))),
        Node::Not(a) => {
            if let Some(ca) = cost_of(a) {
                out.push((costs.not + ca, Gate::Op(LogicOp::Not, g.find(a), g.find(a))));
            }
            // Fused complements: !(x·y) = NAND, !(x+y) = NOR, !(x⊕y) = XNOR.
            for inner in g.nodes(a) {
                let (op, x, y) = match *inner {
                    Node::And(x, y) => (LogicOp::Nand, x, y),
                    Node::Or(x, y) => (LogicOp::Nor, x, y),
                    Node::Xor(x, y) => (LogicOp::Xnor, x, y),
                    _ => continue,
                };
                if let (Some(cx), Some(cy)) = (cost_of(x), cost_of(y)) {
                    out.push((costs.of(op) + cx + cy, Gate::Op(op, g.find(x), g.find(y))));
                }
            }
        }
        Node::And(a, b) | Node::Or(a, b) | Node::Xor(a, b) => {
            let op = match node {
                Node::And(..) => LogicOp::And,
                Node::Or(..) => LogicOp::Or,
                _ => LogicOp::Xor,
            };
            if let (Some(ca), Some(cb)) = (cost_of(a), cost_of(b)) {
                out.push((costs.of(op) + ca + cb, Gate::Op(op, g.find(a), g.find(b))));
            }
        }
        // MAJ has no direct primitive sequence; the saturation rules always
        // provide a decomposed alternative in the same class.
        Node::Maj(..) => {}
    }
    out
}

struct Scheduler<'a> {
    g: &'a EGraph,
    choices: &'a HashMap<Id, (f64, Gate)>,
    rows: &'a SynthOperands,
    mode: CompileMode,
    reserved_rows: usize,
    free: Vec<usize>,
    /// Class → row currently holding its value.
    row_of: HashMap<Id, usize>,
    /// Class → references not yet consumed (roots + gate operands).
    remaining: HashMap<Id, usize>,
    prims: Vec<Primitive>,
    gates: usize,
}

impl Scheduler<'_> {
    fn gate_of(&self, id: Id) -> Gate {
        self.choices[&self.g.find(id)].1
    }

    /// Adds this root's references (itself plus, for first visits, the
    /// whole chosen cone) to the pending-use counts.
    fn count_uses(&mut self, root: Id) {
        let root = self.g.find(root);
        let n = self.remaining.entry(root).or_insert(0);
        *n += 1;
        let first_visit = *n == 1 && !self.row_of.contains_key(&root);
        // Re-walk children only the first time the class is referenced;
        // later references reuse the already-computed row.
        if first_visit {
            for child in self.gate_of(root).children() {
                self.count_uses(child);
            }
        }
    }

    fn alloc(&mut self) -> Result<usize, CoreError> {
        self.free.pop().ok_or(CoreError::CapacityExceeded { rows: self.rows.temps.len() })
    }

    /// Consumes one reference to `id`, recycling its temp at the last use.
    fn release(&mut self, id: Id) {
        let id = self.g.find(id);
        if matches!(self.gate_of(id), Gate::Input(_)) {
            return; // inputs are the caller's rows
        }
        if let Some(n) = self.remaining.get_mut(&id) {
            *n = n.saturating_sub(1);
            if *n == 0 {
                if let Some(row) = self.row_of.get(&id).copied() {
                    if self.rows.temps.contains(&row) {
                        self.row_of.remove(&id);
                        self.free.push(row);
                    }
                }
            }
        }
    }

    /// Computes the class into a row (a temp unless steered), memoized.
    fn compute(&mut self, id: Id, steer: Option<usize>) -> Result<usize, CoreError> {
        let id = self.g.find(id);
        match self.gate_of(id) {
            Gate::Input(i) => Ok(self.rows.inputs[i]),
            Gate::Constant(v) => {
                if let Some(&row) = self.row_of.get(&id) {
                    return Ok(row);
                }
                let dst = match steer {
                    Some(d) => d,
                    None => self.alloc()?,
                };
                self.materialize_const(v, dst)?;
                self.row_of.insert(id, dst);
                Ok(dst)
            }
            Gate::Op(op, a, b) => {
                if let Some(&row) = self.row_of.get(&id) {
                    return Ok(row);
                }
                let row_a = self.compute(a, None)?;
                let row_b = if op.is_unary() { row_a } else { self.compute(b, None)? };
                // Steer into the requested destination when it is not an
                // operand of this gate; otherwise fall back to a temp
                // (the caller copies afterwards).
                let dst = match steer {
                    Some(d) if d != row_a && d != row_b => d,
                    _ => self.alloc()?,
                };
                let operands = Operands { a: row_a, b: row_b, dst, scratch: None };
                let gate = compile(op, self.mode, operands, self.reserved_rows)?;
                self.prims.extend(gate.primitives().iter().copied());
                self.gates += 1;
                self.row_of.insert(id, dst);
                self.release(a);
                if !op.is_unary() {
                    self.release(b);
                }
                Ok(dst)
            }
        }
    }

    /// Computes one output root into its destination row.
    fn schedule_root(&mut self, root: Id, dst: usize) -> Result<(), CoreError> {
        let root = self.g.find(root);
        let row = self.compute(root, Some(dst))?;
        if row != dst {
            // Var roots, roots whose value already lives elsewhere (shared
            // with an earlier output), or a steering conflict: copy.
            self.prims.push(Primitive::Aap { src: RowRef::Data(row), dst: RowRef::Data(dst) });
        }
        self.release(root);
        Ok(())
    }

    /// `dst := v` from whole cloth: `dst := !x; dst := dst OP x` with
    /// `OP = AND` for 0 (x·!x) and `OP = OR` for 1 (x + !x).
    fn materialize_const(&mut self, v: bool, dst: usize) -> Result<(), CoreError> {
        let &x = self.rows.inputs.first().ok_or_else(|| {
            CoreError::SynthesisFailed("constant output needs at least one input row".into())
        })?;
        let not = compile(
            LogicOp::Not,
            self.mode,
            Operands { a: x, b: x, dst, scratch: None },
            self.reserved_rows,
        )?;
        self.prims.extend(not.primitives().iter().copied());
        let op = if v { LogicOp::Or } else { LogicOp::And };
        let fold = compile(
            op,
            CompileMode::InPlace,
            Operands { a: x, b: dst, dst, scratch: None },
            self.reserved_rows,
        )?;
        self.prims.extend(fold.primitives().iter().copied());
        self.gates += 2;
        Ok(())
    }
}

/// The exhaustive oracle: recover each destination row's truth table from
/// the final program via the abstract interpreter and compare against the
/// network reference. Also demands static cleanliness and no dangling
/// regulation.
fn validate(
    prog: &Program,
    outputs: &[Expr],
    rows: &SynthOperands,
    reserved_rows: usize,
) -> Result<(), CoreError> {
    let vars = rows.inputs.len();
    let live_in: Vec<PhysRow> = rows.inputs.iter().map(|&r| PhysRow::Data(r)).collect();
    let max_row =
        rows.inputs.iter().chain(&rows.dsts).chain(&rows.temps).fold(0usize, |m, &r| m.max(r));
    let inferred = crate::analysis::infer_shape(prog);
    let shape = SubarrayShape {
        data_rows: inferred.data_rows.max(max_row + 1),
        dcc_rows: inferred.dcc_rows.max(reserved_rows),
    };
    let report = analyze(prog, shape, &live_in);
    if let Some(v) = report.to_violations().into_iter().next() {
        return Err(CoreError::StaticViolation(v));
    }
    if report.has_pending_regulation() {
        return Err(CoreError::SynthesisFailed(
            "synthesized program leaves a pending regulation".into(),
        ));
    }
    let mut memo: HashMap<Expr, TruthTable> = HashMap::new();
    for (e, &dst) in outputs.iter().zip(&rows.dsts) {
        let want = reference_table(e, vars, &mut memo);
        match report.row_value(PhysRow::Data(dst)) {
            Some(got) if *got == want => {}
            Some(got) => {
                let m = got.first_difference(&want).unwrap_or(0);
                return Err(CoreError::SynthesisFailed(format!(
                    "extraction disproved: row r{dst} disagrees with the network under \
                     assignment {m:#b} (program: {}, network: {})",
                    u8::from(got.eval(m)),
                    u8::from(want.eval(m)),
                )));
            }
            None => {
                return Err(CoreError::SynthesisFailed(format!(
                    "destination row r{dst} does not hold a tracked value"
                )));
            }
        }
    }
    Ok(())
}

/// The network's exact truth table, memoized over structurally shared
/// subterms.
pub(crate) fn reference_table(
    e: &Expr,
    vars: usize,
    memo: &mut HashMap<Expr, TruthTable>,
) -> TruthTable {
    if let Some(t) = memo.get(e) {
        return t.clone();
    }
    let t = match e {
        Expr::Var(i) => TruthTable::var(vars, *i),
        Expr::Not(x) => reference_table(x, vars, memo).not(),
        Expr::And(a, b) => reference_table(a, vars, memo).and(&reference_table(b, vars, memo)),
        Expr::Or(a, b) => reference_table(a, vars, memo).or(&reference_table(b, vars, memo)),
        Expr::Xor(a, b) => reference_table(a, vars, memo).xor(&reference_table(b, vars, memo)),
        Expr::Maj(a, b, c) => {
            let (ta, tb, tc) = (
                reference_table(a, vars, memo),
                reference_table(b, vars, memo),
                reference_table(c, vars, memo),
            );
            ta.and(&tb).or(&ta.and(&tc)).or(&tb.and(&tc))
        }
        Expr::Ite(c, t, f) => {
            let tc = reference_table(c, vars, memo);
            tc.and(&reference_table(t, vars, memo))
                .or(&tc.not().and(&reference_table(f, vars, memo)))
        }
    };
    memo.insert(e.clone(), t.clone());
    t
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bitvec::BitVec;
    use crate::engine::SubarrayEngine;
    use crate::expr::{compile_expr_greedy, ExprOperands};
    use elp2im_dram::timing::Ddr3Timing;

    fn ops(n_vars: usize, n_out: usize, n_temps: usize) -> SynthOperands {
        SynthOperands {
            inputs: (0..n_vars).collect(),
            dsts: (n_vars..n_vars + n_out).collect(),
            temps: (n_vars + n_out..n_vars + n_out + n_temps).collect(),
        }
    }

    /// Runs a synthesized program over the full truth table and checks
    /// every output column against `Expr::eval`.
    fn run_and_check(outputs: &[Expr], rows: &SynthOperands, prog: &Program, reserved: usize) {
        let n = rows.inputs.len();
        let width = 1usize << n;
        let total_rows = 1 + rows.inputs.iter().chain(&rows.dsts).chain(&rows.temps).max().unwrap();
        let mut e = SubarrayEngine::new(width, total_rows, reserved.max(1));
        for (j, &r) in rows.inputs.iter().enumerate() {
            let col: BitVec = (0..width).map(|m| (m >> j) & 1 == 1).collect();
            e.write_row(r, col).unwrap();
        }
        for &r in rows.dsts.iter().chain(&rows.temps) {
            e.write_row(r, BitVec::zeros(width)).unwrap();
        }
        e.run(prog.primitives()).unwrap_or_else(|err| panic!("{}: {err}", prog.name()));
        for (expr, &dst) in outputs.iter().zip(&rows.dsts) {
            let got = e.row(RowRef::Data(dst)).unwrap().to_bools();
            for (m, &bit) in got.iter().enumerate() {
                let assignment: Vec<bool> = (0..n).map(|j| (m >> j) & 1 == 1).collect();
                assert_eq!(bit, expr.eval(&assignment), "{expr} at {m:#b}");
            }
        }
    }

    #[test]
    fn synthesis_rediscovers_the_fig8_xor_latency() {
        let t = Ddr3Timing::ddr3_1600();
        let v = Expr::var;
        // Hand the synthesizer the *sum-of-products* form — it must
        // recognize XOR and land on the Fig. 8 seq6 cost.
        let sop = (v(0) & !v(1)) | (!v(0) & v(1));
        let rows = ops(2, 1, 2);
        let s = synthesize(std::slice::from_ref(&sop), &rows, CompileMode::LowLatency, 2).unwrap();
        let ns = s.program.latency(&t).as_f64();
        assert!(ns <= 297.0, "auto XOR {ns:.1} ns must match/beat hand seq6 (297 ns)");
        run_and_check(&[sop], &rows, &s.program, 2);
    }

    #[test]
    fn xor_written_directly_also_hits_seq6() {
        let t = Ddr3Timing::ddr3_1600();
        let e = Expr::var(0) ^ Expr::var(1);
        let rows = ops(2, 1, 2);
        let s = synthesize(std::slice::from_ref(&e), &rows, CompileMode::LowLatency, 2).unwrap();
        assert!(s.program.latency(&t).as_f64() <= 297.0);
        run_and_check(&[e], &rows, &s.program, 2);
    }

    #[test]
    fn maj3_compiles_and_beats_the_naive_sop() {
        let t = Ddr3Timing::ddr3_1600();
        let m = Expr::maj(Expr::var(0), Expr::var(1), Expr::var(2));
        let rows = ops(3, 1, 4);
        let s = synthesize(std::slice::from_ref(&m), &rows, CompileMode::LowLatency, 2).unwrap();
        run_and_check(&[m], &rows, &s.program, 2);
        // Naive SOP is 5 gates (3 AND + 2 OR ≈ 795 ns); factoring gives 4.
        assert!(s.gates <= 4, "MAJ3 should extract to ≤4 gates, got {}", s.gates);
        assert!(s.program.latency(&t).as_f64() < 795.0);
    }

    #[test]
    fn mux_compiles_and_verifies() {
        let m = Expr::mux(Expr::var(0), Expr::var(1), Expr::var(2));
        let rows = ops(3, 1, 4);
        let s = synthesize(std::slice::from_ref(&m), &rows, CompileMode::LowLatency, 2).unwrap();
        run_and_check(&[m], &rows, &s.program, 2);
    }

    #[test]
    fn wide_functions_compile() {
        let v = Expr::var;
        // A 5-input function the fixed op menu never had.
        let e = (v(0) & v(1)) ^ Expr::maj(v(2), v(3), v(4)) | !v(0);
        let rows = ops(5, 1, 6);
        let s = synthesize(std::slice::from_ref(&e), &rows, CompileMode::LowLatency, 2).unwrap();
        run_and_check(&[e], &rows, &s.program, 2);
    }

    #[test]
    fn multi_output_full_adder_shares_subterms() {
        let v = Expr::var;
        let sum = v(0) ^ v(1) ^ v(2);
        let carry = Expr::maj(v(0), v(1), v(2));
        let rows = ops(3, 2, 4);
        let s =
            synthesize(&[sum.clone(), carry.clone()], &rows, CompileMode::LowLatency, 2).unwrap();
        run_and_check(&[sum, carry], &rows, &s.program, 2);
    }

    /// A bit-serial ripple-carry adder micro-program: every column is an
    /// independent addition; per-bit full-adder programs are concatenated
    /// with the carry row chaining into the next bit.
    #[test]
    fn bit_serial_adder_micro_program() {
        const BITS: usize = 4;
        let v = Expr::var;
        // Row layout: a_k = 3k, b_k = 3k+1, sum_k = 3k+2; carries and temps
        // after the per-bit block.
        let carry_base = 3 * BITS;
        let temps: Vec<usize> = (carry_base + BITS..carry_base + BITS + 4).collect();
        let mut prog = Program::new("ripple-adder", vec![]);
        for k in 0..BITS {
            let (a, b, s) = (3 * k, 3 * k + 1, 3 * k + 2);
            let cin = carry_base + k; // carry_base+0 is the zero row for bit 0
            let cout = carry_base + k + 1;
            let (sum, carry) = if k == 0 {
                (v(0) ^ v(1), v(0) & v(1)) // half adder
            } else {
                (v(0) ^ v(1) ^ v(2), Expr::maj(v(0), v(1), v(2)))
            };
            let inputs = if k == 0 { vec![a, b] } else { vec![a, b, cin] };
            let rows = SynthOperands { inputs, dsts: vec![s, cout], temps: temps.clone() };
            let stage = synthesize(&[sum, carry], &rows, CompileMode::LowLatency, 2).unwrap();
            prog = prog.then(stage.program);
        }
        // Drive it: width-16 columns = 16 independent (a, b) pairs.
        let width = 16;
        let total_rows = carry_base + BITS + 1 + 4;
        let mut e = SubarrayEngine::new(width, total_rows, 2);
        let pairs: Vec<(u64, u64)> =
            (0..width as u64).map(|i| (i % 13, (i * 7 + 3) % 16)).collect();
        for k in 0..BITS {
            let a_col: BitVec = pairs.iter().map(|&(a, _)| (a >> k) & 1 == 1).collect();
            let b_col: BitVec = pairs.iter().map(|&(_, b)| (b >> k) & 1 == 1).collect();
            e.write_row(3 * k, a_col).unwrap();
            e.write_row(3 * k + 1, b_col).unwrap();
            e.write_row(3 * k + 2, BitVec::zeros(width)).unwrap();
        }
        for r in carry_base..total_rows {
            e.write_row(r, BitVec::zeros(width)).unwrap();
        }
        e.run(prog.primitives()).unwrap();
        for (i, &(a, b)) in pairs.iter().enumerate() {
            let want = (a + b) % (1 << BITS); // sum bits mod 2^BITS
            for k in 0..BITS {
                let got = e.row(RowRef::Data(3 * k + 2)).unwrap().to_bools()[i];
                assert_eq!(got, (want >> k) & 1 == 1, "column {i}: {a}+{b} bit {k}");
            }
        }
    }

    #[test]
    fn constant_outputs_materialize() {
        let v = Expr::var;
        // x ^ x = 0 and x | !x = 1: both fold to constants.
        let zero = v(0) ^ v(0);
        let one = v(0) | !v(0);
        let rows = ops(1, 2, 2);
        let s =
            synthesize(&[zero.clone(), one.clone()], &rows, CompileMode::LowLatency, 2).unwrap();
        run_and_check(&[zero, one], &rows, &s.program, 2);
    }

    #[test]
    fn var_passthrough_copies() {
        let e = Expr::var(1);
        let rows = ops(2, 1, 1);
        let s = synthesize(std::slice::from_ref(&e), &rows, CompileMode::LowLatency, 1).unwrap();
        run_and_check(&[e], &rows, &s.program, 1);
    }

    #[test]
    fn temp_exhaustion_is_reported() {
        let v = Expr::var;
        let e = (v(0) & v(1)) ^ (v(2) | v(3));
        let rows = SynthOperands { inputs: vec![0, 1, 2, 3], dsts: vec![4], temps: vec![5] };
        let err = synthesize(&[e], &rows, CompileMode::LowLatency, 2).unwrap_err();
        assert!(matches!(err, CoreError::CapacityExceeded { .. }), "{err}");
    }

    #[test]
    fn too_many_inputs_refused() {
        let v = Expr::var;
        let mut e = v(0);
        for i in 1..=MAX_VARS {
            e = e ^ v(i);
        }
        let rows = ops(MAX_VARS + 1, 1, 8);
        let err = synthesize(&[e], &rows, CompileMode::LowLatency, 2).unwrap_err();
        assert!(matches!(err, CoreError::SynthesisFailed(_)), "{err}");
    }

    #[test]
    fn high_throughput_mode_keeps_single_wordline_commands() {
        let v = Expr::var;
        let e = !(v(0) & v(1)) ^ v(2);
        let rows = ops(3, 1, 3);
        let s =
            synthesize(std::slice::from_ref(&e), &rows, CompileMode::HighThroughput, 1).unwrap();
        run_and_check(&[e], &rows, &s.program, 1);
        for p in s.program.primitives() {
            assert!(
                !matches!(
                    p,
                    Primitive::OAap { .. }
                        | Primitive::OApp { .. }
                        | Primitive::OtApp { .. }
                        | Primitive::OAppCopy { .. }
                ),
                "high-throughput synthesis must not emit overlapped commands: {p}"
            );
        }
    }

    #[test]
    fn synthesis_agrees_with_greedy_by_verify_transform() {
        use crate::analysis::verify_transform;
        let v = Expr::var;
        for expr in [
            v(0) ^ v(1),
            Expr::majority(v(0), v(1), v(2)),
            (v(0) & v(1)) | (!v(2) ^ v(0)),
            !(v(0) | (v(1) & v(2))),
        ] {
            let n = expr.max_var().unwrap() + 1;
            let rows = ops(n, 1, 6);
            let s =
                synthesize(std::slice::from_ref(&expr), &rows, CompileMode::LowLatency, 2).unwrap();
            let greedy_rows = ExprOperands {
                inputs: rows.inputs.clone(),
                dst: rows.dsts[0],
                temps: rows.temps.clone(),
            };
            let greedy =
                compile_expr_greedy(&expr, &greedy_rows, CompileMode::LowLatency, 2).unwrap();
            verify_transform(&greedy, &s.program, Some(&[PhysRow::Data(rows.dsts[0])]))
                .unwrap_or_else(|e| panic!("{expr}: {e}"));
        }
    }
}
