//! Boolean-expression compilation (§4.2.3).
//!
//! "Because ELP2IM implements logic expression in the granularity of basic
//! AND, OR, and NOT operations, any complex logic expression is required
//! to be decomposed into the basic operations and executed sequentially …
//! it is important to simplify the Boolean expression to the minimized
//! form and explore more buffers for the reused data."
//!
//! [`Expr`] is a small Boolean AST over row-variables (now including the
//! MAJ/MUX/ITE connectives common in in-memory logic synthesis);
//! [`compile_expr`] lowers it to a primitive [`Program`]. It first tries
//! the e-graph logic synthesizer ([`crate::synth`]) — equality saturation
//! plus latency-aware extraction, translation-validated against the
//! truth-table oracle — and falls back to [`compile_expr_greedy`], the
//! direct structural lowering, past the [`MAX_VARS`] analysis budget. The
//! greedy path allocates temporary rows, reuses common subexpressions
//! (one compute per distinct subterm — the "more than one copy of a
//! variable" case of the Boolean median example), frees temporaries as
//! their last use passes, and steers the root compute directly into the
//! destination row so no trailing copy is emitted.

use crate::analysis::MAX_VARS;
use crate::bitvec::BitVec;
use crate::compile::{compile, CompileMode, LogicOp, Operands};
use crate::error::CoreError;
use crate::isa::Program;
use crate::primitive::Primitive;
use crate::synth::{synthesize, SynthOperands};
use std::collections::HashMap;
use std::fmt;
use std::ops::{BitAnd, BitOr, BitXor, Not};
use std::rc::Rc;

/// A Boolean expression over input variables (row indices are bound at
/// compile time).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Expr {
    /// Input variable `i`.
    Var(usize),
    /// Logical negation.
    Not(Rc<Expr>),
    /// Conjunction.
    And(Rc<Expr>, Rc<Expr>),
    /// Disjunction.
    Or(Rc<Expr>, Rc<Expr>),
    /// Exclusive or.
    Xor(Rc<Expr>, Rc<Expr>),
    /// Three-input majority `ab + ac + bc` (a first-class node so the
    /// synthesizer can apply MAJ-specific rewrites before decomposing).
    Maj(Rc<Expr>, Rc<Expr>, Rc<Expr>),
    /// If-then-else / 2:1 multiplexer: `ite(c, t, f) = c·t + !c·f`.
    Ite(Rc<Expr>, Rc<Expr>, Rc<Expr>),
}

impl Expr {
    /// Input variable `i`.
    pub fn var(i: usize) -> Expr {
        Expr::Var(i)
    }

    /// Three-input majority as a first-class [`Expr::Maj`] node.
    pub fn maj(a: Expr, b: Expr, c: Expr) -> Expr {
        Expr::Maj(Rc::new(a), Rc::new(b), Rc::new(c))
    }

    /// If-then-else as a first-class [`Expr::Ite`] node.
    pub fn ite(c: Expr, t: Expr, f: Expr) -> Expr {
        Expr::Ite(Rc::new(c), Rc::new(t), Rc::new(f))
    }

    /// 2:1 multiplexer — `sel ? a : b`, an alias for [`Expr::ite`].
    pub fn mux(sel: Expr, a: Expr, b: Expr) -> Expr {
        Expr::ite(sel, a, b)
    }

    /// The Boolean median (majority) of three expressions — the paper's
    /// §4.2.3 example `AB + AC + BC`, kept in sum-of-products form (use
    /// [`Expr::maj`] for the first-class node).
    pub fn majority(a: Expr, b: Expr, c: Expr) -> Expr {
        (a.clone() & b.clone()) | (a & c.clone()) | (b & c)
    }

    /// Evaluates over scalar inputs.
    ///
    /// # Panics
    ///
    /// Panics if a variable index exceeds `inputs`.
    pub fn eval(&self, inputs: &[bool]) -> bool {
        match self {
            Expr::Var(i) => inputs[*i],
            Expr::Not(e) => !e.eval(inputs),
            Expr::And(a, b) => a.eval(inputs) && b.eval(inputs),
            Expr::Or(a, b) => a.eval(inputs) || b.eval(inputs),
            Expr::Xor(a, b) => a.eval(inputs) ^ b.eval(inputs),
            Expr::Maj(a, b, c) => {
                let (a, b, c) = (a.eval(inputs), b.eval(inputs), c.eval(inputs));
                (a && (b || c)) || (b && c)
            }
            Expr::Ite(c, t, f) => {
                if c.eval(inputs) {
                    t.eval(inputs)
                } else {
                    f.eval(inputs)
                }
            }
        }
    }

    /// Evaluates column-wise over bit-vector inputs.
    ///
    /// # Panics
    ///
    /// Panics if a variable index exceeds `inputs` or lengths differ.
    pub fn eval_bitvec(&self, inputs: &[BitVec]) -> BitVec {
        match self {
            Expr::Var(i) => inputs[*i].clone(),
            Expr::Not(e) => e.eval_bitvec(inputs).not(),
            Expr::And(a, b) => a.eval_bitvec(inputs).and(&b.eval_bitvec(inputs)),
            Expr::Or(a, b) => a.eval_bitvec(inputs).or(&b.eval_bitvec(inputs)),
            Expr::Xor(a, b) => a.eval_bitvec(inputs).xor(&b.eval_bitvec(inputs)),
            Expr::Maj(a, b, c) => {
                let (a, b, c) =
                    (a.eval_bitvec(inputs), b.eval_bitvec(inputs), c.eval_bitvec(inputs));
                a.and(&b).or(&a.and(&c)).or(&b.and(&c))
            }
            Expr::Ite(c, t, f) => {
                let c = c.eval_bitvec(inputs);
                c.and(&t.eval_bitvec(inputs)).or(&c.not().and(&f.eval_bitvec(inputs)))
            }
        }
    }

    /// Rewrites MAJ and ITE nodes into the AND/OR/NOT basis, preserving
    /// structural sharing (a subterm referenced twice expands once):
    /// `maj(a,b,c) → ab + c·(a+b)` and `ite(c,t,f) → c·t + !c·f`.
    pub fn expand(&self) -> Expr {
        fn go(e: &Expr, memo: &mut HashMap<Expr, Rc<Expr>>) -> Rc<Expr> {
            if let Some(r) = memo.get(e) {
                return Rc::clone(r);
            }
            let out = match e {
                Expr::Var(i) => Rc::new(Expr::Var(*i)),
                Expr::Not(x) => Rc::new(Expr::Not(go(x, memo))),
                Expr::And(a, b) => Rc::new(Expr::And(go(a, memo), go(b, memo))),
                Expr::Or(a, b) => Rc::new(Expr::Or(go(a, memo), go(b, memo))),
                Expr::Xor(a, b) => Rc::new(Expr::Xor(go(a, memo), go(b, memo))),
                Expr::Maj(a, b, c) => {
                    let (a, b, c) = (go(a, memo), go(b, memo), go(c, memo));
                    let ab = Rc::new(Expr::And(Rc::clone(&a), Rc::clone(&b)));
                    let a_or_b = Rc::new(Expr::Or(a, b));
                    Rc::new(Expr::Or(ab, Rc::new(Expr::And(c, a_or_b))))
                }
                Expr::Ite(c, t, f) => {
                    let (c, t, f) = (go(c, memo), go(t, memo), go(f, memo));
                    let nc = Rc::new(Expr::Not(Rc::clone(&c)));
                    let then_arm = Rc::new(Expr::And(c, t));
                    let else_arm = Rc::new(Expr::And(nc, f));
                    Rc::new(Expr::Or(then_arm, else_arm))
                }
            };
            memo.insert(e.clone(), Rc::clone(&out));
            out
        }
        go(self, &mut HashMap::new()).as_ref().clone()
    }

    /// Number of distinct (hash-consed) internal nodes — the compute count
    /// after common-subexpression elimination.
    pub fn distinct_ops(&self) -> usize {
        fn walk(e: &Expr, seen: &mut HashMap<Expr, ()>) {
            if matches!(e, Expr::Var(_)) || seen.contains_key(e) {
                return;
            }
            seen.insert(e.clone(), ());
            match e {
                Expr::Var(_) => {}
                Expr::Not(x) => walk(x, seen),
                Expr::And(a, b) | Expr::Or(a, b) | Expr::Xor(a, b) => {
                    walk(a, seen);
                    walk(b, seen);
                }
                Expr::Maj(a, b, c) | Expr::Ite(a, b, c) => {
                    walk(a, seen);
                    walk(b, seen);
                    walk(c, seen);
                }
            }
        }
        let mut seen = HashMap::new();
        walk(self, &mut seen);
        seen.len()
    }

    /// Highest variable index used, if any.
    pub fn max_var(&self) -> Option<usize> {
        fn fold(xs: &[Option<usize>]) -> Option<usize> {
            xs.iter().copied().flatten().max()
        }
        match self {
            Expr::Var(i) => Some(*i),
            Expr::Not(e) => e.max_var(),
            Expr::And(a, b) | Expr::Or(a, b) | Expr::Xor(a, b) => fold(&[a.max_var(), b.max_var()]),
            Expr::Maj(a, b, c) | Expr::Ite(a, b, c) => {
                fold(&[a.max_var(), b.max_var(), c.max_var()])
            }
        }
    }
}

impl Not for Expr {
    type Output = Expr;
    fn not(self) -> Expr {
        Expr::Not(Rc::new(self))
    }
}

impl BitAnd for Expr {
    type Output = Expr;
    fn bitand(self, rhs: Expr) -> Expr {
        Expr::And(Rc::new(self), Rc::new(rhs))
    }
}

impl BitOr for Expr {
    type Output = Expr;
    fn bitor(self, rhs: Expr) -> Expr {
        Expr::Or(Rc::new(self), Rc::new(rhs))
    }
}

impl BitXor for Expr {
    type Output = Expr;
    fn bitxor(self, rhs: Expr) -> Expr {
        Expr::Xor(Rc::new(self), Rc::new(rhs))
    }
}

impl fmt::Display for Expr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Expr::Var(i) => write!(f, "v{i}"),
            Expr::Not(e) => write!(f, "!({e})"),
            Expr::And(a, b) => write!(f, "({a} & {b})"),
            Expr::Or(a, b) => write!(f, "({a} | {b})"),
            Expr::Xor(a, b) => write!(f, "({a} ^ {b})"),
            Expr::Maj(a, b, c) => write!(f, "maj({a}, {b}, {c})"),
            Expr::Ite(c, t, e) => write!(f, "ite({c}, {t}, {e})"),
        }
    }
}

/// Row assignment for an expression compilation.
#[derive(Debug, Clone)]
pub struct ExprOperands {
    /// Data-row index of each input variable.
    pub inputs: Vec<usize>,
    /// Destination row for the result.
    pub dst: usize,
    /// Temporary rows the compiler may use (distinct from inputs/dst).
    pub temps: Vec<usize>,
}

/// Compiles `expr` into a primitive program computing it into `rows.dst`.
///
/// This is a thin front-end over two lowerings:
///
/// 1. [`crate::synth::synthesize`] — the e-graph logic synthesizer, tried
///    first whenever the input count fits the [`MAX_VARS`] exhaustive
///    truth-table budget. Its result is always translation-validated.
/// 2. [`compile_expr_greedy`] — the direct structural lowering, used past
///    the budget or whenever synthesis cannot place the network in the
///    provided rows.
///
/// # Errors
///
/// * [`CoreError::UnknownVariable`] when the expression names a variable
///   beyond `rows.inputs`.
/// * [`CoreError::CapacityExceeded`] when `rows.temps` cannot hold the
///   live intermediate set under either lowering.
/// * Compilation errors of the basic operations propagate.
pub fn compile_expr(
    expr: &Expr,
    rows: &ExprOperands,
    mode: CompileMode,
    reserved_rows: usize,
) -> Result<Program, CoreError> {
    if let Some(max) = expr.max_var() {
        if max >= rows.inputs.len() {
            return Err(CoreError::UnknownVariable { var: max, inputs: rows.inputs.len() });
        }
    }
    if rows.inputs.len() <= MAX_VARS {
        let synth_rows = SynthOperands {
            inputs: rows.inputs.clone(),
            dsts: vec![rows.dst],
            temps: rows.temps.clone(),
        };
        if let Ok(s) = synthesize(std::slice::from_ref(expr), &synth_rows, mode, reserved_rows) {
            return Ok(s.program);
        }
    }
    compile_expr_greedy(expr, rows, mode, reserved_rows)
}

/// The direct structural lowering: MAJ/ITE nodes are expanded into the
/// AND/OR/NOT/XOR basis, common subexpressions are computed once,
/// temporaries are recycled after their last use, and the root compute is
/// steered into `rows.dst` (no trailing copy) whenever `rows.dst` is not
/// one of its own operand rows.
///
/// # Errors
///
/// Same contract as [`compile_expr`].
pub fn compile_expr_greedy(
    expr: &Expr,
    rows: &ExprOperands,
    mode: CompileMode,
    reserved_rows: usize,
) -> Result<Program, CoreError> {
    if let Some(max) = expr.max_var() {
        if max >= rows.inputs.len() {
            return Err(CoreError::UnknownVariable { var: max, inputs: rows.inputs.len() });
        }
    }
    let expanded = expr.expand();
    let mut ctx = Ctx {
        rows,
        mode,
        reserved_rows,
        free: rows.temps.iter().rev().copied().collect(),
        computed: HashMap::new(),
        uses: HashMap::new(),
        prims: Vec::new(),
    };
    count_uses(&expanded, &mut ctx.uses);
    let result_row = lower(&expanded, &mut ctx, Some(rows.dst))?;
    if result_row != rows.dst {
        // Var roots or a steering conflict (dst aliases an operand): copy
        // the final value into the destination (an AAP).
        ctx.prims.push(Primitive::Aap {
            src: crate::primitive::RowRef::Data(result_row),
            dst: crate::primitive::RowRef::Data(rows.dst),
        });
    }
    Ok(Program::new(format!("expr({expr})"), ctx.prims))
}

/// The analytical live-set bound of the greedy lowering: the exact peak
/// number of temporary rows [`compile_expr_greedy`] holds live at once
/// (assuming the destination row is steerable, i.e. distinct from every
/// input and temp — the documented [`ExprOperands`] contract). Providing
/// `temps.len() == temp_bound(expr)` is always sufficient.
pub fn temp_bound(expr: &Expr) -> usize {
    let expanded = expr.expand();
    let mut uses = HashMap::new();
    count_uses(&expanded, &mut uses);
    struct Sim {
        uses: HashMap<Expr, usize>,
        /// Subexpression → remaining uses (present while its temp lives).
        computed: HashMap<Expr, usize>,
        live: usize,
        peak: usize,
    }
    impl Sim {
        fn consume(&mut self, e: &Expr) {
            if matches!(e, Expr::Var(_)) {
                return;
            }
            if let Some(remaining) = self.computed.get_mut(e) {
                *remaining -= 1;
                if *remaining == 0 {
                    self.computed.remove(e);
                    self.live -= 1;
                }
            }
        }
        /// Mirrors `lower` exactly: children first, then the allocation
        /// (skipped at a steered root), then the children's releases.
        fn walk(&mut self, e: &Expr, steered_root: bool) {
            if matches!(e, Expr::Var(_)) || self.computed.contains_key(e) {
                return;
            }
            let children: Vec<&Rc<Expr>> = match e {
                Expr::Var(_) => vec![],
                Expr::Not(x) => vec![x],
                Expr::And(a, b) | Expr::Or(a, b) | Expr::Xor(a, b) => vec![a, b],
                Expr::Maj(..) | Expr::Ite(..) => unreachable!("expanded before lowering"),
            };
            for c in &children {
                self.walk(c, false);
            }
            if !steered_root {
                self.live += 1;
                self.peak = self.peak.max(self.live);
            }
            let uses = self.uses.get(e).copied().unwrap_or(1);
            if !steered_root {
                self.computed.insert(e.clone(), uses);
            }
            for c in children {
                self.consume(c);
            }
        }
    }
    let mut sim = Sim { uses, computed: HashMap::new(), live: 0, peak: 0 };
    sim.walk(&expanded, true);
    sim.peak
}

struct Ctx<'a> {
    rows: &'a ExprOperands,
    mode: CompileMode,
    reserved_rows: usize,
    free: Vec<usize>,
    /// Subexpression → (row, remaining uses).
    computed: HashMap<Expr, (usize, usize)>,
    uses: HashMap<Expr, usize>,
    prims: Vec<Primitive>,
}

fn count_uses(e: &Expr, uses: &mut HashMap<Expr, usize>) {
    if matches!(e, Expr::Var(_)) {
        return;
    }
    let n = uses.entry(e.clone()).or_insert(0);
    *n += 1;
    if *n > 1 {
        return; // children already counted on first visit
    }
    match e {
        Expr::Var(_) => {}
        Expr::Not(x) => count_uses(x, uses),
        Expr::And(a, b) | Expr::Or(a, b) | Expr::Xor(a, b) => {
            count_uses(a, uses);
            count_uses(b, uses);
        }
        Expr::Maj(a, b, c) | Expr::Ite(a, b, c) => {
            count_uses(a, uses);
            count_uses(b, uses);
            count_uses(c, uses);
        }
    }
}

impl Ctx<'_> {
    fn alloc(&mut self) -> Result<usize, CoreError> {
        self.free.pop().ok_or(CoreError::CapacityExceeded { rows: self.rows.temps.len() })
    }

    /// Marks one use of a computed subexpression's row; frees it when no
    /// uses remain (inputs and the steered destination are never freed).
    fn consume(&mut self, e: &Expr, row: usize) {
        if matches!(e, Expr::Var(_)) {
            return;
        }
        if let Some((r, remaining)) = self.computed.get_mut(e) {
            debug_assert_eq!(*r, row);
            *remaining -= 1;
            if *remaining == 0 {
                self.computed.remove(e);
                if self.rows.temps.contains(&row) {
                    self.free.push(row);
                }
            }
        }
    }
}

/// Lowers `e`, returning the row holding its value. A `sink` steers the
/// final compute directly into that row when it does not alias an operand.
fn lower(e: &Expr, ctx: &mut Ctx<'_>, sink: Option<usize>) -> Result<usize, CoreError> {
    if let Expr::Var(i) = e {
        return Ok(ctx.rows.inputs[*i]);
    }
    if let Some((row, _)) = ctx.computed.get(e) {
        return Ok(*row);
    }
    let (op, row_a, row_b, ka, kb) = match e {
        Expr::Var(_) => unreachable!("handled above"),
        Expr::Maj(..) | Expr::Ite(..) => unreachable!("expanded before lowering"),
        Expr::Not(x) => {
            let ra = lower(x, ctx, None)?;
            (LogicOp::Not, ra, ra, Some(x.as_ref().clone()), None)
        }
        Expr::And(a, b) => {
            let ra = lower(a, ctx, None)?;
            let rb = lower(b, ctx, None)?;
            (LogicOp::And, ra, rb, Some(a.as_ref().clone()), Some(b.as_ref().clone()))
        }
        Expr::Or(a, b) => {
            let ra = lower(a, ctx, None)?;
            let rb = lower(b, ctx, None)?;
            (LogicOp::Or, ra, rb, Some(a.as_ref().clone()), Some(b.as_ref().clone()))
        }
        Expr::Xor(a, b) => {
            let ra = lower(a, ctx, None)?;
            let rb = lower(b, ctx, None)?;
            (LogicOp::Xor, ra, rb, Some(a.as_ref().clone()), Some(b.as_ref().clone()))
        }
    };
    let dst = match sink {
        Some(d) if d != row_a && d != row_b => d,
        _ => ctx.alloc()?,
    };
    let operands = Operands { a: row_a, b: row_b, dst, scratch: None };
    let prog = compile(op, ctx.mode, operands, ctx.reserved_rows)?;
    ctx.prims.extend(prog.primitives().iter().copied());
    // Record before consuming children so self-referencing frees work.
    let uses = ctx.uses.get(e).copied().unwrap_or(1);
    ctx.computed.insert(e.clone(), (dst, uses));
    if let Some(a) = ka {
        ctx.consume(&a, row_a);
    }
    if let Some(b) = kb {
        ctx.consume(&b, row_b);
    }
    Ok(dst)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::SubarrayEngine;
    use crate::primitive::RowRef;
    use elp2im_dram::timing::Ddr3Timing;

    fn check_with(
        expr: &Expr,
        n_vars: usize,
        compiler: fn(&Expr, &ExprOperands, CompileMode, usize) -> Result<Program, CoreError>,
    ) -> Program {
        let width = 1 << n_vars; // enumerate the whole truth table
        let inputs: Vec<BitVec> =
            (0..n_vars).map(|v| (0..width).map(|row| (row >> v) & 1 == 1).collect()).collect();
        let rows = ExprOperands {
            inputs: (0..n_vars).collect(),
            dst: n_vars,
            temps: (n_vars + 1..n_vars + 9).collect(),
        };
        let prog = compiler(expr, &rows, CompileMode::LowLatency, 2).unwrap();
        let mut e = SubarrayEngine::new(width, n_vars + 10, 2);
        for (i, v) in inputs.iter().enumerate() {
            e.write_row(i, v.clone()).unwrap();
        }
        e.write_row(rows.dst, BitVec::zeros(width)).unwrap();
        for &t in &rows.temps {
            e.write_row(t, BitVec::zeros(width)).unwrap();
        }
        e.run(prog.primitives()).unwrap_or_else(|err| panic!("{expr}: {err}"));
        let got = e.row(RowRef::Data(rows.dst)).unwrap();
        assert_eq!(got, expr.eval_bitvec(&inputs), "{expr}");
        prog
    }

    /// Checks the default (synthesis-first) front-end AND the greedy path.
    fn check(expr: &Expr, n_vars: usize) -> Program {
        check_with(expr, n_vars, compile_expr_greedy);
        check_with(expr, n_vars, compile_expr)
    }

    #[test]
    fn simple_expressions_compile_and_compute() {
        let v = Expr::var;
        check(&(v(0) & v(1)), 2);
        check(&(v(0) | v(1)), 2);
        check(&(v(0) ^ v(1)), 2);
        check(&!(v(0) & v(1)), 2);
        check(&(!(v(0)) | (v(1) & v(2))), 3);
    }

    #[test]
    fn maj_and_ite_nodes_compile_on_both_paths() {
        let v = Expr::var;
        check(&Expr::maj(v(0), v(1), v(2)), 3);
        check(&Expr::ite(v(0), v(1), v(2)), 3);
        check(&Expr::mux(v(2), !v(0), v(1) ^ v(0)), 3);
        check(&(Expr::maj(v(0), v(1), v(2)) ^ v(3)), 4);
    }

    /// §4.2.3: the Boolean median `AB + AC + BC`.
    #[test]
    fn majority_of_three() {
        let m = Expr::majority(Expr::var(0), Expr::var(1), Expr::var(2));
        let prog = check(&m, 3);
        // 3 ANDs + 2 ORs = 5 computes; each LowLatency op is 3 commands.
        // Root steering removes the old trailing copy, and synthesis
        // re-factors to 4 gates.
        assert!(prog.len() <= 5 * 3, "{} commands", prog.len());
    }

    /// Common subexpressions are computed once.
    #[test]
    fn cse_reuses_shared_subterms() {
        let v = Expr::var;
        let shared = v(0) ^ v(1);
        let expr = (shared.clone() & v(2)) | (shared.clone() ^ v(3));
        assert_eq!(expr.distinct_ops(), 4); // xor, and, xor, or
        let prog = check(&expr, 4);

        // Without CSE the shared XOR would compile twice (7 commands each
        // with one buffer; 6–7 here). With CSE: one XOR + AND + XOR + OR.
        let naive_commands = 7 + 3 + 7 + 3 + 1 + 7; // duplicate xor
        assert!(prog.len() < naive_commands, "CSE should save commands: got {}", prog.len());
    }

    /// Deep chains recycle temporaries instead of exhausting them.
    #[test]
    fn temporaries_are_recycled() {
        let v = Expr::var;
        // ((((v0 & v1) | v1) ^ v0) & v1) … 8 levels deep, only 8 temps.
        let mut e = v(0) & v(1);
        for i in 0..8 {
            e = match i % 3 {
                0 => e | v(1),
                1 => e ^ v(0),
                _ => e & v(1),
            };
        }
        check(&e, 2);
    }

    /// The root compute lands directly in `dst`: an `a & b` expression is
    /// exactly one compiled AND, with no trailing copy.
    #[test]
    fn root_is_steered_into_dst() {
        let t = Ddr3Timing::ddr3_1600();
        let e = Expr::var(0) & Expr::var(1);
        let rows = ExprOperands { inputs: vec![0, 1], dst: 2, temps: vec![3, 4] };
        let reference =
            compile(LogicOp::And, CompileMode::LowLatency, Operands::standard(), 2).unwrap();
        for compiler in [compile_expr_greedy, compile_expr] {
            let prog = compiler(&e, &rows, CompileMode::LowLatency, 2).unwrap();
            assert_eq!(prog.len(), reference.len(), "no trailing copy: {prog}");
            assert!(
                !matches!(prog.primitives().last(), Some(Primitive::Aap { .. })),
                "root not steered: {prog}"
            );
            assert_eq!(prog.latency(&t), reference.latency(&t));
        }
    }

    #[test]
    fn exhausting_temps_is_reported() {
        let v = Expr::var;
        // Two independent live intermediates but only one temp: both the
        // synthesizer and the greedy path must report exhaustion (the
        // expression is irreducible, so no rewrite can shrink it).
        let e = (v(0) & v(1)) ^ (v(2) | v(3));
        let rows = ExprOperands { inputs: vec![0, 1, 2, 3], dst: 4, temps: vec![5] };
        for compiler in [compile_expr_greedy, compile_expr] {
            let err = compiler(&e, &rows, CompileMode::LowLatency, 2).unwrap_err();
            assert!(matches!(err, CoreError::CapacityExceeded { .. }), "{err}");
        }
        assert_eq!(temp_bound(&e), 2);
        let enough = ExprOperands { inputs: vec![0, 1, 2, 3], dst: 4, temps: vec![5, 6] };
        compile_expr_greedy(&e, &enough, CompileMode::LowLatency, 2).unwrap();
    }

    #[test]
    fn temp_bound_is_exact_for_known_shapes() {
        let v = Expr::var;
        assert_eq!(temp_bound(&v(0)), 0); // bare copy
        assert_eq!(temp_bound(&(v(0) & v(1))), 0); // steered root
        assert_eq!(temp_bound(&((v(0) & v(1)) | v(2))), 1);
        assert_eq!(temp_bound(&((v(0) & v(1)) ^ (v(2) | v(3)))), 2);
        // The shared subterm stays live across both consumers, so the peak
        // is {shared, and, xor} = 3 even though only two operands feed the
        // root at once.
        let shared = v(0) ^ v(1);
        let e = (shared.clone() & v(2)) | (shared ^ v(3));
        assert_eq!(temp_bound(&e), 3);
    }

    #[test]
    fn unknown_variable_rejected() {
        let rows = ExprOperands { inputs: vec![0], dst: 1, temps: vec![2, 3] };
        let err = compile_expr(&Expr::var(5), &rows, CompileMode::LowLatency, 1).unwrap_err();
        assert_eq!(err, CoreError::UnknownVariable { var: 5, inputs: 1 });
        let err = compile_expr_greedy(&Expr::var(5), &rows, CompileMode::LowLatency, 1);
        assert_eq!(err, Err(CoreError::UnknownVariable { var: 5, inputs: 1 }));
    }

    #[test]
    fn display_and_metadata() {
        let e = Expr::majority(Expr::var(0), Expr::var(1), Expr::var(2));
        let s = e.to_string();
        assert!(s.contains('&') && s.contains('|'), "{s}");
        assert_eq!(e.max_var(), Some(2));
        assert_eq!(e.distinct_ops(), 5);
        assert_eq!(Expr::var(3).max_var(), Some(3));
        let m = Expr::maj(Expr::var(0), Expr::var(1), Expr::var(2));
        assert_eq!(m.to_string(), "maj(v0, v1, v2)");
        assert_eq!(m.max_var(), Some(2));
        assert_eq!(m.distinct_ops(), 1);
        let i = Expr::ite(Expr::var(0), Expr::var(1), Expr::var(2));
        assert_eq!(i.to_string(), "ite(v0, v1, v2)");
        assert_eq!(i.expand().to_string(), "((v0 & v1) | (!(v0) & v2))");
    }

    #[test]
    fn expansion_preserves_semantics_and_sharing() {
        let v = Expr::var;
        let m = Expr::maj(v(0) ^ v(1), v(1), v(2));
        let expanded = m.expand();
        for bits in 0..8usize {
            let inputs: Vec<bool> = (0..3).map(|j| (bits >> j) & 1 == 1).collect();
            assert_eq!(m.eval(&inputs), expanded.eval(&inputs), "{bits:#b}");
        }
        // maj(s, b, c) → sb + c(s+b): the shared `s = v0^v1` appears twice
        // but is one distinct op; 1 (xor) + 4 (maj expansion) nodes.
        assert_eq!(expanded.distinct_ops(), 5);
    }

    #[test]
    fn latency_accounting_works_for_expressions() {
        let t = Ddr3Timing::ddr3_1600();
        let m = Expr::majority(Expr::var(0), Expr::var(1), Expr::var(2));
        let rows = ExprOperands { inputs: vec![0, 1, 2], dst: 3, temps: (4..12).collect() };
        let greedy = compile_expr_greedy(&m, &rows, CompileMode::LowLatency, 1).unwrap();
        // 5 ops × ~159 ns (the root steered into dst, no copy) ≈ 800 ns.
        let greedy_ns = greedy.latency(&t).as_f64();
        assert!((700.0..=1000.0).contains(&greedy_ns), "median latency {greedy_ns}");
        // The synthesis front-end re-factors AB+AC+BC to 4 gates and must
        // beat the structural lowering.
        let auto = compile_expr(&m, &rows, CompileMode::LowLatency, 1).unwrap();
        let auto_ns = auto.latency(&t).as_f64();
        assert!(auto_ns < greedy_ns, "synthesis {auto_ns} ns vs greedy {greedy_ns} ns");
    }
}
