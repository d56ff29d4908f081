//! `synth`: a seeded draw of random expression DAGs (2–4 inputs, depth ≤ 3,
//! AND/OR/XOR/NOT/MAJ/ITE). A request compiles one expression with
//! `expr::compile_expr` (e-graph synthesis with the greedy fallback) and
//! runs it with `SubarrayEngine::run_verified` on 8 KB rows. Reference:
//! `Expr::eval_bitvec`. The draw keeps every expression, the slow ones too.

use crate::rng::Rng;
use crate::stats::{median, ratio};
use crate::trace::Trace;
use crate::{Metrics, Workload};
use elp2im_core::analysis::analyze;
use elp2im_core::compile::CompileMode;
use elp2im_core::expr::{compile_expr, compile_expr_greedy, Expr, ExprOperands};
use elp2im_core::synth::{synthesize, SynthOperands};
use elp2im_core::validate::SubarrayShape;
use elp2im_core::{BitVec, RowRef, SubarrayEngine};
use elp2im_dram::power::PowerModel;
use elp2im_dram::timing::Ddr3Timing;
use std::rc::Rc;
use std::time::Duration;

/// 8 KB rows.
const ROW_BITS: usize = 1 << 16;
const MAX_INPUTS: u64 = 4;
const DEPTH: u32 = 3;
const DATA_ROWS: usize = 32;
const RESERVED: usize = 2;
const DST: usize = MAX_INPUTS as usize;
const MODE: CompileMode = CompileMode::LowLatency;

pub struct Synth {
    seed: u64,
    engine: SubarrayEngine,
    /// A copy of the engine the traced phase replays programs on
    /// (unverified `run`: word work only).
    replay: SubarrayEngine,
    inputs: Vec<BitVec>,
    timing: Ddr3Timing,
    power: PowerModel,
}

pub struct Drawn {
    expr: Expr,
    vars: usize,
}

pub struct Out {
    expr: Expr,
    bits: BitVec,
    program_len: usize,
    modeled: (f64, f64),
}

/// A random node of depth ≤ `depth`; with `pool`, earlier nodes are reused
/// so the expression is a DAG.
fn draw(rng: &mut Rng, vars: u64, depth: u32, root: bool, pool: &mut Vec<(Expr, u32)>) -> Expr {
    if depth == 0 || (!root && rng.below(5) == 0) {
        return Expr::Var(rng.below(vars) as usize);
    }
    if !root && rng.below(4) == 0 {
        let fits: Vec<&(Expr, u32)> = pool.iter().filter(|(_, d)| *d <= depth).collect();
        if !fits.is_empty() {
            return fits[rng.below(fits.len() as u64) as usize].0.clone();
        }
    }
    let mut kid = |rng: &mut Rng| Rc::new(draw(rng, vars, depth - 1, false, pool));
    let e = match rng.below(6) {
        0 => Expr::Not(kid(rng)),
        1 => Expr::And(kid(rng), kid(rng)),
        2 => Expr::Or(kid(rng), kid(rng)),
        3 => Expr::Xor(kid(rng), kid(rng)),
        4 => Expr::Maj(kid(rng), kid(rng), kid(rng)),
        _ => Expr::Ite(kid(rng), kid(rng), kid(rng)),
    };
    pool.push((e.clone(), depth));
    e
}

fn operands(vars: usize) -> ExprOperands {
    ExprOperands { inputs: (0..vars).collect(), dst: DST, temps: (DST + 1..DATA_ROWS).collect() }
}

impl Workload for Synth {
    type In = Drawn;
    type Out = Out;
    const REPLAY: usize = 16;
    const RSS_AFTER: usize = 8;

    fn setup(seed: u64) -> Result<(Self, Option<Duration>), String> {
        let mut engine = SubarrayEngine::new(ROW_BITS, DATA_ROWS, RESERVED);
        let mut rng = Rng::new(seed, u64::MAX);
        let inputs: Vec<BitVec> = (0..MAX_INPUTS).map(|_| rng.bitvec_dense(ROW_BITS, 1)).collect();
        for (i, bits) in inputs.iter().enumerate() {
            engine.write_row(i, bits.clone()).map_err(|e| format!("input row {i}: {e}"))?;
        }
        let replay = engine.clone();
        let (timing, power) = (Ddr3Timing::ddr3_1600(), PowerModel::micron_ddr3_1600());
        Ok((Synth { seed, engine, replay, inputs, timing, power }, None))
    }

    fn input(&mut self, req: u64) -> Drawn {
        let mut rng = Rng::new(self.seed, req);
        let vars = 2 + rng.below(MAX_INPUTS - 1);
        Drawn { expr: draw(&mut rng, vars, DEPTH, true, &mut Vec::new()), vars: vars as usize }
    }

    fn request(&mut self, d: Drawn, tr: Option<&mut Trace>) -> Result<Out, String> {
        let rows = operands(d.vars);
        let program = match tr {
            None => compile_expr(&d.expr, &rows, MODE, RESERVED).map_err(|e| format!("{e}"))?,
            Some(t) => self.compile_traced(&d.expr, &rows, t)?,
        };
        self.engine.run_verified(&program).map_err(|e| format!("run_verified: {e}"))?;
        let bits = self.engine.row(RowRef::Data(DST)).map_err(|e| format!("result row: {e}"))?;
        std::hint::black_box(bits.count_ones());
        let modeled = (
            program.latency(&self.timing).as_f64(),
            program.energy(&self.timing, &self.power).as_f64(),
        );
        Ok(Out { expr: d.expr, bits, program_len: program.len(), modeled })
    }

    fn check(&mut self, out: &Out) -> Result<(), String> {
        if out.bits != out.expr.eval_bitvec(&self.inputs) {
            return Err(format!("result of {} differs from eval_bitvec", out.expr));
        }
        Ok(())
    }

    fn modeled(out: &Out) -> (f64, f64) {
        out.modeled
    }

    fn fingerprint(out: &Out) -> Vec<u64> {
        vec![out.bits.count_ones() as u64, out.program_len as u64]
    }

    fn layer_metrics(&self, tr: &Trace, m: &mut Metrics) {
        let requests = tr.values("synth.requests").len() as f64;
        m.set("synth.ms", median(&tr.durations_us("synth.synthesize")) / 1e3);
        m.set("synth.egraph_nodes", median(&tr.values("synth.egraph_nodes")));
        m.set("synth.saturated_frac", ratio(tr.total("synth.saturated"), requests));
        m.set("synth.fallback_frac", ratio(tr.total("synth.fallback"), requests));
        m.set("synth.gates", median(&tr.values("synth.gates")));
        m.set(
            "synth.modeled_over_greedy",
            ratio(tr.total("synth.modeled_ns"), tr.total("greedy.modeled_ns")),
        );
        m.set("greedy.ms", median(&tr.durations_us("greedy.compile")) / 1e3);
        m.set("analysis.analyze_us", median(&tr.durations_us("analysis.analyze")));
    }
}

impl Synth {
    /// `compile_expr`, stage by stage: synthesis, the greedy fallback when
    /// synthesis fails, plus the greedy lowering and a static analysis of
    /// the result as references.
    fn compile_traced(
        &mut self,
        expr: &Expr,
        rows: &ExprOperands,
        t: &mut Trace,
    ) -> Result<elp2im_core::Program, String> {
        let root = t.open("expr.compile_expr", None);
        let srows = SynthOperands {
            inputs: rows.inputs.clone(),
            dsts: vec![rows.dst],
            temps: rows.temps.clone(),
        };
        let s = t.time("synth.synthesize", Some(root), || {
            synthesize(std::slice::from_ref(expr), &srows, MODE, RESERVED)
        });
        let greedy = t
            .time("greedy.compile", Some(root), || compile_expr_greedy(expr, rows, MODE, RESERVED))
            .map_err(|e| format!("greedy: {e}"))?;
        t.count("synth.requests", 1.0);
        let program = match s {
            Ok(s) => {
                t.count("synth.egraph_nodes", s.saturation.nodes as f64);
                t.count("synth.saturated", f64::from(u8::from(s.saturation.saturated)));
                t.count("synth.gates", s.gates as f64);
                s.program
            }
            Err(_) => {
                t.count("synth.fallback", 1.0);
                greedy.clone()
            }
        };
        t.count("synth.modeled_ns", program.latency(&self.timing).as_f64());
        t.count("greedy.modeled_ns", greedy.latency(&self.timing).as_f64());
        let shape = SubarrayShape { data_rows: DATA_ROWS, dcc_rows: RESERVED };
        let live_in = self.engine.live_rows();
        let report = t.time("analysis.analyze", Some(root), || analyze(&program, shape, &live_in));
        if !report.is_accepted() {
            return Err(format!("analyzer rejected the program for {expr}"));
        }
        t.time("engine.kernel", Some(root), || self.replay.run(program.primitives()))
            .map_err(|e| format!("engine replay: {e}"))?;
        t.close(root);
        Ok(program)
    }
}
