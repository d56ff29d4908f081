//! A whole-module device: bulk bitwise operations over vectors wider than
//! one row, chunked across subarrays and banks.
//!
//! [`Elp2imModule`] combines the functional subarray engines with the
//! event-driven controller of `elp2im-dram`: a stored vector is split into
//! row-sized chunks placed round-robin over the module's subarrays
//! (operand chunks stay co-located, as in-DRAM computation requires), and
//! every bulk operation both
//!
//! * executes functionally on each chunk's [`SubarrayEngine`], and
//! * is scheduled on the multi-bank [`Controller`] under the charge-pump
//!   budget, yielding the wall-clock makespan — so the §6.3 bank-level
//!   parallelism effects are observable on real data, not just in the
//!   analytic model.

use crate::analysis::AnalysisCache;
use crate::bitvec::BitVec;
use crate::compile::{compile, CompileMode, LogicOp, Operands};
use crate::engine::SubarrayEngine;
use crate::error::CoreError;
use crate::rowmap::RowAllocator;
use elp2im_dram::constraint::PumpBudget;
use elp2im_dram::controller::Controller;
use elp2im_dram::geometry::Geometry;
use elp2im_dram::stats::RunStats;

/// Per-bank command streams handed to the controller.
type BankStreams = Vec<(usize, Vec<elp2im_dram::command::CommandProfile>)>;

/// Module configuration.
#[derive(Debug, Clone)]
pub struct ModuleConfig {
    /// Bank/subarray/row geometry.
    pub geometry: Geometry,
    /// Reserved dual-contact rows per subarray.
    pub reserved_rows: usize,
    /// Compilation strategy.
    pub mode: CompileMode,
    /// Charge-pump budget enforced by the controller.
    pub budget: PumpBudget,
}

impl Default for ModuleConfig {
    fn default() -> Self {
        ModuleConfig {
            geometry: Geometry::tiny(),
            reserved_rows: 1,
            mode: CompileMode::LowLatency,
            budget: PumpBudget::jedec_ddr3_1600(),
        }
    }
}

/// Handle to a vector stored across the module.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct VecHandle(usize);

#[derive(Debug, Clone)]
struct VecEntry {
    len: usize,
    /// `(global subarray index, row index)` per chunk, in order.
    chunks: Vec<(usize, usize)>,
}

/// A multi-bank, multi-subarray ELP2IM module.
///
/// ```
/// use elp2im_core::module::{Elp2imModule, ModuleConfig};
/// use elp2im_core::bitvec::BitVec;
/// use elp2im_core::compile::LogicOp;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut m = Elp2imModule::new(ModuleConfig::default());
/// // A vector four times wider than one row.
/// let bits = m.row_bits() * 4;
/// let a = m.store(&BitVec::ones(bits))?;
/// let b = m.store(&BitVec::zeros(bits))?;
/// let (c, stats) = m.binary(LogicOp::Or, a, b)?;
/// assert_eq!(m.load(c)?.count_ones(), bits);
/// assert!(stats.makespan.as_f64() > 0.0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct Elp2imModule {
    config: ModuleConfig,
    engines: Vec<SubarrayEngine>,
    allocs: Vec<RowAllocator>,
    vectors: Vec<Option<VecEntry>>,
    controller: Controller,
    /// Memoizes static-analysis verdicts across chunks (a compiled program
    /// is analyzed once per distinct shape/liveness, not once per chunk).
    analysis_cache: AnalysisCache,
}

impl Elp2imModule {
    /// Creates a module with every subarray empty.
    pub fn new(config: ModuleConfig) -> Self {
        let g = &config.geometry;
        let subarrays = g.total_subarrays();
        let engines = (0..subarrays)
            .map(|_| SubarrayEngine::new(g.row_bits(), g.rows_per_subarray, config.reserved_rows))
            .collect();
        let allocs = (0..subarrays).map(|_| RowAllocator::new(g.rows_per_subarray)).collect();
        let controller = Controller::new(g.banks, config.budget.clone());
        Elp2imModule {
            config,
            engines,
            allocs,
            vectors: Vec::new(),
            controller,
            analysis_cache: AnalysisCache::new(),
        }
    }

    /// Bits per row (chunk granularity).
    pub fn row_bits(&self) -> usize {
        self.config.geometry.row_bits()
    }

    /// The module's configuration.
    pub fn config(&self) -> &ModuleConfig {
        &self.config
    }

    /// Cumulative controller statistics over every operation so far.
    pub fn stats(&self) -> &RunStats {
        self.controller.stats()
    }

    fn bank_of(&self, subarray: usize) -> usize {
        subarray / self.config.geometry.subarrays_per_bank
    }

    fn entry(&self, h: VecHandle) -> Result<&VecEntry, CoreError> {
        self.vectors.get(h.0).and_then(Option::as_ref).ok_or(CoreError::InvalidHandle(h.0))
    }

    /// Stores a vector of any length, chunked round-robin over subarrays.
    ///
    /// # Errors
    ///
    /// [`CoreError::CapacityExceeded`] if any target subarray is full.
    pub fn store(&mut self, value: &BitVec) -> Result<VecHandle, CoreError> {
        let rb = self.row_bits();
        let n_chunks = value.len().div_ceil(rb).max(1);
        let mut chunks = Vec::with_capacity(n_chunks);
        for c in 0..n_chunks {
            let sub = c % self.engines.len();
            let row = self.allocs[sub].alloc()?;
            // Word-level zero-copy chunking straight into the row arena.
            self.engines[sub].write_row_from(row, value, c * rb)?;
            chunks.push((sub, row));
        }
        let id = self.vectors.len();
        self.vectors.push(Some(VecEntry { len: value.len(), chunks }));
        Ok(VecHandle(id))
    }

    /// Loads a vector back.
    ///
    /// # Errors
    ///
    /// [`CoreError::InvalidHandle`] for dead handles.
    pub fn load(&self, h: VecHandle) -> Result<BitVec, CoreError> {
        let entry = self.entry(h)?;
        let rb = self.row_bits();
        let mut out = BitVec::zeros(entry.len);
        for (c, &(sub, row)) in entry.chunks.iter().enumerate() {
            self.engines[sub].read_row_into(row, &mut out, c * rb)?;
        }
        Ok(out)
    }

    /// Releases a vector's rows.
    ///
    /// # Errors
    ///
    /// [`CoreError::InvalidHandle`] for dead handles.
    pub fn release(&mut self, h: VecHandle) -> Result<(), CoreError> {
        let entry = self
            .vectors
            .get_mut(h.0)
            .and_then(Option::take)
            .ok_or(CoreError::InvalidHandle(h.0))?;
        for (sub, row) in entry.chunks {
            self.allocs[sub].free(row)?;
        }
        Ok(())
    }

    /// Functionally executes a unary/binary op over every chunk and
    /// returns the new handle plus the per-bank command streams — without
    /// running the controller (the caller decides what overlaps).
    fn prepare_op(
        &mut self,
        op: LogicOp,
        a: VecHandle,
        b: Option<VecHandle>,
    ) -> Result<(VecHandle, BankStreams), CoreError> {
        let ea = self.entry(a)?.clone();
        let eb = match b {
            Some(b) => {
                let eb = self.entry(b)?.clone();
                if ea.len != eb.len {
                    return Err(CoreError::WidthMismatch { expected: ea.len, got: eb.len });
                }
                Some(eb)
            }
            None => None,
        };
        let mut chunks = Vec::with_capacity(ea.chunks.len());
        let mut streams: Vec<(usize, Vec<elp2im_dram::command::CommandProfile>)> = Vec::new();
        for (ci, &(sa, ra)) in ea.chunks.iter().enumerate() {
            let rb = match &eb {
                Some(eb) => {
                    let (sb, rb) = eb.chunks[ci];
                    debug_assert_eq!(sa, sb, "round-robin placement keeps operands co-located");
                    rb
                }
                None => ra,
            };
            let dst = self.allocs[sa].alloc()?;
            let rows = Operands { a: ra, b: rb, dst, scratch: None };
            let prog = compile(op, self.config.mode, rows, self.config.reserved_rows)?;
            self.engines[sa].run_verified_cached(&prog, &self.analysis_cache)?;
            let bank = self.bank_of(sa);
            let profiles = prog.profiles(self.engines[sa].timing());
            match streams.iter_mut().find(|(bk, _)| *bk == bank) {
                Some((_, v)) => v.extend(profiles),
                None => streams.push((bank, profiles)),
            }
            chunks.push((sa, dst));
        }
        let id = self.vectors.len();
        self.vectors.push(Some(VecEntry { len: ea.len, chunks }));
        Ok((VecHandle(id), streams))
    }

    /// Executes `dst := !a` over a whole vector.
    ///
    /// # Errors
    ///
    /// Handle, capacity, and compilation errors.
    pub fn not(&mut self, a: VecHandle) -> Result<(VecHandle, RunStats), CoreError> {
        let (h, streams) = self.prepare_op(LogicOp::Not, a, None)?;
        let stats = self.controller.run_streams(&streams).map_err(CoreError::Schedule)?;
        Ok((h, stats))
    }

    /// Evaluates a Boolean [`Expr`](crate::expr::Expr) over stored
    /// vectors, reusing common subexpressions and releasing intermediates.
    /// Returns the result handle and the aggregate run statistics (the
    /// makespan sums over the sequentially executed operations).
    ///
    /// # Errors
    ///
    /// Variable indices beyond `inputs` report as
    /// [`CoreError::InvalidHandle`]; all operation errors propagate.
    pub fn eval_expr(
        &mut self,
        expr: &crate::expr::Expr,
        inputs: &[VecHandle],
    ) -> Result<(VecHandle, RunStats), CoreError> {
        use crate::expr::Expr;
        use std::collections::HashMap;

        if let Some(max) = expr.max_var() {
            if max >= inputs.len() {
                return Err(CoreError::InvalidHandle(max));
            }
        }
        // MAJ/ITE nodes lower through their AND/OR/NOT expansion here (the
        // module works gate-at-a-time; the synthesizer handles them natively).
        let expr = expr.expand();
        let mut total = RunStats::new();
        let mut cache: HashMap<Expr, VecHandle> = HashMap::new();

        fn walk(
            m: &mut Elp2imModule,
            e: &crate::expr::Expr,
            inputs: &[VecHandle],
            cache: &mut HashMap<crate::expr::Expr, VecHandle>,
            total: &mut RunStats,
        ) -> Result<VecHandle, CoreError> {
            if let Expr::Var(i) = e {
                return Ok(inputs[*i]);
            }
            if let Some(&h) = cache.get(e) {
                return Ok(h);
            }
            let (h, stats) = match e {
                Expr::Var(_) => unreachable!(),
                Expr::Not(x) => {
                    let hx = walk(m, x, inputs, cache, total)?;
                    m.not(hx)?
                }
                Expr::And(x, y) | Expr::Or(x, y) | Expr::Xor(x, y) => {
                    let op = match e {
                        Expr::And(..) => LogicOp::And,
                        Expr::Or(..) => LogicOp::Or,
                        _ => LogicOp::Xor,
                    };
                    let hx = walk(m, x, inputs, cache, total)?;
                    let hy = walk(m, y, inputs, cache, total)?;
                    m.binary(op, hx, hy)?
                }
                Expr::Maj(..) | Expr::Ite(..) => unreachable!("expanded at entry"),
            };
            // Sequential composition: makespans add (merge_parallel would
            // take the max, which models parallel composition).
            total.merge_sequential(&stats);
            cache.insert(e.clone(), h);
            Ok(h)
        }

        let result = walk(self, &expr, inputs, &mut cache, &mut total)?;
        // Release intermediates other than the result (inputs are callers').
        for (_, h) in cache {
            if h != result {
                self.release(h)?;
            }
        }
        Ok((result, total))
    }

    /// Executes `dst := op(a, b)` over whole vectors: functionally on every
    /// chunk, and scheduled on the controller for timing. Returns the new
    /// handle and this operation's run statistics (makespan included).
    ///
    /// # Errors
    ///
    /// Handle, co-location (equal lengths required), capacity, and
    /// compilation errors.
    pub fn binary(
        &mut self,
        op: LogicOp,
        a: VecHandle,
        b: VecHandle,
    ) -> Result<(VecHandle, RunStats), CoreError> {
        let (h, streams) = self.prepare_op(op, a, Some(b))?;
        let stats = self.controller.run_streams(&streams).map_err(CoreError::Schedule)?;
        Ok((h, stats))
    }

    /// Evaluates an expression like [`Elp2imModule::eval_expr`], but
    /// overlaps *independent* subexpressions: the expression DAG is
    /// processed level by level, and every operation within a level is
    /// handed to the controller in one batch, so operations on different
    /// banks execute concurrently (subject to the pump budget).
    ///
    /// # Errors
    ///
    /// Same as [`Elp2imModule::eval_expr`].
    pub fn eval_expr_parallel(
        &mut self,
        expr: &crate::expr::Expr,
        inputs: &[VecHandle],
    ) -> Result<(VecHandle, RunStats), CoreError> {
        use crate::expr::Expr;
        use std::collections::HashMap;

        if let Some(max) = expr.max_var() {
            if max >= inputs.len() {
                return Err(CoreError::InvalidHandle(max));
            }
        }
        // MAJ/ITE nodes lower through their AND/OR/NOT expansion here (the
        // module works gate-at-a-time; the synthesizer handles them natively).
        let expr = expr.expand();
        // Assign each distinct subexpression a DAG depth.
        fn depth_of(e: &Expr, depths: &mut HashMap<Expr, usize>) -> usize {
            if let Some(&d) = depths.get(e) {
                return d;
            }
            let d = match e {
                Expr::Var(_) => 0,
                Expr::Not(x) => depth_of(x, depths) + 1,
                Expr::And(a, b) | Expr::Or(a, b) | Expr::Xor(a, b) => {
                    depth_of(a, depths).max(depth_of(b, depths)) + 1
                }
                Expr::Maj(..) | Expr::Ite(..) => unreachable!("expanded at entry"),
            };
            depths.insert(e.clone(), d);
            d
        }
        let mut depths = HashMap::new();
        let max_depth = depth_of(&expr, &mut depths);

        let mut handles: HashMap<Expr, VecHandle> = HashMap::new();
        let mut total = RunStats::new();
        for level in 1..=max_depth {
            // All distinct nodes at this level are mutually independent.
            let nodes: Vec<Expr> =
                depths.iter().filter(|&(_, &d)| d == level).map(|(e, _)| e.clone()).collect();
            let mut level_streams: Vec<(usize, Vec<elp2im_dram::command::CommandProfile>)> =
                Vec::new();
            for node in nodes {
                let resolve = |e: &Expr, handles: &HashMap<Expr, VecHandle>| -> VecHandle {
                    match e {
                        Expr::Var(i) => inputs[*i],
                        other => handles[other],
                    }
                };
                let (h, streams) = match &node {
                    Expr::Var(_) => continue,
                    Expr::Not(x) => {
                        let hx = resolve(x, &handles);
                        self.prepare_op(LogicOp::Not, hx, None)?
                    }
                    Expr::And(a, b) | Expr::Or(a, b) | Expr::Xor(a, b) => {
                        let op = match &node {
                            Expr::And(..) => LogicOp::And,
                            Expr::Or(..) => LogicOp::Or,
                            _ => LogicOp::Xor,
                        };
                        let ha = resolve(a, &handles);
                        let hb = resolve(b, &handles);
                        self.prepare_op(op, ha, Some(hb))?
                    }
                    Expr::Maj(..) | Expr::Ite(..) => unreachable!("expanded at entry"),
                };
                for (bank, profiles) in streams {
                    match level_streams.iter_mut().find(|(bk, _)| *bk == bank) {
                        Some((_, v)) => v.extend(profiles),
                        None => level_streams.push((bank, profiles)),
                    }
                }
                handles.insert(node, h);
            }
            let stats = self.controller.run_streams(&level_streams).map_err(CoreError::Schedule)?;
            // Levels execute one after another: sequential composition.
            total.merge_sequential(&stats);
        }
        let result = match &expr {
            Expr::Var(i) => inputs[*i],
            other => handles[other],
        };
        for (_, h) in handles {
            if h != result {
                self.release(h)?;
            }
        }
        Ok((result, total))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use elp2im_dram::units::Ns;

    fn module() -> Elp2imModule {
        Elp2imModule::new(ModuleConfig::default())
    }

    fn pattern(bits: usize, period: usize) -> BitVec {
        (0..bits).map(|i| i % period == 0).collect()
    }

    #[test]
    fn store_load_roundtrip_across_chunks() {
        let mut m = module();
        let bits = m.row_bits() * 3 + 17; // uneven tail chunk
        let v = pattern(bits, 3);
        let h = m.store(&v).unwrap();
        assert_eq!(m.load(h).unwrap(), v);
    }

    #[test]
    fn binary_ops_match_software_over_wide_vectors() {
        for op in [LogicOp::And, LogicOp::Or, LogicOp::Xor, LogicOp::Nor] {
            let mut m = module();
            let bits = m.row_bits() * 5;
            let a = pattern(bits, 2);
            let b = pattern(bits, 3);
            let ha = m.store(&a).unwrap();
            let hb = m.store(&b).unwrap();
            let (hc, _) = m.binary(op, ha, hb).unwrap();
            let got = m.load(hc).unwrap();
            let want: BitVec = (0..bits).map(|i| op.eval(a.get(i), b.get(i))).collect();
            assert_eq!(got, want, "{op}");
        }
    }

    #[test]
    fn makespan_benefits_from_bank_parallelism() {
        // Two banks (tiny geometry): chunks spread across banks should
        // finish in less than the serial time.
        let mut m = Elp2imModule::new(ModuleConfig {
            budget: PumpBudget::unconstrained(),
            ..ModuleConfig::default()
        });
        let bits = m.row_bits() * 4; // 4 chunks over 2x2 subarrays = both banks
        let a = m.store(&BitVec::ones(bits)).unwrap();
        let b = m.store(&BitVec::zeros(bits)).unwrap();
        let (_, stats) = m.binary(LogicOp::And, a, b).unwrap();
        let serial = stats.busy_time.as_f64();
        let makespan = stats.makespan.as_f64();
        assert!(
            makespan < serial * 0.75,
            "banks must overlap: makespan {makespan} vs serial {serial}"
        );
    }

    #[test]
    fn pump_constraint_stretches_makespan() {
        // 8 single-subarray banks all computing: enough concurrent demand
        // for the JEDEC four-activate window to bite.
        let geometry = elp2im_dram::geometry::Geometry {
            banks: 8,
            subarrays_per_bank: 1,
            rows_per_subarray: 32,
            row_bytes: 32,
        };
        let run = |budget: PumpBudget| -> Ns {
            let mut m =
                Elp2imModule::new(ModuleConfig { geometry, budget, ..ModuleConfig::default() });
            let bits = m.row_bits() * 8;
            let a = m.store(&BitVec::ones(bits)).unwrap();
            let b = m.store(&BitVec::ones(bits)).unwrap();
            let (_, stats) = m.binary(LogicOp::Xor, a, b).unwrap();
            stats.makespan
        };
        let free = run(PumpBudget::unconstrained());
        let tight = run(PumpBudget::jedec_ddr3_1600());
        assert!(tight.as_f64() > free.as_f64() * 1.2, "constrained {tight} vs free {free}");
    }

    #[test]
    fn eval_expr_computes_and_releases_intermediates() {
        use crate::expr::Expr;
        let mut m = module();
        let bits = m.row_bits() * 3;
        let a = pattern(bits, 2);
        let b = pattern(bits, 3);
        let c = pattern(bits, 5);
        let ha = m.store(&a).unwrap();
        let hb = m.store(&b).unwrap();
        let hc = m.store(&c).unwrap();

        // majority(a, b, c) with a shared subterm.
        let expr = Expr::majority(Expr::var(0), Expr::var(1), Expr::var(2));
        let (result, stats) = m.eval_expr(&expr, &[ha, hb, hc]).unwrap();
        let got = m.load(result).unwrap();
        let want: BitVec = (0..bits)
            .map(|i| {
                let (x, y, z) = (a.get(i), b.get(i), c.get(i));
                [x, y, z].into_iter().filter(|&v| v).count() >= 2
            })
            .collect();
        assert_eq!(got, want);
        assert!(stats.makespan.as_f64() > 0.0);
        // 5 operations (3 AND + 2 OR) over 3 chunks each.
        assert_eq!(stats.total_commands() % 5, 0);

        // Inputs must still be loadable (not released).
        assert_eq!(m.load(ha).unwrap(), a);
        // Releasing the result works; intermediates were already freed, so
        // the allocator count drops back to the three inputs.
        m.release(result).unwrap();
    }

    #[test]
    fn parallel_eval_matches_sequential_and_never_loses() {
        use crate::expr::Expr;
        // Four independent ANDs feeding a balanced OR tree over 8 inputs.
        let v = Expr::var;
        let expr = ((v(0) & v(1)) | (v(2) & v(3))) | ((v(4) & v(5)) | (v(6) & v(7)));

        let mk = || {
            Elp2imModule::new(ModuleConfig {
                budget: PumpBudget::unconstrained(),
                ..ModuleConfig::default()
            })
        };
        let mut seq = mk();
        let mut par = mk();
        let bits = seq.row_bits() * 4;
        let inputs: Vec<BitVec> = (2..10).map(|p| pattern(bits, p)).collect();
        let hs: Vec<_> = inputs.iter().map(|x| seq.store(x).unwrap()).collect();
        let hp: Vec<_> = inputs.iter().map(|x| par.store(x).unwrap()).collect();

        let (rs, stats_seq) = seq.eval_expr(&expr, &hs).unwrap();
        let (rp, stats_par) = par.eval_expr_parallel(&expr, &hp).unwrap();
        assert_eq!(seq.load(rs).unwrap(), par.load(rp).unwrap());
        assert_eq!(stats_seq.total_commands(), stats_par.total_commands());
        // With the round-robin placement every operand spans the same
        // banks, so the bottleneck bank is saturated either way: level
        // batching must never be slower, and here the wall clocks tie.
        // (Earlier accounting summed cumulative end timestamps per op,
        // which inflated the sequential figure and faked a speedup.)
        assert!(
            stats_par.makespan.as_f64() <= stats_seq.makespan.as_f64() + 1e-9,
            "parallel {} must not exceed sequential {}",
            stats_par.makespan,
            stats_seq.makespan
        );
        assert!(stats_par.makespan.as_f64() > 0.0);
    }

    #[test]
    fn eval_expr_rejects_unknown_variables() {
        use crate::expr::Expr;
        let mut m = module();
        let ha = m.store(&BitVec::ones(8)).unwrap();
        assert!(matches!(m.eval_expr(&Expr::var(3), &[ha]), Err(CoreError::InvalidHandle(3))));
    }

    #[test]
    fn mismatched_lengths_rejected() {
        let mut m = module();
        let a = m.store(&BitVec::ones(10)).unwrap();
        let b = m.store(&BitVec::ones(20)).unwrap();
        assert!(matches!(m.binary(LogicOp::And, a, b), Err(CoreError::WidthMismatch { .. })));
    }

    #[test]
    fn release_frees_rows_for_reuse() {
        let mut m = module();
        let bits = m.row_bits();
        // tiny geometry: 4 subarrays x 32 rows; chunk 0 always lands in
        // subarray 0, so 32 single-chunk vectors fill it.
        let handles: Vec<_> = (0..8).map(|_| m.store(&BitVec::ones(bits)).unwrap()).collect();
        for h in handles {
            m.release(h).unwrap();
        }
        for _ in 0..8 {
            let h = m.store(&BitVec::ones(bits)).unwrap();
            m.release(h).unwrap();
        }
    }

    #[test]
    fn dead_handle_errors() {
        let mut m = module();
        let h = m.store(&BitVec::ones(4)).unwrap();
        m.release(h).unwrap();
        assert!(matches!(m.load(h), Err(CoreError::InvalidHandle(_))));
        assert!(matches!(m.release(h), Err(CoreError::InvalidHandle(_))));
    }
}
