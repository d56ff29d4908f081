//! Fault injection below the batch layer.
//!
//! [`FaultyEngine`] wraps a [`SubarrayEngine`] and flips result bits
//! per-column after each executed program, according to a
//! [`ColumnFaultModel`]. Injection targets exactly the rows whose content
//! was *computed* — restored by a primitive that consumed a pending
//! pseudo-precharge regulation. Those activations sense through a
//! regulated (half-rail) margin, which is where the paper's Fig. 11
//! failures live; plain full-rail restores of stored rows are modeled as
//! error-free. Corrupting only computed rows is also what makes
//! verify-by-recompute a sound policy: two runs of the same program draw
//! independent fault decisions, so they almost never agree on a wrong
//! answer.
//!
//! The model is deliberately free of `rand`: flip decisions hash the
//! `(seed, bank, event counter, column)` coordinates through the same
//! SplitMix64 finalizer the circuit crate's Monte-Carlo engine uses, and
//! compare against the column's probability as a 64-bit threshold. An
//! engine's fault stream therefore depends only on its own operation
//! sequence — per-bank engines replay identically whether banks execute
//! serially or on scoped threads.
//!
//! Per-column probabilities typically come from
//! `elp2im_circuit::profile::ChipProfile::column_probabilities`; this
//! crate does not depend on the circuit crate, so the conversion happens
//! wherever both are visible (tests, bench, apps).

use crate::analysis::AnalysisCache;
use crate::bitvec::BitVec;
use crate::engine::SubarrayEngine;
use crate::error::CoreError;
use crate::isa::Program;
use crate::primitive::{Primitive, RowRef};
use elp2im_dram::stats::RunStats;
use elp2im_dram::timing::Ddr3Timing;

/// SplitMix64 golden gamma (matches `elp2im_circuit::montecarlo`).
const GOLDEN_GAMMA: u64 = 0x9E37_79B9_7F4A_7C15;

/// SplitMix64 finalizer (same constants as the circuit crate's
/// Monte-Carlo stream keying; duplicated because core must stay free of a
/// circuit dependency).
fn mix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Flip-decision key of one (model, event, column) coordinate.
fn decision_key(seed: u64, bank: u64, event: u64, column: u64) -> u64 {
    let mut h = seed;
    for coord in [bank, event, column] {
        h = mix64(h.wrapping_add(GOLDEN_GAMMA).wrapping_add(coord));
    }
    h
}

/// Per-column fault description of one bank, decoupled from how the
/// probabilities were obtained.
#[derive(Debug, Clone, PartialEq)]
pub struct ColumnFaultModel {
    seed: u64,
    bank: u64,
    probs: Vec<f64>,
    /// Columns with nonzero flip probability, as `(column, threshold)`
    /// where a mixed 64-bit key below `threshold` flips the bit.
    fallible: Vec<(u32, u64)>,
}

impl ColumnFaultModel {
    /// Builds a model from per-column error probabilities (clamped into
    /// `[0, 1]`); `seed` identifies the fault stream and `bank` decorrelates
    /// sibling banks sharing a seed.
    pub fn new(seed: u64, bank: usize, probs: Vec<f64>) -> ColumnFaultModel {
        let probs: Vec<f64> = probs.into_iter().map(|p| p.clamp(0.0, 1.0)).collect();
        let fallible = probs
            .iter()
            .enumerate()
            .filter_map(|(c, &p)| {
                let threshold = (p * u64::MAX as f64) as u64;
                (threshold > 0).then_some((c as u32, threshold))
            })
            .collect();
        ColumnFaultModel { seed, bank: bank as u64, probs, fallible }
    }

    /// The fault-stream seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The bank discriminant mixed into every decision.
    pub fn bank(&self) -> u64 {
        self.bank
    }

    /// Error probability of `column` (0 beyond the modeled width).
    pub fn error_probability(&self, column: usize) -> f64 {
        self.probs.get(column).copied().unwrap_or(0.0)
    }

    /// All modeled per-column probabilities.
    pub fn probabilities(&self) -> &[f64] {
        &self.probs
    }

    /// Mean probability over the modeled columns (0 for an empty model).
    pub fn mean_error(&self) -> f64 {
        if self.probs.is_empty() {
            return 0.0;
        }
        self.probs.iter().sum::<f64>() / self.probs.len() as f64
    }

    /// Columns whose probability is at least `threshold`, ascending.
    pub fn weak_columns(&self, threshold: f64) -> Vec<usize> {
        self.probs.iter().enumerate().filter_map(|(c, &p)| (p >= threshold).then_some(c)).collect()
    }

    /// Whether the model can never flip anything.
    pub fn is_trivial(&self) -> bool {
        self.fallible.is_empty()
    }
}

/// Retry/verify policy of the fault-aware executor
/// ([`DeviceArray::binary_checked`](crate::batch::DeviceArray::binary_checked)).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultPolicy {
    /// Verify results by recomputing and comparing (skipped automatically
    /// when no nontrivial fault model touches the operands).
    pub verify: bool,
    /// Verify rounds retried after a mismatch before giving up.
    pub max_retries: u32,
}

impl Default for FaultPolicy {
    fn default() -> Self {
        FaultPolicy { verify: true, max_retries: 3 }
    }
}

/// The rows a primitive restores while applying a pending regulation —
/// i.e. the rows whose new content is a *computed* value.
fn computed_restores(p: &Primitive, pending: bool) -> [Option<RowRef>; 2] {
    if !pending {
        return [None, None];
    }
    match *p {
        Primitive::Ap { row } | Primitive::App { row, .. } | Primitive::OApp { row, .. } => {
            [Some(row), None]
        }
        Primitive::Aap { src, dst }
        | Primitive::OAap { src, dst }
        | Primitive::OAppCopy { src, dst, .. } => [Some(src), Some(dst)],
        // Trimmed activations destroy the accessed row: nothing restored.
        Primitive::TApp { .. } | Primitive::OtApp { .. } => [None, None],
    }
}

/// A [`SubarrayEngine`] with per-column fault injection on computed rows.
///
/// Without a model (or with a trivial one) every call is a plain
/// delegation. With a model, [`run`](FaultyEngine::run) and the verified
/// run paths apply flips after the program completes; single-stepping via
/// [`execute`](FaultyEngine::execute) bypasses injection (fault decisions
/// are defined per program, and all production paths run whole programs).
///
/// ```
/// use elp2im_core::faulty::{ColumnFaultModel, FaultyEngine};
///
/// let mut eng = FaultyEngine::new(64, 8, 1);
/// // Column 3 always fails, everything else is clean.
/// let mut probs = vec![0.0; 64];
/// probs[3] = 1.0;
/// eng.set_fault_model(Some(ColumnFaultModel::new(9, 0, probs)));
/// assert_eq!(eng.injected_flips(), 0);
/// ```
#[derive(Debug, Clone)]
pub struct FaultyEngine {
    inner: SubarrayEngine,
    model: Option<ColumnFaultModel>,
    /// Computed-restore events so far; advances the fault stream.
    events: u64,
    flips: u64,
}

impl FaultyEngine {
    /// Creates a clean engine (see [`SubarrayEngine::new`]).
    pub fn new(width: usize, data_rows: usize, dcc_rows: usize) -> FaultyEngine {
        FaultyEngine::from_engine(SubarrayEngine::new(width, data_rows, dcc_rows))
    }

    /// Wraps an existing engine without a fault model.
    pub fn from_engine(inner: SubarrayEngine) -> FaultyEngine {
        FaultyEngine { inner, model: None, events: 0, flips: 0 }
    }

    /// Installs (or clears) the fault model. The event counter keeps
    /// running: swapping models mid-stream never replays old decisions.
    pub fn set_fault_model(&mut self, model: Option<ColumnFaultModel>) {
        self.model = model;
    }

    /// The installed fault model, if any.
    pub fn fault_model(&self) -> Option<&ColumnFaultModel> {
        self.model.as_ref()
    }

    /// Bits flipped by injection so far.
    pub fn injected_flips(&self) -> u64 {
        self.flips
    }

    /// The wrapped engine.
    pub fn inner(&self) -> &SubarrayEngine {
        &self.inner
    }

    /// Mutable access to the wrapped engine (e.g. for direct arena writes
    /// in tests).
    pub fn inner_mut(&mut self) -> &mut SubarrayEngine {
        &mut self.inner
    }

    /// Applies the fault model to every computed restore of `program`,
    /// given the regulation state that held before it ran.
    fn apply_faults(&mut self, initial_pending: bool, program: &[Primitive]) {
        let Some(model) = self.model.clone() else {
            return;
        };
        if model.is_trivial() {
            return;
        }
        let width = self.inner.width();
        let mut pending = initial_pending;
        for p in program {
            for row in computed_restores(p, pending).into_iter().flatten() {
                self.events = self.events.wrapping_add(1);
                for &(column, threshold) in &model.fallible {
                    let column = column as usize;
                    if column >= width || !self.inner.is_live(row) {
                        continue;
                    }
                    let k = decision_key(model.seed, model.bank, self.events, column as u64);
                    if k < threshold {
                        // The row is live and in range, so this cannot fail.
                        self.inner
                            .inject_bit_error(row, column)
                            .expect("injection into a live computed row");
                        self.flips += 1;
                    }
                }
            }
            pending = p.regulation().is_some();
        }
    }

    /// Runs a primitive sequence, then injects faults into its computed
    /// rows (see [`SubarrayEngine::run`]).
    ///
    /// # Errors
    ///
    /// Execution errors propagate; no faults are applied on failure.
    pub fn run(&mut self, program: &[Primitive]) -> Result<(), CoreError> {
        let pending = self.inner.has_pending_regulation();
        self.inner.run(program)?;
        self.apply_faults(pending, program);
        Ok(())
    }

    /// Verified run with fault injection (see
    /// [`SubarrayEngine::run_verified`]).
    ///
    /// # Errors
    ///
    /// Analysis and execution errors propagate; no faults are applied on
    /// failure.
    pub fn run_verified(&mut self, program: &Program) -> Result<(), CoreError> {
        let pending = self.inner.has_pending_regulation();
        self.inner.run_verified(program)?;
        self.apply_faults(pending, program.primitives());
        Ok(())
    }

    /// Cached verified run with fault injection (see
    /// [`SubarrayEngine::run_verified_cached`]).
    ///
    /// # Errors
    ///
    /// Analysis and execution errors propagate; no faults are applied on
    /// failure.
    pub fn run_verified_cached(
        &mut self,
        program: &Program,
        cache: &AnalysisCache,
    ) -> Result<(), CoreError> {
        let pending = self.inner.has_pending_regulation();
        self.inner.run_verified_cached(program, cache)?;
        self.apply_faults(pending, program.primitives());
        Ok(())
    }

    /// Single primitive step, delegated without injection (fault decisions
    /// are per-program; see the type docs).
    ///
    /// # Errors
    ///
    /// See [`SubarrayEngine::execute`].
    pub fn execute(&mut self, p: &Primitive) -> Result<(), CoreError> {
        self.inner.execute(p)
    }

    /// See [`SubarrayEngine::write_row`].
    ///
    /// # Errors
    ///
    /// See [`SubarrayEngine::write_row`].
    pub fn write_row(&mut self, index: usize, value: BitVec) -> Result<(), CoreError> {
        self.inner.write_row(index, value)
    }

    /// See [`SubarrayEngine::write_row_from`].
    ///
    /// # Errors
    ///
    /// See [`SubarrayEngine::write_row_from`].
    pub fn write_row_from(
        &mut self,
        index: usize,
        value: &BitVec,
        src_start: usize,
    ) -> Result<(), CoreError> {
        self.inner.write_row_from(index, value, src_start)
    }

    /// See [`SubarrayEngine::read_row_into`].
    ///
    /// # Errors
    ///
    /// See [`SubarrayEngine::read_row_into`].
    pub fn read_row_into(
        &self,
        index: usize,
        dst: &mut BitVec,
        dst_start: usize,
    ) -> Result<(), CoreError> {
        self.inner.read_row_into(index, dst, dst_start)
    }

    /// See [`SubarrayEngine::row`].
    ///
    /// # Errors
    ///
    /// See [`SubarrayEngine::row`].
    pub fn row(&self, row: RowRef) -> Result<BitVec, CoreError> {
        self.inner.row(row)
    }

    /// See [`SubarrayEngine::bit`].
    ///
    /// # Errors
    ///
    /// See [`SubarrayEngine::bit`].
    pub fn bit(&self, row: RowRef, column: usize) -> Result<bool, CoreError> {
        self.inner.bit(row, column)
    }

    /// See [`SubarrayEngine::is_live`].
    pub fn is_live(&self, row: RowRef) -> bool {
        self.inner.is_live(row)
    }

    /// See [`SubarrayEngine::pack_live_rows`].
    pub(crate) fn pack_live_rows(&self, owned: &[u64], out: &mut Vec<u64>) {
        self.inner.pack_live_rows(owned, out);
    }

    /// See [`SubarrayEngine::inject_bit_error`] (manual injection, not
    /// counted in [`FaultyEngine::injected_flips`]).
    ///
    /// # Errors
    ///
    /// See [`SubarrayEngine::inject_bit_error`].
    pub fn inject_bit_error(&mut self, row: RowRef, column: usize) -> Result<(), CoreError> {
        self.inner.inject_bit_error(row, column)
    }

    /// See [`SubarrayEngine::stats`].
    pub fn stats(&self) -> &RunStats {
        self.inner.stats()
    }

    /// See [`SubarrayEngine::reset_stats`].
    pub fn reset_stats(&mut self) {
        self.inner.reset_stats()
    }

    /// See [`SubarrayEngine::timing`].
    pub fn timing(&self) -> &Ddr3Timing {
        self.inner.timing()
    }

    /// See [`SubarrayEngine::width`].
    pub fn width(&self) -> usize {
        self.inner.width()
    }

    /// See [`SubarrayEngine::data_rows`].
    pub fn data_rows(&self) -> usize {
        self.inner.data_rows()
    }

    /// See [`SubarrayEngine::dcc_rows`].
    pub fn dcc_rows(&self) -> usize {
        self.inner.dcc_rows()
    }

    /// See [`SubarrayEngine::has_pending_regulation`].
    pub fn has_pending_regulation(&self) -> bool {
        self.inner.has_pending_regulation()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile::{compile, CompileMode, LogicOp, Operands};

    fn and_program() -> Program {
        let rows = Operands { a: 0, b: 1, dst: 2, scratch: None };
        compile(LogicOp::And, CompileMode::LowLatency, rows, 1).unwrap()
    }

    fn engine_with_operands() -> FaultyEngine {
        let mut e = FaultyEngine::new(16, 8, 1);
        e.write_row(0, BitVec::ones(16)).unwrap();
        e.write_row(1, BitVec::ones(16)).unwrap();
        e
    }

    #[test]
    fn no_model_is_a_plain_delegation() {
        let mut e = engine_with_operands();
        e.run_verified(&and_program()).unwrap();
        assert_eq!(e.row(RowRef::Data(2)).unwrap(), BitVec::ones(16));
        assert_eq!(e.injected_flips(), 0);
    }

    #[test]
    fn certain_fault_flips_exactly_the_weak_column_of_the_result() {
        let mut e = engine_with_operands();
        let mut probs = vec![0.0; 16];
        probs[5] = 1.0;
        e.set_fault_model(Some(ColumnFaultModel::new(3, 0, probs)));
        e.run_verified(&and_program()).unwrap();
        let got = e.row(RowRef::Data(2)).unwrap();
        for c in 0..16 {
            assert_eq!(got.get(c), c != 5, "column {c}");
        }
        // Operands are stored (full-margin) rows: never corrupted.
        assert_eq!(e.row(RowRef::Data(0)).unwrap(), BitVec::ones(16));
        assert_eq!(e.row(RowRef::Data(1)).unwrap(), BitVec::ones(16));
        assert!(e.injected_flips() >= 1);
    }

    #[test]
    fn fault_stream_is_deterministic_but_advances_per_run() {
        let run_twice = || {
            let mut e = engine_with_operands();
            let mut probs = vec![0.0; 16];
            probs[2] = 0.5;
            probs[9] = 0.5;
            e.set_fault_model(Some(ColumnFaultModel::new(11, 0, probs)));
            let p = and_program();
            let mut outs = Vec::new();
            for _ in 0..8 {
                e.run_verified(&p).unwrap();
                outs.push(e.row(RowRef::Data(2)).unwrap());
            }
            (outs, e.injected_flips())
        };
        let (a, fa) = run_twice();
        let (b, fb) = run_twice();
        assert_eq!(a, b, "same seed and op sequence must replay identically");
        assert_eq!(fa, fb);
        // At p = 0.5 on two columns over 8 runs, the outcomes must vary
        // between runs (independent draws per event).
        assert!(a.windows(2).any(|w| w[0] != w[1]), "fault draws never varied");
    }

    #[test]
    fn trivial_model_never_flips() {
        let mut e = engine_with_operands();
        e.set_fault_model(Some(ColumnFaultModel::new(1, 0, vec![0.0; 16])));
        assert!(e.fault_model().unwrap().is_trivial());
        e.run_verified(&and_program()).unwrap();
        assert_eq!(e.row(RowRef::Data(2)).unwrap(), BitVec::ones(16));
        assert_eq!(e.injected_flips(), 0);
    }

    #[test]
    fn sibling_banks_draw_different_streams() {
        let result_for_bank = |bank: usize| {
            let mut e = engine_with_operands();
            let mut probs = vec![0.0; 16];
            for p in probs.iter_mut() {
                *p = 0.5;
            }
            e.set_fault_model(Some(ColumnFaultModel::new(77, bank, probs)));
            e.run_verified(&and_program()).unwrap();
            e.row(RowRef::Data(2)).unwrap()
        };
        assert_ne!(result_for_bank(0), result_for_bank(1));
    }

    #[test]
    fn model_reports_weak_columns_and_mean() {
        let m = ColumnFaultModel::new(0, 0, vec![0.0, 0.2, 1e-9, 0.4]);
        assert_eq!(m.weak_columns(0.1), vec![1, 3]);
        assert!((m.mean_error() - 0.15).abs() < 1e-9);
        assert!(!m.is_trivial());
        assert_eq!(m.error_probability(999), 0.0);
    }
}
