//! Fault-injection soak harness (BENCH_007).
//!
//! Drives a long random workload of bulk AND/OR/XOR operations through a
//! one-subarray [`DeviceArray`] whose engine injects per-column bit flips
//! from a seed-derived [`ChipProfile`], and compares three protection
//! policies:
//!
//! * **Unprotected** — plain `binary()`, no verification. Establishes the
//!   raw logical error rate of the faulty chip.
//! * **ECC everything** — verify-by-recompute *plus* a blanket
//!   [`ParityGuard`] rebuilt over every base row and the fresh result after
//!   every single operation: the §6.1.2 "traditional ECC" strawman, paying
//!   `2k+1` bulk XORs of pure overhead per protected op.
//! * **Selective** — verify-by-recompute, with one parity guard built once
//!   over the base rows only when the installed fault model actually has
//!   weak columns, re-checked periodically instead of per-op.
//!
//! The point of the soak: the selective policy meets the same configured
//! logical error rate as ECC-everything at a measurably lower modeled DRAM
//! makespan. `perf_report --soak` renders the outcome as the committed
//! `BENCH_007.json`.

use crate::report::Table;
use elp2im_apps::ecc::ParityGuard;
use elp2im_apps::workload;
use elp2im_circuit::profile::{ChipProfile, ProfileConfig};
use elp2im_core::batch::{BatchConfig, BatchHandle, DeviceArray};
use elp2im_core::bitvec::BitVec;
use elp2im_core::compile::LogicOp;
use elp2im_core::faulty::{ColumnFaultModel, FaultPolicy};
use rand::Rng;

/// Protection policy exercised by one soak scenario.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SoakPolicy {
    /// Plain `binary()`: no verification, no parity.
    Unprotected,
    /// Verify-by-recompute plus a blanket parity rebuild after every op.
    EccEverything,
    /// Verify-by-recompute plus a one-off parity guard over the base rows
    /// (only if the fault model has weak columns), checked periodically.
    Selective,
}

impl SoakPolicy {
    /// Table label for the scenario row.
    pub fn label(self) -> &'static str {
        match self {
            SoakPolicy::Unprotected => "unprotected",
            SoakPolicy::EccEverything => "ecc_everything",
            SoakPolicy::Selective => "selective_policy",
        }
    }
}

/// Soak scenario configuration. All randomness is seed-derived, so a given
/// config reproduces bit-identically.
#[derive(Debug, Clone, Copy)]
pub struct SoakConfig {
    /// Profile/fault/workload seed.
    pub seed: u64,
    /// Random AND/OR/XOR operations to execute.
    pub ops: usize,
    /// Row width in bits (= profile columns).
    pub width: usize,
    /// Number of stored base operand rows.
    pub base_rows: usize,
    /// The logical error rate the policy must stay at or under.
    pub target_error_rate: f64,
    /// Columns with a raw error probability above this are treated as
    /// factory-repaired (remapped to spares): their probability drops to
    /// zero, leaving the intermittent tail the runtime must handle.
    pub repair_threshold: f64,
    /// Columns at or above this probability count as "weak" for the
    /// selective policy's guard decision.
    pub weak_threshold: f64,
    /// Selective policy re-checks its base guard every this many ops.
    pub check_interval: usize,
}

impl SoakConfig {
    /// The committed BENCH_007 configuration (`smoke` shrinks the op count
    /// for CI-speed runs).
    pub fn bench_007(smoke: bool) -> SoakConfig {
        SoakConfig {
            seed: 0x5047_B007,
            ops: if smoke { 48 } else { 400 },
            width: 256,
            base_rows: 8,
            target_error_rate: 0.05,
            repair_threshold: 0.12,
            weak_threshold: 1e-4,
            check_interval: 32,
        }
    }
}

/// Outcome of one soak scenario.
#[derive(Debug, Clone)]
pub struct SoakOutcome {
    /// Which policy ran.
    pub policy: SoakPolicy,
    /// Operations executed.
    pub ops: usize,
    /// Results that disagreed with the software ground truth.
    pub logical_errors: usize,
    /// `logical_errors / ops`.
    pub error_rate: f64,
    /// Whether the configured target error rate was met.
    pub meets_target: bool,
    /// Modeled DRAM busy time of the whole scenario, in nanoseconds.
    pub makespan_ns: f64,
    /// Verify-by-recompute retries spent.
    pub retries: u64,
    /// Bulk XOR operations spent on parity maintenance.
    pub parity_xors: u64,
    /// Parity-check alarms (ECC-everything recomputes the op on alarm).
    pub parity_alarms: u64,
    /// Bit flips the fault model actually injected.
    pub injected_flips: u64,
}

/// Derives the soak's fault model from a mid-grade [`ChipProfile`]: sample
/// a 4-bank chip, take the median-reliability bank, and factory-repair the
/// catastrophic columns (probability above `repair_threshold` drops to
/// zero, modeling remapping to spare columns). What remains is the
/// intermittent weak tail the fault-aware runtime has to live with.
pub fn soak_fault_model(cfg: &SoakConfig) -> ColumnFaultModel {
    let profile = ChipProfile::sample(ProfileConfig::mid_grade(cfg.seed, 4, cfg.width));
    let ranked = profile.rank_banks();
    let bank = ranked[ranked.len() / 2];
    let probs: Vec<f64> = profile
        .column_probabilities(bank)
        .into_iter()
        .map(|p| if p > cfg.repair_threshold { 0.0 } else { p })
        .collect();
    ColumnFaultModel::new(cfg.seed, bank, probs)
}

fn software_op(op: LogicOp, a: &BitVec, b: &BitVec) -> BitVec {
    match op {
        LogicOp::And => a.and(b),
        LogicOp::Or => a.or(b),
        _ => a.xor(b),
    }
}

/// Runs one soak scenario. Deterministic per config: the profile, the
/// fault stream, and the workload are all seed-derived.
///
/// # Panics
///
/// Panics on device errors (the soak is a fixed, known-good workload).
pub fn run_soak(cfg: &SoakConfig, policy: SoakPolicy) -> SoakOutcome {
    let model = soak_fault_model(cfg);
    let weak = !model.weak_columns(cfg.weak_threshold).is_empty();
    let mut dev = DeviceArray::new(BatchConfig {
        reserved_rows: 2,
        ..BatchConfig::subarray(cfg.width.div_ceil(8), 64)
    });
    dev.set_fault_models(vec![Some(model)]);

    let mut rng = workload::rng(cfg.seed ^ 0x057A_CCA7);
    let mut truth: Vec<BitVec> = Vec::with_capacity(cfg.base_rows);
    let mut bases: Vec<BatchHandle> = Vec::with_capacity(cfg.base_rows);
    for _ in 0..cfg.base_rows {
        let v = workload::random_bitvec(&mut rng, cfg.width, 0.5);
        bases.push(dev.store(&v).unwrap());
        truth.push(v);
    }

    let fault_policy = FaultPolicy { verify: true, max_retries: 8 };
    let mut parity_xors = 0u64;
    let mut parity_alarms = 0u64;
    // Selective: one guard over the base rows, built once, only if the
    // model actually has a weak tail.
    let mut base_guard = (policy == SoakPolicy::Selective && weak).then(|| {
        let g = ParityGuard::new(&mut dev, &bases).unwrap();
        parity_xors += cfg.base_rows as u64 - 1;
        g
    });

    let mut logical_errors = 0usize;
    for i in 0..cfg.ops {
        let op = match rng.gen_range(0..3u32) {
            0 => LogicOp::And,
            1 => LogicOp::Or,
            _ => LogicOp::Xor,
        };
        let ia = rng.gen_range(0..cfg.base_rows);
        let mut ib = rng.gen_range(0..cfg.base_rows);
        if ib == ia {
            ib = (ib + 1) % cfg.base_rows;
        }
        let expected = software_op(op, &truth[ia], &truth[ib]);

        let mut h = match policy {
            SoakPolicy::Unprotected => dev.binary(op, bases[ia], bases[ib]).unwrap().0,
            _ => dev.binary_checked(op, bases[ia], bases[ib], &fault_policy).unwrap().handle,
        };

        if policy == SoakPolicy::EccEverything {
            // Blanket ECC: rebuild parity over every base row plus the
            // fresh result, and check it — after every single op. This is
            // the §6.1.2 cost: 2k+1 bulk XORs of overhead per op.
            let mut guarded = bases.clone();
            guarded.push(h);
            let guard = ParityGuard::new(&mut dev, &guarded).unwrap();
            parity_xors += cfg.base_rows as u64; // n−1 with n = k+1
            let clean = guard.check(&mut dev).unwrap();
            parity_xors += cfg.base_rows as u64 + 1; // n−1 fold + 1 diff
            dev.release(guard.parity()).unwrap();
            if !clean {
                // Parity alarm (usually the parity row itself caught a
                // flip): recompute the protected op once.
                parity_alarms += 1;
                dev.release(h).unwrap();
                h = dev.binary_checked(op, bases[ia], bases[ib], &fault_policy).unwrap().handle;
            }
        }
        if let Some(guard) = base_guard.as_mut() {
            if (i + 1) % cfg.check_interval == 0 {
                let clean = guard.check(&mut dev).unwrap();
                parity_xors += cfg.base_rows as u64; // (k−1) fold + 1 diff
                if !clean {
                    parity_alarms += 1;
                    parity_xors += guard.refresh(&mut dev).unwrap() as u64;
                }
            }
        }

        if dev.load(h).unwrap() != expected {
            logical_errors += 1;
        }
        dev.release(h).unwrap();
    }

    let error_rate = logical_errors as f64 / cfg.ops as f64;
    SoakOutcome {
        policy,
        ops: cfg.ops,
        logical_errors,
        error_rate,
        meets_target: error_rate <= cfg.target_error_rate,
        makespan_ns: dev.stats().busy_time.as_f64(),
        retries: dev.reliability_metrics().counter("retries"),
        parity_xors,
        parity_alarms,
        injected_flips: dev.injected_flips(),
    }
}

/// Runs all three scenarios and renders the BENCH_007 report table.
pub fn build_soak_table(smoke: bool) -> Table {
    let cfg = SoakConfig::bench_007(smoke);
    let model = soak_fault_model(&cfg);
    let mut t = Table::new(
        "BENCH_007: fault-aware soak — selective policy vs blanket parity ECC",
        &[
            "scenario",
            "ops",
            "logical errors",
            "error rate",
            "meets target",
            "makespan ms",
            "retries",
            "parity xors",
        ],
    );
    for policy in [SoakPolicy::Unprotected, SoakPolicy::EccEverything, SoakPolicy::Selective] {
        let o = run_soak(&cfg, policy);
        t.push(vec![
            o.policy.label().to_string(),
            o.ops.to_string(),
            o.logical_errors.to_string(),
            format!("{:.4}", o.error_rate),
            if o.meets_target { "yes" } else { "no" }.to_string(),
            format!("{:.3}", o.makespan_ns / 1e6),
            o.retries.to_string(),
            o.parity_xors.to_string(),
        ]);
    }
    t.note(format!(
        "target logical error rate {:.3}; mid-grade profile seed {:#x}, bank {}, {} fallible \
         columns after factory repair at p > {}",
        cfg.target_error_rate,
        cfg.seed,
        model.bank(),
        model.weak_columns(cfg.weak_threshold).len(),
        cfg.repair_threshold,
    ));
    t.note("makespan: modeled DRAM busy time of the whole scenario (single bank)");
    t.note(
        "unprotected row is the control: it must miss the target for the soak to be \
         discriminating",
    );
    if smoke {
        t.note("SMOKE RUN: shortened op count; rates are noisier than the committed full run");
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> SoakConfig {
        SoakConfig { ops: 96, ..SoakConfig::bench_007(true) }
    }

    #[test]
    fn fault_model_keeps_an_intermittent_tail() {
        let cfg = cfg();
        let model = soak_fault_model(&cfg);
        let weak = model.weak_columns(cfg.weak_threshold);
        assert!(!weak.is_empty(), "soak needs at least one fallible column");
        for &c in &weak {
            assert!(model.error_probability(c) <= cfg.repair_threshold);
        }
    }

    #[test]
    fn soak_is_deterministic() {
        let cfg = cfg();
        let a = run_soak(&cfg, SoakPolicy::Selective);
        let b = run_soak(&cfg, SoakPolicy::Selective);
        assert_eq!(a.logical_errors, b.logical_errors);
        assert_eq!(a.makespan_ns, b.makespan_ns);
        assert_eq!(a.retries, b.retries);
        assert_eq!(a.injected_flips, b.injected_flips);
    }

    #[test]
    fn selective_beats_blanket_ecc_at_equal_protection() {
        let cfg = cfg();
        let ecc = run_soak(&cfg, SoakPolicy::EccEverything);
        let sel = run_soak(&cfg, SoakPolicy::Selective);
        assert!(ecc.meets_target, "ecc-everything rate {}", ecc.error_rate);
        assert!(sel.meets_target, "selective rate {}", sel.error_rate);
        assert!(
            sel.makespan_ns < ecc.makespan_ns,
            "selective {} ns must beat ecc {} ns",
            sel.makespan_ns,
            ecc.makespan_ns
        );
        assert!(ecc.parity_xors > sel.parity_xors);
    }

    #[test]
    fn unprotected_control_misses_the_target() {
        let cfg = cfg();
        let raw = run_soak(&cfg, SoakPolicy::Unprotected);
        assert!(
            !raw.meets_target,
            "control error rate {} under target — soak is not discriminating",
            raw.error_rate
        );
        assert_eq!(raw.retries, 0);
        assert_eq!(raw.parity_xors, 0);
    }
}
