//! The Bitmap-index case study (§6.3.1, Fig. 13).
//!
//! The workload tracks the activity of 16 million users: weekly activity
//! bitmaps plus a gender bitmap. The queries are (a) users active in
//! *every* one of the past `w` weeks, and (b) male users active in every
//! one of the past `w` weeks — bulk AND chains whose results the CPU then
//! population-counts.
//!
//! The study compares system and device throughput of ELP2IM (in the
//! power-friendly high-throughput mode) against Ambit configured with 4,
//! 6, 8, or 10 reserved rows, with and without the power constraint, all
//! normalized to a CPU-only baseline.

use crate::backend::{OpKind, PimBackend};
use elp2im_baselines::cpu::CpuModel;
use elp2im_core::batch::{BatchHandle, DeviceArray};
use elp2im_core::bitvec::BitVec;
use elp2im_core::compile::LogicOp;
use elp2im_core::error::CoreError;
use elp2im_dram::stats::RunStats;
use elp2im_dram::units::Ns;

/// The tracking workload of §6.3.1.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BitmapWorkload {
    /// Tracked users (the paper uses 16 million).
    pub users: usize,
    /// Weeks of history `w`.
    pub weeks: usize,
}

impl BitmapWorkload {
    /// The paper's 16M-user workload.
    pub fn paper_default(weeks: usize) -> Self {
        BitmapWorkload { users: 16 * 1024 * 1024, weeks }
    }

    /// Bulk AND operations across both queries: `(w-1)` for the
    /// every-week intersection and `w` for the male-every-week chain.
    pub fn bulk_and_ops(&self) -> u64 {
        (2 * self.weeks - 1) as u64
    }

    /// Bits the CPU population-counts (one count per query).
    pub fn popcount_bits(&self) -> usize {
        2 * self.users
    }
}

/// Cost/throughput model of the bitmap study.
#[derive(Debug, Clone)]
pub struct BitmapStudy {
    /// Workload parameters.
    pub workload: BitmapWorkload,
    /// CPU model for the count phase and the baseline.
    pub cpu: CpuModel,
}

impl BitmapStudy {
    /// The paper's setup for history length `weeks`.
    pub fn paper_setup(weeks: usize) -> Self {
        BitmapStudy { workload: BitmapWorkload::paper_default(weeks), cpu: CpuModel::kaby_lake() }
    }

    /// Row-operations per bulk AND on `backend` (vector width over row
    /// width).
    pub fn row_ops_per_and(&self, backend: &PimBackend) -> u64 {
        (self.workload.users as u64).div_ceil(backend.row_bits() as u64)
    }

    /// In-DRAM time for all bulk ANDs. The AND chains accumulate in place
    /// (`all := all & week`), which ELP2IM executes as APP-AP (§3.3).
    pub fn device_time(&self, backend: &PimBackend) -> Ns {
        let ops = self.workload.bulk_and_ops() * self.row_ops_per_and(backend);
        backend.device_time(OpKind::InPlace(LogicOp::And), ops)
    }

    /// CPU time for the two population counts.
    pub fn count_time(&self) -> Ns {
        self.cpu.popcount_time(self.workload.popcount_bits())
    }

    /// End-to-end time with in-DRAM bitwise + CPU count.
    pub fn system_time(&self, backend: &PimBackend) -> Ns {
        self.device_time(backend) + self.count_time()
    }

    /// CPU-only baseline: every AND streamed through the CPU, plus counts.
    pub fn cpu_baseline_time(&self) -> Ns {
        let and_time =
            self.cpu.bulk_op_time(2, self.workload.users) * self.workload.bulk_and_ops() as f64;
        and_time + self.count_time()
    }

    /// System throughput improvement over the CPU baseline (Fig. 13(a)).
    pub fn system_improvement(&self, backend: &PimBackend) -> f64 {
        self.cpu_baseline_time() / self.system_time(backend)
    }

    /// Device-only throughput in bits of operand per nanosecond
    /// (Fig. 13(b)).
    pub fn device_throughput_bits_per_ns(&self, backend: &PimBackend) -> f64 {
        let bits = self.workload.bulk_and_ops() as f64 * self.workload.users as f64;
        bits / self.device_time(backend).as_f64()
    }
}

/// Bank-parallel execution of both queries on a [`DeviceArray`]: the
/// bitmaps are striped across the module's banks, so every bulk AND in
/// the chain runs as concurrent per-bank streams under the pump budget.
/// Returns handles to (every-week-active, male-every-week-active) plus
/// the aggregate run statistics (makespans of the sequentially dependent
/// ANDs add up; `busy_time` is what a one-bank-at-a-time module would
/// take).
///
/// # Errors
///
/// Propagates batch-layer errors (capacity in particular).
///
/// # Panics
///
/// Panics if `weeks` is empty.
pub fn run_queries_batch(
    array: &mut DeviceArray,
    weeks: &[BatchHandle],
    gender_male: BatchHandle,
) -> Result<(BatchHandle, BatchHandle, RunStats), CoreError> {
    assert!(!weeks.is_empty(), "need at least one week bitmap");
    let mut total = RunStats::new();
    let chain = |array: &mut DeviceArray, total: &mut RunStats, a, b| {
        array.binary(LogicOp::And, a, b).map(|(h, run)| {
            // The chain is sequentially dependent: makespans add.
            total.merge_sequential(run.stats());
            h
        })
    };
    let mut all = weeks[0];
    let mut owned = false;
    for &w in &weeks[1..] {
        let next = chain(array, &mut total, all, w)?;
        if owned {
            array.release(all)?;
        }
        all = next;
        owned = true;
    }
    let male = chain(array, &mut total, all, gender_male)?;
    Ok((all, male, total))
}

/// Software reference for the two queries.
pub fn reference_queries(weeks: &[BitVec], gender_male: &BitVec) -> (BitVec, BitVec) {
    let mut all = weeks[0].clone();
    for w in &weeks[1..] {
        all = all.and(w);
    }
    let male = all.and(gender_male);
    (all, male)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload;

    #[test]
    fn batch_queries_match_reference_and_overlap_banks() {
        use elp2im_core::batch::BatchConfig;
        use elp2im_dram::constraint::PumpBudget;
        use elp2im_dram::geometry::{Geometry, Topology};

        let mut rng = workload::rng(23);
        let mut array = DeviceArray::new(BatchConfig {
            topology: Topology::module(Geometry {
                banks: 8,
                subarrays_per_bank: 2,
                rows_per_subarray: 32,
                row_bytes: 32,
            }),
            budget: PumpBudget::unconstrained(),
            ..BatchConfig::default()
        });
        // Users span all 8 banks (one stripe per bank).
        let n = array.row_bits() * 8;
        let weeks: Vec<BitVec> =
            (0..4).map(|_| workload::random_bitvec(&mut rng, n, 0.6)).collect();
        let gender = workload::random_bitvec(&mut rng, n, 0.5);

        let week_handles: Vec<_> = weeks.iter().map(|w| array.store(w).unwrap()).collect();
        let gender_handle = array.store(&gender).unwrap();
        let (all, male, stats) =
            run_queries_batch(&mut array, &week_handles, gender_handle).unwrap();

        let (ref_all, ref_male) = reference_queries(&weeks, &gender);
        assert_eq!(array.load(all).unwrap(), ref_all);
        assert_eq!(array.load(male).unwrap(), ref_male);
        // 4 ANDs over 8 banks each: the wall clock must crush the serial sum.
        assert!(
            stats.makespan.as_f64() < stats.busy_time.as_f64() * 0.2,
            "makespan {} vs busy {}",
            stats.makespan,
            stats.busy_time
        );
    }

    #[test]
    fn op_counts() {
        let w = BitmapWorkload::paper_default(4);
        assert_eq!(w.bulk_and_ops(), 7);
        assert_eq!(w.popcount_bits(), 32 * 1024 * 1024);
    }

    /// Fig. 13(a): both PIM designs beat the CPU; ELP2IM beats every Ambit
    /// configuration even with 10 reserved rows.
    #[test]
    fn elp2im_beats_all_ambit_configurations() {
        let study = BitmapStudy::paper_setup(4);
        let elp = PimBackend::elp2im_high_throughput();
        let imp_e = study.system_improvement(&elp);
        assert!(imp_e > 1.0, "must beat the CPU, got {imp_e:.2}");
        for rows in [4, 6, 8, 10] {
            let ambit = PimBackend::ambit_with_reserved(rows);
            let imp_a = study.system_improvement(&ambit);
            assert!(imp_a > 1.0, "Ambit-{rows} must beat the CPU");
            assert!(imp_e > imp_a, "ELP2IM ({imp_e:.2}) must beat Ambit-{rows} ({imp_a:.2})");
        }
    }

    /// Fig. 13(a): Ambit improves with reserved rows, with diminishing
    /// returns after 6.
    #[test]
    fn ambit_reserved_row_scaling() {
        let study = BitmapStudy::paper_setup(4);
        let imp: Vec<f64> = [4usize, 6, 8, 10]
            .iter()
            .map(|&r| {
                study.system_improvement(
                    &PimBackend::ambit_with_reserved(r).without_power_constraint(),
                )
            })
            .collect();
        assert!(imp[1] > imp[0], "4→6 must improve: {imp:?}");
        assert!(imp[3] >= imp[2], "8→10 must not regress: {imp:?}");
        let early_gain = imp[1] / imp[0];
        let late_gain = imp[3] / imp[1];
        assert!(early_gain > late_gain, "diminishing returns: {imp:?}");
    }

    /// §6.3.1: under the power constraint, Ambit's device throughput drops
    /// far more (paper: up to ~83 %) than ELP2IM's (~50–56 %, close to the
    /// 8 → 4 bank halving).
    #[test]
    fn power_constraint_throughput_drops() {
        let study = BitmapStudy::paper_setup(4);
        let drop = |constrained: &PimBackend, free: &PimBackend| -> f64 {
            1.0 - study.device_throughput_bits_per_ns(constrained)
                / study.device_throughput_bits_per_ns(free)
        };
        let e_drop = drop(
            &PimBackend::elp2im_high_throughput(),
            &PimBackend::elp2im_high_throughput().without_power_constraint(),
        );
        let a_drop = drop(&PimBackend::ambit(), &PimBackend::ambit().without_power_constraint());
        assert!((0.35..=0.60).contains(&e_drop), "ELP2IM drop {e_drop:.2}");
        assert!((0.70..=0.90).contains(&a_drop), "Ambit drop {a_drop:.2}");
        assert!(a_drop > e_drop + 0.15);
    }

    /// Under the power constraint, extra reserved space stops helping
    /// Ambit much (Fig. 13(b), third conclusion).
    #[test]
    fn reserved_rows_do_not_rescue_constrained_ambit() {
        let study = BitmapStudy::paper_setup(4);
        let t4 = study.device_throughput_bits_per_ns(&PimBackend::ambit_with_reserved(6));
        let t10 = study.device_throughput_bits_per_ns(&PimBackend::ambit_with_reserved(10));
        let gain = t10 / t4;
        assert!(gain < 1.6, "constrained gain 6→10 rows should be modest, got {gain:.2}");
    }

    #[test]
    fn longer_history_increases_device_share() {
        let s2 = BitmapStudy::paper_setup(2);
        let s8 = BitmapStudy::paper_setup(8);
        let b = PimBackend::elp2im_high_throughput();
        assert!(s8.device_time(&b).as_f64() > s2.device_time(&b).as_f64() * 3.0);
    }
}
