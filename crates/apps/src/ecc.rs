//! Parity protection for bitwise PIM — quantifying §6.1.2's observation
//! that "traditional error correcting code (ECC) is not compatible with
//! bitwise logic operation".
//!
//! A [`ParityGuard`] maintains a column-wise parity row over a set of
//! guarded rows (parity = XOR of all guarded rows, computed in-DRAM).
//! Detection of a single flipped bit works — but the *cost* is the point:
//!
//! * XOR is linear, so updating parity after `dst := a ^ b` would be free
//!   in a word-oriented ECC; but AND/OR results are **not** linear
//!   functions of the codewords, so the parity must be *recomputed from
//!   scratch* (`n−1` bulk XORs) after any AND/OR-producing operation.
//! * That recomputation costs more than the protected operation itself —
//!   the quantitative form of the paper's "further extensive research
//!   would be needed".

use elp2im_core::batch::{BatchHandle, DeviceArray};
use elp2im_core::compile::LogicOp;
use elp2im_core::error::CoreError;
use elp2im_dram::units::Ns;

/// A parity row guarding a set of device rows.
#[derive(Debug)]
pub struct ParityGuard {
    guarded: Vec<BatchHandle>,
    parity: BatchHandle,
}

impl ParityGuard {
    /// Builds the parity row over `rows` with in-DRAM XORs.
    ///
    /// # Errors
    ///
    /// Device errors propagate.
    ///
    /// # Panics
    ///
    /// Panics if `rows` is empty.
    pub fn new(dev: &mut DeviceArray, rows: &[BatchHandle]) -> Result<Self, CoreError> {
        assert!(!rows.is_empty(), "guard needs at least one row");
        let (parity, _) = Self::xor_chain(dev, rows)?;
        Ok(ParityGuard { guarded: rows.to_vec(), parity })
    }

    /// XOR-folds `rows` into a fresh parity row; returns the handle and the
    /// number of bulk XORs actually executed: `n−1` for `n ≥ 2` (pairwise
    /// chain seeded with `rows[0] ^ rows[1]`), `2` for a single row (the
    /// device exposes no raw RowClone, so copying costs `r^r = 0` then
    /// `0^r = r`).
    fn xor_chain(
        dev: &mut DeviceArray,
        rows: &[BatchHandle],
    ) -> Result<(BatchHandle, usize), CoreError> {
        if let [only] = rows {
            let (zero, _) = dev.binary(LogicOp::Xor, *only, *only)?;
            let (copy, _) = dev.binary(LogicOp::Xor, zero, *only)?;
            dev.release(zero)?;
            return Ok((copy, 2));
        }
        let (mut acc, _) = dev.binary(LogicOp::Xor, rows[0], rows[1])?;
        for &r in &rows[2..] {
            let (next, _) = dev.binary(LogicOp::Xor, acc, r)?;
            dev.release(acc)?;
            acc = next;
        }
        Ok((acc, rows.len() - 1))
    }

    /// The parity row handle.
    pub fn parity(&self) -> BatchHandle {
        self.parity
    }

    /// Recomputes parity from scratch and compares with the stored parity
    /// row; `Ok(true)` means no corruption detected.
    ///
    /// # Errors
    ///
    /// Device errors propagate.
    pub fn check(&self, dev: &mut DeviceArray) -> Result<bool, CoreError> {
        let (fresh, _) = Self::xor_chain(dev, &self.guarded)?;
        let (diff, _) = dev.binary(LogicOp::Xor, fresh, self.parity)?;
        let clean = dev.load(diff)?.is_zero();
        dev.release(fresh)?;
        dev.release(diff)?;
        Ok(clean)
    }

    /// Refreshes the stored parity (after legitimate updates to guarded
    /// rows). Returns the number of bulk XOR operations actually executed
    /// on the device — the §6.1.2 incompatibility cost: `n−1` for `n ≥ 2`
    /// guarded rows, `2` for a single row (see [`Self::xor_chain`]).
    ///
    /// # Errors
    ///
    /// Device errors propagate.
    pub fn refresh(&mut self, dev: &mut DeviceArray) -> Result<usize, CoreError> {
        let (fresh, xors) = Self::xor_chain(dev, &self.guarded)?;
        dev.release(self.parity)?;
        self.parity = fresh;
        Ok(xors)
    }

    /// The in-DRAM time one parity refresh costs on `dev`'s configuration,
    /// versus the cost of the single AND it might be protecting.
    pub fn refresh_overhead_vs_and(dev: &DeviceArray, guarded_rows: usize) -> (Ns, Ns) {
        use elp2im_core::compile::{compile, Operands};
        let t = elp2im_dram::timing::Ddr3Timing::ddr3_1600();
        let xor = compile(
            LogicOp::Xor,
            dev.config().mode,
            Operands::standard(),
            dev.config().reserved_rows,
        )
        .expect("xor compiles")
        .latency(&t);
        let and = compile(
            LogicOp::And,
            dev.config().mode,
            Operands::standard(),
            dev.config().reserved_rows,
        )
        .expect("and compiles")
        .latency(&t);
        (xor * (guarded_rows.saturating_sub(1)) as f64, and)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload;
    use elp2im_core::batch::BatchConfig;
    use elp2im_core::bitvec::BitVec;

    fn setup(n_rows: usize, bits: usize) -> (DeviceArray, Vec<BatchHandle>) {
        let mut dev = DeviceArray::new(BatchConfig {
            reserved_rows: 2,
            ..BatchConfig::subarray(bits.div_ceil(8), 64)
        });
        let mut rng = workload::rng(23);
        let rows = (0..n_rows)
            .map(|_| dev.store(&workload::random_bitvec(&mut rng, bits, 0.5)).unwrap())
            .collect();
        (dev, rows)
    }

    #[test]
    fn parity_matches_software_xor() {
        let (mut dev, rows) = setup(5, 64);
        let guard = ParityGuard::new(&mut dev, &rows).unwrap();
        let mut want = BitVec::zeros(64);
        for &r in &rows {
            want = want.xor(&dev.load(r).unwrap());
        }
        assert_eq!(dev.load(guard.parity()).unwrap(), want);
    }

    #[test]
    fn clean_rows_pass_the_check() {
        let (mut dev, rows) = setup(4, 32);
        let guard = ParityGuard::new(&mut dev, &rows).unwrap();
        assert!(guard.check(&mut dev).unwrap());
    }

    #[test]
    fn single_bit_fault_is_detected() {
        let (mut dev, rows) = setup(4, 32);
        let guard = ParityGuard::new(&mut dev, &rows).unwrap();
        dev.inject_bit_error(rows[2], 17).unwrap();
        assert!(!guard.check(&mut dev).unwrap(), "fault must be detected");
    }

    #[test]
    fn refresh_reconciles_legitimate_updates() {
        let (mut dev, mut rows) = setup(3, 16);
        let mut guard = ParityGuard::new(&mut dev, &rows).unwrap();
        // Legitimately overwrite a guarded row (dst := a & b elsewhere,
        // then swap the handle into the guarded set).
        let (new_row, _) = dev.binary(LogicOp::And, rows[0], rows[1]).unwrap();
        rows[2] = new_row;
        let mut guard2 = ParityGuard { guarded: rows.clone(), parity: guard.parity() };
        assert!(!guard2.check(&mut dev).unwrap(), "stale parity must fail");
        let xors = guard2.refresh(&mut dev).unwrap();
        assert_eq!(xors, 2);
        assert!(guard2.check(&mut dev).unwrap());
        guard.parity = guard2.parity; // silence the leak of the old handle
    }

    #[test]
    fn refresh_rebaselines_after_multi_column_corruption() {
        let (mut dev, rows) = setup(4, 32);
        let mut guard = ParityGuard::new(&mut dev, &rows).unwrap();
        // One flip each in three distinct columns: every hit column has odd
        // parity, so the check fails.
        dev.inject_bit_error(rows[0], 3).unwrap();
        dev.inject_bit_error(rows[1], 9).unwrap();
        dev.inject_bit_error(rows[3], 30).unwrap();
        assert!(!guard.check(&mut dev).unwrap(), "multi-column corruption must be detected");
        // refresh() re-baselines: the corrupted contents become the new
        // ground truth and the guard is consistent again.
        let xors = guard.refresh(&mut dev).unwrap();
        assert_eq!(xors, 3, "n = 4 rows fold in exactly n - 1 bulk XORs");
        assert!(guard.check(&mut dev).unwrap());
    }

    #[test]
    fn paired_same_column_flips_evade_parity() {
        let (mut dev, rows) = setup(4, 32);
        let guard = ParityGuard::new(&mut dev, &rows).unwrap();
        // Parity is a distance-2 code: an even number of flips in the same
        // column cancels and is invisible to the check.
        dev.inject_bit_error(rows[0], 11).unwrap();
        dev.inject_bit_error(rows[2], 11).unwrap();
        assert!(guard.check(&mut dev).unwrap());
    }

    #[test]
    fn refresh_reports_the_device_ops_it_actually_spends() {
        let (mut dev, rows) = setup(5, 32);
        let mut guard = ParityGuard::new(&mut dev, &rows).unwrap();
        let before = dev.stats().total_commands();
        let xors = guard.refresh(&mut dev).unwrap();
        let spent = dev.stats().total_commands() - before;
        // With two reserved rows each bulk XOR compiles to seq6 (6
        // commands). The old zero-seeded chain executed two hidden extra
        // XORs beyond the reported n−1; the pairwise chain spends exactly
        // what it reports.
        assert_eq!(spent, xors as u64 * 6);
    }

    #[test]
    fn single_row_guard_costs_the_copy_trick() {
        let (mut dev, rows) = setup(1, 16);
        let mut guard = ParityGuard::new(&mut dev, &rows).unwrap();
        assert!(guard.check(&mut dev).unwrap());
        dev.inject_bit_error(rows[0], 2).unwrap();
        assert!(!guard.check(&mut dev).unwrap());
        // A single guarded row still costs 2 XORs (r^r = 0, 0^r = r).
        assert_eq!(guard.refresh(&mut dev).unwrap(), 2);
        assert!(guard.check(&mut dev).unwrap());
    }

    /// The §6.1.2 cost statement: protecting one AND with parity costs
    /// several times the AND itself.
    #[test]
    fn parity_refresh_dwarfs_the_protected_operation() {
        let (dev, _) = setup(8, 16);
        let (refresh, and) = ParityGuard::refresh_overhead_vs_and(&dev, 8);
        assert!(refresh.as_f64() > 5.0 * and.as_f64(), "refresh {refresh} vs and {and}");
    }
}
