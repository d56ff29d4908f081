//! A handle-based bulk bitwise device over one Ambit subarray, so
//! workloads can run functionally on Ambit and on a one-subarray ELP2IM
//! `DeviceArray` and their substrate statistics can be compared one-to-one
//! (the cross-design checks live in the workspace integration tests).

use crate::ambit::{AmbitEngine, AmbitError};
use elp2im_core::bitvec::BitVec;
use elp2im_core::compile::LogicOp;
use elp2im_dram::stats::RunStats;
use std::collections::HashMap;

/// Handle to a stored row.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct AmbitRowHandle(usize);

/// Configuration of an [`AmbitDevice`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AmbitDeviceConfig {
    /// Row width in bits.
    pub width: usize,
    /// Data rows in the subarray (the B-/C-groups are extra).
    pub data_rows: usize,
}

impl Default for AmbitDeviceConfig {
    fn default() -> Self {
        AmbitDeviceConfig { width: 8192, data_rows: 512 }
    }
}

/// A bulk bitwise device in the Ambit design (full 10-row reserved
/// configuration).
///
/// ```
/// use elp2im_baselines::ambit_device::{AmbitDevice, AmbitDeviceConfig};
/// use elp2im_core::bitvec::BitVec;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut dev = AmbitDevice::new(AmbitDeviceConfig { width: 8, data_rows: 16 });
/// let a = dev.store(&BitVec::from_bools(&[true, false]))?;
/// let b = dev.store(&BitVec::from_bools(&[true, true]))?;
/// let c = dev.and(a, b)?;
/// assert_eq!(dev.load(c)?.to_bools(), vec![true, false]);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct AmbitDevice {
    config: AmbitDeviceConfig,
    engine: AmbitEngine,
    free: Vec<usize>,
    handles: HashMap<usize, (usize, usize)>,
    next_handle: usize,
}

impl AmbitDevice {
    /// Creates a device.
    ///
    /// # Panics
    ///
    /// Panics on a zero-width or zero-row configuration.
    pub fn new(config: AmbitDeviceConfig) -> Self {
        assert!(config.width > 0 && config.data_rows > 0, "degenerate configuration");
        AmbitDevice {
            engine: AmbitEngine::new(config.width, config.data_rows),
            free: (0..config.data_rows).rev().collect(),
            handles: HashMap::new(),
            next_handle: 0,
            config,
        }
    }

    /// The configuration in use.
    pub fn config(&self) -> &AmbitDeviceConfig {
        &self.config
    }

    /// Accumulated substrate statistics.
    pub fn stats(&self) -> &RunStats {
        self.engine.stats()
    }

    fn lookup(&self, h: AmbitRowHandle) -> Result<(usize, usize), AmbitError> {
        self.handles
            .get(&h.0)
            .copied()
            .ok_or(AmbitError::Uninitialized(crate::ambit::AmbitRow::Data(h.0)))
    }

    fn pad(&self, value: &BitVec) -> BitVec {
        assert!(value.len() <= self.config.width, "vector wider than a row");
        let mut padded = BitVec::zeros(self.config.width);
        for i in 0..value.len() {
            padded.set(i, value.get(i));
        }
        padded
    }

    /// Stores a bit vector into a fresh row.
    ///
    /// # Errors
    ///
    /// Returns an uninitialized-row error when the subarray is full.
    pub fn store(&mut self, value: &BitVec) -> Result<AmbitRowHandle, AmbitError> {
        let row = self
            .free
            .pop()
            .ok_or(AmbitError::RowOutOfRange(crate::ambit::AmbitRow::Data(usize::MAX)))?;
        self.engine.write_row(row, self.pad(value))?;
        let h = self.next_handle;
        self.next_handle += 1;
        self.handles.insert(h, (row, value.len()));
        Ok(AmbitRowHandle(h))
    }

    /// Loads a row back, trimmed to its original length.
    ///
    /// # Errors
    ///
    /// Dead handles are errors.
    pub fn load(&self, h: AmbitRowHandle) -> Result<BitVec, AmbitError> {
        let (row, len) = self.lookup(h)?;
        let full = self.engine.row(crate::ambit::AmbitRow::Data(row))?;
        Ok((0..len).map(|i| full.get(i)).collect())
    }

    /// Releases a row.
    ///
    /// # Errors
    ///
    /// Dead handles are errors.
    pub fn release(&mut self, h: AmbitRowHandle) -> Result<(), AmbitError> {
        let (row, _) = self.lookup(h)?;
        self.handles.remove(&h.0);
        self.free.push(row);
        Ok(())
    }

    /// Executes `op` into a fresh row via the Ambit command sequences.
    ///
    /// # Errors
    ///
    /// Handle and capacity errors propagate.
    pub fn binary(
        &mut self,
        op: LogicOp,
        a: AmbitRowHandle,
        b: AmbitRowHandle,
    ) -> Result<AmbitRowHandle, AmbitError> {
        let (ra, la) = self.lookup(a)?;
        let (rb, _) = self.lookup(b)?;
        let dst = self
            .free
            .pop()
            .ok_or(AmbitError::RowOutOfRange(crate::ambit::AmbitRow::Data(usize::MAX)))?;
        if let Err(e) = self.engine.run_op(op, ra, rb, dst) {
            self.free.push(dst);
            return Err(e);
        }
        let h = self.next_handle;
        self.next_handle += 1;
        self.handles.insert(h, (dst, la));
        Ok(AmbitRowHandle(h))
    }

    /// Bulk AND.
    ///
    /// # Errors
    ///
    /// See [`AmbitDevice::binary`].
    pub fn and(
        &mut self,
        a: AmbitRowHandle,
        b: AmbitRowHandle,
    ) -> Result<AmbitRowHandle, AmbitError> {
        self.binary(LogicOp::And, a, b)
    }

    /// Bulk OR.
    ///
    /// # Errors
    ///
    /// See [`AmbitDevice::binary`].
    pub fn or(
        &mut self,
        a: AmbitRowHandle,
        b: AmbitRowHandle,
    ) -> Result<AmbitRowHandle, AmbitError> {
        self.binary(LogicOp::Or, a, b)
    }

    /// Bulk XOR.
    ///
    /// # Errors
    ///
    /// See [`AmbitDevice::binary`].
    pub fn xor(
        &mut self,
        a: AmbitRowHandle,
        b: AmbitRowHandle,
    ) -> Result<AmbitRowHandle, AmbitError> {
        self.binary(LogicOp::Xor, a, b)
    }

    /// Bulk NOT.
    ///
    /// # Errors
    ///
    /// Handle and capacity errors propagate.
    pub fn not(&mut self, a: AmbitRowHandle) -> Result<AmbitRowHandle, AmbitError> {
        let (ra, la) = self.lookup(a)?;
        let dst = self
            .free
            .pop()
            .ok_or(AmbitError::RowOutOfRange(crate::ambit::AmbitRow::Data(usize::MAX)))?;
        if let Err(e) = self.engine.run_op(LogicOp::Not, ra, ra, dst) {
            self.free.push(dst);
            return Err(e);
        }
        let h = self.next_handle;
        self.next_handle += 1;
        self.handles.insert(h, (dst, la));
        Ok(AmbitRowHandle(h))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dev() -> AmbitDevice {
        AmbitDevice::new(AmbitDeviceConfig { width: 16, data_rows: 16 })
    }

    #[test]
    fn store_load_roundtrip() {
        let mut d = dev();
        let v = BitVec::from_bools(&[true, false, true]);
        let h = d.store(&v).unwrap();
        assert_eq!(d.load(h).unwrap(), v);
    }

    #[test]
    fn all_ops_match_software() {
        let a_bits = [false, false, true, true];
        let b_bits = [false, true, false, true];
        for op in LogicOp::ALL {
            let mut d = dev();
            let a = d.store(&BitVec::from_bools(&a_bits)).unwrap();
            let b = d.store(&BitVec::from_bools(&b_bits)).unwrap();
            let c = if op.is_unary() { d.not(a).unwrap() } else { d.binary(op, a, b).unwrap() };
            let got = d.load(c).unwrap();
            let want: Vec<bool> =
                a_bits.iter().zip(&b_bits).map(|(&x, &y)| op.eval(x, y)).collect();
            assert_eq!(got.to_bools(), want, "{op}");
        }
    }

    #[test]
    fn release_recycles() {
        let mut d = AmbitDevice::new(AmbitDeviceConfig { width: 8, data_rows: 2 });
        let h1 = d.store(&BitVec::ones(4)).unwrap();
        let _h2 = d.store(&BitVec::ones(4)).unwrap();
        assert!(d.store(&BitVec::ones(4)).is_err(), "full subarray");
        d.release(h1).unwrap();
        assert!(d.store(&BitVec::ones(4)).is_ok());
    }

    #[test]
    fn stats_show_the_wordline_disadvantage() {
        let mut d = dev();
        let a = d.store(&BitVec::ones(8)).unwrap();
        let b = d.store(&BitVec::zeros(8)).unwrap();
        let _ = d.and(a, b).unwrap();
        // Ambit AND: 10 wordline events (vs ELP2IM's 5 / in-place 2).
        assert_eq!(d.stats().wordline_activations, 10);
    }
}
