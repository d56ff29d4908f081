//! A Kaby-Lake-class CPU reference model (§6.3's baseline \[49\]).
//!
//! Bulk bitwise scans and population counts over memory-resident data are
//! bandwidth-bound on a real CPU: the cores' SIMD throughput far exceeds
//! what the memory bus can feed. The model therefore takes
//! `time = max(compute, traffic / bandwidth)` with AVX2-class compute and a
//! DDR3-1600-channel bandwidth, matching how the paper's CPU baseline is
//! dominated by data movement.

use elp2im_dram::units::Ns;

/// Analytic CPU performance model.
///
/// ```
/// use elp2im_baselines::cpu::CpuModel;
/// let cpu = CpuModel::kaby_lake();
/// // A bulk AND over two 1 Mib operands is memory-bound.
/// let t = cpu.bulk_op_time(2, 1 << 20);
/// assert!(t.as_f64() > 10_000.0); // tens of microseconds
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct CpuModel {
    /// Physical cores.
    pub cores: usize,
    /// Sustained clock (GHz).
    pub freq_ghz: f64,
    /// SIMD width (bits), AVX2 = 256.
    pub simd_bits: usize,
    /// Sustained memory bandwidth (GB/s). One DDR3-1600 x64 channel
    /// delivers 12.8 GB/s peak.
    pub mem_bw_gbs: f64,
    /// Fraction of peak bandwidth actually sustained by streaming scans.
    pub bw_efficiency: f64,
}

impl CpuModel {
    /// The i7-7700K-class configuration of the paper's baseline.
    pub fn kaby_lake() -> Self {
        CpuModel { cores: 4, freq_ghz: 4.0, simd_bits: 256, mem_bw_gbs: 12.8, bw_efficiency: 0.8 }
    }

    /// Sustained bandwidth in bytes per nanosecond.
    pub fn effective_bw_bytes_per_ns(&self) -> f64 {
        self.mem_bw_gbs * self.bw_efficiency
    }

    /// Time for a bulk bitwise operation over `bits`-wide vectors with
    /// `inputs` operand streams (the result stream is written back).
    pub fn bulk_op_time(&self, inputs: usize, bits: usize) -> Ns {
        let bytes = (inputs + 1) as f64 * bits as f64 / 8.0;
        let mem_ns = bytes / self.effective_bw_bytes_per_ns();
        // One SIMD op per lane-word per cycle per core.
        let ops = bits as f64 / self.simd_bits as f64;
        let compute_ns = ops / (self.cores as f64 * self.freq_ghz);
        Ns(mem_ns.max(compute_ns))
    }

    /// Time to population-count `bits` bits (one input stream, scalar
    /// accumulation — still bandwidth-bound for large vectors).
    pub fn popcount_time(&self, bits: usize) -> Ns {
        let bytes = bits as f64 / 8.0;
        let mem_ns = bytes / self.effective_bw_bytes_per_ns();
        // popcnt on 64-bit words, ~1/cycle/core.
        let compute_ns = (bits as f64 / 64.0) / (self.cores as f64 * self.freq_ghz);
        Ns(mem_ns.max(compute_ns))
    }

    /// Equivalent bulk bitwise throughput in gigabits of operand per
    /// second for an `inputs`-stream operation.
    pub fn bulk_op_throughput_gbps(&self, inputs: usize) -> f64 {
        let bits = 1 << 20;
        bits as f64 / self.bulk_op_time(inputs, bits).as_f64()
    }
}

impl Default for CpuModel {
    fn default() -> Self {
        CpuModel::kaby_lake()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn large_scans_are_bandwidth_bound() {
        let cpu = CpuModel::kaby_lake();
        let bits = 1 << 27; // 16 MiB
        let t = cpu.bulk_op_time(2, bits);
        let bytes = 3.0 * bits as f64 / 8.0;
        let mem_only = bytes / cpu.effective_bw_bytes_per_ns();
        assert!((t.as_f64() - mem_only).abs() / mem_only < 1e-9, "memory must dominate");
    }

    #[test]
    fn more_inputs_cost_more_traffic() {
        let cpu = CpuModel::kaby_lake();
        let t2 = cpu.bulk_op_time(2, 1 << 20).as_f64();
        let t3 = cpu.bulk_op_time(3, 1 << 20).as_f64();
        assert!(t3 > t2);
        assert!((t3 / t2 - 4.0 / 3.0).abs() < 0.01);
    }

    #[test]
    fn popcount_is_cheaper_than_binary_op() {
        let cpu = CpuModel::kaby_lake();
        assert!(cpu.popcount_time(1 << 20).as_f64() < cpu.bulk_op_time(2, 1 << 20).as_f64());
    }

    #[test]
    fn throughput_is_in_plausible_range() {
        let cpu = CpuModel::kaby_lake();
        let gbps = cpu.bulk_op_throughput_gbps(2);
        // A 12.8 GB/s channel with 3 streams ⇒ ~27 Gbit/s of operand.
        assert!(gbps > 10.0 && gbps < 60.0, "got {gbps}");
    }
}
