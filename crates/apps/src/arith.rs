//! In-DRAM bit-serial arithmetic: the DrAcc-style adder and the NID-style
//! population count.
//!
//! **DrAcc addition** (§6.3.3): "there are only 13 commands (including two
//! new propagation and shift commands, which cannot be optimized) for the
//! addition operation in Dracc" — ≈630 ns at a 49 ns cycle on the Ambit
//! substrate. The two shift/propagate commands are design-independent; the
//! remaining 11 logic commands execute with each design's primitive mix,
//! which is where ELP2IM's ~12 % advantage (Table 2) and DRISA's ~31 %
//! deficit come from.
//!
//! **NID counting** (§6.3.3): population counts are decomposed into a
//! minimum number of AND and XOR operations — per tree level, a full-adder
//! slice of 2 XORs + 2 ANDs + 1 OR over the bit-planes.
//!
//! A functional column-major (bit-serial) adder over a [`DeviceArray`]
//! (one subarray is enough:
//! [`BatchConfig::subarray`](elp2im_core::batch::BatchConfig::subarray))
//! validates the decomposition; the cost mixes below feed the Table 2/3
//! models.

use crate::backend::{DesignKind, PimBackend};
use elp2im_core::batch::{BatchHandle, DeviceArray};
use elp2im_core::bitvec::BitVec;
use elp2im_core::compile::LogicOp;
use elp2im_core::error::CoreError;
use elp2im_dram::units::Ns;

/// Latency of one DrAcc addition on `backend`'s design.
///
/// 11 logic commands in the design's primitive mix plus 2 fixed
/// shift/propagate commands (AP-class, 49 ns, identical everywhere).
pub fn dracc_add_latency(backend: &PimBackend) -> Ns {
    let t = &backend.timing;
    let shift = t.ap() * 2.0;
    let logic = match &backend.design {
        DesignKind::Elp2im { .. } => {
            // Optimized two-buffer mix: pseudo-precharge in-place steps
            // save one command and shorten the rest —
            // 5 oAAP + 2 oAPP + 3 otAPP (10 logic commands).
            t.o_aap() * 5.0 + t.o_app() * 2.0 + t.ot_app() * 3.0
        }
        // "It takes 13 cycles … which amounts to ∼630 ns with 49 ns cycle
        // time" (§2.2.3) — 11 logic + 2 shift commands at AP cadence.
        DesignKind::Ambit(_) => t.ap() * 11.0,
        DesignKind::DrisaNor(m) => {
            // A NOR-decomposed full-adder chain: 16 gate steps.
            m.step_duration() * 16.0
        }
    };
    logic + shift
}

/// Latency of one full-adder slice (carry-save step) used by the NID
/// population-count tree: 2 XOR + 2 AND + 1 OR in each design's mix.
pub fn full_adder_latency(backend: &PimBackend) -> Ns {
    [LogicOp::Xor, LogicOp::Xor, LogicOp::And, LogicOp::And, LogicOp::Or]
        .iter()
        .map(|&op| backend.op_latency(op))
        .sum()
}

/// Number of full-adder slices to reduce `n` bit-planes to a binary count
/// (a carry-save adder tree: each slice turns 3 planes into 2).
pub fn popcount_slices(n: usize) -> usize {
    if n <= 2 {
        return 0;
    }
    // 3:2 compressors until 2 planes remain, then a final ripple of
    // log2(n) slices to merge.
    let mut planes = n;
    let mut slices = 0;
    while planes > 2 {
        let groups = planes / 3;
        slices += groups;
        planes -= groups;
    }
    slices + (usize::BITS - n.leading_zeros()) as usize
}

/// Functional bit-serial ripple-carry adder over an ELP2IM device array.
///
/// Operands are column-major: `a[i]`/`b[i]` is bit-plane `i` (LSB first);
/// each lane (bit position within a plane) is an independent addition.
/// Returns `width + 1` result planes (the last is the carry-out).
///
/// # Errors
///
/// Propagates device errors (capacity, handle misuse).
pub fn bit_serial_add(
    dev: &mut DeviceArray,
    a: &[BatchHandle],
    b: &[BatchHandle],
) -> Result<Vec<BatchHandle>, CoreError> {
    assert_eq!(a.len(), b.len(), "operand widths must match");
    let mut result = Vec::with_capacity(a.len() + 1);
    let mut carry: Option<BatchHandle> = None;
    for (&pa, &pb) in a.iter().zip(b) {
        let (axb, _) = dev.binary(LogicOp::Xor, pa, pb)?;
        let (sum, new_carry) = match carry {
            None => {
                let (c, _) = dev.binary(LogicOp::And, pa, pb)?;
                (axb, c)
            }
            Some(c) => {
                let (s, _) = dev.binary(LogicOp::Xor, axb, c)?;
                let (t1, _) = dev.binary(LogicOp::And, pa, pb)?;
                let (t2, _) = dev.binary(LogicOp::And, axb, c)?;
                let (nc, _) = dev.binary(LogicOp::Or, t1, t2)?;
                dev.release(axb)?;
                dev.release(t1)?;
                dev.release(t2)?;
                dev.release(c)?;
                (s, nc)
            }
        };
        result.push(sum);
        carry = Some(new_carry);
    }
    result.push(carry.expect("non-empty operands"));
    Ok(result)
}

/// Functional column-major population count: given `n` single-bit planes,
/// produces `ceil(log2(n+1))` planes of per-lane counts, using repeated
/// bit-serial additions on the device.
///
/// # Errors
///
/// Propagates device errors.
pub fn bit_serial_popcount(
    dev: &mut DeviceArray,
    planes: &[BatchHandle],
) -> Result<Vec<BatchHandle>, CoreError> {
    assert!(!planes.is_empty(), "popcount needs at least one plane");
    // Pairwise reduction: counts grow one bit per level.
    let mut numbers: Vec<Vec<BatchHandle>> = planes.iter().map(|&p| vec![p]).collect();
    while numbers.len() > 1 {
        let mut next = Vec::with_capacity(numbers.len().div_ceil(2));
        let mut iter = numbers.into_iter();
        while let Some(x) = iter.next() {
            match iter.next() {
                Some(y) => {
                    // Pad to equal width with a shared zero plane.
                    let w = x.len().max(y.len());
                    let lanes = dev.length(x[0])?;
                    let zero = dev.store(&BitVec::zeros(lanes))?;
                    let pad = |v: &[BatchHandle]| -> Vec<BatchHandle> {
                        let mut out = v.to_vec();
                        while out.len() < w {
                            out.push(zero);
                        }
                        out
                    };
                    let sum = bit_serial_add(dev, &pad(&x), &pad(&y))?;
                    dev.release(zero)?;
                    next.push(sum);
                }
                None => next.push(x),
            }
        }
        numbers = next;
    }
    Ok(numbers.remove(0))
}

/// Modular (fixed-width) bit-serial addition: like [`bit_serial_add`] but
/// the carry-out plane is discarded, giving two's-complement wrap-around.
///
/// # Errors
///
/// Propagates device errors.
pub fn bit_serial_add_mod(
    dev: &mut DeviceArray,
    a: &[BatchHandle],
    b: &[BatchHandle],
) -> Result<Vec<BatchHandle>, CoreError> {
    let mut sum = bit_serial_add(dev, a, b)?;
    let carry = sum.pop().expect("add returns width+1 planes");
    dev.release(carry)?;
    Ok(sum)
}

/// Two's-complement negation of a column-major number: `!x + 1` at fixed
/// width.
///
/// # Errors
///
/// Propagates device errors.
pub fn bit_serial_negate(
    dev: &mut DeviceArray,
    x: &[BatchHandle],
) -> Result<Vec<BatchHandle>, CoreError> {
    let lanes = dev.length(x[0])?;
    let inverted: Vec<BatchHandle> =
        x.iter().map(|&p| dev.not(p).map(|(h, _)| h)).collect::<Result<_, _>>()?;
    // The constant 1: a ones plane at bit 0, zeros elsewhere.
    let mut one = vec![dev.store(&BitVec::ones(lanes))?];
    for _ in 1..x.len() {
        one.push(dev.store(&BitVec::zeros(lanes))?);
    }
    let result = bit_serial_add_mod(dev, &inverted, &one)?;
    for h in inverted.into_iter().chain(one) {
        dev.release(h)?;
    }
    Ok(result)
}

/// DrAcc's core operation: a ternary-weight dot product. Each lane
/// accumulates `Σ wᵢ · xᵢ` with `wᵢ ∈ {-1, 0, +1}` over fixed-width
/// two's-complement column-major numbers (wrap-around semantics).
///
/// Returns the accumulator planes (same width as the inputs).
///
/// # Errors
///
/// Propagates device errors.
///
/// # Panics
///
/// Panics if `activations` and `weights` lengths differ, or any weight is
/// outside `{-1, 0, 1}`.
pub fn twn_dot_product(
    dev: &mut DeviceArray,
    activations: &[Vec<BatchHandle>],
    weights: &[i8],
) -> Result<Vec<BatchHandle>, CoreError> {
    assert_eq!(activations.len(), weights.len(), "one weight per activation");
    assert!(!activations.is_empty(), "need at least one term");
    let width = activations[0].len();
    let lanes = dev.length(activations[0][0])?;
    let mut acc: Vec<BatchHandle> =
        (0..width).map(|_| dev.store(&BitVec::zeros(lanes))).collect::<Result<_, _>>()?;
    for (x, &w) in activations.iter().zip(weights) {
        assert!((-1..=1).contains(&w), "ternary weights only, got {w}");
        if w == 0 {
            continue;
        }
        let term: Vec<BatchHandle> = if w == 1 { x.clone() } else { bit_serial_negate(dev, x)? };
        let new_acc = bit_serial_add_mod(dev, &acc, &term)?;
        for h in acc {
            dev.release(h)?;
        }
        if w == -1 {
            for h in term {
                dev.release(h)?;
            }
        }
        acc = new_acc;
    }
    Ok(acc)
}

#[cfg(test)]
mod tests {
    use super::*;
    use elp2im_core::batch::BatchConfig;

    /// One subarray of `rows` rows, `bytes` wide, with two reserved rows.
    fn device(bytes: usize, rows: usize) -> DeviceArray {
        DeviceArray::new(BatchConfig { reserved_rows: 2, ..BatchConfig::subarray(bytes, rows) })
    }

    fn store_planes(dev: &mut DeviceArray, vals: &[u64], width: usize) -> Vec<BatchHandle> {
        // vals[lane] little-endian; plane i holds bit i of every lane.
        (0..width)
            .map(|i| {
                let plane: BitVec = vals.iter().map(|v| (v >> i) & 1 == 1).collect();
                dev.store(&plane).unwrap()
            })
            .collect()
    }

    fn load_lanes(dev: &DeviceArray, planes: &[BatchHandle], lanes: usize) -> Vec<u64> {
        (0..lanes)
            .map(|lane| {
                planes.iter().enumerate().fold(0u64, |acc, (i, &p)| {
                    acc | (u64::from(dev.load(p).unwrap().get(lane)) << i)
                })
            })
            .collect()
    }

    #[test]
    fn bit_serial_add_matches_scalar_addition() {
        let mut dev = device(8, 200);
        let a_vals = [0u64, 1, 7, 9, 15, 6, 3, 12];
        let b_vals = [0u64, 1, 1, 9, 15, 5, 8, 4];
        let a = store_planes(&mut dev, &a_vals, 4);
        let b = store_planes(&mut dev, &b_vals, 4);
        let sum = bit_serial_add(&mut dev, &a, &b).unwrap();
        assert_eq!(sum.len(), 5);
        let got = load_lanes(&dev, &sum, a_vals.len());
        for (i, (&x, &y)) in a_vals.iter().zip(&b_vals).enumerate() {
            assert_eq!(got[i], x + y, "lane {i}: {x}+{y}");
        }
    }

    #[test]
    fn bit_serial_popcount_matches_count_ones() {
        let mut dev = device(8, 200);
        // 5 planes; lane i's count = number of planes with bit i set.
        let planes_bits: [u64; 5] = [0b1011, 0b0011, 0b1110, 0b0001, 0b1000];
        let planes: Vec<BatchHandle> = planes_bits
            .iter()
            .map(|&p| {
                let v: BitVec = (0..4).map(|i| (p >> i) & 1 == 1).collect();
                dev.store(&v).unwrap()
            })
            .collect();
        let count = bit_serial_popcount(&mut dev, &planes).unwrap();
        let got = load_lanes(&dev, &count, 4);
        for (lane, &got_lane) in got.iter().enumerate().take(4) {
            let expect = planes_bits.iter().filter(|&&p| (p >> lane) & 1 == 1).count() as u64;
            assert_eq!(got_lane, expect, "lane {lane}");
        }
    }

    /// Table 2's driver: the per-addition latency ordering
    /// ELP2IM < Ambit < DRISA with ratios ≈ 1.13 and ≈ 0.66.
    #[test]
    fn dracc_add_latency_ratios() {
        let e = dracc_add_latency(&PimBackend::elp2im_accelerator()).as_f64();
        let a = dracc_add_latency(&PimBackend::ambit().without_power_constraint()).as_f64();
        let d = dracc_add_latency(&PimBackend::drisa().without_power_constraint()).as_f64();
        assert!((a - 630.0).abs() < 15.0, "ambit add ≈ 630 ns, got {a}");
        let improvement = a / e;
        assert!((1.05..=1.20).contains(&improvement), "elp2im vs ambit: {improvement:.3}");
        let drisa_rel = a / d;
        assert!((0.6..=0.8).contains(&drisa_rel), "drisa vs ambit: {drisa_rel:.3}");
    }

    #[test]
    fn full_adder_slice_ordering() {
        let e = full_adder_latency(&PimBackend::elp2im_accelerator()).as_f64();
        let a = full_adder_latency(&PimBackend::ambit().without_power_constraint()).as_f64();
        let d = full_adder_latency(&PimBackend::drisa().without_power_constraint()).as_f64();
        assert!(e < a, "elp2im {e} < ambit {a}");
        assert!(a < d, "ambit {a} < drisa {d}");
    }

    #[test]
    fn twn_dot_product_matches_signed_arithmetic() {
        let width = 6u32;
        let lanes = 8;
        let mut dev = device(1, 400);
        // 4 activations per lane, ternary weights mixing all three values.
        let acts: [[u64; 8]; 4] = [
            [1, 2, 3, 4, 5, 6, 7, 8],
            [0, 1, 0, 1, 0, 1, 0, 1],
            [9, 8, 7, 6, 5, 4, 3, 2],
            [3, 3, 3, 3, 3, 3, 3, 3],
        ];
        let weights: [i8; 4] = [1, -1, 1, 0];
        let handles: Vec<Vec<BatchHandle>> = acts
            .iter()
            .map(|vals| {
                (0..width)
                    .map(|i| {
                        let plane: BitVec = vals.iter().map(|v| (v >> i) & 1 == 1).collect();
                        dev.store(&plane).unwrap()
                    })
                    .collect()
            })
            .collect();
        let acc = twn_dot_product(&mut dev, &handles, &weights).unwrap();
        assert_eq!(acc.len(), width as usize);
        let mask = (1u64 << width) - 1;
        for lane in 0..lanes {
            let expect: i64 =
                acts.iter().zip(&weights).map(|(vals, &w)| i64::from(w) * vals[lane] as i64).sum();
            let got: u64 = acc
                .iter()
                .enumerate()
                .map(|(i, &h)| u64::from(dev.load(h).unwrap().get(lane)) << i)
                .sum();
            assert_eq!(got, (expect as u64) & mask, "lane {lane}: {expect}");
        }
    }

    #[test]
    fn negate_is_twos_complement() {
        let width = 4u32;
        let mut dev = device(1, 200);
        let vals = [0u64, 1, 7, 15];
        let x: Vec<BatchHandle> = (0..width)
            .map(|i| {
                let plane: BitVec = vals.iter().map(|v| (v >> i) & 1 == 1).collect();
                dev.store(&plane).unwrap()
            })
            .collect();
        let neg = bit_serial_negate(&mut dev, &x).unwrap();
        for (lane, &val) in vals.iter().enumerate() {
            let got: u64 = neg
                .iter()
                .enumerate()
                .map(|(i, &h)| u64::from(dev.load(h).unwrap().get(lane)) << i)
                .sum();
            assert_eq!(got, val.wrapping_neg() & 0xF, "lane {lane}");
        }
    }

    #[test]
    fn popcount_slices_grows_with_planes() {
        assert_eq!(popcount_slices(1), 0);
        assert_eq!(popcount_slices(2), 0);
        assert!(popcount_slices(9) > popcount_slices(3));
        assert!(popcount_slices(256) > popcount_slices(64));
    }
}
