//! BitWeaving/V: vertical bit layout and bit-serial predicate evaluation
//! (Li & Patel, SIGMOD 2013 — the §6.3.2 substrate).
//!
//! Each `w`-bit code is stored column-wise: bit-plane `i` holds bit `i`
//! (MSB first) of every code. A `value < constant` predicate is evaluated
//! MSB-to-LSB with running `lt`/`eq` vectors:
//!
//! ```text
//! for i in MSB..=LSB:
//!   if c_i == 1 { lt |= eq & !a_i ; eq &= a_i }
//!   else        { eq &= !a_i }
//! ```
//!
//! A software reference, a functional in-DRAM executor over a
//! [`DeviceArray`] (one subarray or a whole striped module), and the
//! operation-mix counter used by the Fig. 14 cost model live here.

use crate::backend::OpKind;
use elp2im_core::batch::{BatchHandle, DeviceArray};
use elp2im_core::bitvec::{BitVec, WORD_BITS};
use elp2im_core::compile::LogicOp;
use elp2im_core::error::CoreError;

/// A vertically laid out column of `w`-bit codes.
#[derive(Debug, Clone, PartialEq)]
pub struct VerticalLayout {
    width: u32,
    /// Plane 0 is the MSB.
    planes: Vec<BitVec>,
    len: usize,
}

impl VerticalLayout {
    /// Lays out `values` (each `< 2^width`) vertically.
    ///
    /// # Panics
    ///
    /// Panics if `width` is 0, exceeds 63, or any value does not fit.
    pub fn from_values(values: &[u64], width: u32) -> Self {
        assert!((1..=63).contains(&width), "width must be 1..=63");
        assert!(values.iter().all(|&v| v < (1 << width)), "all values must fit in {width} bits");
        let planes = (0..width)
            .map(|i| {
                let bit = width - 1 - i; // plane 0 = MSB
                values.iter().map(|&v| (v >> bit) & 1 == 1).collect()
            })
            .collect();
        VerticalLayout { width, planes, len: values.len() }
    }

    /// Code width in bits.
    pub fn width(&self) -> u32 {
        self.width
    }

    /// Number of codes.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the layout holds no codes.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The bit-planes, MSB first.
    pub fn planes(&self) -> &[BitVec] {
        &self.planes
    }

    /// Reconstructs the original values. Decodes word-at-a-time: each
    /// plane word is loaded once and shifted into 64 lanes, instead of a
    /// bounds-checked per-bit `get` for every (lane, plane) pair.
    pub fn to_values(&self) -> Vec<u64> {
        let mut out = vec![0u64; self.len];
        for plane in &self.planes {
            for (chunk, &w) in out.chunks_mut(WORD_BITS).zip(plane.words()) {
                for (i, v) in chunk.iter_mut().enumerate() {
                    *v = (*v << 1) | ((w >> i) & 1);
                }
            }
        }
        out
    }

    /// Software reference: the `value < constant` result vector.
    ///
    /// # Panics
    ///
    /// Panics if `constant` does not fit in the code width.
    pub fn less_than_reference(&self, constant: u64) -> BitVec {
        assert!(constant < (1 << self.width), "constant must fit");
        let mut lt = BitVec::zeros(self.len);
        let mut eq = BitVec::ones(self.len);
        let mut tmp = BitVec::zeros(self.len);
        for (i, plane) in self.planes.iter().enumerate() {
            let c_bit = (constant >> (self.width - 1 - i as u32)) & 1 == 1;
            if c_bit {
                // lt |= eq & !plane; eq &= plane — in place, three scratch-free
                // word loops per plane instead of three fresh allocations.
                tmp.copy_from(plane);
                tmp.not_assign();
                tmp.and_assign(&eq);
                lt.or_assign(&tmp);
                eq.and_assign(plane);
            } else {
                tmp.copy_from(plane);
                tmp.not_assign();
                eq.and_assign(&tmp);
            }
        }
        lt
    }
}

/// A comparison predicate against a constant.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Predicate {
    /// `value < c`
    Lt,
    /// `value <= c`
    Le,
    /// `value > c`
    Gt,
    /// `value >= c`
    Ge,
    /// `value == c`
    Eq,
    /// `value != c`
    Ne,
}

impl Predicate {
    /// Scalar reference semantics.
    pub fn eval(self, value: u64, c: u64) -> bool {
        match self {
            Predicate::Lt => value < c,
            Predicate::Le => value <= c,
            Predicate::Gt => value > c,
            Predicate::Ge => value >= c,
            Predicate::Eq => value == c,
            Predicate::Ne => value != c,
        }
    }

    /// All predicates.
    pub const ALL: [Predicate; 6] =
        [Predicate::Lt, Predicate::Le, Predicate::Gt, Predicate::Ge, Predicate::Eq, Predicate::Ne];
}

impl VerticalLayout {
    /// Software reference for any comparison predicate.
    ///
    /// # Panics
    ///
    /// Panics if `constant` does not fit in the code width.
    pub fn compare_reference(&self, pred: Predicate, constant: u64) -> BitVec {
        assert!(constant < (1 << self.width), "constant must fit");
        self.to_values().into_iter().map(|v| pred.eval(v, constant)).collect()
    }
}

/// Executes any comparison predicate on a [`DeviceArray`] over stored
/// bit-plane handles (MSB first). Builds the running `lt`/`eq` vectors and
/// finishes with the predicate-specific combination (`gt = !(lt | eq)`,
/// `ge = !lt`, …). Every bulk step runs sharded across the array's banks,
/// so wide columns (more lanes than one row holds) execute with true
/// bank-level parallelism. The aggregate scheduling statistics accumulate
/// in [`DeviceArray::stats`].
///
/// # Errors
///
/// Propagates batch-layer errors.
///
/// # Panics
///
/// Panics if `planes` is empty or `constant` does not fit the plane count.
pub fn compare_on_array(
    array: &mut DeviceArray,
    planes: &[BatchHandle],
    pred: Predicate,
    constant: u64,
    lanes: usize,
) -> Result<BatchHandle, CoreError> {
    let width = planes.len() as u32;
    assert!(width > 0 && constant < (1 << width), "constant must fit the plane count");
    let mut lt = array.store(&BitVec::zeros(lanes))?;
    let mut eq = array.store(&BitVec::ones(lanes))?;
    for (i, &plane) in planes.iter().enumerate() {
        let c_bit = (constant >> (width - 1 - i as u32)) & 1 == 1;
        let (not_a, _) = array.not(plane)?;
        if c_bit {
            let (t, _) = array.binary(LogicOp::And, eq, not_a)?;
            let (new_lt, _) = array.binary(LogicOp::Or, lt, t)?;
            let (new_eq, _) = array.binary(LogicOp::And, eq, plane)?;
            array.release(t)?;
            array.release(lt)?;
            array.release(eq)?;
            lt = new_lt;
            eq = new_eq;
        } else {
            let (new_eq, _) = array.binary(LogicOp::And, eq, not_a)?;
            array.release(eq)?;
            eq = new_eq;
        }
        array.release(not_a)?;
    }
    let result = match pred {
        Predicate::Lt => {
            array.release(eq)?;
            lt
        }
        Predicate::Le => {
            let (r, _) = array.binary(LogicOp::Or, lt, eq)?;
            array.release(lt)?;
            array.release(eq)?;
            r
        }
        Predicate::Gt => {
            let (le, _) = array.binary(LogicOp::Or, lt, eq)?;
            let (r, _) = array.not(le)?;
            array.release(le)?;
            array.release(lt)?;
            array.release(eq)?;
            r
        }
        Predicate::Ge => {
            let (r, _) = array.not(lt)?;
            array.release(lt)?;
            array.release(eq)?;
            r
        }
        Predicate::Eq => {
            array.release(lt)?;
            eq
        }
        Predicate::Ne => {
            let (r, _) = array.not(eq)?;
            array.release(lt)?;
            array.release(eq)?;
            r
        }
    };
    Ok(result)
}

/// Executes the `<` predicate on a bank-parallel [`DeviceArray`] over
/// striped bit-plane handles (MSB first). Returns the `lt` result handle.
///
/// # Errors
///
/// Propagates batch-layer errors.
pub fn less_than_on_array(
    array: &mut DeviceArray,
    planes: &[BatchHandle],
    constant: u64,
    lanes: usize,
) -> Result<BatchHandle, CoreError> {
    compare_on_array(array, planes, Predicate::Lt, constant, lanes)
}

/// The bulk-operation mix of one `<` predicate over `width`-bit codes with
/// the given constant, per vector-width chunk: `(kind, count)` pairs.
///
/// A `1` bit in the constant costs NOT + AND(fresh temp) + in-place OR
/// into `lt` + in-place AND into `eq`; a `0` bit costs NOT + in-place AND.
/// The in-place accumulations are where ELP2IM's APP-AP shines (§3.3).
pub fn less_than_op_mix(width: u32, constant: u64) -> Vec<(OpKind, u64)> {
    let ones = (constant & ((1 << width) - 1)).count_ones() as u64;
    let zeros = width as u64 - ones;
    vec![
        (OpKind::Fresh(LogicOp::Not), ones + zeros),
        (OpKind::Fresh(LogicOp::And), ones),
        (OpKind::InPlace(LogicOp::And), ones + zeros),
        (OpKind::InPlace(LogicOp::Or), ones),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload;

    #[test]
    fn layout_roundtrip() {
        let vals = [5u64, 0, 15, 9, 3];
        let layout = VerticalLayout::from_values(&vals, 4);
        assert_eq!(layout.to_values(), vals);
        assert_eq!(layout.width(), 4);
        assert_eq!(layout.len(), 5);
        assert_eq!(layout.planes().len(), 4);
    }

    #[test]
    fn reference_matches_scalar_comparison() {
        let mut rng = workload::rng(3);
        let vals = workload::random_values(&mut rng, 500, 8);
        let layout = VerticalLayout::from_values(&vals, 8);
        for c in [0u64, 1, 100, 200, 255] {
            let lt = layout.less_than_reference(c);
            for (i, &v) in vals.iter().enumerate() {
                assert_eq!(lt.get(i), v < c, "value {v} < {c}");
            }
        }
    }

    #[test]
    fn array_execution_matches_reference_across_banks() {
        use elp2im_core::batch::{BatchConfig, DeviceArray};
        use elp2im_dram::constraint::PumpBudget;
        use elp2im_dram::geometry::{Geometry, Topology};

        let mut rng = workload::rng(9);
        let mut array = DeviceArray::new(BatchConfig {
            topology: Topology::module(Geometry {
                banks: 4,
                subarrays_per_bank: 2,
                rows_per_subarray: 64,
                row_bytes: 16,
            }),
            budget: PumpBudget::unconstrained(),
            ..BatchConfig::default()
        });
        // Lanes span all four banks (one stripe each).
        let n = array.row_bits() * 4;
        let vals = workload::random_values(&mut rng, n, 6);
        let layout = VerticalLayout::from_values(&vals, 6);
        let planes: Vec<_> = layout.planes().iter().map(|p| array.store(p).unwrap()).collect();
        for c in [0u64, 7, 31, 42, 63] {
            let h = less_than_on_array(&mut array, &planes, c, n).unwrap();
            assert_eq!(array.load(h).unwrap(), layout.less_than_reference(c), "c = {c}");
            array.release(h).unwrap();
        }
        // The accumulated schedule overlapped the four banks.
        let s = array.stats();
        assert!(
            s.makespan.as_f64() < s.busy_time.as_f64() * 0.5,
            "makespan {} vs busy {}",
            s.makespan,
            s.busy_time
        );
    }

    #[test]
    fn all_predicates_match_scalar_on_array() {
        use elp2im_core::batch::{BatchConfig, DeviceArray};
        use elp2im_dram::geometry::{Geometry, Topology};

        let mut rng = workload::rng(29);
        let mut array = DeviceArray::new(BatchConfig {
            topology: Topology::module(Geometry {
                banks: 2,
                subarrays_per_bank: 2,
                rows_per_subarray: 64,
                row_bytes: 16,
            }),
            ..BatchConfig::default()
        });
        let n = array.row_bits() * 2 + 19; // uneven tail stripe
        let vals = workload::random_values(&mut rng, n, 5);
        let layout = VerticalLayout::from_values(&vals, 5);
        let planes: Vec<_> = layout.planes().iter().map(|p| array.store(p).unwrap()).collect();
        for pred in Predicate::ALL {
            for c in [0u64, 5, 16, 31] {
                let h = compare_on_array(&mut array, &planes, pred, c, n).unwrap();
                let got = array.load(h).unwrap();
                assert_eq!(got, layout.compare_reference(pred, c), "{pred:?} vs {c}");
                array.release(h).unwrap();
            }
        }
    }

    #[test]
    fn op_mix_counts() {
        // width 4, constant 0b1010: two '1' bits, two '0' bits.
        let mix = less_than_op_mix(4, 0b1010);
        let find = |k: OpKind| mix.iter().find(|(o, _)| *o == k).unwrap().1;
        assert_eq!(find(OpKind::Fresh(LogicOp::Not)), 4);
        assert_eq!(find(OpKind::Fresh(LogicOp::And)), 2);
        assert_eq!(find(OpKind::InPlace(LogicOp::And)), 4);
        assert_eq!(find(OpKind::InPlace(LogicOp::Or)), 2);
    }

    #[test]
    fn wider_codes_cost_more_ops() {
        let total =
            |w: u32| -> u64 { less_than_op_mix(w, (1u64 << w) - 1).iter().map(|(_, n)| n).sum() };
        assert!(total(16) > total(8));
        assert!(total(8) > total(4));
    }

    #[test]
    #[should_panic(expected = "must fit")]
    fn oversized_value_panics() {
        VerticalLayout::from_values(&[16], 4);
    }

    #[test]
    fn predicate_pairs_are_complements() {
        let vals = [0u64, 3, 7, 12, 15];
        let layout = VerticalLayout::from_values(&vals, 4);
        for c in [0u64, 7, 15] {
            let lt = layout.compare_reference(Predicate::Lt, c);
            let ge = layout.compare_reference(Predicate::Ge, c);
            assert_eq!(lt.not(), ge, "lt/ge complement at {c}");
            let eq = layout.compare_reference(Predicate::Eq, c);
            let ne = layout.compare_reference(Predicate::Ne, c);
            assert_eq!(eq.not(), ne, "eq/ne complement at {c}");
            let le = layout.compare_reference(Predicate::Le, c);
            let gt = layout.compare_reference(Predicate::Gt, c);
            assert_eq!(le.not(), gt, "le/gt complement at {c}");
            assert_eq!(lt.or(&eq), le, "lt|eq == le at {c}");
        }
    }
}
