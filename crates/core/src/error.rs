//! Error types for the ELP2IM core.

use crate::primitive::RowRef;
use crate::validate::Violation;
use elp2im_dram::error::DramError;
use std::error::Error;
use std::fmt;

/// Errors produced by the functional engine and device layers.
#[derive(Debug, Clone, PartialEq)]
pub enum CoreError {
    /// A data-row index exceeded the subarray size.
    RowOutOfRange {
        /// Offending reference.
        row: RowRef,
        /// Data rows available.
        rows: usize,
        /// Reserved DCC rows available.
        dcc_rows: usize,
    },
    /// A row whose restore was truncated (tAPP/otAPP) was read before being
    /// rewritten.
    DestroyedRowRead(RowRef),
    /// A row was read before ever being written.
    UninitializedRow(RowRef),
    /// A row value had the wrong bit width for this subarray.
    WidthMismatch {
        /// Subarray row width.
        expected: usize,
        /// Provided width.
        got: usize,
    },
    /// An overlapped double activation named two rows of the same decoder
    /// domain (§2.2.1: overlap requires separate decoders).
    DualDecoderViolation {
        /// First row.
        a: RowRef,
        /// Second row.
        b: RowRef,
    },
    /// A device handle did not name a live row.
    InvalidHandle(usize),
    /// A bit index lay beyond the end of a stored vector.
    BitOutOfRange {
        /// The requested bit.
        bit: usize,
        /// The vector's length in bits.
        len: usize,
    },
    /// The subarray has no free data rows left.
    CapacityExceeded {
        /// Data rows in the subarray.
        rows: usize,
    },
    /// The compiler was asked for a sequence needing more reserved rows
    /// than the configuration provides.
    NotEnoughReservedRows {
        /// Rows required.
        needed: usize,
        /// Rows available.
        available: usize,
    },
    /// The in-place mode only supports `dst := dst OP src` for AND/OR.
    UnsupportedInPlace {
        /// Operation name.
        op: &'static str,
    },
    /// In-place compilation requires the second operand to be the
    /// destination row.
    InPlaceOperandMismatch {
        /// Second operand row.
        b: usize,
        /// Destination row.
        dst: usize,
    },
    /// The requested XOR sequence needs a scratch data row that was not
    /// provided (Fig. 8 sequence 1).
    ScratchRowRequired,
    /// The static analyzer rejected the program before execution (the §5.1
    /// memory-controller check a buffered sequence must pass).
    StaticViolation(Violation),
    /// The logic-synthesis pipeline could not produce (or could not prove)
    /// a program for the requested network; callers fall back to greedy
    /// lowering.
    SynthesisFailed(String),
    /// The plan-level static verifier rejected a batch plan before
    /// execution; the string is the first diagnostic's rendered text (the
    /// concrete counterexample).
    PlanRejected(String),
    /// The DRAM command scheduler refused the operation's command streams
    /// (e.g. a stream addressed to a bank outside the module).
    Schedule(DramError),
    /// A query named a column the table does not have.
    UnknownColumn(String),
    /// A comparison constant does not fit the compared column's width.
    ConstantOutOfRange {
        /// The constant.
        constant: u64,
        /// Column width in bits.
        width: u32,
    },
    /// An expression named a variable beyond the inputs supplied.
    UnknownVariable {
        /// The variable index.
        var: usize,
        /// Number of inputs supplied (valid indices are `0..inputs`).
        inputs: usize,
    },
    /// A bit-serial arithmetic operation was given no operands (no
    /// bit-planes, or no terms).
    EmptyOperands,
    /// A ternary-weight dot product was given a weight outside
    /// `{-1, 0, 1}`.
    WeightOutOfRange {
        /// Position of the weight.
        index: usize,
        /// The weight.
        weight: i8,
    },
}

impl fmt::Display for CoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CoreError::RowOutOfRange { row, rows, dcc_rows } => write!(
                f,
                "row {row} out of range (subarray has {rows} data rows, {dcc_rows} reserved rows)"
            ),
            CoreError::DestroyedRowRead(r) => {
                write!(f, "row {r} was destroyed by a trimmed restore and not rewritten")
            }
            CoreError::UninitializedRow(r) => write!(f, "row {r} read before being written"),
            CoreError::WidthMismatch { expected, got } => {
                write!(f, "row width mismatch: subarray rows are {expected} bits, got {got}")
            }
            CoreError::DualDecoderViolation { a, b } => {
                write!(f, "overlapped activation of {a} and {b} requires different decoder domains")
            }
            CoreError::InvalidHandle(h) => write!(f, "invalid row handle {h}"),
            CoreError::BitOutOfRange { bit, len } => {
                write!(f, "bit {bit} out of range for a {len}-bit vector")
            }
            CoreError::CapacityExceeded { rows } => {
                write!(f, "no free rows (subarray capacity {rows})")
            }
            CoreError::NotEnoughReservedRows { needed, available } => {
                write!(f, "sequence needs {needed} reserved rows, only {available} configured")
            }
            CoreError::UnsupportedInPlace { op } => {
                write!(f, "in-place mode supports only AND/OR, not {op}")
            }
            CoreError::InPlaceOperandMismatch { b, dst } => {
                write!(f, "in-place mode computes dst := dst OP src, but b = r{b} ≠ dst = r{dst}")
            }
            CoreError::ScratchRowRequired => {
                f.write_str("this sequence needs a scratch data row (none provided)")
            }
            CoreError::StaticViolation(v) => write!(f, "statically invalid program: {v}"),
            CoreError::SynthesisFailed(reason) => write!(f, "logic synthesis failed: {reason}"),
            CoreError::PlanRejected(reason) => {
                write!(f, "statically invalid plan: {reason}")
            }
            CoreError::Schedule(e) => write!(f, "command scheduling failed: {e}"),
            CoreError::UnknownColumn(name) => write!(f, "unknown column `{name}`"),
            CoreError::ConstantOutOfRange { constant, width } => {
                write!(f, "constant {constant} does not fit a {width}-bit column")
            }
            CoreError::UnknownVariable { var, inputs } => {
                write!(f, "variable x{var} out of range ({inputs} inputs supplied)")
            }
            CoreError::EmptyOperands => f.write_str("operation needs at least one operand plane"),
            CoreError::WeightOutOfRange { index, weight } => {
                write!(f, "weight {index} is {weight}; ternary weights are -1, 0 or 1")
            }
        }
    }
}

impl Error for CoreError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            CoreError::Schedule(e) => Some(e),
            _ => None,
        }
    }
}

impl From<Violation> for CoreError {
    fn from(v: Violation) -> Self {
        CoreError::StaticViolation(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages() {
        let e = CoreError::DestroyedRowRead(RowRef::Data(3));
        assert!(format!("{e}").contains("destroyed"));
        let e = CoreError::DualDecoderViolation { a: RowRef::Data(0), b: RowRef::Data(1) };
        assert!(format!("{e}").contains("decoder"));
        let e = CoreError::WidthMismatch { expected: 64, got: 32 };
        assert!(format!("{e}").contains("64"));
    }

    #[test]
    fn scheduler_errors_keep_their_cause() {
        use elp2im_dram::command::CommandProfile;
        use elp2im_dram::constraint::PumpBudget;
        use elp2im_dram::controller::Controller;
        use elp2im_dram::timing::Ddr3Timing;
        // A real scheduler refusal, mapped the way the device layers map it.
        let ap = CommandProfile::ap(&Ddr3Timing::ddr3_1600());
        let e = Controller::new(2, PumpBudget::unconstrained())
            .run_streams(&[(5, vec![ap])])
            .map_err(CoreError::Schedule)
            .unwrap_err();
        let cause = DramError::BankOutOfRange { bank: 5, banks: 2 };
        assert_eq!(e, CoreError::Schedule(cause.clone()));
        assert_eq!(
            format!("{e}"),
            "command scheduling failed: bank 5 out of range (module has 2 banks)"
        );
        let source = e.source().expect("scheduler errors expose their cause");
        assert_eq!(source.to_string(), cause.to_string());
        assert!(CoreError::ScratchRowRequired.source().is_none());
    }

    #[test]
    fn implements_std_error_send_sync() {
        fn assert_err<E: Error + Send + Sync + 'static>() {}
        assert_err::<CoreError>();
    }
}
