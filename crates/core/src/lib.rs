//! ELP2IM core: the paper's primary contribution.
//!
//! * [`bitvec`] — the bulk bit-vector type rows are made of.
//! * [`primitive`] — the six-plus-one ELP2IM primitives (AP, AAP, oAAP,
//!   APP, oAPP, tAPP, otAPP) with Table-1 timing and command profiles.
//! * [`engine`] — the functional subarray engine: executes primitive
//!   programs over whole rows with exact pseudo-precharge/overwrite
//!   semantics (validated against the analog model in `elp2im-circuit`).
//! * [`isa`] — primitive programs in the paper's `prmt([dst],src)` form,
//!   with latency/energy/pump accounting.
//! * [`compile`] — the logic-operation compiler: NOT/AND/OR/NAND/NOR/XOR/
//!   XNOR to primitive sequences under the three execution strategies of
//!   Fig. 5, including all six XOR sequences of Fig. 8.
//! * [`optimizer`] — the §4.2/§4.3 sequence optimizations (AP+APP merging,
//!   row-buffer-decoupling overlap, restore truncation) as rewrite passes,
//!   each translation-validated by exhaustive truth-table equivalence.
//! * [`analysis`] — the static sequence verifier: an abstract interpreter
//!   over the pseudo-precharge state machine (the §5.1 memory-controller
//!   check) plus the optimizer translation-validation obligations.
//! * [`egraph`] — a small hand-rolled equality-saturation e-graph over
//!   boolean networks (De Morgan, absorption, factoring, XOR and MAJ
//!   identities), the rewrite stage of the synthesizer.
//! * [`synth`] — the logic-synthesis compiler: expression networks →
//!   e-graph saturation → minimum-latency extraction under the Table-1
//!   cost model → truth-table translation validation.
//! * [`rowmap`] — subarray row allocation with reserved-row bookkeeping.
//! * [`batch`] — [`batch::DeviceArray`], the user-facing bulk bitwise
//!   device at every scale, from one subarray
//!   ([`batch::BatchConfig::subarray`]) to a whole channel/rank/bank
//!   topology: channel-major striping, host-parallel functional
//!   simulation, hierarchical scheduling under the charge-pump budget,
//!   and gate-at-a-time [`expr::Expr`] evaluation.
//! * [`planlint`] — the plan-level static verifier: interprocedural row
//!   borrow checking, cross-stream hazard analysis, and static timing
//!   proofs over whole batch plans before anything executes.
//!
//! # Example
//!
//! ```
//! use elp2im_core::batch::{BatchConfig, DeviceArray};
//! use elp2im_core::bitvec::BitVec;
//! use elp2im_core::compile::LogicOp;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // One subarray of 512 rows, 1 KiB each.
//! let mut dev = DeviceArray::new(BatchConfig::subarray(1024, 512));
//! let a = dev.store(&BitVec::from_bools(&[true, true, false, false]))?;
//! let b = dev.store(&BitVec::from_bools(&[true, false, true, false]))?;
//! let (x, _) = dev.binary(LogicOp::Xor, a, b)?;
//! assert_eq!(dev.load(x)?.to_bools(), vec![false, true, true, false]);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod analysis;
pub mod batch;
pub mod bitvec;
pub mod compile;
pub mod egraph;
pub mod engine;
pub mod error;
pub mod expr;
pub mod faulty;
pub mod isa;
pub mod optimizer;
pub mod parse;
pub mod planlint;
pub mod primitive;
pub mod rowmap;
pub mod synth;
pub mod validate;

pub use analysis::{analyze, verify_transform, AnalysisReport, Diagnostic, Severity};
pub use batch::{BatchConfig, BatchHandle, BatchRun, CheckedRun, DeviceArray, Stripe};
pub use bitvec::BitVec;
pub use compile::{CompileMode, LogicOp};
pub use engine::SubarrayEngine;
pub use error::CoreError;
pub use expr::{compile_expr, compile_expr_greedy, Expr, ExprOperands};
pub use faulty::{ColumnFaultModel, FaultPolicy, FaultyEngine};
pub use isa::Program;
pub use planlint::{certify, BatchPlan, PlanDiagnostic, PlanDiagnosticKind, PlanReport, PlanStep};
pub use primitive::{Primitive, RegulateMode, RowRef};
pub use synth::{synthesize, SynthOperands, Synthesis};
