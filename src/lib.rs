//! # ELP2IM — Efficient and Low Power Bitwise Operation Processing in DRAM
//!
//! A from-scratch Rust reproduction of *ELP2IM* (Xin, Zhang, Yang; HPCA
//! 2020), including every substrate its evaluation depends on.
//!
//! This facade crate re-exports the workspace members:
//!
//! * [`dram`] — DDR3-1600 timing/power substrate and power-constraint model.
//! * [`circuit`] — circuit-level DRAM column simulator (pseudo-precharge
//!   states, charge sharing, process-variation Monte Carlo).
//! * [`core`] — the ELP2IM primitives, functional engine, operation
//!   compiler, and bulk bitwise device API.
//! * [`baselines`] — Ambit, DRISA-NOR, RowClone and a CPU reference model.
//! * [`apps`] — the four case studies: bitmap indices, BitWeaving table
//!   scans, DrAcc ternary-weight CNNs and NID binary CNNs.
//!
//! # Quickstart
//!
//! ```
//! use elp2im::core::batch::{BatchConfig, DeviceArray};
//! use elp2im::core::bitvec::BitVec;
//! use elp2im::core::compile::LogicOp;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // One subarray of 512 rows, 1 KiB each.
//! let mut dev = DeviceArray::new(BatchConfig::subarray(1024, 512));
//! let a = dev.store(&BitVec::from_bools(&[true, false, true, false]))?;
//! let b = dev.store(&BitVec::from_bools(&[true, true, false, false]))?;
//! let (c, _) = dev.binary(LogicOp::And, a, b)?;
//! assert_eq!(dev.load(c)?.to_bools(), vec![true, false, false, false]);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]

pub use elp2im_apps as apps;
pub use elp2im_baselines as baselines;
pub use elp2im_circuit as circuit;
pub use elp2im_core as core;
pub use elp2im_dram as dram;
