//! DDR3 DRAM substrate for the ELP2IM reproduction.
//!
//! This crate provides everything the processing-in-memory layers sit on:
//!
//! * [`timing`] — DDR3-1600 timing parameters and the derived latencies of
//!   the ELP2IM / Ambit primitives (Table 1 of the paper).
//! * [`geometry`] — module/bank/subarray/row geometry and typed addresses.
//! * [`command`] — technology-neutral *command profiles*: duration, number
//!   of simultaneously / sequentially driven wordlines, pseudo-precharge
//!   events. Both ELP2IM and the baselines describe their primitives as
//!   profiles, and the power/constraint models consume them.
//! * [`power`] — an IDD-based energy/power model (Micron DDR3 datasheet
//!   constants) with the paper's surcharges (+31 % for a pseudo-precharge
//!   activate, +22 % per extra simultaneously driven wordline).
//! * [`constraint`] — the charge-pump / tFAW power-constraint model that
//!   limits bank-level parallelism (§6.3 of the paper).
//! * [`bank`] and [`controller`] — an event-driven multi-bank simulator that
//!   issues command streams under the pump constraint and accounts time,
//!   energy and row activations.
//! * [`hierarchy`] — the stateless, deterministic scheduler over
//!   channel/rank/bank ([`geometry::Topology`]) command streams, with
//!   per-rank pump windows and per-channel buses; single-rank workloads
//!   use [`geometry::TopoPath::flat_bank`] paths.
//! * [`interleave`] — the [`interleave::Schedule`] it produces: an exact
//!   bus trace and the true wall-clock makespan for the batch execution
//!   layer.
//! * [`verify`] — the static timing verifier: checks a *claimed* schedule
//!   (bus-order issue instants) against the pump window, per-channel
//!   in-order issue, bank occupancy and refresh blackouts, returning a
//!   concrete counterexample for every refuted obligation.
//! * [`telemetry`] — per-command trace sinks ([`telemetry::TraceSink`]),
//!   counters/histograms ([`telemetry::MetricsRegistry`]), and JSON/CSV
//!   exporters; the default [`telemetry::NullSink`] keeps the hot path free.
//! * [`json`] — a minimal self-contained JSON document model (build,
//!   render, parse) backing the exporters in this offline workspace.
//!
//! # Example
//!
//! ```
//! use elp2im_dram::timing::Ddr3Timing;
//!
//! let t = Ddr3Timing::ddr3_1600();
//! // Table 1 of the paper: a regular activate-precharge cycle is ~49 ns.
//! assert!((t.ap().as_f64() - 48.75).abs() < 0.5);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]
#![warn(missing_debug_implementations)]

pub mod bank;
pub mod command;
pub mod constraint;
pub mod controller;
pub mod error;
pub mod geometry;
pub mod hierarchy;
pub mod interleave;
pub mod json;
pub mod power;
pub mod stats;
pub mod telemetry;
pub mod timing;
pub mod units;
pub mod verify;

pub use command::{CommandClass, CommandProfile};
pub use constraint::PumpBudget;
pub use controller::Controller;
pub use error::DramError;
pub use geometry::{Geometry, RowAddr, TopoPath, Topology};
pub use hierarchy::HierarchicalScheduler;
pub use interleave::{Schedule, ScheduledCommand};
pub use json::Json;
pub use power::PowerModel;
pub use stats::RunStats;
pub use telemetry::{CommandEvent, MemorySink, MetricsRegistry, NullSink, StallReason, TraceSink};
pub use timing::Ddr3Timing;
pub use units::{Ns, Picojoules, Ps};
pub use verify::{verify_claims, ClaimedCommand, TimingViolation};
