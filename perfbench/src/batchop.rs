//! One batch operation split into its layers from outside, through the
//! public API only:
//!
//! * `batch.prepare` — [`DeviceArray::plan`] (placement, compile, live-in
//!   snapshot; rows released again);
//! * `planlint.certify` — [`certify`] on that plan;
//! * `batch.op` — the real [`DeviceArray::binary`] / [`DeviceArray::not`];
//! * `sched.schedule` — [`HierarchicalScheduler::schedule`] on the streams
//!   rebuilt from the executed plan's steps;
//! * `engine.kernel` — the plan's programs replayed on a standalone
//!   [`SubarrayEngine`] of the same shape (word work only).
//!
//! The rebuilt schedule and the certified makespan must both equal the
//! op's own makespan bit for bit, or the op fails: that proves the
//! decomposition measures the program the op ran.

use crate::trace::Trace;
use elp2im_core::batch::{BatchHandle, DeviceArray};
use elp2im_core::compile::LogicOp;
use elp2im_core::optimizer::PhysRow;
use elp2im_core::{certify, BatchPlan, BitVec, RowRef, SubarrayEngine};
use elp2im_dram::command::CommandProfile;
use elp2im_dram::geometry::TopoPath;
use elp2im_dram::hierarchy::HierarchicalScheduler;
use elp2im_dram::stats::RunStats;
use std::collections::BTreeMap;

/// The standalone engine the plan's programs are replayed on.
pub fn replay_engine(array: &DeviceArray) -> SubarrayEngine {
    let c = array.config();
    SubarrayEngine::new(array.row_bits(), c.geometry().rows_per_subarray, c.reserved_rows)
}

/// Runs `op(a, b)` (`b = None` for NOT) with every layer timed as a child
/// span of `parent`, and records the op's counts.
pub fn traced_op(
    array: &mut DeviceArray,
    replay: &mut SubarrayEngine,
    op: LogicOp,
    a: BatchHandle,
    b: Option<BatchHandle>,
    tr: &mut Trace,
    parent: usize,
) -> Result<BatchHandle, String> {
    let group = tr.open("batch.decomposed_op", Some(parent));
    let plan = tr.time("batch.prepare", Some(group), || array.plan(op, a, b));
    let plan = plan.map_err(|e| format!("plan {op}: {e}"))?;
    let report = tr.time("planlint.certify", Some(group), || certify(&plan));
    if let Some(err) = report.first_error() {
        return Err(format!("certify rejected {op}: {err}"));
    }
    let run = tr.time("batch.op", Some(group), || match b {
        Some(b) => array.binary(op, a, b),
        None => array.not(a),
    });
    let (h, run) = run.map_err(|e| format!("{op}: {e}"))?;
    let executed = array.last_plan().ok_or("op left no plan")?;
    let streams = rebuild_streams(executed);
    let sched = HierarchicalScheduler::new(executed.budget.clone());
    let schedule = tr.time("sched.schedule", Some(group), || sched.schedule(&streams));
    let schedule = schedule.map_err(|e| format!("rebuilt schedule: {e}"))?;

    let makespan = run.stats().makespan.as_f64();
    if schedule.stats.makespan.as_f64().to_bits() != makespan.to_bits() {
        return Err(format!(
            "rebuilt schedule makespan {} != op makespan {makespan}",
            schedule.stats.makespan
        ));
    }
    match report.makespan() {
        Some(m) if m.as_f64().to_bits() == makespan.to_bits() => {}
        other => return Err(format!("certified makespan {other:?} != op makespan {makespan}")),
    }

    let words = replay_inputs(replay, executed)?;
    let kernel = tr.time("engine.kernel", Some(group), || {
        executed.steps.iter().try_for_each(|s| replay.run(s.program.primitives()))
    });
    kernel.map_err(|e| format!("engine replay: {e}"))?;
    tr.close(group);

    let stats = &schedule.stats;
    tr.count("apps.ops", 1.0);
    tr.count("engine.words", words as f64);
    tr.count("batch.units_busy", run.banks_used as f64);
    tr.count("sched.commands", schedule.commands.len() as f64);
    tr.count("sched.pump_stall_ns", stats.pump_stall.as_f64());
    let bus_wait: f64 = schedule.commands.iter().map(|c| c.bus_wait.0 as f64 / 1e3).sum();
    tr.count("sched.bus_wait_ns", bus_wait);
    tr.count("sched.makespan_ns", makespan);
    tr.count("sched.busy_ns", stats.busy_time.as_f64());
    Ok(h)
}

/// Modeled DRAM time (ns) and dynamic + background energy (pJ) the array
/// accrued since `before`: the sum of the sequential makespans of the ops
/// in between.
pub fn modeled_since(array: &DeviceArray, before: &RunStats) -> (f64, f64) {
    let s = array.stats();
    let energy = |s: &RunStats| s.energy.as_f64() + s.background_energy.as_f64();
    (s.makespan.as_f64() - before.makespan.as_f64(), energy(s) - energy(before))
}

/// Per-unit command streams in unit order, exactly as the batch layer
/// builds them from its steps.
fn rebuild_streams(plan: &BatchPlan) -> Vec<(TopoPath, Vec<CommandProfile>)> {
    let mut by_unit: BTreeMap<usize, (TopoPath, Vec<CommandProfile>)> = BTreeMap::new();
    for s in &plan.steps {
        by_unit
            .entry(s.unit)
            .or_insert_with(|| (s.stream, Vec::new()))
            .1
            .extend(s.program.profiles(&plan.timing));
    }
    by_unit.into_values().collect()
}

/// Makes every data row a step reads live on the replay engine (contents
/// do not matter to the word work) and returns the words the replay
/// processes.
fn replay_inputs(replay: &mut SubarrayEngine, plan: &BatchPlan) -> Result<usize, String> {
    let words_per_row = replay.width().div_ceil(64);
    let mut words = 0;
    for s in &plan.steps {
        for row in plan.live_in.get(&(s.unit, s.subarray)).into_iter().flatten() {
            if let PhysRow::Data(i) = *row {
                if !replay.is_live(RowRef::Data(i)) {
                    replay
                        .write_row(i, BitVec::zeros(replay.width()))
                        .map_err(|e| format!("replay input row {i}: {e}"))?;
                }
            }
        }
        words += s.program.len() * words_per_row;
    }
    Ok(words)
}
