//! The outcome of scheduling per-bank command streams.
//!
//! The batch execution layer (`elp2im-core::batch`) shards a bulk bitwise
//! operation across banks and needs to know what the command buses
//! actually do with the resulting per-bank primitive streams: the true
//! wall-clock **makespan** under the shared charge-pump/tFAW window
//! (§6.3), not the per-bank serial `busy_time`. The stateless
//! [`crate::hierarchy::HierarchicalScheduler`] answers with a
//! [`Schedule`]: that makespan plus the exact per-command trace
//! ([`ScheduledCommand`]) a logic analyzer on the bus would record, which
//! the golden-sequence tests pin down cycle by cycle. A single-rank
//! workload addresses its banks as [`TopoPath::flat_bank`] paths.

use crate::command::CommandClass;
use crate::geometry::TopoPath;
use crate::stats::RunStats;
use crate::units::{Ns, Ps};

/// One command as actually issued on a channel's bus.
#[derive(Debug, Clone, PartialEq)]
pub struct ScheduledCommand {
    /// Global issue order (0-based).
    pub seq: usize,
    /// Bank the command executes on. Flat single-rank schedules report
    /// `c0.r0.b<bank>`.
    pub path: TopoPath,
    /// Position within that bank's stream.
    pub index_in_bank: usize,
    /// Command classification.
    pub class: CommandClass,
    /// Issue instant.
    pub start: Ps,
    /// Completion instant.
    pub done: Ps,
    /// Delay inserted before this command because its rank's
    /// charge-pump/tFAW window was exhausted.
    pub pump_stall: Ps,
    /// Delay inserted before this command by in-order issue on its
    /// channel's shared bus (zero when the bank itself was the limiter).
    pub bus_wait: Ps,
}

impl ScheduledCommand {
    /// Flat bank index, for single-rank traces.
    pub fn bank(&self) -> usize {
        self.path.bank
    }
}

/// The full outcome of scheduling one batch of per-bank streams.
#[derive(Debug, Clone, PartialEq)]
pub struct Schedule {
    /// Exact bus trace, in issue order.
    pub commands: Vec<ScheduledCommand>,
    /// Aggregate statistics: `busy_time` is the per-bank serial sum,
    /// `makespan` the true wall clock, `pump_stall` the summed deferrals.
    pub stats: RunStats,
    /// Completion time of each bank that had work, keyed by path and
    /// sorted by it (banks without work are absent).
    pub bank_done: Vec<(TopoPath, Ps)>,
    /// Per-rank statistics, keyed by `(channel, rank)` and sorted by it;
    /// ranks without work are absent. Each entry is the stats of that
    /// rank's sub-trace (its own makespan and standby accrual), so a
    /// [`RunStats::merge_parallel`] fold over the entries reproduces the
    /// whole-schedule `stats`. Flat schedules have at most one entry,
    /// keyed `(0, 0)`.
    pub rank_stats: Vec<((usize, usize), RunStats)>,
}

impl Schedule {
    /// Wall-clock makespan of the batch.
    pub fn makespan(&self) -> Ns {
        self.stats.makespan
    }

    /// The trace restricted to one flat bank (channel 0, rank 0), in
    /// issue order.
    pub fn bank_trace(&self, bank: usize) -> Vec<&ScheduledCommand> {
        self.trace_for(TopoPath::flat_bank(bank))
    }

    /// The trace restricted to one bank path, in issue order.
    pub fn trace_for(&self, path: TopoPath) -> Vec<&ScheduledCommand> {
        self.commands.iter().filter(|c| c.path == path).collect()
    }

    /// The statistics of one rank's sub-trace, if it had work.
    pub fn rank_stats_for(&self, channel: usize, rank: usize) -> Option<&RunStats> {
        self.rank_stats.iter().find(|(id, _)| *id == (channel, rank)).map(|(_, s)| s)
    }

    /// Wall-clock makespan of one channel's sub-trace (zero when the
    /// channel had no work).
    pub fn channel_makespan(&self, channel: usize) -> Ns {
        self.rank_stats
            .iter()
            .filter(|((c, _), _)| *c == channel)
            .map(|(_, s)| s.makespan)
            .fold(Ns::ZERO, |a, b| Ns(a.as_f64().max(b.as_f64())))
    }

    /// The first command that was stalled by the pump window, if any.
    pub fn first_stall(&self) -> Option<&ScheduledCommand> {
        self.commands.iter().find(|c| c.pump_stall > Ps::ZERO)
    }

    /// The schedule as a list of claims — `(path, start)` in bus issue
    /// order — the form [`crate::verify::verify_claims`] checks. A
    /// schedule produced by this crate's schedulers always verifies clean
    /// against its own input streams.
    pub fn claims(&self) -> Vec<crate::verify::ClaimedCommand> {
        self.commands
            .iter()
            .map(|c| crate::verify::ClaimedCommand { path: c.path, start: c.start })
            .collect()
    }
}
