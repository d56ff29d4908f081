//! Deterministic, stateless scheduling across channels, ranks, and banks.
//!
//! One rank's banks share one command bus and one charge-pump window.
//! Real systems stack two more levels on top (§6.3 and the
//! system-integration discussion in the bulk-bitwise survey): **ranks** on
//! the same channel share the bus but each has its own charge-pump
//! delivery network, and **channels** share nothing, so they overlap
//! fully. [`HierarchicalScheduler`] applies one set of deterministic issue
//! rules to [`TopoPath`]-addressed command streams:
//!
//! * each `(channel, rank)` pair gets its own [`PumpWindow`] — the
//!   tFAW-style activation budget constrains ranks independently;
//! * each channel gets its own in-order bus cursor — commands to any rank
//!   of one channel serialize their *issue instants*;
//! * channels are fully independent — a schedule over `c` channels with
//!   identical per-channel work has the makespan of one channel.
//!
//! A single-rank workload is the special case with every stream at
//! `c0.r0` ([`TopoPath::flat_bank`]); the golden-sequence tests pin those
//! traces bit for bit, and `tests/stats_properties.rs` proves the
//! multi-channel laws (per-channel independence,
//! [`RunStats::merge_parallel`] agreement) by property testing. Every call
//! starts from an idle array at t = 0 and is a pure function of its
//! inputs, unlike the stateful [`crate::controller::Controller`].
//!
//! # Determinism
//!
//! Streams merge in input order per path and sort by `(channel, rank,
//! bank)`; at every step the pending command with the earliest bank-free
//! time issues, ties going to the lowest path; the per-channel bus clamp
//! applies at issue, and the per-rank pump window defers last, recording
//! the deferral as that command's `pump_stall`. The selection loop runs
//! on a binary heap keyed by bank-free time, so each step is
//! `O(log banks)`.

use crate::command::CommandProfile;
use crate::constraint::{PumpBudget, PumpWindow};
use crate::error::DramError;
use crate::geometry::{TopoPath, Topology};
use crate::interleave::{Schedule, ScheduledCommand};
use crate::power::PowerModel;
use crate::stats::{ClassCounts, RunStats};
use crate::telemetry::{CommandEvent, NullSink, StallReason, TraceSink};
use crate::units::{Ns, Ps};
use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap};

/// Deterministic, stateless scheduler for [`TopoPath`]-addressed command
/// streams over a channel/rank/bank hierarchy.
///
/// ```
/// use elp2im_dram::command::CommandProfile;
/// use elp2im_dram::constraint::PumpBudget;
/// use elp2im_dram::geometry::TopoPath;
/// use elp2im_dram::hierarchy::HierarchicalScheduler;
/// use elp2im_dram::timing::Ddr3Timing;
///
/// let t = Ddr3Timing::ddr3_1600();
/// let sched = HierarchicalScheduler::new(PumpBudget::unconstrained());
/// // The same two-bank workload on each of four channels…
/// let mut streams = Vec::new();
/// for c in 0..4 {
///     for b in 0..2 {
///         streams.push((TopoPath::new(c, 0, b), vec![CommandProfile::ap(&t); 3]));
///     }
/// }
/// let s = sched.schedule(&streams).unwrap();
/// // …takes exactly as long as one channel alone: channels share nothing.
/// let one: Vec<_> = streams.iter().filter(|(p, _)| p.channel == 0).cloned().collect();
/// assert_eq!(s.stats.makespan, sched.schedule(&one).unwrap().stats.makespan);
/// ```
#[derive(Debug, Clone)]
pub struct HierarchicalScheduler {
    budget: PumpBudget,
    power: PowerModel,
}

impl HierarchicalScheduler {
    /// A scheduler giving every rank its own copy of `budget`, with the
    /// default Micron power model.
    pub fn new(budget: PumpBudget) -> Self {
        HierarchicalScheduler { budget, power: PowerModel::micron_ddr3_1600() }
    }

    /// Replaces the power model used for energy accounting.
    pub fn with_power_model(mut self, power: PowerModel) -> Self {
        self.power = power;
        self
    }

    /// The per-rank budget.
    pub fn budget(&self) -> &PumpBudget {
        &self.budget
    }

    /// Schedules `streams` (pairs of path and that bank's in-order
    /// command stream) from an idle array at t = 0.
    ///
    /// # Errors
    ///
    /// [`DramError::BankOutOfRange`] if a path component is at or above
    /// `usize::MAX / 2` (a sentinel for obviously corrupt indices); any
    /// path is otherwise legal — see [`HierarchicalScheduler::schedule_for`]
    /// for topology-validated scheduling.
    pub fn schedule(
        &self,
        streams: &[(TopoPath, Vec<CommandProfile>)],
    ) -> Result<Schedule, DramError> {
        self.schedule_with(streams, &mut NullSink)
    }

    /// [`HierarchicalScheduler::schedule`], validating every path against
    /// `topology` first. Streams may be owned vectors or borrowed slices;
    /// duplicate paths concatenate in input order.
    ///
    /// # Errors
    ///
    /// [`DramError::PathOutOfRange`] if a stream's path is outside
    /// `topology`; otherwise as [`HierarchicalScheduler::schedule`].
    pub fn schedule_for<S: AsRef<[CommandProfile]>>(
        &self,
        topology: &Topology,
        streams: &[(TopoPath, S)],
    ) -> Result<Schedule, DramError> {
        for (path, _) in streams {
            if !topology.contains(*path) {
                return Err(DramError::PathOutOfRange {
                    path: *path,
                    channels: topology.channels,
                    ranks: topology.ranks_per_channel,
                    banks: topology.geometry.banks,
                });
            }
        }
        self.schedule_with(streams, &mut NullSink)
    }

    /// [`HierarchicalScheduler::schedule`] with a dynamic trace sink.
    ///
    /// # Errors
    ///
    /// Same as [`HierarchicalScheduler::schedule`].
    pub fn schedule_traced(
        &self,
        streams: &[(TopoPath, Vec<CommandProfile>)],
        sink: &mut dyn TraceSink,
    ) -> Result<Schedule, DramError> {
        self.schedule_with(streams, sink)
    }

    /// Schedules `streams` (owned vectors or borrowed slices) while
    /// reporting every issued command to `sink`. Generic over the sink, so
    /// the [`NullSink`] instantiation behind
    /// [`HierarchicalScheduler::schedule`] compiles to the untraced path.
    ///
    /// # Errors
    ///
    /// Same as [`HierarchicalScheduler::schedule`].
    pub fn schedule_with<C: AsRef<[CommandProfile]>, S: TraceSink + ?Sized>(
        &self,
        streams: &[(TopoPath, C)],
        sink: &mut S,
    ) -> Result<Schedule, DramError> {
        let (budget, power) = (&self.budget, &self.power);
        for (path, _) in streams {
            for component in [path.channel, path.rank, path.bank] {
                if component >= usize::MAX / 2 {
                    return Err(DramError::BankOutOfRange {
                        bank: component,
                        banks: usize::MAX / 2,
                    });
                }
            }
        }
        let entries = merge_streams(streams);

        // One pump window per (channel, rank); one bus cursor per channel.
        let Resources { slots, ranks, channels } = Resources::of(entries.iter().map(|(p, _)| *p));
        let mut pumps: Vec<PumpWindow> =
            (0..ranks.len()).map(|_| PumpWindow::new(budget.clone())).collect();
        let mut rank_stats: Vec<RunStats> = (0..ranks.len()).map(|_| RunStats::new()).collect();
        // Class counters fold into the stats' string-keyed maps once, after
        // the loop; time and energy still accrue per command, in order.
        let mut counts = ClassCounts::default();
        let mut rank_counts = vec![ClassCounts::default(); ranks.len()];
        let mut last_issue: Vec<Ps> = vec![Ps::ZERO; channels];

        let mut bank_free: Vec<Ps> = vec![Ps::ZERO; entries.len()];
        let mut cursors = vec![0usize; entries.len()];
        let mut stats = RunStats::new();
        let mut commands = Vec::with_capacity(entries.iter().map(|(_, v)| v.len()).sum());

        // Ready queue keyed by bank-free time, then path order (entries are
        // path-sorted, so the index is the tie-break). A bank's free time
        // only changes when it issues, at which point it is re-pushed with
        // its new key — so the heap top is always the pending command with
        // the earliest bank-free time, lowest path first.
        let mut ready: BinaryHeap<Reverse<(Ps, usize)>> =
            (0..entries.len()).map(|i| Reverse((Ps::ZERO, i))).collect();

        while let Some(Reverse((free, i))) = ready.pop() {
            let (path, cmds) = &entries[i];
            let profile = cmds[cursors[i]];
            let (rank, channel) = slots[i];

            // In-order issue on this channel's bus, then per-rank pump
            // admission, deferring as needed.
            let requested = free.max(last_issue[channel]);
            let cost = budget.command_cost(profile);
            let mut start = requested;
            loop {
                match pumps[rank].try_admit(start, cost) {
                    Ok(()) => break,
                    Err(retry) => start = retry,
                }
            }
            let bus_wait = requested.saturating_sub(free);
            let pump_wait = start.saturating_sub(requested);
            last_issue[channel] = start;
            let done = start + profile.duration.to_ps();
            bank_free[i] = done;

            let energy = power.command_energy(profile);
            counts.bump(profile.class);
            rank_counts[rank].bump(profile.class);
            for s in [&mut stats, &mut rank_stats[rank]] {
                s.accrue(profile.duration, profile.total_wordline_events, energy);
                s.pump_stall += pump_wait.to_ns();
                s.makespan = Ns(s.makespan.as_f64().max(done.to_ns().as_f64()));
            }

            // The request is born at the bank-free instant, so the wait splits
            // exactly into the bus clamp and the pump deferral.
            let reason = if pump_wait > Ps::ZERO {
                StallReason::Pump
            } else if bus_wait > Ps::ZERO {
                StallReason::Bus
            } else {
                StallReason::None
            };
            sink.record(&CommandEvent {
                seq: commands.len() as u64,
                path: *path,
                class: profile.class,
                issue: free,
                start,
                done,
                stall: start.saturating_sub(free),
                bank_wait: Ps::ZERO,
                bus_wait,
                refresh_wait: Ps::ZERO,
                pump_wait,
                reason,
                energy,
            });

            commands.push(ScheduledCommand {
                seq: commands.len(),
                path: *path,
                index_in_bank: cursors[i],
                class: profile.class,
                start,
                done,
                pump_stall: pump_wait,
                bus_wait,
            });
            cursors[i] += 1;
            if cursors[i] < cmds.len() {
                ready.push(Reverse((done, i)));
            }
        }

        // Stamp standby accrual: the whole schedule over its wall clock, and
        // each rank over its own (so per-rank entries are themselves valid
        // schedules whose parallel merge reproduces the whole — the law
        // checked in `tests/stats_properties.rs`).
        counts.add_to(&mut stats);
        stats.background_energy = power.background_energy(stats.makespan, 1.0);
        for (s, c) in rank_stats.iter_mut().zip(&rank_counts) {
            c.add_to(s);
            s.background_energy = power.background_energy(s.makespan, 1.0);
        }

        let bank_done =
            entries.iter().enumerate().map(|(i, (path, _))| (*path, bank_free[i])).collect();
        let rank_stats = ranks.into_iter().zip(rank_stats).collect();
        Ok(Schedule { commands, stats, bank_done, rank_stats })
    }
}

/// Merges streams for scheduling and verification alike: duplicate paths
/// concatenate in input order, and entries come out sorted by path (the
/// tie-break order). Empty streams are dropped — `Schedule::bank_done`
/// promises "banks without work are absent".
pub(crate) fn merge_streams<S: AsRef<[CommandProfile]>>(
    streams: &[(TopoPath, S)],
) -> Vec<(TopoPath, Vec<&CommandProfile>)> {
    let mut merged: BTreeMap<TopoPath, Vec<&CommandProfile>> = BTreeMap::new();
    for (path, cmds) in streams {
        let cmds = cmds.as_ref();
        if !cmds.is_empty() {
            merged.entry(*path).or_default().extend(cmds);
        }
    }
    merged.into_iter().collect()
}

/// Dense pump-window and bus indices over path-sorted banks, resolved once
/// so per-command loops index plain vectors instead of looking paths up.
pub(crate) struct Resources {
    /// Per bank, in input order: its `(pump window, bus)` index pair.
    pub(crate) slots: Vec<(usize, usize)>,
    /// The `(channel, rank)` id of every pump window, sorted.
    pub(crate) ranks: Vec<(usize, usize)>,
    /// Number of buses (distinct channels).
    pub(crate) channels: usize,
}

impl Resources {
    /// Resolves `paths`, which must be sorted. Sorted input makes
    /// first-seen order the sorted order, so a change from the previous
    /// path is all the deduplication needed.
    pub(crate) fn of(paths: impl Iterator<Item = TopoPath>) -> Self {
        let mut slots = Vec::new();
        let mut ranks: Vec<(usize, usize)> = Vec::new();
        let mut channels: Vec<usize> = Vec::new();
        for path in paths {
            debug_assert!(
                ranks.last().is_none_or(|&r| r <= path.rank_id()),
                "paths must be sorted"
            );
            if ranks.last() != Some(&path.rank_id()) {
                ranks.push(path.rank_id());
            }
            if channels.last() != Some(&path.channel) {
                channels.push(path.channel);
            }
            slots.push((ranks.len() - 1, channels.len() - 1));
        }
        Resources { slots, ranks, channels: channels.len() }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::command::CommandClass;
    use crate::controller::Controller;
    use crate::timing::Ddr3Timing;

    fn t() -> Ddr3Timing {
        Ddr3Timing::ddr3_1600()
    }

    fn per_channel_streams(
        channels: usize,
        ranks: usize,
        banks: usize,
        per_bank: usize,
    ) -> Vec<(TopoPath, Vec<CommandProfile>)> {
        let mut out = Vec::new();
        for c in 0..channels {
            for r in 0..ranks {
                for b in 0..banks {
                    out.push((TopoPath::new(c, r, b), vec![CommandProfile::ap(&t()); per_bank]));
                }
            }
        }
        out
    }

    #[test]
    fn channels_overlap_fully() {
        let sched = HierarchicalScheduler::new(PumpBudget::jedec_ddr3_1600());
        let one = sched.schedule(&per_channel_streams(1, 1, 8, 6)).unwrap();
        let four = sched.schedule(&per_channel_streams(4, 1, 8, 6)).unwrap();
        // Same per-channel work on four channels: identical makespan,
        // four times the commands and dynamic energy.
        assert_eq!(one.stats.makespan, four.stats.makespan);
        assert_eq!(four.stats.total_commands(), 4 * one.stats.total_commands());
        assert!((four.stats.energy.as_f64() - 4.0 * one.stats.energy.as_f64()).abs() < 1e-6);
    }

    #[test]
    fn ranks_have_independent_pump_windows_but_share_the_bus() {
        // Workload sized so one rank's pump window saturates: a second
        // rank on the same channel must not inherit the deferrals (its
        // own window is fresh), but its issues serialize on the bus.
        let sched = HierarchicalScheduler::new(PumpBudget::jedec_ddr3_1600());
        let one_rank = sched.schedule(&per_channel_streams(1, 1, 8, 8)).unwrap();
        let two_ranks = sched.schedule(&per_channel_streams(1, 2, 8, 8)).unwrap();
        // Two ranks double the pump capacity of the channel; the combined
        // pump stall cannot exceed double a single rank's and the
        // per-rank entries must each see their own window.
        assert_eq!(two_ranks.rank_stats.len(), 2);
        for ((_, _), rs) in &two_ranks.rank_stats {
            assert!(rs.pump_stall.as_f64() <= one_rank.stats.pump_stall.as_f64() + 1e-9);
        }
        // The bus serializes: total makespan exceeds the one-rank run.
        assert!(two_ranks.stats.makespan.as_f64() > one_rank.stats.makespan.as_f64());
    }

    /// Single-rank streams, one per listed flat bank.
    fn flat(banks: &[(usize, Vec<CommandProfile>)]) -> Vec<(TopoPath, Vec<CommandProfile>)> {
        banks.iter().map(|(b, v)| (TopoPath::flat_bank(*b), v.clone())).collect()
    }

    #[test]
    fn issue_order_round_robins_by_bank_index() {
        let sched = HierarchicalScheduler::new(PumpBudget::unconstrained());
        // Input deliberately out of order: the schedule must not care.
        let ap = CommandProfile::ap(&t());
        let s = sched
            .schedule(&flat(&[
                (2, vec![ap.clone(); 2]),
                (0, vec![ap.clone(); 2]),
                (1, vec![ap.clone(); 2]),
            ]))
            .unwrap();
        let order: Vec<usize> = s.commands.iter().map(|c| c.bank()).collect();
        assert_eq!(order, vec![0, 1, 2, 0, 1, 2]);
        // Unconstrained banks overlap fully: makespan is one bank's time.
        assert!((s.stats.makespan.as_f64() - 2.0 * ap.duration.as_f64()).abs() < 0.01);
        assert_eq!(s.stats.pump_stall, Ns::ZERO);
    }

    #[test]
    fn duplicate_paths_merge_in_order() {
        let sched = HierarchicalScheduler::new(PumpBudget::unconstrained());
        let (ap, app) = (CommandProfile::ap(&t()), CommandProfile::app(&t()));
        let s = sched.schedule(&flat(&[(0, vec![ap]), (0, vec![app])])).unwrap();
        assert_eq!(s.commands.len(), 2);
        assert_eq!(s.commands[0].class, CommandClass::Ap);
        assert_eq!(s.commands[1].class, CommandClass::App);
        // One bank: fully serialized.
        assert_eq!(s.commands[1].start, s.commands[0].done);
    }

    #[test]
    fn bank_done_omits_banks_without_work() {
        // The `bank_done` doc promises "banks without work are absent":
        // an explicitly empty stream must not materialize a (bank, 0)
        // entry, whether it stands alone or rides along a duplicate.
        let sched = HierarchicalScheduler::new(PumpBudget::unconstrained());
        let ap = CommandProfile::ap(&t());
        let s = sched
            .schedule(&flat(&[(0, vec![ap.clone()]), (3, vec![]), (1, vec![ap.clone()])]))
            .unwrap();
        let banks: Vec<usize> = s.bank_done.iter().map(|(p, _)| p.bank).collect();
        assert_eq!(banks, vec![0, 1]);
        // An empty duplicate of a working bank must not disturb it either.
        let s = sched.schedule(&flat(&[(2, vec![]), (2, vec![ap]), (2, vec![])])).unwrap();
        assert_eq!(s.bank_done.len(), 1);
        assert_eq!(s.bank_done[0].0, TopoPath::flat_bank(2));
        assert!(s.bank_done[0].1 > Ps::ZERO);
        // A schedule of only empty streams reports no banks at all.
        let s = sched.schedule(&flat(&[(0, vec![]), (1, vec![])])).unwrap();
        assert!(s.bank_done.is_empty());
        assert_eq!(s.stats.total_commands(), 0);
    }

    #[test]
    fn bus_and_pump_waits_split_exactly() {
        // A command delayed by both the shared bus and the pump window
        // must split its wait exactly (integer picoseconds) into the two
        // causes, and the metrics registry's per-reason sums must match
        // its total.
        use crate::telemetry::MemorySink;
        let sched = HierarchicalScheduler::new(PumpBudget::jedec_ddr3_1600());
        // 12 banks, one AP each: seqs 0–3 issue at t = 0, seq 4 is pump-
        // deferred to 40 ns, seqs 5–7 bus-wait to 40 ns, and seq 8 hits
        // BOTH — the bus clamp to 40 ns and a again-full pump window
        // pushing it to 80 ns.
        let streams = per_channel_streams(1, 1, 12, 2);
        let mut sink = MemorySink::new();
        let s = sched.schedule_traced(&streams, &mut sink).unwrap();
        // Tracing changes nothing, identical inputs schedule identically,
        // and the sink sees every command.
        assert_eq!(s, sched.schedule(&streams).unwrap());
        assert_eq!(sink.len(), s.commands.len());
        // The JEDEC window admits 4 activates per 40 ns: seq 4 stalls first.
        assert_eq!(s.first_stall().map(|c| c.seq), Some(4));

        // Both causes must actually occur in this workload, including at
        // least one command that waits on both at once.
        assert!(sink.events.iter().any(|e| e.bus_wait > Ps::ZERO && e.pump_wait > Ps::ZERO));
        for (e, c) in sink.events.iter().zip(s.commands.iter()) {
            assert!(e.waits_reconcile(), "seq {}: waits do not sum to stall", e.seq);
            assert_eq!((e.seq as usize, e.path, e.start, e.done), (c.seq, c.path, c.start, c.done));
            assert_eq!(e.pump_wait, c.pump_stall);
            assert_eq!(e.bus_wait, c.bus_wait);
            // Dominance: a pump-deferred command reports `pump` even when
            // it also waited on the bus; a bus-only wait reports `bus`.
            assert_eq!(e.reason, e.dominant_reason());
            if e.reason == StallReason::Bus {
                assert_eq!(e.pump_wait, Ps::ZERO);
            }
        }
        // Exact reconciliation in integer picoseconds, no f64 drift.
        assert!(sink.metrics.stalls_reconcile());
        let pump_ps: u64 = s.commands.iter().map(|c| c.pump_stall.0).sum();
        let bus_ps: u64 = s.commands.iter().map(|c| c.bus_wait.0).sum();
        assert_eq!(sink.metrics.stall_ps_for(StallReason::Pump), pump_ps);
        assert_eq!(sink.metrics.stall_ps_for(StallReason::Bus), bus_ps);
        assert_eq!(sink.metrics.total_stall_ps, pump_ps + bus_ps);
        assert_eq!(pump_ps, s.stats.pump_stall.to_ps().0);
    }

    #[test]
    fn schedule_stamps_background_energy() {
        let sched = HierarchicalScheduler::new(PumpBudget::unconstrained());
        let s = sched.schedule(&per_channel_streams(1, 1, 1, 4)).unwrap();
        // One bank serializes back to back: makespan equals busy time.
        assert_eq!(s.stats.makespan, s.stats.busy_time);
        assert!(s.commands.windows(2).all(|w| w[0].done == w[1].start));
        let expect = PowerModel::micron_ddr3_1600().background_energy(s.stats.makespan, 1.0);
        assert!((s.stats.background_energy.as_f64() - expect.as_f64()).abs() < 1e-6);
        assert!(s.stats.average_power_mw() > s.stats.dynamic_power_mw());
    }

    #[test]
    fn empty_input_is_empty_schedule() {
        let sched = HierarchicalScheduler::new(PumpBudget::jedec_ddr3_1600());
        let s = sched.schedule(&[]).unwrap();
        assert!(s.commands.is_empty() && s.rank_stats.is_empty());
        assert_eq!(s.stats.total_commands(), 0);
        assert_eq!(s.stats.makespan, Ns::ZERO);
    }

    #[test]
    fn agrees_with_event_driven_controller_per_rank() {
        // Each rank of a multi-channel schedule, re-run alone through the
        // stateful controller, must reproduce the hierarchical makespan
        // for single-rank channels: the rank owns both its bus and its
        // pump window, so the hierarchy adds no coupling.
        for budget in [PumpBudget::unconstrained(), PumpBudget::jedec_ddr3_1600()] {
            let sched = HierarchicalScheduler::new(budget.clone());
            let streams = per_channel_streams(4, 1, 8, 6);
            let s = sched.schedule(&streams).unwrap();
            assert_eq!(s.rank_stats.len(), 4);
            for ((channel, rank), rs) in &s.rank_stats {
                let flat: Vec<_> = streams
                    .iter()
                    .filter(|(p, _)| p.rank_id() == (*channel, *rank))
                    .map(|(p, v)| (p.bank, v.clone()))
                    .collect();
                let mut c = Controller::new(8, budget.clone());
                let cs = c.run_streams(&flat).unwrap();
                assert!(
                    (rs.makespan.as_f64() - cs.makespan.as_f64()).abs() < 1e-6,
                    "rank c{channel}.r{rank}: hierarchical {} vs controller {}",
                    rs.makespan,
                    cs.makespan
                );
                assert!((rs.pump_stall.as_f64() - cs.pump_stall.as_f64()).abs() < 1e-6);
            }
        }
    }

    #[test]
    fn rank_stats_parallel_merge_reproduces_whole() {
        let sched = HierarchicalScheduler::new(PumpBudget::jedec_ddr3_1600());
        let s = sched.schedule(&per_channel_streams(3, 2, 4, 5)).unwrap();
        let mut folded = RunStats::new();
        for (_, rs) in &s.rank_stats {
            folded.merge_parallel(rs);
        }
        assert_eq!(folded.commands, s.stats.commands);
        assert_eq!(folded.makespan, s.stats.makespan);
        assert!((folded.energy.as_f64() - s.stats.energy.as_f64()).abs() < 1e-6);
        assert!((folded.pump_stall.as_f64() - s.stats.pump_stall.as_f64()).abs() < 1e-6);
        assert_eq!(folded.background_energy, s.stats.background_energy);
    }

    #[test]
    fn schedule_for_validates_paths() {
        let topo = Topology::new(2, 1, crate::geometry::Geometry::tiny());
        let sched = HierarchicalScheduler::new(PumpBudget::unconstrained());
        let bad = vec![(TopoPath::new(2, 0, 0), vec![CommandProfile::ap(&t())])];
        match sched.schedule_for(&topo, &bad) {
            Err(DramError::PathOutOfRange { path, channels, .. }) => {
                assert_eq!(path, TopoPath::new(2, 0, 0));
                assert_eq!(channels, 2);
            }
            other => panic!("expected PathOutOfRange, got {other:?}"),
        }
        let good = vec![(TopoPath::new(1, 0, 1), vec![CommandProfile::ap(&t())])];
        assert!(sched.schedule_for(&topo, &good).is_ok());
    }

    #[test]
    fn stall_split_reconciles_exactly_in_picoseconds() {
        use crate::telemetry::MemorySink;
        let sched = HierarchicalScheduler::new(PumpBudget::jedec_ddr3_1600());
        let mut sink = MemorySink::new();
        sched.schedule_traced(&per_channel_streams(2, 2, 8, 8), &mut sink).unwrap();
        assert!(sink.metrics.total_stall_ps > 0);
        assert!(sink.metrics.stalls_reconcile());
        for e in &sink.events {
            assert!(e.waits_reconcile());
        }
    }
}
