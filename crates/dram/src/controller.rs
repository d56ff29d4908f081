//! Event-driven multi-bank controller with pump-constraint enforcement.
//!
//! The PIM layers hand per-bank command streams to the controller; it
//! interleaves them, enforcing (a) per-bank serialization and (b) the
//! rank-wide charge-pump budget via an exact sliding window
//! ([`crate::constraint::PumpWindow`]). The result is the makespan, energy,
//! and stall accounting used by the §6.3 case studies to validate the
//! analytic parallelism estimates.

use crate::bank::BankState;
use crate::command::CommandProfile;
use crate::constraint::{refresh_blackout_end, PumpBudget, PumpWindow};
use crate::error::DramError;
use crate::geometry::TopoPath;
use crate::power::PowerModel;
use crate::stats::RunStats;
use crate::telemetry::{CommandEvent, StallReason, TraceSink};
use crate::units::{Ns, Picojoules, Ps};

/// Event-driven controller over the banks of one rank.
///
/// ```
/// use elp2im_dram::controller::Controller;
/// use elp2im_dram::command::CommandProfile;
/// use elp2im_dram::constraint::PumpBudget;
/// use elp2im_dram::timing::Ddr3Timing;
///
/// let t = Ddr3Timing::ddr3_1600();
/// let mut ctrl = Controller::new(8, PumpBudget::unconstrained());
/// // 8 banks each run one AP; unconstrained, they fully overlap.
/// let streams: Vec<_> = (0..8).map(|b| (b, vec![CommandProfile::ap(&t)])).collect();
/// let stats = ctrl.run_streams(&streams).unwrap();
/// assert!((stats.makespan.as_f64() - t.ap().as_f64()).abs() < 0.01);
/// ```
#[derive(Debug)]
pub struct Controller {
    banks: Vec<BankState>,
    pump: PumpWindow,
    power: PowerModel,
    now: Ps,
    /// Commands issue over a single shared command bus, so issue instants
    /// are globally non-decreasing. This also keeps the pump window's
    /// sliding accounting exact (no retroactive draws).
    last_issue: Ps,
    /// Periodic refresh blackout: `(interval, duration)` — every
    /// `interval`, the rank is unavailable for `duration` (all-bank
    /// refresh at the start of each interval).
    refresh: Option<(Ps, Ps)>,
    stats: RunStats,
    /// Optional per-command trace receiver. `None` keeps the hot path
    /// branch-predictable; the telemetry layer installs a sink on demand.
    sink: Option<Box<dyn TraceSink>>,
    /// Monotonic sequence number for emitted [`CommandEvent`]s.
    next_seq: u64,
}

impl Controller {
    /// Creates a controller for `banks` banks under `budget`.
    pub fn new(banks: usize, budget: PumpBudget) -> Self {
        Controller {
            banks: vec![BankState::new(); banks],
            pump: PumpWindow::new(budget),
            power: PowerModel::micron_ddr3_1600(),
            now: Ps::ZERO,
            last_issue: Ps::ZERO,
            refresh: None,
            stats: RunStats::new(),
            sink: None,
            next_seq: 0,
        }
    }

    /// Replaces the power model (default: Micron DDR3-1600).
    pub fn with_power_model(mut self, power: PowerModel) -> Self {
        self.power = power;
        self
    }

    /// Installs a trace sink that observes every issued command
    /// (builder form of [`Controller::set_sink`]).
    pub fn with_sink(mut self, sink: Box<dyn TraceSink>) -> Self {
        self.sink = Some(sink);
        self
    }

    /// Installs (or replaces) the trace sink.
    pub fn set_sink(&mut self, sink: Box<dyn TraceSink>) {
        self.sink = Some(sink);
    }

    /// Removes and returns the trace sink, if one was installed.
    pub fn take_sink(&mut self) -> Option<Box<dyn TraceSink>> {
        self.sink.take()
    }

    /// Enables periodic all-bank refresh from a timing set (tREFI/tRFC),
    /// under the [`refresh_blackout_end`] rule; a zero tREFI means no
    /// refresh. The paper's evaluation ignores refresh; this supports
    /// sensitivity studies.
    pub fn with_refresh(mut self, timing: &crate::timing::Ddr3Timing) -> Self {
        self.refresh = Some((timing.t_refi.to_ps(), timing.t_rfc.to_ps()));
        self
    }

    /// Pushes `t` past any refresh blackout it falls into.
    fn align_refresh(&self, t: Ps) -> Ps {
        self.refresh.and_then(|r| refresh_blackout_end(t, r)).unwrap_or(t)
    }

    /// Number of banks.
    pub fn bank_count(&self) -> usize {
        self.banks.len()
    }

    /// Current simulated time.
    pub fn now(&self) -> Ps {
        self.now
    }

    /// Statistics accumulated so far.
    pub fn stats(&self) -> &RunStats {
        &self.stats
    }

    /// Issues one command on `bank` at the earliest legal time at or after
    /// `earliest`, and returns the command's completion time.
    ///
    /// # Errors
    ///
    /// Returns [`DramError::BankOutOfRange`] for an invalid bank index.
    pub fn issue(
        &mut self,
        bank: usize,
        profile: &CommandProfile,
        earliest: Ps,
    ) -> Result<Ps, DramError> {
        let nbanks = self.banks.len();
        let bank_free = self
            .banks
            .get(bank)
            .ok_or(DramError::BankOutOfRange { bank, banks: nbanks })?
            .next_free(earliest);
        // In-order issue over the shared command bus.
        let mut start = bank_free.max(self.last_issue);
        let cost = self.pump.budget().command_cost(profile);
        let requested = start;
        // The refresh/pump loop alternates two deferrals; accumulating each
        // hop telescopes to exactly `start - requested`, so the split below
        // reconciles in integer picoseconds.
        let mut refresh_wait = 0u64;
        let mut pump_wait = 0u64;
        loop {
            let aligned = self.align_refresh(start);
            refresh_wait += aligned.saturating_sub(start).0;
            start = aligned;
            match self.pump.try_admit(start, cost) {
                Ok(()) => break,
                Err(retry) => {
                    pump_wait += retry.saturating_sub(start).0;
                    start = retry;
                }
            }
        }
        self.last_issue = start;
        let done = self.banks[bank].occupy(start, profile.duration.to_ps());
        let energy = self.power.command_energy(profile);
        self.stats.record(profile.class, profile.duration, profile.total_wordline_events, energy);
        self.stats.pump_stall += Ps(pump_wait).to_ns();
        if done > self.now {
            self.now = done;
        }
        self.stats.makespan = Ns(self.stats.makespan.as_f64().max(done.to_ns().as_f64()));
        // Background energy accrues over the whole simulated wall clock;
        // restamping from the cumulative makespan keeps it linear, so the
        // per-run delta in `run_streams` subtracts cleanly.
        self.stats.background_energy = self.power.background_energy(self.stats.makespan, 1.0);
        if let Some(sink) = self.sink.as_mut() {
            let bank_wait = bank_free.saturating_sub(earliest);
            let bus_wait = requested.saturating_sub(bank_free);
            let reason = if pump_wait > 0 {
                StallReason::Pump
            } else if refresh_wait > 0 {
                StallReason::Refresh
            } else if bus_wait > Ps::ZERO {
                StallReason::Bus
            } else if bank_wait > Ps::ZERO {
                StallReason::Bank
            } else {
                StallReason::None
            };
            sink.record(&CommandEvent {
                seq: self.next_seq,
                path: TopoPath::flat_bank(bank),
                class: profile.class,
                issue: earliest,
                start,
                done,
                stall: start.saturating_sub(earliest),
                bank_wait,
                bus_wait,
                refresh_wait: Ps(refresh_wait),
                pump_wait: Ps(pump_wait),
                reason,
                energy,
            });
        }
        self.next_seq += 1;
        Ok(done)
    }

    /// Runs one command stream per `(bank, stream)` pair concurrently and
    /// returns the aggregate statistics for this run.
    ///
    /// Streams on distinct banks interleave freely subject to the pump
    /// budget; commands within a stream execute in order.
    ///
    /// # Errors
    ///
    /// Returns [`DramError::BankOutOfRange`] if any stream names an invalid
    /// bank.
    pub fn run_streams(
        &mut self,
        streams: &[(usize, Vec<CommandProfile>)],
    ) -> Result<RunStats, DramError> {
        let before = self.stats.clone();
        let run_start = self.now;
        // Cursor per stream; issue in global earliest-first order so the
        // sliding pump window sees commands in time order.
        let mut cursors: Vec<usize> = vec![0; streams.len()];
        let mut ready: Vec<Ps> = vec![self.now; streams.len()];
        loop {
            // Pick the unfinished stream whose next command can start
            // soonest (bank free time).
            let mut best: Option<(usize, Ps)> = None;
            for (i, (bank, cmds)) in streams.iter().enumerate() {
                if cursors[i] >= cmds.len() {
                    continue;
                }
                let state = self
                    .banks
                    .get(*bank)
                    .ok_or(DramError::BankOutOfRange { bank: *bank, banks: self.banks.len() })?;
                let t = state.next_free(ready[i]);
                if best.is_none_or(|(_, bt)| t < bt) {
                    best = Some((i, t));
                }
            }
            let Some((i, t)) = best else { break };
            let (bank, cmds) = &streams[i];
            let done = self.issue(*bank, &cmds[cursors[i]], t)?;
            cursors[i] += 1;
            ready[i] = done;
        }
        let mut delta = self.stats.clone();
        // Subtract the prior counters to report just this run.
        delta.wordline_activations -= before.wordline_activations;
        delta.busy_time = delta.busy_time - before.busy_time;
        delta.energy = Picojoules(delta.energy.as_f64() - before.energy.as_f64());
        delta.pump_stall = delta.pump_stall - before.pump_stall;
        // The cumulative makespan is an absolute timestamp; this run's
        // makespan is measured from where the clock stood when it began.
        delta.makespan = self.now.saturating_sub(run_start).to_ns();
        delta.background_energy =
            Picojoules(delta.background_energy.as_f64() - before.background_energy.as_f64());
        for (k, v) in &before.commands {
            if let Some(cur) = delta.commands.get_mut(k) {
                *cur -= v;
            }
        }
        delta.commands.retain(|_, v| *v > 0);
        Ok(delta)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::timing::Ddr3Timing;

    fn t() -> Ddr3Timing {
        Ddr3Timing::ddr3_1600()
    }

    #[test]
    fn serializes_within_a_bank() {
        let mut c = Controller::new(1, PumpBudget::unconstrained());
        let ap = CommandProfile::ap(&t());
        let d1 = c.issue(0, &ap, Ps::ZERO).unwrap();
        let d2 = c.issue(0, &ap, Ps::ZERO).unwrap();
        assert_eq!(d2, Ps(d1.0 * 2));
    }

    #[test]
    fn parallel_banks_overlap_when_unconstrained() {
        let mut c = Controller::new(8, PumpBudget::unconstrained());
        let ap = CommandProfile::ap(&t());
        let streams: Vec<_> = (0..8).map(|b| (b, vec![ap.clone(); 4])).collect();
        let stats = c.run_streams(&streams).unwrap();
        // Perfect overlap: makespan = 4 APs, not 32.
        let expect = ap.duration.as_f64() * 4.0;
        assert!((stats.makespan.as_f64() - expect).abs() < 0.01, "{stats}");
        assert_eq!(stats.total_commands(), 32);
        assert_eq!(stats.pump_stall, Ns::ZERO);
    }

    #[test]
    fn pump_constraint_throttles_parallelism() {
        // 8 banks of back-to-back APs under the JEDEC budget: only ~4 ACTs
        // per 40 ns fit, so makespan roughly doubles vs unconstrained.
        let ap = CommandProfile::ap(&t());
        let per_bank = 16;
        let streams: Vec<_> = (0..8).map(|b| (b, vec![ap.clone(); per_bank])).collect();

        let mut free = Controller::new(8, PumpBudget::unconstrained());
        let sf = free.run_streams(&streams).unwrap();
        let mut tight = Controller::new(8, PumpBudget::jedec_ddr3_1600());
        let st = tight.run_streams(&streams).unwrap();

        assert!(
            st.makespan.as_f64() > sf.makespan.as_f64() * 1.5,
            "constrained {} vs free {}",
            st.makespan,
            sf.makespan
        );
        assert!(st.pump_stall.as_f64() > 0.0);
    }

    #[test]
    fn tra_streams_throttle_harder_than_ap_streams() {
        let profile_ap = CommandProfile::ap(&t());
        let profile_tra = CommandProfile::ambit_tra_aap(&t());
        let n = 16;

        let mk = |p: &CommandProfile| -> Vec<(usize, Vec<CommandProfile>)> {
            (0..8).map(|b| (b, vec![p.clone(); n])).collect()
        };
        let mut c1 = Controller::new(8, PumpBudget::jedec_ddr3_1600());
        let s_ap = c1.run_streams(&mk(&profile_ap)).unwrap();
        let mut c2 = Controller::new(8, PumpBudget::jedec_ddr3_1600());
        let s_tra = c2.run_streams(&mk(&profile_tra)).unwrap();

        // Per-command slowdown factor must be clearly worse for TRA.
        let slow_ap = s_ap.makespan.as_f64() / (profile_ap.duration.as_f64() * n as f64);
        let slow_tra = s_tra.makespan.as_f64() / (profile_tra.duration.as_f64() * n as f64);
        assert!(slow_tra > slow_ap * 1.5, "ap x{slow_ap:.2} vs tra x{slow_tra:.2}");
    }

    #[test]
    fn bank_out_of_range_is_an_error() {
        let mut c = Controller::new(2, PumpBudget::unconstrained());
        let e = c.issue(5, &CommandProfile::ap(&t()), Ps::ZERO).unwrap_err();
        assert_eq!(e, DramError::BankOutOfRange { bank: 5, banks: 2 });
    }

    #[test]
    fn run_streams_reports_delta_not_cumulative() {
        let mut c = Controller::new(1, PumpBudget::unconstrained());
        let ap = CommandProfile::ap(&t());
        let s1 = c.run_streams(&[(0, vec![ap.clone(); 2])]).unwrap();
        let s2 = c.run_streams(&[(0, vec![ap.clone(); 3])]).unwrap();
        assert_eq!(s1.total_commands(), 2);
        assert_eq!(s2.total_commands(), 3);
        assert_eq!(c.stats().total_commands(), 5);
        // Each run's makespan covers only its own commands, not the
        // cumulative clock.
        let dur = ap.duration.as_f64();
        assert!((s1.makespan.as_f64() - 2.0 * dur).abs() < 0.01, "{s1}");
        assert!((s2.makespan.as_f64() - 3.0 * dur).abs() < 0.01, "{s2}");
        assert!((c.stats().makespan.as_f64() - 5.0 * dur).abs() < 0.01, "cumulative {}", c.stats());
    }

    #[test]
    fn background_energy_tracks_makespan() {
        let mut c = Controller::new(1, PumpBudget::unconstrained());
        let ap = CommandProfile::ap(&t());
        let s1 = c.run_streams(&[(0, vec![ap.clone(); 2])]).unwrap();
        let s2 = c.run_streams(&[(0, vec![ap.clone(); 2])]).unwrap();
        let model = PowerModel::micron_ddr3_1600();
        let expect = model.background_energy(s1.makespan, 1.0).as_f64();
        assert!((s1.background_energy.as_f64() - expect).abs() < 1e-6, "{s1}");
        // Identical back-to-back runs accrue identical background energy.
        assert!((s2.background_energy.as_f64() - expect).abs() < 1e-6, "{s2}");
        // Average power now exceeds the dynamic-only figure.
        assert!(s1.average_power_mw() > s1.dynamic_power_mw());
    }

    #[test]
    fn sink_observes_every_command_with_reasons() {
        use crate::telemetry::MemorySink;

        let ap = CommandProfile::ap(&t());
        let streams: Vec<_> = (0..8).map(|b| (b, vec![ap.clone(); 8])).collect();
        let mut c = Controller::new(8, PumpBudget::jedec_ddr3_1600())
            .with_sink(Box::new(MemorySink::new()));
        let stats = c.run_streams(&streams).unwrap();
        let sink = c.take_sink().unwrap();
        let mem = sink.as_any().downcast_ref::<MemorySink>().unwrap();
        assert_eq!(mem.len() as u64, stats.total_commands());
        assert!(mem.metrics.stalls_by_reason.contains_key("pump"), "{:?}", mem.metrics);
        for e in &mem.events {
            assert!(e.done > e.start);
            assert_eq!(e.stall, e.start.saturating_sub(e.issue));
            assert!(e.waits_reconcile(), "seq {}: waits do not sum to stall", e.seq);
            assert_eq!(e.reason, e.dominant_reason());
        }
        assert!(mem.metrics.stalls_reconcile());
    }

    #[test]
    fn stall_split_reconciles_under_refresh_and_pump() {
        use crate::telemetry::MemorySink;

        // Frequent refresh + a tight pump budget: commands get delayed by
        // bank occupancy, the bus, refresh blackouts, and pump deferrals
        // within the same run — the four-way split must still sum exactly
        // to the total stall, command by command and in aggregate.
        let short_refresh =
            Ddr3Timing { t_refi: crate::units::Ns(500.0), ..Ddr3Timing::ddr3_1600() };
        let ap = CommandProfile::ap(&t());
        let streams: Vec<_> = (0..8).map(|b| (b, vec![ap.clone(); 12])).collect();
        let mut c = Controller::new(8, PumpBudget::jedec_ddr3_1600())
            .with_refresh(&short_refresh)
            .with_sink(Box::new(MemorySink::new()));
        c.run_streams(&streams).unwrap();
        // A direct issue asking for t = 0 on a now-busy bank adds a pure
        // bank wait (run_streams pre-clamps its requests to bank-free, so
        // that cause only appears on the direct-issue API).
        c.issue(0, &ap, Ps::ZERO).unwrap();
        let sink = c.take_sink().unwrap();
        let mem = sink.as_any().downcast_ref::<MemorySink>().unwrap();
        assert!(!mem.is_empty());
        for e in &mem.events {
            assert!(e.waits_reconcile(), "seq {}: waits do not sum to stall", e.seq);
        }
        let m = &mem.metrics;
        assert!(m.total_stall_ps > 0);
        assert!(m.stalls_reconcile());
        // All four causes actually occur in this workload.
        for reason in [StallReason::Bank, StallReason::Bus, StallReason::Refresh, StallReason::Pump]
        {
            assert!(m.stall_ps_for(reason) > 0, "no {} time attributed", reason.label());
        }
    }

    #[test]
    fn refresh_blackouts_delay_commands() {
        let timing = t();
        let ap = CommandProfile::ap(&timing);
        // Shrink tREFI so blackouts are frequent relative to the stream.
        let short_refresh =
            Ddr3Timing { t_refi: crate::units::Ns(500.0), ..Ddr3Timing::ddr3_1600() };

        let mut plain = Controller::new(1, PumpBudget::unconstrained());
        let sp = plain.run_streams(&[(0, vec![ap.clone(); 40])]).unwrap();
        let mut refreshed =
            Controller::new(1, PumpBudget::unconstrained()).with_refresh(&short_refresh);
        let sr = refreshed.run_streams(&[(0, vec![ap.clone(); 40])]).unwrap();
        // tRFC 260 ns per 500 ns interval: roughly half the time is lost.
        let slowdown = sr.makespan.as_f64() / sp.makespan.as_f64();
        assert!((1.3..=2.2).contains(&slowdown), "slowdown {slowdown}");
        // No command may start inside a blackout.
        assert!(sr.makespan.as_f64() > sp.makespan.as_f64());
    }

    #[test]
    fn zero_refresh_interval_means_no_refresh() {
        let no_refresh = Ddr3Timing { t_refi: Ns::ZERO, ..Ddr3Timing::ddr3_1600() };
        let streams: Vec<_> = (0..4).map(|b| (b, vec![CommandProfile::ap(&t()); 12])).collect();
        let mut plain = Controller::new(4, PumpBudget::jedec_ddr3_1600());
        let mut zero = Controller::new(4, PumpBudget::jedec_ddr3_1600()).with_refresh(&no_refresh);
        assert_eq!(zero.run_streams(&streams).unwrap(), plain.run_streams(&streams).unwrap());
    }

    #[test]
    fn realistic_refresh_costs_a_few_percent() {
        let timing = t();
        let ap = CommandProfile::ap(&timing);
        let streams: Vec<_> = (0..4).map(|b| (b, vec![ap.clone(); 400])).collect();
        let mut plain = Controller::new(4, PumpBudget::unconstrained());
        let sp = plain.run_streams(&streams).unwrap();
        let mut refreshed = Controller::new(4, PumpBudget::unconstrained()).with_refresh(&timing);
        let sr = refreshed.run_streams(&streams).unwrap();
        let overhead = sr.makespan.as_f64() / sp.makespan.as_f64() - 1.0;
        assert!((0.0..=0.08).contains(&overhead), "refresh overhead {overhead}");
    }

    /// Cross-check: the event-driven simulator should agree with the
    /// analytic steady-state estimate of `PumpBudget::max_parallel_banks`.
    #[test]
    fn analytic_estimate_matches_simulation() {
        let budget = PumpBudget::jedec_ddr3_1600();
        let timing = t();
        let stream = vec![
            CommandProfile::aap(&timing),
            CommandProfile::app(&timing),
            CommandProfile::ap(&timing),
        ];
        let analytic = budget.max_parallel_banks(&stream, 8);

        let reps = 64;
        let streams: Vec<_> = (0..8)
            .map(|b| {
                let mut v = Vec::new();
                for _ in 0..reps {
                    v.extend(stream.iter().cloned());
                }
                (b, v)
            })
            .collect();
        let mut c = Controller::new(8, budget.clone());
        let s = c.run_streams(&streams).unwrap();
        // Effective parallelism = total busy time / makespan.
        let eff = s.busy_time.as_f64() / s.makespan.as_f64();
        assert!(
            (eff - analytic).abs() / analytic < 0.15,
            "analytic {analytic:.2} vs simulated {eff:.2}"
        );
    }
}
