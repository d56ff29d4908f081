//! Run statistics collected by the event-driven controller and by the
//! analytic device models.

use crate::command::CommandClass;
use crate::units::{Ns, Picojoules};
use std::collections::BTreeMap;
use std::fmt;

/// Aggregate statistics for a simulated run or a modeled operation stream.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RunStats {
    /// Commands issued, by class.
    pub commands: BTreeMap<String, u64>,
    /// Total wordline-raise events.
    pub wordline_activations: u64,
    /// Busy time summed over commands (per-bank serial time).
    pub busy_time: Ns,
    /// Wall-clock makespan (with bank parallelism), when simulated.
    pub makespan: Ns,
    /// Dynamic energy.
    pub energy: Picojoules,
    /// Background (standby/IDD3N) energy over the makespan, when the
    /// producer stamps it. Zero for purely analytic per-command sums.
    pub background_energy: Picojoules,
    /// Time spent stalled waiting for pump budget.
    pub pump_stall: Ns,
}

impl RunStats {
    /// Creates empty statistics.
    pub fn new() -> Self {
        RunStats::default()
    }

    /// Records one command. Allocation-free in steady state: the class
    /// name is a `&'static str` lookup, and the counter key is only
    /// materialized the first time a class appears. The scheduler's loop
    /// counts classes in a fixed array instead and accrues the rest per
    /// command.
    pub fn record(&mut self, class: CommandClass, duration: Ns, wordlines: u8, energy: Picojoules) {
        self.count(class.name(), 1);
        self.accrue(duration, wordlines, energy);
    }

    /// Adds one command's wordlines, busy time and energy without
    /// counting it: [`RunStats::record`] minus the class counter.
    pub(crate) fn accrue(&mut self, duration: Ns, wordlines: u8, energy: Picojoules) {
        self.wordline_activations += u64::from(wordlines);
        self.busy_time += duration;
        self.energy += energy;
    }

    /// Adds `n` commands of class `name`, cloning the key only when the
    /// class is new to this record.
    fn count(&mut self, name: &str, n: u64) {
        match self.commands.get_mut(name) {
            Some(count) => *count += n,
            None => {
                self.commands.insert(name.to_string(), n);
            }
        }
    }

    /// Total number of commands of every class.
    pub fn total_commands(&self) -> u64 {
        self.commands.values().sum()
    }

    fn merge_counts(&mut self, other: &RunStats) {
        for (k, v) in &other.commands {
            self.count(k, *v);
        }
        self.wordline_activations += other.wordline_activations;
        self.busy_time += other.busy_time;
        self.energy += other.energy;
        self.pump_stall += other.pump_stall;
    }

    /// Merges statistics from a run that executed *concurrently* with this
    /// one (e.g. two banks of the same schedule): counters and energies
    /// add, makespans overlap so the wall clock is their maximum.
    pub fn merge_parallel(&mut self, other: &RunStats) {
        self.merge_counts(other);
        self.makespan = Ns(self.makespan.as_f64().max(other.makespan.as_f64()));
        // Background energy accrues over wall-clock time once for the whole
        // device, so overlapping runs contribute the larger accrual, not
        // the sum.
        self.background_energy =
            Picojoules(self.background_energy.as_f64().max(other.background_energy.as_f64()));
    }

    /// Merges statistics from a run that executed *after* this one
    /// (back-to-back batches): everything adds, including the makespan and
    /// the background energy accrued over it.
    pub fn merge_sequential(&mut self, other: &RunStats) {
        self.merge_counts(other);
        self.makespan += other.makespan;
        self.background_energy += other.background_energy;
    }

    /// Dynamic plus background energy.
    pub fn total_energy(&self) -> Picojoules {
        self.energy + self.background_energy
    }

    /// Average power over the makespan (mW), including the background
    /// (standby) term when the producer stamped one — the paper's Fig. 13
    /// methodology. Falls back to busy time when no makespan was simulated.
    pub fn average_power_mw(&self) -> f64 {
        match self.power_window() {
            Some(t) => self.total_energy().power_mw(t),
            None => 0.0,
        }
    }

    /// Average *dynamic-only* power over the makespan (mW); the historical
    /// figure, kept for comparisons that exclude standby draw.
    pub fn dynamic_power_mw(&self) -> f64 {
        match self.power_window() {
            Some(t) => self.energy.power_mw(t),
            None => 0.0,
        }
    }

    fn power_window(&self) -> Option<Ns> {
        let t = if self.makespan.as_f64() > 0.0 { self.makespan } else { self.busy_time };
        (t.as_f64() > 0.0).then_some(t)
    }
}

/// Per-class command counters in a fixed array, for loops that record
/// many commands: [`ClassCounts::bump`] each command (with
/// [`RunStats::accrue`] for its time and energy), then
/// [`ClassCounts::add_to`] once, instead of a string-keyed map lookup per
/// command.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct ClassCounts([u64; CommandClass::ALL.len()]);

impl ClassCounts {
    /// Counts one command of `class`.
    pub(crate) fn bump(&mut self, class: CommandClass) {
        self.0[class as usize] += 1;
    }

    /// Adds every nonzero counter to `stats.commands`.
    pub(crate) fn add_to(&self, stats: &mut RunStats) {
        for (class, &n) in CommandClass::ALL.iter().zip(&self.0) {
            if n > 0 {
                stats.count(class.name(), n);
            }
        }
    }
}

impl fmt::Display for RunStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} commands, {} wordline activations, busy {}, {}",
            self.total_commands(),
            self.wordline_activations,
            self.busy_time,
            self.energy
        )?;
        if self.background_energy.as_f64() > 0.0 {
            write!(f, " (+{} background)", self.background_energy)?;
        }
        if self.makespan.as_f64() > 0.0 {
            write!(f, ", makespan {}", self.makespan)?;
        }
        if self.pump_stall.as_f64() > 0.0 {
            write!(f, ", pump stall {}", self.pump_stall)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_and_totals() {
        let mut s = RunStats::new();
        s.record(CommandClass::Ap, Ns(49.0), 1, Picojoules(100.0));
        s.record(CommandClass::Ap, Ns(49.0), 1, Picojoules(100.0));
        s.record(CommandClass::TraAap, Ns(53.0), 4, Picojoules(400.0));
        assert_eq!(s.total_commands(), 3);
        assert_eq!(s.wordline_activations, 6);
        assert_eq!(s.commands["AP"], 2);
        assert!((s.busy_time.as_f64() - 151.0).abs() < 1e-9);
        assert!((s.energy.as_f64() - 600.0).abs() < 1e-9);
    }

    #[test]
    fn class_counts_match_per_command_records() {
        let cmds = [
            (CommandClass::OAap, 1),
            (CommandClass::OApp, 2),
            (CommandClass::OAap, 1),
            (CommandClass::DataBurst, 0),
        ];
        let (mut per_command, mut counted) = (RunStats::new(), RunStats::new());
        let mut counts = ClassCounts::default();
        for (class, wordlines) in cmds {
            per_command.record(class, Ns(49.5), wordlines, Picojoules(0.1));
            counts.bump(class);
            counted.accrue(Ns(49.5), wordlines, Picojoules(0.1));
        }
        counts.add_to(&mut counted);
        assert_eq!(counted, per_command);
        assert_eq!(counted.commands["oAAP"], 2);
        assert!(!counted.commands.contains_key("AP"), "zero counters add no key");
    }

    #[test]
    fn merge_parallel_takes_max_makespan() {
        let mut a = RunStats::new();
        a.record(CommandClass::Ap, Ns(49.0), 1, Picojoules(10.0));
        a.makespan = Ns(100.0);
        a.background_energy = Picojoules(7.0);
        let mut b = RunStats::new();
        b.record(CommandClass::App, Ns(67.0), 1, Picojoules(20.0));
        b.makespan = Ns(80.0);
        b.background_energy = Picojoules(5.0);
        a.merge_parallel(&b);
        assert_eq!(a.total_commands(), 2);
        assert_eq!(a.makespan, Ns(100.0)); // overlap: max, not sum
        assert!((a.energy.as_f64() - 30.0).abs() < 1e-9);
        assert!((a.background_energy.as_f64() - 7.0).abs() < 1e-9); // max
    }

    #[test]
    fn merge_sequential_sums_makespan() {
        let mut a = RunStats::new();
        a.record(CommandClass::Ap, Ns(49.0), 1, Picojoules(10.0));
        a.makespan = Ns(100.0);
        a.background_energy = Picojoules(7.0);
        let mut b = RunStats::new();
        b.record(CommandClass::App, Ns(67.0), 1, Picojoules(20.0));
        b.makespan = Ns(80.0);
        b.background_energy = Picojoules(5.0);
        a.merge_sequential(&b);
        assert_eq!(a.total_commands(), 2);
        assert_eq!(a.makespan, Ns(180.0)); // back-to-back: sum
        assert!((a.background_energy.as_f64() - 12.0).abs() < 1e-9); // sum
    }

    #[test]
    fn average_power_uses_makespan_and_background() {
        let mut s = RunStats::new();
        s.record(CommandClass::Ap, Ns(50.0), 1, Picojoules(100.0));
        assert!((s.average_power_mw() - 2.0).abs() < 1e-12); // busy fallback
        s.makespan = Ns(200.0);
        assert!((s.average_power_mw() - 0.5).abs() < 1e-12);
        s.background_energy = Picojoules(100.0);
        assert!((s.average_power_mw() - 1.0).abs() < 1e-12); // includes background
        assert!((s.dynamic_power_mw() - 0.5).abs() < 1e-12); // excludes it
        assert!((s.total_energy().as_f64() - 200.0).abs() < 1e-9);
    }

    #[test]
    fn empty_stats_power_is_zero() {
        assert_eq!(RunStats::new().average_power_mw(), 0.0);
        assert_eq!(RunStats::new().dynamic_power_mw(), 0.0);
    }

    #[test]
    fn display_mentions_background_when_present() {
        let mut s = RunStats::new();
        s.record(CommandClass::Ap, Ns(50.0), 1, Picojoules(100.0));
        assert!(!format!("{s}").contains("background"));
        s.background_energy = Picojoules(10.0);
        assert!(format!("{s}").contains("background"));
    }
}
