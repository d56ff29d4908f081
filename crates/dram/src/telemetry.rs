//! Per-command telemetry: trace sinks, metrics, and exporters.
//!
//! The analytic [`crate::stats::RunStats`] block answers "how much, in
//! total" — this module answers "what happened, when". Both the
//! event-driven [`crate::controller::Controller`] and the stateless
//! [`crate::hierarchy::HierarchicalScheduler`] can feed every issued
//! command into a [`TraceSink`]:
//!
//! * [`NullSink`] — the zero-cost default; its `record` is an inline no-op
//!   so monomorphized hot paths compile to the untraced code.
//! * [`MemorySink`] — keeps the full [`CommandEvent`] list and an
//!   incrementally updated [`MetricsRegistry`] for export.
//!
//! Exporters ([`events_to_json`], [`events_to_csv`], [`stats_to_json`])
//! produce machine-readable reports consumed by `elp2im-bench`; the JSON
//! documents use the in-repo [`crate::json::Json`] model so they can be
//! parsed back and schema-checked without external dependencies.

use crate::command::CommandClass;
use crate::geometry::TopoPath;
use crate::json::Json;
use crate::stats::RunStats;
use crate::units::{Ns, Picojoules, Ps};
use std::collections::BTreeMap;
use std::fmt;

/// Why a command started later than its requested issue time.
///
/// When several causes apply the dominant one is reported, with the
/// precedence pump > refresh > bus > bank (the pump window is the paper's
/// central constraint, so it wins ties).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum StallReason {
    /// The command started exactly when requested.
    #[default]
    None,
    /// The target bank was still busy with a previous command.
    Bank,
    /// The shared command bus was occupied by another bank's issue slot.
    Bus,
    /// The charge-pump budget (tFAW-style sliding window) deferred the
    /// activation.
    Pump,
    /// The start was pushed past a refresh window.
    Refresh,
}

impl StallReason {
    /// All reason codes, in precedence-display order. Exporters and the
    /// static verifier iterate this to keep per-reason tables exhaustive
    /// when a variant is added.
    pub const ALL: [StallReason; 5] = [
        StallReason::None,
        StallReason::Bank,
        StallReason::Bus,
        StallReason::Pump,
        StallReason::Refresh,
    ];

    /// Stable lowercase label used in JSON/CSV exports.
    pub fn label(self) -> &'static str {
        match self {
            StallReason::None => "none",
            StallReason::Bank => "bank",
            StallReason::Bus => "bus",
            StallReason::Pump => "pump",
            StallReason::Refresh => "refresh",
        }
    }
}

impl fmt::Display for StallReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// One issued command, as observed by a [`TraceSink`].
///
/// The wait is reported twice: `stall` is the total (`start - issue`),
/// and the four `*_wait` fields split it exactly by cause — their sum
/// always equals `stall` ([`CommandEvent::waits_reconcile`]). `reason`
/// is the dominant non-zero component under the [`StallReason`]
/// precedence, kept for coarse per-reason *counts*.
#[derive(Debug, Clone, PartialEq)]
pub struct CommandEvent {
    /// Global issue order (0-based, per producing controller/scheduler).
    pub seq: u64,
    /// Bank the command executed on, as a topology path. Single-module
    /// producers report `c0.r0.b<bank>` ([`TopoPath::flat_bank`]).
    pub path: TopoPath,
    /// Command classification.
    pub class: CommandClass,
    /// When the producer *asked* for the command to start.
    pub issue: Ps,
    /// When the command actually started.
    pub start: Ps,
    /// When the command completed.
    pub done: Ps,
    /// `start - issue`: how long the command waited in total.
    pub stall: Ps,
    /// Portion of `stall` spent waiting for the target bank to go idle.
    pub bank_wait: Ps,
    /// Portion of `stall` spent waiting for the shared channel bus.
    pub bus_wait: Ps,
    /// Portion of `stall` spent pushed past refresh blackouts.
    pub refresh_wait: Ps,
    /// Portion of `stall` deferred by the charge-pump window.
    pub pump_wait: Ps,
    /// Dominant cause of the wait (see [`StallReason`]).
    pub reason: StallReason,
    /// Dynamic energy charged to this command.
    pub energy: Picojoules,
}

impl CommandEvent {
    /// Command latency (`done - start`).
    pub fn latency(&self) -> Ps {
        self.done.saturating_sub(self.start)
    }

    /// Whether the per-cause waits sum exactly to the total stall.
    /// Producers in this crate guarantee this; exporters and the
    /// reconciliation tests assert it.
    pub fn waits_reconcile(&self) -> bool {
        self.bank_wait.0 + self.bus_wait.0 + self.refresh_wait.0 + self.pump_wait.0 == self.stall.0
    }

    /// Dominant stall reason derived from the wait split, under the
    /// documented precedence pump > refresh > bus > bank.
    pub fn dominant_reason(&self) -> StallReason {
        if self.pump_wait > Ps::ZERO {
            StallReason::Pump
        } else if self.refresh_wait > Ps::ZERO {
            StallReason::Refresh
        } else if self.bus_wait > Ps::ZERO {
            StallReason::Bus
        } else if self.bank_wait > Ps::ZERO {
            StallReason::Bank
        } else {
            StallReason::None
        }
    }
}

/// Receiver for per-command telemetry.
///
/// Implementations must be cheap: `record` is called once per issued
/// command on the simulator hot path. The `Debug` supertrait lets
/// structures that own a boxed sink keep their derived `Debug`.
pub trait TraceSink: fmt::Debug {
    /// Observes one issued command.
    fn record(&mut self, event: &CommandEvent);

    /// Shared-reference view as [`std::any::Any`], so a concrete sink can
    /// be recovered from a `Box<dyn TraceSink>` after a traced run.
    fn as_any(&self) -> &dyn std::any::Any;

    /// Mutable-reference view as [`std::any::Any`].
    fn as_any_mut(&mut self) -> &mut dyn std::any::Any;
}

/// The do-nothing sink. Generic hot paths monomorphized with `NullSink`
/// compile to the untraced code (criterion-verified in `benches/batch.rs`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NullSink;

impl TraceSink for NullSink {
    #[inline(always)]
    fn record(&mut self, _event: &CommandEvent) {}

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }
}

/// In-memory sink: keeps every event and a running [`MetricsRegistry`].
#[derive(Debug, Clone, Default)]
pub struct MemorySink {
    /// All recorded events, in issue order.
    pub events: Vec<CommandEvent>,
    /// Aggregated counters and histograms.
    pub metrics: MetricsRegistry,
}

impl MemorySink {
    /// Creates an empty sink.
    pub fn new() -> Self {
        MemorySink::default()
    }

    /// Number of recorded events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }
}

impl TraceSink for MemorySink {
    fn record(&mut self, event: &CommandEvent) {
        self.metrics.observe(event);
        self.events.push(event.clone());
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }
}

/// A power-of-two-bucketed latency histogram over nanoseconds.
///
/// Bucket `i` counts observations in `[2^(i-1), 2^i)` ns, with bucket 0
/// taking everything below 1 ns. Sixteen buckets reach ~32 µs, far beyond
/// any single DRAM command or stall in this workspace; larger values clamp
/// into the last bucket.
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    /// Per-bucket observation counts.
    pub buckets: [u64; Histogram::BUCKETS],
    /// Total number of observations.
    pub count: u64,
    /// Sum of all observed values (ns).
    pub sum_ns: f64,
    /// Largest observed value (ns).
    pub max_ns: f64,
}

impl Histogram {
    /// Number of buckets.
    pub const BUCKETS: usize = 16;

    /// Creates an empty histogram.
    pub fn new() -> Self {
        Histogram { buckets: [0; Histogram::BUCKETS], count: 0, sum_ns: 0.0, max_ns: 0.0 }
    }

    /// Records one observation.
    pub fn observe(&mut self, value: Ns) {
        let v = value.as_f64().max(0.0);
        let idx =
            if v < 1.0 { 0 } else { (v.log2().floor() as usize + 1).min(Histogram::BUCKETS - 1) };
        self.buckets[idx] += 1;
        self.count += 1;
        self.sum_ns += v;
        self.max_ns = self.max_ns.max(v);
    }

    /// Mean observed value (ns); zero when empty.
    pub fn mean_ns(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum_ns / self.count as f64
        }
    }

    /// Adds another histogram's observations into this one.
    pub fn merge(&mut self, other: &Histogram) {
        for (b, o) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *b += o;
        }
        self.count += other.count;
        self.sum_ns += other.sum_ns;
        self.max_ns = self.max_ns.max(other.max_ns);
    }

    /// JSON view: `{count, mean_ns, max_ns, buckets: [...]}`.
    pub fn to_json(&self) -> Json {
        Json::obj()
            .with("count", Json::Num(self.count as f64))
            .with("mean_ns", Json::Num(self.mean_ns()))
            .with("max_ns", Json::Num(self.max_ns))
            .with("buckets", Json::Arr(self.buckets.iter().map(|&b| Json::Num(b as f64)).collect()))
    }
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram::new()
    }
}

/// Aggregated telemetry: per-class and per-path counters, stall-reason
/// counts and exact stall time by cause, and latency/stall histograms.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsRegistry {
    /// Commands observed, by class label.
    pub commands_by_class: BTreeMap<String, u64>,
    /// Commands observed, by topology path (channel, rank, bank).
    pub commands_by_path: BTreeMap<TopoPath, u64>,
    /// Stalled commands, by dominant [`StallReason::label`] (reason
    /// `none` is not counted).
    pub stalls_by_reason: BTreeMap<&'static str, u64>,
    /// Exact stalled time in picoseconds, by cause. Unlike
    /// `stalls_by_reason` this splits a multi-cause wait across its
    /// components, so the values here always sum to `total_stall_ps`.
    pub stall_ps_by_reason: BTreeMap<&'static str, u64>,
    /// Exact total stalled time (`start - issue`, summed) in picoseconds.
    pub total_stall_ps: u64,
    /// Command latency (`done - start`) distribution.
    pub latency: Histogram,
    /// Stall (`start - issue`) distribution, recorded only for stalled
    /// commands.
    pub stall: Histogram,
    /// Total dynamic energy of observed commands.
    pub energy: Picojoules,
    /// Free-form named counters for layers above the command stream —
    /// e.g. the fault-aware executors report `retries`,
    /// `verify_recomputes`, and ECC refresh overhead here.
    pub counters: BTreeMap<String, u64>,
}

impl MetricsRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        MetricsRegistry::default()
    }

    /// Folds one event into the counters and histograms.
    pub fn observe(&mut self, event: &CommandEvent) {
        *self.commands_by_class.entry(event.class.to_string()).or_insert(0) += 1;
        *self.commands_by_path.entry(event.path).or_insert(0) += 1;
        self.latency.observe(event.latency().to_ns());
        if event.reason != StallReason::None {
            *self.stalls_by_reason.entry(event.reason.label()).or_insert(0) += 1;
            self.stall.observe(event.stall.to_ns());
        }
        for (label, wait) in [
            (StallReason::Bank.label(), event.bank_wait),
            (StallReason::Bus.label(), event.bus_wait),
            (StallReason::Refresh.label(), event.refresh_wait),
            (StallReason::Pump.label(), event.pump_wait),
        ] {
            if wait > Ps::ZERO {
                *self.stall_ps_by_reason.entry(label).or_insert(0) += wait.0;
            }
        }
        self.total_stall_ps += event.stall.0;
        self.energy += event.energy;
    }

    /// Total observed commands.
    pub fn total_commands(&self) -> u64 {
        self.commands_by_class.values().sum()
    }

    /// Adds `by` to the named free-form counter.
    pub fn bump(&mut self, name: &str, by: u64) {
        *self.counters.entry(name.to_string()).or_insert(0) += by;
    }

    /// The named free-form counter (0 when never bumped).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Exact stalled time attributed to `reason`, in picoseconds.
    pub fn stall_ps_for(&self, reason: StallReason) -> u64 {
        self.stall_ps_by_reason.get(reason.label()).copied().unwrap_or(0)
    }

    /// Whether the per-cause stall times sum exactly to the total.
    /// Holds by construction for every producer in this crate; the
    /// regression tests assert it on traced runs.
    pub fn stalls_reconcile(&self) -> bool {
        self.stall_ps_by_reason.values().sum::<u64>() == self.total_stall_ps
    }

    /// Adds another registry's observations into this one.
    pub fn merge(&mut self, other: &MetricsRegistry) {
        for (k, v) in &other.commands_by_class {
            *self.commands_by_class.entry(k.clone()).or_insert(0) += v;
        }
        for (&k, v) in &other.commands_by_path {
            *self.commands_by_path.entry(k).or_insert(0) += v;
        }
        for (&k, v) in &other.stalls_by_reason {
            *self.stalls_by_reason.entry(k).or_insert(0) += v;
        }
        for (&k, v) in &other.stall_ps_by_reason {
            *self.stall_ps_by_reason.entry(k).or_insert(0) += v;
        }
        self.total_stall_ps += other.total_stall_ps;
        self.latency.merge(&other.latency);
        self.stall.merge(&other.stall);
        self.energy += other.energy;
        for (k, v) in &other.counters {
            *self.counters.entry(k.clone()).or_insert(0) += v;
        }
    }

    /// JSON view of the full registry.
    pub fn to_json(&self) -> Json {
        let classes = Json::Obj(
            self.commands_by_class.iter().map(|(k, &v)| (k.clone(), Json::Num(v as f64))).collect(),
        );
        let paths = Json::Obj(
            self.commands_by_path
                .iter()
                .map(|(k, &v)| (k.to_string(), Json::Num(v as f64)))
                .collect(),
        );
        let stalls = Json::Obj(
            self.stalls_by_reason
                .iter()
                .map(|(&k, &v)| (k.to_string(), Json::Num(v as f64)))
                .collect(),
        );
        let stall_ps = Json::Obj(
            self.stall_ps_by_reason
                .iter()
                .map(|(&k, &v)| (k.to_string(), Json::Num(v as f64)))
                .collect(),
        );
        let counters = Json::Obj(
            self.counters.iter().map(|(k, &v)| (k.clone(), Json::Num(v as f64))).collect(),
        );
        Json::obj()
            .with("total_commands", Json::Num(self.total_commands() as f64))
            .with("commands_by_class", classes)
            .with("commands_by_path", paths)
            .with("stalls_by_reason", stalls)
            .with("stall_ps_by_reason", stall_ps)
            .with("total_stall_ps", Json::Num(self.total_stall_ps as f64))
            .with("latency", self.latency.to_json())
            .with("stall", self.stall.to_json())
            .with("dynamic_energy_pj", Json::Num(self.energy.as_f64()))
            .with("counters", counters)
    }
}

/// Renders an event list as a JSON array of objects.
pub fn events_to_json(events: &[CommandEvent]) -> Json {
    Json::Arr(
        events
            .iter()
            .map(|e| {
                Json::obj()
                    .with("seq", Json::Num(e.seq as f64))
                    .with("path", Json::str(e.path.to_string()))
                    .with("channel", Json::Num(e.path.channel as f64))
                    .with("rank", Json::Num(e.path.rank as f64))
                    .with("bank", Json::Num(e.path.bank as f64))
                    .with("class", Json::str(e.class.to_string()))
                    .with("issue_ps", Json::Num(e.issue.0 as f64))
                    .with("start_ps", Json::Num(e.start.0 as f64))
                    .with("done_ps", Json::Num(e.done.0 as f64))
                    .with("stall_ps", Json::Num(e.stall.0 as f64))
                    .with("bank_wait_ps", Json::Num(e.bank_wait.0 as f64))
                    .with("bus_wait_ps", Json::Num(e.bus_wait.0 as f64))
                    .with("refresh_wait_ps", Json::Num(e.refresh_wait.0 as f64))
                    .with("pump_wait_ps", Json::Num(e.pump_wait.0 as f64))
                    .with("reason", Json::str(e.reason.label()))
                    .with("energy_pj", Json::Num(e.energy.as_f64()))
            })
            .collect(),
    )
}

/// Renders an event list as CSV with a header row.
pub fn events_to_csv(events: &[CommandEvent]) -> String {
    let mut out = String::from(
        "seq,channel,rank,bank,class,issue_ps,start_ps,done_ps,stall_ps,\
         bank_wait_ps,bus_wait_ps,refresh_wait_ps,pump_wait_ps,reason,energy_pj\n",
    );
    for e in events {
        use std::fmt::Write as _;
        let _ = writeln!(
            out,
            "{},{},{},{},{},{},{},{},{},{},{},{},{},{},{}",
            e.seq,
            e.path.channel,
            e.path.rank,
            e.path.bank,
            e.class,
            e.issue.0,
            e.start.0,
            e.done.0,
            e.stall.0,
            e.bank_wait.0,
            e.bus_wait.0,
            e.refresh_wait.0,
            e.pump_wait.0,
            e.reason,
            e.energy.0
        );
    }
    out
}

/// JSON view of a [`RunStats`] block, including the split power figures.
pub fn stats_to_json(stats: &RunStats) -> Json {
    let commands =
        Json::Obj(stats.commands.iter().map(|(k, &v)| (k.clone(), Json::Num(v as f64))).collect());
    Json::obj()
        .with("commands", commands)
        .with("total_commands", Json::Num(stats.total_commands() as f64))
        .with("wordline_activations", Json::Num(stats.wordline_activations as f64))
        .with("busy_ns", Json::Num(stats.busy_time.as_f64()))
        .with("makespan_ns", Json::Num(stats.makespan.as_f64()))
        .with("pump_stall_ns", Json::Num(stats.pump_stall.as_f64()))
        .with("dynamic_energy_pj", Json::Num(stats.energy.as_f64()))
        .with("background_energy_pj", Json::Num(stats.background_energy.as_f64()))
        .with("dynamic_power_mw", Json::Num(stats.dynamic_power_mw()))
        .with("average_power_mw", Json::Num(stats.average_power_mw()))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn event(seq: u64, bank: usize, start: u64, stall: u64, reason: StallReason) -> CommandEvent {
        let wait = Ps(stall);
        CommandEvent {
            seq,
            path: TopoPath::flat_bank(bank),
            class: CommandClass::Ap,
            issue: Ps(start.saturating_sub(stall)),
            start: Ps(start),
            done: Ps(start + 48_750),
            stall: wait,
            bank_wait: if reason == StallReason::Bank { wait } else { Ps::ZERO },
            bus_wait: if reason == StallReason::Bus { wait } else { Ps::ZERO },
            refresh_wait: if reason == StallReason::Refresh { wait } else { Ps::ZERO },
            pump_wait: if reason == StallReason::Pump { wait } else { Ps::ZERO },
            reason,
            energy: Picojoules(100.0),
        }
    }

    #[test]
    fn null_sink_records_nothing() {
        let mut sink = NullSink;
        sink.record(&event(0, 0, 0, 0, StallReason::None));
        // NullSink is a ZST; nothing observable — this test just pins that
        // the trait call compiles and is callable through dyn.
        let dyn_sink: &mut dyn TraceSink = &mut sink;
        dyn_sink.record(&event(1, 0, 0, 0, StallReason::None));
    }

    #[test]
    fn memory_sink_collects_events_and_metrics() {
        let mut sink = MemorySink::new();
        sink.record(&event(0, 0, 0, 0, StallReason::None));
        sink.record(&event(1, 1, 10_000, 10_000, StallReason::Pump));
        sink.record(&event(2, 0, 97_500, 48_750, StallReason::Bank));
        assert_eq!(sink.len(), 3);
        assert_eq!(sink.metrics.total_commands(), 3);
        assert_eq!(sink.metrics.commands_by_path[&TopoPath::flat_bank(0)], 2);
        assert_eq!(sink.metrics.stalls_by_reason["pump"], 1);
        assert_eq!(sink.metrics.stalls_by_reason["bank"], 1);
        assert_eq!(sink.metrics.stall.count, 2);
        assert_eq!(sink.metrics.stall_ps_by_reason["pump"], 10_000);
        assert_eq!(sink.metrics.stall_ps_by_reason["bank"], 48_750);
        assert_eq!(sink.metrics.total_stall_ps, 58_750);
        assert!(sink.metrics.stalls_reconcile());
        assert!((sink.metrics.energy.as_f64() - 300.0).abs() < 1e-9);
    }

    #[test]
    fn split_waits_reconcile_per_reason() {
        // One command delayed by both the bus and the pump: the split
        // must keep both components, even though the dominant reason
        // (and the count) goes to the pump.
        let mut e = event(0, 3, 100_000, 15_000, StallReason::Pump);
        e.pump_wait = Ps(9_000);
        e.bus_wait = Ps(6_000);
        assert!(e.waits_reconcile());
        assert_eq!(e.dominant_reason(), StallReason::Pump);
        let mut m = MetricsRegistry::new();
        m.observe(&e);
        assert_eq!(m.stalls_by_reason["pump"], 1);
        assert!(!m.stalls_by_reason.contains_key("bus"));
        assert_eq!(m.stall_ps_for(StallReason::Pump), 9_000);
        assert_eq!(m.stall_ps_for(StallReason::Bus), 6_000);
        assert_eq!(m.total_stall_ps, 15_000);
        assert!(m.stalls_reconcile());
    }

    #[test]
    fn histogram_buckets_by_power_of_two() {
        let mut h = Histogram::new();
        h.observe(Ns(0.5)); // bucket 0
        h.observe(Ns(1.5)); // [1,2) -> bucket 1
        h.observe(Ns(48.75)); // [32,64) -> bucket 6
        h.observe(Ns(1e9)); // clamps into the last bucket
        assert_eq!(h.buckets[0], 1);
        assert_eq!(h.buckets[1], 1);
        assert_eq!(h.buckets[6], 1);
        assert_eq!(h.buckets[Histogram::BUCKETS - 1], 1);
        assert_eq!(h.count, 4);
        assert!((h.max_ns - 1e9).abs() < 1e-3);
    }

    #[test]
    fn histogram_merge_adds() {
        let mut a = Histogram::new();
        a.observe(Ns(10.0));
        let mut b = Histogram::new();
        b.observe(Ns(20.0));
        b.observe(Ns(40.0));
        a.merge(&b);
        assert_eq!(a.count, 3);
        assert!((a.mean_ns() - 70.0 / 3.0).abs() < 1e-9);
        assert!((a.max_ns - 40.0).abs() < 1e-12);
    }

    #[test]
    fn registry_merge_matches_combined_observation() {
        let events: Vec<_> = (0..6)
            .map(|i| {
                event(
                    i,
                    i as usize % 2,
                    i * 50_000,
                    if i % 3 == 0 { 5_000 } else { 0 },
                    if i % 3 == 0 { StallReason::Bus } else { StallReason::None },
                )
            })
            .collect();
        let mut whole = MetricsRegistry::new();
        for e in &events {
            whole.observe(e);
        }
        let (mut left, mut right) = (MetricsRegistry::new(), MetricsRegistry::new());
        for e in &events[..3] {
            left.observe(e);
        }
        for e in &events[3..] {
            right.observe(e);
        }
        left.merge(&right);
        assert_eq!(left, whole);
    }

    #[test]
    fn exporters_produce_parseable_output() {
        let events = vec![
            event(0, 2, 0, 0, StallReason::None),
            event(1, 2, 48_750, 750, StallReason::Refresh),
        ];
        let json = events_to_json(&events);
        let parsed = Json::parse(&json.to_string()).unwrap();
        let arr = parsed.as_array().unwrap();
        assert_eq!(arr.len(), 2);
        assert_eq!(arr[1].get("reason").and_then(Json::as_str), Some("refresh"));
        assert_eq!(arr[1].get("stall_ps").and_then(Json::as_f64), Some(750.0));
        assert_eq!(arr[1].get("refresh_wait_ps").and_then(Json::as_f64), Some(750.0));
        assert_eq!(arr[1].get("path").and_then(Json::as_str), Some("c0.r0.b2"));
        assert_eq!(arr[1].get("bank").and_then(Json::as_f64), Some(2.0));

        let csv = events_to_csv(&events);
        let mut lines = csv.lines();
        assert_eq!(
            lines.next(),
            Some(
                "seq,channel,rank,bank,class,issue_ps,start_ps,done_ps,stall_ps,\
                 bank_wait_ps,bus_wait_ps,refresh_wait_ps,pump_wait_ps,reason,energy_pj"
            )
        );
        assert_eq!(lines.count(), 2);
    }

    #[test]
    fn stats_json_reports_split_power() {
        let mut s = RunStats::new();
        s.record(CommandClass::Ap, Ns(50.0), 1, Picojoules(100.0));
        s.makespan = Ns(100.0);
        s.background_energy = Picojoules(50.0);
        let doc = stats_to_json(&s);
        assert_eq!(doc.get("dynamic_power_mw").and_then(Json::as_f64), Some(1.0));
        assert_eq!(doc.get("average_power_mw").and_then(Json::as_f64), Some(1.5));
        assert_eq!(doc.get("makespan_ns").and_then(Json::as_f64), Some(100.0));
    }
}
