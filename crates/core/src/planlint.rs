//! Plan-level static verification: the borrow checker, hazard analysis,
//! and timing proofs over whole batch plans.
//!
//! PR-5's [`crate::analysis`] proves one program safe against one
//! subarray. Everything built since composes *many* programs over shared
//! rows and shared timing resources: [`crate::batch::DeviceArray`] stripes
//! an operation across banks, the hierarchical scheduler interleaves the
//! per-bank command streams under per-rank pump windows, and the
//! fault-aware executor replays whole operations. This module lifts the
//! verifier to that composition. [`certify`] takes a [`BatchPlan`] —
//! programs, their (bank, subarray) placement, the per-bank streams they
//! issue on, and the topology/budget they are scheduled under — and
//! proves three property families **without executing anything**:
//!
//! 1. **Row borrow checking.** Per (bank, subarray), physical rows are
//!    tracked through the plan's steps with the same abstract domain the
//!    program analyzer uses
//!    ([`AbstractVal`](crate::analysis::AbstractVal) / truth tables),
//!    interprocedurally: a step's final row states seed the next step's
//!    live-in. Cross-program clobbers of live data rows
//!    ([`PlanDiagnosticKind::RowClobber`]), reads of temps a previous step
//!    destroyed ([`PlanDiagnosticKind::RecycledTemp`]), and writes that
//!    double-book a data row the allocator still considers live
//!    ([`PlanDiagnosticKind::DoubleBooking`]) are all errors.
//! 2. **Cross-stream hazard detection.** Two steps of one (bank,
//!    subarray) whose commands issue on *different* per-bank streams have
//!    no ordering guarantee from the scheduler — any data flow between
//!    them (RAW), or overwrite against a read or write (WAR/WAW), is a
//!    bank-isolation violation. Well-formed plans place each subarray's
//!    programs on that bank's own stream, making every such pair ordered;
//!    the analyzer proves that invariant instead of sampling it.
//! 3. **Static timing verification.** The plan's command streams are
//!    either scheduled (and the schedule's own claims re-verified,
//!    including refresh obligations the scheduler does not model) or — if
//!    the plan carries explicit claims — checked directly by the
//!    integer-picosecond interval analysis in `elp2im_dram::verify`:
//!    charge-pump/tFAW windows per rank, in-order bus issue per channel,
//!    bank occupancy, refresh alignment.
//!
//! Diagnostics reuse the program analyzer's [`Severity`] ladder; program
//! findings are wrapped (with their step) rather than re-derived, so the
//! single-program and plan-level verdicts can never disagree.

use crate::analysis::{
    analyze, infer_live_in, AnalysisReport, Diagnostic, DiagnosticKind, Severity,
};
use crate::isa::Program;
use crate::optimizer::PhysRow;
use crate::primitive::Primitive;
use crate::validate::SubarrayShape;
use elp2im_dram::constraint::PumpBudget;
use elp2im_dram::geometry::{TopoPath, Topology};
use elp2im_dram::hierarchy::HierarchicalScheduler;
use elp2im_dram::timing::Ddr3Timing;
use elp2im_dram::units::{Ns, Ps};
use elp2im_dram::verify::{verify_claims, ClaimedCommand, TimingViolation};
use elp2im_dram::CommandProfile;
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::fmt;
use std::sync::Arc;

/// One step of a batch plan: a program bound to a subarray, issuing its
/// commands on a per-bank stream.
#[derive(Debug, Clone, PartialEq)]
pub struct PlanStep {
    /// Flat bank-unit index the program executes on.
    pub unit: usize,
    /// Subarray within the bank.
    pub subarray: usize,
    /// The per-bank command stream the step's commands are scheduled on.
    /// Well-formed plans use the unit's own topology path; anything else
    /// breaks the bank-isolation invariant the hazard pass proves.
    pub stream: TopoPath,
    /// The primitive program.
    pub program: Arc<Program>,
}

/// A prepared batch plan: everything [`certify`] needs to prove it safe,
/// and nothing it would have to execute to find out.
#[derive(Debug, Clone)]
pub struct BatchPlan {
    /// Channel/rank/bank topology the streams are scheduled over.
    pub topology: Topology,
    /// Charge-pump budget enforced per rank.
    pub budget: PumpBudget,
    /// Subarray shape every program is checked against.
    pub shape: SubarrayShape,
    /// The steps, in plan (issue) order.
    pub steps: Vec<PlanStep>,
    /// Live physical rows per (unit, subarray) at the instant the plan
    /// first touches that subarray (before any of the plan's own writes).
    pub live_in: BTreeMap<(usize, usize), BTreeSet<PhysRow>>,
    /// Optional refresh blackout `(interval, duration)` the issue instants
    /// must avoid ([`elp2im_dram::controller::Controller`] semantics).
    pub refresh: Option<(Ps, Ps)>,
    /// Optional explicit claimed schedule to verify instead of
    /// constructing one (the `k`-th claim naming a path binds to the
    /// `k`-th command of that stream).
    pub claims: Option<Vec<ClaimedCommand>>,
    /// Timing parameters the programs' command profiles derive from.
    pub timing: Ddr3Timing,
}

impl BatchPlan {
    /// An empty plan over `topology` with DDR3-1600 timing, the given
    /// budget, and no refresh obligation.
    pub fn new(topology: Topology, budget: PumpBudget, shape: SubarrayShape) -> Self {
        BatchPlan {
            topology,
            budget,
            shape,
            steps: Vec::new(),
            live_in: BTreeMap::new(),
            refresh: None,
            claims: None,
            timing: Ddr3Timing::ddr3_1600(),
        }
    }
}

/// Hazard classification between two plan steps sharing rows across
/// different command streams.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HazardKind {
    /// Read-after-write: the later step consumes data the earlier one
    /// produced, with no cross-stream ordering.
    Raw,
    /// Write-after-read: the later step overwrites a row the earlier one
    /// still reads.
    War,
    /// Write-after-write: both steps write the row; the surviving value
    /// depends on issue order.
    Waw,
}

impl HazardKind {
    /// Upper-case mnemonic (`RAW`/`WAR`/`WAW`).
    pub fn name(self) -> &'static str {
        match self {
            HazardKind::Raw => "RAW",
            HazardKind::War => "WAR",
            HazardKind::Waw => "WAW",
        }
    }

    fn verbs(self) -> (&'static str, &'static str) {
        match self {
            HazardKind::Raw => ("writes", "reads"),
            HazardKind::War => ("reads", "writes"),
            HazardKind::Waw => ("writes", "writes"),
        }
    }
}

/// What a [`PlanDiagnostic`] reports.
#[derive(Debug, Clone, PartialEq)]
pub enum PlanDiagnosticKind {
    /// A step leaves a live data row destroyed: some other program's
    /// operand (or a result row a previous step produced) is gone (error).
    RowClobber {
        /// Flat bank unit.
        unit: usize,
        /// Subarray.
        subarray: usize,
        /// The clobbered row.
        row: PhysRow,
    },
    /// A step's first access to a live data row is a copy-destination
    /// write: the allocator handed out a row that already belongs to
    /// someone (error).
    DoubleBooking {
        /// Flat bank unit.
        unit: usize,
        /// Subarray.
        subarray: usize,
        /// The double-booked row.
        row: PhysRow,
    },
    /// A step reads a row a previous step destroyed and no step in between
    /// redefined (error).
    RecycledTemp {
        /// Flat bank unit.
        unit: usize,
        /// Subarray.
        subarray: usize,
        /// The recycled row.
        row: PhysRow,
        /// Plan step whose trimmed restore destroyed it.
        destroyed_by: usize,
    },
    /// Two steps of one subarray share a row across *different* command
    /// streams — no ordering guarantee, so the data flow is a race
    /// (error).
    CrossStreamHazard {
        /// Hazard class (RAW reported over WAR over WAW).
        kind: HazardKind,
        /// Flat bank unit.
        unit: usize,
        /// Subarray.
        subarray: usize,
        /// The first shared row (witness).
        row: PhysRow,
        /// Earlier step (plan order).
        first: usize,
        /// Its command stream.
        first_stream: TopoPath,
        /// Later step.
        second: usize,
        /// Its command stream.
        second_stream: TopoPath,
    },
    /// A step names a command stream outside the plan topology (error).
    InvalidStream {
        /// The offending stream path.
        stream: TopoPath,
    },
    /// A finding of the single-program analyzer, anchored to its step
    /// (severity preserved).
    Program {
        /// The wrapped program-level finding.
        diagnostic: Diagnostic,
    },
    /// A refuted timing obligation from the static schedule verifier
    /// (error).
    Timing(TimingViolation),
}

impl PlanDiagnosticKind {
    /// Stable machine-readable identifier, extending the program
    /// analyzer's slug namespace with a `plan-` prefix.
    pub fn slug(&self) -> String {
        match self {
            PlanDiagnosticKind::RowClobber { .. } => "plan-row-clobber".into(),
            PlanDiagnosticKind::DoubleBooking { .. } => "plan-double-booking".into(),
            PlanDiagnosticKind::RecycledTemp { .. } => "plan-recycled-temp".into(),
            PlanDiagnosticKind::CrossStreamHazard { .. } => "plan-cross-stream-hazard".into(),
            PlanDiagnosticKind::InvalidStream { .. } => "plan-invalid-stream".into(),
            PlanDiagnosticKind::Program { diagnostic } => {
                format!("plan-{}", diagnostic.kind.slug())
            }
            PlanDiagnosticKind::Timing(v) => format!("plan-{}", v.slug()),
        }
    }
}

/// One plan-level finding.
#[derive(Debug, Clone, PartialEq)]
pub struct PlanDiagnostic {
    /// Plan step the finding anchors to (`None` for whole-plan timing
    /// findings).
    pub step: Option<usize>,
    /// Severity class (same ladder as the program analyzer).
    pub severity: Severity,
    /// The finding itself.
    pub kind: PlanDiagnosticKind,
}

impl fmt::Display for PlanDiagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let step = self.step.unwrap_or(0);
        match &self.kind {
            PlanDiagnosticKind::RowClobber { unit, subarray, row } => write!(
                f,
                "step #{step} (b{unit}.s{subarray}): destroys live row {row} \
                 (cross-program operand clobber)"
            ),
            PlanDiagnosticKind::DoubleBooking { unit, subarray, row } => write!(
                f,
                "step #{step} (b{unit}.s{subarray}): first write to {row} double-books a \
                 live row"
            ),
            PlanDiagnosticKind::RecycledTemp { unit, subarray, row, destroyed_by } => write!(
                f,
                "step #{step} (b{unit}.s{subarray}): reads {row}, destroyed by step \
                 #{destroyed_by} and never redefined (recycled temp)"
            ),
            PlanDiagnosticKind::CrossStreamHazard {
                kind,
                unit,
                subarray,
                row,
                first,
                first_stream,
                second,
                second_stream,
            } => {
                let (v1, v2) = kind.verbs();
                write!(
                    f,
                    "step #{second}: {} hazard on {row} (b{unit}.s{subarray}): step #{first} \
                     {v1} it on stream {first_stream}, step #{second} {v2} it on stream \
                     {second_stream} (bank isolation violated)",
                    kind.name()
                )
            }
            PlanDiagnosticKind::InvalidStream { stream } => {
                write!(f, "step #{step}: stream {stream} is outside the plan topology")
            }
            PlanDiagnosticKind::Program { diagnostic } => {
                write!(f, "step #{step}: {diagnostic}")
            }
            PlanDiagnosticKind::Timing(v) => write!(f, "timing: {v}"),
        }
    }
}

/// The verdict of [`certify`]: ordered diagnostics (borrow checker first,
/// then hazards, then timing) plus the proven makespan when the timing
/// obligations all discharged.
#[derive(Debug, Clone)]
pub struct PlanReport {
    diagnostics: Vec<PlanDiagnostic>,
    makespan: Option<Ns>,
}

impl PlanReport {
    /// All findings, in analysis order.
    pub fn diagnostics(&self) -> &[PlanDiagnostic] {
        &self.diagnostics
    }

    /// Whether the plan passed with no error-severity findings.
    pub fn is_accepted(&self) -> bool {
        !self.diagnostics.iter().any(|d| d.severity == Severity::Error)
    }

    /// The first error-severity finding, if any — the plan's concrete
    /// counterexample.
    pub fn first_error(&self) -> Option<&PlanDiagnostic> {
        self.diagnostics.iter().find(|d| d.severity == Severity::Error)
    }

    /// The statically proven wall-clock makespan, when every timing
    /// obligation discharged (absent on rejection or claim mismatch).
    pub fn makespan(&self) -> Option<Ns> {
        self.makespan
    }
}

/// Rows a step reads anywhere in its program (syntactic).
fn step_reads(prog: &Program) -> BTreeSet<PhysRow> {
    prog.primitives().iter().map(|p| PhysRow::from(p.source())).collect()
}

/// Rows a step writes: copy destinations plus trimmed (destroyed) rows.
/// Pure restores write back the value just read, so they are not writes
/// for hazard purposes.
fn step_writes(prog: &Program) -> BTreeSet<PhysRow> {
    let mut out: BTreeSet<PhysRow> =
        prog.primitives().iter().filter_map(Primitive::copy_dst).map(PhysRow::from).collect();
    for p in prog.primitives() {
        if let Primitive::TApp { row, .. } | Primitive::OtApp { row, .. } = *p {
            out.insert(PhysRow::from(row));
        }
    }
    out
}

/// One value per distinct program of a plan (by [`Arc`] identity), plus
/// each step's index into them.
struct PerProgram<T> {
    values: Vec<T>,
    of_step: Vec<usize>,
}

impl<T> PerProgram<T> {
    /// The value of step `k`'s program.
    fn step(&self, k: usize) -> &T {
        &self.values[self.of_step[k]]
    }
}

/// Computes `f` once per distinct program of `steps`. Consecutive steps
/// mostly share one program, so only a change of program costs a lookup.
fn per_program<T>(steps: &[PlanStep], mut f: impl FnMut(&Program) -> T) -> PerProgram<T> {
    let mut values = Vec::new();
    let mut index_of: HashMap<*const Program, usize> = HashMap::new();
    let mut last = None;
    let of_step = steps
        .iter()
        .map(|step| {
            let id = Arc::as_ptr(&step.program);
            match last {
                Some((prev, i)) if prev == id => i,
                _ => {
                    let i = *index_of.entry(id).or_insert_with(|| {
                        values.push(f(&step.program));
                        values.len() - 1
                    });
                    last = Some((id, i));
                    i
                }
            }
        })
        .collect();
    PerProgram { values, of_step }
}

/// Congruence-class key for subarray groups: the per-step (program
/// identity, first-seen stream index) signature plus the live-in rows.
type GroupClass = (Vec<(usize, u32)>, Vec<PhysRow>);

/// State-independent syntactic facts about one program, computed once per
/// distinct [`Arc<Program>`]. Batch plans run a single compiled program
/// over dozens of stripes, so caching these turns every per-step (and
/// per-pair, in the hazard pass) set construction into a lookup.
struct ProgFacts {
    /// Every row the program names.
    named: BTreeSet<PhysRow>,
    /// Rows read before any write ([`infer_live_in`]).
    live_in: Vec<PhysRow>,
    /// [`step_reads`].
    reads: BTreeSet<PhysRow>,
    /// [`step_writes`].
    writes: BTreeSet<PhysRow>,
    /// Rows whose first access is a copy-destination write, in program
    /// order — the double-booking candidates (state decides per step).
    first_dst_writes: Vec<PhysRow>,
}

impl ProgFacts {
    fn of(prog: &Program) -> Self {
        let named =
            prog.primitives().iter().flat_map(Primitive::row_iter).map(PhysRow::from).collect();
        let mut seen: BTreeSet<PhysRow> = BTreeSet::new();
        let mut first_dst_writes = Vec::new();
        for p in prog.primitives() {
            seen.insert(PhysRow::from(p.source()));
            if let Some(r) = p.copy_dst() {
                let phys = PhysRow::from(r);
                if seen.insert(phys) {
                    first_dst_writes.push(phys);
                }
            }
        }
        ProgFacts {
            named,
            live_in: infer_live_in(prog).into_iter().collect(),
            reads: step_reads(prog),
            writes: step_writes(prog),
            first_dst_writes,
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum RowState {
    Live,
    Destroyed { by: usize },
}

/// Statically certifies `plan`: row borrow checking and cross-stream
/// hazard analysis per subarray, then timing verification of the plan's
/// command streams. Never executes a primitive or touches an engine.
pub fn certify(plan: &BatchPlan) -> PlanReport {
    let mut diagnostics = Vec::new();

    // ---- Passes 1 and 2: borrow checking and hazards, per subarray. ----
    // Steps are grouped by (unit, subarray) preserving plan order; each
    // group is an independent interprocedural analysis because subarrays
    // share no rows. A stable sort makes every group a contiguous run of
    // `order`, with groups in key order.
    let group_of = |k: &usize| (plan.steps[*k].unit, plan.steps[*k].subarray);
    let mut order: Vec<usize> = (0..plan.steps.len()).collect();
    order.sort_by_key(group_of);
    // Memoized program analyses: batch plans run one compiled program over
    // many equivalent subarray states, so the (program, live-rows) pair
    // recurs constantly.
    let mut memo: HashMap<(usize, Vec<PhysRow>), AnalysisReport> = HashMap::new();
    // Per-program syntactic facts, shared by the borrow-check and hazard
    // passes (see [`ProgFacts`]).
    let programs = per_program(&plan.steps, ProgFacts::of);

    // Congruent-group memoization. A batch plan stripes one operation
    // across many subarrays, so most groups run the same program sequence
    // from the same live-in rows with the same stream-sharing pattern —
    // and such groups provably produce structurally identical findings
    // (programs are shared `Arc`s, so even the concrete row numbers
    // coincide). Each congruence class — keyed by the per-step (program
    // identity, first-seen stream index) signature plus the live-in set —
    // is analyzed once; its findings are cached with group-local step
    // indices and rebound to every member group. Congruent groups come in
    // runs, so a key equal to the previous group's skips the hash lookup.
    let mut classes: HashMap<GroupClass, usize> = HashMap::new();
    let mut findings: Vec<Vec<PlanDiagnostic>> = Vec::new();
    let (mut key, mut prev_key): (GroupClass, GroupClass) = Default::default();
    let mut prev_class = None;
    let mut streams_seen: Vec<TopoPath> = Vec::new();
    // Live-in sets are keyed like the groups, so one sorted walk pairs them.
    let mut live_in = plan.live_in.iter().peekable();
    for step_ids in order.chunk_by(|a, b| group_of(a) == group_of(b)) {
        let (unit, subarray) = group_of(&step_ids[0]);
        while live_in.next_if(|(g, _)| **g < (unit, subarray)).is_some() {}
        let live = live_in.next_if(|(g, _)| **g == (unit, subarray)).map(|(_, rows)| rows);
        key.1.clear();
        key.1.extend(live.into_iter().flatten().copied());
        key.0.clear();
        streams_seen.clear();
        for &k in step_ids {
            let stream = plan.steps[k].stream;
            let sid = streams_seen.iter().position(|p| *p == stream).unwrap_or_else(|| {
                streams_seen.push(stream);
                streams_seen.len() - 1
            });
            key.0.push((programs.of_step[k], sid as u32));
        }
        let class = match prev_class {
            Some(class) if key == prev_key => class,
            _ => {
                let class = *classes.entry(key.clone()).or_insert_with(|| {
                    findings.push(check_group(plan, step_ids, &programs, &mut memo));
                    findings.len() - 1
                });
                std::mem::swap(&mut key, &mut prev_key);
                prev_class = Some(class);
                class
            }
        };
        diagnostics
            .extend(findings[class].iter().map(|d| rebind(d, unit, subarray, step_ids, plan)));
    }

    // ---- Pass 3: static timing verification. ---------------------------
    let makespan = verify_timing(plan, &mut diagnostics);

    PlanReport { diagnostics, makespan }
}

/// Runs the borrow-check and hazard passes over one subarray group.
/// Diagnostics come back with *group-local* step indices (positions in
/// `step_ids`) everywhere a step is named, ready for [`rebind`].
fn check_group(
    plan: &BatchPlan,
    step_ids: &[usize],
    programs: &PerProgram<ProgFacts>,
    memo: &mut HashMap<(usize, Vec<PhysRow>), AnalysisReport>,
) -> Vec<PlanDiagnostic> {
    let mut out = Vec::new();
    let (unit, subarray) =
        step_ids.first().map(|&k| (plan.steps[k].unit, plan.steps[k].subarray)).unwrap_or_default();

    // ---- Pass 1: row borrow checker. -----------------------------------
    let mut state: BTreeMap<PhysRow, RowState> = plan
        .live_in
        .get(&(unit, subarray))
        .map(|rows| rows.iter().map(|&r| (r, RowState::Live)).collect())
        .unwrap_or_default();
    for (li, &k) in step_ids.iter().enumerate() {
        let prog = &plan.steps[k].program;
        let pf = programs.step(k);

        // (a) Recycled temps: reads-before-write of a row some earlier
        // step destroyed. Reported here with the destroying step; the
        // program-level read-of-undefined finding it shadows is
        // suppressed below.
        let mut recycled: BTreeSet<PhysRow> = BTreeSet::new();
        for &r in &pf.live_in {
            if let Some(RowState::Destroyed { by }) = state.get(&r) {
                out.push(PlanDiagnostic {
                    step: Some(li),
                    severity: Severity::Error,
                    kind: PlanDiagnosticKind::RecycledTemp {
                        unit,
                        subarray,
                        row: r,
                        destroyed_by: *by,
                    },
                });
                recycled.insert(r);
            }
        }

        // (b) Double booking: the step's first access to a live *data*
        // row is a copy-destination write. Data rows are the
        // allocator's domain — a fresh destination must not be live.
        // Reserved rows are scratch; overwriting their residue is the
        // normal idiom.
        for &phys in &pf.first_dst_writes {
            if matches!(phys, PhysRow::Data(_)) && state.get(&phys) == Some(&RowState::Live) {
                out.push(PlanDiagnostic {
                    step: Some(li),
                    severity: Severity::Error,
                    kind: PlanDiagnosticKind::DoubleBooking { unit, subarray, row: phys },
                });
            }
        }

        // (c) Program-level analysis under the subarray's current live
        // set, memoized. Restricting the live-in to the rows the
        // program names is verdict- and state-equivalent: rows it
        // never names keep their entry state.
        let live_named: Vec<PhysRow> =
            pf.named.iter().copied().filter(|r| state.get(r) == Some(&RowState::Live)).collect();
        let key = (programs.of_step[k], live_named.clone());
        let report = &*memo.entry(key).or_insert_with(|| analyze(prog, plan.shape, &live_named));
        for d in report.diagnostics() {
            match &d.kind {
                // A clobbered live-in *data* row is a plan-level error:
                // another program's operand (or a produced result row)
                // is gone. Destroyed reserved-row residue is the
                // normal trim idiom — not a finding at plan level.
                DiagnosticKind::LiveInDestroyed { row } => {
                    if matches!(row, PhysRow::Data(_)) {
                        out.push(PlanDiagnostic {
                            step: Some(li),
                            severity: Severity::Error,
                            kind: PlanDiagnosticKind::RowClobber { unit, subarray, row: *row },
                        });
                    }
                }
                // Shadowed by the recycled-temp finding above, which
                // carries the destroying step.
                DiagnosticKind::ReadOfUndefinedRow { row }
                    if recycled.contains(&PhysRow::from(*row)) => {}
                _ => out.push(PlanDiagnostic {
                    step: Some(li),
                    severity: d.severity,
                    kind: PlanDiagnosticKind::Program { diagnostic: d.clone() },
                }),
            }
        }

        // (d) Thread the final row states into the next step's entry
        // state (the interprocedural part).
        for &r in &pf.named {
            match report.final_row(r) {
                crate::analysis::AbstractVal::Destroyed { .. } => {
                    state.insert(r, RowState::Destroyed { by: li });
                }
                crate::analysis::AbstractVal::Undefined => {
                    state.remove(&r);
                }
                _ => {
                    state.insert(r, RowState::Live);
                }
            }
        }
    }

    // ---- Pass 2: cross-stream hazards within this subarray. ------------
    // Two steps on the same stream are ordered by construction (their
    // commands append to one bank stream in plan order); different
    // streams have no ordering, so any shared row is a race.
    for (i_pos, &i) in step_ids.iter().enumerate() {
        let pi = programs.step(i);
        let (ri, wi) = (&pi.reads, &pi.writes);
        for (j_off, &j) in step_ids[i_pos + 1..].iter().enumerate() {
            let j_pos = i_pos + 1 + j_off;
            if plan.steps[i].stream == plan.steps[j].stream {
                continue;
            }
            let pj = programs.step(j);
            let (rj, wj) = (&pj.reads, &pj.writes);
            let hazard = [
                (HazardKind::Raw, wi.intersection(rj).next()),
                (HazardKind::War, ri.intersection(wj).next()),
                (HazardKind::Waw, wi.intersection(wj).next()),
            ]
            .into_iter()
            .find_map(|(kind, row)| row.map(|&row| (kind, row)));
            if let Some((kind, row)) = hazard {
                out.push(PlanDiagnostic {
                    step: Some(j_pos),
                    severity: Severity::Error,
                    kind: PlanDiagnosticKind::CrossStreamHazard {
                        kind,
                        unit,
                        subarray,
                        row,
                        first: i_pos,
                        first_stream: plan.steps[i].stream,
                        second: j_pos,
                        second_stream: plan.steps[j].stream,
                    },
                });
            }
        }
    }
    out
}

/// Rebinds a [`check_group`] diagnostic (group-local step indices,
/// evaluating group's coordinates) to a congruent member group.
fn rebind(
    d: &PlanDiagnostic,
    unit: usize,
    subarray: usize,
    step_ids: &[usize],
    plan: &BatchPlan,
) -> PlanDiagnostic {
    let g = |local: usize| step_ids[local];
    let kind = match &d.kind {
        PlanDiagnosticKind::RowClobber { row, .. } => {
            PlanDiagnosticKind::RowClobber { unit, subarray, row: *row }
        }
        PlanDiagnosticKind::DoubleBooking { row, .. } => {
            PlanDiagnosticKind::DoubleBooking { unit, subarray, row: *row }
        }
        PlanDiagnosticKind::RecycledTemp { row, destroyed_by, .. } => {
            PlanDiagnosticKind::RecycledTemp {
                unit,
                subarray,
                row: *row,
                destroyed_by: g(*destroyed_by),
            }
        }
        PlanDiagnosticKind::CrossStreamHazard { kind, row, first, second, .. } => {
            PlanDiagnosticKind::CrossStreamHazard {
                kind: *kind,
                unit,
                subarray,
                row: *row,
                first: g(*first),
                first_stream: plan.steps[g(*first)].stream,
                second: g(*second),
                second_stream: plan.steps[g(*second)].stream,
            }
        }
        other => other.clone(),
    };
    PlanDiagnostic { step: d.step.map(g), severity: d.severity, kind }
}

/// Builds the plan's per-stream command profiles and discharges the
/// timing obligations; returns the proven makespan on success.
fn verify_timing(plan: &BatchPlan, diagnostics: &mut Vec<PlanDiagnostic>) -> Option<Ns> {
    let mut bad_stream = false;
    for (k, step) in plan.steps.iter().enumerate() {
        if !plan.topology.contains(step.stream) {
            diagnostics.push(PlanDiagnostic {
                step: Some(k),
                severity: Severity::Error,
                kind: PlanDiagnosticKind::InvalidStream { stream: step.stream },
            });
            bad_stream = true;
        }
    }
    if bad_stream {
        return None;
    }
    if plan.steps.is_empty() {
        return Some(Ns::ZERO);
    }
    // Profiles are pure in (program, timing); share them across the many
    // steps of a batch plan that run one compiled program. Each step then
    // contributes a borrowed slice; the scheduler and the claim checker
    // concatenate a path's slices in plan order.
    let profiles = per_program(&plan.steps, |prog| prog.profiles(&plan.timing));
    let streams: Vec<(TopoPath, &[CommandProfile])> = (0..plan.steps.len())
        .map(|k| (plan.steps[k].stream, profiles.step(k).as_slice()))
        .collect();

    let scheduled;
    let claims: &[ClaimedCommand] = match &plan.claims {
        Some(claims) => claims,
        None => {
            match HierarchicalScheduler::new(plan.budget.clone())
                .schedule_for(&plan.topology, &streams)
            {
                Ok(schedule) => {
                    scheduled = schedule.claims();
                    &scheduled
                }
                Err(_) => {
                    // Paths were validated above; scheduling a validated
                    // stream set cannot fail, but degrade gracefully.
                    return None;
                }
            }
        }
    };
    match verify_claims(&plan.budget, plan.refresh, &streams, claims) {
        Ok(makespan) => Some(makespan.to_ns()),
        Err(violations) => {
            diagnostics.extend(violations.into_iter().map(|v| PlanDiagnostic {
                step: None,
                severity: Severity::Error,
                kind: PlanDiagnosticKind::Timing(v),
            }));
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile::{compile, CompileMode, LogicOp, Operands};
    use crate::primitive::{Primitive, RegulateMode, RowRef};
    use elp2im_dram::geometry::Geometry;

    fn shape() -> SubarrayShape {
        SubarrayShape { data_rows: 16, dcc_rows: 2 }
    }

    fn topo(banks: usize) -> Topology {
        Topology::module(Geometry {
            banks,
            subarrays_per_bank: 2,
            rows_per_subarray: 16,
            row_bytes: 8,
        })
    }

    fn plan_with(steps: Vec<PlanStep>, live: &[(usize, usize, Vec<PhysRow>)]) -> BatchPlan {
        let mut plan = BatchPlan::new(topo(4), PumpBudget::unconstrained(), shape());
        plan.steps = steps;
        for (unit, sub, rows) in live {
            plan.live_in.insert((*unit, *sub), rows.iter().copied().collect());
        }
        plan
    }

    fn step(unit: usize, subarray: usize, prog: Program) -> PlanStep {
        PlanStep { unit, subarray, stream: topo(4).path(unit), program: Arc::new(prog) }
    }

    fn compiled(op: LogicOp, rows: Operands) -> Program {
        compile(op, CompileMode::LowLatency, rows, 2).unwrap()
    }

    #[test]
    fn clean_single_op_plan_is_certified_with_makespan() {
        let rows = Operands { a: 0, b: 1, dst: 2, scratch: None };
        let steps = (0..4).map(|u| step(u, 0, compiled(LogicOp::And, rows))).collect();
        let plan = plan_with(
            steps,
            &[
                (0, 0, vec![PhysRow::Data(0), PhysRow::Data(1)]),
                (1, 0, vec![PhysRow::Data(0), PhysRow::Data(1)]),
                (2, 0, vec![PhysRow::Data(0), PhysRow::Data(1)]),
                (3, 0, vec![PhysRow::Data(0), PhysRow::Data(1)]),
            ],
        );
        let report = certify(&plan);
        assert!(report.is_accepted(), "{:?}", report.first_error().map(|d| d.to_string()));
        assert!(report.makespan().unwrap().as_f64() > 0.0);
    }

    #[test]
    fn sequential_ops_over_one_subarray_thread_state() {
        // op1: dst r2 = r0 AND r1; op2 consumes r2: dst r3 = r2 OR r0.
        let s1 = step(0, 0, compiled(LogicOp::And, Operands { a: 0, b: 1, dst: 2, scratch: None }));
        let s2 = step(0, 0, compiled(LogicOp::Or, Operands { a: 2, b: 0, dst: 3, scratch: None }));
        let plan = plan_with(vec![s1, s2], &[(0, 0, vec![PhysRow::Data(0), PhysRow::Data(1)])]);
        let report = certify(&plan);
        assert!(report.is_accepted(), "{:?}", report.first_error().map(|d| d.to_string()));
    }

    #[test]
    fn cross_program_clobber_is_rejected() {
        // Step 0 trims r0 away; r0 is a live operand.
        let prog = Program::new(
            "clobber",
            vec![
                Primitive::TApp { row: RowRef::Data(0), mode: RegulateMode::Or },
                Primitive::Ap { row: RowRef::Data(1) },
            ],
        );
        let plan =
            plan_with(vec![step(0, 0, prog)], &[(0, 0, vec![PhysRow::Data(0), PhysRow::Data(1)])]);
        let report = certify(&plan);
        assert!(!report.is_accepted());
        let e = report.first_error().unwrap();
        assert_eq!(e.kind.slug(), "plan-row-clobber");
        assert_eq!(
            e.to_string(),
            "step #0 (b0.s0): destroys live row r0 (cross-program operand clobber)"
        );
    }

    #[test]
    fn recycled_temp_is_rejected_with_destroying_step() {
        // Step 0 destroys R0; step 1 reads it before redefining.
        let p0 = Program::new(
            "spend",
            vec![
                Primitive::Aap { src: RowRef::Data(0), dst: RowRef::DccTrue(0) },
                Primitive::TApp { row: RowRef::DccTrue(0), mode: RegulateMode::Or },
                Primitive::Ap { row: RowRef::Data(1) },
            ],
        );
        let p1 = Program::new(
            "reuse",
            vec![Primitive::Aap { src: RowRef::DccTrue(0), dst: RowRef::Data(2) }],
        );
        let plan = plan_with(
            vec![step(0, 0, p0), step(0, 0, p1)],
            &[(0, 0, vec![PhysRow::Data(0), PhysRow::Data(1)])],
        );
        let report = certify(&plan);
        assert!(!report.is_accepted());
        let e = report.first_error().unwrap();
        assert_eq!(e.kind.slug(), "plan-recycled-temp");
        assert_eq!(
            e.to_string(),
            "step #1 (b0.s0): reads R0, destroyed by step #0 and never redefined (recycled temp)"
        );
        // The shadowed program-level read-of-undefined finding is absent.
        assert!(!report
            .diagnostics()
            .iter()
            .any(|d| d.kind.slug() == "plan-read-of-undefined-row"));
    }

    #[test]
    fn double_booking_is_rejected() {
        // r2 is live (someone's data), but the step copies into it first.
        let prog = Program::new(
            "book",
            vec![Primitive::Aap { src: RowRef::Data(0), dst: RowRef::Data(2) }],
        );
        let plan =
            plan_with(vec![step(0, 0, prog)], &[(0, 0, vec![PhysRow::Data(0), PhysRow::Data(2)])]);
        let report = certify(&plan);
        assert!(!report.is_accepted());
        let e = report.first_error().unwrap();
        assert_eq!(e.kind.slug(), "plan-double-booking");
        assert_eq!(e.to_string(), "step #0 (b0.s0): first write to r2 double-books a live row");
    }

    #[test]
    fn scratch_residue_reuse_is_not_double_booking() {
        // Step 0 leaves residue in R0; step 1 overwrites it first thing —
        // the normal scratch idiom, not a finding.
        let p = |name: &str, dst: usize| {
            Program::new(
                name,
                vec![
                    Primitive::Aap { src: RowRef::Data(0), dst: RowRef::DccTrue(0) },
                    Primitive::Aap { src: RowRef::DccTrue(0), dst: RowRef::Data(dst) },
                ],
            )
        };
        let plan = plan_with(
            vec![step(0, 0, p("first", 2)), step(0, 0, p("second", 3))],
            &[(0, 0, vec![PhysRow::Data(0)])],
        );
        let report = certify(&plan);
        assert!(report.is_accepted(), "{:?}", report.first_error().map(|d| d.to_string()));
    }

    #[test]
    fn cross_stream_raw_hazard_is_rejected() {
        let t = topo(4);
        // Both steps claim subarray (0, 0) but issue on different bank
        // streams; step 1 reads the row step 0 wrote.
        let s0 = PlanStep {
            unit: 0,
            subarray: 0,
            stream: t.path(0),
            program: Arc::new(Program::new(
                "produce",
                vec![Primitive::Aap { src: RowRef::Data(0), dst: RowRef::Data(1) }],
            )),
        };
        let s1 = PlanStep {
            unit: 0,
            subarray: 0,
            stream: t.path(1),
            program: Arc::new(Program::new(
                "consume",
                vec![Primitive::Aap { src: RowRef::Data(1), dst: RowRef::Data(2) }],
            )),
        };
        let plan = plan_with(vec![s0, s1], &[(0, 0, vec![PhysRow::Data(0)])]);
        let report = certify(&plan);
        assert!(!report.is_accepted());
        let e = report.first_error().unwrap();
        assert_eq!(e.kind.slug(), "plan-cross-stream-hazard");
        assert_eq!(
            e.to_string(),
            "step #1: RAW hazard on r1 (b0.s0): step #0 writes it on stream c0.r0.b0, \
             step #1 reads it on stream c0.r0.b1 (bank isolation violated)"
        );
    }

    #[test]
    fn same_stream_sharing_is_ordered_and_clean() {
        // Same sharing pattern as the RAW test, but both steps issue on
        // bank 0's own stream: ordered by construction, no hazard.
        let s0 = step(
            0,
            0,
            Program::new(
                "produce",
                vec![Primitive::Aap { src: RowRef::Data(0), dst: RowRef::Data(1) }],
            ),
        );
        let s1 = step(
            0,
            0,
            Program::new(
                "consume",
                vec![Primitive::Aap { src: RowRef::Data(1), dst: RowRef::Data(2) }],
            ),
        );
        let plan = plan_with(vec![s0, s1], &[(0, 0, vec![PhysRow::Data(0)])]);
        let report = certify(&plan);
        assert!(report.is_accepted(), "{:?}", report.first_error().map(|d| d.to_string()));
    }

    #[test]
    fn pump_overrun_claims_are_rejected() {
        // Five banks claim t=0..4ns under the 4-token JEDEC window.
        let mut plan = BatchPlan::new(topo(5), PumpBudget::jedec_ddr3_1600(), shape());
        let t = topo(5);
        for u in 0..5 {
            plan.steps.push(PlanStep {
                unit: u,
                subarray: 0,
                stream: t.path(u),
                program: Arc::new(Program::new("ap", vec![Primitive::Ap { row: RowRef::Data(0) }])),
            });
            plan.live_in.insert((u, 0), [PhysRow::Data(0)].into_iter().collect());
        }
        plan.claims = Some(
            (0..5)
                .map(|u| ClaimedCommand { path: t.path(u), start: Ps(u as u64 * 1000) })
                .collect(),
        );
        let report = certify(&plan);
        assert!(!report.is_accepted());
        assert_eq!(report.first_error().unwrap().kind.slug(), "plan-pump-overrun");
        assert!(report.makespan().is_none());
        // The same plan without explicit claims schedules (and stalls)
        // legally.
        plan.claims = None;
        let report = certify(&plan);
        assert!(report.is_accepted(), "{:?}", report.first_error().map(|d| d.to_string()));
    }

    #[test]
    fn refresh_misalignment_is_rejected() {
        let mut plan = BatchPlan::new(topo(1), PumpBudget::unconstrained(), shape());
        plan.steps.push(step(
            0,
            0,
            Program::new("ap", vec![Primitive::Ap { row: RowRef::Data(0) }]),
        ));
        plan.live_in.insert((0, 0), [PhysRow::Data(0)].into_iter().collect());
        plan.refresh = Some((Ps(7_800_000), Ps(350_000)));
        // The scheduler starts at t = 0 — inside the blackout.
        let report = certify(&plan);
        assert!(!report.is_accepted());
        assert_eq!(report.first_error().unwrap().kind.slug(), "plan-refresh-misalignment");
    }

    #[test]
    fn invalid_stream_is_rejected() {
        let mut plan = BatchPlan::new(topo(2), PumpBudget::unconstrained(), shape());
        plan.steps.push(PlanStep {
            unit: 0,
            subarray: 0,
            stream: TopoPath::new(0, 0, 9),
            program: Arc::new(Program::new("ap", vec![Primitive::Ap { row: RowRef::Data(0) }])),
        });
        plan.live_in.insert((0, 0), [PhysRow::Data(0)].into_iter().collect());
        let report = certify(&plan);
        assert!(!report.is_accepted());
        assert_eq!(report.first_error().unwrap().kind.slug(), "plan-invalid-stream");
    }

    #[test]
    fn program_findings_are_wrapped_with_their_step() {
        // Step 1's program reads a row nobody defined (and nobody
        // destroyed): the program-level finding passes through.
        let plan = plan_with(
            vec![step(0, 0, Program::new("undef", vec![Primitive::Ap { row: RowRef::Data(7) }]))],
            &[(0, 0, vec![PhysRow::Data(0)])],
        );
        let report = certify(&plan);
        assert!(!report.is_accepted());
        let e = report.first_error().unwrap();
        assert_eq!(e.kind.slug(), "plan-read-of-undefined-row");
        assert_eq!(
            e.to_string(),
            "step #0: primitive #0: reads r7, which is neither live-in nor written"
        );
    }
}
