//! Static sequence analysis: abstract interpretation and translation
//! validation.
//!
//! §5.1 assumes the configurable memory controller verifies buffered
//! primitive sequences before issue. This module is that verifier, built as
//! an **abstract interpreter** over the pseudo-precharge/sense-amplifier
//! state machine:
//!
//! * every physical row carries an abstract value — [`AbstractVal`]:
//!   undefined, destroyed, opaque (live but untracked), or an exact
//!   boolean function of the live-in rows ([`TruthTable`]);
//! * the pending bitline regulation is tracked symbolically, mirroring the
//!   engine's keep-mask semantics bit for bit;
//! * stepping a [`Program`] yields [`Diagnostic`]s with severities:
//!   errors subsume the [`Violation`] set (out-of-range rows, same-decoder
//!   overlap, destroyed/undefined reads, dangling regulation), warnings
//!   flag dead stores and clobbered live-in operands, and notes point out
//!   restores that the §4.2 trim pass could truncate.
//!
//! Because operands are *per-column booleans*, tracking one [`TruthTable`]
//! per row over the `k` live-in rows is **exact**: the abstract final state
//! enumerates all `2^k` input assignments, so two programs with equal final
//! states are semantically equivalent for every input. That is the basis of
//! [`verify_transform`], the translation-validation obligation discharged
//! for each optimizer pass (`merge_ap_app`, `trim_restores`, `overlap`).
//!
//! [`AnalysisCache`] memoizes accepted verdicts by program *shape* — the
//! program up to a renaming of its data rows, the reserved-row count and
//! the liveness of the rows it reads before writing — so the compiler's
//! self-check and the engines' load-time check analyze each shape once.

use crate::isa::Program;
use crate::optimizer::PhysRow;
use crate::primitive::{Primitive, RegulateMode, RowRef};
use crate::validate::{SubarrayShape, Violation};
use std::collections::{BTreeMap, HashMap};
use std::error::Error;
use std::fmt;
use std::sync::{Mutex, MutexGuard, OnceLock};

/// Maximum number of live-in rows tracked as truth-table variables
/// (`2^16` assignments = 1024 words per table). Beyond this the analyzer
/// still proves legality/def-use soundness but stops tracking values.
pub const MAX_VARS: usize = 16;

// ---------------------------------------------------------------------------
// Truth tables
// ---------------------------------------------------------------------------

/// An exact boolean function of `vars` ordered live-in variables.
///
/// Bit `m` of the table is the function value under assignment `m`, where
/// bit `j` of `m` is the value of variable `j`. With `vars = k` the table
/// holds all `2^k` assignments, so equality of tables is semantic
/// equivalence of the functions — exhaustive, not sampled.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TruthTable {
    vars: usize,
    words: Vec<u64>,
}

impl TruthTable {
    fn words_for(vars: usize) -> usize {
        (1usize << vars).div_ceil(64)
    }

    fn masked(mut self) -> Self {
        let bits = 1usize << self.vars;
        if bits < 64 {
            self.words[0] &= (1u64 << bits) - 1;
        }
        self
    }

    /// The constant function over `vars` variables.
    pub fn constant(vars: usize, value: bool) -> Self {
        let fill = if value { !0u64 } else { 0 };
        TruthTable { vars, words: vec![fill; Self::words_for(vars)] }.masked()
    }

    /// The projection onto variable `j` (`j < vars`).
    ///
    /// # Panics
    ///
    /// Panics if `j >= vars`.
    pub fn var(vars: usize, j: usize) -> Self {
        assert!(j < vars, "variable {j} out of range for {vars} vars");
        let words = if j >= 6 {
            // Whole words alternate with period 2^(j-6) words.
            (0..Self::words_for(vars))
                .map(|w| if (w >> (j - 6)) & 1 == 1 { !0u64 } else { 0 })
                .collect()
        } else {
            let mut pattern = 0u64;
            for m in 0..64usize {
                if (m >> j) & 1 == 1 {
                    pattern |= 1 << m;
                }
            }
            vec![pattern; Self::words_for(vars)]
        };
        TruthTable { vars, words }.masked()
    }

    /// Number of variables.
    pub fn vars(&self) -> usize {
        self.vars
    }

    /// Pointwise complement.
    pub fn not(&self) -> Self {
        TruthTable { vars: self.vars, words: self.words.iter().map(|w| !w).collect() }.masked()
    }

    /// Pointwise conjunction.
    pub fn and(&self, other: &Self) -> Self {
        debug_assert_eq!(self.vars, other.vars);
        let words = self.words.iter().zip(&other.words).map(|(a, b)| a & b).collect();
        TruthTable { vars: self.vars, words }
    }

    /// Pointwise disjunction.
    pub fn or(&self, other: &Self) -> Self {
        debug_assert_eq!(self.vars, other.vars);
        let words = self.words.iter().zip(&other.words).map(|(a, b)| a | b).collect();
        TruthTable { vars: self.vars, words }
    }

    /// Pointwise exclusive or.
    pub fn xor(&self, other: &Self) -> Self {
        debug_assert_eq!(self.vars, other.vars);
        let words = self.words.iter().zip(&other.words).map(|(a, b)| a ^ b).collect();
        TruthTable { vars: self.vars, words }
    }

    /// The function value under assignment `m` (bit `j` of `m` = variable
    /// `j`).
    pub fn eval(&self, m: usize) -> bool {
        (self.words[m / 64] >> (m % 64)) & 1 == 1
    }

    /// First assignment where the two functions differ, if any.
    pub fn first_difference(&self, other: &Self) -> Option<usize> {
        debug_assert_eq!(self.vars, other.vars);
        for (w, (a, b)) in self.words.iter().zip(&other.words).enumerate() {
            let diff = a ^ b;
            if diff != 0 {
                return Some(w * 64 + diff.trailing_zeros() as usize);
            }
        }
        None
    }
}

// ---------------------------------------------------------------------------
// Abstract domain
// ---------------------------------------------------------------------------

/// Abstract value of one physical row at a program point.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AbstractVal {
    /// Never written and not live-in: reading it is a def-use error.
    Undefined,
    /// Destroyed by the trimmed restore at primitive `at`; sticky until a
    /// copy destination write revives the row.
    Destroyed {
        /// Primitive index of the destroying trim.
        at: usize,
    },
    /// Holds valid data the analysis does not track (live rows outside the
    /// program's read set, or the [`MAX_VARS`] budget was exceeded).
    Opaque,
    /// An exact boolean function of the live-in rows, per column.
    Expr(TruthTable),
}

impl AbstractVal {
    fn kind_name(&self) -> &'static str {
        match self {
            AbstractVal::Undefined => "undefined",
            AbstractVal::Destroyed { .. } => "destroyed",
            AbstractVal::Opaque => "opaque",
            AbstractVal::Expr(_) => "defined",
        }
    }

    fn is_destroyed(&self) -> bool {
        matches!(self, AbstractVal::Destroyed { .. })
    }
}

/// Severity of a [`Diagnostic`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// Informational: a legal but improvable sequence.
    Note,
    /// Suspicious but executable.
    Warning,
    /// The program is statically invalid; the engine would fault (or the
    /// sequence leaks state into the next program).
    Error,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Severity::Note => "note",
            Severity::Warning => "warning",
            Severity::Error => "error",
        })
    }
}

/// What a [`Diagnostic`] reports.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DiagnosticKind {
    /// Row index exceeds the subarray shape (error).
    RowOutOfRange {
        /// Offending row.
        row: RowRef,
    },
    /// Overlapped activation within one decoder domain (error).
    SameDecoderOverlap {
        /// First row.
        a: RowRef,
        /// Second row.
        b: RowRef,
    },
    /// A read of a row destroyed by a trimmed restore (error).
    ReadOfDestroyedRow {
        /// The destroyed row.
        row: RowRef,
        /// Primitive index of the destroying trim.
        destroyed_at: usize,
    },
    /// A read of a row that is neither live-in nor written earlier (error).
    ReadOfUndefinedRow {
        /// The undefined row.
        row: RowRef,
    },
    /// The program ends with a regulation still pending (error).
    DanglingRegulation,
    /// A copy destination overwritten before any read (warning).
    DeadStore {
        /// The row stored to.
        row: PhysRow,
        /// Primitive index of the overwriting store.
        overwritten_at: usize,
    },
    /// A live-in row ends the program destroyed (warning): the caller's
    /// operand is clobbered.
    LiveInDestroyed {
        /// The clobbered live-in row.
        row: PhysRow,
    },
    /// An APP/oAPP restores a row whose value is dead afterwards; the §4.2
    /// trim pass could truncate the restore (note).
    TrimmableRestore {
        /// The row whose restore is dead.
        row: RowRef,
    },
}

impl DiagnosticKind {
    /// Stable machine-readable identifier, used by `elp2im-lint --json`.
    pub fn slug(&self) -> &'static str {
        match self {
            DiagnosticKind::RowOutOfRange { .. } => "row-out-of-range",
            DiagnosticKind::SameDecoderOverlap { .. } => "same-decoder-overlap",
            DiagnosticKind::ReadOfDestroyedRow { .. } => "read-of-destroyed-row",
            DiagnosticKind::ReadOfUndefinedRow { .. } => "read-of-undefined-row",
            DiagnosticKind::DanglingRegulation => "dangling-regulation",
            DiagnosticKind::DeadStore { .. } => "dead-store",
            DiagnosticKind::LiveInDestroyed { .. } => "live-in-destroyed",
            DiagnosticKind::TrimmableRestore { .. } => "trimmable-restore",
        }
    }
}

/// One analyzer finding: a severity, the primitive it anchors to, and what
/// was found. For the error kinds the rendered text matches [`Violation`]
/// exactly.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Primitive index the finding anchors to.
    pub at: usize,
    /// Severity class.
    pub severity: Severity,
    /// The finding itself.
    pub kind: DiagnosticKind,
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let at = self.at;
        match &self.kind {
            DiagnosticKind::RowOutOfRange { row } => {
                write!(f, "primitive #{at}: row {row} out of range")
            }
            DiagnosticKind::SameDecoderOverlap { a, b } => {
                write!(
                    f,
                    "primitive #{at}: overlapped activation of {a} and {b} in one decoder domain"
                )
            }
            DiagnosticKind::ReadOfDestroyedRow { row, destroyed_at } => write!(
                f,
                "primitive #{at}: reads {row}, destroyed by the trimmed restore at #{destroyed_at}"
            ),
            DiagnosticKind::ReadOfUndefinedRow { row } => {
                write!(f, "primitive #{at}: reads {row}, which is neither live-in nor written")
            }
            DiagnosticKind::DanglingRegulation => {
                write!(f, "program ends with the regulation from primitive #{at} still pending")
            }
            DiagnosticKind::DeadStore { row, overwritten_at } => write!(
                f,
                "primitive #{at}: stores {row}, overwritten at #{overwritten_at} without an \
                 intervening read (dead store)"
            ),
            DiagnosticKind::LiveInDestroyed { row } => write!(
                f,
                "live-in row {row} is destroyed at #{at} and never rewritten (clobbered operand)"
            ),
            DiagnosticKind::TrimmableRestore { row } => write!(
                f,
                "primitive #{at}: restore of {row} is dead; tAPP/otAPP would save the restore"
            ),
        }
    }
}

/// Result of analyzing a program: ordered diagnostics plus the abstract
/// final state, exact when `tracked()`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AnalysisReport {
    diagnostics: Vec<Diagnostic>,
    variables: Vec<PhysRow>,
    tracked: bool,
    final_rows: BTreeMap<PhysRow, AbstractVal>,
    final_regulation: Option<PendingRegulation>,
}

#[derive(Debug, Clone, PartialEq, Eq)]
struct PendingRegulation {
    mode: RegulateMode,
    /// Keep-mask as a truth table; `None` when values are untracked.
    keep: Option<TruthTable>,
    at: usize,
}

impl PendingRegulation {
    /// Canonical transfer `v ↦ (v ∧ and) ∨ or` of the pending regulation.
    fn canonical(&self) -> Option<(TruthTable, TruthTable)> {
        let keep = self.keep.as_ref()?;
        let vars = keep.vars();
        let (or, and) = match self.mode {
            RegulateMode::Or => (keep.clone(), TruthTable::constant(vars, true)),
            RegulateMode::And => (TruthTable::constant(vars, false), keep.not()),
        };
        Some((or.clone(), and.or(&or)))
    }
}

impl AnalysisReport {
    /// All findings, in program order (end-of-program findings last).
    pub fn diagnostics(&self) -> &[Diagnostic] {
        &self.diagnostics
    }

    /// Truth-table variable order: variable `j` is `variables()[j]`.
    pub fn variables(&self) -> &[PhysRow] {
        &self.variables
    }

    /// Whether row values were tracked exactly (false only past
    /// [`MAX_VARS`]). Legality/def-use diagnostics are complete either way.
    pub fn tracked(&self) -> bool {
        self.tracked
    }

    /// Whether the program passed with no error-severity findings.
    pub fn is_accepted(&self) -> bool {
        !self.diagnostics.iter().any(|d| d.severity == Severity::Error)
    }

    /// Error-severity findings rendered as the legacy [`Violation`] set, in
    /// the same order `validate` reported them.
    pub fn to_violations(&self) -> Vec<Violation> {
        self.diagnostics
            .iter()
            .filter_map(|d| match &d.kind {
                DiagnosticKind::RowOutOfRange { row } => {
                    Some(Violation::RowOutOfRange { at: d.at, row: *row })
                }
                DiagnosticKind::SameDecoderOverlap { a, b } => {
                    Some(Violation::SameDecoderOverlap { at: d.at, a: *a, b: *b })
                }
                DiagnosticKind::ReadOfDestroyedRow { row, destroyed_at } => {
                    Some(Violation::ReadOfDestroyedRow {
                        at: d.at,
                        row: *row,
                        destroyed_at: *destroyed_at,
                    })
                }
                DiagnosticKind::ReadOfUndefinedRow { row } => {
                    Some(Violation::ReadOfUndefinedRow { at: d.at, row: *row })
                }
                DiagnosticKind::DanglingRegulation => {
                    Some(Violation::DanglingRegulation { at: d.at })
                }
                _ => None,
            })
            .collect()
    }

    /// Abstract value of `row` at the end of the program.
    pub fn final_row(&self, row: PhysRow) -> AbstractVal {
        self.final_rows.get(&row).cloned().unwrap_or(AbstractVal::Undefined)
    }

    /// The exact boolean function `row` ends with, if tracked and defined.
    pub fn row_value(&self, row: PhysRow) -> Option<&TruthTable> {
        match self.final_rows.get(&row) {
            Some(AbstractVal::Expr(t)) => Some(t),
            _ => None,
        }
    }

    /// Whether a regulation is still pending at the end of the program.
    pub fn has_pending_regulation(&self) -> bool {
        self.final_regulation.is_some()
    }
}

// ---------------------------------------------------------------------------
// Program-shape helpers
// ---------------------------------------------------------------------------

/// Rows a primitive reads (the stored value matters at activation).
pub fn reads_of(p: &Primitive) -> Vec<RowRef> {
    vec![p.source()]
}

/// Copy destinations a primitive fully overwrites.
pub fn dst_writes_of(p: &Primitive) -> Vec<RowRef> {
    p.copy_dst().into_iter().collect()
}

/// The rows a program reads before writing them — its live-in set, in
/// first-read order.
pub fn infer_live_in(prog: &Program) -> Vec<PhysRow> {
    let mut live_in: Vec<PhysRow> = Vec::new();
    let mut touched: Vec<PhysRow> = Vec::new();
    for p in prog.primitives() {
        for (i, row) in p.row_iter().enumerate() {
            let phys: PhysRow = row.into();
            if !touched.contains(&phys) {
                touched.push(phys);
                // The source comes first and is the only row read.
                if i == 0 {
                    live_in.push(phys);
                }
            }
        }
    }
    live_in
}

/// The smallest [`SubarrayShape`] containing every row a program names.
pub fn infer_shape(prog: &Program) -> SubarrayShape {
    let mut shape = SubarrayShape { data_rows: 0, dcc_rows: 0 };
    for p in prog.primitives() {
        for row in p.row_iter() {
            match row {
                RowRef::Data(i) => shape.data_rows = shape.data_rows.max(i + 1),
                RowRef::DccTrue(i) | RowRef::DccBar(i) => {
                    shape.dcc_rows = shape.dcc_rows.max(i + 1)
                }
            }
        }
    }
    shape
}

fn in_range(shape: SubarrayShape, row: RowRef) -> bool {
    match row {
        RowRef::Data(i) => i < shape.data_rows,
        RowRef::DccTrue(i) | RowRef::DccBar(i) => i < shape.dcc_rows,
    }
}

// ---------------------------------------------------------------------------
// Verdict memoization
// ---------------------------------------------------------------------------

/// Programs up to this many primitives build their memo key on the stack;
/// a longer one builds it in one heap buffer per lookup.
const STACK_KEY_PRIMITIVES: usize = 32;

/// Placeholder filling unused key-buffer slots.
const NO_PRIMITIVE: Primitive = Primitive::Ap { row: RowRef::Data(0) };

/// Writes `prims` into `canon` (same length) with its data rows renamed to
/// `r0, r1, …` in first-appearance order, and returns the liveness of the
/// program's support rows (its [`infer_live_in`] set, in that order) as
/// bits: bit `k` is whether `live` holds for the `k`-th support row.
/// `renamed` records the concrete data row behind each canonical index and
/// must hold `2 · prims.len()` entries.
///
/// `None` when the memo cannot key the program: a row outside `shape`, a
/// reserved row at index 64 or above, or more than 64 support rows.
fn canonicalize(
    prims: &[Primitive],
    shape: SubarrayShape,
    live: &impl Fn(PhysRow) -> bool,
    canon: &mut [Primitive],
    renamed: &mut [usize],
) -> Option<u64> {
    let mut distinct = 0;
    let mut dcc_touched = 0u64;
    let mut support = 0;
    let mut flags = 0u64;
    for (p, out) in prims.iter().zip(canon.iter_mut()) {
        if !p.row_iter().all(|row| in_range(shape, row) && row.dcc_index().is_none_or(|i| i < 64)) {
            return None;
        }
        // Only the source is read, and `map_rows` renames it first: it is
        // a support row exactly when this is its first appearance.
        let mut first_read = None;
        let mut is_source = true;
        *out = p.map_rows(|row| {
            let (fresh, canonical) = match row {
                RowRef::Data(i) => match renamed[..distinct].iter().position(|&r| r == i) {
                    Some(j) => (false, RowRef::Data(j)),
                    None => {
                        renamed[distinct] = i;
                        distinct += 1;
                        (true, RowRef::Data(distinct - 1))
                    }
                },
                RowRef::DccTrue(i) | RowRef::DccBar(i) => {
                    let fresh = dcc_touched & (1 << i) == 0;
                    dcc_touched |= 1 << i;
                    (fresh, row)
                }
            };
            if fresh && is_source {
                first_read = Some(PhysRow::from(row));
            }
            is_source = false;
            canonical
        });
        if let Some(row) = first_read {
            if support == 64 {
                return None;
            }
            flags |= u64::from(live(row)) << support;
            support += 1;
        }
    }
    Some(flags)
}

/// Accepted `(dcc rows, support liveness bits)` pairs per canonical
/// program.
type AcceptedKeys = HashMap<Box<[Primitive]>, Vec<(usize, u64)>>;

/// The canonical verdict memo: remembers which program *shapes* the
/// analyzer accepted, so a program is verified once per shape, not once
/// per stripe, op or compilation.
///
/// An accepted verdict is keyed by
///
/// * the program with its data rows renamed in first-appearance order,
/// * the subarray's reserved-row count, and
/// * the liveness of the program's support rows (its [`infer_live_in`]
///   set, in first-read order), packed into a `u64`.
///
/// Soundness of the key: once every row is known to be in range (checked
/// on the concrete rows first), the analyzer's error-severity verdict
/// depends only on row *equality* and reserved-ness —
/// `SameDecoderOverlap`, `ReadOfDestroyedRow` and `DanglingRegulation` are
/// functions of the primitive sequence's row-identity pattern, and
/// `ReadOfUndefinedRow` fires exactly when a support row is dead. Rows
/// outside the support set are never read before being written, so their
/// liveness cannot change the verdict. An injective renaming of data rows
/// preserves all of that, so every renamed copy of one program shares one
/// entry, and a workload that compiles one operation over ever-different
/// rows keeps the memo at a handful of entries.
///
/// A lookup builds its key on the stack and allocates nothing on a hit.
/// A miss — or a rejection, which is never memoized — runs the full
/// [`analyze`] on the concrete program, so the returned [`Violation`]
/// names real rows. Warnings and notes are not memoized; callers that
/// want full diagnostics use [`analyze`] directly.
///
/// The memo is `Sync`, so one instance serves the bank-parallel batch
/// executor's worker threads concurrently; [`crate::compile::compile`]'s
/// self-check shares one process-wide instance.
#[derive(Debug, Default)]
pub struct AnalysisCache {
    accepted: Mutex<AcceptedKeys>,
}

impl AnalysisCache {
    /// An empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// The process-wide memo behind [`crate::compile::compile`]'s
    /// self-check.
    pub(crate) fn global() -> &'static AnalysisCache {
        static GLOBAL: OnceLock<AnalysisCache> = OnceLock::new();
        GLOBAL.get_or_init(AnalysisCache::new)
    }

    fn lock(&self) -> MutexGuard<'_, AcceptedKeys> {
        self.accepted.lock().expect("analysis cache lock poisoned by a panicking analyzer")
    }

    /// Number of distinct accepted (canonical program, reserved rows,
    /// liveness) verdicts memoized.
    pub fn len(&self) -> usize {
        self.lock().values().map(Vec::len).sum()
    }

    /// Whether no verdict has been memoized yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The first error-severity violation of `prog` against `shape`, with
    /// `live` answering whether a physical row currently holds data.
    /// Served from the memo when an equivalent program shape was accepted
    /// before; computed via [`analyze`] otherwise.
    pub fn first_violation(
        &self,
        prog: &Program,
        shape: SubarrayShape,
        live: impl Fn(PhysRow) -> bool,
    ) -> Option<Violation> {
        let prims = prog.primitives();
        let mut stack_canon = [NO_PRIMITIVE; STACK_KEY_PRIMITIVES];
        let mut stack_renamed = [0usize; 2 * STACK_KEY_PRIMITIVES];
        let mut heap_canon = Vec::new();
        let mut heap_renamed = Vec::new();
        let (canon, renamed) = if prims.len() <= STACK_KEY_PRIMITIVES {
            (&mut stack_canon[..prims.len()], &mut stack_renamed[..2 * prims.len()])
        } else {
            heap_canon.resize(prims.len(), NO_PRIMITIVE);
            heap_renamed.resize(2 * prims.len(), 0);
            (&mut heap_canon[..], &mut heap_renamed[..])
        };
        let key = canonicalize(prims, shape, &live, canon, renamed);
        if let Some(flags) = key {
            let memo = self.lock();
            if memo.get(&*canon).is_some_and(|keys| keys.contains(&(shape.dcc_rows, flags))) {
                return None;
            }
        }
        // Analyze outside the lock; two threads racing on the same key do
        // redundant (but identical) work, never a wrong answer. Feeding
        // only the live support rows as live-in is verdict-equivalent to
        // the engine's full live set (see the key-soundness note above).
        let live_in: Vec<PhysRow> = infer_live_in(prog).into_iter().filter(|&r| live(r)).collect();
        let verdict = analyze(prog, shape, &live_in).to_violations().into_iter().next();
        if let (None, Some(flags)) = (&verdict, key) {
            let mut memo = self.lock();
            let keys = memo.entry(Box::from(&*canon)).or_default();
            if !keys.contains(&(shape.dcc_rows, flags)) {
                keys.push((shape.dcc_rows, flags));
            }
        }
        verdict
    }
}

// ---------------------------------------------------------------------------
// The abstract interpreter
// ---------------------------------------------------------------------------

/// Analyzes `prog` against `shape` with `live_in` naming the physical rows
/// assumed to hold data beforehand. Never fails: legality findings come
/// back as [`Diagnostic`]s, and value tracking degrades gracefully past
/// [`MAX_VARS`] live-in variables.
pub fn analyze(prog: &Program, shape: SubarrayShape, live_in: &[PhysRow]) -> AnalysisReport {
    let mut vars: Vec<PhysRow> = Vec::new();
    for &r in live_in {
        if !vars.contains(&r) {
            vars.push(r);
        }
    }
    if vars.len() > MAX_VARS {
        // Restrict variables to the rows the program actually reads live-in;
        // the rest stay opaque (defined, never inspected).
        let support = infer_live_in(prog);
        vars.retain(|r| support.contains(r));
    }
    let tracked = vars.len() <= MAX_VARS;
    if !tracked {
        vars.clear();
    }
    analyze_with_vars(prog, shape, live_in, vars, tracked)
}

fn analyze_with_vars(
    prog: &Program,
    shape: SubarrayShape,
    live_in: &[PhysRow],
    vars: Vec<PhysRow>,
    tracked: bool,
) -> AnalysisReport {
    let mut distinct_live_in: Vec<PhysRow> = Vec::new();
    for &r in live_in {
        if !distinct_live_in.contains(&r) {
            distinct_live_in.push(r);
        }
    }
    let mut az = Analyzer {
        shape,
        tracked,
        rows: BTreeMap::new(),
        regulation: None,
        pending_store: BTreeMap::new(),
        diagnostics: Vec::new(),
    };
    for &r in &distinct_live_in {
        let val = match vars.iter().position(|&v| v == r) {
            Some(j) if tracked => AbstractVal::Expr(TruthTable::var(vars.len(), j)),
            _ => AbstractVal::Opaque,
        };
        az.rows.insert(r, val);
    }
    for (at, p) in prog.primitives().iter().enumerate() {
        az.step(at, p);
    }
    az.finish(prog, &distinct_live_in, vars)
}

struct Analyzer {
    shape: SubarrayShape,
    tracked: bool,
    rows: BTreeMap<PhysRow, AbstractVal>,
    regulation: Option<PendingRegulation>,
    /// Copy-destination writes not yet read (dead-store detection).
    pending_store: BTreeMap<PhysRow, usize>,
    diagnostics: Vec<Diagnostic>,
}

/// How a restore (re)defines a row.
enum WriteKind {
    /// The same value flows back into the row just read (AP/APP restore
    /// phase); a destroyed row is *not* revived — there is no charge left.
    Refresh,
    /// A copy destination: the wordline was raised over a full-rail bitline,
    /// so the row is (re)defined regardless of its prior state.
    Store,
}

impl Analyzer {
    fn diag(&mut self, at: usize, severity: Severity, kind: DiagnosticKind) {
        self.diagnostics.push(Diagnostic { at, severity, kind });
    }

    /// Activation: read `row` through its port, apply the pending
    /// regulation, and return the bitline value (None = untracked).
    fn activate(&mut self, at: usize, row: RowRef) -> Option<TruthTable> {
        let phys: PhysRow = row.into();
        self.pending_store.remove(&phys);
        let state = self.rows.get(&phys).cloned();
        let stored = match state {
            Some(AbstractVal::Expr(t)) => Some(t),
            Some(AbstractVal::Opaque) => None,
            Some(AbstractVal::Destroyed { at: destroyed_at }) => {
                self.diag(
                    at,
                    Severity::Error,
                    DiagnosticKind::ReadOfDestroyedRow { row, destroyed_at },
                );
                None
            }
            Some(AbstractVal::Undefined) | None => {
                self.diag(at, Severity::Error, DiagnosticKind::ReadOfUndefinedRow { row });
                // Mirror `validate`: an undefined read through a restoring
                // primitive defines the row afterwards (no re-report); the
                // value itself stays unknown.
                self.rows.insert(phys, AbstractVal::Opaque);
                None
            }
        };
        // The bar port senses the complement of the cell.
        let stored = match (stored, row) {
            (Some(t), RowRef::DccBar(_)) => Some(t.not()),
            (s, _) => s,
        };
        // Apply (and observe) the pending regulation; it is consumed at the
        // end of the step.
        match (&self.regulation, stored) {
            (None, s) => s,
            (Some(reg), Some(stored)) => {
                let keep = reg.keep.as_ref()?;
                Some(match reg.mode {
                    // Overwriting columns take the surviving full-rail value
                    // (Vdd for OR, Gnd for AND): v = (keep ∧ surviving) ∨
                    // (¬keep ∧ stored).
                    RegulateMode::Or => keep.or(&stored),
                    RegulateMode::And => keep.not().and(&stored),
                })
            }
            (Some(_), None) => None,
        }
    }

    /// Restore phase: the bitline value flows back into `row` through its
    /// port (`Refresh`), or a copy destination latches it (`Store`).
    fn write(&mut self, at: usize, row: RowRef, value: Option<TruthTable>, kind: WriteKind) {
        let phys: PhysRow = row.into();
        if !in_range(self.shape, row) {
            return; // already diagnosed; keep state maps in-shape
        }
        let stored = match (value, row) {
            (Some(t), RowRef::DccBar(_)) => AbstractVal::Expr(t.not()),
            (Some(t), _) => AbstractVal::Expr(t),
            (None, _) => AbstractVal::Opaque,
        };
        match kind {
            WriteKind::Refresh => {
                if !self.rows.get(&phys).is_some_and(AbstractVal::is_destroyed) {
                    self.rows.insert(phys, stored);
                }
            }
            WriteKind::Store => {
                if let Some(&prev_at) = self.pending_store.get(&phys) {
                    self.diag(
                        prev_at,
                        Severity::Warning,
                        DiagnosticKind::DeadStore { row: phys, overwritten_at: at },
                    );
                }
                self.pending_store.insert(phys, at);
                self.rows.insert(phys, stored);
            }
        }
    }

    fn destroy(&mut self, at: usize, row: RowRef) {
        let phys: PhysRow = row.into();
        if in_range(self.shape, row) {
            self.rows.insert(phys, AbstractVal::Destroyed { at });
        }
    }

    fn set_regulation(&mut self, at: usize, mode: RegulateMode, bitline: Option<TruthTable>) {
        let keep = match (bitline, mode) {
            (Some(v), RegulateMode::Or) => Some(v),
            (Some(v), RegulateMode::And) => Some(v.not()),
            (None, _) => None,
        };
        self.regulation = Some(PendingRegulation { mode, keep, at });
    }

    fn step(&mut self, at: usize, p: &Primitive) {
        for row in p.row_iter() {
            if !in_range(self.shape, row) {
                self.diag(at, Severity::Error, DiagnosticKind::RowOutOfRange { row });
            }
        }
        if let (true, Some(b)) = (p.requires_dual_decoder(), p.copy_dst()) {
            let a = p.source();
            if a.is_reserved() == b.is_reserved() {
                self.diag(at, Severity::Error, DiagnosticKind::SameDecoderOverlap { a, b });
            }
        }
        match *p {
            Primitive::Ap { row } => {
                let v = self.activate(at, row);
                self.write(at, row, v, WriteKind::Refresh);
            }
            Primitive::Aap { src, dst } | Primitive::OAap { src, dst } => {
                let v = self.activate(at, src);
                self.write(at, src, v.clone(), WriteKind::Refresh);
                self.write(at, dst, v, WriteKind::Store);
            }
            Primitive::App { row, mode } | Primitive::OApp { row, mode } => {
                let v = self.activate(at, row);
                self.write(at, row, v.clone(), WriteKind::Refresh);
                self.set_regulation(at, mode, v);
            }
            Primitive::TApp { row, mode } | Primitive::OtApp { row, mode } => {
                let v = self.activate(at, row);
                self.destroy(at, row);
                self.set_regulation(at, mode, v);
            }
            Primitive::OAppCopy { src, dst, mode } => {
                let v = self.activate(at, src);
                self.write(at, src, v.clone(), WriteKind::Refresh);
                self.write(at, dst, v.clone(), WriteKind::Store);
                self.set_regulation(at, mode, v);
            }
        }
        // Every activation consumes a pending regulation; only APP-class
        // primitives leave a new one.
        if p.regulation().is_none() {
            self.regulation = None;
        }
    }

    fn finish(mut self, prog: &Program, live_in: &[PhysRow], vars: Vec<PhysRow>) -> AnalysisReport {
        if let Some(at) = self.regulation.as_ref().map(|r| r.at) {
            self.diag(at, Severity::Error, DiagnosticKind::DanglingRegulation);
        }
        let clobbered: Vec<(PhysRow, usize)> = live_in
            .iter()
            .filter_map(|&r| match self.rows.get(&r) {
                Some(AbstractVal::Destroyed { at }) => Some((r, *at)),
                _ => None,
            })
            .collect();
        for (row, at) in clobbered {
            self.diag(at, Severity::Warning, DiagnosticKind::LiveInDestroyed { row });
        }
        self.note_trimmable_restores(prog, live_in);
        AnalysisReport {
            diagnostics: self.diagnostics,
            variables: vars,
            tracked: self.tracked,
            final_rows: self.rows,
            final_regulation: self.regulation.clone(),
        }
    }

    /// Flags APP/oAPP restores that the §4.2 trim pass could truncate: the
    /// restored value is overwritten before any read, or (for rows that are
    /// not live-in, whose final content the caller cannot observe) never
    /// read again at all.
    fn note_trimmable_restores(&mut self, prog: &Program, live_in: &[PhysRow]) {
        let prims = prog.primitives();
        for (at, p) in prims.iter().enumerate() {
            let row = match *p {
                Primitive::App { row, .. } | Primitive::OApp { row, .. } => row,
                _ => continue,
            };
            let phys: PhysRow = row.into();
            let mut read_again = false;
            let mut overwritten = false;
            for later in &prims[at + 1..] {
                if PhysRow::from(later.source()) == phys {
                    read_again = true;
                    break;
                }
                if later.copy_dst().is_some_and(|r| PhysRow::from(r) == phys) {
                    overwritten = true;
                    break;
                }
            }
            if overwritten || (!read_again && !live_in.contains(&phys)) {
                self.diag(at, Severity::Note, DiagnosticKind::TrimmableRestore { row });
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Translation validation
// ---------------------------------------------------------------------------

/// A concrete input assignment witnessing an inequivalence.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Counterexample {
    /// Live-in row values of the witnessing column.
    pub assignment: Vec<(PhysRow, bool)>,
    /// Value the input program computes there.
    pub input_value: bool,
    /// Value the transformed program computes there.
    pub output_value: bool,
}

impl fmt::Display for Counterexample {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("with ")?;
        for (i, (row, v)) in self.assignment.iter().enumerate() {
            if i > 0 {
                f.write_str(", ")?;
            }
            write!(f, "{row}={}", u8::from(*v))?;
        }
        write!(
            f,
            ": input computes {}, output computes {}",
            u8::from(self.input_value),
            u8::from(self.output_value)
        )
    }
}

/// Why [`verify_transform`] rejected a transformation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EquivalenceError {
    /// The input program is itself statically invalid; the equivalence
    /// obligation is vacuous and nothing was proved.
    InputInvalid {
        /// First error-severity finding on the input.
        diagnostic: Diagnostic,
    },
    /// The transformed program is statically invalid — a definite
    /// miscompile (e.g. a trim destroyed a row the program still reads).
    OutputInvalid {
        /// First error-severity finding on the output.
        diagnostic: Diagnostic,
    },
    /// More live-in rows than [`MAX_VARS`]; exhaustive equivalence needs
    /// `2^k` assignments and was not attempted.
    TooManyLiveIns {
        /// Live-in variable count.
        count: usize,
    },
    /// A row's final abstract state changed class (defined / destroyed /
    /// undefined).
    StateMismatch {
        /// The disagreeing row.
        row: PhysRow,
        /// Input-side state class.
        input: &'static str,
        /// Output-side state class.
        output: &'static str,
    },
    /// A row's final value differs for at least one input assignment.
    ValueMismatch {
        /// The disagreeing row.
        row: PhysRow,
        /// A concrete witnessing assignment.
        counterexample: Counterexample,
    },
    /// The pending end-of-program regulation transfers differ.
    RegulationMismatch {
        /// Input-side description.
        input: String,
        /// Output-side description.
        output: String,
    },
}

impl fmt::Display for EquivalenceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EquivalenceError::InputInvalid { diagnostic } => {
                write!(f, "input program is statically invalid: {diagnostic}")
            }
            EquivalenceError::OutputInvalid { diagnostic } => {
                write!(f, "transformed program is statically invalid: {diagnostic}")
            }
            EquivalenceError::TooManyLiveIns { count } => {
                write!(f, "{count} live-in rows exceed the {MAX_VARS}-variable exhaustive budget")
            }
            EquivalenceError::StateMismatch { row, input, output } => {
                write!(f, "row {row} ends {input} in the input but {output} in the output")
            }
            EquivalenceError::ValueMismatch { row, counterexample } => {
                write!(f, "output disagrees on row {row}: {counterexample}")
            }
            EquivalenceError::RegulationMismatch { input, output } => {
                write!(f, "pending regulation differs: input {input}, output {output}")
            }
        }
    }
}

impl Error for EquivalenceError {}

fn describe_regulation(reg: &Option<PendingRegulation>) -> String {
    match reg {
        None => "leaves none".to_string(),
        Some(r) => format!("leaves a {:?}-mode regulation from #{}", r.mode, r.at),
    }
}

fn assignment_of(vars: &[PhysRow], m: usize) -> Vec<(PhysRow, bool)> {
    vars.iter().enumerate().map(|(j, &r)| (r, (m >> j) & 1 == 1)).collect()
}

/// Proves `output` semantically equivalent to `input` by exhaustive
/// truth-table comparison over the input's live-in rows.
///
/// Both programs are abstractly interpreted with every live-in row as a
/// truth-table variable (operands are per-column booleans, so `2^k`
/// assignments cover all inputs exactly). The final states must agree on
/// `observable` rows — or, when `None`, on every row either program touches
/// plus the live-ins — and the pending end-of-program regulation transfer
/// must match.
///
/// # Errors
///
/// See [`EquivalenceError`]; `ValueMismatch` carries a concrete
/// counterexample assignment.
pub fn verify_transform(
    input: &Program,
    output: &Program,
    observable: Option<&[PhysRow]>,
) -> Result<(), EquivalenceError> {
    let live_in = infer_live_in(input);
    if live_in.len() > MAX_VARS {
        return Err(EquivalenceError::TooManyLiveIns { count: live_in.len() });
    }
    let shape_in = infer_shape(input);
    let shape_out = infer_shape(output);
    let shape = SubarrayShape {
        data_rows: shape_in.data_rows.max(shape_out.data_rows),
        dcc_rows: shape_in.dcc_rows.max(shape_out.dcc_rows),
    };
    let ri = analyze_with_vars(input, shape, &live_in, live_in.clone(), true);
    if let Some(d) = ri.diagnostics.iter().find(|d| d.severity == Severity::Error) {
        return Err(EquivalenceError::InputInvalid { diagnostic: d.clone() });
    }
    let ro = analyze_with_vars(output, shape, &live_in, live_in.clone(), true);
    if let Some(d) = ro.diagnostics.iter().find(|d| d.severity == Severity::Error) {
        return Err(EquivalenceError::OutputInvalid { diagnostic: d.clone() });
    }

    let rows: Vec<PhysRow> = match observable {
        Some(rows) => rows.to_vec(),
        None => {
            let mut rows: Vec<PhysRow> = ri.final_rows.keys().copied().collect();
            for r in ro.final_rows.keys() {
                if !rows.contains(r) {
                    rows.push(*r);
                }
            }
            rows
        }
    };
    for row in rows {
        let a = ri.final_row(row);
        let b = ro.final_row(row);
        match (&a, &b) {
            (AbstractVal::Expr(ta), AbstractVal::Expr(tb)) => {
                if let Some(m) = ta.first_difference(tb) {
                    return Err(EquivalenceError::ValueMismatch {
                        row,
                        counterexample: Counterexample {
                            assignment: assignment_of(&live_in, m),
                            input_value: ta.eval(m),
                            output_value: tb.eval(m),
                        },
                    });
                }
            }
            (AbstractVal::Destroyed { .. }, AbstractVal::Destroyed { .. })
            | (AbstractVal::Undefined, AbstractVal::Undefined)
            | (AbstractVal::Opaque, AbstractVal::Opaque) => {}
            _ => {
                return Err(EquivalenceError::StateMismatch {
                    row,
                    input: a.kind_name(),
                    output: b.kind_name(),
                });
            }
        }
    }

    let ca = ri.final_regulation.as_ref().and_then(PendingRegulation::canonical);
    let cb = ro.final_regulation.as_ref().and_then(PendingRegulation::canonical);
    let identity = |c: &Option<(TruthTable, TruthTable)>| match c {
        None => true,
        Some((or, and)) => {
            let vars = or.vars();
            *or == TruthTable::constant(vars, false) && *and == TruthTable::constant(vars, true)
        }
    };
    if ca != cb && !(identity(&ca) && identity(&cb)) {
        return Err(EquivalenceError::RegulationMismatch {
            input: describe_regulation(&ri.final_regulation),
            output: describe_regulation(&ro.final_regulation),
        });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile::{compile, xor_sequence, CompileMode, LogicOp, Operands};

    const SHAPE: SubarrayShape = SubarrayShape { data_rows: 16, dcc_rows: 2 };

    fn live_in() -> Vec<PhysRow> {
        vec![PhysRow::Data(0), PhysRow::Data(1), PhysRow::Data(2), PhysRow::Data(3)]
    }

    fn errors(report: &AnalysisReport) -> Vec<&Diagnostic> {
        report.diagnostics().iter().filter(|d| d.severity == Severity::Error).collect()
    }

    #[test]
    fn truth_table_ops_are_exact() {
        for vars in [0usize, 1, 3, 7] {
            let t = TruthTable::constant(vars, true);
            let f = TruthTable::constant(vars, false);
            assert_eq!(t.not(), f);
            for j in 0..vars {
                let v = TruthTable::var(vars, j);
                assert_eq!(v.and(&t), v);
                assert_eq!(v.or(&f), v);
                assert_eq!(v.not().not(), v);
                for m in 0..(1usize << vars) {
                    assert_eq!(v.eval(m), (m >> j) & 1 == 1);
                }
            }
        }
        // De Morgan over two variables, checked pointwise.
        let a = TruthTable::var(2, 0);
        let b = TruthTable::var(2, 1);
        assert_eq!(a.and(&b).not(), a.not().or(&b.not()));
        assert_eq!(a.first_difference(&b), Some(1));
    }

    /// The analyzer's final expressions match software boolean logic for
    /// every compiled operation — def-use soundness *and* value soundness.
    #[test]
    fn compiled_programs_yield_exact_truth_tables() {
        let rows = Operands::standard();
        let inputs = vec![PhysRow::Data(0), PhysRow::Data(1)];
        for op in LogicOp::ALL {
            for mode in [CompileMode::LowLatency, CompileMode::HighThroughput] {
                let prog = compile(op, mode, rows, 2).unwrap();
                let report = analyze(&prog, SHAPE, &inputs);
                assert!(report.is_accepted(), "{op} {mode:?}: {:?}", errors(&report));
                let dst = report.row_value(PhysRow::Data(2)).expect("dst defined");
                for m in 0..4usize {
                    let (a, b) = (m & 1 == 1, m >> 1 & 1 == 1);
                    assert_eq!(dst.eval(m), op.eval(a, b), "{op} {mode:?} at a={a} b={b}");
                }
            }
        }
    }

    #[test]
    fn diagnostic_texts_match_the_violation_set() {
        let cases: Vec<(Program, Vec<PhysRow>, &str)> = vec![
            (
                Program::new("oor", vec![Primitive::Ap { row: RowRef::Data(99) }]),
                vec![PhysRow::Data(99)],
                "primitive #0: row r99 out of range",
            ),
            (
                Program::new(
                    "overlap",
                    vec![Primitive::OAap { src: RowRef::Data(0), dst: RowRef::Data(1) }],
                ),
                live_in(),
                "primitive #0: overlapped activation of r0 and r1 in one decoder domain",
            ),
            (
                Program::new(
                    "destroyed",
                    vec![
                        Primitive::TApp { row: RowRef::Data(0), mode: RegulateMode::Or },
                        Primitive::Ap { row: RowRef::Data(1) },
                        Primitive::Ap { row: RowRef::Data(0) },
                    ],
                ),
                live_in(),
                "primitive #2: reads r0, destroyed by the trimmed restore at #0",
            ),
            (
                Program::new("undefined", vec![Primitive::Ap { row: RowRef::Data(7) }]),
                live_in(),
                "primitive #0: reads r7, which is neither live-in nor written",
            ),
            (
                Program::new(
                    "dangling",
                    vec![Primitive::App { row: RowRef::Data(0), mode: RegulateMode::Or }],
                ),
                live_in(),
                "program ends with the regulation from primitive #0 still pending",
            ),
        ];
        for (prog, live, text) in cases {
            let report = analyze(&prog, SHAPE, &live);
            let errs = errors(&report);
            assert!(!errs.is_empty(), "{}: expected an error", prog.name());
            assert_eq!(errs[0].to_string(), text, "{}", prog.name());
            assert!(!report.is_accepted());
        }
    }

    #[test]
    fn dead_store_warning() {
        let prog = Program::new(
            "dead-store",
            vec![
                Primitive::Aap { src: RowRef::Data(0), dst: RowRef::Data(2) },
                Primitive::Aap { src: RowRef::Data(1), dst: RowRef::Data(2) },
                Primitive::Ap { row: RowRef::Data(2) },
            ],
        );
        let report = analyze(&prog, SHAPE, &live_in());
        assert!(report.is_accepted());
        let warn = report
            .diagnostics()
            .iter()
            .find(|d| d.severity == Severity::Warning)
            .expect("a dead-store warning");
        assert_eq!(
            warn.to_string(),
            "primitive #0: stores r2, overwritten at #1 without an intervening read (dead store)"
        );
        assert_eq!(warn.kind.slug(), "dead-store");
    }

    #[test]
    fn live_in_destroyed_warning() {
        let prog = Program::new(
            "clobber",
            vec![
                Primitive::TApp { row: RowRef::Data(0), mode: RegulateMode::Or },
                Primitive::Ap { row: RowRef::Data(1) },
            ],
        );
        let report = analyze(&prog, SHAPE, &live_in());
        assert!(report.is_accepted());
        let warn = report
            .diagnostics()
            .iter()
            .find(|d| matches!(d.kind, DiagnosticKind::LiveInDestroyed { .. }))
            .expect("a clobbered-operand warning");
        assert_eq!(
            warn.to_string(),
            "live-in row r0 is destroyed at #0 and never rewritten (clobbered operand)"
        );
    }

    /// The lint rediscovers Fig. 8's sequence 2 → 3 trim: seq2's
    /// `APP(!R0)·or` restores a value nothing reads again.
    #[test]
    fn trimmable_restore_note_rediscovers_fig8_trim() {
        let prog = xor_sequence(2, Operands::standard(), 1).unwrap();
        let report = analyze(&prog, SHAPE, &[PhysRow::Data(0), PhysRow::Data(1)]);
        assert!(report.is_accepted());
        let notes: Vec<_> = report
            .diagnostics()
            .iter()
            .filter(|d| matches!(d.kind, DiagnosticKind::TrimmableRestore { .. }))
            .collect();
        assert_eq!(notes.len(), 1, "{notes:?}");
        assert_eq!(
            notes[0].to_string(),
            "primitive #5: restore of !R0 is dead; tAPP/otAPP would save the restore"
        );
        // …and seq3 (the trimmed form) carries no such note.
        let seq3 = xor_sequence(3, Operands::standard(), 1).unwrap();
        let report = analyze(&seq3, SHAPE, &[PhysRow::Data(0), PhysRow::Data(1)]);
        assert!(report
            .diagnostics()
            .iter()
            .all(|d| !matches!(d.kind, DiagnosticKind::TrimmableRestore { .. })));
    }

    #[test]
    fn value_tracking_degrades_gracefully_past_the_var_budget() {
        let prog =
            compile(LogicOp::And, CompileMode::HighThroughput, Operands::standard(), 1).unwrap();
        // 600 live-in rows, but the program reads only r0/r1: still tracked.
        let many: Vec<PhysRow> = (0..600).map(PhysRow::Data).collect();
        let report = analyze(&prog, SubarrayShape { data_rows: 600, dcc_rows: 2 }, &many);
        assert!(report.is_accepted());
        assert!(report.tracked());
        assert_eq!(report.variables().len(), 2);
        assert!(report.row_value(PhysRow::Data(2)).is_some());
        // A program reading 17 distinct live-in rows drops value tracking
        // but keeps the legality verdict.
        let wide = Program::new(
            "wide",
            (0..17).map(|i| Primitive::Ap { row: RowRef::Data(i) }).collect::<Vec<_>>(),
        );
        let wide_live: Vec<PhysRow> = (0..17).map(PhysRow::Data).collect();
        let report = analyze(&wide, SubarrayShape { data_rows: 32, dcc_rows: 2 }, &wide_live);
        assert!(report.is_accepted());
        assert!(!report.tracked());
        assert!(report.row_value(PhysRow::Data(0)).is_none());
    }

    #[test]
    fn verify_transform_accepts_the_fig8_ladder() {
        let rows = Operands::standard();
        // seq2 → seq3 is exactly a trim of primitive #5; operands preserved.
        let seq2 = xor_sequence(2, rows, 1).unwrap();
        let seq3 = xor_sequence(3, rows, 1).unwrap();
        let preserve = [PhysRow::Data(0), PhysRow::Data(1), PhysRow::Data(2)];
        verify_transform(&seq2, &seq3, Some(&preserve)).unwrap();
        // seq4 → seq5 is the overlap substitution; all rows observable.
        let seq4 = xor_sequence(4, rows, 1).unwrap();
        let seq5 = xor_sequence(5, rows, 1).unwrap();
        verify_transform(&seq4, &seq5, None).unwrap();
    }

    #[test]
    fn verify_transform_rejects_a_dropped_restore() {
        let input = Program::new(
            "in",
            vec![
                Primitive::App { row: RowRef::Data(0), mode: RegulateMode::Or },
                Primitive::Ap { row: RowRef::Data(1) },
            ],
        );
        let mutated = Program::new(
            "out",
            vec![
                Primitive::TApp { row: RowRef::Data(0), mode: RegulateMode::Or },
                Primitive::Ap { row: RowRef::Data(1) },
            ],
        );
        let err = verify_transform(&input, &mutated, None).unwrap_err();
        assert_eq!(
            err,
            EquivalenceError::StateMismatch {
                row: PhysRow::Data(0),
                input: "defined",
                output: "destroyed"
            },
            "{err}"
        );
    }

    #[test]
    fn verify_transform_rejects_swapped_operands_with_a_counterexample() {
        // dst := a & !b (first half of XOR seq) vs the operand-swapped
        // dst := b & !a — differ at a=1, b=0.
        let half = |x: RowRef, y: RowRef| {
            Program::new(
                "half",
                vec![
                    Primitive::OAap { src: y, dst: RowRef::DccTrue(0) },
                    Primitive::App { row: x, mode: RegulateMode::And },
                    Primitive::OAap { src: RowRef::DccBar(0), dst: RowRef::Data(2) },
                ],
            )
        };
        let input = half(RowRef::Data(0), RowRef::Data(1));
        let mutated = half(RowRef::Data(1), RowRef::Data(0));
        match verify_transform(&input, &mutated, None).unwrap_err() {
            EquivalenceError::ValueMismatch { row, counterexample } => {
                assert_eq!(row, PhysRow::Data(2));
                let rendered = counterexample.to_string();
                assert!(rendered.contains("input computes"), "{rendered}");
                // The witness must actually distinguish the two programs.
                assert_ne!(counterexample.input_value, counterexample.output_value);
            }
            other => panic!("expected a value mismatch, got {other}"),
        }
    }

    #[test]
    fn verify_transform_rejects_an_illegally_merged_ap() {
        // AP(R0-true) between two regulations is NOT removable: it applies
        // the pending OR into the cell before the bar port is read.
        let input = Program::new(
            "in",
            vec![
                Primitive::OAap { src: RowRef::Data(1), dst: RowRef::DccTrue(0) },
                Primitive::App { row: RowRef::Data(0), mode: RegulateMode::Or },
                Primitive::Ap { row: RowRef::DccTrue(0) },
                Primitive::App { row: RowRef::DccBar(0), mode: RegulateMode::And },
                Primitive::Ap { row: RowRef::Data(2) },
            ],
        );
        let mutated = Program::new(
            "out",
            vec![
                Primitive::OAap { src: RowRef::Data(1), dst: RowRef::DccTrue(0) },
                Primitive::App { row: RowRef::Data(0), mode: RegulateMode::Or },
                Primitive::App { row: RowRef::DccBar(0), mode: RegulateMode::And },
                Primitive::Ap { row: RowRef::Data(2) },
            ],
        );
        let err = verify_transform(&input, &mutated, None).unwrap_err();
        assert!(
            matches!(err, EquivalenceError::ValueMismatch { .. }),
            "expected a value mismatch, got {err}"
        );
    }

    #[test]
    fn verify_transform_flags_invalid_programs() {
        let bad = Program::new("bad", vec![Primitive::Ap { row: RowRef::Data(0) }]);
        let bad2 = Program::new(
            "bad2",
            vec![
                Primitive::Aap { src: RowRef::Data(0), dst: RowRef::Data(1) },
                Primitive::Ap { row: RowRef::Data(9) },
            ],
        );
        // `bad` reads r0 live-in, fine; `bad2` additionally reads r9 which
        // is NOT live-in of `bad` — output invalid.
        assert!(matches!(
            verify_transform(&bad, &bad2, None),
            Err(EquivalenceError::OutputInvalid { .. })
        ));
        // A program whose own input dangles a regulation is vacuous.
        let dangling = Program::new(
            "dangling",
            vec![Primitive::App { row: RowRef::Data(0), mode: RegulateMode::Or }],
        );
        assert!(matches!(
            verify_transform(&dangling, &dangling, None),
            Err(EquivalenceError::InputInvalid { .. })
        ));
    }

    #[test]
    fn infer_helpers() {
        let prog = Program::new(
            "p",
            vec![
                Primitive::OAap { src: RowRef::Data(3), dst: RowRef::DccTrue(1) },
                Primitive::Ap { row: RowRef::DccBar(1) },
                Primitive::Ap { row: RowRef::Data(3) },
            ],
        );
        assert_eq!(infer_live_in(&prog), vec![PhysRow::Data(3)]);
        assert_eq!(infer_shape(&prog), SubarrayShape { data_rows: 4, dcc_rows: 2 });
    }

    #[test]
    fn report_accessors() {
        let prog = Program::new(
            "copy",
            vec![Primitive::Aap { src: RowRef::Data(0), dst: RowRef::Data(2) }],
        );
        let report = analyze(&prog, SHAPE, &[PhysRow::Data(0)]);
        assert!(report.is_accepted());
        assert!(!report.has_pending_regulation());
        assert_eq!(report.variables(), &[PhysRow::Data(0)]);
        assert_eq!(report.final_row(PhysRow::Data(2)), report.final_row(PhysRow::Data(0)));
        assert_eq!(report.final_row(PhysRow::Data(5)), AbstractVal::Undefined);
        assert!(report.to_violations().is_empty());
    }

    /// Pins the cache-key soundness audit: the verdict key includes the
    /// liveness of every support row, so the same (program, shape) probed
    /// under different live-in sets yields *different* verdicts — a key on
    /// (program, shape) alone would serve the memoized acceptance to the
    /// dead probe. Rejections are never memoized.
    #[test]
    fn cache_key_includes_live_in_flags() {
        let cache = AnalysisCache::new();
        let prog = Program::new("read-r0", vec![Primitive::Ap { row: RowRef::Data(0) }]);
        let live = cache.first_violation(&prog, SHAPE, |r| r == PhysRow::Data(0));
        assert_eq!(live, None);
        assert_eq!(cache.len(), 1, "an accepted verdict is memoized");
        let dead = cache.first_violation(&prog, SHAPE, |_| false);
        assert!(
            matches!(dead, Some(Violation::ReadOfUndefinedRow { row: RowRef::Data(0), .. })),
            "{dead:?}"
        );
        assert_eq!(cache.len(), 1, "a rejection is not memoized");
        // Repeat probes keep the verdicts split and add no entries.
        assert!(cache.first_violation(&prog, SHAPE, |_| false).is_some());
        assert!(cache.first_violation(&prog, SHAPE, |r| r == PhysRow::Data(0)).is_none());
        assert_eq!(cache.len(), 1);
        // Liveness of rows outside the support set cannot split the key:
        // r1 is never read before written, so its liveness is irrelevant.
        let copy = Program::new(
            "copy",
            vec![Primitive::Aap { src: RowRef::Data(0), dst: RowRef::Data(1) }],
        );
        assert_eq!(copy.primitives().len(), 1);
        let before = cache.len();
        assert!(cache.first_violation(&copy, SHAPE, |r| r == PhysRow::Data(0)).is_none());
        assert!(cache
            .first_violation(&copy, SHAPE, |r| { r == PhysRow::Data(0) || r == PhysRow::Data(1) })
            .is_none());
        assert_eq!(cache.len(), before + 1, "non-support liveness must not split the key");
    }

    /// The memo keys programs up to an injective renaming of data rows:
    /// a thousand renamed copies of one program share one entry, while a
    /// rejected copy is still analyzed concretely and names its real rows.
    #[test]
    fn renamed_copies_share_one_entry() {
        let cache = AnalysisCache::new();
        let shape = SubarrayShape { data_rows: 4096, dcc_rows: 1 };
        let and = |a: usize, b: usize, dst: usize| {
            let rows = crate::compile::Operands { a, b, dst, scratch: None };
            crate::compile::compile(
                crate::compile::LogicOp::And,
                crate::compile::CompileMode::LowLatency,
                rows,
                1,
            )
            .unwrap()
        };
        for i in 0..1000 {
            let (a, b) = (3 * i, 3 * i + 1);
            let prog = and(a, b, 3 * i + 2);
            let live = |r: PhysRow| r == PhysRow::Data(a) || r == PhysRow::Data(b);
            assert_eq!(cache.first_violation(&prog, shape, live), None);
        }
        assert_eq!(cache.len(), 1, "renamings of one program must share one entry");
        let dead_b = cache.first_violation(&and(7, 9, 11), shape, |r| r == PhysRow::Data(7));
        assert!(
            matches!(dead_b, Some(Violation::ReadOfUndefinedRow { row: RowRef::Data(9), .. })),
            "{dead_b:?}"
        );
        // Out-of-range rows bypass the memo and report the concrete row.
        let far = cache.first_violation(&and(0, 1, 5000), shape, |_| true);
        assert!(
            matches!(far, Some(Violation::RowOutOfRange { row: RowRef::Data(5000), .. })),
            "{far:?}"
        );
        assert_eq!(cache.len(), 1);
    }
}
