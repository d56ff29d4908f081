//! The bulk bitwise device: bank-parallel batch execution over a
//! channel/rank/bank topology, from a single subarray
//! ([`BatchConfig::subarray`]) up.
//!
//! [`DeviceArray`] shards bulk bitwise operations across every bank of its
//! [`Topology`] so their primitive streams overlap on the ranks. Its
//! design:
//!
//! * **Placement is channel-major.** A vector's row-sized stripes walk
//!   the topology's parallelism hierarchy most-independent-level first:
//!   stripe `i` lands on channel `i % channels` (channels share nothing),
//!   then rank (`(i / channels) % ranks` — own pump window, shared bus),
//!   then bank, then subarray — so a wide operand engages *every* channel
//!   before it reuses one, every rank before reusing a rank, and so on.
//!   On the single-module [`Topology`] this reduces exactly to the
//!   original bank-major striping (§6.2 of the paper evaluates that
//!   configuration: a bulk operand spread over all eight banks of a
//!   DDR3-1600 module).
//! * **Scheduling is batch-at-once.** Each operation hands the complete
//!   per-bank command streams, keyed by [`TopoPath`], to the stateless
//!   [`HierarchicalScheduler`],
//!   which reports the true wall-clock [`makespan`](RunStats::makespan)
//!   and [`pump_stall`](RunStats::pump_stall) under per-rank charge-pump
//!   windows and per-channel buses, alongside the serial
//!   [`busy_time`](RunStats::busy_time) — plus the exact bus trace for
//!   inspection.
//! * **Functional simulation is host-parallel when it pays.** Banks are
//!   architecturally independent, so an op's units split into contiguous
//!   chunks that run on their
//!   [`SubarrayEngine`](crate::engine::SubarrayEngine)s concurrently: the
//!   calling thread takes the first chunk and [`std::thread::scope`]
//!   threads the rest. The number of chunks is bounded by the host's
//!   threads, the busy units, and the op's total word-work divided by
//!   what one spawned thread must carry to repay its spawn; most ops get
//!   one chunk and run serially on the calling thread. Results merge
//!   deterministically in unit order, so outputs are bit-identical to a
//!   serial run whatever the fan-out.
//! * **Striping is word-level and zero-copy.** `store`/`load` move whole
//!   64-bit word runs between host vectors and the engines' row arenas
//!   ([`write_row_from`](crate::engine::SubarrayEngine::write_row_from)/
//!   [`read_row_into`](crate::engine::SubarrayEngine::read_row_into)).
//! * **A warm op allocates a fixed amount, nothing per stripe.** Each
//!   program's static verdict comes from a canonical verdict memo
//!   ([`AnalysisCache`]) that keys a program up to a renaming of its data
//!   rows, so a program shape is analyzed once, not once per stripe, op
//!   or compilation, and a hit allocates nothing. A program's command
//!   profiles are computed once per op, and the per-unit work lists and
//!   command streams live in buffers the array reuses across ops. What
//!   remains per op is the compiled program and the schedule and entry it
//!   returns: 13 allocations for an AND + release on the default module,
//!   at 2 stripes or 8.
//! * **Expressions evaluate gate at a time.** [`DeviceArray::eval_expr`]
//!   runs each distinct gate of an [`Expr`] as one batch operation and
//!   adds the operations' makespans, since each gate waits for its
//!   operands.

use crate::analysis::AnalysisCache;
use crate::bitvec::{set_bits, BitVec};
use crate::compile::{compile, CompileMode, LogicOp, Operands};
use crate::error::CoreError;
use crate::expr::Expr;
use crate::faulty::{ColumnFaultModel, FaultPolicy, FaultyEngine};
use crate::isa::Program;
use crate::optimizer::PhysRow;
use crate::planlint::{BatchPlan, PlanStep};
use crate::primitive::RowRef;
use crate::rowmap::RowAllocator;
use crate::validate::SubarrayShape;
use elp2im_dram::command::CommandProfile;
use elp2im_dram::constraint::PumpBudget;
use elp2im_dram::geometry::{Geometry, TopoPath, Topology};
use elp2im_dram::hierarchy::HierarchicalScheduler;
use elp2im_dram::interleave::Schedule;
use elp2im_dram::stats::RunStats;
use elp2im_dram::telemetry::{MetricsRegistry, TraceSink};
use elp2im_dram::timing::Ddr3Timing;
use std::collections::HashMap;
use std::sync::{Arc, OnceLock};

/// One unit's programs to execute: `(subarray, program)` pairs in plan
/// order.
type UnitPrograms = Vec<(usize, Arc<Program>)>;

/// Batch-layer configuration.
#[derive(Debug, Clone)]
pub struct BatchConfig {
    /// Channel/rank/bank topology (with the per-rank bank/subarray/row
    /// geometry inside it).
    pub topology: Topology,
    /// Reserved dual-contact rows per subarray.
    pub reserved_rows: usize,
    /// Compilation strategy.
    pub mode: CompileMode,
    /// Charge-pump budget enforced per rank by the scheduler.
    pub budget: PumpBudget,
}

impl Default for BatchConfig {
    fn default() -> Self {
        BatchConfig {
            topology: Topology::module(Geometry::ddr3_module()),
            reserved_rows: 1,
            mode: CompileMode::LowLatency,
            budget: PumpBudget::jedec_ddr3_1600(),
        }
    }
}

impl BatchConfig {
    /// The default single-module configuration shrunk to `banks` banks
    /// (same per-bank shape), for serial-vs-parallel comparisons.
    pub fn with_banks(banks: usize) -> Self {
        let mut c = BatchConfig::default();
        c.topology.geometry.banks = banks;
        c
    }

    /// One subarray of `rows` data rows of `row_bytes` each: a single
    /// channel, rank, bank and subarray, everything else default. The
    /// array then behaves as one ELP2IM subarray (makespan = busy time);
    /// vectors wider than a row still stripe, over further rows of it.
    pub fn subarray(row_bytes: usize, rows: usize) -> Self {
        BatchConfig {
            topology: Topology::module(Geometry {
                banks: 1,
                subarrays_per_bank: 1,
                rows_per_subarray: rows,
                row_bytes,
            }),
            ..BatchConfig::default()
        }
    }

    /// The default configuration scaled out to `channels` ×
    /// `ranks_per_channel` DDR3 ranks (8 banks each).
    pub fn with_topology(channels: usize, ranks_per_channel: usize) -> Self {
        BatchConfig {
            topology: Topology::new(channels, ranks_per_channel, Geometry::ddr3_module()),
            ..BatchConfig::default()
        }
    }

    /// The per-rank geometry.
    pub fn geometry(&self) -> &Geometry {
        &self.topology.geometry
    }
}

/// Handle to a vector striped across the array: a slot of the array's
/// handle table plus that slot's generation, so a handle stays dead after
/// its vector is released even once the slot holds a new vector.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct BatchHandle {
    slot: usize,
    generation: u32,
}

/// Location of one row-sized stripe of a stored vector.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Stripe {
    /// Flat unit index of the bank holding the stripe
    /// (per [`Topology::flat_index`]; equal to the plain bank index on a
    /// single-module topology).
    pub bank: usize,
    /// Subarray within the bank.
    pub subarray: usize,
    /// Data-row index within the subarray.
    pub row: usize,
}

#[derive(Debug, Clone)]
struct BatchEntry {
    len: usize,
    stripes: Vec<Stripe>,
}

impl BatchEntry {
    /// Shared bit addressing: the stripe holding logical `bit` and the
    /// column within it. Every per-bit accessor (element reads, fault
    /// injection) goes through this one bounds-checked mapping.
    fn locate(&self, bit: usize, row_bits: usize) -> Result<(Stripe, usize), CoreError> {
        if bit >= self.len {
            return Err(CoreError::BitOutOfRange { bit, len: self.len });
        }
        Ok((self.stripes[bit / row_bits], bit % row_bits))
    }
}

/// What [`DeviceArray`] records for the plan-level verifier as it prepares
/// an op, cheap enough to take on every op although release builds never
/// read it: the plan's steps (`Arc` bumps) plus one packed live-in bitset
/// per touched (unit, subarray). [`PlanRecord::plan`] builds the
/// [`BatchPlan`] from them on first read.
#[derive(Debug, Default)]
struct PlanRecord {
    steps: Vec<PlanStep>,
    /// Touched `(unit, subarray)` pairs, sorted; the `i`-th owns the `i`-th
    /// run of `live_words` (layout of
    /// [`SubarrayEngine::pack_live_rows`](crate::engine::SubarrayEngine::pack_live_rows)).
    touched: Vec<(usize, usize)>,
    live_words: Vec<u64>,
    plan: OnceLock<BatchPlan>,
}

impl PlanRecord {
    /// Empties the record for a new op, keeping its buffers.
    fn clear(&mut self) {
        self.steps.clear();
        self.touched.clear();
        self.live_words.clear();
        self.plan = OnceLock::new();
    }

    /// The recorded plan over `config`'s topology, budget and subarray
    /// shape with `timing` (DDR3-1600 when `None`), built on first call.
    fn plan(&self, config: &BatchConfig, timing: Option<&Ddr3Timing>) -> &BatchPlan {
        self.plan.get_or_init(|| {
            let shape = SubarrayShape {
                data_rows: config.geometry().rows_per_subarray,
                dcc_rows: config.reserved_rows,
            };
            let mut plan = BatchPlan::new(config.topology.clone(), config.budget.clone(), shape);
            if let Some(timing) = timing {
                plan.timing = timing.clone();
            }
            plan.steps = self.steps.clone();
            let words = (shape.data_rows + shape.dcc_rows).div_ceil(64);
            for (i, &key) in self.touched.iter().enumerate() {
                let rows = set_bits(&self.live_words[i * words..][..words])
                    .map(|bit| match bit.checked_sub(shape.data_rows) {
                        Some(dcc) => PhysRow::Dcc(dcc),
                        None => PhysRow::Data(bit),
                    })
                    .collect();
                plan.live_in.insert(key, rows);
            }
            plan
        })
    }
}

/// The buffers an operation is prepared into, kept by [`DeviceArray`]
/// across operations so that a warm op allocates nothing per stripe or per
/// busy unit.
#[derive(Debug, Default)]
struct OpBuffers {
    /// The operand stripes: `a`'s stripe and `b`'s row on it (`a`'s own
    /// row for NOT).
    operands: Vec<(Stripe, usize)>,
    /// Per flat unit, the programs it executes.
    work: Vec<UnitPrograms>,
    /// Per busy unit, in path order, its path and command stream. Only the
    /// first `busy` entries belong to the current op; the rest keep their
    /// capacity for later ones.
    streams: Vec<(TopoPath, Vec<CommandProfile>)>,
    busy: usize,
    /// The command profiles of the op's most recently compiled program.
    profiles: Vec<CommandProfile>,
}

impl OpBuffers {
    /// The current op's command streams, path-sorted with one entry per
    /// busy unit.
    fn streams(&self) -> &[(TopoPath, Vec<CommandProfile>)] {
        &self.streams[..self.busy]
    }
}

/// One bank: its subarray engines (fault-injection capable; a clean bank
/// is a pass-through wrapper over its [`SubarrayEngine`]s) and row
/// allocators.
#[derive(Debug)]
struct BankUnit {
    engines: Vec<FaultyEngine>,
    allocs: Vec<RowAllocator>,
}

/// The outcome of a fault-aware checked operation
/// ([`DeviceArray::binary_checked`]).
#[derive(Debug, Clone)]
pub struct CheckedRun {
    /// Handle of the delivered result.
    pub handle: BatchHandle,
    /// Schedule of the final (delivered) run; recompute and retry costs
    /// accrue in [`DeviceArray::stats`].
    pub run: BatchRun,
    /// Verify rounds spent (1 = first try agreed, or verification was
    /// skipped).
    pub attempts: u32,
    /// Whether the delivered result was confirmed by an agreeing
    /// recompute. `false` means verification was skipped (no at-risk bank,
    /// or disabled by policy) or retries were exhausted.
    pub verified: bool,
}

/// The outcome of one batch operation: scheduling plus placement info.
#[derive(Debug, Clone)]
pub struct BatchRun {
    /// Exact interleaved schedule of the operation's command streams.
    pub schedule: Schedule,
    /// Banks (across every channel and rank) that carried at least one
    /// stripe of this operation.
    pub banks_used: usize,
    /// Channels that carried at least one stripe of this operation.
    pub channels_used: usize,
}

impl BatchRun {
    /// Aggregate statistics: `busy_time` is the serial sum, `makespan`
    /// the scheduled wall clock, `pump_stall` the summed deferrals.
    pub fn stats(&self) -> &RunStats {
        &self.schedule.stats
    }
}

/// The bulk bitwise device: a bank-parallel batch execution engine over
/// a topology of any size, down to one subarray.
///
/// ```
/// use elp2im_core::batch::{BatchConfig, DeviceArray};
/// use elp2im_core::bitvec::BitVec;
/// use elp2im_core::compile::LogicOp;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut array = DeviceArray::new(BatchConfig::default());
/// // One stripe per bank: the whole module works on one bulk AND.
/// let bits = array.row_bits() * array.banks();
/// let a = array.store(&BitVec::ones(bits))?;
/// let b = array.store(&BitVec::zeros(bits))?;
/// let (c, run) = array.binary(LogicOp::And, a, b)?;
/// assert!(array.load(c)?.is_zero());
/// assert_eq!(run.banks_used, array.banks());
/// // Eight overlapping banks: wall clock beats the serial sum.
/// assert!(run.stats().makespan < run.stats().busy_time);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct DeviceArray {
    config: BatchConfig,
    banks: Vec<BankUnit>,
    /// The handle table, indexed by [`BatchHandle`] slot.
    vectors: Vec<Option<BatchEntry>>,
    /// Released slots, reused most recently released first, so the table
    /// never outgrows the most vectors ever live at once.
    free_slots: Vec<usize>,
    /// Each slot's generation, bumped on release; grows only on release,
    /// and a slot beyond its end is at generation 0. (Generations wrap
    /// after 2^32 releases of one slot.)
    generations: Vec<u32>,
    scheduler: HierarchicalScheduler,
    totals: RunStats,
    /// Optional per-command trace receiver shared by every scheduled
    /// operation; `None` keeps scheduling on the untraced fast path.
    sink: Option<Box<dyn TraceSink>>,
    /// Shared static-analysis verdict cache: a compiled program striped
    /// across banks/subarrays in equivalent states is analyzed once.
    analysis_cache: AnalysisCache,
    /// Placement order over flat bank units: channel-major (every channel
    /// before reusing one, then ranks, then banks) until
    /// [`DeviceArray::set_fault_models`] re-sorts it most-reliable-first.
    /// On a single-module topology the channel-major order is the
    /// identity, i.e. plain bank-major.
    bank_rank: Vec<usize>,
    /// Retry/verify accounting of the fault-aware executor
    /// ([`DeviceArray::binary_checked`]).
    reliability: MetricsRegistry,
    /// What the most recently prepared operation recorded for the
    /// plan-level static verifier ([`crate::planlint::certify`]); its
    /// [`BatchPlan`] is built on first read ([`DeviceArray::last_plan`]).
    last_plan: Option<PlanRecord>,
    /// The record the operation being prepared fills; it replaces
    /// `last_plan` only once preparation succeeds.
    next_plan: PlanRecord,
    /// What the operation being prepared runs and schedules.
    op: OpBuffers,
}

/// Minimum word-work (primitives × words per row) each host worker must
/// carry before [`DeviceArray`] fans an operation out across threads.
///
/// Derivation (2-vCPU x86-64 VM): spawning one scoped thread per busy unit
/// on the 64-unit 4-channel × 2-rank topology cost ≈ 3.2 ms of overhead
/// per op, i.e. ≈ 50 µs per spawn, while the engine's word loop runs at
/// ≈ 0.42 ns/word. A spawned worker therefore pays for itself only above
/// ≈ 50 µs / 0.42 ns ≈ 1.2 · 10^5 words; 2^18 leaves a 2× margin for
/// join and cache-migration costs. (The previous 2^14 threshold was
/// ≈ 7 µs of work, less than a single spawn.)
const PARALLEL_MIN_WORDS: usize = 1 << 18;

/// Host threads available for bank fan-out, read once per process:
/// [`std::thread::available_parallelism`] reads cgroup files and costs
/// ≈ 20 µs per call, more than a narrow op's whole word work.
fn host_threads() -> usize {
    static THREADS: OnceLock<usize> = OnceLock::new();
    *THREADS.get_or_init(|| std::thread::available_parallelism().map_or(1, usize::from))
}

/// Runs each unit's programs on its engines, units in ascending order,
/// stopping at the first error.
fn run_units(
    units: &mut [BankUnit],
    work: &[UnitPrograms],
    cache: &AnalysisCache,
) -> Result<(), CoreError> {
    for (unit, programs) in units.iter_mut().zip(work) {
        for (subarray, prog) in programs {
            unit.engines[*subarray].run_verified_cached(prog.as_ref(), cache)?;
        }
    }
    Ok(())
}

/// The channel-major placement order over flat bank units: slot `i` maps
/// channel-fastest, then rank, then bank, so consecutive stripes land on
/// the most independent hardware available. On a 1 × 1 topology this is
/// the identity (plain bank-major).
fn channel_major_order(t: &Topology) -> Vec<usize> {
    let (nc, nr) = (t.channels, t.ranks_per_channel);
    (0..t.total_banks())
        .map(|slot| {
            t.flat_index(TopoPath {
                channel: slot % nc,
                rank: (slot / nc) % nr,
                bank: slot / (nc * nr),
            })
        })
        .collect()
}

impl DeviceArray {
    /// Creates an array with every subarray empty.
    pub fn new(config: BatchConfig) -> Self {
        let g = config.topology.geometry;
        let units = config.topology.total_banks();
        let banks: Vec<BankUnit> = (0..units)
            .map(|_| BankUnit {
                engines: (0..g.subarrays_per_bank)
                    .map(|_| {
                        FaultyEngine::new(g.row_bits(), g.rows_per_subarray, config.reserved_rows)
                    })
                    .collect(),
                allocs: (0..g.subarrays_per_bank)
                    .map(|_| RowAllocator::new(g.rows_per_subarray))
                    .collect(),
            })
            .collect();
        let scheduler = HierarchicalScheduler::new(config.budget.clone());
        let bank_rank = channel_major_order(&config.topology);
        DeviceArray {
            config,
            banks,
            vectors: Vec::new(),
            free_slots: Vec::new(),
            generations: Vec::new(),
            scheduler,
            totals: RunStats::new(),
            sink: None,
            analysis_cache: AnalysisCache::new(),
            bank_rank,
            reliability: MetricsRegistry::new(),
            last_plan: None,
            next_plan: PlanRecord::default(),
            op: OpBuffers {
                work: (0..units).map(|_| Vec::new()).collect(),
                ..OpBuffers::default()
            },
        }
    }

    /// Installs (or replaces) a trace sink observing every command the
    /// batch scheduler issues from now on.
    pub fn set_trace_sink(&mut self, sink: Box<dyn TraceSink>) {
        self.sink = Some(sink);
    }

    /// Removes and returns the trace sink, if one was installed.
    pub fn take_trace_sink(&mut self) -> Option<Box<dyn TraceSink>> {
        self.sink.take()
    }

    /// Bits per row (stripe granularity).
    pub fn row_bits(&self) -> usize {
        self.config.topology.geometry.row_bits()
    }

    /// Total number of bank units in the array, across every channel and
    /// rank.
    pub fn banks(&self) -> usize {
        self.banks.len()
    }

    /// The array's channel/rank/bank topology.
    pub fn topology(&self) -> &Topology {
        &self.config.topology
    }

    /// The topology path of a flat bank-unit index (as found in
    /// [`Stripe::bank`]).
    ///
    /// # Panics
    ///
    /// Panics if `unit` is out of range.
    pub fn unit_path(&self, unit: usize) -> TopoPath {
        self.config.topology.path(unit)
    }

    /// The array's configuration.
    pub fn config(&self) -> &BatchConfig {
        &self.config
    }

    /// Cumulative statistics over every operation so far (makespans add:
    /// operations are sequentially dependent at this layer).
    pub fn stats(&self) -> &RunStats {
        &self.totals
    }

    /// The stripe placement of a stored vector, in stripe order.
    ///
    /// # Errors
    ///
    /// [`CoreError::InvalidHandle`] for dead handles.
    pub fn placement(&self, h: BatchHandle) -> Result<Vec<Stripe>, CoreError> {
        Ok(self.entry(h)?.stripes.clone())
    }

    fn entry(&self, h: BatchHandle) -> Result<&BatchEntry, CoreError> {
        self.vectors
            .get(h.slot)
            .and_then(Option::as_ref)
            .filter(|_| self.generation(h.slot) == h.generation)
            .ok_or(CoreError::InvalidHandle(h.slot))
    }

    fn generation(&self, slot: usize) -> u32 {
        self.generations.get(slot).copied().unwrap_or(0)
    }

    /// Files `entry` under a fresh handle, reusing a released slot first.
    fn insert(&mut self, entry: BatchEntry) -> BatchHandle {
        let slot = match self.free_slots.pop() {
            Some(slot) => {
                self.vectors[slot] = Some(entry);
                slot
            }
            None => {
                self.vectors.push(Some(entry));
                self.vectors.len() - 1
            }
        };
        BatchHandle { slot, generation: self.generation(slot) }
    }

    /// Channel-major stripe placement: stripe `i` lands on the `i %
    /// banks`-th unit of the placement ranking — channel-major order
    /// (every channel, then every rank, then every bank before reuse)
    /// re-sorted most-reliable-first once fault models are installed. The
    /// allocator picks the row; the subarray advances only after every
    /// unit has taken a stripe, so wide operands span the whole topology
    /// first.
    fn place(&mut self, stripe: usize) -> Result<Stripe, CoreError> {
        let nbanks = self.banks.len();
        let nsubs = self.config.topology.geometry.subarrays_per_bank;
        let bank = self.bank_rank[stripe % nbanks];
        let subarray = (stripe / nbanks) % nsubs;
        let row = self.banks[bank].allocs[subarray].alloc()?;
        Ok(Stripe { bank, subarray, row })
    }

    /// Installs per-unit fault models (index = flat bank unit; `None` =
    /// clean) and re-ranks placement so the most reliable units fill
    /// first; units of equal reliability keep their channel-major order.
    /// Models apply to every subarray engine of their bank.
    ///
    /// Install models *before* storing operands: ranking only affects
    /// future placements, and operands stored under different rankings
    /// lose the co-location guarantee binary ops rely on.
    ///
    /// # Panics
    ///
    /// Panics unless exactly one entry per bank unit is supplied.
    pub fn set_fault_models(&mut self, models: Vec<Option<ColumnFaultModel>>) {
        assert_eq!(models.len(), self.banks.len(), "one fault model slot per bank unit");
        let mut rank = channel_major_order(&self.config.topology);
        let mut pos = vec![0usize; rank.len()];
        for (i, &unit) in rank.iter().enumerate() {
            pos[unit] = i;
        }
        rank.sort_by(|&x, &y| {
            let mx = models[x].as_ref().map_or(0.0, ColumnFaultModel::mean_error);
            let my = models[y].as_ref().map_or(0.0, ColumnFaultModel::mean_error);
            mx.total_cmp(&my).then(pos[x].cmp(&pos[y]))
        });
        self.bank_rank = rank;
        for (unit, model) in self.banks.iter_mut().zip(models) {
            for engine in &mut unit.engines {
                engine.set_fault_model(model.clone());
            }
        }
    }

    /// The current placement order over flat bank units, most reliable
    /// first (channel-major — the identity on a single module — until
    /// fault models are installed).
    pub fn bank_ranking(&self) -> &[usize] {
        &self.bank_rank
    }

    /// The fault model of one bank unit (flat index), if installed.
    ///
    /// # Panics
    ///
    /// Panics if `bank` is out of range.
    pub fn fault_model(&self, bank: usize) -> Option<&ColumnFaultModel> {
        self.banks[bank].engines.first().and_then(FaultyEngine::fault_model)
    }

    /// Total bits flipped by fault injection across every engine.
    pub fn injected_flips(&self) -> u64 {
        self.banks.iter().flat_map(|u| u.engines.iter()).map(FaultyEngine::injected_flips).sum()
    }

    /// Retry/verify counters of the fault-aware executor: `checked_ops`,
    /// `verify_recomputes`, `verify_mismatches`, `retries`,
    /// `retries_exhausted`.
    pub fn reliability_metrics(&self) -> &MetricsRegistry {
        &self.reliability
    }

    /// Whether any bank holding a stripe of `h` carries a nontrivial fault
    /// model — the selectivity test of [`DeviceArray::binary_checked`].
    fn at_risk(&self, h: BatchHandle) -> Result<bool, CoreError> {
        Ok(self
            .entry(h)?
            .stripes
            .iter()
            .any(|s| self.fault_model(s.bank).is_some_and(|m| !m.is_trivial())))
    }

    /// Fault-aware `dst := op(a, b)`: like [`DeviceArray::binary`], but
    /// when a stripe lands on an at-risk bank (nontrivial fault model) and
    /// `policy.verify` is set, the result is verified by recomputing and
    /// comparing, retrying up to `policy.max_retries` rounds on mismatch.
    /// Operations over clean banks skip verification entirely — that
    /// selectivity is what beats blanket protection on latency. All
    /// recompute/retry makespan accrues in [`DeviceArray::stats`];
    /// counters land in [`DeviceArray::reliability_metrics`].
    ///
    /// # Errors
    ///
    /// Handle, width, capacity, and compilation errors.
    pub fn binary_checked(
        &mut self,
        op: LogicOp,
        a: BatchHandle,
        b: BatchHandle,
        policy: &FaultPolicy,
    ) -> Result<CheckedRun, CoreError> {
        self.reliability.bump("checked_ops", 1);
        if !policy.verify || !(self.at_risk(a)? || self.at_risk(b)?) {
            let (handle, run) = self.binary(op, a, b)?;
            return Ok(CheckedRun { handle, run, attempts: 1, verified: false });
        }
        let mut attempts = 0u32;
        loop {
            attempts += 1;
            let (h1, run) = self.binary(op, a, b)?;
            let (h2, _) = self.binary(op, a, b)?;
            self.reliability.bump("verify_recomputes", 1);
            let agree = self.load(h1)? == self.load(h2)?;
            self.release(h2)?;
            if agree {
                return Ok(CheckedRun { handle: h1, run, attempts, verified: true });
            }
            self.reliability.bump("verify_mismatches", 1);
            self.release(h1)?;
            if attempts > policy.max_retries {
                // Exhausted: deliver a best-effort single run, flagged
                // unverified.
                self.reliability.bump("retries_exhausted", 1);
                let (handle, run) = self.binary(op, a, b)?;
                return Ok(CheckedRun { handle, run, attempts: attempts + 1, verified: false });
            }
            self.reliability.bump("retries", 1);
        }
    }

    /// Stores a vector of any length, striped channel-major across the
    /// array (plain bank-major on a single-module topology).
    ///
    /// # Errors
    ///
    /// [`CoreError::CapacityExceeded`] if a target subarray is full.
    pub fn store(&mut self, value: &BitVec) -> Result<BatchHandle, CoreError> {
        let rb = self.row_bits();
        let n = value.len().div_ceil(rb).max(1);
        let mut stripes = Vec::with_capacity(n);
        for c in 0..n {
            let stripe = self.place(c)?;
            // Word-level zero-copy striping: the row window of `value`
            // lands straight in the engine's arena (short/tail stripes
            // zero-fill the remainder).
            self.banks[stripe.bank].engines[stripe.subarray].write_row_from(
                stripe.row,
                value,
                c * rb,
            )?;
            stripes.push(stripe);
        }
        Ok(self.insert(BatchEntry { len: value.len(), stripes }))
    }

    /// Logical bit length of a stored vector.
    ///
    /// # Errors
    ///
    /// [`CoreError::InvalidHandle`] for dead handles.
    pub fn length(&self, h: BatchHandle) -> Result<usize, CoreError> {
        Ok(self.entry(h)?.len)
    }

    /// Loads a vector back, merging stripes in placement order.
    ///
    /// # Errors
    ///
    /// [`CoreError::InvalidHandle`] for dead handles.
    pub fn load(&self, h: BatchHandle) -> Result<BitVec, CoreError> {
        let entry = self.entry(h)?;
        let rb = self.row_bits();
        let mut out = BitVec::zeros(entry.len);
        for (c, s) in entry.stripes.iter().enumerate() {
            self.banks[s.bank].engines[s.subarray].read_row_into(s.row, &mut out, c * rb)?;
        }
        Ok(out)
    }

    /// Reads one logical bit of a stored vector without materializing any
    /// stripe.
    ///
    /// # Errors
    ///
    /// [`CoreError::InvalidHandle`] for dead handles;
    /// [`CoreError::BitOutOfRange`] for a `bit` beyond the vector's length.
    pub fn element(&self, h: BatchHandle, bit: usize) -> Result<bool, CoreError> {
        let (s, column) = self.entry(h)?.locate(bit, self.row_bits())?;
        self.banks[s.bank].engines[s.subarray].bit(RowRef::Data(s.row), column)
    }

    /// The shared analysis-verdict cache (one entry per distinct compiled
    /// program × shape × live-in state verified so far).
    pub fn analysis_cache(&self) -> &AnalysisCache {
        &self.analysis_cache
    }

    /// Releases a vector's rows.
    ///
    /// # Errors
    ///
    /// [`CoreError::InvalidHandle`] for dead handles.
    pub fn release(&mut self, h: BatchHandle) -> Result<(), CoreError> {
        self.entry(h)?;
        let entry = self.vectors[h.slot].take().expect("entry() found the slot full");
        if self.generations.len() <= h.slot {
            self.generations.resize(h.slot + 1, 0);
        }
        self.generations[h.slot] = h.generation.wrapping_add(1);
        self.free_slots.push(h.slot);
        self.free_stripes(&entry.stripes)
    }

    /// Returns each stripe's row to its subarray's allocator.
    fn free_stripes(&mut self, stripes: &[Stripe]) -> Result<(), CoreError> {
        for s in stripes {
            self.banks[s.bank].allocs[s.subarray].free(s.row)?;
        }
        Ok(())
    }

    /// Flips one stored bit in place (fault-injection hook): the error
    /// lands in exactly one stripe of one bank, so cross-bank isolation is
    /// testable end to end.
    ///
    /// # Errors
    ///
    /// [`CoreError::InvalidHandle`] for dead handles;
    /// [`CoreError::BitOutOfRange`] for a `bit` beyond the vector's length.
    pub fn inject_bit_error(&mut self, h: BatchHandle, bit: usize) -> Result<Stripe, CoreError> {
        let (s, column) = self.entry(h)?.locate(bit, self.row_bits())?;
        self.banks[s.bank].engines[s.subarray].inject_bit_error(RowRef::Data(s.row), column)?;
        Ok(s)
    }

    /// Compiles `op` over every stripe of `a` (and `b`), allocating
    /// destination rows with the same channel-major placement. Returns
    /// the new entry, and leaves the per-unit work (programs to execute)
    /// and the per-unit command streams (profiles to schedule, keyed by
    /// [`TopoPath`]) in the op buffers.
    fn prepare(
        &mut self,
        op: LogicOp,
        a: BatchHandle,
        b: Option<BatchHandle>,
    ) -> Result<BatchEntry, CoreError> {
        // The buffers leave `self` while they fill, so the fill can borrow
        // the allocators and engines beside them.
        let mut ops = std::mem::take(&mut self.op);
        let prepared = self.prepare_into(&mut ops, op, a, b);
        self.op = ops;
        prepared
    }

    fn prepare_into(
        &mut self,
        ops: &mut OpBuffers,
        op: LogicOp,
        a: BatchHandle,
        b: Option<BatchHandle>,
    ) -> Result<BatchEntry, CoreError> {
        let ea = self.entry(a)?;
        let len = ea.len;
        let eb = b.map(|b| self.entry(b)).transpose()?;
        if let Some(eb) = eb {
            if eb.len != len {
                return Err(CoreError::WidthMismatch { expected: len, got: eb.len });
            }
        }
        ops.operands.clear();
        ops.operands.extend(ea.stripes.iter().enumerate().map(|(ci, &sa)| {
            let rb = match eb {
                Some(eb) => {
                    let sb = eb.stripes[ci];
                    debug_assert_eq!(
                        (sa.bank, sa.subarray),
                        (sb.bank, sb.subarray),
                        "channel-major placement keeps operand stripes co-located"
                    );
                    sb.row
                }
                None => sa.row,
            };
            (sa, rb)
        }));

        let mut stripes = Vec::with_capacity(ops.operands.len());
        for programs in &mut ops.work {
            programs.clear();
        }
        // Channel-major placement gives co-located stripes identical allocator
        // trajectories, so consecutive stripes almost always compile to the
        // same program; memoizing the last (rows -> program) pair, with its
        // command profiles, turns the per-stripe compile into an Arc bump.
        let mut compiled: Option<(Operands, Arc<Program>)> = None;
        // What the static verifier's plan is built from on demand: the
        // same steps, plus each touched subarray's live-in, snapshot before
        // this operation's own destination allocations. A data row is live
        // iff the allocator owns it AND the engine has real data in it (the
        // engine's live bits overapproximate — they stay set for released
        // rows); reserved rows carry scratch residue and count as live
        // whenever written.
        let record = &mut self.next_plan;
        record.clear();
        record.touched.extend(ops.operands.iter().map(|(s, _)| (s.bank, s.subarray)));
        record.touched.sort_unstable();
        record.touched.dedup();
        for &(unit, subarray) in &record.touched {
            let bank = &self.banks[unit];
            bank.engines[subarray]
                .pack_live_rows(bank.allocs[subarray].allocated_words(), &mut record.live_words);
        }
        // One stream per busy unit, in unit (= path) order: the touched
        // pairs are unit-sorted.
        ops.busy = 0;
        let mut last_unit = None;
        for &(unit, _) in &record.touched {
            if last_unit == Some(unit) {
                continue;
            }
            last_unit = Some(unit);
            let path = self.config.topology.path(unit);
            match ops.streams.get_mut(ops.busy) {
                Some((p, stream)) => {
                    *p = path;
                    stream.clear();
                }
                None => ops.streams.push((path, Vec::new())),
            }
            ops.busy += 1;
        }
        // A stripe's destination row is taken before its program compiles,
        // so a failure part-way returns every row taken so far.
        let filled = (|| -> Result<(), CoreError> {
            for &(sa, rb) in &ops.operands {
                let dst = self.banks[sa.bank].allocs[sa.subarray].alloc()?;
                stripes.push(Stripe { bank: sa.bank, subarray: sa.subarray, row: dst });
                let rows = Operands { a: sa.row, b: rb, dst, scratch: None };
                let prog = match &compiled {
                    Some((r, p)) if *r == rows => Arc::clone(p),
                    _ => {
                        let p = Arc::new(compile(
                            op,
                            self.config.mode,
                            rows,
                            self.config.reserved_rows,
                        )?);
                        let timing = self.banks[sa.bank].engines[sa.subarray].timing();
                        ops.profiles.clear();
                        ops.profiles.extend(p.primitives().iter().map(|x| x.profile(timing)));
                        compiled = Some((rows, Arc::clone(&p)));
                        p
                    }
                };
                let path = self.config.topology.path(sa.bank);
                let slot = ops.streams[..ops.busy]
                    .binary_search_by_key(&path, |(p, _)| *p)
                    .expect("every operand unit has a stream");
                ops.streams[slot].1.extend_from_slice(&ops.profiles);
                self.next_plan.steps.push(PlanStep {
                    unit: sa.bank,
                    subarray: sa.subarray,
                    stream: path,
                    program: Arc::clone(&prog),
                });
                ops.work[sa.bank].push((sa.subarray, prog));
            }
            Ok(())
        })();
        if let Err(e) = filled {
            self.free_stripes(&stripes)?;
            return Err(e);
        }
        // The finished record becomes the last plan; the one it replaces
        // lends its buffers to the next operation.
        let done =
            std::mem::replace(&mut self.next_plan, self.last_plan.take().unwrap_or_default());
        self.last_plan = Some(done);
        Ok(BatchEntry { len, stripes })
    }

    /// Executes every unit's programs on its engines, fanning out over at
    /// most [`host_threads`] workers and only as many as the op's total
    /// word-work pays for ([`PARALLEL_MIN_WORDS`] each). One worker means
    /// the calling thread runs everything serially.
    fn run_banks(&mut self, work: &[UnitPrograms], busy: usize) -> Result<(), CoreError> {
        let words_per_row = self.config.topology.geometry.row_bits().div_ceil(64);
        let primitives: usize = work.iter().flatten().map(|(_, p)| p.primitives().len()).sum();
        let workers = host_threads().min(busy).min(primitives * words_per_row / PARALLEL_MIN_WORDS);
        self.run_banks_on(work, workers)
    }

    /// [`DeviceArray::run_banks`] with an explicit worker count: units split
    /// into `workers` contiguous chunks, the calling thread runs the first
    /// and `workers − 1` scoped threads the rest. Units touch disjoint
    /// state and each chunk runs its units in ascending order, stopping at
    /// its first error; chunk results are then taken in order, so the
    /// lowest failing unit's error wins for every worker count.
    fn run_banks_on(&mut self, work: &[UnitPrograms], workers: usize) -> Result<(), CoreError> {
        let cache = &self.analysis_cache;
        if workers <= 1 {
            return run_units(&mut self.banks, work, cache);
        }
        let size = self.banks.len().div_ceil(workers);
        std::thread::scope(|scope| {
            let mut chunks = self.banks.chunks_mut(size).zip(work.chunks(size));
            let head = chunks.next();
            let spawned: Vec<_> = chunks
                .map(|(units, work)| scope.spawn(move || run_units(units, work, cache)))
                .collect();
            let first = head.map_or(Ok(()), |(units, work)| run_units(units, work, cache));
            spawned.into_iter().fold(first, |acc, h| {
                // A panicking engine thread is a bug in the functional
                // model itself; propagate the panic.
                let r = h.join().expect("bank engine thread panicked");
                acc.and(r)
            })
        })
    }

    /// Certifies (debug builds), runs and schedules the prepared operation
    /// in the op buffers.
    fn execute(&mut self) -> Result<Schedule, CoreError> {
        // Debug builds certify every prepared plan before anything runs:
        // the borrow checker, hazard analysis, and timing proofs must all
        // accept what the batch layer is about to execute. A rejection
        // here is a batch-layer bug surfacing, not a user error.
        #[cfg(debug_assertions)]
        if let Some(err) =
            self.last_plan().and_then(|p| crate::planlint::certify(p).first_error().cloned())
        {
            return Err(CoreError::PlanRejected(err.to_string()));
        }
        let ops = std::mem::take(&mut self.op);
        let scheduled = self.run_banks(&ops.work, ops.busy).and_then(|()| {
            match self.sink.as_mut() {
                Some(sink) => self.scheduler.schedule_traced(ops.streams(), sink.as_mut()),
                None => self.scheduler.schedule(ops.streams()),
            }
            .map_err(CoreError::Schedule)
        });
        self.op = ops;
        scheduled
    }

    fn run_op(
        &mut self,
        op: LogicOp,
        a: BatchHandle,
        b: Option<BatchHandle>,
    ) -> Result<(BatchHandle, BatchRun), CoreError> {
        let entry = self.prepare(op, a, b)?;
        let schedule = match self.execute() {
            Ok(schedule) => schedule,
            Err(e) => {
                self.free_stripes(&entry.stripes)?;
                return Err(e);
            }
        };
        let streams = self.op.streams();
        let banks_used = streams.len();
        // Streams are path-sorted, so each channel's streams are adjacent.
        let channels_used = streams
            .iter()
            .enumerate()
            .filter(|&(i, (p, _))| i == 0 || streams[i - 1].0.channel != p.channel)
            .count();
        // Operations are sequentially dependent at this layer: makespans
        // (and the background energy accrued over them) add.
        self.totals.merge_sequential(&schedule.stats);
        Ok((self.insert(entry), BatchRun { schedule, banks_used, channels_used }))
    }

    /// Executes `dst := op(a, b)` over whole vectors: functionally on
    /// every stripe (banks in parallel on the host), and scheduled as one
    /// interleaved batch for timing.
    ///
    /// # Errors
    ///
    /// Handle, width, capacity, and compilation errors.
    pub fn binary(
        &mut self,
        op: LogicOp,
        a: BatchHandle,
        b: BatchHandle,
    ) -> Result<(BatchHandle, BatchRun), CoreError> {
        self.run_op(op, a, Some(b))
    }

    /// Executes `dst := !a` over a whole vector.
    ///
    /// # Errors
    ///
    /// Handle, capacity, and compilation errors.
    pub fn not(&mut self, a: BatchHandle) -> Result<(BatchHandle, BatchRun), CoreError> {
        self.run_op(LogicOp::Not, a, None)
    }

    /// Evaluates a Boolean [`Expr`] over stored vectors one gate at a time:
    /// MAJ/ITE nodes lower through [`Expr::expand`], each distinct subterm
    /// runs once as a [`DeviceArray::binary`] or [`DeviceArray::not`]
    /// operation, and every intermediate is released before returning.
    /// The statistics fold the operations with
    /// [`RunStats::merge_sequential`] (makespans add). A bare variable
    /// evaluates to that input's own handle.
    ///
    /// # Errors
    ///
    /// A variable index beyond `inputs` reports as
    /// [`CoreError::UnknownVariable`] naming that index. Operation errors
    /// propagate after the intermediates computed so far are released.
    pub fn eval_expr(
        &mut self,
        expr: &Expr,
        inputs: &[BatchHandle],
    ) -> Result<(BatchHandle, RunStats), CoreError> {
        if let Some(max) = expr.max_var().filter(|&max| max >= inputs.len()) {
            return Err(CoreError::UnknownVariable { var: max, inputs: inputs.len() });
        }
        let mut gates = HashMap::new();
        let mut total = RunStats::new();
        let result = self.eval_gate(&expr.expand(), inputs, &mut gates, &mut total);
        // Release in creation order: handles no longer encode it once
        // slots are reused, and the allocators' trajectories depend on it.
        let mut temps: Vec<(usize, BatchHandle)> = gates.into_values().collect();
        temps.sort_unstable_by_key(|&(created, _)| created);
        for (_, h) in temps {
            if result.as_ref().ok() != Some(&h) {
                self.release(h)?;
            }
        }
        Ok((result?, total))
    }

    /// Computes one gate of an expanded expression, memoized in `gates`
    /// with its creation index.
    fn eval_gate(
        &mut self,
        e: &Expr,
        inputs: &[BatchHandle],
        gates: &mut HashMap<Expr, (usize, BatchHandle)>,
        total: &mut RunStats,
    ) -> Result<BatchHandle, CoreError> {
        if let Expr::Var(i) = e {
            return Ok(inputs[*i]);
        }
        if let Some(&(_, h)) = gates.get(e) {
            return Ok(h);
        }
        let (h, run) = match e {
            Expr::Not(x) => {
                let hx = self.eval_gate(x, inputs, gates, total)?;
                self.not(hx)?
            }
            Expr::And(x, y) | Expr::Or(x, y) | Expr::Xor(x, y) => {
                let op = match e {
                    Expr::And(..) => LogicOp::And,
                    Expr::Or(..) => LogicOp::Or,
                    _ => LogicOp::Xor,
                };
                let hx = self.eval_gate(x, inputs, gates, total)?;
                let hy = self.eval_gate(y, inputs, gates, total)?;
                self.binary(op, hx, hy)?
            }
            Expr::Var(_) | Expr::Maj(..) | Expr::Ite(..) => {
                unreachable!("variables return early and expand() lowers MAJ/ITE")
            }
        };
        total.merge_sequential(run.stats());
        gates.insert(e.clone(), (gates.len(), h));
        Ok(h)
    }

    /// Prepares `op(a, b)` exactly as [`DeviceArray::binary`] would —
    /// placement, destination allocation, compilation, live-in snapshots —
    /// and returns the resulting [`BatchPlan`] **without executing it**.
    /// Rows allocated during preparation are released again, so the array
    /// is left unchanged; hand the plan to
    /// [`certify`](crate::planlint::certify) for a static verdict. The
    /// plan is built on the spot (and is what [`DeviceArray::last_plan`]
    /// returns until the next operation).
    ///
    /// # Errors
    ///
    /// Handle, width, capacity, and compilation errors.
    pub fn plan(
        &mut self,
        op: LogicOp,
        a: BatchHandle,
        b: Option<BatchHandle>,
    ) -> Result<BatchPlan, CoreError> {
        let entry = self.prepare(op, a, b)?;
        self.free_stripes(&entry.stripes)?;
        Ok(self.last_plan().expect("prepare always records a plan").clone())
    }

    /// The plan of the most recently prepared operation (what the debug
    /// self-check certified), if any operation has been prepared.
    ///
    /// Operations record only the plan's steps and packed live-in
    /// snapshots; the [`BatchPlan`] itself is built from them on the first
    /// call after each operation and cached until the next one. Release
    /// builds never certify, so an op nobody inspects never builds one.
    pub fn last_plan(&self) -> Option<&BatchPlan> {
        let record = self.last_plan.as_ref()?;
        let timing = self.banks.first().and_then(|b| b.engines.first()).map(FaultyEngine::timing);
        Some(record.plan(&self.config, timing))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    fn pattern(bits: usize, period: usize) -> BitVec {
        (0..bits).map(|i| i % period == 0).collect()
    }

    fn tiny_geometry(banks: usize) -> Geometry {
        Geometry { banks, subarrays_per_bank: 2, rows_per_subarray: 32, row_bytes: 32 }
    }

    fn small(banks: usize) -> DeviceArray {
        DeviceArray::new(BatchConfig {
            topology: Topology::module(tiny_geometry(banks)),
            reserved_rows: 1,
            mode: CompileMode::LowLatency,
            budget: PumpBudget::unconstrained(),
        })
    }

    fn small_topo(channels: usize, ranks: usize, banks: usize) -> DeviceArray {
        DeviceArray::new(BatchConfig {
            topology: Topology::new(channels, ranks, tiny_geometry(banks)),
            reserved_rows: 1,
            mode: CompileMode::LowLatency,
            budget: PumpBudget::unconstrained(),
        })
    }

    #[test]
    fn placement_is_bank_major() {
        let mut a = small(4);
        let bits = a.row_bits() * 6;
        let h = a.store(&BitVec::ones(bits)).unwrap();
        let p = a.placement(h).unwrap();
        let banks: Vec<usize> = p.iter().map(|s| s.bank).collect();
        assert_eq!(banks, vec![0, 1, 2, 3, 0, 1]);
        // Subarray advances only after all banks took a stripe.
        let subs: Vec<usize> = p.iter().map(|s| s.subarray).collect();
        assert_eq!(subs, vec![0, 0, 0, 0, 1, 1]);
    }

    #[test]
    fn placement_engages_every_channel_first() {
        let mut m = small_topo(2, 2, 2);
        let bits = m.row_bits() * 8;
        let h = m.store(&BitVec::ones(bits)).unwrap();
        let p = m.placement(h).unwrap();
        // Channel varies fastest, then rank, then bank:
        // flat = (channel * ranks + rank) * banks + bank.
        let units: Vec<usize> = p.iter().map(|s| s.bank).collect();
        assert_eq!(units, vec![0, 4, 2, 6, 1, 5, 3, 7]);
        let chans: Vec<usize> = units.iter().map(|&u| m.unit_path(u).channel).collect();
        assert_eq!(chans, vec![0, 1, 0, 1, 0, 1, 0, 1]);
    }

    #[test]
    fn prepared_plans_are_certified_and_dry_runs_leave_no_trace() {
        let mut m = small_topo(2, 1, 2);
        let bits = m.row_bits() * 4;
        let a = m.store(&pattern(bits, 3)).unwrap();
        let b = m.store(&pattern(bits, 5)).unwrap();
        let live_before: Vec<usize> =
            m.banks.iter().flat_map(|u| u.allocs.iter().map(RowAllocator::live)).collect();
        // A dry-run plan certifies clean and releases everything it took.
        let plan = m.plan(LogicOp::Xor, a, Some(b)).unwrap();
        assert_eq!(plan.steps.len(), 4);
        assert!(plan.live_in.values().all(|rows| !rows.is_empty()));
        let report = crate::planlint::certify(&plan);
        assert!(report.is_accepted(), "{:?}", report.first_error().map(|d| d.to_string()));
        assert!(report.makespan().unwrap().as_f64() > 0.0);
        let live_after: Vec<usize> =
            m.banks.iter().flat_map(|u| u.allocs.iter().map(RowAllocator::live)).collect();
        assert_eq!(live_before, live_after);
        // The executed op records the same kind of plan, and its proven
        // makespan matches the scheduler's.
        let (_, run) = m.binary(LogicOp::Xor, a, b).unwrap();
        let last = m.last_plan().unwrap();
        let report = crate::planlint::certify(last);
        assert!(report.is_accepted());
        assert!((report.makespan().unwrap().as_f64() - run.stats().makespan.as_f64()).abs() < 1e-9);
    }

    /// The live-in sets of `plan`'s subarrays rebuilt the eager way: every
    /// engine-live row, data rows kept only where the allocator owns them.
    fn eager_live_in(m: &DeviceArray, plan: &BatchPlan) -> BTreeMap<(usize, usize), Vec<PhysRow>> {
        let keys: std::collections::BTreeSet<_> =
            plan.steps.iter().map(|s| (s.unit, s.subarray)).collect();
        keys.into_iter()
            .map(|(unit, sub)| {
                let bank = &m.banks[unit];
                let engine = &bank.engines[sub];
                let dcc = (0..engine.dcc_rows()).map(PhysRow::Dcc);
                let data = (0..engine.data_rows()).map(PhysRow::Data);
                let mut live: Vec<PhysRow> = dcc
                    .chain(data)
                    .filter(|&r| match r {
                        PhysRow::Data(i) => {
                            engine.is_live(RowRef::Data(i)) && bank.allocs[sub].is_allocated(i)
                        }
                        PhysRow::Dcc(i) => engine.is_live(RowRef::DccTrue(i)),
                    })
                    .collect();
                live.sort();
                ((unit, sub), live)
            })
            .collect()
    }

    #[test]
    fn lazy_plans_equal_the_dry_run_and_the_eager_snapshot() {
        // 2 channels × 2 banks × 2 subarrays; six-stripe operands use both
        // subarrays of half the units.
        let mut m = small_topo(2, 1, 2);
        let bits = m.row_bits() * 6;
        let a = m.store(&pattern(bits, 3)).unwrap();
        let b = m.store(&pattern(bits, 5)).unwrap();
        // A released vector leaves engine-live rows the allocator no longer
        // owns, which the live-in must exclude.
        let gone = m.store(&pattern(bits, 7)).unwrap();
        m.release(gone).unwrap();
        for op in [LogicOp::And, LogicOp::Not, LogicOp::Xor] {
            // Twice, so the second round starts with the DCC rows the
            // first left live.
            for round in 0..2 {
                let dry = m.plan(op, a, (op != LogicOp::Not).then_some(b)).unwrap();
                let (c, _) = match op {
                    LogicOp::Not => m.not(a).unwrap(),
                    _ => m.binary(op, a, b).unwrap(),
                };
                let last = m.last_plan().unwrap();
                assert_eq!(last.steps, dry.steps, "{op} round {round}");
                assert_eq!(last.live_in, dry.live_in, "{op} round {round}");
                assert_eq!((&last.timing, last.shape), (&dry.timing, dry.shape));
                assert_eq!((&last.topology, &last.budget), (&dry.topology, &dry.budget));
                assert!(crate::planlint::certify(last).is_accepted(), "{op} round {round}");
                m.release(c).unwrap();
            }
            // The dry run's snapshot equals the eager construction.
            let dry = m.plan(op, a, (op != LogicOp::Not).then_some(b)).unwrap();
            let lazy: BTreeMap<_, Vec<PhysRow>> =
                dry.live_in.iter().map(|(k, rows)| (*k, rows.iter().copied().collect())).collect();
            assert_eq!(lazy, eager_live_in(&m, &dry), "{op}");
            // AND and NOT leave the DCC row written; XOR's sequence ends by
            // trimming it dead.
            let dcc_live = lazy.values().any(|rows| rows.contains(&PhysRow::Dcc(0)));
            assert_eq!(dcc_live, op != LogicOp::Xor, "{op}");
            assert!(!lazy.values().flatten().any(|&r| r == PhysRow::Data(2)), "{op}");
        }
    }

    #[test]
    fn multichannel_results_match_single_module() {
        let mut topo = small_topo(2, 2, 2);
        let mut flat = small(1);
        let bits = topo.row_bits() * 5 + 9; // 6 stripes
        let a = pattern(bits, 3);
        let b = pattern(bits, 5);
        let (ta, tb) = (topo.store(&a).unwrap(), topo.store(&b).unwrap());
        let (fa, fb) = (flat.store(&a).unwrap(), flat.store(&b).unwrap());
        let (th, trun) = topo.binary(LogicOp::Xor, ta, tb).unwrap();
        let (fh, _) = flat.binary(LogicOp::Xor, fa, fb).unwrap();
        assert_eq!(topo.load(th).unwrap(), flat.load(fh).unwrap());
        assert_eq!(trun.banks_used, 6);
        assert_eq!(trun.channels_used, 2);
    }

    #[test]
    fn extra_channels_relieve_pump_pressure() {
        // Same total work and per-bank shape, but the four-channel array
        // spreads it over four pump windows and four buses.
        let make = |topology: Topology, budget: PumpBudget| {
            DeviceArray::new(BatchConfig {
                topology,
                reserved_rows: 1,
                mode: CompileMode::LowLatency,
                budget,
            })
        };
        let jedec = PumpBudget::jedec_ddr3_1600();
        let mut one = make(Topology::module(tiny_geometry(8)), jedec.clone());
        let mut four = make(Topology::new(4, 1, tiny_geometry(2)), jedec);
        let mut free = make(Topology::module(tiny_geometry(8)), PumpBudget::unconstrained());
        let bits = one.row_bits() * 8;
        let run_of = |m: &mut DeviceArray| {
            let a = m.store(&BitVec::ones(bits)).unwrap();
            let b = m.store(&pattern(bits, 2)).unwrap();
            let (_, run) = m.binary(LogicOp::And, a, b).unwrap();
            run
        };
        let r1 = run_of(&mut one);
        let r4 = run_of(&mut four);
        let rf = run_of(&mut free);
        assert_eq!((r1.channels_used, r4.channels_used), (1, 4));
        assert_eq!((r1.banks_used, r4.banks_used), (8, 8));
        assert!(r1.stats().pump_stall.as_f64() > 0.0, "8 banks on one window must stall");
        assert!(
            r1.stats().makespan.as_f64() > rf.stats().makespan.as_f64() * 1.2,
            "the JEDEC window must stretch the makespan: {} vs unconstrained {}",
            r1.stats().makespan,
            rf.stats().makespan
        );
        assert!(
            r4.stats().pump_stall.as_f64() < r1.stats().pump_stall.as_f64(),
            "four windows must stall less: {} vs {}",
            r4.stats().pump_stall,
            r1.stats().pump_stall
        );
        assert!(
            r4.stats().makespan.as_f64() < r1.stats().makespan.as_f64(),
            "four channels must finish sooner: {} vs {}",
            r4.stats().makespan,
            r1.stats().makespan
        );
    }

    #[test]
    fn fault_ranking_preserves_channel_major_order_on_ties() {
        let mut m = small_topo(2, 1, 2);
        // Channel-major over 2ch × 1r × 2b enumerates flat units 0,2,1,3.
        assert_eq!(m.bank_ranking(), &[0, 2, 1, 3]);
        m.set_fault_models(vec![None; 4]);
        assert_eq!(m.bank_ranking(), &[0, 2, 1, 3], "all-clean ties keep channel-major order");
        let mut probs = vec![0.0; m.row_bits()];
        probs[0] = 0.9;
        let mut models = vec![None; 4];
        models[2] = Some(ColumnFaultModel::new(0xFA17, 2, probs));
        m.set_fault_models(models);
        assert_eq!(m.bank_ranking(), &[0, 1, 3, 2], "the unreliable unit sinks to last");
    }

    #[test]
    fn store_load_roundtrip_with_uneven_tail() {
        let mut a = small(4);
        let bits = a.row_bits() * 5 + 13;
        let v = pattern(bits, 7);
        let h = a.store(&v).unwrap();
        assert_eq!(a.load(h).unwrap(), v);
    }

    #[test]
    fn binary_ops_match_software() {
        for op in [LogicOp::And, LogicOp::Or, LogicOp::Xor, LogicOp::Nand, LogicOp::Nor] {
            let mut m = small(4);
            let bits = m.row_bits() * 7 + 5;
            let a = pattern(bits, 2);
            let b = pattern(bits, 3);
            let ha = m.store(&a).unwrap();
            let hb = m.store(&b).unwrap();
            let (hc, _) = m.binary(op, ha, hb).unwrap();
            let got = m.load(hc).unwrap();
            let want: BitVec = (0..bits).map(|i| op.eval(a.get(i), b.get(i))).collect();
            assert_eq!(got, want, "{op}");
            // Operands must survive the operation.
            assert_eq!(m.load(ha).unwrap(), a, "{op} clobbered a");
            assert_eq!(m.load(hb).unwrap(), b, "{op} clobbered b");
        }
    }

    #[test]
    fn stats_track_command_mix() {
        // LowLatency AND = oAAP, oAPP, oAAP; with two reserved rows XOR
        // compiles to seq6 (6 primitives).
        for (reserved_rows, op, commands) in [(1, LogicOp::And, 3), (2, LogicOp::Xor, 6)] {
            let mut m =
                DeviceArray::new(BatchConfig { reserved_rows, ..BatchConfig::subarray(8, 16) });
            let a = m.store(&BitVec::from_words(&[0b0011], 4)).unwrap();
            let b = m.store(&BitVec::from_words(&[0b0101], 4)).unwrap();
            let (c, _) = m.binary(op, a, b).unwrap();
            let want: BitVec = (0..4).map(|i| op.eval(i < 2, i % 2 == 0)).collect();
            assert_eq!(m.load(c).unwrap(), want, "{op}");
            let s = m.stats();
            assert_eq!(s.total_commands(), commands, "{op}");
            if op == LogicOp::And {
                assert_eq!(s.commands.get("oAAP"), Some(&2));
                assert_eq!(s.commands.get("oAPP"), Some(&1));
                assert!(s.busy_time.as_f64() > 150.0);
            }
        }
    }

    #[test]
    fn capacity_exhaustion_reported() {
        let mut m = DeviceArray::new(BatchConfig::subarray(1, 2));
        let _ = m.store(&BitVec::ones(1)).unwrap();
        let _ = m.store(&BitVec::ones(1)).unwrap();
        assert!(matches!(m.store(&BitVec::ones(1)), Err(CoreError::CapacityExceeded { .. })));
    }

    #[test]
    fn failed_op_frees_destination_row() {
        // XOR with zero reserved rows fails to compile after the first
        // stripe's destination row is taken.
        let mut m = DeviceArray::new(BatchConfig {
            topology: Topology::module(tiny_geometry(2)),
            reserved_rows: 0,
            mode: CompileMode::LowLatency,
            budget: PumpBudget::unconstrained(),
        });
        let bits = m.row_bits() * 2;
        let a = m.store(&pattern(bits, 2)).unwrap();
        let b = m.store(&pattern(bits, 3)).unwrap();
        let live = live_rows(&m);
        assert!(matches!(
            m.binary(LogicOp::Xor, a, b),
            Err(CoreError::NotEnoughReservedRows { .. })
        ));
        assert_eq!(live_rows(&m), live);
        // The subarray runs out of rows between a NOT's two stripes.
        let mut m = DeviceArray::new(BatchConfig::subarray(1, 4));
        let a = m.store(&pattern(16, 3)).unwrap();
        let _ = m.store(&pattern(8, 2)).unwrap();
        let live = live_rows(&m);
        assert!(matches!(m.not(a), Err(CoreError::CapacityExceeded { .. })));
        assert_eq!(live_rows(&m), live);
    }

    #[test]
    fn not_matches_software() {
        let mut m = small(2);
        let bits = m.row_bits() * 3 + 1;
        let a = pattern(bits, 3);
        let ha = m.store(&a).unwrap();
        let (hc, run) = m.not(ha).unwrap();
        let want: BitVec = (0..bits).map(|i| !a.get(i)).collect();
        assert_eq!(m.load(hc).unwrap(), want);
        assert_eq!(run.banks_used, 2);
    }

    #[test]
    fn makespan_beats_serial_busy_time_across_banks() {
        let mut m = small(8);
        let bits = m.row_bits() * 8;
        let a = m.store(&BitVec::ones(bits)).unwrap();
        let b = m.store(&pattern(bits, 2)).unwrap();
        let (_, run) = m.binary(LogicOp::And, a, b).unwrap();
        let s = run.stats();
        assert_eq!(run.banks_used, 8);
        assert!(
            s.makespan.as_f64() < s.busy_time.as_f64() * 0.2,
            "8 banks must overlap: makespan {} vs busy {}",
            s.makespan,
            s.busy_time
        );
    }

    #[test]
    fn single_bank_makespan_equals_busy_time() {
        let mut m = small(1);
        let bits = m.row_bits() * 2;
        let a = m.store(&BitVec::ones(bits)).unwrap();
        let b = m.store(&BitVec::ones(bits)).unwrap();
        let (_, run) = m.binary(LogicOp::Xor, a, b).unwrap();
        let s = run.stats();
        assert!((s.makespan.as_f64() - s.busy_time.as_f64()).abs() < 1e-9);
    }

    #[test]
    fn sharded_result_matches_single_bank_array() {
        let bits = 32 * 8 * 6 + 11;
        let a = pattern(bits, 5);
        let b = pattern(bits, 3);
        let mut wide = small(8);
        let mut narrow = small(1);
        for op in [LogicOp::And, LogicOp::Or, LogicOp::Xor] {
            let (wx, wy) = (wide.store(&a).unwrap(), wide.store(&b).unwrap());
            let (hw, _) = wide.binary(op, wx, wy).unwrap();
            let (nx, ny) = (narrow.store(&a).unwrap(), narrow.store(&b).unwrap());
            let (hn, _) = narrow.binary(op, nx, ny).unwrap();
            assert_eq!(wide.load(hw).unwrap(), narrow.load(hn).unwrap(), "{op}");
            for h in [wx, wy, hw] {
                wide.release(h).unwrap();
            }
            for h in [nx, ny, hn] {
                narrow.release(h).unwrap();
            }
        }
    }

    #[test]
    fn injected_error_corrupts_exactly_one_stripe() {
        let mut m = small(4);
        let bits = m.row_bits() * 4;
        let v = BitVec::zeros(bits);
        let h = m.store(&v).unwrap();
        let flipped = m.row_bits() + 3; // second stripe → bank 1
        let s = m.inject_bit_error(h, flipped).unwrap();
        assert_eq!(s.bank, 1);
        let got = m.load(h).unwrap();
        for i in 0..bits {
            assert_eq!(got.get(i), i == flipped, "bit {i}");
        }
    }

    #[test]
    fn release_frees_rows_for_reuse() {
        let mut m = small(2);
        let bits = m.row_bits() * 4;
        for _ in 0..40 {
            let h = m.store(&BitVec::ones(bits)).unwrap();
            m.release(h).unwrap();
        }
    }

    fn live_rows(m: &DeviceArray) -> usize {
        m.banks.iter().flat_map(|u| u.allocs.iter().map(RowAllocator::live)).sum()
    }

    #[test]
    fn eval_expr_computes_majority_and_frees_intermediates() {
        let mut m = small(2);
        let bits = m.row_bits() * 3;
        let vals: Vec<BitVec> = [2, 3, 5].iter().map(|&p| pattern(bits, p)).collect();
        let hs: Vec<_> = vals.iter().map(|v| m.store(v).unwrap()).collect();
        // ab + ac + bc: every input feeds two of the five gates.
        let expr = Expr::majority(Expr::var(0), Expr::var(1), Expr::var(2));
        let (result, stats) = m.eval_expr(&expr, &hs).unwrap();
        assert_eq!(m.load(result).unwrap(), expr.eval_bitvec(&vals));
        assert!(stats.makespan.as_f64() > 0.0);
        assert!((m.stats().makespan.as_f64() - stats.makespan.as_f64()).abs() < 1e-9);
        // The inputs are untouched, and only they and the result hold
        // rows: three stripes each.
        for (h, v) in hs.iter().zip(&vals) {
            assert_eq!(m.load(*h).unwrap(), *v);
        }
        assert_eq!(live_rows(&m), 4 * 3);
        m.release(result).unwrap();
        assert_eq!(live_rows(&m), 3 * 3);
    }

    #[test]
    fn eval_expr_rejects_unknown_variables() {
        let mut m = small(2);
        let ha = m.store(&BitVec::ones(8)).unwrap();
        assert_eq!(
            m.eval_expr(&Expr::var(3), &[ha]).map(|(h, _)| h),
            Err(CoreError::UnknownVariable { var: 3, inputs: 1 })
        );
    }

    #[test]
    fn mismatched_lengths_rejected() {
        let mut m = small(2);
        let a = m.store(&BitVec::ones(10)).unwrap();
        let b = m.store(&BitVec::ones(20)).unwrap();
        assert!(matches!(m.binary(LogicOp::And, a, b), Err(CoreError::WidthMismatch { .. })));
    }

    #[test]
    fn dead_handle_errors() {
        let mut m = small(2);
        let h = m.store(&BitVec::ones(4)).unwrap();
        m.release(h).unwrap();
        assert!(matches!(m.load(h), Err(CoreError::InvalidHandle(_))));
        assert!(matches!(m.inject_bit_error(h, 0), Err(CoreError::InvalidHandle(_))));
    }

    #[test]
    fn stale_handles_stay_dead_after_slot_reuse() {
        let mut m = small(2);
        let old = m.store(&BitVec::ones(8)).unwrap();
        m.release(old).unwrap();
        let new = m.store(&BitVec::zeros(8)).unwrap();
        assert_eq!(new.slot, old.slot, "the released slot is reused");
        assert_eq!(m.load(old), Err(CoreError::InvalidHandle(old.slot)));
        assert_eq!(m.release(old), Err(CoreError::InvalidHandle(old.slot)));
        assert!(matches!(m.not(old), Err(CoreError::InvalidHandle(_))));
        assert_eq!(m.load(new).unwrap(), BitVec::zeros(8));
    }

    #[test]
    fn handle_table_stays_within_its_high_water_mark() {
        let mut m = small(2);
        let mut live: Vec<BatchHandle> = Vec::new();
        let mut high_water = 0;
        for i in 0..10_000usize {
            // Up to four vectors live at once, released oldest first.
            live.push(m.store(&pattern(40, 3)).unwrap());
            high_water = high_water.max(live.len());
            if live.len() > i % 4 {
                m.release(live.remove(0)).unwrap();
            }
            assert!(m.vectors.len() <= high_water, "cycle {i}: {} slots", m.vectors.len());
        }
        // Operations reuse slots too.
        let (a, b) = (live[0], m.store(&pattern(40, 5)).unwrap());
        for _ in 0..50 {
            let (c, _) = m.binary(LogicOp::And, a, b).unwrap();
            m.release(c).unwrap();
        }
        assert!(m.vectors.len() <= high_water.max(live.len() + 2));
    }

    #[test]
    fn element_reads_match_load() {
        let mut m = small(4);
        let bits = m.row_bits() * 3 + 17;
        let v = pattern(bits, 5);
        let h = m.store(&v).unwrap();
        let loaded = m.load(h).unwrap();
        for i in 0..bits {
            assert_eq!(m.element(h, i).unwrap(), loaded.get(i), "bit {i}");
        }
        assert_eq!(m.element(h, bits), Err(CoreError::BitOutOfRange { bit: bits, len: bits }));
        m.release(h).unwrap();
        assert!(matches!(m.element(h, 0), Err(CoreError::InvalidHandle(_))));
    }

    #[test]
    fn analysis_verdicts_are_cached_across_stripes_and_ops() {
        let mut m = small(8);
        let bits = m.row_bits() * 16; // 2 stripes per bank
        let a = m.store(&pattern(bits, 2)).unwrap();
        let b = m.store(&pattern(bits, 3)).unwrap();
        assert!(m.analysis_cache().is_empty());
        let (c, _) = m.binary(LogicOp::And, a, b).unwrap();
        let after_first = m.analysis_cache().len();
        // 16 stripes executed, but row allocation is identical in every
        // subarray, so only a handful of distinct verdicts exist.
        assert!(after_first <= 2, "cache holds {after_first} verdicts for one op");
        let (_, _) = m.binary(LogicOp::And, a, b).unwrap();
        // Identical second op (same rows freed? no — new dst rows) may add
        // a verdict, but never one per stripe.
        assert!(m.analysis_cache().len() <= after_first + 2);
        m.release(c).unwrap();
    }

    /// Mostly-clean banks with one certain-fail column on bank 2.
    fn faulted(banks: usize, bad_bank: usize, bad_col: usize, p: f64) -> DeviceArray {
        let mut m = small(banks);
        let rb = m.row_bits();
        let models = (0..banks)
            .map(|b| {
                let mut probs = vec![0.0; rb];
                if b == bad_bank {
                    probs[bad_col] = p;
                }
                Some(ColumnFaultModel::new(0xFA17, b, probs))
            })
            .collect();
        m.set_fault_models(models);
        m
    }

    #[test]
    fn ranking_prefers_clean_banks_for_placement() {
        let m = faulted(4, 2, 7, 0.5);
        // Bank 2 is the only unreliable one: it must be ranked last.
        assert_eq!(m.bank_ranking()[3], 2);
        let mut m = m;
        let h = m.store(&BitVec::ones(m.row_bits())).unwrap();
        let p = m.placement(h).unwrap();
        assert_ne!(p[0].bank, 2, "single stripe must land on a reliable bank");
    }

    #[test]
    fn certain_fault_agrees_on_wrong_and_evades_recompute() {
        // A column that *always* fails corrupts every recompute the same
        // way, so verify-by-recompute confirms the wrong answer. This is
        // the documented blind spot that selective ParityGuard protection
        // (apps::ecc) exists for: persistent weak columns need redundancy,
        // not retries.
        let mut m = faulted(2, 0, 3, 1.0);
        let bits = m.row_bits() * 2; // one stripe per bank
        let a = m.store(&BitVec::ones(bits)).unwrap();
        let b = m.store(&BitVec::ones(bits)).unwrap();
        let checked = m.binary_checked(LogicOp::And, a, b, &FaultPolicy::default()).unwrap();
        assert!(checked.verified, "identical corruption must agree");
        assert_eq!(checked.attempts, 1);
        assert_ne!(m.load(checked.handle).unwrap(), BitVec::ones(bits));
        assert!(m.injected_flips() >= 2);
    }

    #[test]
    fn checked_op_skips_verification_on_clean_banks() {
        let mut m = small(2);
        m.set_fault_models(vec![None, None]);
        let bits = m.row_bits() * 2;
        let a = m.store(&BitVec::ones(bits)).unwrap();
        let b = m.store(&BitVec::ones(bits)).unwrap();
        let checked = m.binary_checked(LogicOp::And, a, b, &FaultPolicy::default()).unwrap();
        assert_eq!(checked.attempts, 1);
        assert!(!checked.verified);
        assert_eq!(m.load(checked.handle).unwrap(), BitVec::ones(bits));
        assert_eq!(m.reliability_metrics().counter("verify_recomputes"), 0);
        assert_eq!(m.injected_flips(), 0);
    }

    #[test]
    fn checked_op_verifies_and_recovers_intermittent_fault() {
        // Intermittent faults (p = 0.15) disagree between recomputes, so
        // verification converges to a clean result within a few retries:
        // agreeing-on-wrong needs the same column to flip in both runs of
        // a round (p² against (1-p)² for agreeing-clean).
        let mut m = faulted(2, 0, 5, 0.15);
        let bits = m.row_bits() * 2;
        let a = m.store(&BitVec::ones(bits)).unwrap();
        let b = m.store(&BitVec::ones(bits)).unwrap();
        let policy = FaultPolicy { verify: true, max_retries: 16 };
        let mut delivered_clean = 0;
        for _ in 0..10 {
            let checked = m.binary_checked(LogicOp::And, a, b, &policy).unwrap();
            if checked.verified && m.load(checked.handle).unwrap() == BitVec::ones(bits) {
                delivered_clean += 1;
            }
            m.release(checked.handle).unwrap();
        }
        assert!(delivered_clean >= 8, "only {delivered_clean}/10 verified clean");
        assert!(m.reliability_metrics().counter("retries") > 0, "p=0.15 never mismatched");
    }

    /// Prepares `op(a, b)` and executes it over exactly `workers` chunks
    /// (bypassing the cost gate), returning the result handle.
    fn run_on_workers(
        m: &mut DeviceArray,
        a: BatchHandle,
        b: BatchHandle,
        workers: usize,
        corrupt: &[(usize, usize)],
    ) -> Result<BatchHandle, CoreError> {
        let entry = m.prepare(LogicOp::Xor, a, Some(b))?;
        let mut work = std::mem::take(&mut m.op.work);
        // `(unit, row)`: that unit's first program reads a never-written
        // row, which its engine's static check rejects naming the row.
        for &(unit, row) in corrupt {
            let (_, prog) = &mut work[unit][0];
            let rows = Operands { a: row, b: row, dst: row - 1, scratch: None };
            *prog = Arc::new(compile(LogicOp::And, CompileMode::LowLatency, rows, 1).unwrap());
        }
        let ran = m.run_banks_on(&work, workers);
        m.op.work = work;
        ran?;
        Ok(m.insert(entry))
    }

    #[test]
    fn chunked_fan_out_matches_serial_path() {
        // 2 ch × 2 r × 2 b = 8 units; 5 stripes go channel-major to units
        // {0, 4, 2, 6, 1}, leaving 3, 5 and 7 idle. Worker counts 2, 3 and
        // 8 put chunk boundaries between busy and idle units (e.g. 3
        // workers: [0 1 2] [3 4 5] [6 7]).
        const UNITS: usize = 8;
        let setup = || {
            let mut m = small_topo(2, 2, 2);
            let rb = m.row_bits();
            let mut probs = vec![0.0; rb];
            probs[3] = 0.4;
            probs[rb - 2] = 0.25;
            m.set_fault_models(
                (0..UNITS).map(|u| Some(ColumnFaultModel::new(0xFA17, u, probs.clone()))).collect(),
            );
            let bits = rb * 5 - 7;
            let a = m.store(&pattern(bits, 3)).unwrap();
            let b = m.store(&pattern(bits, 5)).unwrap();
            (m, a, b)
        };
        let outcome = |workers: usize, corrupt: &[(usize, usize)]| {
            let (mut m, a, b) = setup();
            let result = run_on_workers(&mut m, a, b, workers, corrupt);
            (result.and_then(|h| m.load(h)), m.injected_flips())
        };
        let (serial, serial_flips) = outcome(1, &[]);
        assert!(serial_flips > 0, "fault models must inject for the comparison to bite");
        // The first error names the lowest failing unit, not unit 4's row.
        let (low, _) = outcome(1, &[(1, 30)]);
        let (high, _) = outcome(1, &[(4, 31)]);
        assert!(low.is_err() && high.is_err() && low != high);
        for workers in [1, 2, 3, UNITS] {
            assert_eq!(outcome(workers, &[]), (serial.clone(), serial_flips), "{workers} workers");
            let (both, _) = outcome(workers, &[(4, 31), (1, 30)]);
            assert_eq!(both, low, "{workers} workers");
        }
    }

    #[test]
    fn cumulative_stats_accumulate_makespan() {
        let mut m = small(2);
        let bits = m.row_bits() * 2;
        let a = m.store(&BitVec::ones(bits)).unwrap();
        let b = m.store(&BitVec::ones(bits)).unwrap();
        let (_, r1) = m.binary(LogicOp::And, a, b).unwrap();
        let (_, r2) = m.binary(LogicOp::Or, a, b).unwrap();
        let expect = r1.stats().makespan.as_f64() + r2.stats().makespan.as_f64();
        assert!((m.stats().makespan.as_f64() - expect).abs() < 1e-9);
    }
}
