//! The functional subarray engine.
//!
//! Executes primitive programs over whole rows with the exact
//! pseudo-precharge semantics of §3.2:
//!
//! * After an APP-class primitive, every bitline column is either
//!   **overwriting** (it kept the full-rail surviving value — Vdd for OR,
//!   Gnd for AND) or **neutral** (regulated to Vdd/2). The engine tracks
//!   this as a per-column keep-mask.
//! * The next activation applies the pending regulation: overwritten
//!   columns take the surviving value; neutral columns sense the stored
//!   cell — which is precisely `dst := dst OP src`.
//! * Trimmed primitives (tAPP/otAPP) skip the restore and *destroy* the
//!   accessed row; reading a destroyed row is an error.
//! * Dual-contact rows read and restore complemented values through their
//!   bar port, implementing NOT.
//!
//! Row storage is a single arena: one contiguous `Vec<u64>` holding every
//! data and DCC row at a fixed stride, with a parallel liveness bitmap.
//! The bitline and the regulation keep-mask are pre-sized scratch buffers,
//! so the steady-state execute loop performs **zero heap allocations per
//! primitive** — each primitive is a handful of word loops over the arena.
//!
//! Every executed primitive is accounted against the DDR3 substrate
//! (latency, energy, wordline events) via its command profile.

use crate::analysis::AnalysisCache;
use crate::bitvec::{copy_bits, set_bits, BitVec, WORD_BITS};
use crate::error::CoreError;
use crate::optimizer::PhysRow;
use crate::primitive::{Primitive, RegulateMode, RowRef};
use elp2im_dram::power::PowerModel;
use elp2im_dram::stats::RunStats;
use elp2im_dram::timing::Ddr3Timing;

/// One entry of an execution trace.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TraceEntry {
    /// Position in the executed stream.
    pub index: usize,
    /// The primitive executed.
    pub primitive: Primitive,
    /// Start time (cumulative busy time before this primitive).
    pub start: elp2im_dram::units::Ns,
    /// Duration.
    pub duration: elp2im_dram::units::Ns,
}

/// Zeroes the bits beyond `len_bits` in the last word of `words`.
fn mask_slice_tail(words: &mut [u64], len_bits: usize) {
    let tail = len_bits % WORD_BITS;
    if tail != 0 {
        if let Some(last) = words.last_mut() {
            *last &= (1u64 << tail) - 1;
        }
    }
}

/// The functional model of one ELP2IM subarray.
///
/// ```
/// use elp2im_core::engine::SubarrayEngine;
/// use elp2im_core::bitvec::BitVec;
/// use elp2im_core::primitive::{Primitive, RegulateMode, RowRef};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut e = SubarrayEngine::new(8, 16, 1);
/// e.write_row(0, BitVec::from_bools(&[true, true, false, false, true, false, true, false]))?;
/// e.write_row(1, BitVec::from_bools(&[true, false, true, false, false, false, true, true]))?;
/// // In-place OR: APP(r0) then AP(r1) computes r1 := r0 | r1.
/// e.execute(&Primitive::App { row: RowRef::Data(0), mode: RegulateMode::Or })?;
/// e.execute(&Primitive::Ap { row: RowRef::Data(1) })?;
/// assert_eq!(e.row(RowRef::Data(1))?.to_bools(),
///            vec![true, true, true, false, true, false, true, true]);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct SubarrayEngine {
    width: usize,
    /// Arena stride: words per physical row.
    words_per_row: usize,
    data_rows: usize,
    dcc_rows: usize,
    /// All row contents, `[dcc rows..., data rows...]`, one stride each
    /// (reserved rows first: they are touched by nearly every program, so
    /// keeping them at low indices lets the lazy zero-fill stop at the
    /// highest *data* row actually used). DCC rows store the true-port
    /// value; the bar port complements on the fly. Allocated lazily on the first write: a module or device array
    /// constructs one engine per subarray, but a given workload usually
    /// touches only a few, and an untouched engine must not pay for (or
    /// zero) row storage. Every reader is liveness-gated, and rows only
    /// become live through the writing paths, which allocate first.
    arena: Vec<u64>,
    /// Per physical row: does it currently hold valid data?
    live: Vec<bool>,
    /// Pending regulation mode left by an APP-class primitive, if any.
    reg_mode: Option<RegulateMode>,
    /// Scratch: columns holding the full-rail surviving value (overwrite).
    /// Sized with the arena on first write; empty until then.
    reg_keep: Vec<u64>,
    /// Scratch: the value latched on the bitline by the last activation.
    /// Sized with the arena on first write; empty until then.
    bitline: Vec<u64>,
    timing: Ddr3Timing,
    power: PowerModel,
    stats: RunStats,
    trace: Option<Vec<TraceEntry>>,
    /// Wordline-raise counts per physical row: `[dcc rows..., data rows...]`.
    /// Reserved rows absorb most of a PIM workload's activations (they are
    /// touched by nearly every operation), which matters for disturbance
    /// budgets (row-hammer-style neighbor disturb).
    activation_counts: Vec<u64>,
}

impl SubarrayEngine {
    /// Creates an engine with `data_rows` regular rows of `width` bits and
    /// `dcc_rows` reserved dual-contact rows (the paper's base design has
    /// one; the accelerator configuration of §6.3.3 has two).
    pub fn new(width: usize, data_rows: usize, dcc_rows: usize) -> Self {
        let words_per_row = width.div_ceil(WORD_BITS);
        let rows = data_rows + dcc_rows;
        SubarrayEngine {
            width,
            words_per_row,
            data_rows,
            dcc_rows,
            arena: Vec::new(),
            live: vec![false; rows],
            reg_mode: None,
            reg_keep: Vec::new(),
            bitline: Vec::new(),
            timing: Ddr3Timing::ddr3_1600(),
            power: PowerModel::micron_ddr3_1600(),
            stats: RunStats::new(),
            trace: None,
            activation_counts: vec![0; rows],
        }
    }

    /// Wordline-raise count of one physical row.
    pub fn activation_count(&self, row: RowRef) -> u64 {
        let idx = match row {
            RowRef::Data(i) => self.dcc_rows + i,
            RowRef::DccTrue(i) | RowRef::DccBar(i) => i,
        };
        self.activation_counts.get(idx).copied().unwrap_or(0)
    }

    /// The most-activated row and its count — the disturbance hot spot.
    /// `None` for an engine with no rows at all.
    pub fn hottest_row(&self) -> Option<(RowRef, u64)> {
        let (idx, &count) = self.activation_counts.iter().enumerate().max_by_key(|&(_, c)| c)?;
        let row = if idx < self.dcc_rows {
            RowRef::DccTrue(idx)
        } else {
            RowRef::Data(idx - self.dcc_rows)
        };
        Some((row, count))
    }

    /// Enables primitive-level execution tracing (start time, duration
    /// per command) — the view a logic analyzer on the command bus would
    /// give.
    pub fn enable_trace(&mut self) {
        self.trace = Some(Vec::new());
    }

    /// The recorded trace, if tracing is enabled.
    pub fn trace(&self) -> &[TraceEntry] {
        self.trace.as_deref().unwrap_or(&[])
    }

    /// Row width in bits.
    pub fn width(&self) -> usize {
        self.width
    }

    /// Number of regular data rows.
    pub fn data_rows(&self) -> usize {
        self.data_rows
    }

    /// Number of reserved dual-contact rows.
    pub fn dcc_rows(&self) -> usize {
        self.dcc_rows
    }

    /// Accumulated substrate statistics.
    pub fn stats(&self) -> &RunStats {
        &self.stats
    }

    /// Resets the statistics counters (rows keep their contents).
    pub fn reset_stats(&mut self) {
        self.stats = RunStats::new();
    }

    /// The timing parameter set in use.
    pub fn timing(&self) -> &Ddr3Timing {
        &self.timing
    }

    /// Whether a regulation is pending (a well-formed program ends with
    /// none).
    pub fn has_pending_regulation(&self) -> bool {
        self.reg_mode.is_some()
    }

    fn out_of_range(&self, row: RowRef) -> CoreError {
        CoreError::RowOutOfRange { row, rows: self.data_rows, dcc_rows: self.dcc_rows }
    }

    /// Arena index of a physical row, or an out-of-range error.
    fn phys_index(&self, row: RowRef) -> Result<usize, CoreError> {
        match row {
            RowRef::Data(i) if i < self.data_rows => Ok(self.dcc_rows + i),
            RowRef::DccTrue(i) | RowRef::DccBar(i) if i < self.dcc_rows => Ok(i),
            _ => Err(self.out_of_range(row)),
        }
    }

    /// Makes the arena stride for physical row `idx` addressable. Must be
    /// called before any path that writes `self.arena`; readers never need
    /// it because they are liveness-gated and liveness implies a prior
    /// write.
    ///
    /// The first call reserves the full arena capacity in one allocation
    /// (so later growth never reallocates or moves row data) but only
    /// *zeroes* strides up to the highest row actually written: a workload
    /// that touches four rows of a 512-row subarray initializes four
    /// strides, not 512.
    fn ensure_row(&mut self, idx: usize) {
        if self.bitline.is_empty() && self.words_per_row > 0 {
            self.arena.reserve_exact((self.data_rows + self.dcc_rows) * self.words_per_row);
            // The bitline/keep-mask scratch rows ride along: primitives can
            // only touch engines that hold at least one live row.
            self.reg_keep = vec![0; self.words_per_row];
            self.bitline = vec![0; self.words_per_row];
        }
        let need = (idx + 1) * self.words_per_row;
        if self.arena.len() < need {
            self.arena.resize(need, 0);
        }
    }

    /// Whether a physical row (analyzer addressing) holds data.
    fn phys_row_live(&self, row: PhysRow) -> bool {
        match row {
            PhysRow::Data(i) => i < self.data_rows && self.live[self.dcc_rows + i],
            PhysRow::Dcc(i) => i < self.dcc_rows && self.live[i],
        }
    }

    /// Snapshot of every physical row currently holding data, in analyzer
    /// addressing (data rows first, then reserved rows). This is the
    /// live-in set the static analyzers assume; the batch layer records
    /// it, packed, for the plan-level verifier.
    pub fn live_rows(&self) -> Vec<PhysRow> {
        let mut out = Vec::new();
        for i in 0..self.data_rows {
            if self.live[self.dcc_rows + i] {
                out.push(PhysRow::Data(i));
            }
        }
        for i in 0..self.dcc_rows {
            if self.live[i] {
                out.push(PhysRow::Dcc(i));
            }
        }
        out
    }

    /// [`SubarrayEngine::live_rows`] restricted to the data rows set in
    /// the packed bitset `owned` (reserved rows unfiltered), appended to
    /// `out` as a packed bitset of `(data_rows + dcc_rows).div_ceil(64)`
    /// words in the same analyzer order: bit `i` is data row `i`, bit
    /// `data_rows + j` reserved row `j`. Costs one step per owned row, not
    /// per row.
    pub(crate) fn pack_live_rows(&self, owned: &[u64], out: &mut Vec<u64>) {
        let base = out.len();
        out.resize(base + (self.data_rows + self.dcc_rows).div_ceil(WORD_BITS), 0);
        let packed = &mut out[base..];
        let data = set_bits(owned).filter(|&i| i < self.data_rows && self.live[self.dcc_rows + i]);
        let dcc = (0..self.dcc_rows).filter(|&j| self.live[j]).map(|j| self.data_rows + j);
        for bit in data.chain(dcc) {
            packed[bit / WORD_BITS] |= 1 << (bit % WORD_BITS);
        }
    }

    /// Writes a data row directly (host-side store, outside PIM timing).
    ///
    /// # Errors
    ///
    /// [`CoreError::WidthMismatch`] or [`CoreError::RowOutOfRange`].
    pub fn write_row(&mut self, index: usize, value: BitVec) -> Result<(), CoreError> {
        if value.len() != self.width {
            return Err(CoreError::WidthMismatch { expected: self.width, got: value.len() });
        }
        if index >= self.data_rows {
            return Err(self.out_of_range(RowRef::Data(index)));
        }
        let idx = self.dcc_rows + index;
        self.ensure_row(idx);
        let wpr = self.words_per_row;
        self.arena[idx * wpr..(idx + 1) * wpr].copy_from_slice(value.words());
        self.live[idx] = true;
        Ok(())
    }

    /// Writes a window of `src` into data row `index` with no intermediate
    /// row-sized allocation: bits `src_start..` of `src` (as many as fit
    /// the row, clamped to what `src` holds) land in columns `0..`, any
    /// remaining columns are zero-filled, and the row becomes live. This
    /// is the zero-copy striping path used by the batch store.
    ///
    /// # Errors
    ///
    /// [`CoreError::RowOutOfRange`] for a bad row index.
    pub fn write_row_from(
        &mut self,
        index: usize,
        src: &BitVec,
        src_start: usize,
    ) -> Result<(), CoreError> {
        if index >= self.data_rows {
            return Err(self.out_of_range(RowRef::Data(index)));
        }
        let idx = self.dcc_rows + index;
        self.ensure_row(idx);
        let n = self.width.min(src.len().saturating_sub(src_start));
        let wpr = self.words_per_row;
        let dst = &mut self.arena[idx * wpr..(idx + 1) * wpr];
        dst.fill(0);
        copy_bits(dst, 0, src.words(), src_start, n);
        self.live[idx] = true;
        Ok(())
    }

    /// Reads data row `index` into `dst` starting at bit `dst_start`
    /// (zero-copy host load path). Copies `min(width, dst.len() -
    /// dst_start)` bits; the rest of `dst` is preserved.
    ///
    /// # Errors
    ///
    /// Out-of-range or non-live rows are errors.
    pub fn read_row_into(
        &self,
        index: usize,
        dst: &mut BitVec,
        dst_start: usize,
    ) -> Result<(), CoreError> {
        if index >= self.data_rows {
            return Err(self.out_of_range(RowRef::Data(index)));
        }
        let idx = self.dcc_rows + index;
        if !self.live[idx] {
            return Err(CoreError::UninitializedRow(RowRef::Data(index)));
        }
        let n = self.width.min(dst.len().saturating_sub(dst_start));
        let wpr = self.words_per_row;
        copy_bits(dst.words_mut(), dst_start, &self.arena[idx * wpr..(idx + 1) * wpr], 0, n);
        Ok(())
    }

    /// Reads the stored content of a row (through the referenced port).
    ///
    /// # Errors
    ///
    /// Out-of-range, destroyed, or uninitialized rows are errors.
    pub fn row(&self, row: RowRef) -> Result<BitVec, CoreError> {
        let idx = self.phys_index(row)?;
        if !self.live[idx] {
            return Err(CoreError::UninitializedRow(row));
        }
        let wpr = self.words_per_row;
        let mut v = BitVec::from_words(&self.arena[idx * wpr..(idx + 1) * wpr], self.width);
        if matches!(row, RowRef::DccBar(_)) {
            v.not_assign();
        }
        Ok(v)
    }

    /// Reads one bit of a row through the referenced port, without
    /// materializing the whole row.
    ///
    /// # Errors
    ///
    /// Out-of-range columns or rows and non-live rows are errors.
    pub fn bit(&self, row: RowRef, column: usize) -> Result<bool, CoreError> {
        if column >= self.width {
            return Err(CoreError::WidthMismatch { expected: self.width, got: column + 1 });
        }
        let idx = self.phys_index(row)?;
        if !self.live[idx] {
            return Err(CoreError::UninitializedRow(row));
        }
        let w = self.arena[idx * self.words_per_row + column / WORD_BITS];
        let bit = (w >> (column % WORD_BITS)) & 1 == 1;
        Ok(if matches!(row, RowRef::DccBar(_)) { !bit } else { bit })
    }

    /// Whether the row currently holds valid data.
    pub fn is_live(&self, row: RowRef) -> bool {
        self.phys_index(row).is_ok_and(|idx| self.live[idx])
    }

    /// Stores the bitline through `row`'s port (bar port stores the
    /// complement of what the bitline carries — the cell keeps `!value`).
    fn restore(&mut self, row: RowRef) -> Result<(), CoreError> {
        let idx = self.phys_index(row)?;
        self.ensure_row(idx);
        let wpr = self.words_per_row;
        let dst = &mut self.arena[idx * wpr..(idx + 1) * wpr];
        if matches!(row, RowRef::DccBar(_)) {
            for (d, &s) in dst.iter_mut().zip(&self.bitline) {
                *d = !s;
            }
            mask_slice_tail(dst, self.width);
        } else {
            dst.copy_from_slice(&self.bitline);
        }
        self.live[idx] = true;
        Ok(())
    }

    fn destroy(&mut self, row: RowRef) -> Result<(), CoreError> {
        let idx = self.phys_index(row)?;
        self.live[idx] = false;
        Ok(())
    }

    /// Activates `row`: senses the stored value through the referenced
    /// port, applies any pending regulation, and leaves the result latched
    /// in the bitline scratch buffer.
    fn activate(&mut self, row: RowRef) -> Result<(), CoreError> {
        let idx = self.phys_index(row)?;
        if !self.live[idx] {
            // The row was never written or was destroyed by a trim; either
            // way sensing it is undefined. (Errors here leave the pending
            // regulation in place — no charge has moved yet.)
            return Err(CoreError::DestroyedRowRead(row));
        }
        let wpr = self.words_per_row;
        let stored = &self.arena[idx * wpr..(idx + 1) * wpr];
        let bar = matches!(row, RowRef::DccBar(_));
        match self.reg_mode.take() {
            None => {
                for (d, &s) in self.bitline.iter_mut().zip(stored) {
                    *d = if bar { !s } else { s };
                }
            }
            // Overwriting columns snap to the surviving rail (Vdd for OR,
            // Gnd for AND); neutral columns sense the cell. The keep-mask
            // is the regulating bitline itself: OR keeps 1-columns, so the
            // merge collapses to `v | keep`; AND keeps (overwrites to 0)
            // the complement's columns, so it collapses to `v & keep`.
            Some(RegulateMode::Or) => {
                for ((d, &s), &k) in self.bitline.iter_mut().zip(stored).zip(&self.reg_keep) {
                    *d = if bar { !s } else { s } | k;
                }
            }
            Some(RegulateMode::And) => {
                for ((d, &s), &k) in self.bitline.iter_mut().zip(stored).zip(&self.reg_keep) {
                    *d = (if bar { !s } else { s }) & k;
                }
            }
        }
        if bar {
            mask_slice_tail(&mut self.bitline, self.width);
        }
        Ok(())
    }

    /// Latches the post-activation bitline as a pending regulation. Both
    /// modes keep the bitline verbatim: for OR the 1-columns overwrite
    /// with Vdd (`v | bitline` on apply); for AND the 0-columns overwrite
    /// with Gnd, and `(v & !(!bitline))` collapses to `v & bitline`.
    fn set_regulation(&mut self, mode: RegulateMode) {
        self.reg_keep.copy_from_slice(&self.bitline);
        self.reg_mode = Some(mode);
    }

    fn check_dual_decoder(&self, p: &Primitive, a: RowRef, b: RowRef) -> Result<(), CoreError> {
        if p.requires_dual_decoder() && a.is_reserved() == b.is_reserved() {
            return Err(CoreError::DualDecoderViolation { a, b });
        }
        Ok(())
    }

    fn account(&mut self, p: &Primitive) {
        for row in p.rows() {
            let idx = match row {
                RowRef::Data(i) => self.dcc_rows + i,
                RowRef::DccTrue(i) | RowRef::DccBar(i) => i,
            };
            if let Some(c) = self.activation_counts.get_mut(idx) {
                *c += 1;
            }
        }
        let profile = p.profile(&self.timing);
        let energy = self.power.command_energy(&profile);
        if let Some(trace) = &mut self.trace {
            trace.push(TraceEntry {
                index: trace.len(),
                primitive: *p,
                start: self.stats.busy_time,
                duration: profile.duration,
            });
        }
        self.stats.record(profile.class, profile.duration, profile.total_wordline_events, energy);
        // A single subarray executes strictly serially, so the wall clock
        // equals the busy time; stamping it here keeps serial runs from
        // reporting a zero makespan. Background (standby) energy accrues
        // over that same window.
        self.stats.makespan = self.stats.busy_time;
        self.stats.background_energy = self.power.background_energy(self.stats.busy_time, 1.0);
    }

    /// Executes one primitive.
    ///
    /// # Errors
    ///
    /// Propagates addressing, destroyed-row, and decoder-domain errors; on
    /// error the engine state is unchanged except that a consumed
    /// regulation is not reinstated (matching hardware, where the charge is
    /// gone).
    pub fn execute(&mut self, p: &Primitive) -> Result<(), CoreError> {
        match *p {
            Primitive::Ap { row } => {
                self.activate(row)?;
                self.restore(row)?;
            }
            Primitive::Aap { src, dst } | Primitive::OAap { src, dst } => {
                self.check_dual_decoder(p, src, dst)?;
                self.activate(src)?;
                self.restore(src)?;
                self.restore(dst)?;
            }
            Primitive::App { row, mode } | Primitive::OApp { row, mode } => {
                self.activate(row)?;
                self.restore(row)?;
                self.set_regulation(mode);
            }
            Primitive::TApp { row, mode } | Primitive::OtApp { row, mode } => {
                self.activate(row)?;
                self.destroy(row)?;
                self.set_regulation(mode);
            }
            Primitive::OAppCopy { src, dst, mode } => {
                self.check_dual_decoder(p, src, dst)?;
                self.activate(src)?;
                self.restore(src)?;
                self.restore(dst)?;
                self.set_regulation(mode);
            }
        }
        self.account(p);
        Ok(())
    }

    /// Executes a sequence of primitives in order.
    ///
    /// # Errors
    ///
    /// Stops at (and returns) the first failing primitive.
    pub fn run(&mut self, program: &[Primitive]) -> Result<(), CoreError> {
        for p in program {
            self.execute(p)?;
        }
        Ok(())
    }

    /// Statically verifies `program` against the engine's current state
    /// (the §5.1 memory-controller check on a buffered sequence), then
    /// executes it — the program is rejected *before* any primitive issues,
    /// so an invalid sequence cannot partially corrupt row state.
    ///
    /// Debug builds additionally assert the sanitizer cross-check: a
    /// program the analyzer accepted must execute without an engine error
    /// (static and dynamic semantics agree).
    ///
    /// # Errors
    ///
    /// [`CoreError::StaticViolation`] when the analyzer rejects the
    /// program; engine errors otherwise (which the cross-check makes
    /// unreachable for accepted programs).
    ///
    /// # Panics
    ///
    /// Debug builds panic if an analyzer-accepted program still trips an
    /// engine error — a static/dynamic divergence bug.
    pub fn run_verified(&mut self, program: &crate::isa::Program) -> Result<(), CoreError> {
        self.run_verified_inner(program, None)
    }

    /// Like [`SubarrayEngine::run_verified`], memoizing the analyzer
    /// verdict in `cache` so a program striped across many subarrays in
    /// equivalent states is analyzed once, not once per stripe.
    pub fn run_verified_cached(
        &mut self,
        program: &crate::isa::Program,
        cache: &AnalysisCache,
    ) -> Result<(), CoreError> {
        self.run_verified_inner(program, Some(cache))
    }

    fn run_verified_inner(
        &mut self,
        program: &crate::isa::Program,
        cache: Option<&AnalysisCache>,
    ) -> Result<(), CoreError> {
        use crate::validate::SubarrayShape;
        let shape = SubarrayShape { data_rows: self.data_rows, dcc_rows: self.dcc_rows };
        let verdict = match cache {
            Some(cache) => cache.first_violation(program, shape, |r| self.phys_row_live(r)),
            None => {
                let mut live_in: Vec<PhysRow> = Vec::new();
                for i in 0..self.data_rows {
                    if self.live[self.dcc_rows + i] {
                        live_in.push(PhysRow::Data(i));
                    }
                }
                for i in 0..self.dcc_rows {
                    if self.live[i] {
                        live_in.push(PhysRow::Dcc(i));
                    }
                }
                let report = crate::analysis::analyze(program, shape, &live_in);
                report.to_violations().into_iter().next()
            }
        };
        if let Some(v) = verdict {
            return Err(v.into());
        }
        for p in program.primitives() {
            if let Err(e) = self.execute(p) {
                debug_assert!(
                    false,
                    "sanitizer: analyzer accepted '{}' but '{p}' failed: {e}",
                    program.name()
                );
                return Err(e);
            }
        }
        Ok(())
    }

    /// Failure injection: flips one stored bit, modeling a sensing error
    /// of the kind the Fig. 11 Monte-Carlo quantifies (e.g. a TRA margin
    /// collapse or a Vdd/2 mismatch flip). Subsequent operations propagate
    /// the corruption, which is how the §6.1.2 ECC discussion manifests:
    /// bitwise PIM results carry no error-correction. (Flipping the stored
    /// cell flips the readout on both ports of a DCC row.)
    ///
    /// # Errors
    ///
    /// The target row must be live; `column` must be in range.
    pub fn inject_bit_error(&mut self, row: RowRef, column: usize) -> Result<(), CoreError> {
        if column >= self.width {
            return Err(CoreError::WidthMismatch { expected: self.width, got: column + 1 });
        }
        let idx = self.phys_index(row)?;
        if !self.live[idx] {
            return Err(CoreError::UninitializedRow(row));
        }
        self.arena[idx * self.words_per_row + column / WORD_BITS] ^= 1 << (column % WORD_BITS);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bv(bits: &[u8]) -> BitVec {
        BitVec::from_bools(&bits.iter().map(|&b| b != 0).collect::<Vec<_>>())
    }

    fn engine() -> SubarrayEngine {
        let mut e = SubarrayEngine::new(4, 8, 2);
        e.write_row(0, bv(&[1, 1, 0, 0])).unwrap();
        e.write_row(1, bv(&[1, 0, 1, 0])).unwrap();
        e
    }

    #[test]
    fn in_place_or_and_truth_tables() {
        // APP(r0)·or ; AP(r1) → r1 := r0 | r1 across all column combos.
        let mut e = engine();
        e.run(&[
            Primitive::App { row: RowRef::Data(0), mode: RegulateMode::Or },
            Primitive::Ap { row: RowRef::Data(1) },
        ])
        .unwrap();
        assert_eq!(e.row(RowRef::Data(1)).unwrap(), bv(&[1, 1, 1, 0]));
        // Source must be restored intact.
        assert_eq!(e.row(RowRef::Data(0)).unwrap(), bv(&[1, 1, 0, 0]));

        let mut e = engine();
        e.run(&[
            Primitive::App { row: RowRef::Data(0), mode: RegulateMode::And },
            Primitive::Ap { row: RowRef::Data(1) },
        ])
        .unwrap();
        assert_eq!(e.row(RowRef::Data(1)).unwrap(), bv(&[1, 0, 0, 0]));
    }

    #[test]
    fn packed_live_rows_keep_owned_data_and_live_dcc_rows() {
        // 70 data + 2 reserved rows: the packed set spans two words.
        let mut e = SubarrayEngine::new(4, 70, 2);
        for row in [0, 5, 65, 69] {
            e.write_row(row, bv(&[1, 0, 1, 0])).unwrap();
        }
        e.execute(&Primitive::Aap { src: RowRef::Data(0), dst: RowRef::DccTrue(1) }).unwrap();
        // Owned: rows 0, 3 (never written), 65 and 69 — not 5.
        let owned = [1 | 1 << 3, 1 << 1 | 1 << 5];
        let mut out = vec![u64::MAX]; // appends after what is already there
        e.pack_live_rows(&owned, &mut out);
        assert_eq!(out, vec![u64::MAX, 1, 1 << 1 | 1 << 5 | 1 << 7]);
        let rows: Vec<usize> = set_bits(&out[1..]).collect();
        assert_eq!(rows, vec![0, 65, 69, 71]); // 71 = data_rows + DCC row 1
    }

    #[test]
    fn aap_copies() {
        let mut e = engine();
        e.execute(&Primitive::Aap { src: RowRef::Data(0), dst: RowRef::Data(2) }).unwrap();
        assert_eq!(e.row(RowRef::Data(2)).unwrap(), bv(&[1, 1, 0, 0]));
    }

    #[test]
    fn oaap_requires_different_domains() {
        let mut e = engine();
        let err =
            e.execute(&Primitive::OAap { src: RowRef::Data(0), dst: RowRef::Data(2) }).unwrap_err();
        assert!(matches!(err, CoreError::DualDecoderViolation { .. }));
        // Data ↔ reserved is fine.
        e.execute(&Primitive::OAap { src: RowRef::Data(0), dst: RowRef::DccTrue(0) }).unwrap();
        assert_eq!(e.row(RowRef::DccTrue(0)).unwrap(), bv(&[1, 1, 0, 0]));
    }

    #[test]
    fn dcc_bar_reads_complement_and_restores_complement() {
        let mut e = engine();
        e.execute(&Primitive::OAap { src: RowRef::Data(0), dst: RowRef::DccTrue(0) }).unwrap();
        assert_eq!(e.row(RowRef::DccBar(0)).unwrap(), bv(&[0, 0, 1, 1]));
        // NOT: copy the bar-port readout into a data row.
        e.execute(&Primitive::OAap { src: RowRef::DccBar(0), dst: RowRef::Data(3) }).unwrap();
        assert_eq!(e.row(RowRef::Data(3)).unwrap(), bv(&[0, 0, 1, 1]));
        // The DCC itself must be unchanged (restored through the bar port).
        assert_eq!(e.row(RowRef::DccTrue(0)).unwrap(), bv(&[1, 1, 0, 0]));
    }

    #[test]
    fn trimmed_app_destroys_row() {
        let mut e = engine();
        e.execute(&Primitive::TApp { row: RowRef::Data(0), mode: RegulateMode::Or }).unwrap();
        // Regulation is pending; consume it into r1.
        e.execute(&Primitive::Ap { row: RowRef::Data(1) }).unwrap();
        assert_eq!(e.row(RowRef::Data(1)).unwrap(), bv(&[1, 1, 1, 0]));
        // r0 is now unreadable.
        let err = e.row(RowRef::Data(0)).unwrap_err();
        assert!(matches!(err, CoreError::UninitializedRow(_)));
        let err = e.execute(&Primitive::Ap { row: RowRef::Data(0) }).unwrap_err();
        assert!(matches!(err, CoreError::DestroyedRowRead(_)));
        // Rewriting revives it.
        e.write_row(0, bv(&[0, 1, 0, 1])).unwrap();
        assert_eq!(e.row(RowRef::Data(0)).unwrap(), bv(&[0, 1, 0, 1]));
    }

    #[test]
    fn regulated_overwrite_through_bar_port() {
        // AND-regulate by r1 = 1010, then activate the DCC bar port:
        // columns where r1=0 read 0; else they read !dcc.
        let mut e = engine();
        e.execute(&Primitive::OAap { src: RowRef::Data(0), dst: RowRef::DccTrue(0) }).unwrap();
        // dcc = 1100, bar readout = 0011
        e.execute(&Primitive::App { row: RowRef::Data(1), mode: RegulateMode::And }).unwrap();
        e.execute(&Primitive::Ap { row: RowRef::DccBar(0) }).unwrap();
        // value = r1 AND !dcc = 1010 & 0011 = 0010
        assert_eq!(e.row(RowRef::DccBar(0)).unwrap(), bv(&[0, 0, 1, 0]));
        // And the stored cell is the complement of that bitline value.
        assert_eq!(e.row(RowRef::DccTrue(0)).unwrap(), bv(&[1, 1, 0, 1]));
    }

    #[test]
    fn stats_accumulate_commands_and_time() {
        let mut e = engine();
        e.run(&[
            Primitive::App { row: RowRef::Data(0), mode: RegulateMode::Or },
            Primitive::Ap { row: RowRef::Data(1) },
        ])
        .unwrap();
        let s = e.stats();
        assert_eq!(s.total_commands(), 2);
        // APP (67) + AP (49) ≈ 115.4 ns of busy time.
        assert!((s.busy_time.as_f64() - 115.35).abs() < 1.0, "busy = {}", s.busy_time);
        assert!(s.energy.as_f64() > 0.0);
        assert_eq!(s.wordline_activations, 2);
    }

    #[test]
    fn width_mismatch_rejected() {
        let mut e = SubarrayEngine::new(4, 2, 1);
        let err = e.write_row(0, BitVec::zeros(5)).unwrap_err();
        assert_eq!(err, CoreError::WidthMismatch { expected: 4, got: 5 });
    }

    #[test]
    fn out_of_range_rows_rejected() {
        let mut e = engine();
        assert!(matches!(
            e.execute(&Primitive::Ap { row: RowRef::Data(99) }),
            Err(CoreError::RowOutOfRange { .. })
        ));
        assert!(matches!(e.row(RowRef::DccTrue(5)), Err(CoreError::RowOutOfRange { .. })));
    }

    #[test]
    fn uninitialized_read_is_an_error() {
        let e = SubarrayEngine::new(4, 2, 1);
        assert!(matches!(e.row(RowRef::Data(0)), Err(CoreError::UninitializedRow(_))));
    }

    #[test]
    fn write_read_windows_roundtrip() {
        // Striping helpers: unaligned windows in and out of rows.
        let mut e = SubarrayEngine::new(64, 4, 1);
        let src: BitVec = (0..150).map(|i| i % 3 == 0).collect();
        e.write_row_from(0, &src, 0).unwrap();
        e.write_row_from(1, &src, 64).unwrap();
        e.write_row_from(2, &src, 128).unwrap(); // partial: 22 bits + zero fill
        e.write_row_from(3, &src, 7).unwrap(); // unaligned window
        for c in 0..64 {
            assert_eq!(e.bit(RowRef::Data(0), c).unwrap(), src.get(c));
            assert_eq!(e.bit(RowRef::Data(1), c).unwrap(), src.get(64 + c));
            let expect = if c < 22 { src.get(128 + c) } else { false };
            assert_eq!(e.bit(RowRef::Data(2), c).unwrap(), expect);
            assert_eq!(e.bit(RowRef::Data(3), c).unwrap(), src.get(7 + c));
        }
        let mut out = BitVec::zeros(150);
        e.read_row_into(0, &mut out, 0).unwrap();
        e.read_row_into(1, &mut out, 64).unwrap();
        e.read_row_into(2, &mut out, 128).unwrap();
        assert_eq!(out.to_bools()[..128], src.to_bools()[..128]);
        assert_eq!(out.to_bools()[128..150], src.to_bools()[128..150]);
        // Errors: bad index, dead row, bad column.
        assert!(e.write_row_from(9, &src, 0).is_err());
        assert!(e.read_row_into(9, &mut out, 0).is_err());
        let dead = SubarrayEngine::new(64, 1, 0);
        assert!(dead.read_row_into(0, &mut out, 0).is_err());
        assert!(e.bit(RowRef::Data(0), 64).is_err());
    }

    #[test]
    fn bit_reads_through_ports() {
        let mut e = engine();
        e.execute(&Primitive::OAap { src: RowRef::Data(0), dst: RowRef::DccTrue(0) }).unwrap();
        for c in 0..4 {
            assert_eq!(e.bit(RowRef::Data(0), c).unwrap(), e.row(RowRef::Data(0)).unwrap().get(c));
            assert_eq!(
                e.bit(RowRef::DccBar(0), c).unwrap(),
                e.row(RowRef::DccBar(0)).unwrap().get(c)
            );
        }
        assert!(matches!(e.bit(RowRef::Data(7), 0), Err(CoreError::UninitializedRow(_))));
    }

    #[test]
    fn activation_counts_identify_the_reserved_row_hot_spot() {
        use crate::compile::{compile, CompileMode, LogicOp, Operands};
        let mut e = SubarrayEngine::new(4, 8, 1);
        e.write_row(0, bv(&[1, 1, 0, 0])).unwrap();
        e.write_row(1, bv(&[1, 0, 1, 0])).unwrap();
        e.write_row(2, bv(&[0, 0, 0, 0])).unwrap();
        // Run 10 XORs: every one hammers the single reserved row.
        let prog = compile(LogicOp::Xor, CompileMode::LowLatency, Operands::standard(), 1).unwrap();
        for _ in 0..10 {
            e.run(prog.primitives()).unwrap();
        }
        let (hottest, count) = e.hottest_row().expect("engine has rows");
        assert_eq!(hottest, RowRef::DccTrue(0), "the DCC absorbs the workload");
        // seq5 raises the DCC wordline 4 times per XOR (two copies in,
        // one compute-out, one trimmed read).
        assert_eq!(count, 40);
        assert_eq!(e.activation_count(RowRef::Data(0)), 20); // a read twice/op
        assert_eq!(e.activation_count(RowRef::Data(7)), 0);
    }

    #[test]
    fn hottest_row_of_empty_engine_is_none() {
        let e = SubarrayEngine::new(4, 0, 0);
        assert!(e.hottest_row().is_none());
    }

    #[test]
    fn trace_records_primitives_with_cumulative_times() {
        let mut e = engine();
        e.enable_trace();
        assert!(e.trace().is_empty());
        e.run(&[
            Primitive::App { row: RowRef::Data(0), mode: RegulateMode::Or },
            Primitive::Ap { row: RowRef::Data(1) },
        ])
        .unwrap();
        let tr = e.trace();
        assert_eq!(tr.len(), 2);
        assert_eq!(tr[0].index, 0);
        assert_eq!(tr[0].start.as_f64(), 0.0);
        assert!((tr[0].duration.as_f64() - 66.6).abs() < 1.0);
        // Second primitive starts where the first ended.
        assert!((tr[1].start.as_f64() - tr[0].duration.as_f64()).abs() < 1e-9);
        assert!(matches!(tr[1].primitive, Primitive::Ap { .. }));
    }

    #[test]
    fn injected_errors_propagate_through_operations() {
        let mut e = engine();
        // Corrupt one bit of r0, then compute r1 := r0 | r1 in place.
        e.inject_bit_error(RowRef::Data(0), 3).unwrap();
        assert_eq!(e.row(RowRef::Data(0)).unwrap(), bv(&[1, 1, 0, 1]));
        e.run(&[
            Primitive::App { row: RowRef::Data(0), mode: RegulateMode::Or },
            Primitive::Ap { row: RowRef::Data(1) },
        ])
        .unwrap();
        // Without the fault the result would be 1110; the fault makes
        // column 3 overwrite to '1'.
        assert_eq!(e.row(RowRef::Data(1)).unwrap(), bv(&[1, 1, 1, 1]));

        // Injection through a DCC bar port flips the stored complement.
        let mut e = engine();
        e.execute(&Primitive::OAap { src: RowRef::Data(0), dst: RowRef::DccTrue(0) }).unwrap();
        e.inject_bit_error(RowRef::DccBar(0), 0).unwrap();
        assert_eq!(e.row(RowRef::DccTrue(0)).unwrap(), bv(&[0, 1, 0, 0]));

        // Errors on dead rows / bad columns are rejected.
        assert!(e.inject_bit_error(RowRef::Data(7), 0).is_err());
        assert!(e.inject_bit_error(RowRef::Data(0), 99).is_err());
    }

    #[test]
    fn pending_regulation_is_tracked() {
        let mut e = engine();
        assert!(!e.has_pending_regulation());
        e.execute(&Primitive::App { row: RowRef::Data(0), mode: RegulateMode::Or }).unwrap();
        assert!(e.has_pending_regulation());
        e.execute(&Primitive::Ap { row: RowRef::Data(1) }).unwrap();
        assert!(!e.has_pending_regulation());
    }

    #[test]
    fn wide_rows_keep_tail_columns_clean() {
        // A 70-bit row exercises the tail-masking of the bar-port
        // complement and the regulation kernels.
        let mut e = SubarrayEngine::new(70, 4, 1);
        let a: BitVec = (0..70).map(|i| i % 3 == 0).collect();
        let b: BitVec = (0..70).map(|i| i % 5 == 0).collect();
        e.write_row(0, a.clone()).unwrap();
        e.write_row(1, b.clone()).unwrap();
        // NOT via the DCC: dcc := a, then read the bar port back out.
        e.execute(&Primitive::OAap { src: RowRef::Data(0), dst: RowRef::DccTrue(0) }).unwrap();
        e.execute(&Primitive::OAap { src: RowRef::DccBar(0), dst: RowRef::Data(2) }).unwrap();
        assert_eq!(e.row(RowRef::Data(2)).unwrap(), a.not());
        // AND through the regulation path.
        e.run(&[
            Primitive::App { row: RowRef::Data(0), mode: RegulateMode::And },
            Primitive::Ap { row: RowRef::Data(1) },
        ])
        .unwrap();
        assert_eq!(e.row(RowRef::Data(1)).unwrap(), a.and(&b));
        // Internal invariant: no stored word carries bits past column 69.
        for r in [RowRef::Data(0), RowRef::Data(1), RowRef::Data(2)] {
            let v = e.row(r).unwrap();
            assert_eq!(v.words()[1] >> 6, 0, "{r:?} tail dirty");
        }
    }
}
