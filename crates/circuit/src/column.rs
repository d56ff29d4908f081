//! Discrete-time simulation of one open-bitline DRAM column.
//!
//! The column owns: a handful of 1T1C cells and one dual-contact cell (DCC)
//! on the bitline, the complementary reference bitline of the neighbor
//! subarray, a latch-type [`SenseAmp`] with
//! switchable rails, and a precharge unit with *split* EQ control (the
//! ELP2IM hardware change of Fig. 1(d)).
//!
//! Charge sharing is instantaneous (capacitor divider); everything else is
//! first-order RC relaxation stepped at `dt`. This reproduces the waveform
//! shapes of Fig. 10 and, with variation injected, the sensing-margin
//! failures behind Fig. 11.

use crate::params::CircuitParams;
use crate::phase::{Phase, Side};
use crate::sense_amp::{Rails, SenseAmp};
use crate::waveform::{Sample, Waveform};

/// A cell access port.
///
/// Regular cells connect to the bitline; the dual-contact cell (DCC) has a
/// second transistor to the complementary bitline, which is how NOT is
/// implemented (same design as Ambit's DCC, §2.2.2 / Fig. 2(c)).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CellPort {
    /// Regular cell `i` via the bitline.
    Normal(usize),
    /// The DCC through its true (bitline) port.
    DccTrue,
    /// The DCC through its complement (bitline-bar) port.
    DccBar,
}

impl CellPort {
    fn side(self) -> Side {
        match self {
            CellPort::Normal(_) | CellPort::DccTrue => Side::Bl,
            CellPort::DccBar => Side::BlBar,
        }
    }
}

/// Outcome of a sense operation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SenseOutcome {
    /// Logic value latched on the bitline side (row-buffer content).
    pub bit: bool,
    /// Differential seen by the SA at decision time (V, signed toward the
    /// decision actually taken; negative means the decision contradicted
    /// the raw differential because of offset).
    pub margin_v: f64,
}

/// One simulated DRAM column.
#[derive(Debug, Clone)]
pub struct Column {
    p: CircuitParams,
    cell_v: Vec<f64>,
    cell_c: Vec<f64>,
    dcc_v: f64,
    dcc_c: f64,
    v_bl: f64,
    v_blb: f64,
    sa: SenseAmp,
    open: Vec<CellPort>,
    t_ns: f64,
    wave: Waveform,
    recording: bool,
    /// The PU's Vdd/2 source level (may mismatch the SA-regulated level).
    pub pu_half_v: f64,
    /// The SA's Vdd/2 rail level during pseudo-precharge.
    pub sa_half_v: f64,
    /// Side currently cut off from the SA by the isolation transistor
    /// (row-buffer decoupling, §4.2.1).
    isolated_side: Option<Side>,
}

/// Number of regular cells a test column carries.
pub const CELLS_PER_COLUMN: usize = 8;

impl Column {
    /// Creates a column with [`CELLS_PER_COLUMN`] discharged cells, a
    /// discharged DCC, and everything precharged to Vdd/2.
    pub fn new(params: CircuitParams) -> Self {
        params.validate();
        let half = params.half_vdd();
        let cc = params.cc_ff;
        Column {
            cell_v: vec![0.0; CELLS_PER_COLUMN],
            cell_c: vec![cc; CELLS_PER_COLUMN],
            dcc_v: 0.0,
            dcc_c: cc,
            v_bl: half,
            v_blb: half,
            sa: SenseAmp::new(params.vdd),
            open: Vec::new(),
            t_ns: 0.0,
            wave: Waveform::new(),
            recording: false,
            pu_half_v: half,
            sa_half_v: half,
            isolated_side: None,
            p: params,
        }
    }

    /// The parameter set in use.
    pub fn params(&self) -> &CircuitParams {
        &self.p
    }

    /// Enables waveform recording.
    pub fn record(&mut self) {
        self.recording = true;
    }

    /// The recorded waveform so far.
    pub fn waveform(&self) -> &Waveform {
        &self.wave
    }

    /// Current simulation time (ns).
    pub fn now_ns(&self) -> f64 {
        self.t_ns
    }

    /// Current bitline voltage.
    pub fn v_bl(&self) -> f64 {
        self.v_bl
    }

    /// Current complementary-bitline voltage.
    pub fn v_blb(&self) -> f64 {
        self.v_blb
    }

    /// Sets the SA input-referred offset (process variation).
    pub fn set_sa_offset(&mut self, offset_v: f64) {
        self.sa.offset_v = offset_v;
    }

    /// Overrides one cell's capacitance (process variation).
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range or `c_ff` is not positive.
    pub fn set_cell_capacitance(&mut self, i: usize, c_ff: f64) {
        assert!(c_ff > 0.0, "capacitance must be positive");
        self.cell_c[i] = c_ff;
    }

    /// Writes a full-rail value into cell `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= CELLS_PER_COLUMN`.
    pub fn write_cell(&mut self, i: usize, bit: bool) {
        self.cell_v[i] = if bit { self.p.vdd } else { 0.0 };
    }

    /// Writes a full-rail value into the DCC.
    pub fn write_dcc(&mut self, bit: bool) {
        self.dcc_v = if bit { self.p.vdd } else { 0.0 };
    }

    /// Reads back the stored logic value of cell `i` (no disturbance).
    pub fn cell_bit(&self, i: usize) -> bool {
        self.cell_v[i] > self.p.half_vdd()
    }

    /// Stored cell voltage (for charge-retention assertions in tests).
    pub fn cell_voltage(&self, i: usize) -> f64 {
        self.cell_v[i]
    }

    /// Reads back the DCC's stored logic value.
    pub fn dcc_bit(&self) -> bool {
        self.dcc_v > self.p.half_vdd()
    }

    /// Injects an additive disturbance onto one bitline (coupling noise).
    pub fn disturb(&mut self, side: Side, dv: f64) {
        match side {
            Side::Bl => self.v_bl += dv,
            Side::BlBar => self.v_blb += dv,
        }
    }

    fn record_sample(&mut self, phase: Phase) {
        if self.recording {
            self.wave.push(Sample { t_ns: self.t_ns, v_bl: self.v_bl, v_blb: self.v_blb, phase });
        }
    }

    fn relax(v: f64, target: f64, dt: f64, tau: f64) -> f64 {
        v + (target - v) * (1.0 - (-dt / tau).exp())
    }

    /// Advances the state by `duration` ns under the current drive
    /// configuration, labeling samples with `phase`.
    fn run(&mut self, duration: f64, phase: Phase, pu_bl: bool, pu_blb: bool) {
        let dt = self.p.dt_ns;
        let steps = (duration / dt).ceil().max(1.0) as usize;
        for _ in 0..steps {
            // Sense-amplifier drive (skipping any isolated side).
            if let Some((bl_t, blb_t)) = self.sa.drive_targets() {
                let full_span = self.p.vdd * 0.95;
                let tau = if self.sa.rails().span() < full_span {
                    self.p.tau_sa_half_supply_ns()
                } else {
                    self.p.tau_sa_ns
                };
                if self.isolated_side != Some(Side::Bl) {
                    self.v_bl = Self::relax(self.v_bl, bl_t, dt, tau);
                }
                if self.isolated_side != Some(Side::BlBar) {
                    self.v_blb = Self::relax(self.v_blb, blb_t, dt, tau);
                }
            }
            // Precharge-unit drive (split EQ).
            if pu_bl {
                self.v_bl = Self::relax(self.v_bl, self.pu_half_v, dt, self.p.tau_pu_ns);
            }
            if pu_blb {
                self.v_blb = Self::relax(self.v_blb, self.pu_half_v, dt, self.p.tau_pu_ns);
            }
            // Open cells follow their bitline (restore path).
            for k in 0..self.open.len() {
                let port = self.open[k];
                let line = match port.side() {
                    Side::Bl => self.v_bl,
                    Side::BlBar => self.v_blb,
                };
                match port {
                    CellPort::Normal(i) => {
                        self.cell_v[i] = Self::relax(self.cell_v[i], line, dt, self.p.tau_sa_ns);
                    }
                    CellPort::DccTrue | CellPort::DccBar => {
                        self.dcc_v = Self::relax(self.dcc_v, line, dt, self.p.tau_sa_ns);
                    }
                }
            }
            self.t_ns += dt;
            self.record_sample(phase);
        }
    }

    /// Full precharge: both bitlines equalized to Vdd/2, SA disabled.
    pub fn precharge(&mut self) {
        self.sa.disable();
        self.run(self.p.t_precharge_ns, Phase::Precharge, true, true);
    }

    /// Split-EQ precharge of a single side (the other keeps its value).
    pub fn half_precharge(&mut self, side: Side) {
        self.sa.disable();
        let (bl, blb) = match side {
            Side::Bl => (true, false),
            Side::BlBar => (false, true),
        };
        self.run(self.p.t_precharge_ns, Phase::HalfPrecharge, bl, blb);
    }

    fn share(&mut self, port: CellPort) {
        let cb = self.p.cb_ff();
        let (cv, cc) = match port {
            CellPort::Normal(i) => (self.cell_v[i], self.cell_c[i]),
            CellPort::DccTrue | CellPort::DccBar => (self.dcc_v, self.dcc_c),
        };
        match port.side() {
            Side::Bl => {
                let v = (cb * self.v_bl + cc * cv) / (cb + cc);
                self.v_bl = v;
                match port {
                    CellPort::Normal(i) => self.cell_v[i] = v,
                    _ => self.dcc_v = v,
                }
            }
            Side::BlBar => {
                let v = (cb * self.v_blb + cc * cv) / (cb + cc);
                self.v_blb = v;
                self.dcc_v = v;
            }
        }
        self.open.push(port);
    }

    /// Opens `ports` (raises the wordlines and charge-shares) without
    /// sensing; returns the bitline voltage deviation the share produced.
    /// Used by the array simulator to inject inter-bitline coupling
    /// between the access and sense phases.
    ///
    /// # Panics
    ///
    /// Panics if `ports` is empty or mixes bitline sides.
    pub fn open_multi(&mut self, ports: &[CellPort]) -> f64 {
        assert!(!ports.is_empty(), "activate requires at least one wordline");
        let side = ports[0].side();
        assert!(
            ports.iter().all(|p| p.side() == side),
            "simultaneously activated cells must share a bitline"
        );
        let before = match side {
            Side::Bl => self.v_bl,
            Side::BlBar => self.v_blb,
        };
        for &port in ports {
            self.share(port);
        }
        self.record_sample(Phase::Access);
        match side {
            Side::Bl => self.v_bl - before,
            Side::BlBar => self.v_blb - before,
        }
    }

    /// Enables the SA (decision at this instant), senses, and optionally
    /// restores. Call after [`Column::open_multi`].
    pub fn sense(&mut self, restore: bool) -> SenseOutcome {
        let raw = self.v_bl - self.v_blb;
        self.sa.enable(Rails::full(self.p.vdd), self.v_bl, self.v_blb);
        let decided_bl_high = self.sa.high_side() == Some(Side::Bl);
        let margin = if decided_bl_high { raw } else { -raw };
        self.run(self.p.t_sense_ns, Phase::Sense, false, false);
        if restore {
            self.run(self.p.t_restore_ns, Phase::Restore, false, false);
        }
        SenseOutcome { bit: decided_bl_high, margin_v: margin }
    }

    /// Activates `ports` (simultaneous wordlines — more than one models
    /// Ambit's TRA), senses, and restores. Returns the sense outcome.
    ///
    /// The wordlines stay open afterwards; call
    /// [`Column::close_wordlines`] (a precharge also implies it in real
    /// hardware, but the simulator keeps the steps explicit).
    ///
    /// # Panics
    ///
    /// Panics if `ports` is empty or mixes bitline sides.
    pub fn activate_multi(&mut self, ports: &[CellPort], restore: bool) -> SenseOutcome {
        self.open_multi(ports);
        self.sense(restore)
    }

    /// Activates a single cell port (regular access).
    pub fn activate(&mut self, port: CellPort, restore: bool) -> SenseOutcome {
        self.activate_multi(&[port], restore)
    }

    /// Enters the pseudo-precharge state: shifts one SA rail to the
    /// (possibly mismatched) Vdd/2 level while the SA stays enabled.
    ///
    /// `lift_low_rail = true` lifts Gnd to Vdd/2 (a '1' on the bitline
    /// survives at Vdd — the regular-strategy OR / alternative-strategy AND
    /// configuration); `false` drops Vdd to Vdd/2 (a '0' survives at Gnd —
    /// regular AND / alternative OR).
    ///
    /// # Panics
    ///
    /// Panics if the SA is not enabled (no preceding activation).
    pub fn pseudo_precharge(&mut self, lift_low_rail: bool) {
        let rails = if lift_low_rail {
            Rails { hi: self.p.vdd, lo: self.sa_half_v }
        } else {
            Rails { hi: self.sa_half_v, lo: 0.0 }
        };
        self.sa.shift_rails(rails);
        let t_pp = self.p.t_precharge_ns * 1.3;
        self.run(t_pp, Phase::PseudoPrecharge, false, false);
    }

    /// Overlapped pseudo-precharge (the oAPP of §4.2.1): with the
    /// row-buffer-decoupling isolation transistor, the SA regulates one
    /// bitline while the precharge unit *simultaneously* drives the other
    /// side to Vdd/2 — saving the separate precharge phase.
    ///
    /// # Panics
    ///
    /// Panics if the SA is not enabled.
    pub fn pseudo_precharge_overlapped(&mut self, lift_low_rail: bool, precharge_side: Side) {
        let rails = if lift_low_rail {
            Rails { hi: self.p.vdd, lo: self.sa_half_v }
        } else {
            Rails { hi: self.sa_half_v, lo: 0.0 }
        };
        self.sa.shift_rails(rails);
        let (pu_bl, pu_blb) = match precharge_side {
            Side::Bl => (true, false),
            Side::BlBar => (false, true),
        };
        // The isolation transistor decouples the PU-driven side from the
        // SA latch, so both proceed together for the (longer)
        // pseudo-precharge duration.
        self.isolated_side = Some(precharge_side);
        let t_pp = self.p.t_precharge_ns * 1.3;
        self.run(t_pp, Phase::PseudoPrecharge, pu_bl, pu_blb);
        self.isolated_side = None;
        self.sa.disable();
    }

    /// Closes all open wordlines (cells keep their current voltage).
    pub fn close_wordlines(&mut self) {
        self.open.clear();
    }

    /// Disables the SA without precharging (bitlines float).
    pub fn disable_sa(&mut self) {
        self.sa.disable();
    }

    /// Lets the SA keep driving for `ns` (e.g. the second activate of an
    /// AAP copy, where the latched value restores into a new row).
    pub fn hold_latched(&mut self, ns: f64) {
        self.run(ns, Phase::Latched, false, false);
    }

    /// Opens `port` while the SA is latched and lets the SA restore the
    /// latched value into that cell — the second activation of an
    /// AAP/RowClone copy.
    ///
    /// # Panics
    ///
    /// Panics if the SA is not currently enabled (nothing to copy).
    pub fn attach(&mut self, port: CellPort) {
        assert!(
            self.sa.is_enabled(),
            "attach requires a latched sense amplifier (AAP second activate)"
        );
        self.share(port);
        self.run(self.p.t_restore_ns, Phase::Latched, false, false);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn column_with(bits: &[bool]) -> Column {
        let mut c = Column::new(CircuitParams::long_bitline());
        for (i, &b) in bits.iter().enumerate() {
            c.write_cell(i, b);
        }
        c
    }

    #[test]
    fn regular_read_senses_stored_values() {
        for bit in [false, true] {
            let mut c = column_with(&[bit]);
            c.precharge();
            let out = c.activate(CellPort::Normal(0), true);
            assert_eq!(out.bit, bit, "read of {bit}");
            assert!(out.margin_v > 0.05, "healthy margin, got {}", out.margin_v);
            // Restore drove the cell back to full rail.
            let v = c.cell_voltage(0);
            if bit {
                assert!(v > 0.9 * c.params().vdd, "restored high, v = {v}");
            } else {
                assert!(v < 0.1 * c.params().vdd, "restored low, v = {v}");
            }
        }
    }

    #[test]
    fn charge_share_moves_bitline_the_right_way() {
        let mut c = column_with(&[true]);
        c.precharge();
        let before = c.v_bl();
        c.share(CellPort::Normal(0));
        assert!(c.v_bl() > before, "a '1' cell must lift the bitline");
    }

    #[test]
    fn pseudo_precharge_or_regulates_zero_to_half() {
        // Case 2 of Fig. 4: read '0', pseudo-precharge lifts bitline to
        // Vdd/2; the '1' case keeps Vdd.
        for bit in [false, true] {
            let mut c = column_with(&[bit]);
            c.precharge();
            c.activate(CellPort::Normal(0), true);
            c.close_wordlines();
            c.pseudo_precharge(true);
            let v = c.v_bl();
            let half = c.params().half_vdd();
            if bit {
                assert!(v > 0.95 * c.params().vdd, "'1' keeps Vdd, v = {v}");
            } else {
                assert!((v - half).abs() < 0.05, "'0' regulated to Vdd/2, v = {v}");
            }
        }
    }

    #[test]
    fn pseudo_precharge_and_regulates_one_to_half() {
        for bit in [false, true] {
            let mut c = column_with(&[bit]);
            c.precharge();
            c.activate(CellPort::Normal(0), true);
            c.close_wordlines();
            c.pseudo_precharge(false);
            let v = c.v_bl();
            let half = c.params().half_vdd();
            if bit {
                assert!((v - half).abs() < 0.05, "'1' regulated to Vdd/2, v = {v}");
            } else {
                assert!(v < 0.05, "'0' keeps Gnd, v = {v}");
            }
        }
    }

    #[test]
    fn half_precharge_leaves_other_side_untouched() {
        let mut c = column_with(&[true]);
        c.precharge();
        c.activate(CellPort::Normal(0), true);
        c.close_wordlines();
        c.pseudo_precharge(true);
        c.half_precharge(Side::BlBar);
        // bl keeps Vdd ('1'), blb pulled to Vdd/2.
        assert!(c.v_bl() > 0.9 * c.params().vdd);
        assert!((c.v_blb() - c.params().half_vdd()).abs() < 0.05);
    }

    #[test]
    fn dcc_bar_port_reads_complement() {
        for bit in [false, true] {
            let mut c = Column::new(CircuitParams::long_bitline());
            c.write_dcc(bit);
            c.precharge();
            let out = c.activate(CellPort::DccBar, true);
            assert_eq!(out.bit, !bit, "DCC-bar read of {bit}");
        }
    }

    #[test]
    fn tra_computes_majority() {
        // All 8 combinations of three cells: TRA result = majority.
        for pattern in 0u8..8 {
            let bits = [(pattern & 1) != 0, (pattern & 2) != 0, (pattern & 4) != 0];
            let mut c = column_with(&bits);
            c.precharge();
            let ports = [CellPort::Normal(0), CellPort::Normal(1), CellPort::Normal(2)];
            let out = c.activate_multi(&ports, true);
            let majority = bits.iter().filter(|&&b| b).count() >= 2;
            assert_eq!(out.bit, majority, "TRA of {bits:?}");
        }
    }

    #[test]
    fn tra_margin_is_smaller_than_regular_read() {
        let mut c1 = column_with(&[true]);
        c1.precharge();
        let regular = c1.activate(CellPort::Normal(0), true).margin_v;

        // Inconsistent '101' TRA: weak 1.
        let mut c3 = column_with(&[true, false, true]);
        c3.precharge();
        let ports = [CellPort::Normal(0), CellPort::Normal(1), CellPort::Normal(2)];
        let tra = c3.activate_multi(&ports, true).margin_v;
        assert!(tra < regular, "TRA margin {tra} !< regular {regular}");
    }

    #[test]
    fn offset_flips_marginal_sense() {
        let mut c = column_with(&[true]);
        c.set_sa_offset(-0.5); // absurd offset forces an error
        c.precharge();
        let out = c.activate(CellPort::Normal(0), true);
        assert!(!out.bit, "large negative offset must flip the read");
        assert!(out.margin_v < 0.0);
    }

    #[test]
    #[should_panic(expected = "share a bitline")]
    fn mixed_side_multi_activation_panics() {
        let mut c = column_with(&[true]);
        c.activate_multi(&[CellPort::Normal(0), CellPort::DccBar], true);
    }

    #[test]
    fn waveform_records_phases() {
        let mut c = column_with(&[true]);
        c.record();
        c.precharge();
        c.activate(CellPort::Normal(0), true);
        c.close_wordlines();
        c.pseudo_precharge(true);
        let w = c.waveform();
        assert!(!w.is_empty());
        let phases: std::collections::HashSet<_> = w.samples().iter().map(|s| s.phase).collect();
        assert!(phases.contains(&Phase::Precharge));
        assert!(phases.contains(&Phase::Sense));
        assert!(phases.contains(&Phase::PseudoPrecharge));
    }
}
