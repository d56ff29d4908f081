//! The ELP2IM primitives (Table 1 plus the combined otAPP; DESIGN.md §3.2).
//!
//! A primitive names the rows it touches via [`RowRef`] — regular data rows
//! or the reserved dual-contact (DCC) rows, through either port — and, for
//! APP-class primitives, the [`RegulateMode`] of the pseudo-precharge.

use elp2im_dram::command::CommandProfile;
use elp2im_dram::timing::Ddr3Timing;
use elp2im_dram::units::Ns;
use std::fmt;

/// Which SA rail shifts during the pseudo-precharge (§3.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RegulateMode {
    /// OR semantics: '1' bitlines keep Vdd and overwrite; '0' regulated to
    /// Vdd/2 (neutral).
    Or,
    /// AND semantics: '0' bitlines keep Gnd and overwrite; '1' regulated to
    /// Vdd/2 (neutral).
    And,
}

impl RegulateMode {
    /// The full-rail value that survives regulation and overwrites the next
    /// accessed cell.
    pub fn surviving_bit(self) -> bool {
        matches!(self, RegulateMode::Or)
    }
}

impl fmt::Display for RegulateMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RegulateMode::Or => f.write_str("or"),
            RegulateMode::And => f.write_str("and"),
        }
    }
}

/// A row reference within one subarray.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RowRef {
    /// Regular data row by index.
    Data(usize),
    /// Reserved dual-contact row `i`, accessed through its true port.
    DccTrue(usize),
    /// Reserved dual-contact row `i`, accessed through its complement port.
    DccBar(usize),
}

impl RowRef {
    /// Whether this row lives in the reserved decoder domain.
    pub fn is_reserved(self) -> bool {
        matches!(self, RowRef::DccTrue(_) | RowRef::DccBar(_))
    }

    /// The DCC index if reserved.
    pub fn dcc_index(self) -> Option<usize> {
        match self {
            RowRef::DccTrue(i) | RowRef::DccBar(i) => Some(i),
            RowRef::Data(_) => None,
        }
    }
}

impl fmt::Display for RowRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RowRef::Data(i) => write!(f, "r{i}"),
            RowRef::DccTrue(i) => write!(f, "R{i}"),
            RowRef::DccBar(i) => write!(f, "!R{i}"),
        }
    }
}

/// One ELP2IM primitive.
///
/// The `prmt([dst],src)` display form follows §5.1 of the paper.
///
/// ```
/// use elp2im_core::primitive::{Primitive, RowRef, RegulateMode};
/// let p = Primitive::OAap { src: RowRef::Data(3), dst: RowRef::DccTrue(0) };
/// assert_eq!(p.to_string(), "oAAP([R0],r3)");
/// let q = Primitive::App { row: RowRef::Data(1), mode: RegulateMode::And };
/// assert_eq!(q.to_string(), "APP(r1)·and");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Primitive {
    /// Regular activate-precharge: applies any pending regulation, restores,
    /// precharges.
    Ap {
        /// Row accessed.
        row: RowRef,
    },
    /// Back-to-back activate-activate-precharge: copies `src` to `dst`
    /// (RowClone), both in the same decoder domain.
    Aap {
        /// Source row (activated and restored first).
        src: RowRef,
        /// Destination row (receives the latched value).
        dst: RowRef,
    },
    /// Overlapped AAP: `src` and `dst` raised together; requires the two
    /// rows to live in different decoder domains (one reserved).
    OAap {
        /// Source row.
        src: RowRef,
        /// Destination row.
        dst: RowRef,
    },
    /// Activate-pseudoprecharge-precharge: accesses `row` (applying any
    /// pending regulation), restores, then regulates the bitline per
    /// `mode`.
    App {
        /// Row accessed.
        row: RowRef,
        /// Pseudo-precharge mode.
        mode: RegulateMode,
    },
    /// Overlapped APP (row-buffer decoupling, §4.2.1).
    OApp {
        /// Row accessed.
        row: RowRef,
        /// Pseudo-precharge mode.
        mode: RegulateMode,
    },
    /// Trimmed APP (restore truncation, §4.2.2): the accessed row is
    /// *destroyed* (its content is not restored).
    TApp {
        /// Row accessed (destroyed).
        row: RowRef,
        /// Pseudo-precharge mode.
        mode: RegulateMode,
    },
    /// Overlapped and trimmed APP (DESIGN.md §3.2).
    OtApp {
        /// Row accessed (destroyed).
        row: RowRef,
        /// Pseudo-precharge mode.
        mode: RegulateMode,
    },
    /// Fused copy + regulate used by the two-buffer XOR (Fig. 8 seq. 6):
    /// raises `src` and `dst` together (overlapped copy) and ends in a
    /// pseudo-precharge instead of a precharge.
    OAppCopy {
        /// Source row.
        src: RowRef,
        /// Destination row (different decoder domain).
        dst: RowRef,
        /// Pseudo-precharge mode.
        mode: RegulateMode,
    },
}

impl Primitive {
    /// The latency of this primitive under `t` (Table 1).
    pub fn duration(&self, t: &Ddr3Timing) -> Ns {
        match self {
            Primitive::Ap { .. } => t.ap(),
            Primitive::Aap { .. } => t.aap(),
            Primitive::OAap { .. } => t.o_aap(),
            Primitive::App { .. } => t.app(),
            Primitive::OApp { .. } | Primitive::OAppCopy { .. } => t.o_app(),
            Primitive::TApp { .. } => t.t_app(),
            Primitive::OtApp { .. } => t.ot_app(),
        }
    }

    /// The substrate command profile (duration, wordlines, restores).
    pub fn profile(&self, t: &Ddr3Timing) -> CommandProfile {
        match self {
            Primitive::Ap { .. } => CommandProfile::ap(t),
            Primitive::Aap { .. } => CommandProfile::aap(t),
            Primitive::OAap { .. } => CommandProfile::o_aap(t),
            Primitive::App { .. } => CommandProfile::app(t),
            Primitive::OApp { .. } => CommandProfile::o_app(t),
            Primitive::TApp { .. } => CommandProfile::t_app(t),
            Primitive::OtApp { .. } => CommandProfile::ot_app(t),
            Primitive::OAppCopy { .. } => {
                let mut p = CommandProfile::o_app(t);
                p.max_simultaneous_wordlines = 2;
                p.total_wordline_events = 2;
                p.restores = 2;
                p
            }
        }
    }

    /// Rows this primitive raises wordlines for.
    pub fn rows(&self) -> Vec<RowRef> {
        self.row_iter().collect()
    }

    /// [`Primitive::rows`] without allocating: the [`source`](Self::source),
    /// then the [`copy destination`](Self::copy_dst) if there is one.
    pub fn row_iter(&self) -> impl Iterator<Item = RowRef> {
        std::iter::once(self.source()).chain(self.copy_dst())
    }

    /// The row this primitive activates and senses: `row`, or a copy's
    /// `src`.
    pub fn source(&self) -> RowRef {
        match *self {
            Primitive::Ap { row }
            | Primitive::App { row, .. }
            | Primitive::OApp { row, .. }
            | Primitive::TApp { row, .. }
            | Primitive::OtApp { row, .. } => row,
            Primitive::Aap { src, .. }
            | Primitive::OAap { src, .. }
            | Primitive::OAppCopy { src, .. } => src,
        }
    }

    /// The copy destination this primitive fully overwrites, if any.
    pub fn copy_dst(&self) -> Option<RowRef> {
        match *self {
            Primitive::Aap { dst, .. }
            | Primitive::OAap { dst, .. }
            | Primitive::OAppCopy { dst, .. } => Some(dst),
            _ => None,
        }
    }

    /// This primitive with every row renamed by `f`, in
    /// [`Primitive::row_iter`] order.
    pub fn map_rows(&self, mut f: impl FnMut(RowRef) -> RowRef) -> Primitive {
        match *self {
            Primitive::Ap { row } => Primitive::Ap { row: f(row) },
            Primitive::App { row, mode } => Primitive::App { row: f(row), mode },
            Primitive::OApp { row, mode } => Primitive::OApp { row: f(row), mode },
            Primitive::TApp { row, mode } => Primitive::TApp { row: f(row), mode },
            Primitive::OtApp { row, mode } => Primitive::OtApp { row: f(row), mode },
            Primitive::Aap { src, dst } => {
                let src = f(src);
                Primitive::Aap { src, dst: f(dst) }
            }
            Primitive::OAap { src, dst } => {
                let src = f(src);
                Primitive::OAap { src, dst: f(dst) }
            }
            Primitive::OAppCopy { src, dst, mode } => {
                let src = f(src);
                Primitive::OAppCopy { src, dst: f(dst), mode }
            }
        }
    }

    /// The regulation mode left pending after this primitive, if any.
    pub fn regulation(&self) -> Option<RegulateMode> {
        match *self {
            Primitive::App { mode, .. }
            | Primitive::OApp { mode, .. }
            | Primitive::TApp { mode, .. }
            | Primitive::OtApp { mode, .. }
            | Primitive::OAppCopy { mode, .. } => Some(mode),
            _ => None,
        }
    }

    /// Whether the accessed row's restore is truncated (row destroyed).
    pub fn destroys_source(&self) -> bool {
        matches!(self, Primitive::TApp { .. } | Primitive::OtApp { .. })
    }

    /// Whether this is an overlapped double activation, which requires its
    /// two rows to sit in *different* decoder domains.
    pub fn requires_dual_decoder(&self) -> bool {
        matches!(self, Primitive::OAap { .. } | Primitive::OAppCopy { .. })
    }
}

impl fmt::Display for Primitive {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            Primitive::Ap { row } => write!(f, "AP({row})"),
            Primitive::Aap { src, dst } => write!(f, "AAP([{dst}],{src})"),
            Primitive::OAap { src, dst } => write!(f, "oAAP([{dst}],{src})"),
            Primitive::App { row, mode } => write!(f, "APP({row})·{mode}"),
            Primitive::OApp { row, mode } => write!(f, "oAPP({row})·{mode}"),
            Primitive::TApp { row, mode } => write!(f, "tAPP({row})·{mode}"),
            Primitive::OtApp { row, mode } => write!(f, "otAPP({row})·{mode}"),
            Primitive::OAppCopy { src, dst, mode } => {
                write!(f, "oAPP([{dst}],{src})·{mode}")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t() -> Ddr3Timing {
        Ddr3Timing::ddr3_1600()
    }

    #[test]
    fn durations_match_table1() {
        let t = t();
        let r = RowRef::Data(0);
        let m = RegulateMode::Or;
        let close = |p: Primitive, ns: f64| {
            assert!(
                (p.duration(&t).as_f64() - ns).abs() < 1.0,
                "{p} expected ~{ns}, got {}",
                p.duration(&t)
            );
        };
        close(Primitive::Ap { row: r }, 49.0);
        close(Primitive::Aap { src: r, dst: RowRef::Data(1) }, 84.0);
        close(Primitive::OAap { src: r, dst: RowRef::DccTrue(0) }, 53.0);
        close(Primitive::App { row: r, mode: m }, 67.0);
        close(Primitive::OApp { row: r, mode: m }, 53.0);
        close(Primitive::TApp { row: r, mode: m }, 46.0);
        close(Primitive::OtApp { row: r, mode: m }, 32.0);
        close(Primitive::OAppCopy { src: r, dst: RowRef::DccTrue(1), mode: m }, 53.0);
    }

    #[test]
    fn display_prmt_form() {
        assert_eq!(Primitive::Ap { row: RowRef::Data(7) }.to_string(), "AP(r7)");
        assert_eq!(
            Primitive::Aap { src: RowRef::Data(1), dst: RowRef::Data(2) }.to_string(),
            "AAP([r2],r1)"
        );
        assert_eq!(
            Primitive::TApp { row: RowRef::DccBar(0), mode: RegulateMode::Or }.to_string(),
            "tAPP(!R0)·or"
        );
    }

    #[test]
    fn metadata_queries() {
        let p = Primitive::OAap { src: RowRef::Data(0), dst: RowRef::DccTrue(0) };
        assert!(p.requires_dual_decoder());
        assert!(!p.destroys_source());
        assert_eq!(p.regulation(), None);
        assert_eq!(p.rows().len(), 2);

        let q = Primitive::TApp { row: RowRef::Data(0), mode: RegulateMode::And };
        assert!(q.destroys_source());
        assert_eq!(q.regulation(), Some(RegulateMode::And));
    }

    #[test]
    fn regulate_mode_surviving_bit() {
        assert!(RegulateMode::Or.surviving_bit());
        assert!(!RegulateMode::And.surviving_bit());
    }

    #[test]
    fn rowref_properties() {
        assert!(RowRef::DccBar(1).is_reserved());
        assert!(!RowRef::Data(5).is_reserved());
        assert_eq!(RowRef::DccTrue(1).dcc_index(), Some(1));
        assert_eq!(RowRef::Data(5).dcc_index(), None);
    }

    #[test]
    fn oapp_copy_profile_raises_two_wordlines() {
        let p = Primitive::OAppCopy {
            src: RowRef::Data(0),
            dst: RowRef::DccTrue(0),
            mode: RegulateMode::And,
        };
        let prof = p.profile(&t());
        assert_eq!(prof.max_simultaneous_wordlines, 2);
        assert!(prof.pseudo_precharge);
    }
}
