//! Technology-neutral command profiles.
//!
//! Every in-DRAM design in this workspace (ELP2IM, Ambit, DRISA, RowClone)
//! ultimately issues *commands* to a bank. A [`CommandProfile`] captures the
//! properties the substrate cares about — duration, how many wordlines are
//! driven (simultaneously and sequentially), and whether a pseudo-precharge
//! happens — without knowing anything about the logic semantics. The power
//! model ([`crate::power`]) and the power-constraint model
//! ([`crate::constraint`]) consume profiles; the PIM layers construct them.

use crate::timing::Ddr3Timing;
use crate::units::Ns;
use std::fmt;

/// Broad command classification, used for statistics and display.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CommandClass {
    /// Regular activate + precharge (`AP`).
    Ap,
    /// Back-to-back double activation (`AAP`, RowClone copy).
    Aap,
    /// Overlapped double activation (`oAAP`, dual decoder domains).
    OAap,
    /// Activate + pseudo-precharge + precharge (`APP`).
    App,
    /// Overlapped APP (`oAPP`).
    OApp,
    /// Trimmed APP (`tAPP`, restore truncated).
    TApp,
    /// Overlapped and trimmed APP (`otAPP`).
    OtApp,
    /// Ambit triple-row activation followed by a result copy.
    TraAap,
    /// DRISA NOR-gate compute step.
    DrisaStep,
    /// Plain precharge.
    Precharge,
    /// A burst read or write on the data bus.
    DataBurst,
}

impl CommandClass {
    /// Every class, in declaration order: `ALL[class as usize] == class`.
    pub(crate) const ALL: [CommandClass; 11] = [
        CommandClass::Ap,
        CommandClass::Aap,
        CommandClass::OAap,
        CommandClass::App,
        CommandClass::OApp,
        CommandClass::TApp,
        CommandClass::OtApp,
        CommandClass::TraAap,
        CommandClass::DrisaStep,
        CommandClass::Precharge,
        CommandClass::DataBurst,
    ];

    /// The display mnemonic as a static string (no allocation), used by
    /// per-command statistics counters.
    pub fn name(self) -> &'static str {
        match self {
            CommandClass::Ap => "AP",
            CommandClass::Aap => "AAP",
            CommandClass::OAap => "oAAP",
            CommandClass::App => "APP",
            CommandClass::OApp => "oAPP",
            CommandClass::TApp => "tAPP",
            CommandClass::OtApp => "otAPP",
            CommandClass::TraAap => "TRA",
            CommandClass::DrisaStep => "NORstep",
            CommandClass::Precharge => "PRE",
            CommandClass::DataBurst => "BURST",
        }
    }
}

impl fmt::Display for CommandClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// The substrate-visible shape of one DRAM command.
///
/// ```
/// use elp2im_dram::command::CommandProfile;
/// use elp2im_dram::timing::Ddr3Timing;
///
/// let t = Ddr3Timing::ddr3_1600();
/// let tra = CommandProfile::ambit_tra_aap(&t);
/// assert_eq!(tra.max_simultaneous_wordlines, 3);
/// assert_eq!(tra.total_wordline_events, 4); // TRA (3) + result-row copy (1)
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct CommandProfile {
    /// Classification (for stats/printing).
    pub class: CommandClass,
    /// Wall-clock duration of the command.
    pub duration: Ns,
    /// Largest number of wordlines driven *at the same instant*.
    ///
    /// Regular AP: 1. oAAP: 2. Ambit TRA: 3. This is what stresses the
    /// charge pump and what the +22 %-per-wordline surcharge applies to.
    pub max_simultaneous_wordlines: u8,
    /// Total count of wordline-raise events over the whole command,
    /// including sequential ones (an AAP raises 2 wordlines one after the
    /// other; a TRA-AAP raises 3 + 1).
    pub total_wordline_events: u8,
    /// Number of full cell restores performed (a trimmed APP performs 0).
    pub restores: u8,
    /// Whether the command contains a pseudo-precharge phase (+31 %
    /// activate-energy surcharge per the paper, §6.2).
    pub pseudo_precharge: bool,
}

impl CommandProfile {
    /// Regular activate-precharge.
    pub fn ap(t: &Ddr3Timing) -> Self {
        CommandProfile {
            class: CommandClass::Ap,
            duration: t.ap(),
            max_simultaneous_wordlines: 1,
            total_wordline_events: 1,
            restores: 1,
            pseudo_precharge: false,
        }
    }

    /// Back-to-back activate-activate-precharge (RowClone copy).
    pub fn aap(t: &Ddr3Timing) -> Self {
        CommandProfile {
            class: CommandClass::Aap,
            duration: t.aap(),
            max_simultaneous_wordlines: 1,
            total_wordline_events: 2,
            restores: 2,
            pseudo_precharge: false,
        }
    }

    /// Overlapped AAP: both wordlines up simultaneously (dual decoder).
    pub fn o_aap(t: &Ddr3Timing) -> Self {
        CommandProfile {
            class: CommandClass::OAap,
            duration: t.o_aap(),
            max_simultaneous_wordlines: 2,
            total_wordline_events: 2,
            restores: 2,
            pseudo_precharge: false,
        }
    }

    /// Activate-pseudoprecharge-precharge.
    pub fn app(t: &Ddr3Timing) -> Self {
        CommandProfile {
            class: CommandClass::App,
            duration: t.app(),
            max_simultaneous_wordlines: 1,
            total_wordline_events: 1,
            restores: 1,
            pseudo_precharge: true,
        }
    }

    /// Overlapped APP.
    pub fn o_app(t: &Ddr3Timing) -> Self {
        CommandProfile { class: CommandClass::OApp, duration: t.o_app(), ..CommandProfile::app(t) }
    }

    /// Trimmed APP (no restore; the accessed row is destroyed).
    pub fn t_app(t: &Ddr3Timing) -> Self {
        CommandProfile {
            class: CommandClass::TApp,
            duration: t.t_app(),
            restores: 0,
            ..CommandProfile::app(t)
        }
    }

    /// Overlapped **and** trimmed APP.
    pub fn ot_app(t: &Ddr3Timing) -> Self {
        CommandProfile {
            class: CommandClass::OtApp,
            duration: t.ot_app(),
            restores: 0,
            ..CommandProfile::app(t)
        }
    }

    /// Ambit triple-row activation with overlapped result copy: the B-group
    /// address raises three wordlines, charge sharing computes the majority,
    /// and the result row is raised to receive the copy.
    pub fn ambit_tra_aap(t: &Ddr3Timing) -> Self {
        CommandProfile {
            class: CommandClass::TraAap,
            duration: t.o_aap(),
            max_simultaneous_wordlines: 3,
            total_wordline_events: 4,
            restores: 4,
            pseudo_precharge: false,
        }
    }

    /// DRISA NOR compute step: one activation driving through the added
    /// logic gates; modeled with oAAP-class duration.
    pub fn drisa_step(t: &Ddr3Timing) -> Self {
        CommandProfile {
            class: CommandClass::DrisaStep,
            duration: t.o_aap(),
            max_simultaneous_wordlines: 1,
            total_wordline_events: 1,
            restores: 1,
            pseudo_precharge: false,
        }
    }

    /// Number of *extra* wordlines beyond the first that are driven
    /// simultaneously (0 for regular commands).
    pub fn extra_simultaneous_wordlines(&self) -> u8 {
        self.max_simultaneous_wordlines.saturating_sub(1)
    }
}

impl fmt::Display for CommandProfile {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} ({}, {} wl)", self.class, self.duration, self.total_wordline_events)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_classes_index_by_discriminant() {
        for (i, class) in CommandClass::ALL.into_iter().enumerate() {
            assert_eq!(class as usize, i, "{class}");
        }
    }

    #[test]
    fn profiles_match_table1_durations() {
        let t = Ddr3Timing::ddr3_1600();
        assert!((CommandProfile::ap(&t).duration.as_f64() - 48.75).abs() < 0.5);
        assert!((CommandProfile::aap(&t).duration.as_f64() - 83.75).abs() < 0.5);
        assert!((CommandProfile::o_aap(&t).duration.as_f64() - 52.75).abs() < 0.5);
        assert!((CommandProfile::app(&t).duration.as_f64() - 66.6).abs() < 0.5);
        assert!((CommandProfile::o_app(&t).duration.as_f64() - 52.9).abs() < 0.5);
        assert!((CommandProfile::t_app(&t).duration.as_f64() - 45.6).abs() < 0.5);
        assert!((CommandProfile::ot_app(&t).duration.as_f64() - 31.9).abs() < 0.5);
    }

    #[test]
    fn wordline_counts() {
        let t = Ddr3Timing::ddr3_1600();
        assert_eq!(CommandProfile::ap(&t).extra_simultaneous_wordlines(), 0);
        assert_eq!(CommandProfile::o_aap(&t).extra_simultaneous_wordlines(), 1);
        assert_eq!(CommandProfile::ambit_tra_aap(&t).extra_simultaneous_wordlines(), 2);
        // A sequential AAP never drives two wordlines at once.
        assert_eq!(CommandProfile::aap(&t).max_simultaneous_wordlines, 1);
        assert_eq!(CommandProfile::aap(&t).total_wordline_events, 2);
    }

    #[test]
    fn trimmed_commands_do_not_restore() {
        let t = Ddr3Timing::ddr3_1600();
        assert_eq!(CommandProfile::t_app(&t).restores, 0);
        assert_eq!(CommandProfile::ot_app(&t).restores, 0);
        assert_eq!(CommandProfile::app(&t).restores, 1);
    }

    #[test]
    fn display_is_informative() {
        let t = Ddr3Timing::ddr3_1600();
        let s = format!("{}", CommandProfile::ambit_tra_aap(&t));
        assert!(s.contains("TRA"), "{s}");
        assert!(s.contains("wl"), "{s}");
    }
}
