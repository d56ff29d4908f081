//! The charge-pump / tFAW power-constraint model.
//!
//! §6.3 of the paper evaluates every memory-resident case study under a
//! *power constraint*: the power-delivery network and the wordline charge
//! pumps can only sustain a bounded rate of row activations across the whole
//! rank (cf. tFAW in JEDEC DDR3, and Shevgoor et al. \[12\]). Designs whose
//! commands drive more wordlines — Ambit's TRA above all — exhaust the
//! budget faster and lose bank-level parallelism.
//!
//! The model is a token budget per rolling activation window:
//!
//! * the default budget is the JEDEC four-activate window (4 tokens per
//!   tFAW = 40 ns);
//! * a command costs one token per regular wordline event,
//!   [`PumpBudget::extra_wordline_cost`] per *extra simultaneously driven*
//!   wordline (default 1.22, the paper's +22 % pump surcharge), plus
//!   [`PumpBudget::pseudo_precharge_cost`] when the SA regulates the bitline
//!   through the pseudo-precharge state (default 0.31).
//!
//! Two consumers exist: the analytic steady-state estimate
//! ([`PumpBudget::max_parallel_banks`], used by the case studies) and the
//! event-driven [`crate::controller::Controller`], which enforces the budget
//! with an exact sliding window.

use crate::command::CommandProfile;
use crate::timing::Ddr3Timing;
use crate::units::{Ns, Ps};
use std::collections::VecDeque;

/// Charge-pump token budget per rolling activation window.
///
/// ```
/// use elp2im_dram::constraint::PumpBudget;
/// use elp2im_dram::command::CommandProfile;
/// use elp2im_dram::timing::Ddr3Timing;
///
/// let t = Ddr3Timing::ddr3_1600();
/// let b = PumpBudget::jedec_ddr3_1600();
/// // An Ambit TRA command costs far more pump budget than a regular AP.
/// assert!(b.command_cost(&CommandProfile::ambit_tra_aap(&t))
///         > 4.0 * b.command_cost(&CommandProfile::ap(&t)));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct PumpBudget {
    /// Tokens available per window (JEDEC DDR3: 4 activates).
    pub tokens_per_window: f64,
    /// Window length (JEDEC DDR3-1600 tFAW: 40 ns).
    pub window: Ns,
    /// Token cost of each *extra* simultaneously driven wordline.
    pub extra_wordline_cost: f64,
    /// Additional token cost of a pseudo-precharge phase.
    pub pseudo_precharge_cost: f64,
}

impl PumpBudget {
    /// The JEDEC DDR3-1600 four-activate-window budget with the paper's
    /// wordline and pseudo-precharge surcharges.
    pub fn jedec_ddr3_1600() -> Self {
        let t = Ddr3Timing::ddr3_1600();
        PumpBudget {
            tokens_per_window: 4.0,
            window: t.t_faw,
            extra_wordline_cost: 1.22,
            pseudo_precharge_cost: 0.31,
        }
    }

    /// An effectively unlimited budget (the paper's "without power
    /// constraint" configuration, §6.3.1 and §6.3.3).
    pub fn unconstrained() -> Self {
        PumpBudget { tokens_per_window: f64::INFINITY, ..PumpBudget::jedec_ddr3_1600() }
    }

    /// Whether this budget actually constrains anything.
    pub fn is_constrained(&self) -> bool {
        self.tokens_per_window.is_finite()
    }

    /// Token cost of one command.
    pub fn command_cost(&self, profile: &CommandProfile) -> f64 {
        let extra = f64::from(profile.extra_simultaneous_wordlines());
        let regular = f64::from(profile.total_wordline_events) - extra;
        let mut cost = regular + extra * self.extra_wordline_cost;
        if profile.pseudo_precharge {
            cost += self.pseudo_precharge_cost;
        }
        cost
    }

    /// Token consumption rate (tokens/ns) of a bank repeatedly issuing the
    /// given command stream back to back.
    pub fn stream_rate(&self, stream: &[CommandProfile]) -> f64 {
        let cost: f64 = stream.iter().map(|p| self.command_cost(p)).sum();
        let dur: Ns = stream.iter().map(|p| p.duration).sum();
        if dur.as_f64() <= 0.0 {
            return 0.0;
        }
        cost / dur.as_f64()
    }

    /// Sustainable token rate of the whole rank (tokens/ns).
    pub fn budget_rate(&self) -> f64 {
        self.tokens_per_window / self.window.as_f64()
    }

    /// Steady-state number of banks that can concurrently run `stream`,
    /// capped at `max_banks`.
    ///
    /// Returns a fractional bank count: values below 1.0 mean even a single
    /// bank must stall between commands.
    pub fn max_parallel_banks(&self, stream: &[CommandProfile], max_banks: usize) -> f64 {
        if !self.is_constrained() {
            return max_banks as f64;
        }
        let per_bank = self.stream_rate(stream);
        if per_bank <= 0.0 {
            return max_banks as f64;
        }
        (self.budget_rate() / per_bank).min(max_banks as f64)
    }
}

impl Default for PumpBudget {
    fn default() -> Self {
        PumpBudget::jedec_ddr3_1600()
    }
}

/// The periodic all-bank refresh rule, stated once for the controller and
/// the timing verifier: every `interval`, the rank is unavailable for
/// `duration` from the start of the interval. Returns the end of the
/// blackout `t` falls into, or `None` when `t` is outside every blackout.
/// A zero `interval` means no refresh.
pub fn refresh_blackout_end(t: Ps, (interval, duration): (Ps, Ps)) -> Option<Ps> {
    if interval == Ps::ZERO {
        return None;
    }
    let offset = t.0 % interval.0;
    (offset < duration.0).then(|| Ps(t.0 - offset + duration.0))
}

/// Exact sliding-window token accounting used by the event-driven
/// controller.
#[derive(Debug, Clone)]
pub struct PumpWindow {
    budget: PumpBudget,
    window: Ps,
    /// Admission log: (timestamp, cost).
    events: VecDeque<(Ps, f64)>,
    in_window: f64,
}

impl PumpWindow {
    /// Creates a sliding window for `budget`.
    pub fn new(budget: PumpBudget) -> Self {
        let window = budget.window.to_ps();
        PumpWindow { budget, window, events: VecDeque::new(), in_window: 0.0 }
    }

    /// Empties the window and makes it enforce `budget`, keeping the
    /// admission log's capacity (the scheduler reuses its windows).
    pub(crate) fn reset(&mut self, budget: &PumpBudget) {
        self.budget = budget.clone();
        self.window = budget.window.to_ps();
        self.events.clear();
        self.in_window = 0.0;
    }

    /// The budget this window enforces.
    pub fn budget(&self) -> &PumpBudget {
        &self.budget
    }

    fn expire(&mut self, now: Ps) {
        // A draw at time t occupies the window [t, t + W); it stops gating
        // new admissions once t + W <= now. (Written additively — a
        // saturating `now - W` would spuriously expire early draws while
        // `now < W`.)
        while let Some(&(t, c)) = self.events.front() {
            if t + self.window <= now {
                self.events.pop_front();
                self.in_window -= c;
            } else {
                break;
            }
        }
        if self.in_window < 0.0 {
            self.in_window = 0.0;
        }
    }

    /// Tries to admit a command of token cost `cost` at time `now`.
    ///
    /// Returns `Ok(())` and records the draw, or `Err(earliest)` with the
    /// earliest time at which the command could be admitted.
    ///
    /// Callers may probe at non-monotonic times (different banks progress
    /// independently), so the event log is kept **sorted by time** — this
    /// keeps expiry exact and guarantees the returned retry time is
    /// strictly after `now`.
    ///
    /// # Errors
    ///
    /// `Err` carries the retry time; if the cost alone exceeds the whole
    /// window budget the command is admitted anyway with a saturated window
    /// (a single command can never deadlock the rank — it just drains the
    /// budget for a full window), matching how a real pump brown-out would
    /// be amortized.
    pub fn try_admit(&mut self, now: Ps, cost: f64) -> Result<(), Ps> {
        if !self.budget.is_constrained() {
            return Ok(());
        }
        self.expire(now);
        // Only draws inside the window ending at `now` gate this command;
        // sorted order makes the prefix scan below exact.
        let in_window_now: f64 =
            self.events.iter().take_while(|&&(t, _)| t <= now).map(|&(_, c)| c).sum();
        // A command whose cost alone exceeds the whole budget (an Ambit
        // TRA under a tight window) waits for an *empty* window, then
        // saturates it — spacing such commands a full window apart rather
        // than deadlocking.
        let oversized = cost >= self.budget.tokens_per_window;
        if (!oversized && in_window_now + cost <= self.budget.tokens_per_window)
            || (oversized && in_window_now <= 1e-12)
        {
            // Sorted insert (admissions are near-monotonic, so this is
            // almost always a push_back).
            let pos = self.events.partition_point(|&(t, _)| t <= now);
            self.events.insert(pos, (now, cost));
            self.in_window += cost;
            return Ok(());
        }
        // Earliest admission: when enough of the oldest draws expire (an
        // oversized command needs the whole in-window prefix gone).
        let needed = if oversized {
            in_window_now
        } else {
            in_window_now + cost - self.budget.tokens_per_window
        };
        let mut freed = 0.0;
        for &(t, c) in &self.events {
            if t > now {
                break;
            }
            freed += c;
            if freed >= needed - 1e-12 {
                // t is unexpired at `now` (t + window > now), so this is
                // strictly after `now`: the retry loop always advances.
                return Err(t + self.window);
            }
        }
        // Unreachable: freed over the full in-window prefix equals
        // `in_window_now` ≥ `needed` whenever cost < budget.
        Err(now + self.window)
    }

    /// Tokens currently drawn within the window ending at `now` (draws
    /// admitted at times after `now` do not count).
    pub fn drawn(&mut self, now: Ps) -> f64 {
        self.expire(now);
        self.events.iter().take_while(|&&(t, _)| t <= now).map(|&(_, c)| c).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::command::CommandProfile;

    fn timing() -> Ddr3Timing {
        Ddr3Timing::ddr3_1600()
    }

    #[test]
    fn command_costs() {
        let b = PumpBudget::jedec_ddr3_1600();
        let t = timing();
        assert!((b.command_cost(&CommandProfile::ap(&t)) - 1.0).abs() < 1e-12);
        assert!((b.command_cost(&CommandProfile::aap(&t)) - 2.0).abs() < 1e-12);
        assert!((b.command_cost(&CommandProfile::o_aap(&t)) - 2.22).abs() < 1e-12);
        assert!((b.command_cost(&CommandProfile::app(&t)) - 1.31).abs() < 1e-12);
        // TRA-AAP: 2 regular + 2 extra-simultaneous wordlines.
        assert!(
            (b.command_cost(&CommandProfile::ambit_tra_aap(&t)) - (2.0 + 2.0 * 1.22)).abs() < 1e-12
        );
    }

    /// The paper's headline parallelism result: under the power constraint
    /// ELP2IM (high-throughput mode AAP-APP-AP) sustains ~4 of 8 banks,
    /// while an Ambit AND stream sustains ~2.
    #[test]
    fn parallel_banks_elp2im_vs_ambit() {
        let b = PumpBudget::jedec_ddr3_1600();
        let t = timing();
        let elp2im = vec![CommandProfile::aap(&t), CommandProfile::app(&t), CommandProfile::ap(&t)];
        let ambit = vec![
            CommandProfile::o_aap(&t),
            CommandProfile::o_aap(&t),
            CommandProfile::o_aap(&t),
            CommandProfile::ambit_tra_aap(&t),
        ];
        let be = b.max_parallel_banks(&elp2im, 8);
        let ba = b.max_parallel_banks(&ambit, 8);
        assert!((4.0..=5.2).contains(&be), "ELP2IM banks = {be}");
        assert!((1.5..=2.5).contains(&ba), "Ambit banks = {ba}");
        assert!(be > 2.0 * ba * 0.9, "ELP2IM should keep ~2x+ more banks");
    }

    #[test]
    fn unconstrained_budget_allows_all_banks() {
        let b = PumpBudget::unconstrained();
        let t = timing();
        let stream = vec![CommandProfile::ambit_tra_aap(&t)];
        assert_eq!(b.max_parallel_banks(&stream, 8), 8.0);
        assert!(!b.is_constrained());
    }

    #[test]
    fn window_admits_up_to_budget_then_defers() {
        let mut w = PumpWindow::new(PumpBudget::jedec_ddr3_1600());
        let now = Ps::ZERO;
        for _ in 0..4 {
            assert!(w.try_admit(now, 1.0).is_ok());
        }
        let deferred = w.try_admit(now, 1.0);
        let retry = deferred.expect_err("5th activate in the same instant must defer");
        assert!(retry > now);
        // After the window passes, admission succeeds again.
        assert!(w.try_admit(retry, 1.0).is_ok());
    }

    #[test]
    fn window_expires_old_draws() {
        let mut w = PumpWindow::new(PumpBudget::jedec_ddr3_1600());
        assert!(w.try_admit(Ps(0), 4.0).is_ok());
        assert!(w.drawn(Ps(0)) >= 4.0);
        let later = Ps(41_000); // > 40 ns
        assert!((w.drawn(later) - 0.0).abs() < 1e-12);
        assert!(w.try_admit(later, 4.0).is_ok());
    }

    #[test]
    fn oversized_command_is_admitted_saturating() {
        let mut w =
            PumpWindow::new(PumpBudget { tokens_per_window: 2.0, ..PumpBudget::jedec_ddr3_1600() });
        // Cost larger than the whole budget: admit rather than deadlock.
        assert!(w.try_admit(Ps(0), 3.0).is_ok());
        // But the window is now saturated.
        assert!(w.try_admit(Ps(1), 0.5).is_err());
    }

    #[test]
    fn refresh_blackouts_open_each_interval() {
        let refresh = (Ps(1_000), Ps(300));
        assert_eq!(refresh_blackout_end(Ps(0), refresh), Some(Ps(300)));
        assert_eq!(refresh_blackout_end(Ps(2_299), refresh), Some(Ps(2_300)));
        assert_eq!(refresh_blackout_end(Ps(2_300), refresh), None);
        assert_eq!(refresh_blackout_end(Ps(0), (Ps::ZERO, Ps(300))), None);
    }

    #[test]
    fn deferral_time_is_exact() {
        let mut w = PumpWindow::new(PumpBudget::jedec_ddr3_1600());
        assert!(w.try_admit(Ps(0), 2.0).is_ok());
        assert!(w.try_admit(Ps(10_000), 2.0).is_ok());
        // Needs 1 token: the first draw (2.0) expires at 0 + 40 ns.
        let retry = w.try_admit(Ps(20_000), 1.0).unwrap_err();
        assert_eq!(retry, Ps(40_000));
        assert!(w.try_admit(retry, 1.0).is_ok());
    }
}
