//! Static timing verification of claimed schedules.
//!
//! The schedulers ([`crate::interleave::InterleavedScheduler`],
//! [`crate::hierarchy::HierarchicalScheduler`]) *construct* legal
//! schedules; this module *checks* them. [`verify_claims`] takes a claimed
//! bus-order schedule — a list of `(path, start)` instants — together with
//! the per-bank command streams it claims to realize, and discharges four
//! proof obligations over exact integer-picosecond intervals, without
//! executing anything:
//!
//! 1. **Bank occupancy** — a bank's commands may not overlap: each start
//!    lies at or after the previous command's completion on that bank.
//! 2. **In-order bus issue** — per channel, issue instants are
//!    non-decreasing in claim order (the bus serializes issues).
//! 3. **Charge-pump / tFAW window** — replaying the per-rank
//!    [`PumpWindow`] at the claimed instants never overdraws the budget.
//! 4. **Refresh alignment** — when a `(interval, duration)` refresh
//!    blackout is declared, no command starts inside a blackout (the
//!    semantics of [`crate::controller::Controller::with_refresh`]).
//!
//! A schedule produced by either scheduler verifies clean by construction
//! (pinned against the golden traces in the tests below); any perturbed
//! schedule is rejected with a concrete counterexample naming the claim,
//! the instant, and the interval it violates. The plan-level static
//! analyzer (`elp2im_core::planlint`) is the primary consumer.

use crate::command::CommandProfile;
use crate::constraint::{PumpBudget, PumpWindow};
use crate::error::DramError;
use crate::geometry::TopoPath;
use crate::hierarchy::{merge_streams, HierarchicalScheduler, Resources};
use crate::interleave::Schedule;
use crate::telemetry::StallReason;
use crate::units::Ps;
use std::collections::BTreeMap;
use std::fmt;

/// One claimed command issue: the `k`-th claim naming `path` binds to the
/// `k`-th command of that bank's stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ClaimedCommand {
    /// Bank the command executes on.
    pub path: TopoPath,
    /// Claimed issue instant.
    pub start: Ps,
}

/// A refuted proof obligation: the concrete counterexample for one claim.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TimingViolation {
    /// The claim list names a different number of commands for a bank than
    /// its stream holds (or names a bank with no stream).
    ClaimShapeMismatch {
        /// The bank.
        path: TopoPath,
        /// Commands claimed for it.
        claimed: usize,
        /// Commands its stream holds.
        expected: usize,
    },
    /// A command starts before its bank finished the previous one.
    BankOverlap {
        /// The bank.
        path: TopoPath,
        /// Claim index (bus order).
        seq: usize,
        /// Position within the bank's stream.
        index: usize,
        /// Claimed start.
        start: Ps,
        /// Completion instant of the bank's previous command.
        prev_done: Ps,
    },
    /// Per-channel in-order issue is violated: a later claim on the same
    /// channel starts earlier than a previous one.
    BusOrderViolation {
        /// The shared channel.
        channel: usize,
        /// Claim index (bus order).
        seq: usize,
        /// The offending bank.
        path: TopoPath,
        /// Position within the bank's stream.
        index: usize,
        /// Claimed start.
        start: Ps,
        /// Claim index of the earlier issue it undercuts.
        prev_seq: usize,
        /// Start of that earlier issue.
        prev_start: Ps,
    },
    /// The rank's charge-pump / tFAW sliding window is overdrawn at the
    /// claimed instant.
    PumpOverrun {
        /// The rank, as `(channel, rank)`.
        rank: (usize, usize),
        /// Claim index (bus order).
        seq: usize,
        /// The bank.
        path: TopoPath,
        /// Position within the bank's stream.
        index: usize,
        /// Claimed start.
        start: Ps,
        /// Earliest instant the window would admit the command.
        earliest: Ps,
    },
    /// The command starts inside a refresh blackout.
    RefreshMisalignment {
        /// Claim index (bus order).
        seq: usize,
        /// The bank.
        path: TopoPath,
        /// Position within the bank's stream.
        index: usize,
        /// Claimed start.
        start: Ps,
        /// End of the blackout the start falls into.
        blackout_until: Ps,
    },
}

impl TimingViolation {
    /// Stable machine-readable identifier, mirroring
    /// `DiagnosticKind::slug` on the program-level analyzer.
    pub fn slug(&self) -> &'static str {
        match self {
            TimingViolation::ClaimShapeMismatch { .. } => "claim-shape-mismatch",
            TimingViolation::BankOverlap { .. } => "bank-overlap",
            TimingViolation::BusOrderViolation { .. } => "bus-order-violation",
            TimingViolation::PumpOverrun { .. } => "pump-overrun",
            TimingViolation::RefreshMisalignment { .. } => "refresh-misalignment",
        }
    }

    /// The stall-reason bucket the refuted obligation corresponds to, so
    /// telemetry can aggregate violations with the scheduler's own
    /// stall-split reason codes.
    pub fn stall_reason(&self) -> StallReason {
        match self {
            TimingViolation::ClaimShapeMismatch { .. } => StallReason::None,
            TimingViolation::BankOverlap { .. } => StallReason::Bank,
            TimingViolation::BusOrderViolation { .. } => StallReason::Bus,
            TimingViolation::PumpOverrun { .. } => StallReason::Pump,
            TimingViolation::RefreshMisalignment { .. } => StallReason::Refresh,
        }
    }
}

impl fmt::Display for TimingViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TimingViolation::ClaimShapeMismatch { path, claimed, expected } => {
                write!(f, "bank {path}: {claimed} commands claimed but the stream holds {expected}")
            }
            TimingViolation::BankOverlap { path, seq, index, start, prev_done } => write!(
                f,
                "bank {path}: claim #{seq} (command #{index}) starts at {} ps before the \
                 previous command completes at {} ps",
                start.0, prev_done.0
            ),
            TimingViolation::BusOrderViolation {
                channel,
                seq,
                path,
                index,
                start,
                prev_seq,
                prev_start,
            } => write!(
                f,
                "channel {channel}: claim #{seq} ({path} command #{index}) starts at {} ps, \
                 before claim #{prev_seq} at {} ps (in-order bus issue violated)",
                start.0, prev_start.0
            ),
            TimingViolation::PumpOverrun { rank, seq, path, index, start, earliest } => write!(
                f,
                "rank c{}.r{}: claim #{seq} ({path} command #{index}) at {} ps overdraws the \
                 charge-pump window (earliest legal start {} ps)",
                rank.0, rank.1, start.0, earliest.0
            ),
            TimingViolation::RefreshMisalignment { seq, path, index, start, blackout_until } => {
                write!(
                    f,
                    "claim #{seq} ({path} command #{index}) at {} ps lands in a refresh \
                     blackout until {} ps",
                    start.0, blackout_until.0
                )
            }
        }
    }
}

/// Checks `claims` (in claimed bus order) against `streams` under `budget`
/// and an optional `(interval, duration)` refresh blackout. Streams may be
/// owned vectors or borrowed slices; duplicate paths concatenate in input
/// order, as in the schedulers.
///
/// # Errors
///
/// Every refuted obligation. `Ok` is the certificate that the claimed
/// schedule is legal and carries its proven makespan: the latest claimed
/// completion instant.
pub fn verify_claims<S: AsRef<[CommandProfile]>>(
    budget: &PumpBudget,
    refresh: Option<(Ps, Ps)>,
    streams: &[(TopoPath, S)],
    claims: &[ClaimedCommand],
) -> Result<Ps, Vec<TimingViolation>> {
    let entries = merge_streams(streams);
    let mut violations = Vec::new();

    // Bind every claim to its bank's entry once; later passes index
    // vectors by entry instead of looking paths up per obligation.
    let bound: Vec<Option<usize>> =
        claims.iter().map(|c| entries.binary_search_by_key(&c.path, |(p, _)| *p).ok()).collect();

    // Shape first: every bank's claim count must match its stream length.
    let mut claimed = vec![0usize; entries.len()];
    let mut phantom: BTreeMap<TopoPath, usize> = BTreeMap::new();
    for (c, entry) in claims.iter().zip(&bound) {
        match entry {
            Some(i) => claimed[*i] += 1,
            None => *phantom.entry(c.path).or_insert(0) += 1,
        }
    }
    for ((path, cmds), &claimed) in entries.iter().zip(&claimed) {
        if claimed != cmds.len() {
            violations.push(TimingViolation::ClaimShapeMismatch {
                path: *path,
                claimed,
                expected: cmds.len(),
            });
        }
    }
    for (path, claimed) in phantom {
        violations.push(TimingViolation::ClaimShapeMismatch { path, claimed, expected: 0 });
    }
    if !violations.is_empty() {
        // Claim-to-command binding is meaningless under a shape mismatch.
        return Err(violations);
    }

    let Resources { slots, ranks, channels } = Resources::of(entries.iter().map(|(p, _)| *p));
    let mut cursors = vec![0usize; entries.len()];
    let mut bank_done: Vec<Option<Ps>> = vec![None; entries.len()];
    let mut channel_last: Vec<Option<(usize, Ps)>> = vec![None; channels];
    let mut pumps: Vec<PumpWindow> =
        ranks.iter().map(|_| PumpWindow::new(budget.clone())).collect();
    let mut makespan = Ps::ZERO;

    for (seq, (claim, entry)) in claims.iter().zip(&bound).enumerate() {
        // The shape check bound every claim.
        let Some(i) = *entry else { continue };
        let (path, start) = (claim.path, claim.start);
        let index = cursors[i];
        cursors[i] += 1;
        let profile = entries[i].1[index];
        let (rank, channel) = slots[i];

        // 1. Bank occupancy.
        if let Some(prev_done) = bank_done[i] {
            if start < prev_done {
                violations.push(TimingViolation::BankOverlap {
                    path,
                    seq,
                    index,
                    start,
                    prev_done,
                });
            }
        }
        let done = start + profile.duration.to_ps();
        bank_done[i] = Some(done);
        makespan = makespan.max(done);

        // 2. In-order bus issue per channel.
        match channel_last[channel] {
            Some((prev_seq, prev_start)) if start < prev_start => {
                violations.push(TimingViolation::BusOrderViolation {
                    channel: path.channel,
                    seq,
                    path,
                    index,
                    start,
                    prev_seq,
                    prev_start,
                });
                // Keep the cursor at the later instant: subsequent claims
                // are judged against the real high-water mark.
            }
            _ => channel_last[channel] = Some((seq, start)),
        }

        // 3. Refresh alignment (Controller::with_refresh semantics: a
        // blackout of `duration` opens at the start of every `interval`).
        if let Some((interval, duration)) = refresh {
            if interval > Ps::ZERO {
                let offset = Ps(start.0 % interval.0);
                if offset < duration {
                    violations.push(TimingViolation::RefreshMisalignment {
                        seq,
                        path,
                        index,
                        start,
                        blackout_until: Ps(start.0 - offset.0 + duration.0),
                    });
                }
            }
        }

        // 4. Charge-pump / tFAW window per rank.
        if let Err(earliest) = pumps[rank].try_admit(start, budget.command_cost(profile)) {
            violations.push(TimingViolation::PumpOverrun {
                rank: ranks[rank],
                seq,
                path,
                index,
                start,
                earliest,
            });
            // The draw was refused; later claims are checked against the
            // window without it, mirroring a schedule that would have
            // deferred this command.
        }
    }
    if violations.is_empty() {
        Ok(makespan)
    } else {
        Err(violations)
    }
}

/// Schedules `streams` with the deterministic hierarchical rules, then
/// verifies the resulting schedule's own claims (including the optional
/// refresh obligation the scheduler itself does not model). On success the
/// schedule is the constructive proof; any violations refute it.
///
/// # Errors
///
/// Propagates [`HierarchicalScheduler::schedule`] errors.
pub fn prove(
    budget: &PumpBudget,
    refresh: Option<(Ps, Ps)>,
    streams: &[(TopoPath, Vec<CommandProfile>)],
) -> Result<(Schedule, Vec<TimingViolation>), DramError> {
    let schedule = HierarchicalScheduler::new(budget.clone()).schedule(streams)?;
    let violations = verify_claims(budget, refresh, streams, &schedule.claims()).err();
    Ok((schedule, violations.unwrap_or_default()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interleave::InterleavedScheduler;
    use crate::timing::Ddr3Timing;

    fn t() -> Ddr3Timing {
        Ddr3Timing::ddr3_1600()
    }

    fn streams(
        channels: usize,
        ranks: usize,
        banks: usize,
        per_bank: usize,
    ) -> Vec<(TopoPath, Vec<CommandProfile>)> {
        let mut out = Vec::new();
        for c in 0..channels {
            for r in 0..ranks {
                for b in 0..banks {
                    out.push((
                        TopoPath::new(c, r, b),
                        vec![
                            CommandProfile::ap(&t()),
                            CommandProfile::aap(&t()),
                            CommandProfile::app(&t()),
                        ]
                        .into_iter()
                        .cycle()
                        .take(per_bank)
                        .collect(),
                    ));
                }
            }
        }
        out
    }

    #[test]
    fn scheduler_output_verifies_clean_on_golden_shapes() {
        for budget in [PumpBudget::unconstrained(), PumpBudget::jedec_ddr3_1600()] {
            for (c, r, b, n) in [(1, 1, 8, 6), (2, 2, 4, 5), (4, 1, 2, 8), (1, 2, 8, 8)] {
                let ss = streams(c, r, b, n);
                let s = HierarchicalScheduler::new(budget.clone()).schedule(&ss).unwrap();
                match verify_claims(&budget, None, &ss, &s.claims()) {
                    // The proven makespan is the scheduler's, bit for bit.
                    Ok(end) => assert_eq!(end.to_ns(), s.stats.makespan, "{c}x{r}x{b}x{n}"),
                    Err(v) => panic!("{c}x{r}x{b}x{n}: {v:?}"),
                }
            }
        }
    }

    #[test]
    fn flat_scheduler_output_verifies_clean() {
        let budget = PumpBudget::jedec_ddr3_1600();
        let flat: Vec<_> = (0..8).map(|b| (b, vec![CommandProfile::ap(&t()); 6])).collect();
        let s = InterleavedScheduler::new(budget.clone()).schedule(&flat).unwrap();
        let lifted: Vec<_> =
            flat.iter().map(|(b, v)| (TopoPath::flat_bank(*b), v.clone())).collect();
        assert!(verify_claims(&budget, None, &lifted, &s.claims()).is_ok());
    }

    #[test]
    fn perturbed_stalled_command_is_refuted_as_pump_overrun() {
        let budget = PumpBudget::jedec_ddr3_1600();
        let ss = streams(1, 1, 8, 6);
        let s = HierarchicalScheduler::new(budget.clone()).schedule(&ss).unwrap();
        let stalled = s
            .commands
            .iter()
            .position(|c| c.pump_stall > Ps::ZERO)
            .expect("8 jedec banks must stall");
        let mut claims = s.claims();
        // Claim the stalled command at the instant the scheduler was
        // denied: the window must refuse it again.
        claims[stalled].start = Ps(claims[stalled].start.0 - s.commands[stalled].pump_stall.0);
        let v = verify_claims(&budget, None, &ss, &claims).unwrap_err();
        assert!(
            v.iter().any(|x| matches!(
                x,
                TimingViolation::PumpOverrun { seq, earliest, .. }
                    if *seq == stalled && *earliest <= s.commands[stalled].start
            )),
            "expected a pump overrun at claim #{stalled}: {v:?}"
        );
    }

    #[test]
    fn swapped_channel_starts_are_refuted_as_bus_order_violation() {
        let budget = PumpBudget::unconstrained();
        let ss = streams(1, 1, 2, 2);
        let s = HierarchicalScheduler::new(budget.clone()).schedule(&ss).unwrap();
        let mut claims = s.claims();
        let (a, b) = (claims[1].start, claims[2].start);
        assert!(a < b, "distinct issue instants expected");
        claims[1].start = b;
        claims[2].start = a;
        let v = verify_claims(&budget, None, &ss, &claims).unwrap_err();
        assert!(
            v.iter().any(|x| matches!(x, TimingViolation::BusOrderViolation { seq: 2, .. })),
            "{v:?}"
        );
    }

    #[test]
    fn refresh_blackouts_refute_misaligned_claims() {
        let budget = PumpBudget::unconstrained();
        let ss = streams(1, 1, 1, 2);
        let s = HierarchicalScheduler::new(budget.clone()).schedule(&ss).unwrap();
        let claims = s.claims();
        // The first command starts at t = 0, inside the blackout.
        let refresh = Some((Ps(7_800_000), Ps(350_000)));
        let v = verify_claims(&budget, refresh, &ss, &claims).unwrap_err();
        assert!(
            v.iter().any(|x| matches!(
                x,
                TimingViolation::RefreshMisalignment { seq: 0, blackout_until: Ps(350_000), .. }
            )),
            "{v:?}"
        );
        assert!(verify_claims(&budget, None, &ss, &claims).is_ok());
    }

    #[test]
    fn overlapping_bank_commands_are_refuted() {
        let budget = PumpBudget::unconstrained();
        let ss = streams(1, 1, 1, 2);
        let s = HierarchicalScheduler::new(budget.clone()).schedule(&ss).unwrap();
        let mut claims = s.claims();
        claims[1].start = Ps(claims[1].start.0 - 1);
        let v = verify_claims(&budget, None, &ss, &claims).unwrap_err();
        assert!(
            v.iter().any(|x| matches!(x, TimingViolation::BankOverlap { seq: 1, .. })),
            "{v:?}"
        );
    }

    #[test]
    fn claim_shape_mismatches_are_refuted() {
        let budget = PumpBudget::unconstrained();
        let ss = streams(1, 1, 2, 2);
        let mut claims = HierarchicalScheduler::new(budget.clone()).schedule(&ss).unwrap().claims();
        claims.pop();
        let v = verify_claims(&budget, None, &ss, &claims).unwrap_err();
        assert_eq!(v.len(), 1);
        assert!(matches!(
            v[0],
            TimingViolation::ClaimShapeMismatch { claimed: 1, expected: 2, .. }
        ));
        // A claim for a bank with no stream is also a shape mismatch.
        let phantom = vec![ClaimedCommand { path: TopoPath::new(0, 0, 9), start: Ps::ZERO }];
        let v = verify_claims(&budget, None, &ss, &phantom).unwrap_err();
        assert!(v
            .iter()
            .any(|x| matches!(x, TimingViolation::ClaimShapeMismatch { expected: 0, .. })));
    }

    #[test]
    fn prove_constructs_and_certifies() {
        let budget = PumpBudget::jedec_ddr3_1600();
        let ss = streams(2, 1, 4, 4);
        let (schedule, violations) = prove(&budget, None, &ss).unwrap();
        assert!(violations.is_empty());
        assert!(schedule.stats.makespan.as_f64() > 0.0);
    }

    #[test]
    fn violations_map_to_stall_reason_codes() {
        let v = TimingViolation::PumpOverrun {
            rank: (0, 0),
            seq: 0,
            path: TopoPath::flat_bank(0),
            index: 0,
            start: Ps::ZERO,
            earliest: Ps(1),
        };
        assert_eq!(v.stall_reason(), StallReason::Pump);
        assert_eq!(v.slug(), "pump-overrun");
        for reason in StallReason::ALL {
            let _ = reason.label();
        }
    }
}
