//! Property-based tests over `RunStats` merge semantics and their
//! agreement with the schedulers:
//!
//! * `merge_parallel` and `merge_sequential` are associative (and
//!   parallel merge is commutative), so batch layers may fold run blocks
//!   in any grouping;
//! * `merge_sequential` over per-operation scheduler runs agrees with the
//!   event-driven controller replaying the same operations back to back;
//! * `merge_parallel` over single-bank schedules agrees with one
//!   interleaved schedule of the same streams when banks don't contend;
//! * channels fold with `merge_parallel` under any budget (they share
//!   nothing), and each single-rank channel's stats slice agrees with the
//!   event-driven controller replaying that rank alone.

use elp2im::dram::command::{CommandClass, CommandProfile};
use elp2im::dram::constraint::PumpBudget;
use elp2im::dram::controller::Controller;
use elp2im::dram::geometry::TopoPath;
use elp2im::dram::hierarchy::HierarchicalScheduler;
use elp2im::dram::stats::RunStats;
use elp2im::dram::timing::Ddr3Timing;
use elp2im::dram::units::{Ns, Picojoules};
use proptest::prelude::*;

fn stats_strategy() -> impl Strategy<Value = RunStats> {
    let classes = prop_oneof![
        Just(CommandClass::Ap),
        Just(CommandClass::Aap),
        Just(CommandClass::App),
        Just(CommandClass::TApp),
        Just(CommandClass::TraAap),
    ];
    (
        proptest::collection::vec((classes, 1.0f64..100.0, 1u8..4, 1.0f64..500.0), 0..6),
        0.0f64..2000.0,
        0.0f64..500.0,
        0.0f64..300.0,
    )
        .prop_map(|(cmds, makespan, background, stall)| {
            let mut s = RunStats::new();
            for (class, dur, wl, pj) in cmds {
                s.record(class, Ns(dur), wl, Picojoules(pj));
            }
            s.makespan = Ns(makespan);
            s.background_energy = Picojoules(background);
            s.pump_stall = Ns(stall);
            s
        })
}

fn profile_stream() -> impl Strategy<Value = Vec<CommandProfile>> {
    let t = Ddr3Timing::ddr3_1600();
    let profiles = prop_oneof![
        Just(CommandProfile::ap(&t)),
        Just(CommandProfile::aap(&t)),
        Just(CommandProfile::app(&t)),
        Just(CommandProfile::o_app(&t)),
    ];
    proptest::collection::vec(profiles, 1..6)
}

/// Equality up to floating-point rounding introduced by different
/// summation orders.
fn assert_stats_close(a: &RunStats, b: &RunStats) {
    assert_eq!(a.commands, b.commands);
    assert_eq!(a.wordline_activations, b.wordline_activations);
    let close = |x: f64, y: f64| (x - y).abs() <= 1e-6 * (1.0 + x.abs().max(y.abs()));
    assert!(close(a.busy_time.as_f64(), b.busy_time.as_f64()), "busy {a} vs {b}");
    assert!(close(a.makespan.as_f64(), b.makespan.as_f64()), "makespan {a} vs {b}");
    assert!(close(a.energy.as_f64(), b.energy.as_f64()), "energy {a} vs {b}");
    assert!(
        close(a.background_energy.as_f64(), b.background_energy.as_f64()),
        "background {a} vs {b}"
    );
    assert!(close(a.pump_stall.as_f64(), b.pump_stall.as_f64()), "stall {a} vs {b}");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// (a ⊕ b) ⊕ c = a ⊕ (b ⊕ c) for the sequential merge.
    #[test]
    fn merge_sequential_is_associative(
        a in stats_strategy(),
        b in stats_strategy(),
        c in stats_strategy(),
    ) {
        let mut left = a.clone();
        left.merge_sequential(&b);
        left.merge_sequential(&c);
        let mut bc = b.clone();
        bc.merge_sequential(&c);
        let mut right = a.clone();
        right.merge_sequential(&bc);
        assert_stats_close(&left, &right);
    }

    /// (a ∥ b) ∥ c = a ∥ (b ∥ c), and a ∥ b = b ∥ a, for the parallel
    /// merge (max-based fields are order-insensitive).
    #[test]
    fn merge_parallel_is_associative_and_commutative(
        a in stats_strategy(),
        b in stats_strategy(),
        c in stats_strategy(),
    ) {
        let mut left = a.clone();
        left.merge_parallel(&b);
        left.merge_parallel(&c);
        let mut bc = b.clone();
        bc.merge_parallel(&c);
        let mut right = a.clone();
        right.merge_parallel(&bc);
        assert_stats_close(&left, &right);

        let mut ab = a.clone();
        ab.merge_parallel(&b);
        let mut ba = b.clone();
        ba.merge_parallel(&a);
        assert_stats_close(&ab, &ba);
    }

    /// Folding per-operation scheduler runs with `merge_sequential`
    /// reproduces the event-driven controller replaying the same
    /// operations back to back on one bank.
    #[test]
    fn sequential_merge_agrees_with_serial_replay(
        ops in proptest::collection::vec(profile_stream(), 1..5),
    ) {
        let sched = HierarchicalScheduler::new(PumpBudget::unconstrained());
        let mut folded = RunStats::new();
        for stream in &ops {
            let s = sched.schedule(&[(TopoPath::flat_bank(0), stream.clone())]).unwrap();
            folded.merge_sequential(&s.stats);
        }

        let mut ctrl = Controller::new(1, PumpBudget::unconstrained());
        let mut replay = RunStats::new();
        for stream in &ops {
            let s = ctrl.run_streams(&[(0, stream.clone())]).unwrap();
            replay.merge_sequential(&s);
        }
        assert_stats_close(&folded, &replay);
        // And the grand totals match the controller's cumulative state.
        prop_assert_eq!(replay.total_commands(), ctrl.stats().total_commands());
        prop_assert!(
            (replay.makespan.as_f64() - ctrl.stats().makespan.as_f64()).abs() < 1e-6
        );
    }

    /// Folding independent single-bank schedules with `merge_parallel`
    /// agrees with one interleaved schedule of the same streams when the
    /// pump budget is unconstrained (banks don't contend, so per-bank
    /// wall clocks overlap and the makespan is the max).
    #[test]
    fn parallel_merge_agrees_with_interleaved_schedule(
        streams in proptest::collection::vec(profile_stream(), 1..5),
    ) {
        let sched = HierarchicalScheduler::new(PumpBudget::unconstrained());
        let banked: Vec<_> = streams
            .iter()
            .cloned()
            .enumerate()
            .map(|(b, s)| (TopoPath::flat_bank(b), s))
            .collect();

        let whole = sched.schedule(&banked).unwrap();

        let mut folded = RunStats::new();
        for (path, stream) in &banked {
            let s = sched.schedule(&[(*path, stream.clone())]).unwrap();
            folded.merge_parallel(&s.stats);
        }
        assert_stats_close(&folded, &whole.stats);
    }

    /// Channels share no hardware, so folding per-channel hierarchical
    /// schedules with `merge_parallel` reproduces the whole multi-channel
    /// multi-rank schedule's stats — even under the constrained JEDEC
    /// budget, where banks *within* a rank do contend.
    #[test]
    fn hierarchical_channels_fold_as_parallel_merge(
        chans in proptest::collection::vec(
            proptest::collection::vec((0usize..2, 0usize..3, profile_stream()), 1..4),
            1..4,
        ),
    ) {
        let sched = HierarchicalScheduler::new(PumpBudget::jedec_ddr3_1600());
        let mut all = Vec::new();
        let mut folded = RunStats::new();
        for (c, banks) in chans.iter().enumerate() {
            let alone: Vec<_> = banks
                .iter()
                .cloned()
                .map(|(r, b, s)| (TopoPath::new(c, r, b), s))
                .collect();
            let s = sched.schedule(&alone).unwrap();
            folded.merge_parallel(&s.stats);
            all.extend(alone);
        }
        let whole = sched.schedule(&all).unwrap();
        assert_stats_close(&folded, &whole.stats);
    }

    /// With one rank per channel, bus and pump domains coincide, so each
    /// channel's stats slice of the hierarchical schedule agrees with the
    /// event-driven controller replaying that rank's streams alone.
    #[test]
    fn per_rank_stats_agree_with_controller(
        ranks in proptest::collection::vec(
            proptest::collection::vec(profile_stream(), 1..4),
            1..4,
        ),
    ) {
        let budget = PumpBudget::jedec_ddr3_1600();
        let sched = HierarchicalScheduler::new(budget.clone());
        let streams: Vec<_> = ranks
            .iter()
            .enumerate()
            .flat_map(|(c, banks)| {
                banks
                    .iter()
                    .cloned()
                    .enumerate()
                    .map(move |(b, s)| (TopoPath::new(c, 0, b), s))
            })
            .collect();
        let whole = sched.schedule(&streams).unwrap();
        for (c, banks) in ranks.iter().enumerate() {
            let mut ctrl = Controller::new(banks.len(), budget.clone());
            let banked: Vec<_> = banks.iter().cloned().enumerate().collect();
            let replay = ctrl.run_streams(&banked).unwrap();
            let slice = whole.rank_stats_for(c, 0).expect("every channel has work");
            prop_assert_eq!(slice.commands.clone(), replay.commands.clone());
            prop_assert!((slice.busy_time.as_f64() - replay.busy_time.as_f64()).abs() < 1e-6);
            prop_assert!((slice.makespan.as_f64() - replay.makespan.as_f64()).abs() < 1e-6);
            prop_assert!((slice.pump_stall.as_f64() - replay.pump_stall.as_f64()).abs() < 1e-6);
        }
    }
}
