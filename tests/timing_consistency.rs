//! Consistency between the three timing views: the analytic program
//! model, the functional engine's accounting, and the event-driven
//! controller simulation.

use elp2im::apps::backend::PimBackend;
use elp2im::core::bitvec::BitVec;
use elp2im::core::compile::{compile, CompileMode, LogicOp, Operands};
use elp2im::core::engine::SubarrayEngine;
use elp2im::dram::constraint::PumpBudget;
use elp2im::dram::controller::Controller;
use elp2im::dram::timing::Ddr3Timing;

/// The engine's busy-time accounting equals the program's analytic
/// latency, for every op and mode.
#[test]
fn engine_accounting_matches_program_latency() {
    let t = Ddr3Timing::ddr3_1600();
    for op in LogicOp::ALL {
        for mode in [CompileMode::LowLatency, CompileMode::HighThroughput] {
            let prog = compile(op, mode, Operands::standard(), 2).unwrap();
            let mut e = SubarrayEngine::new(8, 8, 2);
            e.write_row(0, BitVec::ones(8)).unwrap();
            e.write_row(1, BitVec::zeros(8)).unwrap();
            e.write_row(2, BitVec::zeros(8)).unwrap();
            e.run(prog.primitives()).unwrap();
            let engine_ns = e.stats().busy_time.as_f64();
            let program_ns = prog.latency(&t).as_f64();
            assert!(
                (engine_ns - program_ns).abs() < 1e-6,
                "{op} {mode:?}: engine {engine_ns} vs program {program_ns}"
            );
            assert_eq!(
                e.stats().wordline_activations,
                prog.wordline_events(&t),
                "{op} {mode:?} wordline count"
            );
        }
    }
}

/// The analytic pump-constraint estimate agrees with the event-driven
/// controller for both ELP2IM and Ambit operation streams.
#[test]
fn analytic_parallelism_matches_event_driven_simulation() {
    let budget = PumpBudget::jedec_ddr3_1600();
    for (label, backend) in [
        ("elp2im-ht", PimBackend::elp2im_high_throughput()),
        ("ambit", PimBackend::ambit()),
        ("drisa", PimBackend::drisa()),
    ] {
        let profiles = backend.op_profiles(LogicOp::And);
        let analytic = budget.max_parallel_banks(&profiles, 8);

        let reps = 48;
        let streams: Vec<_> = (0..8)
            .map(|b| {
                let mut v = Vec::new();
                for _ in 0..reps {
                    v.extend(profiles.iter().cloned());
                }
                (b, v)
            })
            .collect();
        let mut ctrl = Controller::new(8, budget.clone());
        let stats = ctrl.run_streams(&streams).unwrap();
        let effective = stats.busy_time.as_f64() / stats.makespan.as_f64();
        // The analytic estimate is a fluid (rate-based) bound; the
        // event-driven controller adds discretization. For Ambit the gap
        // is larger because its TRA-AAP draw (4.44 tokens) exceeds the
        // whole 4-token window and must wait for an *empty* window —
        // pushing the simulated drop to ~83 %, which is in fact the
        // paper's number (§6.3.1).
        let has_oversized =
            profiles.iter().any(|p| budget.command_cost(p) >= budget.tokens_per_window);
        let tolerance = if has_oversized { 0.35 } else { 0.2 };
        let err = (effective - analytic).abs() / analytic;
        assert!(
            err < tolerance,
            "{label}: analytic {analytic:.2} banks vs simulated {effective:.2}"
        );
        assert!(effective <= analytic * 1.05, "{label}: simulation must not beat the fluid bound");
    }
}

/// Unconstrained controller achieves full overlap; the constrained one
/// never exceeds the analytic bound.
#[test]
fn constraint_bounds_hold_in_simulation() {
    let t = Ddr3Timing::ddr3_1600();
    let backend = PimBackend::ambit();
    let profiles = backend.op_profiles(LogicOp::Xor);
    let streams: Vec<_> = (0..8)
        .map(|b| {
            let mut v = Vec::new();
            for _ in 0..16 {
                v.extend(profiles.iter().cloned());
            }
            (b, v)
        })
        .collect();

    let mut free = Controller::new(8, PumpBudget::unconstrained());
    let sf = free.run_streams(&streams).unwrap();
    assert!(
        (sf.busy_time.as_f64() / sf.makespan.as_f64() - 8.0).abs() < 0.05,
        "unconstrained must reach 8 banks"
    );

    let mut tight = Controller::new(8, PumpBudget::jedec_ddr3_1600());
    let st = tight.run_streams(&streams).unwrap();
    let analytic = PumpBudget::jedec_ddr3_1600().max_parallel_banks(&profiles, 8);
    let simulated = st.busy_time.as_f64() / st.makespan.as_f64();
    assert!(
        simulated <= analytic * 1.05,
        "simulated {simulated:.2} exceeds analytic bound {analytic:.2}"
    );
    let _ = t;
}

/// Device-level stats equal per-op program costs times operation count.
#[test]
fn device_stats_scale_linearly() {
    use elp2im::core::batch::{BatchConfig, DeviceArray};
    let mut dev = DeviceArray::new(BatchConfig::subarray(4, 64));
    let a = dev.store(&BitVec::ones(32)).unwrap();
    let b = dev.store(&BitVec::zeros(32)).unwrap();
    let mut handles = Vec::new();
    for _ in 0..10 {
        handles.push(dev.binary(LogicOp::And, a, b).unwrap().0);
    }
    // 10 ANDs at 3 commands each.
    assert_eq!(dev.stats().total_commands(), 30);
    let per_op = dev.stats().busy_time.as_f64() / 10.0;
    assert!((per_op - 158.45).abs() < 1.0, "per-op busy {per_op}");
}
