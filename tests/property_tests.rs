//! Property-based tests over the core invariants: every compiled program
//! equals software Boolean logic on arbitrary inputs, arithmetic matches
//! `u64` arithmetic, and the BitWeaving predicate matches scalar
//! comparison.

use elp2im::apps::arith::{bit_serial_add, bit_serial_popcount};
use elp2im::apps::bitweaving::{less_than_on_array, VerticalLayout};
use elp2im::core::batch::{BatchConfig, DeviceArray};
use elp2im::core::bitvec::BitVec;
use elp2im::core::compile::{compile, xor_sequence, CompileMode, LogicOp, Operands};
use elp2im::core::engine::SubarrayEngine;
use elp2im::core::primitive::RowRef;
use proptest::prelude::*;

fn bitvec_strategy(len: usize) -> impl Strategy<Value = BitVec> {
    proptest::collection::vec(any::<bool>(), len).prop_map(|v| BitVec::from_bools(&v))
}

fn ops() -> impl Strategy<Value = LogicOp> {
    prop_oneof![
        Just(LogicOp::Not),
        Just(LogicOp::And),
        Just(LogicOp::Or),
        Just(LogicOp::Nand),
        Just(LogicOp::Nor),
        Just(LogicOp::Xor),
        Just(LogicOp::Xnor),
    ]
}

fn reference(op: LogicOp, a: &BitVec, b: &BitVec) -> BitVec {
    (0..a.len()).map(|i| op.eval(a.get(i), b.get(i))).collect()
}

/// Strategy producing arbitrary (often invalid) primitives over a small
/// subarray: 4 data rows, 2 DCC rows.
fn random_primitive() -> impl Strategy<Value = elp2im::core::primitive::Primitive> {
    use elp2im::core::primitive::{Primitive, RegulateMode};
    let row = prop_oneof![
        (0usize..4).prop_map(RowRef::Data),
        (0usize..2).prop_map(RowRef::DccTrue),
        (0usize..2).prop_map(RowRef::DccBar),
    ];
    let mode = prop_oneof![Just(RegulateMode::Or), Just(RegulateMode::And)];
    prop_oneof![
        row.clone().prop_map(|row| Primitive::Ap { row }),
        (row.clone(), row.clone()).prop_map(|(src, dst)| Primitive::Aap { src, dst }),
        (row.clone(), row.clone()).prop_map(|(src, dst)| Primitive::OAap { src, dst }),
        (row.clone(), mode.clone()).prop_map(|(row, mode)| Primitive::App { row, mode }),
        (row.clone(), mode.clone()).prop_map(|(row, mode)| Primitive::OApp { row, mode }),
        (row.clone(), mode.clone()).prop_map(|(row, mode)| Primitive::TApp { row, mode }),
        (row, mode).prop_map(|(row, mode)| Primitive::OtApp { row, mode }),
    ]
}

fn random_program(
    max_len: usize,
) -> impl Strategy<Value = Vec<elp2im::core::primitive::Primitive>> {
    proptest::collection::vec(random_primitive(), 1..max_len)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every op × mode × random operands: engine result == software logic,
    /// operands survive, no regulation leaks.
    #[test]
    fn compiled_programs_match_software(
        op in ops(),
        mode_pick in 0usize..2,
        a in bitvec_strategy(96),
        b in bitvec_strategy(96),
        reserved in 1usize..=2,
    ) {
        let mode = [CompileMode::LowLatency, CompileMode::HighThroughput][mode_pick];
        let rows = Operands::standard();
        let prog = compile(op, mode, rows, reserved).unwrap();
        let mut e = SubarrayEngine::new(96, 8, reserved);
        e.write_row(0, a.clone()).unwrap();
        e.write_row(1, b.clone()).unwrap();
        e.write_row(2, BitVec::zeros(96)).unwrap();
        e.write_row(3, BitVec::zeros(96)).unwrap();
        e.run(prog.primitives()).unwrap();
        prop_assert_eq!(e.row(RowRef::Data(2)).unwrap(), reference(op, &a, &b));
        prop_assert_eq!(e.row(RowRef::Data(0)).unwrap(), a);
        prop_assert_eq!(e.row(RowRef::Data(1)).unwrap(), b);
        prop_assert!(!e.has_pending_regulation());
    }

    /// All six Fig. 8 XOR sequences on random vectors.
    #[test]
    fn xor_sequences_match_software(
        n in 1u8..=6,
        a in bitvec_strategy(64),
        b in bitvec_strategy(64),
    ) {
        let prog = xor_sequence(n, Operands::standard(), 2).unwrap();
        let mut e = SubarrayEngine::new(64, 8, 2);
        e.write_row(0, a.clone()).unwrap();
        e.write_row(1, b.clone()).unwrap();
        e.write_row(2, BitVec::zeros(64)).unwrap();
        e.write_row(3, BitVec::zeros(64)).unwrap();
        e.run(prog.primitives()).unwrap();
        prop_assert_eq!(e.row(RowRef::Data(2)).unwrap(), a.xor(&b));
    }

    /// Bit-serial addition == u64 addition on every lane.
    #[test]
    fn bit_serial_add_matches_u64(
        a_vals in proptest::collection::vec(0u64..4096, 16),
        b_vals in proptest::collection::vec(0u64..4096, 16),
    ) {
        let width = 12;
        let mut dev = DeviceArray::new(BatchConfig {
            reserved_rows: 2, ..BatchConfig::subarray(2, 160)
        });
        let store = |dev: &mut DeviceArray, vals: &[u64]| -> Vec<_> {
            (0..width).map(|i| {
                let plane: BitVec = vals.iter().map(|v| (v >> i) & 1 == 1).collect();
                dev.store(&plane).unwrap()
            }).collect()
        };
        let ha = store(&mut dev, &a_vals);
        let hb = store(&mut dev, &b_vals);
        let sum = bit_serial_add(&mut dev, &ha, &hb).unwrap();
        for lane in 0..16 {
            let got: u64 = sum.iter().enumerate()
                .map(|(i, &h)| u64::from(dev.load(h).unwrap().get(lane)) << i)
                .sum();
            prop_assert_eq!(got, a_vals[lane] + b_vals[lane]);
        }
    }

    /// Bit-serial popcount == counting set planes per lane.
    #[test]
    fn bit_serial_popcount_matches_reference(
        planes_bits in proptest::collection::vec(proptest::collection::vec(any::<bool>(), 8), 1..7),
    ) {
        let mut dev = DeviceArray::new(BatchConfig {
            reserved_rows: 2, ..BatchConfig::subarray(1, 160)
        });
        let handles: Vec<_> = planes_bits.iter()
            .map(|p| dev.store(&BitVec::from_bools(p)).unwrap())
            .collect();
        let count = bit_serial_popcount(&mut dev, &handles).unwrap();
        for lane in 0..8 {
            let expect = planes_bits.iter().filter(|p| p[lane]).count() as u64;
            let got: u64 = count.iter().enumerate()
                .map(|(i, &h)| u64::from(dev.load(h).unwrap().get(lane)) << i)
                .sum();
            prop_assert_eq!(got, expect, "lane {}", lane);
        }
    }

    /// The in-DRAM BitWeaving `<` predicate == scalar comparison.
    #[test]
    fn bitweaving_less_than_matches_scalar(
        values in proptest::collection::vec(0u64..256, 32),
        constant in 0u64..256,
    ) {
        let layout = VerticalLayout::from_values(&values, 8);
        let mut dev = DeviceArray::new(BatchConfig::subarray(4, 64));
        let planes: Vec<_> = layout.planes().iter()
            .map(|p| dev.store(p).unwrap())
            .collect();
        let lt = less_than_on_array(&mut dev, &planes, constant, 32).unwrap();
        let got = dev.load(lt).unwrap();
        for (i, &v) in values.iter().enumerate() {
            prop_assert_eq!(got.get(i), v < constant, "value {} < {}", v, constant);
        }
    }

    /// The §4.2 optimizer passes preserve program semantics on random
    /// operation chains (while never increasing latency).
    #[test]
    fn optimizer_preserves_semantics(
        op_picks in proptest::collection::vec(0usize..3, 1..4),
        a in bitvec_strategy(48),
        b in bitvec_strategy(48),
    ) {
        use elp2im::core::optimizer::{optimize, PhysRow};
        use elp2im::core::isa::Program;
        use elp2im::dram::timing::Ddr3Timing;

        // Build a chain: r2 := op0(r0, r1); r3 := op1(r2, r1); ...
        let mut prims = Vec::new();
        let mut preserve = vec![PhysRow::Data(0), PhysRow::Data(1)];
        for (i, &pick) in op_picks.iter().enumerate() {
            let op = [LogicOp::And, LogicOp::Or, LogicOp::Xor][pick];
            let rows = Operands { a: if i == 0 { 0 } else { i + 1 }, b: 1, dst: i + 2, scratch: None };
            let prog = compile(op, CompileMode::HighThroughput, rows, 1).unwrap();
            prims.extend(prog.primitives().iter().copied());
            preserve.push(PhysRow::Data(i + 2));
        }
        let chain = Program::new("chain", prims);
        let optimized = optimize(&chain, &preserve, true);

        let t = Ddr3Timing::ddr3_1600();
        prop_assert!(optimized.latency(&t).as_f64() <= chain.latency(&t).as_f64() + 1e-9);

        let run = |prog: &Program| -> Vec<BitVec> {
            let mut e = SubarrayEngine::new(48, 10, 1);
            e.write_row(0, a.clone()).unwrap();
            e.write_row(1, b.clone()).unwrap();
            e.run(prog.primitives()).unwrap();
            (0..op_picks.len() + 2)
                .map(|r| e.row(RowRef::Data(r)).unwrap())
                .collect()
        };
        prop_assert_eq!(run(&chain), run(&optimized));
    }

    /// The static validator and the engine agree: a program the validator
    /// accepts never faults in the engine, and engine faults are always
    /// flagged by the validator.
    #[test]
    fn validator_agrees_with_engine(prims in random_program(12)) {
        use elp2im::core::isa::Program;
        use elp2im::core::optimizer::PhysRow;
        use elp2im::core::validate::{validate, SubarrayShape};

        let prog = Program::new("random", prims);
        let shape = SubarrayShape { data_rows: 4, dcc_rows: 2 };
        let live_in: Vec<PhysRow> =
            (0..4).map(PhysRow::Data).chain((0..2).map(PhysRow::Dcc)).collect();
        let violations = validate(&prog, shape, &live_in);

        let mut e = SubarrayEngine::new(8, 4, 2);
        for r in 0..4 {
            e.write_row(r, BitVec::from_words(&[r as u64 * 0x5D], 8)).unwrap();
        }
        // Pre-populate the DCC rows (declared live-in).
        e.run(&[
            elp2im::core::primitive::Primitive::Aap {
                src: RowRef::Data(0),
                dst: RowRef::DccTrue(0),
            },
            elp2im::core::primitive::Primitive::Aap {
                src: RowRef::Data(1),
                dst: RowRef::DccTrue(1),
            },
        ])
        .unwrap();
        let result = e.run(prog.primitives());

        if violations.is_empty() {
            prop_assert!(result.is_ok(), "validated program failed: {:?}", result);
        }
        if result.is_err() {
            prop_assert!(
                !violations.is_empty(),
                "engine fault not predicted: {:?}",
                result
            );
        }
    }

    /// BitVec algebraic laws: De Morgan, double negation, xor identities.
    #[test]
    fn bitvec_algebra(a in bitvec_strategy(130), b in bitvec_strategy(130)) {
        prop_assert_eq!(a.and(&b).not(), a.not().or(&b.not()));
        prop_assert_eq!(a.or(&b).not(), a.not().and(&b.not()));
        prop_assert_eq!(a.not().not(), a.clone());
        prop_assert_eq!(a.xor(&a), BitVec::zeros(130));
        prop_assert_eq!(a.xor(&b).xor(&b), a.clone());
        prop_assert_eq!(a.count_ones() + a.not().count_ones(), 130);
    }
}
