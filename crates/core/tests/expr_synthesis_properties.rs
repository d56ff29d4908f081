//! Property-based tests of expression evaluation over random,
//! heavily-shared DAGs: both the synthesis-first front-end and the greedy
//! structural lowering must compute the exact truth table, the greedy
//! temp free-list must never exhaust when `temps.len()` matches the
//! analytical live-set bound ([`temp_bound`]), and the multi-bank
//! [`DeviceArray::eval_expr`] must compute the same function without
//! leaking rows.

use elp2im_core::batch::{BatchConfig, DeviceArray};
use elp2im_core::bitvec::BitVec;
use elp2im_core::compile::CompileMode;
use elp2im_core::engine::SubarrayEngine;
use elp2im_core::expr::{compile_expr, compile_expr_greedy, temp_bound, Expr, ExprOperands};
use elp2im_core::isa::Program;
use elp2im_core::primitive::RowRef;
use elp2im_dram::constraint::PumpBudget;
use elp2im_dram::geometry::{Geometry, Topology};
use proptest::prelude::*;
use std::rc::Rc;

/// Builds an expression DAG from a pool: every new node picks operands
/// from {variables} ∪ {all previous nodes} by index, so subterms are
/// shared aggressively (including degenerate `x & x` / `x ^ x` shapes),
/// and the shared operands are literally the same `Rc`.
fn build_dag(n_vars: usize, ops: &[(u8, usize, usize, usize)]) -> Expr {
    let mut pool: Vec<Rc<Expr>> = (0..n_vars).map(|i| Rc::new(Expr::Var(i))).collect();
    for &(kind, a, b, c) in ops {
        let pick = |i: usize| Rc::clone(&pool[i % pool.len()]);
        let node = match kind % 6 {
            0 => Expr::Not(pick(a)),
            1 => Expr::And(pick(a), pick(b)),
            2 => Expr::Or(pick(a), pick(b)),
            3 => Expr::Xor(pick(a), pick(b)),
            4 => Expr::Maj(pick(a), pick(b), pick(c)),
            _ => Expr::Ite(pick(a), pick(b), pick(c)),
        };
        pool.push(Rc::new(node));
    }
    pool.last().expect("at least one variable").as_ref().clone()
}

/// Runs `prog` over the full truth table of `n_vars` variables and checks
/// the destination row against `expr.eval_bitvec`.
fn assert_computes(expr: &Expr, prog: &Program, rows: &ExprOperands, n_vars: usize) {
    let width = 1usize << n_vars;
    let inputs: Vec<BitVec> =
        (0..n_vars).map(|v| (0..width).map(|row| (row >> v) & 1 == 1).collect()).collect();
    let data_rows = 1 + rows
        .inputs
        .iter()
        .chain(std::iter::once(&rows.dst))
        .chain(&rows.temps)
        .max()
        .copied()
        .unwrap_or(0);
    let mut e = SubarrayEngine::new(width, data_rows, 2);
    for (i, v) in inputs.iter().enumerate() {
        e.write_row(i, v.clone()).unwrap();
    }
    e.write_row(rows.dst, BitVec::zeros(width)).unwrap();
    for &t in &rows.temps {
        e.write_row(t, BitVec::zeros(width)).unwrap();
    }
    e.run(prog.primitives()).unwrap_or_else(|err| panic!("{expr}: {err}"));
    let got = e.row(RowRef::Data(rows.dst)).unwrap();
    assert_eq!(got, expr.eval_bitvec(&inputs), "{expr}");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The synthesis-first front-end computes the exact truth table of any
    /// random shared DAG (generous temp pool).
    #[test]
    fn compile_expr_matches_eval_bitvec(
        n_vars in 1usize..=6,
        ops in proptest::collection::vec((0u8..6, 0usize..64, 0usize..64, 0usize..64), 1..14),
    ) {
        let expr = build_dag(n_vars, &ops);
        let rows = ExprOperands {
            inputs: (0..n_vars).collect(),
            dst: n_vars,
            temps: (n_vars + 1..n_vars + 13).collect(),
        };
        let prog = compile_expr(&expr, &rows, CompileMode::LowLatency, 2).unwrap();
        assert_computes(&expr, &prog, &rows, n_vars);
    }

    /// The greedy lowering with EXACTLY `temp_bound(expr)` temporaries
    /// never exhausts the free list — the bound is a faithful simulation
    /// of the allocator — and still computes the right function.
    #[test]
    fn greedy_never_exhausts_at_the_analytical_bound(
        n_vars in 1usize..=6,
        ops in proptest::collection::vec((0u8..6, 0usize..64, 0usize..64, 0usize..64), 1..14),
    ) {
        let expr = build_dag(n_vars, &ops);
        let bound = temp_bound(&expr);
        let rows = ExprOperands {
            inputs: (0..n_vars).collect(),
            dst: n_vars,
            temps: (n_vars + 1..n_vars + 1 + bound).collect(),
        };
        let prog = compile_expr_greedy(&expr, &rows, CompileMode::LowLatency, 2)
            .unwrap_or_else(|e| panic!("bound {bound} insufficient for {expr}: {e}"));
        assert_computes(&expr, &prog, &rows, n_vars);
    }

    /// The high-throughput strategy obeys the same contracts (no reserved
    /// rows beyond one, no overlapped commands are legal there).
    #[test]
    fn high_throughput_greedy_matches_eval_bitvec(
        n_vars in 1usize..=4,
        ops in proptest::collection::vec((0u8..6, 0usize..64, 0usize..64, 0usize..64), 1..8),
    ) {
        let expr = build_dag(n_vars, &ops);
        let bound = temp_bound(&expr);
        let rows = ExprOperands {
            inputs: (0..n_vars).collect(),
            dst: n_vars,
            temps: (n_vars + 1..n_vars + 1 + bound).collect(),
        };
        let prog = compile_expr_greedy(&expr, &rows, CompileMode::HighThroughput, 1).unwrap();
        assert_computes(&expr, &prog, &rows, n_vars);
    }

    /// `DeviceArray::eval_expr` on small random topologies. Each unit's
    /// single subarray has exactly the rows one evaluation holds at its
    /// peak (the inputs plus one row per distinct gate, for each stripe
    /// the unit carries), so an intermediate leaked by one round makes
    /// the next round fail with `CapacityExceeded`.
    #[test]
    fn device_array_eval_expr_matches_eval_bitvec(
        n_vars in 1usize..=4,
        ops in proptest::collection::vec((0u8..6, 0usize..64, 0usize..64, 0usize..64), 1..10),
        topology in (1usize..=2, 1usize..=2, 1usize..=3),
        shape in (1usize..=5, any::<u64>(), any::<bool>()),
    ) {
        let ((channels, ranks, banks), (stripes, seed, jedec)) = (topology, shape);
        let expr = build_dag(n_vars, &ops);
        let units = channels * ranks * banks;
        let rows = (n_vars + expr.expand().distinct_ops()) * stripes.div_ceil(units);
        let geometry =
            Geometry { banks, subarrays_per_bank: 1, rows_per_subarray: rows, row_bytes: 8 };
        let budget =
            if jedec { PumpBudget::jedec_ddr3_1600() } else { PumpBudget::unconstrained() };
        let mut array = DeviceArray::new(BatchConfig {
            topology: Topology::new(channels, ranks, geometry),
            budget,
            ..BatchConfig::default()
        });
        let bits = array.row_bits() * stripes - 3;
        let mut state = seed | 1;
        for round in 0..3 {
            let inputs: Vec<BitVec> = (0..n_vars)
                .map(|_| {
                    (0..bits)
                        .map(|_| {
                            // xorshift64: any nonzero state cycles.
                            state ^= state << 13;
                            state ^= state >> 7;
                            state ^= state << 17;
                            state & 1 == 1
                        })
                        .collect()
                })
                .collect();
            let handles: Vec<_> = inputs.iter().map(|v| array.store(v).unwrap()).collect();
            let (result, stats) = array
                .eval_expr(&expr, &handles)
                .unwrap_or_else(|e| panic!("round {round}: {expr}: {e}"));
            prop_assert_eq!(array.load(result).unwrap(), expr.eval_bitvec(&inputs));
            prop_assert!(stats.makespan.as_f64() > 0.0);
            for (h, v) in handles.iter().zip(&inputs) {
                prop_assert_eq!(&array.load(*h).unwrap(), v);
            }
            for h in handles.into_iter().chain([result]) {
                array.release(h).unwrap();
            }
        }
    }
}
