//! Soundness of the canonical verdict memo: a memoized verdict must equal
//! what a fresh, uncached analysis of the concrete program says, whatever
//! rows the program names (aliased, renamed, out of range) and whichever
//! of them hold data.

use elp2im::core::analysis::{analyze, AnalysisCache};
use elp2im::core::compile::{compile, CompileMode, LogicOp, Operands};
use elp2im::core::error::CoreError;
use elp2im::core::isa::Program;
use elp2im::core::optimizer::PhysRow;
use elp2im::core::primitive::{Primitive, RegulateMode, RowRef};
use elp2im::core::validate::SubarrayShape;
use proptest::prelude::*;
use std::sync::OnceLock;

const MODES: [CompileMode; 3] =
    [CompileMode::InPlace, CompileMode::HighThroughput, CompileMode::LowLatency];

/// A data row: mostly small (so operands alias), sometimes far out.
fn data_row() -> impl Strategy<Value = usize> {
    prop_oneof![0usize..6, 500usize..520]
}

fn operands() -> impl Strategy<Value = Operands> {
    let scratch = prop_oneof![Just(None), data_row().prop_map(Some)];
    (data_row(), data_row(), data_row(), scratch).prop_map(|(a, b, dst, scratch)| Operands {
        a,
        b,
        dst,
        scratch,
    })
}

/// The rows `compile` declares live-in for `op` under `mode`.
fn declared_live_in(op: LogicOp, mode: CompileMode, rows: Operands) -> Vec<PhysRow> {
    let second = if mode == CompileMode::InPlace { rows.dst } else { rows.b };
    if op.is_unary() {
        vec![PhysRow::Data(rows.a)]
    } else {
        vec![PhysRow::Data(rows.a), PhysRow::Data(second)]
    }
}

/// Arbitrary (often invalid) primitives over data rows `0..4` and
/// reserved rows `0..2`.
fn random_primitive() -> impl Strategy<Value = Primitive> {
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
        (row.clone(), mode.clone()).prop_map(|(row, mode)| Primitive::OtApp { row, mode }),
        (row.clone(), row, mode).prop_map(|(src, dst, mode)| Primitive::OAppCopy {
            src,
            dst,
            mode
        }),
    ]
}

/// One legality-preserving step over data rows `0..4`: it reads only rows
/// it or the caller defined, consumes every regulation it opens and
/// revives every row it destroys. Programs built from these are accepted
/// whenever their support rows are live, so the memo sees acceptances
/// (and, renamed, hits) often.
fn valid_step() -> impl Strategy<Value = Vec<Primitive>> {
    let data = || (0usize..4).prop_map(RowRef::Data);
    let mode = || prop_oneof![Just(RegulateMode::Or), Just(RegulateMode::And)];
    prop_oneof![
        (data(), data()).prop_map(|(src, dst)| vec![Primitive::Aap { src, dst }]),
        (data(), 0usize..2, data()).prop_map(|(src, j, back)| vec![
            Primitive::OAap { src, dst: RowRef::DccTrue(j) },
            Primitive::OAap { src: RowRef::DccBar(j), dst: back },
        ]),
        (data(), mode(), data(), data()).prop_map(|(a, m, b, dst)| vec![
            Primitive::App { row: a, mode: m },
            Primitive::Aap { src: b, dst },
        ]),
    ]
}

/// Short programs, often valid and often renamings of one another.
fn program() -> impl Strategy<Value = Vec<Primitive>> {
    prop_oneof![
        proptest::collection::vec(random_primitive(), 1..9),
        proptest::collection::vec(valid_step(), 1..3)
            .prop_map(|steps| steps.into_iter().flatten().collect()),
    ]
}

/// One memo shared by every case, so later cases hit entries earlier
/// cases (often renamings of them) made.
fn shared_cache() -> &'static AnalysisCache {
    static CACHE: OnceLock<AnalysisCache> = OnceLock::new();
    CACHE.get_or_init(AnalysisCache::new)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// `compile`'s memoized self-check accepts or rejects exactly as a
    /// fresh `analyze` of the concrete program does. The concrete program
    /// is the op's sequence over distinct rows with its rows substituted
    /// by the requested (possibly aliased) ones.
    #[test]
    fn memoized_compile_matches_fresh_analysis(
        op in 0usize..7,
        mode in 0usize..3,
        reserved in 0usize..3,
        rows in operands(),
    ) {
        let (op, mode) = (LogicOp::ALL[op], MODES[mode]);
        let actual = compile(op, mode, rows, reserved);
        if !matches!(actual, Ok(_) | Err(CoreError::StaticViolation(_))) {
            // Operand-shape errors (reserved rows, in-place misuse) come
            // before any analysis.
            return Ok(());
        }
        let template_rows = match mode {
            CompileMode::InPlace => Operands { a: 0, b: 2, dst: 2, scratch: Some(3) },
            _ => Operands { a: 0, b: 1, dst: 2, scratch: Some(3) },
        };
        let template = compile(op, mode, template_rows, reserved).expect("distinct rows compile");
        let substitute = |row: RowRef| match row {
            RowRef::Data(0) => RowRef::Data(rows.a),
            RowRef::Data(1) => RowRef::Data(rows.b),
            RowRef::Data(2) => RowRef::Data(rows.dst),
            RowRef::Data(3) => RowRef::Data(rows.scratch.expect("only sequences with scratch read r3")),
            other => other,
        };
        let concrete: Vec<Primitive> =
            template.primitives().iter().map(|p| p.map_rows(substitute)).collect();
        let data_rows = 1 + [Some(rows.a), Some(rows.b), Some(rows.dst), rows.scratch]
            .into_iter()
            .flatten()
            .fold(0, usize::max);
        let shape = SubarrayShape { data_rows, dcc_rows: reserved };
        let fresh = analyze(
            &Program::new("concrete", concrete.clone()),
            shape,
            &declared_live_in(op, mode, rows),
        )
        .to_violations()
        .into_iter()
        .next();
        match actual {
            Ok(prog) => {
                prop_assert_eq!(fresh, None);
                prop_assert_eq!(prog.primitives(), &concrete[..]);
            }
            Err(CoreError::StaticViolation(v)) => prop_assert_eq!(fresh, Some(v)),
            Err(e) => unreachable!("filtered above: {e}"),
        }
    }

    /// Random programs, injectively renamed into a row space that reaches
    /// past the subarray, under random liveness: the memo's verdict equals
    /// an uncached `analyze` given the full live set.
    #[test]
    fn cached_verdicts_match_uncached_analysis(
        prims in program(),
        base in 0usize..13,
        stride in 1usize..13,
        reserved in 0usize..3,
        live_mask in any::<u16>(),
    ) {
        // 13 is prime, so `i ↦ (base + i·stride) mod 13` is injective on
        // `0..4`; rows 11 and 12 lie outside the 11-row subarray.
        let rename = |row: RowRef| match row {
            RowRef::Data(i) => RowRef::Data((base + i * stride) % 13),
            other => other,
        };
        let prog = Program::new("random", prims.iter().map(|p| p.map_rows(rename)).collect());
        let shape = SubarrayShape { data_rows: 11, dcc_rows: reserved };
        let live = |row: PhysRow| match row {
            PhysRow::Data(i) => i < 13 && (live_mask >> i) & 1 == 1,
            PhysRow::Dcc(i) => (live_mask >> (13 + i)) & 1 == 1,
        };
        let live_in: Vec<PhysRow> = (0..shape.data_rows)
            .map(PhysRow::Data)
            .chain((0..shape.dcc_rows).map(PhysRow::Dcc))
            .filter(|&r| live(r))
            .collect();
        let uncached = analyze(&prog, shape, &live_in).to_violations().into_iter().next();
        prop_assert_eq!(shared_cache().first_violation(&prog, shape, live), uncached);
    }
}
