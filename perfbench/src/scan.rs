//! `scan`: the Fig. 14 BitWeaving table scan as the database layer uses it,
//! on the paper's single 8-bank DDR3-1600 module: 3 columns of 12-bit codes
//! × 2^17 rows, so every bit plane is 2 row stripes.
//!
//! A request is a compound predicate: two `bitweaving::compare_on_array`
//! calls (kinds and constants drawn from the seed) ANDed, then loaded and
//! popcounted. Reference: `VerticalLayout::compare_reference`.

use crate::batchop::{modeled_since, replay_engine, traced_op};
use crate::rng::Rng;
use crate::trace::Trace;
use crate::{Metrics, Workload};
use elp2im_apps::bitweaving::{compare_on_array, Predicate, VerticalLayout};
use elp2im_core::batch::{BatchConfig, BatchHandle, DeviceArray};
use elp2im_core::compile::LogicOp;
use elp2im_core::{BitVec, SubarrayEngine};
use std::time::{Duration, Instant};

const ROWS: usize = 1 << 17;
const WIDTH: u32 = 12;
const COLUMNS: u64 = 3;

pub struct Scan {
    seed: u64,
    array: DeviceArray,
    /// Per column: the CPU layout and the stored planes (MSB first).
    columns: Vec<(VerticalLayout, Vec<BatchHandle>)>,
    replay: SubarrayEngine,
}

/// `column <pred> constant`.
#[derive(Clone, Copy)]
pub struct Cmp {
    column: usize,
    pred: Predicate,
    constant: u64,
}

pub struct Out {
    bits: BitVec,
    preds: [Cmp; 2],
    modeled: (f64, f64),
}

impl Workload for Scan {
    type In = [Cmp; 2];
    type Out = Out;
    const REPLAY: usize = 8;
    const RSS_AFTER: usize = 1000;

    fn setup(seed: u64) -> Result<(Self, Option<Duration>), String> {
        let t = Instant::now();
        let mut array = DeviceArray::new(BatchConfig::default());
        let constructor = t.elapsed();
        let mut columns = Vec::new();
        for c in 0..COLUMNS {
            let mut rng = Rng::new(seed, c);
            let values: Vec<u64> = (0..ROWS).map(|_| rng.below(1 << WIDTH)).collect();
            let layout = VerticalLayout::from_values(&values, WIDTH);
            let planes = layout
                .planes()
                .iter()
                .map(|p| array.store(p).map_err(|e| format!("store: {e}")))
                .collect::<Result<_, _>>()?;
            columns.push((layout, planes));
        }
        let replay = replay_engine(&array);
        Ok((Scan { seed, array, columns, replay }, Some(constructor)))
    }

    fn input(&mut self, req: u64) -> [Cmp; 2] {
        let mut rng = Rng::new(self.seed, COLUMNS + req);
        let first = rng.below(COLUMNS) as usize;
        let second = (first + 1 + rng.below(COLUMNS - 1) as usize) % COLUMNS as usize;
        [first, second].map(|column| Cmp {
            column,
            pred: Predicate::ALL[rng.below(Predicate::ALL.len() as u64) as usize],
            constant: rng.below(1 << WIDTH),
        })
    }

    fn request(&mut self, preds: [Cmp; 2], mut tr: Option<&mut Trace>) -> Result<Out, String> {
        let before = self.array.stats().clone();
        let root = tr.as_deref_mut().map(|t| t.open("apps.request", None));
        let a = &mut self.array;
        let mut sides = [None; 2];
        for (side, p) in sides.iter_mut().zip(preds) {
            let planes = &self.columns[p.column].1;
            *side = Some(match tr.as_deref_mut() {
                None => compare_on_array(a, planes, p.pred, p.constant, ROWS)
                    .map_err(|e| format!("compare: {e}"))?,
                Some(t) => {
                    let parent = root.expect("traced requests have a root span");
                    compare_traced(a, &mut self.replay, planes, p, t, parent)?
                }
            });
        }
        let [Some(x), Some(y)] = sides else { unreachable!("both sides computed") };
        let both = match tr.as_deref_mut() {
            None => {
                a.binary(LogicOp::And, x, y).map(|(h, _)| h).map_err(|e| format!("and: {e}"))?
            }
            Some(t) => {
                let parent = root.expect("traced requests have a root span");
                traced_op(a, &mut self.replay, LogicOp::And, x, Some(y), t, parent)?
            }
        };
        for h in [x, y] {
            Trace::maybe(&mut tr, "batch.release", root, || a.release(h))
                .map_err(|e| format!("release: {e}"))?;
        }
        let bits = Trace::maybe(&mut tr, "batch.load", root, || a.load(both))
            .map_err(|e| format!("load: {e}"))?;
        std::hint::black_box(bits.count_ones());
        Trace::maybe(&mut tr, "batch.release", root, || a.release(both))
            .map_err(|e| format!("release: {e}"))?;
        if let (Some(t), Some(root)) = (tr, root) {
            t.close(root);
        }
        Ok(Out { bits, preds, modeled: modeled_since(a, &before) })
    }

    fn check(&mut self, out: &Out) -> Result<(), String> {
        let [p, q] = out.preds;
        let reference = self.columns[p.column]
            .0
            .compare_reference(p.pred, p.constant)
            .and(&self.columns[q.column].0.compare_reference(q.pred, q.constant));
        if out.bits != reference {
            return Err("scan result differs from the CPU reference".into());
        }
        Ok(())
    }

    fn modeled(out: &Out) -> (f64, f64) {
        out.modeled
    }

    fn fingerprint(out: &Out) -> Vec<u64> {
        vec![out.bits.count_ones() as u64]
    }

    fn layer_metrics(&self, _trace: &Trace, m: &mut Metrics) {
        m.set("analysis.cache_entries", self.array.analysis_cache().len() as f64);
    }
}

/// `bitweaving::compare_on_array`, op by op, with the same stores,
/// operations and releases in the same order.
fn compare_traced(
    a: &mut DeviceArray,
    replay: &mut SubarrayEngine,
    planes: &[BatchHandle],
    p: Cmp,
    t: &mut Trace,
    parent: usize,
) -> Result<BatchHandle, String> {
    let q = t.open("apps.compare", Some(parent));
    let mut op =
        |a: &mut DeviceArray, t: &mut Trace, op, x, y| traced_op(a, replay, op, x, y, t, q);
    let store = |a: &mut DeviceArray, t: &mut Trace, bits: &BitVec| {
        t.time("batch.store", Some(q), || a.store(bits)).map_err(|e| format!("store: {e}"))
    };
    let release = |a: &mut DeviceArray, t: &mut Trace, hs: &[BatchHandle]| {
        hs.iter().try_for_each(|&h| {
            t.time("batch.release", Some(q), || a.release(h)).map_err(|e| format!("release: {e}"))
        })
    };
    let width = planes.len() as u32;
    let mut lt = store(a, t, &BitVec::zeros(ROWS))?;
    let mut eq = store(a, t, &BitVec::ones(ROWS))?;
    for (i, &plane) in planes.iter().enumerate() {
        let not_a = op(a, t, LogicOp::Not, plane, None)?;
        if (p.constant >> (width - 1 - i as u32)) & 1 == 1 {
            let x = op(a, t, LogicOp::And, eq, Some(not_a))?;
            let new_lt = op(a, t, LogicOp::Or, lt, Some(x))?;
            let new_eq = op(a, t, LogicOp::And, eq, Some(plane))?;
            release(a, t, &[x, lt, eq])?;
            (lt, eq) = (new_lt, new_eq);
        } else {
            let new_eq = op(a, t, LogicOp::And, eq, Some(not_a))?;
            release(a, t, &[eq])?;
            eq = new_eq;
        }
        release(a, t, &[not_a])?;
    }
    let result = match p.pred {
        Predicate::Lt => {
            release(a, t, &[eq])?;
            lt
        }
        Predicate::Le => {
            let r = op(a, t, LogicOp::Or, lt, Some(eq))?;
            release(a, t, &[lt, eq])?;
            r
        }
        Predicate::Gt => {
            let le = op(a, t, LogicOp::Or, lt, Some(eq))?;
            let r = op(a, t, LogicOp::Not, le, None)?;
            release(a, t, &[le, lt, eq])?;
            r
        }
        Predicate::Ge => {
            let r = op(a, t, LogicOp::Not, lt, None)?;
            release(a, t, &[lt, eq])?;
            r
        }
        Predicate::Eq => {
            release(a, t, &[lt])?;
            eq
        }
        Predicate::Ne => {
            let r = op(a, t, LogicOp::Not, eq, None)?;
            release(a, t, &[lt, eq])?;
            r
        }
    };
    t.close(q);
    Ok(result)
}
