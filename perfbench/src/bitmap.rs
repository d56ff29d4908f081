//! `bitmap`: the Fig. 13 user-activity index on the 4-channel × 2-rank
//! DDR3-1600 topology (64 units, JEDEC pump budget), 2^22 users, so every
//! row stripe of a bitmap lands on its own unit.
//!
//! A request stores the new week's bitmap, releases the oldest, runs
//! `bitmap::run_queries_batch` over the 8-week window plus the gender
//! bitmap, and loads and popcounts both results. Reference:
//! `bitmap::reference_queries` on CPU bit vectors.

use crate::batchop::{modeled_since, replay_engine, traced_op};
use crate::rng::Rng;
use crate::trace::Trace;
use crate::{Metrics, Workload};
use elp2im_apps::bitmap::{reference_queries, run_queries_batch};
use elp2im_core::batch::{BatchConfig, BatchHandle, DeviceArray};
use elp2im_core::compile::LogicOp;
use elp2im_core::{BitVec, SubarrayEngine};
use std::collections::VecDeque;
use std::time::{Duration, Instant};

const USERS: usize = 1 << 22;
const WEEKS: usize = 8;

pub struct Bitmap {
    seed: u64,
    array: DeviceArray,
    /// The resident window, oldest first, and its CPU copy.
    window: VecDeque<BatchHandle>,
    cpu_window: VecDeque<BitVec>,
    gender: (BatchHandle, BitVec),
    replay: SubarrayEngine,
}

pub struct Out {
    all: BitVec,
    male: BitVec,
    modeled: (f64, f64),
}

/// Week `w`'s activity bitmap: each user active with probability 3/4.
fn week(seed: u64, w: u64) -> BitVec {
    Rng::new(seed, w).bitvec_dense(USERS, 2)
}

impl Workload for Bitmap {
    type In = BitVec;
    type Out = Out;
    const REPLAY: usize = 3;
    const RSS_AFTER: usize = 32;

    fn setup(seed: u64) -> Result<(Self, Option<Duration>), String> {
        let t = Instant::now();
        let mut array = DeviceArray::new(BatchConfig::with_topology(4, 2));
        let constructor = t.elapsed();
        let mut store =
            |bits: BitVec| array.store(&bits).map(|h| (h, bits)).map_err(|e| format!("store: {e}"));
        let (window, cpu_window) = (0..WEEKS as u64)
            .map(|w| store(week(seed, w)))
            .collect::<Result<(VecDeque<_>, VecDeque<_>), _>>()?;
        let gender = store(Rng::new(seed, u64::MAX).bitvec_dense(USERS, 1))?;
        let replay = replay_engine(&array);
        Ok((Bitmap { seed, array, window, cpu_window, gender, replay }, Some(constructor)))
    }

    /// The new week's bitmap; the CPU copy of the window moves on here, so
    /// the request's own timing includes no reference bookkeeping.
    fn input(&mut self, req: u64) -> BitVec {
        let bits = week(self.seed, WEEKS as u64 + req);
        self.cpu_window.pop_front();
        self.cpu_window.push_back(bits.clone());
        bits
    }

    fn request(&mut self, bits: BitVec, mut tr: Option<&mut Trace>) -> Result<Out, String> {
        let before = self.array.stats().clone();
        let root = tr.as_deref_mut().map(|t| t.open("apps.request", None));
        let a = &mut self.array;
        let h = Trace::maybe(&mut tr, "batch.store", root, || a.store(&bits))
            .map_err(|e| format!("store: {e}"))?;
        let old = self.window.pop_front().ok_or("empty window")?;
        Trace::maybe(&mut tr, "batch.release", root, || a.release(old))
            .map_err(|e| format!("release: {e}"))?;
        self.window.push_back(h);
        let weeks: Vec<BatchHandle> = self.window.iter().copied().collect();
        let gender = self.gender.0;
        let (all, male) = match tr.as_deref_mut() {
            None => {
                let (all, male, _) =
                    run_queries_batch(a, &weeks, gender).map_err(|e| format!("query: {e}"))?;
                (all, male)
            }
            // `run_queries_batch`, op by op.
            Some(t) => {
                let q = t.open("apps.run_queries", root);
                let mut all = weeks[0];
                for (i, &w) in weeks[1..].iter().enumerate() {
                    let next = traced_op(a, &mut self.replay, LogicOp::And, all, Some(w), t, q)?;
                    if i > 0 {
                        t.time("batch.release", Some(q), || a.release(all))
                            .map_err(|e| format!("release: {e}"))?;
                    }
                    all = next;
                }
                let male = traced_op(a, &mut self.replay, LogicOp::And, all, Some(gender), t, q)?;
                t.close(q);
                (all, male)
            }
        };
        let mut load = |h| {
            Trace::maybe(&mut tr, "batch.load", root, || a.load(h))
                .map_err(|e| format!("load: {e}"))
        };
        let (all_bits, male_bits) = (load(all)?, load(male)?);
        std::hint::black_box((all_bits.count_ones(), male_bits.count_ones()));
        for h in [all, male] {
            Trace::maybe(&mut tr, "batch.release", root, || a.release(h))
                .map_err(|e| format!("release: {e}"))?;
        }
        if let (Some(t), Some(root)) = (tr, root) {
            t.close(root);
        }
        Ok(Out { all: all_bits, male: male_bits, modeled: modeled_since(a, &before) })
    }

    fn check(&mut self, out: &Out) -> Result<(), String> {
        let (all, male) = reference_queries(self.cpu_window.make_contiguous(), &self.gender.1);
        if out.all != all || out.male != male {
            return Err("query result differs from the CPU reference".into());
        }
        Ok(())
    }

    fn modeled(out: &Out) -> (f64, f64) {
        out.modeled
    }

    fn fingerprint(out: &Out) -> Vec<u64> {
        vec![out.all.count_ones() as u64, out.male.count_ones() as u64]
    }

    fn layer_metrics(&self, _trace: &Trace, m: &mut Metrics) {
        m.set("analysis.cache_entries", self.array.analysis_cache().len() as f64);
    }
}
