//! `montecarlo`: the paper-scale Fig. 11 sweep — `MonteCarlo::paper_setup`
//! at 200k trials per point over 4 designs × 2 PV modes × 5 σ, on one
//! worker thread per available core. A request is one sweep point, in
//! sweep order, repeating. Reference: the error count of a single-thread
//! run of the same seed (computed once per point and run, and timed for
//! `mc.trials_per_s_1t`).

use crate::stats::ratio;
use crate::trace::Trace;
use crate::{Metrics, Workload};
use elp2im_circuit::montecarlo::{Design, MonteCarlo, SweepPoint};
use elp2im_circuit::variation::PvMode;
use std::collections::HashMap;
use std::time::{Duration, Instant};

const TRIALS: usize = 200_000;
const SIGMAS: [f64; 5] = [0.04, 0.06, 0.08, 0.10, 0.12];
const DESIGNS: [Design; 4] = [
    Design::RegularDram,
    Design::Elp2im { alternative: false },
    Design::Elp2im { alternative: true },
    Design::AmbitTra,
];
const MODES: [PvMode; 2] = [PvMode::Random, PvMode::Systematic];
const POINTS: u64 = (SIGMAS.len() * DESIGNS.len() * MODES.len()) as u64;

pub struct MonteCarloSweep {
    mc: MonteCarlo,
    /// Single-thread reference runs by point: (error count, host seconds).
    reference: HashMap<u64, (u64, f64)>,
}

/// Sweep point `i` in (mode, design, σ) order.
#[derive(Clone, Copy)]
pub struct Point {
    index: u64,
    design: Design,
    mode: PvMode,
    sigma: f64,
}

fn point(index: u64) -> Point {
    let i = index as usize;
    let s = SIGMAS.len();
    let d = DESIGNS.len();
    Point { index, sigma: SIGMAS[i % s], design: DESIGNS[(i / s) % d], mode: MODES[i / (s * d)] }
}

pub struct Out {
    point: Point,
    result: SweepPoint,
}

impl Workload for MonteCarloSweep {
    type In = Point;
    type Out = Out;
    const REPLAY: usize = 2;
    const RSS_AFTER: usize = 40;

    fn setup(seed: u64) -> Result<(Self, Option<Duration>), String> {
        let mut mc = MonteCarlo::paper_setup().with_trials(TRIALS).with_threads(0);
        mc.seed = seed;
        Ok((MonteCarloSweep { mc, reference: HashMap::new() }, None))
    }

    fn input(&mut self, req: u64) -> Point {
        point(req % POINTS)
    }

    fn request(&mut self, p: Point, tr: Option<&mut Trace>) -> Result<Out, String> {
        let run = || self.mc.error_rate_point(p.design, p.mode, p.sigma);
        let result = match tr {
            Some(t) => {
                let r = t.time("mc.point", None, run);
                t.count("mc.trials", r.trials as f64);
                r
            }
            None => run(),
        };
        Ok(Out { point: p, result })
    }

    fn check(&mut self, out: &Out) -> Result<(), String> {
        let p = out.point;
        let (errors, _) = *self.reference.entry(p.index).or_insert_with(|| {
            let t = Instant::now();
            let single = self.mc.clone().with_threads(1);
            let errors = single.error_rate_point(p.design, p.mode, p.sigma).errors;
            (errors, t.elapsed().as_secs_f64())
        });
        if out.result.trials != TRIALS as u64 || out.result.errors != errors {
            return Err(format!(
                "point {}: {} errors in {} trials, single-thread run has {errors} in {TRIALS}",
                p.index, out.result.errors, out.result.trials
            ));
        }
        Ok(())
    }

    fn modeled(_out: &Out) -> (f64, f64) {
        (0.0, 0.0)
    }

    fn fingerprint(out: &Out) -> Vec<u64> {
        vec![out.point.index, out.result.errors, out.result.trials]
    }

    /// Multi-thread rate from the traced requests, single-thread rate from
    /// the reference runs of the same points.
    fn layer_metrics(&self, tr: &Trace, m: &mut Metrics) {
        let secs: f64 = tr.durations_us("mc.point").iter().sum::<f64>() / 1e6;
        let per_s = ratio(tr.total("mc.trials"), secs);
        let secs_1t: f64 = self.reference.values().map(|r| r.1).sum();
        let per_s_1t = ratio((self.reference.len() * TRIALS) as f64, secs_1t);
        m.set("mc.trials_per_s", per_s);
        m.set("mc.trials_per_s_1t", per_s_1t);
        m.set("mc.thread_speedup", ratio(per_s, per_s_1t));
    }
}
