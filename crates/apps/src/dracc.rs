//! The DrAcc case study: ternary-weight CNN inference on in-DRAM adders
//! (Table 2 of the paper).
//!
//! DrAcc \[19\] builds word-wise addition inside the subarray from basic
//! bitwise steps; ternary weights turn dot products into additions. The
//! paper re-implements DrAcc's adder on each of the three designs
//! ("we exploit the three designs to realize the adder in Dracc
//! separately... then run TWNs in the high-throughput mode") and reports
//! frames per second **without** a power constraint.
//!
//! # Cost model
//!
//! Per layer with fan-in `L` and `outputs` outputs:
//!
//! * additions are executed column-parallel across
//!   [`DraccStudy::lanes`] lanes with carry-save tree reduction, so a layer
//!   needs `ceil(macs / lanes) + ceil(log2 L)` sequential additions;
//! * each addition costs [`crate::arith::dracc_add_latency`] (design-
//!   dependent — this is where Table 2's ratios come from);
//! * each layer pays a fixed staging overhead
//!   ([`DraccStudy::layer_overhead`]) for weight/activation placement and
//!   pooling, identical across designs.
//!
//! `lanes` and `layer_overhead` are the calibration documented in
//! DESIGN.md §4; absolute FPS lands within ~1.6× of Table 2 while the
//! cross-design ratios (the reproduction target) match.

use crate::arith::dracc_add_latency;
use crate::backend::PimBackend;
use crate::networks::Network;
use elp2im_dram::units::Ns;

/// The DrAcc evaluation configuration.
#[derive(Debug, Clone)]
pub struct DraccStudy {
    /// Parallel addition lanes (default: one 8 KiB row, 65 536 columns).
    pub lanes: usize,
    /// Fixed per-layer staging/pooling overhead.
    pub layer_overhead: Ns,
}

impl DraccStudy {
    /// The paper's configuration.
    pub fn paper_setup() -> Self {
        DraccStudy { lanes: 65_536, layer_overhead: Ns(5_000.0) }
    }

    /// Inference time of `net` on `backend`.
    pub fn inference_time(&self, net: &Network, backend: &PimBackend) -> Ns {
        let t_add = dracc_add_latency(backend);
        let mut total = 0.0;
        for layer in &net.layers {
            let batches = layer.macs().div_ceil(self.lanes as u64);
            let tree_depth = (usize::BITS - layer.fan_in.leading_zeros()) as u64;
            total += (batches + tree_depth) as f64 * t_add.as_f64();
            total += self.layer_overhead.as_f64();
        }
        Ns(total)
    }

    /// Frames per second of `net` on `backend`.
    pub fn fps(&self, net: &Network, backend: &PimBackend) -> f64 {
        1e9 / self.inference_time(net, backend).as_f64()
    }
}

impl Default for DraccStudy {
    fn default() -> Self {
        DraccStudy::paper_setup()
    }
}

/// The backends of Table 2 (no power constraint, §6.3.3): `(label, backend)`.
pub fn table2_backends() -> Vec<(&'static str, PimBackend)> {
    vec![
        ("Ambit", PimBackend::ambit().without_power_constraint()),
        ("ELP2IM", PimBackend::elp2im_accelerator()),
        ("Drisa_nor", PimBackend::drisa().without_power_constraint()),
    ]
}

/// The networks of Table 2, in column order.
pub fn table2_networks() -> Vec<Network> {
    use crate::networks::*;
    vec![lenet5(), cifar10(), alexnet(), vgg16(), vgg19()]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::networks;

    #[test]
    fn elp2im_improves_over_ambit_by_about_12_percent() {
        let study = DraccStudy::paper_setup();
        let ambit = PimBackend::ambit().without_power_constraint();
        let elp = PimBackend::elp2im_accelerator();
        let mut ratios = Vec::new();
        for net in table2_networks() {
            let r = study.fps(&net, &elp) / study.fps(&net, &ambit);
            assert!((1.02..=1.20).contains(&r), "{}: ELP2IM/Ambit = {r:.3}", net.name);
            ratios.push(r);
        }
        let mean = ratios.iter().sum::<f64>() / ratios.len() as f64;
        assert!((1.05..=1.18).contains(&mean), "mean improvement {mean:.3} (paper: 1.12)");
    }

    #[test]
    fn drisa_loses_about_30_percent() {
        let study = DraccStudy::paper_setup();
        let ambit = PimBackend::ambit().without_power_constraint();
        let drisa = PimBackend::drisa().without_power_constraint();
        for net in table2_networks() {
            let r = study.fps(&net, &drisa) / study.fps(&net, &ambit);
            assert!((0.60..=0.85).contains(&r), "{}: Drisa/Ambit = {r:.3}", net.name);
        }
    }

    #[test]
    fn fps_ordering_follows_network_size() {
        let study = DraccStudy::paper_setup();
        let b = PimBackend::ambit().without_power_constraint();
        let lenet = study.fps(&networks::lenet5(), &b);
        let alex = study.fps(&networks::alexnet(), &b);
        let vgg16 = study.fps(&networks::vgg16(), &b);
        let vgg19 = study.fps(&networks::vgg19(), &b);
        assert!(lenet > alex && alex > vgg16 && vgg16 > vgg19);
    }

    /// Absolute FPS sanity against Table 2 (order of magnitude; see module
    /// docs — absolute values are calibration-limited).
    #[test]
    fn absolute_fps_within_2x_of_table2_anchors() {
        let study = DraccStudy::paper_setup();
        let ambit = PimBackend::ambit().without_power_constraint();
        let checks =
            [(networks::lenet5(), 7697.4), (networks::alexnet(), 84.8), (networks::vgg16(), 4.8)];
        for (net, paper) in checks {
            let got = study.fps(&net, &ambit);
            let ratio = got / paper;
            assert!(
                (0.4..=2.5).contains(&ratio),
                "{}: {got:.1} FPS vs paper {paper} ({ratio:.2}x)",
                net.name
            );
        }
    }

    #[test]
    fn smaller_lane_count_reduces_fps() {
        let wide = DraccStudy { lanes: 65_536, layer_overhead: Ns(0.0) };
        let narrow = DraccStudy { lanes: 8_192, layer_overhead: Ns(0.0) };
        let b = PimBackend::ambit().without_power_constraint();
        let net = networks::alexnet();
        assert!(wide.fps(&net, &b) > narrow.fps(&net, &b) * 4.0);
    }
}
