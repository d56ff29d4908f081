//! The §6.3.3 CNN scenarios: a functional in-DRAM binary dot product
//! (XOR + bit-serial popcount) plus the Table 2 / Table 3 FPS models.
//!
//! Run with `cargo run --example binary_cnn`.

use elp2im::apps::arith::bit_serial_popcount;
use elp2im::apps::backend::PimBackend;
use elp2im::apps::dracc::{table2_networks, DraccStudy};
use elp2im::apps::nid::{table3_networks, NidStudy};
use elp2im::apps::workload;
use elp2im::core::batch::{BatchConfig, DeviceArray};
use elp2im::core::bitvec::BitVec;
use elp2im::core::compile::LogicOp;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // --- Functional binary dot product: 9 weight planes x 256 lanes. ---
    // Each lane is one output neuron; popcount(xnor(activation, weight))
    // drives its activation. We compute popcount(xor) here and verify.
    let lanes = 256;
    let fan_in = 9;
    let mut rng = workload::rng(99);
    let activations: Vec<BitVec> =
        (0..fan_in).map(|_| workload::random_bitvec(&mut rng, lanes, 0.5)).collect();
    let weights: Vec<BitVec> =
        (0..fan_in).map(|_| workload::random_bitvec(&mut rng, lanes, 0.5)).collect();

    let mut dev =
        DeviceArray::new(BatchConfig { reserved_rows: 2, ..BatchConfig::subarray(32, 256) });
    let mut xor_planes = Vec::new();
    for (a, w) in activations.iter().zip(&weights) {
        let ha = dev.store(a)?;
        let hw = dev.store(w)?;
        let (hx, _) = dev.binary(LogicOp::Xor, ha, hw)?;
        dev.release(ha)?;
        dev.release(hw)?;
        xor_planes.push(hx);
    }
    let count_planes = bit_serial_popcount(&mut dev, &xor_planes)?;

    // Verify every lane against software.
    for lane in 0..lanes {
        let expect: u64 = activations
            .iter()
            .zip(&weights)
            .map(|(a, w)| u64::from(a.get(lane) != w.get(lane)))
            .sum();
        let got: u64 = count_planes
            .iter()
            .enumerate()
            .map(|(i, &h)| u64::from(dev.load(h).unwrap().get(lane)) << i)
            .sum();
        assert_eq!(got, expect, "lane {lane}");
    }
    println!("binary dot product: {fan_in}-wide popcount verified on {lanes} lanes");
    println!("device commands: {}\n", dev.stats().total_commands());

    // --- Table 2: DrAcc ternary-weight networks. ---
    let dracc = DraccStudy::paper_setup();
    let ambit = PimBackend::ambit().without_power_constraint();
    let elp = PimBackend::elp2im_accelerator();
    println!("Table 2 model (DrAcc TWN, FPS):");
    for net in table2_networks() {
        let fa = dracc.fps(&net, &ambit);
        let fe = dracc.fps(&net, &elp);
        println!("  {:<8} Ambit {fa:>9.1}  ELP2IM {fe:>9.1}  ({:.2}x)", net.name, fe / fa);
    }

    // --- Table 3: NID binary networks. ---
    let nid = NidStudy::paper_setup();
    println!("\nTable 3 model (NID binary CNN, FPS):");
    for net in table3_networks() {
        let fa = nid.fps(&net, &ambit);
        let fe = nid.fps(&net, &elp);
        println!("  {:<9} Ambit {fa:>9.1}  ELP2IM {fe:>9.1}  ({:.2}x)", net.name, fe / fa);
    }
    Ok(())
}
