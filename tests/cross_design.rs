//! Cross-design functional parity: the same workload produces identical
//! results on the ELP2IM and Ambit devices, while the substrate statistics
//! expose the architectural differences the paper quantifies.

use elp2im::baselines::ambit_device::{AmbitDevice, AmbitDeviceConfig};
use elp2im::core::batch::{BatchConfig, DeviceArray};
use elp2im::core::bitvec::BitVec;
use elp2im::core::compile::LogicOp;

fn workload_vectors(n: usize, bits: usize) -> Vec<BitVec> {
    use elp2im::apps::workload;
    let mut rng = workload::rng(77);
    (0..n).map(|_| workload::random_bitvec(&mut rng, bits, 0.5)).collect()
}

/// The bitmap query (AND chain) agrees bit-for-bit across designs.
#[test]
fn bitmap_query_agrees_across_designs() {
    let vectors = workload_vectors(5, 128);

    let mut elp = DeviceArray::new(BatchConfig::subarray(16, 32));
    let mut ambit = AmbitDevice::new(AmbitDeviceConfig { width: 128, data_rows: 32 });

    let he: Vec<_> = vectors.iter().map(|v| elp.store(v).unwrap()).collect();
    let ha: Vec<_> = vectors.iter().map(|v| ambit.store(v).unwrap()).collect();

    let mut acc_e = he[0];
    let mut acc_a = ha[0];
    for i in 1..vectors.len() {
        acc_e = elp.binary(LogicOp::And, acc_e, he[i]).unwrap().0;
        acc_a = ambit.and(acc_a, ha[i]).unwrap();
    }
    let result_e = elp.load(acc_e).unwrap();
    let result_a = ambit.load(acc_a).unwrap();
    assert_eq!(result_e, result_a);

    // Software reference.
    let want = vectors.iter().skip(1).fold(vectors[0].clone(), |acc, v| acc.and(v));
    assert_eq!(result_e, want);

    // §6.2's structural difference: same work, ~2x the wordline events on
    // Ambit and more commands.
    let se = elp.stats();
    let sa = ambit.stats();
    assert!(
        sa.wordline_activations as f64 >= 1.8 * se.wordline_activations as f64,
        "ambit {} vs elp2im {} wordline events",
        sa.wordline_activations,
        se.wordline_activations
    );
    assert!(sa.busy_time.as_f64() > se.busy_time.as_f64());
}

/// Every basic operation agrees across designs on random operands.
#[test]
fn all_ops_agree_across_designs() {
    let vectors = workload_vectors(2, 96);
    for op in LogicOp::ALL {
        let mut elp =
            DeviceArray::new(BatchConfig { reserved_rows: 2, ..BatchConfig::subarray(12, 16) });
        let mut ambit = AmbitDevice::new(AmbitDeviceConfig { width: 96, data_rows: 16 });
        let ea = elp.store(&vectors[0]).unwrap();
        let eb = elp.store(&vectors[1]).unwrap();
        let aa = ambit.store(&vectors[0]).unwrap();
        let ab = ambit.store(&vectors[1]).unwrap();
        let (re, ra) = if op.is_unary() {
            (elp.not(ea).unwrap().0, ambit.not(aa).unwrap())
        } else {
            (elp.binary(op, ea, eb).unwrap().0, ambit.binary(op, aa, ab).unwrap())
        };
        assert_eq!(elp.load(re).unwrap(), ambit.load(ra).unwrap(), "{op}");
    }
}

/// XOR energy: the paper's efficiency ordering holds end to end on the
/// functional devices' accounting.
#[test]
fn xor_energy_ordering() {
    let vectors = workload_vectors(2, 64);
    let mut elp =
        DeviceArray::new(BatchConfig { reserved_rows: 2, ..BatchConfig::subarray(8, 16) });
    let mut ambit = AmbitDevice::new(AmbitDeviceConfig { width: 64, data_rows: 16 });
    let ea = elp.store(&vectors[0]).unwrap();
    let eb = elp.store(&vectors[1]).unwrap();
    let aa = ambit.store(&vectors[0]).unwrap();
    let ab = ambit.store(&vectors[1]).unwrap();
    let _ = elp.binary(LogicOp::Xor, ea, eb).unwrap();
    let _ = ambit.xor(aa, ab).unwrap();
    assert!(
        elp.stats().energy.as_f64() < ambit.stats().energy.as_f64(),
        "elp2im {} vs ambit {}",
        elp.stats().energy,
        ambit.stats().energy
    );
    assert!(elp.stats().busy_time.as_f64() < ambit.stats().busy_time.as_f64());
}
