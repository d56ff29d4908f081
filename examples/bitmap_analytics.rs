//! The §6.3.1 bitmap-index scenario, both functionally (on one ELP2IM
//! subarray) and as the Fig. 13 throughput study.
//!
//! Run with `cargo run --example bitmap_analytics`.

use elp2im::apps::backend::PimBackend;
use elp2im::apps::bitmap::{reference_queries, run_queries_batch, BitmapStudy};
use elp2im::apps::workload;
use elp2im::core::batch::{BatchConfig, DeviceArray};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // --- Functional execution on a small population. ---
    let users = 4096;
    let weeks = 4;
    let mut rng = workload::rng(2024);
    let week_maps: Vec<_> =
        (0..weeks).map(|_| workload::random_bitvec(&mut rng, users, 0.7)).collect();
    let gender = workload::random_bitvec(&mut rng, users, 0.5);

    let mut dev = DeviceArray::new(BatchConfig::subarray(users / 8, 512));
    let handles: Vec<_> = week_maps.iter().map(|w| dev.store(w)).collect::<Result<_, _>>()?;
    let gh = dev.store(&gender)?;
    let (all, male, _) = run_queries_batch(&mut dev, &handles, gh)?;

    let (ref_all, ref_male) = reference_queries(&week_maps, &gender);
    assert_eq!(dev.load(all)?, ref_all);
    assert_eq!(dev.load(male)?, ref_male);
    println!("{users} users, {weeks} weeks:");
    println!("  active every week:        {}", dev.load(all)?.count_ones());
    println!("  male & active every week: {}", dev.load(male)?.count_ones());
    println!("  device commands: {}", dev.stats().total_commands());

    // --- The Fig. 13 throughput study at paper scale (16M users). ---
    let study = BitmapStudy::paper_setup(weeks);
    println!("\nFig. 13 model (16M users, w = {weeks}):");
    for (name, backend) in [
        ("ELP2IM (constrained)", PimBackend::elp2im_high_throughput()),
        ("Ambit-10 (constrained)", PimBackend::ambit()),
        ("Ambit-4 (constrained)", PimBackend::ambit_with_reserved(4)),
    ] {
        println!(
            "  {name:<24} system improvement over CPU: {:.2}x, device time {:.1} us",
            study.system_improvement(&backend),
            study.device_time(&backend).as_f64() / 1000.0
        );
    }
    Ok(())
}
