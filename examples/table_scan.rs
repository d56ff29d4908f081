//! The §6.3.2 table-scan scenario: a BitWeaving `<` predicate evaluated
//! in-DRAM, verified against a scalar scan, plus the Fig. 14 sweep.
//!
//! Run with `cargo run --example table_scan`.

use elp2im::apps::bitweaving::{less_than_on_array, VerticalLayout};
use elp2im::apps::tablescan::{fig14_backends, TableScanStudy};
use elp2im::apps::workload;
use elp2im::core::batch::{BatchConfig, DeviceArray};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // --- Functional: SELECT COUNT(*) WHERE value < 42 over 2048 rows. ---
    let n = 2048;
    let width = 8;
    let constant = 42u64;
    let mut rng = workload::rng(7);
    let values = workload::random_values(&mut rng, n, width);
    let layout = VerticalLayout::from_values(&values, width);

    let mut dev = DeviceArray::new(BatchConfig::subarray(n / 8, 512));
    let planes: Vec<_> = layout.planes().iter().map(|p| dev.store(p)).collect::<Result<_, _>>()?;
    let lt = less_than_on_array(&mut dev, &planes, constant, n)?;
    let count = dev.load(lt)?.count_ones();

    let scalar = values.iter().filter(|&&v| v < constant).count();
    assert_eq!(count, scalar, "in-DRAM scan must agree with the scalar scan");
    println!("SELECT COUNT(*) WHERE a < {constant}: {count} of {n} rows (verified)");
    println!("device commands: {}", dev.stats().total_commands());

    // --- The Fig. 14 sweep at paper scale. ---
    let study = TableScanStudy::paper_setup();
    println!("\nFig. 14 model (16M rows, power constraint on):");
    print!("{:<12}", "design");
    for w in TableScanStudy::widths() {
        print!("  w={w:<2} improv");
    }
    println!();
    for (name, backend) in fig14_backends() {
        print!("{name:<12}");
        for w in TableScanStudy::widths() {
            print!("  {:>9.2}x", study.system_improvement(&backend, w));
        }
        println!();
    }
    Ok(())
}
