//! Quickstart: bulk bitwise operations on one ELP2IM subarray.
//!
//! Run with `cargo run --example quickstart`.

use elp2im::core::batch::{BatchConfig, DeviceArray};
use elp2im::core::bitvec::BitVec;
use elp2im::core::compile::LogicOp;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // One 512-row subarray of 1 KiB rows in the paper's base
    // configuration: one reserved dual-contact row, reduced-latency
    // compilation.
    let mut dev = DeviceArray::new(BatchConfig::subarray(1024, 512));

    // Store two 16-bit vectors.
    let a = BitVec::from_words(&[0b1100_1010_1111_0000], 16);
    let b = BitVec::from_words(&[0b1010_0110_0101_0101], 16);
    let ha = dev.store(&a)?;
    let hb = dev.store(&b)?;

    // Every basic operation of Fig. 12.
    let (and, _) = dev.binary(LogicOp::And, ha, hb)?;
    let (or, _) = dev.binary(LogicOp::Or, ha, hb)?;
    let (xor, _) = dev.binary(LogicOp::Xor, ha, hb)?;
    let (nand, _) = dev.binary(LogicOp::Nand, ha, hb)?;
    let (nor, _) = dev.binary(LogicOp::Nor, ha, hb)?;
    let (xnor, _) = dev.binary(LogicOp::Xnor, ha, hb)?;
    let (not, _) = dev.not(ha)?;

    println!("a      = {}", dev.load(ha)?);
    println!("b      = {}", dev.load(hb)?);
    println!("a&b    = {}", dev.load(and)?);
    println!("a|b    = {}", dev.load(or)?);
    println!("a^b    = {}", dev.load(xor)?);
    println!("!(a&b) = {}", dev.load(nand)?);
    println!("!(a|b) = {}", dev.load(nor)?);
    println!("!(a^b) = {}", dev.load(xnor)?);
    println!("!a     = {}", dev.load(not)?);

    // Verify against software logic.
    assert_eq!(dev.load(and)?, a.and(&b));
    assert_eq!(dev.load(or)?, a.or(&b));
    assert_eq!(dev.load(xor)?, a.xor(&b));
    assert_eq!(dev.load(not)?, a.not());

    // The substrate accounting shows what the DRAM actually did.
    let stats = dev.stats();
    println!("\nsubstrate: {stats}");
    println!("average latency per operation: {:.1} ns", stats.busy_time.as_f64() / 7.0);
    Ok(())
}
