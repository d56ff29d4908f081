//! Heap-allocation budget of the steady-state op path, counted by a
//! counting global allocator.
//!
//! A warm [`DeviceArray`] op verifies each program shape once (the
//! canonical verdict memo) and reuses its per-unit buffers, so its
//! allocations are a fixed per-op amount with no per-stripe term, and a
//! compiled program runs on a [`SubarrayEngine`] without allocating at all.
//!
//! Release builds only: debug builds certify every prepared plan, which
//! allocates by design. The file holds a single test so that no other test
//! thread allocates while it counts.
#![cfg(not(debug_assertions))]

use elp2im_core::batch::{BatchConfig, DeviceArray};
use elp2im_core::bitvec::BitVec;
use elp2im_core::compile::{compile, CompileMode, LogicOp, Operands};
use elp2im_core::engine::SubarrayEngine;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

/// Counts every allocation and reallocation; frees are not counted.
struct Counting;

static ALLOCATIONS: AtomicUsize = AtomicUsize::new(0);

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees carry over; the counter is a plain
// atomic statistic that publishes no other data.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations made by `f`.
fn allocations<R>(f: impl FnOnce() -> R) -> (usize, R) {
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let r = f();
    (ALLOCATIONS.load(Ordering::Relaxed) - before, r)
}

/// Allocations of one steady-state AND + release over `stripes` stripes of
/// `config`: the op repeats until warm, then one more is counted.
fn steady_and(config: BatchConfig, stripes: usize) -> usize {
    let mut array = DeviceArray::new(config);
    let bits = array.row_bits() * stripes;
    let a = array.store(&BitVec::ones(bits)).expect("store a");
    let b = array.store(&BitVec::zeros(bits)).expect("store b");
    let mut op = || {
        let (c, run) = array.binary(LogicOp::And, a, b).expect("and");
        assert_eq!(run.banks_used, stripes.min(array.banks()));
        array.release(c).expect("release");
    };
    for _ in 0..4 {
        op();
    }
    allocations(op).0
}

#[test]
fn steady_state_ops_allocate_a_fixed_per_op_amount() {
    let two = steady_and(BatchConfig::default(), 2);
    let eight = steady_and(BatchConfig::default(), 8);
    let wide = steady_and(BatchConfig::with_topology(4, 2), 64);

    let mut engine = SubarrayEngine::new(512, 8, 1);
    engine.write_row(0, BitVec::ones(512)).expect("row 0");
    engine.write_row(1, BitVec::zeros(512)).expect("row 1");
    let rows = Operands { a: 0, b: 1, dst: 2, scratch: None };
    let prog = compile(LogicOp::And, CompileMode::LowLatency, rows, 1).expect("compile");
    // The first run sizes the arena up to the destination row.
    engine.run(prog.primitives()).expect("warm run");
    let (run, result) = allocations(|| engine.run(prog.primitives()));
    result.expect("run");

    eprintln!(
        "allocations: AND + release over 2 stripes {two}, 8 stripes {eight}, \
         64 stripes on 4 x 2 ranks {wide}; engine run {run}"
    );
    assert!(two <= 32, "two-stripe AND + release made {two} allocations");
    assert_eq!(eight, two, "an 8-stripe op must allocate exactly as much as a 2-stripe op");
    assert!(wide <= 128, "64-stripe AND + release on 4 x 2 ranks made {wide} allocations");
    assert_eq!(run, 0, "SubarrayEngine::run of a compiled AND allocated {run} times");
}
