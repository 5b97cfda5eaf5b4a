//! Counting-allocator proof that the per-slot hot path is allocation-free
//! in steady state (ISSUE 2 acceptance criterion).
//!
//! This file installs a global allocator that counts every `alloc`/
//! `realloc`, warms a carrier past its transients (scratch-buffer sizing,
//! TBS-memo fills, HARQ queue high-water mark), and then asserts that tens
//! of thousands of further slots perform **zero** heap allocations — both
//! for `ChannelSimulator::step_at` alone and for the full slot of a
//! one-UE cell, the shape every measurement session steps. It lives in
//! its own integration-test binary so no concurrently running test can
//! pollute the counter.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use radio_channel::channel::{ChannelConfig, ChannelSimulator};
use radio_channel::geometry::{DeploymentLayout, Position};
use radio_channel::mobility::MobilityModel;
use radio_channel::rng::SeedTree;
use ran::cell::{CellParams, CellSim, CellSink, TrafficPattern, UeSpec};
use ran::kpi::SlotKpi;
use ran::scheduler::SchedulerPolicy;

struct CountingAllocator;

// Per-thread counter: the libtest harness allocates concurrently on its
// own threads, so a process-global counter makes the assertion flaky.
// The `const` initialiser keeps the TLS access itself allocation-free,
// and `try_with` tolerates accesses during TLS teardown.
thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn bump() {
    let _ = ALLOCATIONS.try_with(|c| c.set(c.get() + 1));
}

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump();
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump();
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

fn allocations() -> u64 {
    ALLOCATIONS.try_with(Cell::get).unwrap_or(0)
}

#[test]
fn slot_loop_steady_state_is_allocation_free() {
    // --- ChannelSimulator::step_at alone: stationary and driving. ---
    let seeds = SeedTree::new(77);
    let mut channel = ChannelSimulator::new(
        ChannelConfig::midband_urban(245),
        DeploymentLayout::three_site_dense(),
        MobilityModel::walking(Position::ORIGIN, 100.0),
        &seeds,
    );
    for _ in 0..1000 {
        channel.step();
    }
    let before = allocations();
    for _ in 0..20_000 {
        channel.step();
    }
    let pos = Position::new(60.0, 10.0);
    for _ in 0..20_000 {
        channel.step_at(pos, 0.0);
    }
    let channel_allocs = allocations() - before;
    assert_eq!(
        channel_allocs, 0,
        "ChannelSimulator::step_at allocated {channel_allocs} times in steady state"
    );

    // --- A full one-UE cell slot at a mid-range spot (BLER ≈ OLLA target,
    // so HARQ retransmissions and MCS/layer churn are all exercised),
    // moved every slot the way a session moves its carriers. ---
    let spot = Position::new(280.0, 0.0);
    let params = CellParams {
        layout: DeploymentLayout::three_site_dense(),
        traffic: TrafficPattern::BOTH,
        ..CellParams::midband(90, SchedulerPolicy::ProportionalFair)
    };
    let mut cell = CellSim::single(params, MobilityModel::Stationary { position: spot }, &seeds);
    let mut sink = FlatStats { delivered_bits: vec![0], records: 0 };
    // Warm-up: fill the TBS memo panels for every slot shape the TDD
    // pattern produces, let OLLA sweep the MCS range, and let the HARQ
    // queues reach their high-water mark.
    for _ in 0..20_000 {
        cell.move_ue(0, spot, 0.0);
        cell.step_into(&mut sink);
    }
    let before = allocations();
    for _ in 0..50_000 {
        cell.move_ue(0, spot, 0.0);
        cell.step_into(&mut sink);
    }
    let cell_allocs = allocations() - before;
    assert_eq!(
        cell_allocs, 0,
        "one-UE CellSim::step_into allocated {cell_allocs} times in steady state"
    );
    assert!(sink.delivered_bits[0] > 0, "the UE received traffic");
}

/// A sink whose `push` provably cannot allocate: fixed-size pre-sized
/// accumulators, no growth paths.
struct FlatStats {
    delivered_bits: Vec<u64>,
    records: u64,
}

impl CellSink for FlatStats {
    fn push(&mut self, ue: u32, kpi: &SlotKpi) {
        self.delivered_bits[ue as usize] += u64::from(kpi.delivered_bits);
        self.records += 1;
    }
}

/// The loaded-cell engine at N = 1000 UEs must run its steady-state slot
/// loop without touching the heap (ISSUE 6 acceptance criterion): all
/// per-UE state lives in pre-sized structure-of-arrays columns and the
/// scheduler scratch vectors reach their high-water mark during warm-up.
#[test]
fn cell_slot_loop_at_1000_ues_is_allocation_free() {
    let n_ues = 1000usize;
    // Spread the UEs over the serviceable range so the run mixes good and
    // bad channels (MCS churn, HARQ activity, CSI updates at every phase).
    let ues: Vec<UeSpec> = (0..n_ues)
        .map(|i| UeSpec::at(40.0 + (i % 24) as f64 * 4.5, (i / 24) as f64 * 0.5))
        .collect();
    let mut sim = CellSim::new(
        CellParams::midband(90, SchedulerPolicy::ProportionalFair),
        &ues,
        &SeedTree::new(78),
    );
    let mut sink = FlatStats { delivered_bits: vec![0; n_ues], records: 0 };
    // Warm-up: fill TBS memo panels for every slot shape, size the
    // scheduler scratch, reach the HARQ high-water mark on every UE.
    sim.run_into(1_500, &mut sink);
    let before = allocations();
    sim.run_into(300, &mut sink);
    let cell_allocs = allocations() - before;
    assert_eq!(
        cell_allocs, 0,
        "CellSim::step allocated {cell_allocs} times in steady state at {n_ues} UEs"
    );
    assert!(sink.records >= 1_800 * n_ues as u64, "every UE gets a DL record per slot");
    assert!(sink.delivered_bits.iter().any(|&b| b > 0), "cell delivered traffic");
}
