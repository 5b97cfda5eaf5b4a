//! Exact obs counter totals of the slot engine.
//!
//! `ran.slots`, `ran.retx`, `ran.block_errors` and `ran.delivered_bits`
//! must move by exactly what the emitted records say: one slot per UE per
//! cell step, and the sums of `is_retx`, `block_error` and
//! `delivered_bits` over every DL and UL record. The engine accumulates
//! these per step and flushes once, so a lost or doubled flush shows up
//! here.
//!
//! This file holds a single test on purpose: the obs registry is
//! process-global, and a second test in the same binary could move the
//! counters concurrently.

use radio_channel::geometry::Position;
use radio_channel::mobility::MobilityModel;
use radio_channel::rng::SeedTree;
use ran::cell::{CellParams, CellSim, CellSink, TrafficPattern, UeSpec};
use ran::kpi::SlotKpi;
use ran::scheduler::SchedulerPolicy;

/// `[slots, retx, block_errors, delivered_bits]`.
type Totals = [u64; 4];

fn counters() -> Totals {
    let reg = obs::registry();
    ["ran.slots", "ran.retx", "ran.block_errors", "ran.delivered_bits"]
        .map(|name| reg.counter(name).get())
}

fn add_record(totals: &mut Totals, kpi: &SlotKpi) {
    totals[1] += u64::from(kpi.is_retx);
    totals[2] += u64::from(kpi.block_error);
    totals[3] += u64::from(kpi.delivered_bits);
}

struct Sums(Totals);

impl CellSink for Sums {
    fn push(&mut self, _ue: u32, kpi: &SlotKpi) {
        add_record(&mut self.0, kpi);
    }
}

fn deltas(before: Totals, after: Totals) -> Totals {
    [0, 1, 2, 3].map(|i| after[i] - before[i])
}

#[test]
fn counter_deltas_equal_record_sums() {
    // A cell-edge UE alone in both directions, so retransmissions, block
    // errors and HARQ-dropped blocks all occur.
    let params = CellParams {
        traffic: TrafficPattern::BOTH,
        ..CellParams::midband(90, SchedulerPolicy::ProportionalFair)
    };
    let spot = MobilityModel::Stationary { position: Position::new(300.0, 0.0) };
    let mut alone = CellSim::single(params, spot, &SeedTree::new(93));
    let before = counters();
    let mut sums = Sums([0; 4]);
    alone.run_into(6_000, &mut sums);
    sums.0[0] = 6_000;
    assert_eq!(deltas(before, counters()), sums.0, "one UE: counter deltas vs record sums");
    assert!(sums.0[1] > 0 && sums.0[2] > 0, "the run must exercise HARQ: {:?}", sums.0);

    // A three-UE cell in both directions: one slot per UE per step.
    let mut params = CellParams::midband(60, SchedulerPolicy::ProportionalFair);
    params.traffic = TrafficPattern::BOTH;
    let ues = [UeSpec::at(60.0, 0.0), UeSpec::at(150.0, 0.0), UeSpec::at(280.0, 0.0)];
    let mut sim = CellSim::new(params, &ues, &SeedTree::new(94));
    let before = counters();
    let mut sums = Sums([0; 4]);
    sim.run_into(4_000, &mut sums);
    sums.0[0] = 3 * 4_000;
    assert_eq!(deltas(before, counters()), sums.0, "cell: counter deltas vs record sums");
    assert!(sums.0[1] > 0 && sums.0[2] > 0, "the run must exercise HARQ: {:?}", sums.0);
}
