//! Exact obs counter totals of the slot engine.
//!
//! `ran.slots`, `ran.retx`, `ran.block_errors` and `ran.delivered_bits`
//! must move by exactly what the emitted records say: one slot per
//! carrier step (one per UE per cell step), and the sums of `is_retx`,
//! `block_error` and `delivered_bits` over every DL and UL record. Both
//! drivers accumulate these per step and flush once, so a lost or doubled
//! flush shows up here.
//!
//! This file holds a single test on purpose: the obs registry is
//! process-global, and a second test in the same binary could move the
//! counters concurrently.

use radio_channel::channel::{ChannelConfig, ChannelSimulator};
use radio_channel::geometry::{DeploymentLayout, Position};
use radio_channel::link::LinkModel;
use radio_channel::mobility::MobilityModel;
use radio_channel::rng::SeedTree;
use ran::carrier::{Carrier, TrafficPattern};
use ran::cell::{CellParams, CellSim, CellSink, UeSpec};
use ran::config::CellConfig;
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
    // A cell-edge carrier in both directions, so retransmissions, block
    // errors and HARQ-dropped blocks all occur.
    let pos = Position::new(300.0, 0.0);
    let seeds = SeedTree::new(93);
    let cfg = CellConfig::midband(90, "DDDSU");
    let channel = ChannelSimulator::new(
        ChannelConfig::midband_urban(cfg.n_rb),
        DeploymentLayout::single_site(),
        MobilityModel::Stationary { position: pos },
        &seeds,
    );
    let mut carrier = Carrier::new(cfg, 0, channel, LinkModel::midband_qam256(), &seeds);
    let before = counters();
    let mut expected: Totals = [0; 4];
    for _ in 0..6_000 {
        let out = carrier.step(pos, 0.0, TrafficPattern::BOTH, true, 1.0, 1.0);
        expected[0] += 1;
        add_record(&mut expected, &out.dl);
        if let Some(ul) = &out.ul {
            add_record(&mut expected, ul);
        }
    }
    let carrier_deltas = deltas(before, counters());
    assert_eq!(carrier_deltas, expected, "carrier: counter deltas vs record sums");
    assert!(expected[1] > 0 && expected[2] > 0, "the run must exercise HARQ: {expected:?}");

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
