//! Property-based tests of the RAN simulator's invariants.

use proptest::prelude::*;
use ran::cell::{CellParams, CellSim, TrafficPattern};
use ran::config::CellConfig;
use ran::harq::{HarqConfig, HarqEntity};
use ran::kpi::{Direction, KpiTrace};
use ran::latency::{run_probes, LatencyProbeConfig};
use ran::scheduler::SchedulerPolicy;
use radio_channel::geometry::Position;
use radio_channel::mobility::MobilityModel;
use radio_channel::rng::SeedTree;

/// The records of one UE alone on `params`, `distance` metres from the
/// site, over `slots` slots.
fn lone_ue(params: CellParams, distance: f64, seed: u64, slots: u64) -> KpiTrace {
    let spot = MobilityModel::Stationary { position: Position::new(distance, 0.0) };
    CellSim::single(params, spot, &SeedTree::new(seed)).run(slots).swap_remove(0)
}

proptest! {
    /// HARQ conservation: every recorded failure is eventually either
    /// retransmittable or counted as dropped — nothing vanishes.
    #[test]
    fn harq_conserves_blocks(
        failures in prop::collection::vec((1u32..1_000_000, 1u8..=3, 0u64..1000), 0..50),
        max_attempts in 2u8..=4,
    ) {
        let mut h = HarqEntity::new(HarqConfig { max_attempts, ..HarqConfig::default() });
        let mut queued = 0u64;
        let mut dropped_expect = 0u64;
        for (bits, attempts, slot) in failures {
            if attempts >= max_attempts {
                dropped_expect += 1;
            } else {
                queued += 1;
            }
            h.record_failure(bits, attempts, slot);
        }
        prop_assert_eq!(h.dropped(), dropped_expect);
        let mut popped = 0u64;
        while h.pop_ready(u64::MAX).is_some() {
            popped += 1;
        }
        prop_assert_eq!(popped, queued);
        prop_assert_eq!(h.backlog(), 0);
    }

    /// Per-slot carrier invariants hold under arbitrary (valid) geometry:
    /// delivered ≤ TBS, PRBs ≤ N_RB, layers ≤ cell max, and the CQI filter
    /// partitions the trace.
    #[test]
    fn carrier_slot_invariants(
        distance in 40.0f64..500.0,
        seed in 0u64..500,
        bw in prop::sample::select(vec![40u32, 60, 80, 90, 100]),
    ) {
        let params = CellParams {
            traffic: TrafficPattern::BOTH,
            ..CellParams::midband(bw, SchedulerPolicy::ProportionalFair)
        };
        let n_rb = params.cell.n_rb;
        let max_layers = params.cell.max_dl_layers;
        let trace = lone_ue(params, distance, seed, 400);
        for r in trace.iter() {
            prop_assert!(r.delivered_bits <= r.tbs_bits);
            prop_assert!(r.n_prb <= n_rb);
            prop_assert!(r.layers <= max_layers);
            prop_assert!(r.cqi <= 15);
            if !r.scheduled {
                prop_assert_eq!(r.tbs_bits, 0);
            }
            if r.block_error {
                prop_assert_eq!(r.delivered_bits, 0);
            }
        }
        let good = trace.filter_cqi_at_least(10).len();
        let bad = trace.filter_cqi_below(10).len();
        prop_assert_eq!(good + bad, trace.len());
    }

    /// Latency probes are positive, finite and bounded by a few pattern
    /// periods, for every operator-realistic pattern and retx mode.
    #[test]
    fn latency_probe_bounds(
        seed in 0u64..200,
        pattern in prop::sample::select(vec!["DDDSU", "DDSU", "DDDDDDDSUU", "DDDSUUDDDD"]),
        force in prop::sample::select(vec![Some(false), Some(true), None]),
    ) {
        let p = nr_phy::tdd::TddPattern::parse(pattern, nr_phy::tdd::SpecialSlotConfig::BALANCED).unwrap();
        let cfg = LatencyProbeConfig::default();
        let samples = run_probes(&p, &cfg, 200, force, &SeedTree::new(seed));
        let period_ms = p.len() as f64 * cfg.slot_ms;
        for s in &samples {
            prop_assert!(s.dl_ms > 0.0 && s.ul_ms > 0.0);
            prop_assert!(s.total_ms().is_finite());
            // One leg never exceeds ~3 pattern periods even with a retx.
            prop_assert!(s.dl_ms < 3.0 * period_ms + 2.0, "dl {} period {}", s.dl_ms, period_ms);
            prop_assert!(s.ul_ms < 3.0 * period_ms + 2.0);
            if force == Some(false) {
                prop_assert!(!s.had_retx);
            }
        }
    }

    /// The cell's per-TDD-cycle allocation table is bit-identical to the
    /// direct scheduler computation across random TDD patterns,
    /// bandwidths, UL RB fractions and reserved DL PRBs: a lone saturating
    /// UE holds exactly the budget's allocation on every granted slot, and
    /// gets a UL record exactly on the slots with UL symbols.
    #[test]
    fn frame_table_matches_direct_allocation_across_patterns(
        pattern in prop::sample::select(vec![
            "DDDSU", "DDDDDDDSUU", "DDSU", "DSUUU",
        ]),
        bw in prop::sample::select(vec![40u32, 60, 80, 90, 100]),
        ul_frac in 0.05f64..1.0,
        reserved in 0u16..100,
        seed in 0u64..100,
    ) {
        use ran::scheduler::{dl_allocation_prbs, ul_allocation_prbs, ul_prb_budget};
        let mut params = CellParams {
            cell: CellConfig::midband(bw, pattern),
            traffic: TrafficPattern::BOTH,
            reserved_dl_prbs: reserved,
            ..CellParams::midband(bw, SchedulerPolicy::ProportionalFair)
        };
        params.cell.ul_rb_fraction = ul_frac;
        let cfg = params.cell.clone();
        let trace = lone_ue(params, 60.0, seed, 60);
        for slot in 0..60u64 {
            let ul = trace.iter().find(|r| r.slot == slot && r.direction == Direction::Ul);
            prop_assert_eq!(ul.is_some(), cfg.ul_symbols(slot) > 0, "slot {}", slot);
        }
        for r in trace.iter().filter(|r| r.scheduled) {
            let alloc = match r.direction {
                Direction::Dl => dl_allocation_prbs(&cfg, r.slot, cfg.n_rb - reserved),
                Direction::Ul => ul_allocation_prbs(&cfg, r.slot, ul_prb_budget(&cfg)),
            }
            .expect("a granted slot has symbols");
            prop_assert_eq!((r.n_prb, r.n_re), (alloc.n_prb, alloc.total_re()), "slot {}", r.slot);
        }
    }

    /// Throughput accounting: binned series integrate to the same bits as
    /// the scalar mean, for any one-UE cell run.
    #[test]
    fn throughput_series_consistency(seed in 0u64..300, distance in 50.0f64..300.0) {
        let params = CellParams::midband(80, SchedulerPolicy::ProportionalFair);
        let mut trace = KpiTrace::new();
        for r in lone_ue(params, distance, seed, 2000).direction(Direction::Dl) {
            trace.push(r);
        }
        let mean = trace.mean_throughput_mbps(Direction::Dl);
        let series = trace.throughput_series_mbps(Direction::Dl, 0.1);
        let from_series = series.iter().sum::<f64>() * 0.1 / trace.duration_s();
        prop_assert!((mean - from_series).abs() < 1e-6 * (1.0 + mean));
    }
}
