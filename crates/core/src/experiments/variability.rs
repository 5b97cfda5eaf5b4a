//! Figures 12 and 13: the §5 variability analysis — V(t) of throughput,
//! MCS and MIMO layers across time scales, and the long time-series view.

use analysis::stats::{mean, std_dev};
use analysis::timeseries::{bin_average, bin_sum};
use analysis::variability::{variability, variability_profile, VariabilityPoint};
use measure::session::{MobilityKind, SessionResult, SessionSpec};
use operators::Operator;
use ran::kpi::Direction;
use serde::{Deserialize, Serialize};

/// The four channels of Fig. 12, in its legend order.
pub const FIG12_OPERATORS: [Operator; 4] = [
    Operator::OrangeSpain100,
    Operator::OrangeSpain90,
    Operator::VodafoneSpain,
    Operator::VodafoneItaly,
];

/// V(t) profiles of one operator's throughput / MCS / MIMO series.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct VariabilityProfiles {
    /// Operator acronym.
    pub operator: String,
    /// V(t) of the slot-level throughput series (Mbps units).
    pub throughput: Vec<VariabilityPoint>,
    /// V(t) of the per-slot MCS index series.
    pub mcs: Vec<VariabilityPoint>,
    /// V(t) of the per-slot MIMO-layer series.
    pub mimo: Vec<VariabilityPoint>,
    /// Mean ± std of V at the largest computed scale (the paper's
    /// "Mean ± Std" annotations at t = 2 s), per metric.
    pub annotation: [(f64, f64); 3],
}

/// Extract the slot-level series of one DL trace: throughput (Mbps per
/// slot interval), MCS index and layers, all sampled at the PCell slot
/// rate (τ = 0.5 ms), holding the last scheduled value through
/// unscheduled slots (as a decoded XCAL log does).
pub fn slot_series(result: &SessionResult) -> (Vec<f64>, Vec<f64>, Vec<f64>) {
    let slot_s = 0.5e-3;
    let mut tput = Vec::new();
    let mut mcs = Vec::new();
    let mut layers = Vec::new();
    let mut last_mcs = 0.0;
    let mut last_layers = 0.0;
    for r in result.trace.iter().filter(|r| r.carrier == 0 && r.direction == Direction::Dl) {
        tput.push(f64::from(r.delivered_bits) / slot_s / 1e6);
        if r.scheduled {
            last_mcs = f64::from(r.mcs);
            last_layers = f64::from(r.layers);
        }
        mcs.push(last_mcs);
        layers.push(last_layers);
    }
    (tput, mcs, layers)
}

/// Figure 12: V(t) from 0.5 ms to ~2 s for the four channels.
pub fn figure12(duration_s: f64, seed: u64) -> Vec<VariabilityProfiles> {
    FIG12_OPERATORS
        .iter()
        .map(|&op| {
            // One long session per operator (the paper's traces are
            // continuous captures), plus segment stats for the annotation.
            let result = SessionResult::run(SessionSpec {
                operator: op,
                mobility: MobilityKind::Stationary { spot: 0 },
                dl: true,
                ul: true,
                duration_s,
                seed,
            });
            let (tput, mcs, layers) = slot_series(&result);
            // Keep at least 4 blocks at the largest scale (≈ 2 s for a 10+ s
            // trace).
            let min_blocks = 4;
            let profiles = [
                variability_profile(&tput, 0.5e-3, min_blocks),
                variability_profile(&mcs, 0.5e-3, min_blocks),
                variability_profile(&layers, 0.5e-3, min_blocks),
            ];
            // Annotations: mean ± std of V at the largest scale across
            // 8 segments of the trace.
            let annotation = [&tput, &mcs, &layers].map(|series| {
                let seg = series.len() / 8;
                let block = (2.0 / 0.5e-3) as usize; // 2 s blocks
                let block = block.min(seg / 2).max(1);
                let vs: Vec<f64> = (0..8)
                    .filter_map(|i| variability(&series[i * seg..(i + 1) * seg], block))
                    .collect();
                (mean(&vs), std_dev(&vs))
            });
            let [throughput, mcs, mimo] = profiles;
            VariabilityProfiles {
                operator: op.acronym().to_string(),
                throughput,
                mcs,
                mimo,
                annotation,
            }
        })
        .collect()
}

/// Figure 13: the 60 ms-granularity time series of throughput, MCS, MIMO
/// layers and RBs over a long trace (the paper uses V_Sp, 264 s).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TimeSeriesView {
    /// Operator acronym.
    pub operator: String,
    /// Bin width, seconds.
    pub bin_s: f64,
    /// Throughput, Mbps per bin.
    pub throughput_mbps: Vec<f64>,
    /// Mean MCS per bin.
    pub mcs: Vec<f64>,
    /// Mean MIMO layers per bin.
    pub layers: Vec<f64>,
    /// Mean RBs per scheduled slot per bin.
    pub rbs: Vec<f64>,
}

/// Figure 13: one long V_Sp trace resampled at 60 ms.
pub fn figure13(duration_s: f64, seed: u64) -> TimeSeriesView {
    let result = SessionResult::run(SessionSpec {
        operator: Operator::VodafoneSpain,
        mobility: MobilityKind::Stationary { spot: 0 },
        dl: true,
        ul: true,
        duration_s,
        seed,
    });
    let bin_s = 0.06;
    let dl: Vec<ran::kpi::SlotKpi> = result
        .trace
        .iter()
        .filter(|r| r.carrier == 0 && r.direction == Direction::Dl)
        .collect();
    let bits: Vec<(f64, f64)> =
        dl.iter().map(|r| (r.time_s, f64::from(r.delivered_bits))).collect();
    let mcs: Vec<(f64, f64)> = dl
        .iter()
        .filter(|r| r.scheduled)
        .map(|r| (r.time_s, f64::from(r.mcs)))
        .collect();
    let layers: Vec<(f64, f64)> = dl
        .iter()
        .filter(|r| r.scheduled)
        .map(|r| (r.time_s, f64::from(r.layers)))
        .collect();
    let rbs: Vec<(f64, f64)> = dl
        .iter()
        .filter(|r| r.scheduled)
        .map(|r| (r.time_s, f64::from(r.n_prb)))
        .collect();
    TimeSeriesView {
        operator: "V_Sp".to_string(),
        bin_s,
        throughput_mbps: bin_sum(&bits, bin_s, duration_s)
            .values
            .into_iter()
            .map(|v| v / 1e6)
            .collect(),
        mcs: bin_average(&mcs, bin_s, duration_s).values,
        layers: bin_average(&layers, bin_s, duration_s).values,
        rbs: bin_average(&rbs, bin_s, duration_s).values,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure12_decreasing_profiles() {
        let profiles = figure12(8.0, 17);
        assert_eq!(profiles.len(), 4);
        for p in &profiles {
            assert!(!p.throughput.is_empty());
            // V(t) at large scales is far below V(t) at slot scale — the
            // paper's "much higher variability at smaller time scales".
            let first = p.throughput.first().unwrap().variability;
            let last = p.throughput.last().unwrap().variability;
            assert!(last < first, "{}: {last} !< {first}", p.operator);
        }
    }

    #[test]
    fn figure12_osp100_more_variable_than_vit() {
        let profiles = figure12(8.0, 19);
        let by = |n: &str| profiles.iter().find(|p| p.operator == n).unwrap();
        // Fig. 12's contrast at the 2 s annotation: O_Sp[100] most variable
        // MCS/MIMO, V_It least.
        let osp = by("O_Sp[100]");
        let vit = by("V_It");
        assert!(
            osp.annotation[1].0 > vit.annotation[1].0,
            "MCS V: {} vs {}",
            osp.annotation[1].0,
            vit.annotation[1].0
        );
        assert!(
            osp.annotation[2].0 > vit.annotation[2].0,
            "MIMO V: {} vs {}",
            osp.annotation[2].0,
            vit.annotation[2].0
        );
    }

    #[test]
    fn figure13_series_are_aligned() {
        let v = figure13(12.0, 23);
        assert_eq!(v.throughput_mbps.len(), v.mcs.len());
        assert_eq!(v.mcs.len(), v.layers.len());
        assert_eq!(v.layers.len(), v.rbs.len());
        assert_eq!(v.throughput_mbps.len(), 200); // 12 s / 60 ms
        // RBs sit near the 245 maximum most of the time (§5.1: RB
        // allocation contributes less to variability).
        let high_rb = v.rbs.iter().filter(|&&r| r > 220.0).count();
        assert!(high_rb * 2 > v.rbs.len(), "high-RB bins {high_rb}/{}", v.rbs.len());
    }
}
