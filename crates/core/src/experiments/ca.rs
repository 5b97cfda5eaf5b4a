//! Figure 23 / Appendix 10.5: the carrier-aggregation benefit (T-Mobile).

use measure::session::{MobilityKind, SessionSpec};
use operators::Operator;
use radio_channel::rng::SeedTree;
use ran::cell::TrafficPattern;
use ran::kpi::Direction;
use ran::sim::UeSimConfig;
use serde::{Deserialize, Serialize};

/// One CA configuration's throughput.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CaOutcome {
    /// Configuration label ("n41 100", "n41 100+40", …).
    pub label: String,
    /// Aggregate bandwidth, MHz.
    pub aggregate_mhz: u32,
    /// Mean DL throughput, Mbps.
    pub mean_mbps: f64,
    /// Peak (1 s) DL throughput, Mbps.
    pub peak_mbps: f64,
}

/// Figure 23: T-Mobile's DL throughput as CCs are added — single n41
/// channel, two n41 channels (140 MHz) and the full n41+n25 aggregate
/// (165 MHz; the paper quotes combinations up to 180 MHz).
pub fn figure23(sessions: u64, duration_s: f64, seed: u64) -> Vec<CaOutcome> {
    let profile = Operator::TMobileUs.profile();
    let configs: [(&str, usize); 3] =
        [("n41 100 (no CA)", 1), ("n41 100+40", 2), ("n41+n25 100+40+20+5", 4)];
    configs
        .iter()
        .map(|&(label, n_ccs)| {
            let mut trimmed = profile.clone();
            trimmed.carriers.truncate(n_ccs);
            let aggregate_mhz = trimmed.total_bandwidth_mhz();
            let mut means = Vec::new();
            let mut peak: f64 = 0.0;
            for i in 0..sessions {
                let spec = SessionSpec {
                    operator: Operator::TMobileUs,
                    mobility: MobilityKind::Stationary { spot: i as usize },
                    dl: true,
                    ul: false,
                    duration_s,
                    seed: seed + i,
                };
                let mut sim = trimmed.build_ue_sim(
                    spec.mobility_model(),
                    UeSimConfig { traffic: TrafficPattern::DL, routing: trimmed.routing },
                    &SeedTree::new(spec.seed).child(trimmed.city),
                );
                let trace = sim.run(duration_s);
                means.push(trace.mean_throughput_mbps(Direction::Dl));
                peak = peak.max(
                    trace
                        .throughput_series_mbps(Direction::Dl, 1.0)
                        .into_iter()
                        .fold(0.0, f64::max),
                );
            }
            CaOutcome {
                label: label.to_string(),
                aggregate_mhz,
                mean_mbps: means.iter().sum::<f64>() / means.len() as f64,
                peak_mbps: peak,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ca_monotonically_boosts_throughput() {
        let rows = figure23(3, 5.0, 71);
        assert_eq!(rows.len(), 3);
        assert!(rows[0].aggregate_mhz == 100);
        assert!(rows[1].aggregate_mhz == 140);
        assert!(rows[2].aggregate_mhz == 165);
        assert!(rows[1].mean_mbps > rows[0].mean_mbps * 1.15, "{} vs {}", rows[1].mean_mbps, rows[0].mean_mbps);
        assert!(rows[2].mean_mbps > rows[1].mean_mbps, "{} vs {}", rows[2].mean_mbps, rows[1].mean_mbps);
        // The paper's Fig. 23 scale: the full aggregate averages around
        // 1.3 Gbps with peaks near 1.4; ours lands in the same regime.
        assert!(rows[2].mean_mbps > 700.0);
        assert!(rows[2].peak_mbps > rows[2].mean_mbps);
    }
}
