//! Figures 9 and 10: PHY UL throughput — EU operators at CQI ≥ 12, and
//! the US panel split by channel quality including the LTE leg.

use super::run_campaign;
use measure::iperf::{lte_only, nr_only};
use operators::Operator;
use ran::config::UplinkRouting;
use ran::kpi::Direction;
use ran::sim::UeSimConfig;
use serde::{Deserialize, Serialize};

/// One bar of Fig. 9/10.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct UlRow {
    /// Label ("V_It", "LTE_US", …).
    pub label: String,
    /// Channel bandwidth label, MHz.
    pub bandwidth: String,
    /// Mean NR UL throughput over CQI ≥ 12 periods, Mbps.
    pub ul_mbps_good: f64,
    /// Mean NR UL throughput over CQI < 10 periods, Mbps (Fig. 10 panel).
    pub ul_mbps_poor: f64,
}

fn ul_conditioned(op: Operator, sessions: u64, duration_s: f64, seed: u64) -> (f64, f64) {
    let mut good = (0.0, 0u32);
    let mut poor = (0.0, 0u32);
    for r in run_campaign(op, sessions, duration_s, seed) {
        let nr = nr_only(&r.trace);
        if let Some(v) = nr.mean_throughput_mbps_where_cqi(Direction::Ul, 0.1, 12) {
            good.0 += v;
            good.1 += 1;
        }
        if let Some(v) = nr.mean_throughput_mbps_where_cqi_below(Direction::Ul, 0.1, 10) {
            poor.0 += v;
            poor.1 += 1;
        }
    }
    (
        if good.1 > 0 { good.0 / f64::from(good.1) } else { 0.0 },
        if poor.1 > 0 { poor.0 / f64::from(poor.1) } else { 0.0 },
    )
}

/// Figure 9: the European UL panel (CQI ≥ 12).
pub fn figure9(sessions: u64, duration_s: f64, seed: u64) -> Vec<UlRow> {
    [
        Operator::VodafoneItaly,
        Operator::SfrFrance,
        Operator::VodafoneGermany,
        Operator::TelekomGermany,
        Operator::OrangeFrance,
        Operator::VodafoneSpain,
        Operator::OrangeSpain90,
        Operator::OrangeSpain100,
    ]
    .iter()
    .map(|&op| {
        let (good, poor) = ul_conditioned(op, sessions, duration_s, seed);
        UlRow {
            label: op.acronym().to_string(),
            bandwidth: op.profile().carriers[0].cell.bandwidth.mhz().to_string(),
            ul_mbps_good: good,
            ul_mbps_poor: poor,
        }
    })
    .collect()
}

/// Figure 10: the U.S. panel — NR UL per operator plus the LTE leg that
/// actually carries T-Mobile's uplink. For the NR measurements the
/// experiment forces the UL onto NR (as a measurement tool pinning the
/// data path would), since T-Mobile's default routing would leave the NR
/// column empty.
pub fn figure10(sessions: u64, duration_s: f64, seed: u64) -> Vec<UlRow> {
    let mut rows = Vec::new();
    for &op in &[Operator::AttUs, Operator::VerizonUs, Operator::TMobileUs] {
        let profile = op.profile();
        let mut good = (0.0, 0u32);
        let mut poor = (0.0, 0u32);
        for i in 0..sessions {
            let spec = measure::session::SessionSpec {
                operator: op,
                mobility: measure::session::MobilityKind::Stationary { spot: i as usize },
                dl: true,
                ul: true,
                duration_s,
                seed: seed + i,
            };
            // Force the NR UL leg for the per-channel measurement.
            let mut sim = profile.build_ue_sim_with_routing(
                spec.mobility_model(),
                UeSimConfig {
                    traffic: ran::cell::TrafficPattern::BOTH,
                    routing: UplinkRouting::NrOnly,
                },
                &spec.seeds(),
            );
            let trace = sim.run(duration_s);
            let nr = nr_only(&trace);
            if let Some(v) = nr.mean_throughput_mbps_where_cqi(Direction::Ul, 0.1, 12) {
                good.0 += v;
                good.1 += 1;
            }
            if let Some(v) = nr.mean_throughput_mbps_where_cqi_below(Direction::Ul, 0.1, 10) {
                poor.0 += v;
                poor.1 += 1;
            }
        }
        rows.push(UlRow {
            label: op.acronym().to_string(),
            bandwidth: profile.carriers[0].cell.bandwidth.mhz().to_string(),
            ul_mbps_good: if good.1 > 0 { good.0 / f64::from(good.1) } else { 0.0 },
            ul_mbps_poor: if poor.1 > 0 { poor.0 / f64::from(poor.1) } else { 0.0 },
        });
    }

    // The LTE_US box: T-Mobile's default routing sends UL to LTE.
    let mut good = (0.0, 0u32);
    let mut poor = (0.0, 0u32);
    for r in run_campaign(Operator::TMobileUs, sessions, duration_s, seed) {
        let lte = lte_only(&r.trace);
        if let Some(v) = lte.mean_throughput_mbps_where_cqi(Direction::Ul, 0.1, 12) {
            good.0 += v;
            good.1 += 1;
        }
        if let Some(v) = lte.mean_throughput_mbps_where_cqi_below(Direction::Ul, 0.1, 10) {
            poor.0 += v;
            poor.1 += 1;
        }
    }
    rows.push(UlRow {
        label: "LTE_US".to_string(),
        bandwidth: "20".to_string(),
        ul_mbps_good: if good.1 > 0 { good.0 / f64::from(good.1) } else { 0.0 },
        ul_mbps_poor: if poor.1 > 0 { poor.0 / f64::from(poor.1) } else { 0.0 },
    });
    rows
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure9_all_below_120() {
        // §4.2: UL "all well below 120 Mbps".
        let rows = figure9(4, 6.0, 41);
        assert_eq!(rows.len(), 8);
        for r in &rows {
            assert!(r.ul_mbps_good < 160.0, "{}: {}", r.label, r.ul_mbps_good);
        }
        // V_Ge is the weakest EU uplink.
        let vge = rows.iter().find(|r| r.label == "V_Ge").unwrap();
        let osp90 = rows.iter().find(|r| r.label == "O_Sp[90]").unwrap();
        assert!(osp90.ul_mbps_good > vge.ul_mbps_good, "{} vs {}", osp90.ul_mbps_good, vge.ul_mbps_good);
    }

    #[test]
    fn figure10_lte_carries_tmobile() {
        let rows = figure10(4, 6.0, 43);
        assert_eq!(rows.len(), 4);
        let lte = rows.iter().find(|r| r.label == "LTE_US").unwrap();
        assert!(lte.ul_mbps_good > 30.0, "LTE UL {}", lte.ul_mbps_good);
        // Poor channel hurts every UL.
        for r in &rows {
            if r.ul_mbps_poor > 0.0 {
                assert!(r.ul_mbps_poor <= r.ul_mbps_good, "{}", r.label);
            }
        }
    }
}
