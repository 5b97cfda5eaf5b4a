//! Profile types and the UE-simulation builder.

use nr_phy::tdd::TddPattern;
use radio_channel::channel::{ChannelConfig, ChannelSimulator};
use radio_channel::geometry::DeploymentLayout;
use radio_channel::link::{LinkModel, RankProfile};
use radio_channel::mobility::MobilityModel;
use radio_channel::rng::SeedTree;
use ran::cell::CellParams;
use ran::config::{CellConfig, UplinkRouting};
use ran::lte::{LteAnchor, LteConfig};
use ran::sim::{UeSim, UeSimConfig};

/// One component carrier of an operator.
#[derive(Debug, Clone)]
pub struct CarrierProfile {
    /// The cell configuration (Tables 2–3 content + behavioural knobs).
    pub cell: CellConfig,
    /// Calibration offset applied to this carrier's SINR, dB (systematic
    /// link-quality differences: antenna gain, interference coordination).
    pub sinr_offset_db: f64,
    /// Rician K-factor of the carrier's environment, dB.
    pub rician_k_db: f64,
}

/// Coverage/deployment characteristics of the operator around the study
/// area (the paper's Appendix 10.3 contrast).
#[derive(Debug, Clone)]
pub struct CoverageProfile {
    /// gNB site layout.
    pub layout: DeploymentLayout,
    /// Rank-adaptation profile (scattering richness, antenna quality).
    pub rank_profile: RankProfile,
    /// Neighbour-cell load seen as interference (0..=1).
    pub neighbor_load: f64,
}

/// A complete operator deployment profile.
#[derive(Debug, Clone)]
pub struct OperatorProfile {
    /// Marketing name, e.g. "Vodafone Spain".
    pub display_name: &'static str,
    /// Country of the studied city.
    pub country: &'static str,
    /// Studied city.
    pub city: &'static str,
    /// Component carriers; index 0 is the PCell.
    pub carriers: Vec<CarrierProfile>,
    /// Whether the deployment is NSA (every studied one is).
    pub nsa: bool,
    /// NSA uplink routing behaviour (§4.2).
    pub routing: UplinkRouting,
    /// LTE anchor parameters for NSA UL; `None` disables the LTE leg.
    pub lte: Option<LteConfig>,
    /// Coverage characteristics.
    pub coverage: CoverageProfile,
    /// Human-readable CA description for Table 3 ("Mid + Mid-Band").
    pub ca_description: &'static str,
    /// Bandwidth exactly as the paper's Table 2/3 prints it ("20+5, 100+40");
    /// `None` falls back to [`Self::bandwidth_label`].
    pub table_bandwidth_label: Option<&'static str>,
    /// N_RB exactly as the paper's Table 2/3 prints it ("51 + 11, 273 + 106");
    /// `None` falls back to [`Self::n_rb_label`].
    pub table_nrb_label: Option<&'static str>,
}

impl OperatorProfile {
    /// The PCell's TDD pattern, if TDD.
    pub fn tdd_pattern(&self) -> Option<&TddPattern> {
        self.carriers[0].cell.tdd.as_ref()
    }

    /// Total aggregated bandwidth, MHz.
    pub fn total_bandwidth_mhz(&self) -> u32 {
        self.carriers.iter().map(|c| c.cell.bandwidth.mhz()).sum()
    }

    /// Bandwidth string as Table 2/3 prints it ("100+40", "90").
    pub fn bandwidth_label(&self) -> String {
        self.carriers
            .iter()
            .map(|c| c.cell.bandwidth.mhz().to_string())
            .collect::<Vec<_>>()
            .join("+")
    }

    /// N_RB string as Table 2/3 prints it ("273 + 106", "245").
    pub fn n_rb_label(&self) -> String {
        self.carriers
            .iter()
            .map(|c| c.cell.n_rb.to_string())
            .collect::<Vec<_>>()
            .join(" + ")
    }

    /// The channel configuration for one carrier of this profile.
    pub fn channel_config(&self, carrier: &CarrierProfile) -> ChannelConfig {
        let mut cfg = if carrier.cell.band == nr_phy::band::Band::N261 {
            ChannelConfig::mmwave_urban(carrier.cell.n_rb)
        } else {
            let mut c = ChannelConfig::midband_urban(carrier.cell.n_rb);
            // Carrier frequency from the band (affects Doppler/path loss).
            let (lo, hi) = carrier.cell.band.dl_range_mhz();
            let fc_ghz = f64::from(lo + hi) / 2.0 / 1000.0;
            c.pathloss = radio_channel::pathloss::PathLossModel::new(
                radio_channel::Scenario::UmaBlended,
                fc_ghz,
            );
            c.signal.scs_khz = carrier.cell.numerology.scs_khz();
            c.slot_s = carrier.cell.slot_s();
            c
        };
        cfg.sinr_offset_db += carrier.sinr_offset_db;
        cfg.rician_k_db = carrier.rician_k_db;
        cfg.signal.neighbor_load = self.coverage.neighbor_load;
        cfg
    }

    /// The link model this profile's UEs apply.
    pub fn link_model(&self, carrier: &CarrierProfile) -> LinkModel {
        LinkModel {
            cqi_table: carrier.cell.mcs_policy.cqi_table,
            rank_profile: self.coverage.rank_profile,
            bler_slope_db: 1.0,
        }
    }

    /// The operator's usable measurement spots among the city's shared
    /// study locations (paper §2 ❶): spots where this deployment offers
    /// service (relaxed RSRP floor of −92 dBm — the scouting rule proper,
    /// RSRP > −90 *and* RSRQ > −12, selects the subset analysed as "good
    /// channel"). Falls back to the three strongest spots if fewer than
    /// three qualify, since the campaign always measured somewhere.
    pub fn measurement_spots(&self) -> Vec<radio_channel::geometry::Position> {
        let cfg = self.channel_config(&self.carriers[0]);
        let candidates = radio_channel::scout::standard_study_spots();
        let mut reports = radio_channel::scout::survey(&cfg, &self.coverage.layout, &candidates);
        reports.sort_by(|a, b| {
            b.measurement.rsrp_dbm.partial_cmp(&a.measurement.rsrp_dbm).expect("finite")
        });
        // Tourist spots sit on plazas and streets, not under towers:
        // require a standoff from the serving site, plus serviceable RSRP.
        let qualifying: Vec<_> = reports
            .iter()
            .filter(|r| {
                r.measurement.rsrp_dbm > -92.0
                    && (60.0..=250.0).contains(&r.serving_distance_m)
            })
            .collect();
        if qualifying.len() >= 3 {
            qualifying.into_iter().map(|r| r.position).collect()
        } else {
            reports.iter().take(3).map(|r| r.position).collect()
        }
    }

    /// Build a ready-to-run [`UeSim`] for this operator using the
    /// profile's own NSA routing.
    ///
    /// * `mobility` — the session's movement pattern;
    /// * `sim_config` — traffic directions; the routing field is
    ///   overwritten with the profile's routing (use
    ///   [`Self::build_ue_sim_with_routing`] to force a different one,
    ///   e.g. pinning T-Mobile's UL onto NR for a per-channel test);
    /// * `seeds` — session-scoped seed tree.
    pub fn build_ue_sim(
        &self,
        mobility: MobilityModel,
        mut sim_config: UeSimConfig,
        seeds: &SeedTree,
    ) -> UeSim {
        sim_config.routing = self.routing;
        self.build_ue_sim_with_routing(mobility, sim_config, seeds)
    }

    /// [`Self::build_ue_sim`] with the caller's routing taken verbatim.
    pub fn build_ue_sim_with_routing(
        &self,
        mobility: MobilityModel,
        sim_config: UeSimConfig,
        seeds: &SeedTree,
    ) -> UeSim {
        let carriers = self
            .carriers
            .iter()
            .enumerate()
            .map(|(i, cp)| {
                let cell = CellParams::new(
                    cp.cell.clone(),
                    self.channel_config(cp),
                    self.coverage.layout.clone(),
                    self.link_model(cp),
                );
                (cell, seeds.child_indexed("cc", i as u64))
            })
            .collect();
        let lte = self.lte.map(|lte_cfg| {
            let lte_seeds = seeds.child("lte");
            let channel = ChannelSimulator::new(
                LteAnchor::default_channel_config(),
                self.coverage.layout.clone(),
                mobility.clone(),
                &lte_seeds,
            );
            LteAnchor::new(lte_cfg, channel)
        });
        UeSim::new(carriers, lte, mobility, sim_config, seeds)
    }
}
