//! Adaptive modulation and coding: the gNB side of the Fig. 21 loop.
//!
//! Tracks the most recent CSI report, applies the vendor CQI→MCS policy,
//! runs outer-loop link adaptation (OLLA) on HARQ feedback to hold BLER at
//! its target, and performs rank adaptation. These are precisely the
//! "dynamic parameters" whose variability the paper's §5 quantifies.

use crate::config::CellConfig;
use nr_phy::cqi::Cqi;
use nr_phy::csi::CsiReport;
use nr_phy::dci::DciFormat;
use nr_phy::mcs::McsIndex;
use radio_channel::link::LinkModel;
use serde::{Deserialize, Serialize};

/// OLLA parameters.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct OllaConfig {
    /// Target BLER (NR convention: 0.1).
    pub target_bler: f64,
    /// Offset step applied on a NACK, in MCS-index units (the ACK step is
    /// derived as `nack_step · target/(1−target)` so the offset is
    /// stationary at the target BLER).
    pub nack_step: f64,
    /// Upward offset clamp, in MCS-index units (kept tight: over-shooting
    /// the CQI inflates the modulation-order mix beyond what commercial
    /// networks show).
    pub max_up: f64,
    /// Downward offset clamp, in MCS-index units (loose: under poor and
    /// drifting channels the outer loop must be able to back off hard).
    pub max_down: f64,
    /// Whether OLLA is enabled (ablation knob).
    pub enabled: bool,
}

impl Default for OllaConfig {
    fn default() -> Self {
        OllaConfig { target_bler: 0.1, nack_step: 0.5, max_up: 1.5, max_down: 6.0, enabled: true }
    }
}

/// The per-UE AMC state at the gNB.
#[derive(Debug, Clone)]
pub struct AmcState {
    olla: OllaConfig,
    olla_offset: f64,
    latest_csi: CsiReport,
    current_rank: u8,
}

/// The scheduling decision AMC produces for one grant.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct GrantParams {
    /// DCI format used (1_0 fallback under poor channel, else 1_1).
    pub format: DciFormat,
    /// Chosen MCS index.
    pub mcs: McsIndex,
    /// Chosen layer count.
    pub layers: u8,
}

impl AmcState {
    /// Fresh state assuming a mid-range channel until the first CSI.
    pub fn new(olla: OllaConfig) -> Self {
        AmcState {
            olla,
            olla_offset: 0.0,
            latest_csi: CsiReport::new(2, 0, Cqi::saturating(8), 0),
            current_rank: 2,
        }
    }

    /// Ingest a fresh CSI report (UE→gNB, every CSI period).
    pub fn update_csi(&mut self, csi: CsiReport) {
        self.latest_csi = csi;
    }

    /// The most recent CSI.
    pub fn csi(&self) -> CsiReport {
        self.latest_csi
    }

    /// The current OLLA offset (for inspection/ablation).
    pub fn olla_offset(&self) -> f64 {
        self.olla_offset
    }

    /// Apply HARQ feedback to the outer loop.
    pub fn harq_feedback(&mut self, ack: bool) {
        if !self.olla.enabled {
            return;
        }
        let t = self.olla.target_bler;
        if ack {
            self.olla_offset += self.olla.nack_step * t / (1.0 - t);
        } else {
            self.olla_offset -= self.olla.nack_step;
        }
        self.olla_offset = self.olla_offset.clamp(-self.olla.max_down, self.olla.max_up);
    }

    /// Produce grant parameters for a DL grant under the cell config.
    ///
    /// * CQI below 3 (or out-of-range) drops to the fallback DCI 1_0 —
    ///   single layer, 64QAM table — matching the paper's note that
    ///   format 1_0 appears "when the channel conditions worsen";
    /// * otherwise DCI 1_1 with the vendor CQI→MCS mapping plus the OLLA
    ///   offset, and rank = min(RI, cell max).
    pub fn dl_grant(&mut self, cell: &CellConfig) -> GrantParams {
        let csi = self.latest_csi;
        let fallback = csi.cqi.is_out_of_range() || csi.cqi.value() < 3;
        if fallback {
            let format = DciFormat::Dl1_0;
            let table = format.effective_mcs_table(cell.mcs_table());
            // Fallback grants SE-match the reported CQI against the 64QAM
            // table (CQI 0 → MCS 0) and still honour the outer loop, so a
            // drifting channel cannot pin the BLER high.
            let base = nr_phy::cqi::CqiTable::Table1.se_matched_mcs(csi.cqi, table);
            let adjusted = (base.0 as f64 + self.olla_offset)
                .round()
                .clamp(0.0, table.max_index().0 as f64) as u8;
            self.current_rank = 1;
            return GrantParams { format, mcs: McsIndex(adjusted), layers: 1 };
        }
        let base = cell.mcs_policy.map(csi.cqi);
        let max = cell.mcs_table().max_index().0 as f64;
        let adjusted = (base.0 as f64 + self.olla_offset).round().clamp(0.0, max) as u8;
        self.current_rank = csi.ri.min(cell.max_dl_layers).max(1);
        GrantParams {
            format: DciFormat::Dl1_1,
            mcs: McsIndex(adjusted),
            layers: self.current_rank,
        }
    }

    /// MCS-index backoff applied to UL grants: the UE's power budget puts
    /// the UL ~6 dB below the DL SINR the CQI describes, and one MCS index
    /// spans ~1.5 dB.
    pub const UL_INDEX_BACKOFF: u8 = 4;

    /// Produce grant parameters for a UL grant (capped MCS and layers,
    /// power-budget backoff applied).
    pub fn ul_grant(&mut self, cell: &CellConfig) -> GrantParams {
        let csi = self.latest_csi;
        if csi.cqi.is_out_of_range() {
            return GrantParams { format: DciFormat::Ul0_0, mcs: McsIndex(0), layers: 1 };
        }
        let base = cell.mcs_policy.map(csi.cqi).0.saturating_sub(Self::UL_INDEX_BACKOFF);
        let max = cell.ul_max_mcs.min(cell.mcs_table().max_index().0) as f64;
        let adjusted = (base as f64 + self.olla_offset).round().clamp(0.0, max) as u8;
        GrantParams {
            format: DciFormat::Ul0_1,
            mcs: McsIndex(adjusted),
            layers: csi.ri.min(cell.max_ul_layers).max(1),
        }
    }

    /// Build the CSI report a UE would send for an SINR, given the link
    /// model (used by the simulator's UE side each CSI period).
    pub fn make_csi(link: &LinkModel, sinr_db: f64, previous_rank: u8) -> CsiReport {
        let cqi = link.cqi(sinr_db);
        let ri = link.rank(sinr_db, previous_rank);
        CsiReport::new(ri, 0, cqi, 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nr_phy::cqi::CqiTable;
    use nr_phy::mcs::McsTable;

    fn cell() -> CellConfig {
        CellConfig::midband(90, "DDDSU")
    }

    #[test]
    fn good_csi_uses_full_format() {
        let mut amc = AmcState::new(OllaConfig::default());
        amc.update_csi(CsiReport::new(4, 0, Cqi::new(14).unwrap(), 0));
        let g = amc.dl_grant(&cell());
        assert_eq!(g.format, DciFormat::Dl1_1);
        assert_eq!(g.layers, 4);
        assert!(g.mcs.0 > 20);
    }

    #[test]
    fn poor_csi_falls_back_to_dci_1_0() {
        let mut amc = AmcState::new(OllaConfig::default());
        amc.update_csi(CsiReport::new(4, 0, Cqi::new(2).unwrap(), 0));
        let g = amc.dl_grant(&cell());
        assert_eq!(g.format, DciFormat::Dl1_0);
        assert_eq!(g.layers, 1);
        // Fallback format pins the 64QAM table regardless of cell config.
        assert_eq!(g.format.effective_mcs_table(cell().mcs_table()), McsTable::Qam64);
    }

    #[test]
    fn olla_pushes_mcs_down_on_nacks() {
        let mut amc = AmcState::new(OllaConfig::default());
        amc.update_csi(CsiReport::new(4, 0, Cqi::new(10).unwrap(), 0));
        let before = amc.dl_grant(&cell()).mcs;
        for _ in 0..8 {
            amc.harq_feedback(false);
        }
        let after = amc.dl_grant(&cell()).mcs;
        assert!(after < before, "{} !< {}", after.0, before.0);
    }

    #[test]
    fn olla_is_stationary_at_target_bler() {
        // 1 NACK per 9 ACKs (10% BLER) should keep the offset near zero.
        let mut amc = AmcState::new(OllaConfig::default());
        for _ in 0..500 {
            for _ in 0..9 {
                amc.harq_feedback(true);
            }
            amc.harq_feedback(false);
        }
        assert!(amc.olla_offset().abs() < 1.0, "offset {}", amc.olla_offset());
    }

    #[test]
    fn olla_disabled_is_inert() {
        let mut amc = AmcState::new(OllaConfig { enabled: false, ..OllaConfig::default() });
        for _ in 0..100 {
            amc.harq_feedback(false);
        }
        assert_eq!(amc.olla_offset(), 0.0);
    }

    #[test]
    fn rank_respects_cell_cap() {
        let mut two_layer_cell = cell();
        two_layer_cell.max_dl_layers = 2;
        let mut amc = AmcState::new(OllaConfig::default());
        amc.update_csi(CsiReport::new(4, 0, Cqi::new(15).unwrap(), 0));
        assert_eq!(amc.dl_grant(&two_layer_cell).layers, 2);
    }

    #[test]
    fn ul_grant_caps_mcs_and_layers() {
        let mut amc = AmcState::new(OllaConfig::default());
        amc.update_csi(CsiReport::new(4, 0, Cqi::new(15).unwrap(), 0));
        let c = cell();
        let g = amc.ul_grant(&c);
        assert!(g.mcs.0 <= c.ul_max_mcs);
        assert_eq!(g.layers, c.max_ul_layers);
    }

    #[test]
    fn make_csi_tracks_link_model() {
        let link = LinkModel::midband_qam256();
        let good = AmcState::make_csi(&link, 28.0, 1);
        let bad = AmcState::make_csi(&link, 2.0, 4);
        assert!(good.cqi > bad.cqi);
        assert!(good.ri > bad.ri);
        // CQI table consistency: strong channel reaches the 256QAM rows.
        assert!(CqiTable::Table2.modulation(good.cqi).unwrap() >= nr_phy::mcs::Modulation::Qam64);
    }
}
