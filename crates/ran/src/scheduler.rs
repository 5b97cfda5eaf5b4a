//! RB allocation per slot.
//!
//! The paper observes (§4.1, Fig. 4) that during saturating transfers every
//! operator allocates close to the maximum RBs to the measuring UE — so the
//! single-UE scheduler is a full-allocation scheduler. Overheads are where
//! real deployments differ from naive accounting: 1 PDCCH symbol, 2-symbol
//! DM-RS (24 REs) and ~1 symbol's worth of CSI-RS/TRS overhead per PRB.
//! With several UEs ([`crate::cell`]) the frequency domain is split into
//! integer grants per the configured policy, which is how Fig. 14's "RBs
//! halve with two active users" arises.

use crate::config::CellConfig;
use nr_phy::resource::RbAllocation;
use obs::audit::{self, Invariant};
use serde::{Deserialize, Serialize};

/// DM-RS REs per PRB for the 2-symbol type-A mapping used at rank 3–4.
pub const DMRS_RE_PER_PRB: u16 = 24;

/// Other overhead REs per PRB (CSI-RS, TRS, PT-RS budget).
pub const OVERHEAD_RE_PER_PRB: u16 = 12;

/// PDCCH control symbols at the head of a DL slot.
pub const PDCCH_SYMBOLS: u8 = 1;

/// How a cell splits RBs among active UEs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum SchedulerPolicy {
    /// Equal instantaneous share of PRBs every slot (frequency-domain
    /// round-robin; what Fig. 14's RB counts show).
    EqualShare,
    /// Time-domain round-robin: one UE owns the whole slot, rotating.
    RoundRobinSlots,
    /// Max-CQI: the whole slot goes to the UE with the best reported CQI
    /// (first index wins ties). The throughput-maximising, fairness-free
    /// comparison policy.
    MaxCqi,
    /// Proportional fair: slot goes to the UE maximising instantaneous
    /// rate / long-term average rate.
    ProportionalFair,
}

/// DL allocation of exactly `n_prb` PRBs in this slot; `None` when the
/// slot carries no DL symbols or the grant is empty. This is the cell
/// scheduler's primitive: per-UE integer grants that sum to at most the
/// RB budget ([`split_prbs`]).
pub fn dl_allocation_prbs(cfg: &CellConfig, slot: u64, n_prb: u16) -> Option<RbAllocation> {
    let symbols = cfg.dl_symbols(slot);
    if symbols == 0 || n_prb == 0 {
        return None;
    }
    if audit::enabled() {
        audit::check(Invariant::RbWithinCarrier, n_prb <= cfg.n_rb);
    }
    Some(RbAllocation {
        n_prb,
        n_symbols: symbols.saturating_sub(PDCCH_SYMBOLS),
        dmrs_re_per_prb: DMRS_RE_PER_PRB,
        overhead_re_per_prb: OVERHEAD_RE_PER_PRB,
    })
}

/// UL allocation of exactly `n_prb` PRBs in this slot; `None` when the
/// slot carries no UL symbols or the grant is empty.
pub fn ul_allocation_prbs(cfg: &CellConfig, slot: u64, n_prb: u16) -> Option<RbAllocation> {
    let symbols = cfg.ul_symbols(slot);
    if symbols == 0 || n_prb == 0 {
        return None;
    }
    if audit::enabled() {
        audit::check(Invariant::RbWithinCarrier, n_prb <= cfg.n_rb);
    }
    Some(RbAllocation {
        n_prb,
        n_symbols: symbols, // no PDCCH inside UL symbols
        dmrs_re_per_prb: 12,
        overhead_re_per_prb: 0,
    })
}

/// The cell's UL PRB budget: the carrier scaled by `ul_rb_fraction`
/// (operators reserving UL RBs), at least 1 PRB.
pub fn ul_prb_budget(cfg: &CellConfig) -> u16 {
    ((cfg.n_rb as f64 * cfg.ul_rb_fraction.clamp(0.0, 1.0)).round() as u16).clamp(1, cfg.n_rb)
}

/// The PRBs granted to the UE at `rank` (0-based) when `budget` PRBs are
/// split equally across `k` UEs: everyone gets `budget / k`, and the
/// `budget % k` leftover PRBs rotate through the ranks with `slot` so no
/// fixed subset is systematically favoured. The grants of one slot sum to
/// exactly `min(budget, …)` — never more — which is the RB-conservation
/// law `ran/tests/cell_props.rs` pins down. With `k > budget`, only the
/// `budget` ranks nearest the rotation point get a (1-PRB) grant.
pub fn split_prbs(budget: u16, k: usize, rank: usize, slot: u64) -> u16 {
    if k == 0 {
        return 0;
    }
    let base = budget / k as u16;
    let rem = (budget % k as u16) as usize;
    let rotated = (rank + (slot as usize % k)) % k;
    base + u16::from(rotated < rem)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cell() -> CellConfig {
        CellConfig::midband(90, "DDDSU")
    }

    #[test]
    fn full_budget_allocation_overheads() {
        let a = dl_allocation_prbs(&cell(), 0, 245).unwrap();
        assert_eq!(a.n_prb, 245);
        assert_eq!(a.n_symbols, 13);
        // 12·13 − 24 − 12 = 120 data REs per PRB.
        assert_eq!(a.re_per_prb(), 120);
    }

    #[test]
    fn ul_slot_carries_no_dl_symbols() {
        assert!(dl_allocation_prbs(&cell(), 4, 245).is_none());
        assert!(ul_allocation_prbs(&cell(), 4, 245).is_some());
        assert!(ul_allocation_prbs(&cell(), 0, 245).is_none());
    }

    #[test]
    fn empty_grant_allocates_nothing() {
        assert!(dl_allocation_prbs(&cell(), 0, 0).is_none());
        assert!(ul_allocation_prbs(&cell(), 4, 0).is_none());
    }

    #[test]
    fn special_slot_shrinks_symbols() {
        let a = dl_allocation_prbs(&cell(), 3, 245).unwrap();
        assert_eq!(a.n_symbols, 9); // 10 DL symbols − 1 PDCCH
        let u = ul_allocation_prbs(&cell(), 3, 245).unwrap();
        assert_eq!(u.n_symbols, 2);
    }

    #[test]
    fn ul_rb_fraction_sets_the_ul_budget() {
        let mut c = cell();
        c.ul_rb_fraction = 0.4;
        assert_eq!(ul_prb_budget(&c), 98); // round(245·0.4)
        c.ul_rb_fraction = 0.0;
        assert_eq!(ul_prb_budget(&c), 1, "at least one PRB");
    }
}
