//! TDD-UL-DL slot patterns (TS 38.213 §11.1).
//!
//! A TDD carrier cycles through a fixed pattern of downlink (`D`), uplink
//! (`U`) and special/flexible (`S`) slots. The pattern determines:
//!
//! * the DL/UL capacity split — the cause of the paper's §4.2 finding that
//!   UL throughput sits far below DL regardless of channel bandwidth;
//! * the waiting time until the next UL opportunity — the dominant term in
//!   the §4.3 user-plane latency differences (V_It's `DDDDDDDSUU` at
//!   6.93 ms vs V_Ge's `DDDSU` at 2.13 ms);
//! * HARQ round-trip timing.
//!
//! Patterns are written exactly as the paper writes them (`"DDDSU"`), with a
//! configurable symbol split inside the special slot.

use crate::error::PhyError;
use serde::{Deserialize, Serialize};

/// Number of OFDM symbols per slot (normal cyclic prefix).
pub const SYMBOLS_PER_SLOT: u8 = 14;

/// The role of one slot in a TDD pattern.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum SlotType {
    /// Full downlink slot.
    Downlink,
    /// Full uplink slot.
    Uplink,
    /// Special slot: a DL run, a guard period, then a UL run.
    Special,
}

/// Symbol split of a special slot, summing to [`SYMBOLS_PER_SLOT`].
///
/// Commercial mid-band deployments commonly use splits like 10D:2G:2U or
/// 6D:4G:4U.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct SpecialSlotConfig {
    /// Leading downlink symbols.
    pub dl_symbols: u8,
    /// Guard symbols (switching time).
    pub guard_symbols: u8,
    /// Trailing uplink symbols.
    pub ul_symbols: u8,
}

impl SpecialSlotConfig {
    /// The common 10D:2G:2U split.
    pub const DL_HEAVY: SpecialSlotConfig =
        SpecialSlotConfig { dl_symbols: 10, guard_symbols: 2, ul_symbols: 2 };

    /// A 6D:4G:4U split giving the UL more room.
    pub const BALANCED: SpecialSlotConfig =
        SpecialSlotConfig { dl_symbols: 6, guard_symbols: 4, ul_symbols: 4 };

    /// Validate that the split sums to 14 symbols.
    pub const fn validate(self) -> Result<Self, PhyError> {
        if self.dl_symbols + self.guard_symbols + self.ul_symbols == SYMBOLS_PER_SLOT {
            Ok(self)
        } else {
            Err(PhyError::InvalidSpecialSlot {
                dl: self.dl_symbols,
                guard: self.guard_symbols,
                ul: self.ul_symbols,
            })
        }
    }
}

/// A repeating TDD-UL-DL slot pattern.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct TddPattern {
    slots: Vec<SlotType>,
    special: SpecialSlotConfig,
}

impl TddPattern {
    /// Parse a pattern string such as `"DDDSU"` with a special-slot split.
    ///
    /// ```
    /// use nr_phy::tdd::{TddPattern, SpecialSlotConfig};
    /// // Vodafone Germany's pattern from the paper's §4.3.
    /// let p = TddPattern::parse("DDDSU", SpecialSlotConfig::DL_HEAVY).unwrap();
    /// assert_eq!(p.len(), 5);
    /// ```
    pub fn parse(pattern: &str, special: SpecialSlotConfig) -> Result<Self, PhyError> {
        let special = special.validate()?;
        if pattern.is_empty() {
            return Err(PhyError::InvalidTddPattern(pattern.to_string()));
        }
        let mut slots = Vec::with_capacity(pattern.len());
        for ch in pattern.chars() {
            slots.push(match ch {
                'D' => SlotType::Downlink,
                'U' => SlotType::Uplink,
                'S' => SlotType::Special,
                _ => return Err(PhyError::InvalidTddPattern(pattern.to_string())),
            });
        }
        Ok(TddPattern { slots, special })
    }

    /// An all-downlink pseudo-pattern used to model the DL side of FDD
    /// carriers (T-Mobile n25), where the full carrier is always available.
    pub fn fdd_downlink() -> Self {
        TddPattern { slots: vec![SlotType::Downlink], special: SpecialSlotConfig::DL_HEAVY }
    }

    /// An all-uplink pseudo-pattern for the UL leg of FDD carriers.
    pub fn fdd_uplink() -> Self {
        TddPattern { slots: vec![SlotType::Uplink], special: SpecialSlotConfig::DL_HEAVY }
    }

    /// Pattern length in slots.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// Whether the pattern is empty (never true for parsed patterns).
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// The special-slot symbol split.
    pub fn special_config(&self) -> SpecialSlotConfig {
        self.special
    }

    /// Slot type at an absolute slot index (the pattern repeats).
    pub fn slot_type(&self, slot_index: u64) -> SlotType {
        self.slots[(slot_index % self.slots.len() as u64) as usize]
    }

    /// The pattern string, e.g. `"DDDSU"`.
    pub fn pattern_string(&self) -> String {
        self.slots
            .iter()
            .map(|s| match s {
                SlotType::Downlink => 'D',
                SlotType::Uplink => 'U',
                SlotType::Special => 'S',
            })
            .collect()
    }

    /// Downlink symbols available in the slot at `slot_index`.
    pub fn dl_symbols(&self, slot_index: u64) -> u8 {
        match self.slot_type(slot_index) {
            SlotType::Downlink => SYMBOLS_PER_SLOT,
            SlotType::Uplink => 0,
            SlotType::Special => self.special.dl_symbols,
        }
    }

    /// Uplink symbols available in the slot at `slot_index`.
    pub fn ul_symbols(&self, slot_index: u64) -> u8 {
        match self.slot_type(slot_index) {
            SlotType::Downlink => 0,
            SlotType::Uplink => SYMBOLS_PER_SLOT,
            SlotType::Special => self.special.ul_symbols,
        }
    }

    /// Fraction of symbols usable for DL over one pattern period.
    pub fn dl_duty_cycle(&self) -> f64 {
        let total = (self.slots.len() as u32) * SYMBOLS_PER_SLOT as u32;
        let dl: u32 = (0..self.slots.len() as u64).map(|i| self.dl_symbols(i) as u32).sum();
        dl as f64 / total as f64
    }

    /// Fraction of symbols usable for UL over one pattern period.
    pub fn ul_duty_cycle(&self) -> f64 {
        let total = (self.slots.len() as u32) * SYMBOLS_PER_SLOT as u32;
        let ul: u32 = (0..self.slots.len() as u64).map(|i| self.ul_symbols(i) as u32).sum();
        ul as f64 / total as f64
    }

    /// Slots until the next slot (strictly after `slot_index`) carrying any
    /// UL symbols. Returns a value in `1..=len()`.
    pub fn slots_to_next_ul(&self, slot_index: u64) -> u64 {
        for d in 1..=self.slots.len() as u64 {
            if self.ul_symbols(slot_index + d) > 0 {
                return d;
            }
        }
        unreachable!("validated patterns always contain UL symbols")
    }

    /// Slots until the next slot (strictly after `slot_index`) carrying any
    /// DL symbols.
    pub fn slots_to_next_dl(&self, slot_index: u64) -> u64 {
        for d in 1..=self.slots.len() as u64 {
            if self.dl_symbols(slot_index + d) > 0 {
                return d;
            }
        }
        unreachable!("validated patterns always contain DL symbols")
    }

    /// Mean number of slots a packet arriving uniformly in time waits until
    /// the start of the next UL opportunity (the "alignment delay" of the
    /// §4.3 latency model). An arrival during slot `i` waits for the next
    /// UL-carrying slot; averaging over all arrival slots gives the mean.
    pub fn mean_ul_alignment_slots(&self) -> f64 {
        let n = self.slots.len() as u64;
        let total: u64 = (0..n).map(|i| self.slots_to_next_ul(i)).sum();
        total as f64 / n as f64
    }
}

impl std::fmt::Display for TddPattern {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} (S={}D:{}G:{}U)",
            self.pattern_string(),
            self.special.dl_symbols,
            self.special.guard_symbols,
            self.special.ul_symbols
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dddsu() -> TddPattern {
        TddPattern::parse("DDDSU", SpecialSlotConfig::DL_HEAVY).unwrap()
    }

    fn vodafone_italy() -> TddPattern {
        TddPattern::parse("DDDDDDDSUU", SpecialSlotConfig::BALANCED).unwrap()
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(TddPattern::parse("", SpecialSlotConfig::DL_HEAVY).is_err());
        assert!(TddPattern::parse("DDXSU", SpecialSlotConfig::DL_HEAVY).is_err());
        let bad = SpecialSlotConfig { dl_symbols: 10, guard_symbols: 2, ul_symbols: 3 };
        assert!(TddPattern::parse("DDDSU", bad).is_err());
    }

    #[test]
    fn roundtrip_pattern_string() {
        assert_eq!(dddsu().pattern_string(), "DDDSU");
        assert_eq!(vodafone_italy().pattern_string(), "DDDDDDDSUU");
    }

    #[test]
    fn duty_cycles_reflect_dl_ul_asymmetry() {
        // DDDSU with 10D:2G:2U: DL = (3·14 + 10)/70 ≈ 0.743,
        // UL = (14 + 2)/70 ≈ 0.229. This asymmetry is the §4.2 finding.
        let p = dddsu();
        assert!((p.dl_duty_cycle() - 52.0 / 70.0).abs() < 1e-12);
        assert!((p.ul_duty_cycle() - 16.0 / 70.0).abs() < 1e-12);
        assert!(p.dl_duty_cycle() > 3.0 * p.ul_duty_cycle());
    }

    #[test]
    fn duty_cycles_sum_below_one_for_tdd() {
        for p in [dddsu(), vodafone_italy()] {
            let sum = p.dl_duty_cycle() + p.ul_duty_cycle();
            assert!(sum < 1.0, "guard symbols must leave a gap, got {sum}");
        }
    }

    #[test]
    fn ul_alignment_much_worse_for_dl_heavy_10slot_pattern() {
        // The §4.3 latency root cause: V_It's DDDDDDDSUU forces longer waits
        // for a UL opportunity than V_Ge's DDDSU.
        let short = dddsu().mean_ul_alignment_slots();
        let long = vodafone_italy().mean_ul_alignment_slots();
        assert!(long > short, "V_It pattern must wait longer: {long} vs {short}");
    }

    #[test]
    fn slots_to_next_ul_wraps_around() {
        let p = dddsu();
        // Slot 4 is U; the next UL-carrying slot after it is the S slot at
        // index 3 of the next period → distance 4.
        assert_eq!(p.slots_to_next_ul(4), 4);
        // From slot 0 (D), the S slot at 3 carries UL symbols → distance 3.
        assert_eq!(p.slots_to_next_ul(0), 3);
    }

    #[test]
    fn fdd_pseudo_patterns() {
        assert_eq!(TddPattern::fdd_downlink().dl_duty_cycle(), 1.0);
        assert_eq!(TddPattern::fdd_uplink().ul_duty_cycle(), 1.0);
    }

    #[test]
    fn slot_type_periodicity() {
        let p = vodafone_italy();
        for i in 0..40u64 {
            assert_eq!(p.slot_type(i), p.slot_type(i + 10));
        }
    }
}
