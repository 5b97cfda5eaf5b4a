//! Golden digests of whole measurement sessions.
//!
//! Each case runs one 2 s session through `SessionResult::run_workload`
//! and hashes (FNV-1a 64) three outputs: the dataset v2 JSON bytes of the
//! trace (`KpiTrace::write_json`), the summed `WorkloadStats`, and the
//! delay samples. The sessions cover the shapes the paper measured:
//!
//! * T-Mobile US driving: four component carriers with mixed numerology
//!   (n41 at 30 kHz, n25 FDD at 15 kHz) and every UL slot on the LTE
//!   anchor (`LteOnly`);
//! * Verizon US walking: C-band aggregated with an FDD low-band carrier,
//!   and UL routed per slot between NR and the LTE anchor by the PCell's
//!   CQI (`NrAboveCqi`);
//! * Vodafone Spain stationary: a cwnd transport behind a CoDel queue;
//! * the Verizon walk again with real-time frames on both carriers, the
//!   one case whose delay samples are not empty.
//!
//! Each case also checks that its trace covers the edge cases it is here
//! for, so a digest cannot pass on a trace that lost them.
//!
//! A digest mismatch means the session engine's output changed. If that
//! change is intended, say why in the commit and re-record the digest from
//! the failure message.

use measure::session::{MobilityKind, SessionResult, SessionSpec, WorkloadResult};
use operators::Operator;
use ran::kpi::Direction;
use ran::lte::LTE_CARRIER_INDEX;
use ran::workload::{AqmSpec, WorkloadSpec};
use std::io::{self, Write};

/// FNV-1a 64 over everything written into it.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl io::Write for Fnv {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        for &b in buf {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
        Ok(buf.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

/// `(trace, workload stats, delay samples)` digests of one session.
fn digests(run: &WorkloadResult) -> (u64, u64, u64) {
    let mut trace = Fnv::new();
    run.result.trace.write_json(&mut trace).expect("hashing never fails");
    let s = &run.outcome.stats;
    let mut stats = Fnv::new();
    for word in [
        s.offered_bits,
        s.delivered_bits,
        s.lost_bits,
        s.completed_units,
        s.cwnd_bits.to_bits(),
        run.outcome.records,
    ] {
        stats.write_all(&word.to_le_bytes()).expect("hashing never fails");
    }
    let mut delays = Fnv::new();
    for d in &run.outcome.delay_samples_ms {
        delays.write_all(&d.to_bits().to_le_bytes()).expect("hashing never fails");
    }
    (trace.0, stats.0, delays.0)
}

/// FNV-1a 64 of no bytes: the delay digest of a workload without frames.
const EMPTY: u64 = 0xcbf2_9ce4_8422_2325;

fn session(operator: Operator, mobility: MobilityKind, seed: u64) -> SessionSpec {
    SessionSpec { operator, mobility, dl: true, ul: true, duration_s: 2.0, seed }
}

fn assert_digests(case: &str, got: (u64, u64, u64), want: (u64, u64, u64)) {
    assert_eq!(
        got, want,
        "{case}: digests (trace, stats, delays) ({:#018x}, {:#018x}, {:#018x})",
        got.0, got.1, got.2
    );
}

#[test]
fn tmobile_driving_mixed_numerology_ca_matches_golden_digests() {
    let spec = session(Operator::TMobileUs, MobilityKind::Driving, 71);
    let run = SessionResult::run_workload(spec, &WorkloadSpec::FullBuffer);
    let trace = &run.result.trace;
    for cc in 0..4u8 {
        assert!(trace.iter().any(|r| r.carrier == cc), "no records on carrier {cc}");
    }
    // n41 steps every 0.5 ms tick, the 15 kHz n25 legs every second one.
    let dl_records = |cc: u8| {
        trace.iter().filter(|r| r.carrier == cc && r.direction == Direction::Dl).count()
    };
    assert_eq!(dl_records(0), 2 * dl_records(2), "mixed numerology ticks");
    assert!(trace.iter().any(|r| r.carrier == LTE_CARRIER_INDEX), "LteOnly puts UL on LTE");
    assert!(
        trace
            .iter()
            .all(|r| r.direction == Direction::Dl || r.carrier == LTE_CARRIER_INDEX || !r.scheduled),
        "no NR UL grant under LteOnly"
    );
    assert_digests(
        "T-Mobile US driving",
        digests(&run),
        (0x4f5a_2ad9_efdc_c2cd, 0xad61_7e98_0583_e8e3, EMPTY),
    );
}

#[test]
fn verizon_walking_nsa_routing_matches_golden_digests() {
    // Seed 14's walk crosses the CQI threshold often enough to put a
    // quarter of the UL slots on LTE.
    let spec = session(Operator::VerizonUs, MobilityKind::Walking, 14);
    let run = SessionResult::run_workload(spec, &WorkloadSpec::FullBuffer);
    let trace = &run.result.trace;
    assert!(trace.iter().any(|r| r.carrier == 1), "no records on the low-band carrier");
    assert!(
        trace.iter().any(|r| r.carrier == 0 && r.direction == Direction::Ul && r.scheduled),
        "UL never routed to NR"
    );
    assert!(trace.iter().any(|r| r.carrier == LTE_CARRIER_INDEX), "UL never routed to LTE");
    assert_digests(
        "Verizon US walking",
        digests(&run),
        (0x4cce_ae7c_b21e_2342, 0x552b_cd26_eae9_a1cc, EMPTY),
    );
}

#[test]
fn vodafone_cwnd_behind_codel_matches_golden_digests() {
    let spec = session(Operator::VodafoneSpain, MobilityKind::Stationary { spot: 0 }, 73);
    let workload = WorkloadSpec::Cwnd { aqm: AqmSpec::CoDel { limit_kbit: 4_000 } };
    let run = SessionResult::run_workload(spec, &workload);
    assert!(run.outcome.stats.delivered_bits > 0, "transport delivered nothing");
    assert!(run.result.trace.iter().any(|r| r.queue_bits > 0), "queue never filled");
    assert_digests(
        "Vodafone Spain cwnd + CoDel",
        digests(&run),
        (0x6ca1_78d1_78e8_6007, 0x8826_fb04_0e7f_45f3, EMPTY),
    );
}

#[test]
fn verizon_rtc_frames_on_aggregated_carriers_match_golden_digests() {
    let spec = session(Operator::VerizonUs, MobilityKind::Walking, 14);
    let workload =
        WorkloadSpec::Rtc { rate_mbps: 20.0, fps: 30.0, aqm: AqmSpec::CoDel { limit_kbit: 4_000 } };
    let run = SessionResult::run_workload(spec, &workload);
    assert!(run.outcome.stats.completed_units > 0, "no frame completed");
    assert!(!run.outcome.delay_samples_ms.is_empty(), "no frame delay sampled");
    assert_digests(
        "Verizon US walking RTC",
        digests(&run),
        (0x4e6a_991e_822a_176a, 0x525c_f974_1c36_1c58, 0x5743_ce1c_5260_0551),
    );
}
