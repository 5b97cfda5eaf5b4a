//! Golden digests of the slot engine's output.
//!
//! Each test hashes (FNV-1a 64) the dataset v2 JSON bytes
//! (`KpiTrace::write_json`) of one fixed run and compares the digest with
//! the value the code produced when the digest was recorded. Every digest
//! was recorded on the single-UE carrier engine (and the fractional-share
//! multi-UE driver built from it) that [`CellSim`] replaced, so these
//! tests pin the one engine to the behaviour of both:
//!
//! * the full-buffer flow for a lone UE and in a five-UE contended cell;
//! * the one-UE reference of `cell_props`, reproduced under every
//!   scheduling policy;
//! * every contended two-to-four-UE case whose equal shares land on whole
//!   PRBs (one digest per UE);
//! * a cwnd transport granted a quarter of the carrier (the rest reserved
//!   for other users) behind CoDel and behind a deep FIFO;
//! * constant-bitrate demand below, near and far past the carrier's
//!   capacity. For CBR the queue KPI columns are zeroed before hashing
//!   (the digest pins the radio behaviour, not the queue telemetry) and
//!   the per-slot `backlog_bits()` sequence — the input of the load-sweep
//!   figure's Little's-law delay — is hashed separately.
//!
//! A digest mismatch means the engine's output changed. If that change is
//! intended, say why in the commit and re-record the digest from the
//! failure message.

use radio_channel::geometry::Position;
use radio_channel::mobility::MobilityModel;
use radio_channel::rng::SeedTree;
use ran::cell::{CellParams, CellSim, CellSink, TrafficPattern, UeSpec};
use ran::kpi::{Direction, KpiTrace, SlotKpi};
use ran::queue::QueueConfig;
use ran::scheduler::SchedulerPolicy;
use ran::workload::{AqmSpec, Cbr, WorkloadSpec};
use std::io;

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

fn digest(traces: &[KpiTrace]) -> u64 {
    let mut h = Fnv::new();
    for t in traces {
        t.write_json(&mut h).expect("hashing never fails");
    }
    h.0
}

fn assert_digest(case: &str, got: u64, want: u64) {
    assert_eq!(got, want, "{case}: digest {got:#018x}, recorded {want:#018x}");
}

/// A lone UE `distance` metres from a 90 MHz site, drawing its streams
/// from `SeedTree::new(seed)` as given.
fn lone_ue(distance: f64, seed: u64, params: CellParams) -> CellSim {
    let spot = MobilityModel::Stationary { position: Position::new(distance, 0.0) };
    CellSim::single(params, spot, &SeedTree::new(seed))
}

fn midband_90(traffic: TrafficPattern) -> CellParams {
    CellParams { traffic, ..CellParams::midband(90, SchedulerPolicy::ProportionalFair) }
}

/// Keeps the DL records only.
#[derive(Default)]
struct DlTrace(KpiTrace);

impl CellSink for DlTrace {
    fn push(&mut self, _ue: u32, kpi: &SlotKpi) {
        if kpi.direction == Direction::Dl {
            self.0.push(*kpi);
        }
    }
}

#[test]
fn full_buffer_carrier_matches_golden_digest() {
    let mut ue = lone_ue(95.0, 90, midband_90(TrafficPattern::BOTH));
    assert_digest("full-buffer carrier", digest(&ue.run(8_000)), 0x6d28_4130_84d3_fbfe);
}

#[test]
fn full_buffer_cell_matches_golden_digest() {
    let ues: Vec<UeSpec> =
        [45.0, 65.0, 85.0, 105.0, 125.0].iter().map(|&d| UeSpec::at(d, 0.0)).collect();
    let mut sim = CellSim::new(
        CellParams::midband(60, SchedulerPolicy::ProportionalFair),
        &ues,
        &SeedTree::new(91),
    );
    assert_digest("5-UE proportional-fair cell", digest(&sim.run(6_000)), 0x5c7e_d75d_44e8_d33e);
}

/// `(rate Mbps, trace digest, backlog digest)` for the CBR cases.
const CBR_GOLDEN: [(f64, u64, u64); 4] = [
    (50.0, 0x89d8_1f67_4874_d88c, 0xd10e_9afd_d198_518d),
    (400.0, 0x772e_044d_a2c1_6522, 0x8bde_1511_8c01_d3a0),
    (600.0, 0x636e_d960_ce80_212e, 0x3ea4_5b30_de5e_f6a7),
    (2000.0, 0x636e_d960_ce80_212e, 0xb2d6_c548_c6be_e334),
];

#[test]
fn cbr_carrier_matches_golden_digests() {
    let mut got = Vec::new();
    for (rate_mbps, ..) in CBR_GOLDEN {
        let mut ue = lone_ue(100.0, 92, midband_90(TrafficPattern::DL));
        ue.set_dl_workload(0, Box::new(Cbr::new(rate_mbps)), QueueConfig::unbounded());
        let mut records = DlTrace::default();
        let mut backlog = Fnv::new();
        for _ in 0..20_000 {
            ue.step_into(&mut records);
            let bits = ue.dl_flow(0).backlog_bits().to_bits().to_le_bytes();
            io::Write::write_all(&mut backlog, &bits).expect("hashing never fails");
        }
        let mut trace = KpiTrace::new();
        for mut dl in records.0.iter() {
            dl.queue_bits = 0;
            dl.queue_delay_ms = 0.0;
            trace.push(dl);
        }
        got.push((rate_mbps, digest(&[trace]), backlog.0));
    }
    let shown: Vec<String> =
        got.iter().map(|(r, t, b)| format!("({r:.1}, {t:#018x}, {b:#018x})")).collect();
    assert_eq!(got, CBR_GOLDEN, "CBR digests (rate, trace, backlog): {}", shown.join(", "));
}

#[test]
fn one_ue_cell_replays_the_reference_carrier_under_every_policy() {
    // The `cell_props` N=1 reference: the single-UE carrier built from the
    // "ue"/0 subtree `CellSim::new` derives, saturating both directions at
    // 95 m. With one UE every policy grants the whole budget.
    for policy in [
        SchedulerPolicy::EqualShare,
        SchedulerPolicy::RoundRobinSlots,
        SchedulerPolicy::MaxCqi,
        SchedulerPolicy::ProportionalFair,
    ] {
        let params = CellParams { policy, ..midband_90(TrafficPattern::BOTH) };
        let ue = UeSpec::at(95.0, 0.0);
        let traces = CellSim::new(params, &[ue], &SeedTree::new(63)).run(8_000);
        assert_digest(&format!("one-UE cell, {policy:?}"), digest(&traces), 0xb0f3_bab3_0281_a8b1);
    }
}

/// The `cell_props` contended cases whose equal shares land on whole
/// PRBs (60 MHz = 162 RBs), with one digest per UE.
const CONTENDED_GOLDEN: [(&[f64], SchedulerPolicy, &[u64]); 8] = [
    (&[45.0, 117.0], SchedulerPolicy::EqualShare, &[0xc262_b6a2_fc0d_fc18, 0x47ca_ad3f_ad4c_5db2]),
    (&[45.0, 95.0, 135.0], SchedulerPolicy::EqualShare, &[
        0x4e1e_eac8_29cd_50fe,
        0xdd9b_777e_b854_00e0,
        0xcb80_9f5a_5d5e_35cb,
    ]),
    (&[45.0, 117.0], SchedulerPolicy::ProportionalFair, &[0x8e7f_5d3e_fbbf_f2dc, 0xd702_08b9_4d85_5a03]),
    (&[45.0, 95.0, 135.0], SchedulerPolicy::ProportionalFair, &[
        0x34f1_ac65_97fd_b2c7,
        0x1d59_4a32_4022_ced9,
        0x777a_3c1d_ab82_522b,
    ]),
    (&[45.0, 70.0, 95.0, 117.0], SchedulerPolicy::ProportionalFair, &[
        0xf275_3b11_319d_d166,
        0x3b1c_a96a_1d6a_6008,
        0xcaba_3181_a337_2017,
        0xca85_afbb_7b4f_7826,
    ]),
    (&[45.0, 117.0], SchedulerPolicy::RoundRobinSlots, &[0x0dbf_5efa_6d77_2ec1, 0x7c92_9cbd_3096_2a3e]),
    (&[45.0, 70.0, 95.0, 117.0], SchedulerPolicy::RoundRobinSlots, &[
        0x8377_e032_928b_7953,
        0x223b_3e30_5639_582d,
        0x6079_ae74_417c_54cf,
        0x5869_190a_f7fa_481d,
    ]),
    (&[45.0, 95.0, 135.0], SchedulerPolicy::MaxCqi, &[
        0x526f_b86b_1ebf_906b,
        0x3418_643b_8a0e_8782,
        0x92fc_840d_db2d_8a3e,
    ]),
];

#[test]
fn contended_cells_match_golden_digests() {
    let mut got = Vec::new();
    for (distances, policy, _) in CONTENDED_GOLDEN {
        let ues: Vec<UeSpec> = distances.iter().map(|&d| UeSpec::at(d, 0.0)).collect();
        let mut sim = CellSim::new(CellParams::midband(60, policy), &ues, &SeedTree::new(64));
        let per_ue: Vec<u64> = sim.run(6_000).iter().map(|t| digest(std::slice::from_ref(t))).collect();
        got.push(per_ue);
    }
    let want: Vec<Vec<u64>> = CONTENDED_GOLDEN.iter().map(|(_, _, d)| d.to_vec()).collect();
    let shown: Vec<String> = got
        .iter()
        .map(|d| format!("[{}]", d.iter().map(|x| format!("{x:#018x}")).collect::<Vec<_>>().join(", ")))
        .collect();
    assert_eq!(got, want, "contended per-UE digests: {}", shown.join(", "));
}

/// `(queue discipline, trace digest)` for a cwnd transport granted a
/// quarter of a 90 MHz carrier: 61 of its 245 DL PRBs, the rest reserved
/// for other users.
const LOADED_CWND_GOLDEN: [(AqmSpec, u64); 2] = [
    (AqmSpec::CoDel { limit_kbit: 4_000 }, 0xee0f_b7d9_7147_5a99),
    (AqmSpec::DeepFifo, 0xe6f8_74cb_7f68_7658),
];

#[test]
fn cwnd_on_a_loaded_carrier_matches_golden_digests() {
    let mut got = Vec::new();
    for (aqm, _) in LOADED_CWND_GOLDEN {
        let params = CellParams { reserved_dl_prbs: 245 - 61, ..midband_90(TrafficPattern::DL) };
        let mut ue = lone_ue(100.0, 93, params);
        let (workload, queue) = WorkloadSpec::Cwnd { aqm }.build();
        ue.set_dl_workload(0, workload, queue);
        let mut trace = DlTrace::default();
        ue.run_into(20_000, &mut trace);
        got.push((aqm, digest(&[trace.0])));
    }
    let shown: Vec<String> = got.iter().map(|(a, t)| format!("({a:?}, {t:#018x})")).collect();
    assert_eq!(got, LOADED_CWND_GOLDEN, "loaded cwnd digests: {}", shown.join(", "));
}
