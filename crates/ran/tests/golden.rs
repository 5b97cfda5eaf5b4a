//! Golden digests of the slot engine's output.
//!
//! Each test hashes (FNV-1a 64) the dataset v2 JSON bytes
//! (`KpiTrace::write_json`) of one fixed run and compares the digest with
//! the value the code produced when the digest was recorded. The cases
//! cover the default full-buffer flow on a single [`Carrier`] and in a
//! contended [`CellSim`], plus constant-bitrate demand below, near and far
//! past the carrier's capacity. For CBR the queue KPI columns are zeroed
//! before hashing (the digest pins the radio behaviour, not the queue
//! telemetry) and the per-slot `backlog_bits()` sequence — the input of
//! the load-sweep figure's Little's-law delay — is hashed separately.
//!
//! A digest mismatch means the engine's output changed. If that change is
//! intended, say why in the commit and re-record the digest from the
//! failure message.

use radio_channel::channel::{ChannelConfig, ChannelSimulator};
use radio_channel::geometry::{DeploymentLayout, Position};
use radio_channel::link::LinkModel;
use radio_channel::mobility::MobilityModel;
use radio_channel::rng::SeedTree;
use ran::carrier::{Carrier, TrafficPattern};
use ran::cell::{CellParams, CellSim, UeSpec};
use ran::config::CellConfig;
use ran::kpi::KpiTrace;
use ran::queue::QueueConfig;
use ran::scheduler::SchedulerPolicy;
use ran::workload::Cbr;
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

fn carrier_at(pos: Position, seed: u64) -> Carrier {
    let seeds = SeedTree::new(seed);
    let cfg = CellConfig::midband(90, "DDDSU");
    let channel = ChannelSimulator::new(
        ChannelConfig::midband_urban(cfg.n_rb),
        DeploymentLayout::single_site(),
        MobilityModel::Stationary { position: pos },
        &seeds,
    );
    Carrier::new(cfg, 0, channel, LinkModel::midband_qam256(), &seeds)
}

#[test]
fn full_buffer_carrier_matches_golden_digest() {
    let pos = Position::new(95.0, 0.0);
    let mut carrier = carrier_at(pos, 90);
    let mut trace = KpiTrace::new();
    for _ in 0..8_000 {
        let out = carrier.step(pos, 0.0, TrafficPattern::BOTH, true, 1.0, 1.0);
        trace.push(out.dl);
        if let Some(ul) = out.ul {
            trace.push(ul);
        }
    }
    assert_digest("full-buffer carrier", digest(&[trace]), 0x6d28_4130_84d3_fbfe);
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
    let pos = Position::new(100.0, 0.0);
    let mut got = Vec::new();
    for (rate_mbps, ..) in CBR_GOLDEN {
        let mut carrier = carrier_at(pos, 92);
        carrier.set_dl_workload(Box::new(Cbr::new(rate_mbps)), QueueConfig::unbounded());
        let mut trace = KpiTrace::new();
        let mut backlog = Fnv::new();
        for _ in 0..20_000 {
            let mut dl = carrier.step(pos, 0.0, TrafficPattern::DL, false, 1.0, 1.0).dl;
            dl.queue_bits = 0;
            dl.queue_delay_ms = 0.0;
            trace.push(dl);
            let bits = carrier.dl_traffic().backlog_bits().to_bits().to_le_bytes();
            io::Write::write_all(&mut backlog, &bits).expect("hashing never fails");
        }
        got.push((rate_mbps, digest(&[trace]), backlog.0));
    }
    let shown: Vec<String> =
        got.iter().map(|(r, t, b)| format!("({r:.1}, {t:#018x}, {b:#018x})")).collect();
    assert_eq!(got, CBR_GOLDEN, "CBR digests (rate, trace, backlog): {}", shown.join(", "));
}
