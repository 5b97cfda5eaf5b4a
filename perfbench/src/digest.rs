//! Output digests: FNV-1a over the simulated values themselves (every
//! field, floats by bit pattern), never over encoded bytes, so a new
//! dataset format keeps its digests while a changed simulated number
//! does not.
//!
//! Reference digests for the default seed live in `reference.txt`, one
//! `<workload> <key> <hex digest>` line each, written by `--bless`.

use midband5g::experiments::video_qoe::StreamingRun;
use midband5g::measure::loadsweep::CellLoadPoint;
use midband5g::measure::session::WorkloadResult;
use midband5g::ran::kpi::KpiTrace;
use midband5g::video::QoeMetrics;
use std::collections::BTreeMap;

const REFERENCE: &str = include_str!("../reference.txt");

/// Path `--bless` rewrites.
pub const REFERENCE_PATH: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/reference.txt");

pub struct Fnv(u64);

impl Fnv {
    pub fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    pub fn u64(&mut self, v: u64) -> &mut Fnv {
        for b in v.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
        self
    }

    pub fn f64(&mut self, v: f64) -> &mut Fnv {
        self.u64(v.to_bits())
    }

    pub fn str(&mut self, s: &str) -> &mut Fnv {
        for b in s.bytes() {
            self.u64(u64::from(b));
        }
        self.u64(s.len() as u64)
    }

    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// Every record of a trace, every field.
pub fn trace(t: &KpiTrace) -> u64 {
    let mut h = Fnv::new();
    for r in t.iter() {
        h.u64(r.slot)
            .f64(r.time_s)
            .u64(u64::from(r.carrier))
            .u64(r.direction as u64)
            .u64(u64::from(r.scheduled))
            .u64(u64::from(r.n_prb))
            .u64(u64::from(r.n_re))
            .u64(u64::from(r.mcs))
            .u64(r.modulation as u64)
            .u64(u64::from(r.layers))
            .u64(u64::from(r.tbs_bits))
            .u64(u64::from(r.delivered_bits))
            .u64(u64::from(r.is_retx))
            .u64(u64::from(r.block_error))
            .u64(u64::from(r.cqi))
            .f64(r.sinr_db)
            .f64(r.rsrp_dbm)
            .f64(r.rsrq_db)
            .u64(u64::from(r.serving_site))
            .u64(u64::from(r.queue_bits))
            .f64(r.queue_delay_ms);
    }
    h.u64(t.len() as u64).finish()
}

pub fn load_point(p: &CellLoadPoint) -> u64 {
    Fnv::new()
        .u64(p.ues as u64)
        .f64(p.cell_dl_mbps)
        .f64(p.mean_ue_dl_mbps)
        .f64(p.min_ue_dl_mbps)
        .f64(p.max_ue_dl_mbps)
        .f64(p.jain_fairness)
        .u64(p.served_ues as u64)
        .f64(p.mean_prb_per_dl_slot)
        .finish()
}

fn qoe(h: &mut Fnv, q: &QoeMetrics) {
    h.f64(q.mean_level)
        .f64(q.normalized_bitrate)
        .f64(q.mean_bitrate_mbps)
        .f64(q.stall_s)
        .f64(q.stall_pct)
        .u64(q.switches as u64)
        .f64(q.level_variability)
        .f64(q.startup_s);
}

pub fn streaming_run(r: &StreamingRun) -> u64 {
    let mut h = Fnv::new();
    h.str(&r.operator).u64(r.seed).f64(r.mean_tput_mbps).f64(r.mcs_variability);
    h.f64(r.mimo_variability);
    qoe(&mut h, &r.qoe);
    h.finish()
}

/// Trace, workload counters and delay samples of one workload session.
pub fn workload(w: &WorkloadResult) -> u64 {
    let s = &w.outcome.stats;
    let mut h = Fnv::new();
    h.u64(trace(&w.result.trace))
        .u64(w.outcome.records)
        .u64(s.offered_bits)
        .u64(s.delivered_bits)
        .u64(s.lost_bits)
        .u64(s.completed_units)
        .f64(s.cwnd_bits);
    for &d in &w.outcome.delay_samples_ms {
        h.f64(d);
    }
    h.u64(w.outcome.delay_samples_ms.len() as u64).finish()
}

/// The committed reference digests of `workload`, by key.
pub fn reference(workload: &str) -> BTreeMap<String, u64> {
    REFERENCE
        .lines()
        .filter_map(|line| {
            let mut it = line.split_whitespace();
            let (w, key, hex) = (it.next()?, it.next()?, it.next()?);
            let value = u64::from_str_radix(hex, 16).ok()?;
            (w == workload).then(|| (key.to_string(), value))
        })
        .collect()
}

/// Replace `workload`'s lines in `reference.txt` with `digests`.
pub fn bless(workload: &str, digests: &[(String, u64)]) -> std::io::Result<()> {
    let current = std::fs::read_to_string(REFERENCE_PATH).unwrap_or_default();
    let mut lines: Vec<String> = current
        .lines()
        .filter(|l| l.split_whitespace().next() != Some(workload))
        .map(str::to_string)
        .collect();
    lines.extend(digests.iter().map(|(k, v)| format!("{workload} {k} {v:016x}")));
    lines.sort();
    std::fs::write(REFERENCE_PATH, lines.join("\n") + "\n")
}
