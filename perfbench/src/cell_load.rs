//! `cell_load`: the top point of `CellLoadSweep::paper_default` — 10 240
//! full-buffer UEs under proportional fair on a 90 MHz carrier, one
//! thread. All of the work is in `ran::cell`: no disk, no serde, no
//! executor.
//!
//! Set-up builds the point's `CellSim` exactly as `run_point` does, so
//! that `CellSim::new` falls in `setup_s`; the timed part steps it through
//! the point's slots into [`LoadStats`], which mirrors the load sweep's
//! own reduction to the same `CellLoadPoint`, [`PASSES`] times. `--bless`
//! checks the mirror against `run_point` before writing the reference
//! digest.

use crate::trace::{ObsTotals, Tracer};
use crate::{audited, digest, median, setups, Args, Expected, Report};
use midband5g::measure::loadsweep::{CellLoadPoint, CellLoadSweep, SPOT_DISTANCES_M};
use midband5g::radio_channel::rng::SeedTree;
use midband5g::ran::cell::{CellParams, CellSim, CellSink, UeSpec};
use midband5g::ran::kpi::{Direction, SlotKpi};
use std::io;
use std::time::{Duration, Instant};

/// Slot cost follows a 160-slot cycle: the channel lookahead refills every
/// UE's batch once per 32 slots, and the TDD pattern repeats every 5. A
/// phase of this cycle is one timing item (25 repeats per point), and
/// windows of one cycle alternate untraced and traced with `--trace 1`.
const CYCLE: u64 = 160;

/// In traced windows, every `SAMPLE_EVERY`-th slot buffers its records
/// and replays them into the sink under a timer (a prime stride, so the
/// samples cover every phase of the refill and TDD cycles).
const SAMPLE_EVERY: u64 = 37;

/// Times the load point runs per benchmark run; each phase of [`CYCLE`]
/// then has `PASSES × 25` repeats to take its fastest from.
const PASSES: usize = 2;

/// Slots stepped under the invariant audit after the point.
const AUDIT_SLOTS: u64 = 64;

/// UEs and slots of the warm-up cell.
const WARM_UES: usize = 64;
const WARM_SLOTS: u64 = 64;

/// Mirror of the load sweep's per-UE reduction: O(1) per record.
struct LoadStats {
    dl_bits: Vec<u64>,
    dl_scheduled: Vec<u64>,
    dl_prb: u64,
    dl_records: u64,
    records: u64,
}

impl LoadStats {
    fn new(n_ues: usize) -> LoadStats {
        LoadStats {
            dl_bits: vec![0; n_ues],
            dl_scheduled: vec![0; n_ues],
            dl_prb: 0,
            dl_records: 0,
            records: 0,
        }
    }

    fn into_point(self, n_ues: usize, duration_s: f64) -> CellLoadPoint {
        let per_ue_mbps: Vec<f64> =
            self.dl_bits.iter().map(|&b| b as f64 / duration_s / 1e6).collect();
        let cell = per_ue_mbps.iter().sum::<f64>();
        let min = per_ue_mbps.iter().copied().fold(f64::INFINITY, f64::min);
        let max = per_ue_mbps.iter().copied().fold(0.0f64, f64::max);
        CellLoadPoint {
            ues: n_ues,
            cell_dl_mbps: cell,
            mean_ue_dl_mbps: cell / n_ues as f64,
            min_ue_dl_mbps: if min.is_finite() { min } else { 0.0 },
            max_ue_dl_mbps: max,
            jain_fairness: midband5g::analysis::jain_fairness(&per_ue_mbps),
            served_ues: self.dl_scheduled.iter().filter(|&&n| n > 0).count(),
            mean_prb_per_dl_slot: self.dl_prb as f64 / self.dl_records.max(1) as f64,
        }
    }
}

impl CellSink for LoadStats {
    fn push(&mut self, ue: u32, kpi: &SlotKpi) {
        self.records += 1;
        if kpi.direction == Direction::Dl {
            let ue = ue as usize;
            self.dl_bits[ue] += u64::from(kpi.delivered_bits);
            if kpi.scheduled {
                self.dl_scheduled[ue] += 1;
                self.dl_prb += u64::from(kpi.n_prb);
            }
            self.dl_records += 1;
        }
    }
}

/// Buffers one slot's records so they can be replayed under a timer.
struct Buffer(Vec<(u32, SlotKpi)>);

impl CellSink for Buffer {
    fn push(&mut self, ue: u32, kpi: &SlotKpi) {
        self.0.push((ue, *kpi));
    }
}

struct Point {
    sweep: CellLoadSweep,
    index: usize,
    n_ues: usize,
    params: CellParams,
    ues: Vec<UeSpec>,
}

impl Point {
    fn top(seed: u64) -> Point {
        let sweep = CellLoadSweep::paper_default(seed);
        let index = sweep.ue_counts.len() - 1;
        let n_ues = sweep.ue_counts[index];
        let params = CellParams::midband(sweep.bandwidth_mhz, sweep.policy);
        let ues = (0..n_ues)
            .map(|i| UeSpec::at(SPOT_DISTANCES_M[i % SPOT_DISTANCES_M.len()], 0.0))
            .collect();
        Point { sweep, index, n_ues, params, ues }
    }

    fn sim(&self) -> CellSim {
        let seeds = SeedTree::new(self.sweep.base_seed).child_indexed("load", self.index as u64);
        CellSim::new(self.params.clone(), &self.ues, &seeds)
    }

    fn duration_s(&self) -> f64 {
        self.sweep.slots as f64 * self.params.cell.slot_s()
    }
}

/// Per-slot timings of the traced windows.
#[derive(Default)]
struct SlotTimes {
    /// Steps with the sink inside, seconds.
    steps: Vec<f64>,
    /// Sampled steps into the buffer, and the sink's replay of them.
    sampled_steps: Vec<f64>,
    replays: Vec<f64>,
    buffer: Vec<(u32, SlotKpi)>,
}

/// Step `sim` through the point's slots into `stats`, one timing item per
/// phase of [`CYCLE`]; with a tracer, every other window is traced.
fn run_point(
    sim: &mut CellSim,
    point: &Point,
    stats: &mut LoadStats,
    report: &mut Report,
    mut tracer: Option<&mut Tracer>,
    times: &mut SlotTimes,
    obs: &mut ObsTotals,
) {
    for w in 0..point.sweep.slots.div_ceil(CYCLE) {
        let traced = tracer.is_some() && w % 2 == 1;
        let before = traced.then(ObsTotals::capture);
        let (mut window_records, mut window_secs) = (0, 0.0);
        for _ in 0..CYCLE.min(point.sweep.slots - w * CYCLE) {
            let slot = sim.slot();
            let records_before = stats.records;
            let secs = if traced && slot % SAMPLE_EVERY == 0 {
                let mut buffer = Buffer(std::mem::take(&mut times.buffer));
                buffer.0.clear();
                let s = Instant::now();
                sim.step_into(&mut buffer);
                let step = s.elapsed().as_secs_f64();
                let r = Instant::now();
                for (ue, kpi) in &buffer.0 {
                    stats.push(*ue, kpi);
                }
                let replay = r.elapsed().as_secs_f64();
                times.buffer = buffer.0;
                times.sampled_steps.push(step);
                times.replays.push(replay);
                step + replay
            } else {
                let s = Instant::now();
                sim.step_into(stats);
                let step = s.elapsed().as_secs_f64();
                if traced {
                    times.steps.push(step);
                }
                step
            };
            let records = stats.records - records_before;
            let rates = if traced { &mut report.traced } else { &mut report.rates };
            rates.item((slot % CYCLE) as usize, records, secs);
            window_records += records;
            window_secs += secs;
        }
        let rates = if traced { &mut report.traced } else { &mut report.rates };
        rates.ops.push(window_records as f64 / window_secs);
        if let (Some(tr), Some(before)) = (tracer.as_deref_mut(), before) {
            obs.accumulate(&before, &ObsTotals::capture());
            tr.wall_s += window_secs;
        }
    }
}

pub fn run(args: &Args) -> io::Result<Report> {
    let mut report = Report::default();
    let point = Point::top(args.seed);
    let mut first = Some(setups(&mut report, || {
        // Warm-up on a small cell of the same configuration fills the
        // lazily built tables (TBS memo, allocation tables, SIMD dispatch).
        let warm = &point.ues[..WARM_UES];
        let mut small = CellSim::new(point.params.clone(), warm, &SeedTree::new(args.seed ^ 1));
        small.run_into(WARM_SLOTS, &mut LoadStats::new(WARM_UES));
        Ok(point.sim())
    })?);

    let mut expected = Expected::new(args);
    let mut tracer = args.trace.then(Tracer::new);
    let mut obs = ObsTotals::default();
    let mut times = SlotTimes::default();
    let mut points = Vec::new();
    let mut violations = 0;
    for pass in 0..PASSES {
        // Every pass after the first rebuilds the cell (untimed) once the
        // previous one is gone, so only one cell is ever resident.
        let mut sim = first.take().unwrap_or_else(|| point.sim());
        let mut stats = LoadStats::new(point.n_ues);
        run_point(&mut sim, &point, &mut stats, &mut report, tracer.as_mut(), &mut times, &mut obs);
        if pass + 1 == PASSES {
            report.peak_rss_mb = crate::peak_rss_mb();
            let ((), v) = audited(|| sim.run_into(AUDIT_SLOTS, &mut LoadStats::new(point.n_ues)));
            violations = v;
        }
        points.push((stats.records, stats.into_point(point.n_ues, point.duration_s())));
    }

    for (_, got) in &points {
        let sane = got.served_ues <= got.ues
            && got.cell_dl_mbps.is_finite()
            && got.cell_dl_mbps > 0.0
            && got.jain_fairness > 0.0
            && got.jain_fairness <= 1.0;
        report.op(sane && expected.check("point", digest::load_point(got)));
    }
    report.op(violations == 0);
    let (records, got) = &points[0];
    report.notes.push(format!("point: {got:?}"));
    report.notes.push(format!(
        "{records} UE-slot records over {} slots x {} UEs, {PASSES} passes; audit violations over \
         {AUDIT_SLOTS} more slots: {violations}",
        point.sweep.slots, point.n_ues
    ));
    if args.bless {
        let reference = point.sweep.run_point(point.index, point.n_ues);
        if digest::load_point(&reference) != digest::load_point(got) {
            return Err(io::Error::other(format!(
                "the benchmark's reduction {got:?} differs from run_point {reference:?}"
            )));
        }
    }

    if let Some(tr) = tracer.as_mut() {
        let SlotTimes { steps, sampled_steps, replays, .. } = times;
        let step_total: f64 = steps.iter().sum();
        let per_step = step_total / steps.len() as f64;
        let per_replay = replays.iter().sum::<f64>() / replays.len() as f64;
        let sink_share = per_replay / per_step;
        let pct = |q: f64| {
            let mut v = steps.clone();
            v.sort_by(f64::total_cmp);
            v[((v.len() - 1) as f64 * q).round() as usize] * 1e6
        };
        report.layers.insert("cell.ns_per_ue_step", per_step * 1e9 / point.n_ues as f64);
        report.layers.insert("cell.step_us_p50", pct(0.5));
        report.layers.insert("cell.step_us_p99", pct(0.99));
        report.layers.insert("cell.sink_share", sink_share);
        report.notes.push(format!(
            "traced slots: {} timed steps (median {:.1} us), {} sampled slots (step without sink \
             median {:.1} us, sink replay median {:.1} us)",
            steps.len(),
            median(&steps) * 1e6,
            sampled_steps.len(),
            median(&sampled_steps) * 1e6,
            median(&replays) * 1e6
        ));
        // Split each timed step into the sink's estimated share and the
        // engine's remainder; the sampled slots are split as measured.
        tr.record("cell.step", Duration::from_secs_f64(step_total * (1.0 - sink_share)));
        tr.record("cell.sink", Duration::from_secs_f64(step_total * sink_share));
        tr.record("cell.step", Duration::from_secs_f64(sampled_steps.iter().sum()));
        tr.record("cell.sink", Duration::from_secs_f64(replays.iter().sum()));
        report.trace_totals(tr, &obs);
    }
    report.digests = expected.seen();
    Ok(report)
}
