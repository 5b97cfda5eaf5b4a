//! `qoe`: the single-UE application path of §6–7 — DASH streams over
//! simulated channels (`experiments::video_qoe::stream_over`) and
//! congestion-window / RTC transports behind a CoDel gNB queue
//! (`SessionResult::run_workload`). One thread.
//!
//! Traced operations replay `stream_over` step by step (session, then
//! player and QoE, then the PHY variability statistics) so that each
//! layer gets its own span; the replay must produce the same
//! `StreamingRun` digests as `stream_over` itself.

use crate::trace::{time, ObsTotals, Tracer};
use crate::{audited, digest, median, setups, timed_loop, Args, Expected, Report};
use midband5g::analysis::variability::variability;
use midband5g::experiments::bandwidth_trace;
use midband5g::experiments::video_qoe::{stream_over, StreamingRun};
use midband5g::measure::session::{MobilityKind, SessionResult, SessionSpec, WorkloadResult};
use midband5g::operators::Operator;
use midband5g::radio_channel::channel::ChannelSimulator;
use midband5g::ran::kpi::Direction;
use midband5g::ran::workload::{AqmSpec, WorkloadSpec};
use midband5g::video::{AbrKind, PlayerConfig, PlayerSim, QoeMetrics, QualityLadder};
use std::hint::black_box;
use std::io;
use std::time::Instant;

const STREAM_OPERATORS: [Operator; 4] = [
    Operator::VodafoneSpain,
    Operator::OrangeSpain100,
    Operator::TMobileUs,
    Operator::VodafoneItaly,
];
const ABRS: [AbrKind; 3] = [AbrKind::Bola, AbrKind::Throughput, AbrKind::Dynamic];
const WORKLOAD_OPERATORS: [Operator; 2] = [Operator::VodafoneSpain, Operator::TMobileUs];

/// Simulated seconds per video stream and per transport session.
const STREAM_S: f64 = 20.0;
const WORKLOAD_S: f64 = 10.0;

/// Simulated seconds per warm-up stream and transport session.
const WARM_S: f64 = 1.0;

/// Slots per isolated channel drive, and drives per traced run.
const CHANNEL_SLOTS: u32 = 200_000;
const CHANNEL_DRIVES: usize = 5;

fn transports() -> [WorkloadSpec; 2] {
    [
        WorkloadSpec::Cwnd { aqm: AqmSpec::CoDel { limit_kbit: 4_000 } },
        WorkloadSpec::Rtc { rate_mbps: 8.0, fps: 60.0, aqm: AqmSpec::CoDel { limit_kbit: 2_000 } },
    ]
}

struct Inputs {
    ladder: QualityLadder,
    streams: Vec<(SessionSpec, AbrKind)>,
    transports: Vec<(SessionSpec, WorkloadSpec)>,
}

impl Inputs {
    /// The seed picks every session's seed and study spot.
    fn new(seed: u64, duration_scale: f64) -> Inputs {
        let spec = |i: usize, operator: Operator, duration_s: f64| SessionSpec {
            operator,
            mobility: MobilityKind::Stationary { spot: (seed as usize).wrapping_add(i) % 3 },
            dl: true,
            ul: false,
            duration_s: duration_s * duration_scale,
            seed: seed.wrapping_mul(100).wrapping_add(i as u64),
        };
        let streams = STREAM_OPERATORS
            .iter()
            .flat_map(|&op| ABRS.map(|abr| (op, abr)))
            .enumerate()
            .map(|(i, (op, abr))| (spec(i, op, STREAM_S), abr))
            .collect();
        let transports = WORKLOAD_OPERATORS
            .iter()
            .flat_map(|&op| transports().map(|wl| (op, wl)))
            .enumerate()
            .map(|(i, (op, wl))| (spec(50 + i, op, WORKLOAD_S), wl))
            .collect();
        Inputs { ladder: QualityLadder::paper_midband(), streams, transports }
    }

    fn stream(&self, spec: &SessionSpec, abr: AbrKind) -> StreamingRun {
        let (run, _) = stream_over(
            spec.operator,
            &self.ladder,
            abr,
            spec.mobility,
            spec.duration_s,
            spec.seed,
        );
        run
    }

    /// `stream_over`, one span per layer.
    fn traced_stream(&self, spec: &SessionSpec, abr: AbrKind, t: &Tracer) -> StreamingRun {
        let tr = Some(t);
        let session = time(tr, "session.run", None, || SessionResult::run(*spec));
        let qoe = time(tr, "video", None, || {
            let bw = bandwidth_trace(&session.trace, 0.05);
            let mut algo = abr.build();
            let log = PlayerSim::new(self.ladder.clone(), PlayerConfig::default(), &bw)
                .play(algo.as_mut());
            QoeMetrics::from_log(&log, &self.ladder)
        });
        t.count("session.records", session.trace.len() as u64);
        t.count("streams", 1);
        time(tr, "analysis", None, || {
            let scheduled: Vec<_> = session
                .trace
                .iter()
                .filter(|r| r.carrier == 0 && r.direction == Direction::Dl && r.scheduled)
                .collect();
            let mcs: Vec<f64> = scheduled.iter().map(|r| f64::from(r.mcs)).collect();
            let layers: Vec<f64> = scheduled.iter().map(|r| f64::from(r.layers)).collect();
            let block = 300;
            StreamingRun {
                operator: spec.operator.acronym().to_string(),
                seed: spec.seed,
                mean_tput_mbps: session.trace.mean_throughput_mbps(Direction::Dl),
                mcs_variability: variability(&mcs, block).unwrap_or(0.0),
                mimo_variability: variability(&layers, block).unwrap_or(0.0),
                qoe,
            }
        })
    }

    /// Every stream and transport session once, with each one's records
    /// (the session engine's own `session.records` count) and host seconds.
    fn pass(&self, tracer: Option<&Tracer>) -> (Pass, Vec<(u64, f64)>) {
        let session_records = midband5g::obs::registry().counter("session.records");
        let mut items = Vec::new();
        let mut timed = |f: &mut dyn FnMut()| {
            let before = session_records.get();
            let t = Instant::now();
            f();
            items.push((session_records.get() - before, t.elapsed().as_secs_f64()));
        };
        let mut runs = Vec::new();
        for (spec, abr) in &self.streams {
            timed(&mut || {
                runs.push(match tracer {
                    Some(t) => self.traced_stream(spec, *abr, t),
                    None => self.stream(spec, *abr),
                })
            });
        }
        let mut transports = Vec::new();
        for (spec, wl) in &self.transports {
            timed(&mut || {
                let result =
                    time(tracer, "workload.run", None, || SessionResult::run_workload(*spec, wl));
                if let Some(t) = tracer {
                    t.count("workload.records", result.result.trace.len() as u64);
                }
                transports.push(result);
            });
        }
        ((runs, transports), items)
    }
}

type Pass = (Vec<StreamingRun>, Vec<WorkloadResult>);

/// Per stream and transport session of a pass: key, output digest, and
/// whether its outputs are within their physical ranges.
fn check_pass((runs, transports): &Pass) -> Vec<(String, u64, bool)> {
    let streams = runs.iter().enumerate().map(|(i, run)| {
        let q = &run.qoe;
        let sane = q.normalized_bitrate > 0.0
            && q.normalized_bitrate <= 1.0
            && (0.0..=100.0).contains(&q.stall_pct);
        (format!("stream.{i:02}"), digest::streaming_run(run), sane)
    });
    let transports = transports.iter().enumerate().map(|(i, result)| {
        let s = &result.outcome.stats;
        let sane = s.delivered_bits > 0 && s.delivered_bits <= s.offered_bits;
        (format!("transport.{i}"), digest::workload(result), sane)
    });
    streams.chain(transports).collect()
}

/// ns per slot of the public `ChannelSimulator::step`, driven on its own
/// with the first stream's channel configuration — an isolated drive,
/// not a share of the workload's wall time.
fn channel_ns_per_slot(spec: &SessionSpec) -> f64 {
    let profile = spec.operator.profile();
    let drives: Vec<f64> = (0..CHANNEL_DRIVES)
        .map(|_| {
            let mut channel = ChannelSimulator::new(
                profile.channel_config(&profile.carriers[0]),
                profile.coverage.layout.clone(),
                spec.mobility_model(),
                &spec.seeds().child_indexed("cc", 0),
            );
            let t = Instant::now();
            for _ in 0..CHANNEL_SLOTS {
                black_box(channel.step());
            }
            t.elapsed().as_secs_f64() * 1e9 / f64::from(CHANNEL_SLOTS)
        })
        .collect();
    median(&drives)
}

pub fn run(args: &Args) -> io::Result<Report> {
    let mut report = Report::default();
    let inputs = setups(&mut report, || {
        // Short copies of every stream and transport fill the operator
        // profiles, channel lookahead, TBS memos and ABR state.
        Inputs::new(args.seed, WARM_S / STREAM_S).pass(None);
        Ok(Inputs::new(args.seed, 1.0))
    })?;
    let mut expected = Expected::new(args);
    let mut tracer = args.trace.then(Tracer::new);
    let mut obs = ObsTotals::default();
    let mut passes: Vec<Vec<(String, u64, bool)>> = Vec::new();
    timed_loop(args.seconds, &mut report, tracer.as_mut(), &mut obs, |tr, _| {
        let (pass, items) = inputs.pass(tr);
        passes.push(check_pass(&pass));
        items
    });
    report.peak_rss_mb = crate::peak_rss_mb();

    let ((audit_pass, _), violations) = audited(|| inputs.pass(None));
    for (key, d, sane) in &check_pass(&audit_pass) {
        report.op(expected.check(key, *d) && *sane && violations == 0);
    }
    for pass in &passes {
        for (key, d, sane) in pass {
            report.op(expected.check(key, *d) && *sane);
        }
    }
    report.notes.push(format!(
        "{} streams and {} transport sessions per operation; audit violations: {violations}",
        inputs.streams.len(),
        inputs.transports.len()
    ));

    if let Some(t) = &tracer {
        let stream_records = t.counted("session.records") as f64;
        let workload_records = t.counted("workload.records") as f64;
        report
            .layers
            .insert("session.us_per_record", t.total_s("session.run") * 1e6 / stream_records);
        report
            .layers
            .insert("workload.us_per_record", t.total_s("workload.run") * 1e6 / workload_records);
        report
            .layers
            .insert("video.us_per_stream", t.total_s("video") * 1e6 / t.counted("streams") as f64);
        report
            .layers
            .insert("analysis.us_per_record", t.total_s("analysis") * 1e6 / stream_records);
        report.layers.insert("channel.ns_per_slot", channel_ns_per_slot(&inputs.streams[0].0));
        report.trace_totals(t, &obs);
    }
    report.digests = expected.seen();
    Ok(report)
}
