//! `export` and `reload`: the producer and consumer halves of the §10.6
//! artifact path — simulate one session per mid-band operator on the
//! executor, write the dataset, read it back and recompute the
//! `analyze_dataset` statistics.

use crate::trace::{time, ObsTotals, Tracer};
use crate::{audited, digest, dir_bytes, setups, timed_loop, Args, Expected, Plant, Report};
use midband5g::analysis::correlation::coherence_lag;
use midband5g::analysis::variability::variability;
use midband5g::measure::dataset::{Dataset, SessionRecord};
use midband5g::measure::executor::Executor;
use midband5g::measure::session::{SessionResult, SessionSpec};
use midband5g::operators::Operator;
use midband5g::ran::kpi::{Direction, KpiTrace};
use std::collections::BTreeMap;
use std::io;
use std::time::Instant;

/// Simulated seconds per session (stationary, full buffer, DL+UL).
const SESSION_S: f64 = 6.0;

/// Simulated seconds per warm-up session.
const WARM_S: f64 = 0.5;

/// One stationary full-buffer DL+UL spec per mid-band operator; the seed
/// picks each session's seed and study spot.
fn specs(seed: u64) -> Vec<SessionSpec> {
    Operator::ALL_MIDBAND
        .iter()
        .enumerate()
        .map(|(i, &op)| {
            let spot = (seed as usize).wrapping_add(i) % 3;
            SessionSpec::stationary(
                op,
                spot,
                SESSION_S,
                seed.wrapping_mul(1000).wrapping_add(i as u64),
            )
        })
        .collect()
}

/// Fill lazy state before timing — operator profiles, channel lookahead
/// and allocation tables, the executor's threads, the dataset directory —
/// with short sessions that are written and read back once.
fn warm_up(executor: &Executor, specs: &[SessionSpec], args: &Args) -> io::Result<()> {
    let warm: Vec<SessionSpec> =
        specs.iter().map(|s| SessionSpec { duration_s: WARM_S, ..*s }).collect();
    let ds = Dataset::at(args.work.join("warm"));
    let manifest = ds.export("perfbench warm-up", &executor.run_sessions(&warm))?;
    ds.load_session(&manifest.sessions[0])?;
    Ok(())
}

fn session_key(i: usize) -> String {
    format!("session.{i:02}")
}

/// Simulate `specs` on the executor, with a span per session (inside the
/// executor's closure) and one around the whole map when traced.
fn simulate(
    executor: &Executor,
    specs: &[SessionSpec],
    tracer: Option<&Tracer>,
) -> Vec<SessionResult> {
    match tracer {
        None => executor.run_sessions(specs),
        Some(t) => {
            let map = t.open("executor.map", None);
            let results = executor.map(specs, |spec| {
                time(tracer, "session.run", Some(map), || SessionResult::run(*spec))
            });
            t.close(map);
            t.count("records", results.iter().map(|r| r.trace.len() as u64).sum());
            results
        }
    }
}

/// Whether the dataset at `ds` reloads record-for-record equal to
/// `results`, per session.
fn round_trip(ds: &Dataset, results: &[SessionResult]) -> Vec<bool> {
    let names = ds.manifest().map(|m| m.sessions).unwrap_or_default();
    results
        .iter()
        .enumerate()
        .map(|(i, r)| match (names.get(i), names.len() == results.len()) {
            (Some(name), true) => {
                ds.load_session(name).is_ok_and(|rec| rec.spec == r.spec && rec.trace == r.trace)
            }
            _ => false,
        })
        .collect()
}

pub fn export(args: &Args) -> io::Result<Report> {
    let mut report = Report::default();
    let (executor, specs) = setups(&mut report, || {
        let executor = Executor::from_env();
        let specs = specs(args.seed);
        warm_up(&executor, &specs, args)?;
        Ok((executor, specs))
    })?;
    let mut expected = Expected::new(args);
    let mut tracer = args.trace.then(Tracer::new);
    let mut obs = ObsTotals::default();
    // Each operation's digests, and the last operation's results and
    // dataset, kept for the checks that follow the timed part.
    let mut digests: Vec<Vec<u64>> = Vec::new();
    let mut last: Option<(Dataset, Vec<SessionResult>)> = None;
    let mut n = 0;
    timed_loop(args.seconds, &mut report, tracer.as_mut(), &mut obs, |tr, _| {
        if let Some((old, _)) = last.take() {
            let _ = std::fs::remove_dir_all(old.root());
        }
        let ds = Dataset::at(args.work.join(format!("export-{n}")));
        n += 1;
        let t = Instant::now();
        let results = simulate(&executor, &specs, tr);
        let simulated = t.elapsed().as_secs_f64();
        let t = Instant::now();
        let exported = time(tr, "dataset.export", None, || ds.export("perfbench export", &results));
        let written = t.elapsed().as_secs_f64();
        let records = results.iter().map(|r| r.trace.len() as u64).sum();
        digests.push(match exported {
            Ok(_) => results.iter().map(|r| digest::trace(&r.trace)).collect(),
            Err(_) => vec![0; results.len()],
        });
        last = Some((ds, results));
        // Two items: the simulation and the export of the same records.
        vec![(0, simulated), (records, written)]
    });
    report.peak_rss_mb = crate::peak_rss_mb();

    // The same specs under the invariant audit give the expected digests
    // (or are checked against the committed reference on the default seed).
    let (audit_run, violations) = audited(|| executor.run_sessions(&specs));
    for (i, r) in audit_run.iter().enumerate() {
        let ok = expected.check(&session_key(i), digest::trace(&r.trace));
        report.op(ok && violations == 0);
    }
    for op in &digests {
        for (i, &d) in op.iter().enumerate() {
            report.op(expected.check(&session_key(i), d));
        }
    }
    // The last export must reload record-for-record equal; a session that
    // does not counts as one more failure.
    let (ds, results) = last.expect("timed_loop runs at least one operation");
    let round = round_trip(&ds, &results);
    report.failed += round.iter().filter(|ok| !**ok).count() as u64;
    let records: u64 = results.iter().map(|r| r.trace.len() as u64).sum();
    let bytes_per_record = dir_bytes(&ds.root().join("sessions"))? as f64 / records as f64;
    report.notes.push(format!(
        "disk_bytes_per_record = {bytes_per_record:.4} B ({} sessions, {records} records per operation)",
        results.len()
    ));
    report.notes.push(format!("audit violations: {violations}"));

    if let Some(t) = &tracer {
        let rec = t.counted("records") as f64;
        let sessions = t.total_s("session.run");
        let export = t.total_s("dataset.export");
        report.layers.insert("session.us_per_record", sessions * 1e6 / rec);
        report.layers.insert(
            "executor.busy_frac",
            sessions / (executor.threads() as f64 * t.total_s("executor.map")),
        );
        report.layers.insert("dataset.export_us_per_record", export * 1e6 / rec);
        report.layers.insert("dataset.export_share", export / t.wall_s);
        report.layers.insert("dataset.bytes_per_record", bytes_per_record);
        report.trace_totals(t, &obs);
    }
    report.digests = expected.seen();
    Ok(report)
}

/// The `analyze_dataset` statistics: per operator, mean DL goodput over
/// its sessions, the largest V(60 ms) of the PCell's slot throughput,
/// and the first coherence lag found on a 10 ms-binned series.
#[derive(Default)]
struct Analysis {
    per_op: BTreeMap<String, (Vec<f64>, f64, Option<usize>)>,
}

impl Analysis {
    fn add(&mut self, op: Operator, trace: &KpiTrace) {
        let entry = self.per_op.entry(op.acronym().to_string()).or_default();
        entry.0.push(trace.mean_throughput_mbps(Direction::Dl));
        let slot_tput: Vec<f64> = trace
            .iter()
            .filter(|r| r.carrier == 0 && r.direction == Direction::Dl)
            .map(|r| f64::from(r.delivered_bits) / 0.5e-3 / 1e6)
            .collect();
        entry.1 = entry.1.max(variability(&slot_tput, 120).unwrap_or(0.0));
        let binned: Vec<f64> =
            slot_tput.chunks(20).map(|c| c.iter().sum::<f64>() / c.len() as f64).collect();
        let coh = coherence_lag(&binned, 200, 0.5);
        if entry.2.is_none() {
            entry.2 = coh;
        }
    }

    fn digest(&self) -> u64 {
        let mut h = digest::Fnv::new();
        for (op, (tputs, v, coh)) in &self.per_op {
            let mean = tputs.iter().sum::<f64>() / tputs.len() as f64;
            let coh = coh.map_or(u64::MAX, |c| c as u64);
            h.str(op).f64(mean).f64(*v).u64(coh);
        }
        h.finish()
    }
}

pub fn reload(args: &Args) -> io::Result<Report> {
    let mut report = Report::default();
    let ds = Dataset::at(args.work.join("reload"));
    let (executor, specs, originals) = setups(&mut report, || {
        let executor = Executor::from_env();
        let specs = specs(args.seed);
        warm_up(&executor, &specs, args)?;
        let originals = executor.run_sessions(&specs);
        ds.export("perfbench reload", &originals)?;
        ds.load_session(&Dataset::session_file_name(0, &originals[0]))?;
        Ok((executor, specs, originals))
    })?;
    let names: Vec<String> =
        originals.iter().enumerate().map(|(i, r)| Dataset::session_file_name(i, r)).collect();
    if args.plant == Some(Plant::Truncate) {
        let path = ds.root().join("sessions").join(&names[0]);
        let len = std::fs::metadata(&path)?.len();
        std::fs::OpenOptions::new().write(true).open(&path)?.set_len(len / 2)?;
    }
    let mut expected = Expected::new(args);
    let mut pinned = Analysis::default();
    for (i, r) in originals.iter().enumerate() {
        pinned.add(r.spec.operator, &r.trace);
        // Pin the in-memory originals; every reload is compared to them.
        report.op(expected.check(&session_key(i), digest::trace(&r.trace)));
    }
    report.op(expected.check("analysis", pinned.digest()));
    let bytes = dir_bytes(&ds.root().join("sessions"))? as f64;

    let mut tracer = args.trace.then(Tracer::new);
    let mut obs = ObsTotals::default();
    timed_loop(args.seconds, &mut report, tracer.as_mut(), &mut obs, |tr, report| {
        // One item per session file: its load and analysis, with the
        // manifest read charged to the first and the summary to the last.
        let mut items: Vec<(u64, f64)> = Vec::new();
        let mut loaded: Vec<io::Result<SessionRecord>> = Vec::new();
        let mut analysis = Analysis::default();
        let mut lap = Instant::now();
        let manifest = time(tr, "dataset.load", None, || ds.manifest());
        for name in manifest.as_ref().map(|m| m.sessions.as_slice()).unwrap_or(&[]) {
            let record = time(tr, "dataset.load", None, || ds.load_session(name));
            let records = record.as_ref().map_or(0, |r| r.trace.len() as u64);
            if let Ok(r) = &record {
                time(tr, "analysis", None, || analysis.add(r.spec.operator, &r.trace));
            }
            loaded.push(record);
            let now = Instant::now();
            items.push((records, (now - lap).as_secs_f64()));
            lap = now;
        }
        let digest = time(tr, "analysis", None, || analysis.digest());
        let tail = lap.elapsed().as_secs_f64();
        match items.last_mut() {
            Some(last) => last.1 += tail,
            None => items.push((0, tail)),
        }

        for (i, original) in originals.iter().enumerate() {
            let ok = loaded.get(i).is_some_and(|r| {
                r.as_ref().is_ok_and(|r| r.spec == original.spec && r.trace == original.trace)
            });
            report.op(ok);
        }
        report.op(digest == pinned.digest());
        if let Some(t) = tr {
            t.count("records", items.iter().map(|&(n, _)| n).sum());
            t.count("passes", 1);
        }
        items
    });
    report.peak_rss_mb = crate::peak_rss_mb();

    let (audit_run, violations) = audited(|| executor.run_sessions(&specs));
    for (r, original) in audit_run.iter().zip(&originals) {
        report.op(violations == 0 && r == original);
    }
    let records: u64 = originals.iter().map(|r| r.trace.len() as u64).sum();
    report.notes.push(format!(
        "disk_bytes_per_record = {:.4} B ({} sessions, {records} records per operation)",
        bytes / records as f64,
        originals.len()
    ));
    report.notes.push(format!("audit violations: {violations}"));

    if let Some(t) = &tracer {
        let rec = t.counted("records") as f64;
        let load = t.total_s("dataset.load");
        let passes = t.counted("passes") as f64;
        report.layers.insert("dataset.load_us_per_record", load * 1e6 / rec);
        report.layers.insert("dataset.load_mb_per_s", bytes * passes / 1e6 / load);
        report.layers.insert("dataset.bytes_per_record", bytes / records as f64);
        report.layers.insert("analysis.us_per_record", t.total_s("analysis") * 1e6 / rec);
        report.trace_totals(t, &obs);
    }
    report.digests = expected.seen();
    Ok(report)
}
