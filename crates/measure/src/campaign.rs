//! Campaign orchestration and Table 1 bookkeeping.
//!
//! The study ran ~10 consecutive days per country, ~7 hours a day across
//! time slots, rotating spots, with all-contract SIMs and RRC warm-up.
//! [`Campaign`] reproduces that structure at simulation scale: a batch of
//! seeded sessions per operator, rotating the city's study spots, whose
//! traces feed every figure. [`CampaignTotals`] accumulates the Table 1
//! aggregates.

use crate::dataset::Dataset;
use crate::executor::{Executor, ResilientOutcome};
use crate::fault::{
    run_session_with_faults, run_session_with_faults_into, FaultConfig, FaultSessionRun,
    FaultStats,
};
use crate::session::{MobilityKind, SessionResult, SessionSpec};
use analysis::OnlineAggregates;
use operators::Operator;
use ran::kpi::{KpiTrace, SlotKpi, CHUNK_RECORDS};
use ran::sink::SlotSink;
use serde::{Deserialize, Serialize};
use std::io;
use std::path::Path;

/// Default retry budget for the self-healing campaign paths: one initial
/// attempt plus up to this many retries per session.
pub const DEFAULT_RETRY_BUDGET: u32 = 2;

/// A batch of sessions for one operator.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Campaign {
    /// Operator under test.
    pub operator: Operator,
    /// Number of stationary sessions (rotating over the study spots).
    pub sessions: u64,
    /// Duration of each session, seconds.
    pub session_duration_s: f64,
    /// Base seed; session `i` uses `base_seed + i`.
    pub base_seed: u64,
}

impl Campaign {
    /// A default-sized campaign: enough sessions to average over the spot
    /// rotation and per-session shadowing.
    pub fn standard(operator: Operator, base_seed: u64) -> Self {
        Campaign { operator, sessions: 12, session_duration_s: 10.0, base_seed }
    }

    /// The session specs of this campaign. Seeds wrap on overflow so a
    /// `base_seed` near `u64::MAX` still yields `sessions` distinct seeds.
    pub fn specs(&self) -> Vec<SessionSpec> {
        (0..self.sessions)
            .map(|i| SessionSpec {
                operator: self.operator,
                mobility: MobilityKind::Stationary { spot: i as usize },
                dl: true,
                ul: true,
                duration_s: self.session_duration_s,
                seed: self.base_seed.wrapping_add(i),
            })
            .collect()
    }

    /// Run every session sequentially — the reference path the
    /// determinism harness compares [`Campaign::run_parallel`] against.
    pub fn run(&self) -> Vec<SessionResult> {
        let _span = obs::span("campaign.run");
        obs::registry().counter("campaign.runs").inc();
        self.specs().into_iter().map(SessionResult::run).collect()
    }

    /// Run every session across `threads` workers. Results come back in
    /// spec order and are byte-identical to [`Campaign::run`]
    /// (`tests/determinism.rs` enforces this for thread counts 1/2/8).
    pub fn run_parallel(&self, threads: usize) -> Vec<SessionResult> {
        let _span = obs::span("campaign.run");
        obs::registry().counter("campaign.runs").inc();
        Executor::new(threads).run_sessions(&self.specs())
    }

    /// Run with the thread count from `MIDBAND5G_THREADS` (default: all
    /// available cores) — what the figure binaries use.
    pub fn run_auto(&self) -> Vec<SessionResult> {
        let _span = obs::span("campaign.run");
        obs::registry().counter("campaign.runs").inc();
        Executor::from_env().run_sessions(&self.specs())
    }

    /// Bounded-memory campaign: stream every session into
    /// [`OnlineAggregates`] at the given throughput bin width, with the
    /// thread count from `MIDBAND5G_THREADS`. See
    /// [`Campaign::run_streaming_on`].
    pub fn run_streaming(&self, bin_s: f64) -> OnlineAggregates {
        self.run_streaming_on(Executor::from_env(), bin_s)
    }

    /// Self-healing campaign: run every session under deterministic
    /// fault injection ([`FaultConfig`]), isolating worker panics and
    /// retrying each failed session up to `retry_budget` times. Instead
    /// of panicking away a whole campaign when one session dies, the
    /// result is a [`CampaignOutcome`] naming what survived, what was
    /// lost, and how much of each surviving trace is real coverage.
    ///
    /// With `FaultConfig::default()` (all rates zero) the surviving
    /// results are byte-identical to [`Campaign::run`]; with any config
    /// the outcome is byte-identical across thread counts
    /// (`tests/chaos.rs`).
    pub fn run_resilient(
        &self,
        executor: Executor,
        faults: &FaultConfig,
        retry_budget: u32,
    ) -> CampaignOutcome {
        let _span = obs::span("campaign.run");
        obs::registry().counter("campaign.runs").inc();
        let specs = self.specs();
        let outcome = executor.map_resilient(&specs, retry_budget, |spec, attempt| {
            run_session_with_faults(*spec, faults, attempt)
        });
        collect_outcome(&specs, 0, outcome)
    }

    /// Checkpointing [`Campaign::run_resilient`]: every completed session
    /// is persisted into `dir` (via the [`Dataset`] session writer, one
    /// atomically-renamed file each) as soon as its wave finishes, and a
    /// `checkpoint.json` manifest records `(name, index, seed, spec
    /// hash, fault stats)` per entry. On restart over the same `dir`,
    /// sessions whose seed **and** spec hash match are loaded from disk
    /// and skipped; everything else (including previously-abandoned
    /// sessions — they are never checkpointed) reruns. Because each
    /// session is a pure function of `(spec, attempt)`, a resumed
    /// campaign is byte-identical to an uninterrupted one.
    ///
    /// On completion the directory also gains a regular dataset
    /// `manifest.json` over the surviving sessions, so a finished
    /// checkpoint dir doubles as a loadable [`Dataset`] export.
    pub fn run_checkpointed(
        &self,
        dir: &Path,
        executor: Executor,
        faults: &FaultConfig,
        retry_budget: u32,
    ) -> io::Result<CampaignOutcome> {
        run_checkpointed_specs(
            dir,
            &self.specs(),
            &self.checkpoint_description(),
            &executor,
            faults,
            retry_budget,
        )
    }

    /// The description this campaign writes into a checkpoint dir's final
    /// `manifest.json`.
    pub fn checkpoint_description(&self) -> String {
        format!(
            "checkpointed campaign: {} x {} sessions, base seed {}",
            self.operator.acronym(),
            self.sessions,
            self.base_seed
        )
    }

    /// Bounded-memory campaign on an explicit executor. Each worker folds
    /// its sessions through a chunk-buffered sink into per-session
    /// [`OnlineAggregates`] — retaining at most one in-flight columnar
    /// chunk ([`CHUNK_RECORDS`] records) at a time, tracked by the
    /// `kpi.retained_records` / `kpi.peak_retained_records` obs gauges —
    /// and the per-session aggregates are merged in spec order, so the
    /// result is byte-identical to the sequential path regardless of the
    /// thread count.
    pub fn run_streaming_on(&self, executor: Executor, bin_s: f64) -> OnlineAggregates {
        let _span = obs::span("campaign.run");
        obs::registry().counter("campaign.runs").inc();
        let specs = self.specs();
        let per_session = executor.map(&specs, |spec| {
            let mut fold = ChunkFold::new(bin_s);
            SessionResult::run_with_sink(*spec, &mut fold);
            fold.aggregates
        });
        let mut merged = OnlineAggregates::new(bin_s);
        for agg in &per_session {
            merged.merge(agg);
        }
        merged
    }

    /// Self-healing bounded-memory campaign: [`Campaign::run_streaming_on`]
    /// under fault injection. Only surviving sessions are folded into the
    /// merged aggregates (in spec order), abandoned sessions surface in
    /// `failures`, and per-session [`SessionCoverage`] records how much
    /// of each surviving trace made it past the injected gaps and aborts
    /// — a gapped campaign reports its losses instead of masquerading as
    /// complete.
    pub fn run_streaming_resilient(
        &self,
        executor: Executor,
        bin_s: f64,
        faults: &FaultConfig,
        retry_budget: u32,
    ) -> StreamingOutcome {
        let _span = obs::span("campaign.run");
        obs::registry().counter("campaign.runs").inc();
        let specs = self.specs();
        let outcome = executor.map_resilient(&specs, retry_budget, |spec, attempt| {
            let mut fold = ChunkFold::new(bin_s);
            let stats = run_session_with_faults_into(*spec, faults, attempt, &mut fold);
            (fold.aggregates, stats)
        });
        let mut aggregates = OnlineAggregates::new(bin_s);
        let mut failures = Vec::new();
        let mut coverage = Vec::new();
        for (index, item) in outcome.outputs.into_iter().enumerate() {
            match item {
                Ok((agg, stats)) => {
                    aggregates.merge(&agg);
                    coverage.push(SessionCoverage { index: index as u64, stats });
                }
                Err(f) => failures.push(SessionFailure {
                    index: index as u64,
                    spec: specs[index],
                    attempts: f.attempts,
                    reason: f.error.to_string(),
                }),
            }
        }
        StreamingOutcome { aggregates, failures, coverage }
    }
}

/// A session the resilient executor gave up on: its spec, how many
/// attempts were burned, and the terminal panic message.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SessionFailure {
    /// Index of the session in [`Campaign::specs`] order.
    pub index: u64,
    /// The spec that kept failing.
    pub spec: SessionSpec,
    /// Total attempts made (1 initial + retries).
    pub attempts: u32,
    /// Stringified terminal error.
    pub reason: String,
}

/// Per-surviving-session record accounting under fault injection.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SessionCoverage {
    /// Index of the session in [`Campaign::specs`] order.
    pub index: u64,
    /// What the fault injector saw, dropped and corrupted.
    pub stats: FaultStats,
}

impl SessionCoverage {
    /// Fraction of emitted records that survived into the result.
    pub fn fraction(&self) -> f64 {
        self.stats.coverage()
    }
}

/// What a self-healing campaign produced: the surviving results in spec
/// order, the sessions it had to abandon, and per-survivor coverage.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CampaignOutcome {
    /// Surviving session results, in spec order (abandoned sessions are
    /// simply absent — `failures` names them).
    pub results: Vec<SessionResult>,
    /// Sessions abandoned after the retry budget, in spec order.
    pub failures: Vec<SessionFailure>,
    /// Fault-injection accounting for each surviving session.
    pub coverage: Vec<SessionCoverage>,
}

impl CampaignOutcome {
    /// True when every session survived.
    pub fn is_complete(&self) -> bool {
        self.failures.is_empty()
    }

    /// Fraction of sessions that survived.
    pub fn survival_rate(&self) -> f64 {
        let total = self.results.len() + self.failures.len();
        if total == 0 {
            1.0
        } else {
            self.results.len() as f64 / total as f64
        }
    }

    /// The lowest per-session record coverage among survivors (1.0 when
    /// there are none).
    pub fn min_coverage(&self) -> f64 {
        self.coverage.iter().map(SessionCoverage::fraction).fold(1.0, f64::min)
    }
}

/// [`CampaignOutcome`] for the bounded-memory path: merged aggregates
/// over the survivors instead of materialised traces.
#[derive(Debug, Clone, PartialEq)]
pub struct StreamingOutcome {
    /// Aggregates over surviving sessions, merged in spec order.
    pub aggregates: OnlineAggregates,
    /// Sessions abandoned after the retry budget.
    pub failures: Vec<SessionFailure>,
    /// Fault-injection accounting for each surviving session.
    pub coverage: Vec<SessionCoverage>,
}

/// One persisted session in a checkpoint directory. Shared by the
/// single-process checkpoint path and the distributed coordinator
/// (`measure::dist`), whose per-session `done/` markers carry exactly
/// this record.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CheckpointEntry {
    /// Session file name under `sessions/`.
    pub name: String,
    /// Index in [`Campaign::specs`] order.
    pub index: u64,
    /// The session's seed (first resume check).
    pub seed: u64,
    /// [`SessionSpec::stable_hash`] at write time (second resume check).
    pub spec_hash: u64,
    /// Records in the persisted trace.
    pub records: u64,
    /// Fault stats of the attempt that produced the persisted trace.
    pub stats: FaultStats,
}

/// The `checkpoint.json` manifest: verified completed sessions.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct CheckpointManifest {
    /// Completed sessions, sorted by spec index.
    pub entries: Vec<CheckpointEntry>,
}

/// Checkpointed run over an explicit spec list — the body of
/// [`Campaign::run_checkpointed`], shared with `measure::dist` (whose
/// jobs span multiple campaigns, and whose single-process degradation
/// path is exactly this function). Semantics are documented on
/// [`Campaign::run_checkpointed`].
pub fn run_checkpointed_specs(
    dir: &Path,
    specs: &[SessionSpec],
    description: &str,
    executor: &Executor,
    faults: &FaultConfig,
    retry_budget: u32,
) -> io::Result<CampaignOutcome> {
    let _span = obs::span("campaign.run_checkpointed");
    let reg = obs::registry();
    reg.counter("campaign.runs").inc();
    std::fs::create_dir_all(dir)?;
    let ds = Dataset::at(dir);
    let ckpt_path = dir.join("checkpoint.json");

    let (mut cached, mut entries) = resume_prior(dir, specs);
    reg.counter("campaign.checkpoint_hits").add(entries.len() as u64);

    // Run what is missing, in waves, checkpointing after each wave so
    // a kill loses at most one wave of work.
    let pending: Vec<usize> = (0..specs.len()).filter(|&i| cached[i].is_none()).collect();
    let mut failures: Vec<SessionFailure> = Vec::new();
    let wave_size = executor.threads().max(1) * 2;
    for wave in pending.chunks(wave_size) {
        let wave_specs: Vec<SessionSpec> = wave.iter().map(|&i| specs[i]).collect();
        let outcome = executor.map_resilient(&wave_specs, retry_budget, |spec, attempt| {
            run_session_with_faults(*spec, faults, attempt)
        });
        for (j, item) in outcome.outputs.into_iter().enumerate() {
            let index = wave[j];
            match item {
                Ok(run) => {
                    let name = ds.write_session(index, &run.result)?;
                    entries.push(CheckpointEntry {
                        name,
                        index: index as u64,
                        seed: specs[index].seed,
                        spec_hash: specs[index].stable_hash(),
                        records: run.result.trace.len() as u64,
                        stats: run.stats,
                    });
                    cached[index] = Some((run.result, run.stats));
                }
                Err(f) => failures.push(SessionFailure {
                    index: index as u64,
                    spec: specs[index],
                    attempts: f.attempts,
                    reason: f.error.to_string(),
                }),
            }
        }
        entries.sort_by_key(|e| e.index);
        write_atomically(
            &ckpt_path,
            &serde_json::to_string_pretty(&CheckpointManifest { entries: entries.clone() })
                .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?,
        )?;
    }

    entries.sort_by_key(|e| e.index);
    write_final_manifests(dir, &entries, description)?;

    let mut results = Vec::with_capacity(specs.len());
    let mut coverage = Vec::new();
    for (index, slot) in cached.into_iter().enumerate() {
        if let Some((result, stats)) = slot {
            results.push(result);
            coverage.push(SessionCoverage { index: index as u64, stats });
        }
    }
    Ok(CampaignOutcome { results, failures, coverage })
}

/// Recover verified prior work from a checkpoint dir. A corrupt or
/// missing checkpoint manifest simply means "nothing to resume": entries
/// are only trusted after the seed + spec-hash + on-disk-spec checks
/// pass. Returns per-index cached results and the validated entries
/// (unsorted, in manifest order).
pub(crate) fn resume_prior(
    dir: &Path,
    specs: &[SessionSpec],
) -> (Vec<Option<(SessionResult, FaultStats)>>, Vec<CheckpointEntry>) {
    let ds = Dataset::at(dir);
    let prior = std::fs::read_to_string(dir.join("checkpoint.json"))
        .ok()
        .and_then(|json| serde_json::from_str::<CheckpointManifest>(&json).ok())
        .unwrap_or_default();
    let mut cached: Vec<Option<(SessionResult, FaultStats)>> = vec![None; specs.len()];
    let mut entries: Vec<CheckpointEntry> = Vec::new();
    for entry in prior.entries {
        let index = entry.index as usize;
        let Some(spec) = specs.get(index) else { continue };
        if entry.seed != spec.seed
            || entry.spec_hash != spec.stable_hash()
            || cached[index].is_some()
        {
            continue;
        }
        let Ok(record) = ds.load_session(&entry.name) else { continue };
        if record.spec != *spec {
            continue;
        }
        cached[index] =
            Some((SessionResult { spec: record.spec, trace: record.trace }, entry.stats));
        entries.push(entry);
    }
    (cached, entries)
}

/// Write the final `checkpoint.json` + loadable dataset `manifest.json`
/// over `entries` (which must already be sorted by index). Every path
/// that finishes a checkpoint dir — single-process waves and the
/// distributed merge alike — funnels through this one writer, which is
/// what makes the two byte-identical.
pub fn write_final_manifests(
    dir: &Path,
    entries: &[CheckpointEntry],
    description: &str,
) -> io::Result<()> {
    write_atomically(
        &dir.join("checkpoint.json"),
        &serde_json::to_string_pretty(&CheckpointManifest { entries: entries.to_vec() })
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?,
    )?;
    let manifest = crate::dataset::DatasetManifest {
        description: description.to_string(),
        sessions: entries.iter().map(|e| e.name.clone()).collect(),
        total_records: entries.iter().map(|e| e.records).sum(),
        version: crate::dataset::DATASET_VERSION,
    };
    write_atomically(
        &dir.join("manifest.json"),
        &serde_json::to_string_pretty(&manifest)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?,
    )
}

/// Write a file durably via [`crate::dataset::commit_file`]
/// (process-unique tmp sibling, fsync, rename, dir fsync), so readers
/// and resumed campaigns never observe a torn manifest and a host crash
/// cannot lose an acknowledged commit.
fn write_atomically(path: &Path, contents: &str) -> io::Result<()> {
    crate::dataset::commit_file(path, contents.as_bytes())
}

/// Turn a resilient executor outcome over session specs into a
/// [`CampaignOutcome`]; `base_index` offsets the reported indices (used
/// by waves).
fn collect_outcome(
    specs: &[SessionSpec],
    base_index: u64,
    outcome: ResilientOutcome<FaultSessionRun>,
) -> CampaignOutcome {
    let mut results = Vec::with_capacity(specs.len());
    let mut failures = Vec::new();
    let mut coverage = Vec::new();
    for (i, item) in outcome.outputs.into_iter().enumerate() {
        let index = base_index + i as u64;
        match item {
            Ok(run) => {
                coverage.push(SessionCoverage { index, stats: run.stats });
                results.push(run.result);
            }
            Err(f) => failures.push(SessionFailure {
                index,
                spec: specs[i],
                attempts: f.attempts,
                reason: f.error.to_string(),
            }),
        }
    }
    CampaignOutcome { results, failures, coverage }
}

/// A [`SlotSink`] that buffers at most one columnar chunk of records
/// before folding them into [`OnlineAggregates`], reporting its retained
/// record count through obs gauges. The buffer exists to make the
/// bounded-memory claim *observable* (and cheap to audit): memory high
/// water is `workers × CHUNK_RECORDS` records, independent of session
/// duration.
struct ChunkFold {
    buf: KpiTrace,
    aggregates: OnlineAggregates,
    retained: obs::Gauge,
    peak: obs::Gauge,
}

impl ChunkFold {
    fn new(bin_s: f64) -> ChunkFold {
        let reg = obs::registry();
        ChunkFold {
            buf: KpiTrace::new(),
            aggregates: OnlineAggregates::new(bin_s),
            retained: reg.gauge("kpi.retained_records"),
            peak: reg.gauge("kpi.peak_retained_records"),
        }
    }

    fn flush(&mut self) {
        let n = self.buf.len();
        if n == 0 {
            return;
        }
        for r in self.buf.iter() {
            SlotSink::push(&mut self.aggregates, &r);
        }
        self.buf.clear();
        self.retained.add(-(n as i64));
    }
}

impl SlotSink for ChunkFold {
    fn push(&mut self, kpi: &SlotKpi) {
        KpiTrace::push(&mut self.buf, *kpi);
        self.retained.add(1);
        self.peak.raise_to(self.retained.get());
        if self.buf.len() >= CHUNK_RECORDS {
            self.flush();
        }
    }

    fn finish(&mut self) {
        self.flush();
        self.aggregates.finish();
    }
}

/// Table 1 aggregates across campaigns.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct CampaignTotals {
    /// Total network-test minutes.
    pub minutes: f64,
    /// Total data consumed on 5G, bytes.
    pub bytes: u64,
    /// Number of sessions executed.
    pub sessions: u64,
    /// Operators covered.
    pub operators: Vec<String>,
}

impl CampaignTotals {
    /// Fold one session into the totals.
    pub fn add(&mut self, result: &SessionResult) {
        self.minutes += result.minutes();
        self.bytes += result.bytes_delivered();
        self.sessions += 1;
        let name = result.spec.operator.acronym().to_string();
        if !self.operators.contains(&name) {
            self.operators.push(name);
        }
    }

    /// Data consumed in terabytes.
    pub fn terabytes(&self) -> f64 {
        self.bytes as f64 / 1e12
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn specs_rotate_spots_and_seeds() {
        let c = Campaign { operator: Operator::AttUs, sessions: 4, session_duration_s: 3.0, base_seed: 100 };
        let specs = c.specs();
        assert_eq!(specs.len(), 4);
        assert_eq!(specs[0].seed, 100);
        assert_eq!(specs[3].seed, 103);
        assert!(matches!(specs[2].mobility, MobilityKind::Stationary { spot: 2 }));
    }

    #[test]
    fn totals_accumulate() {
        let c = Campaign { operator: Operator::VodafoneGermany, sessions: 2, session_duration_s: 1.0, base_seed: 5 };
        let mut totals = CampaignTotals::default();
        for r in c.run() {
            totals.add(&r);
        }
        assert_eq!(totals.sessions, 2);
        assert!((totals.minutes - 2.0 / 60.0).abs() < 1e-12);
        assert!(totals.bytes > 0);
        assert_eq!(totals.operators, vec!["V_Ge".to_string()]);
    }

    #[test]
    fn streaming_matches_posthoc_fold() {
        let c = Campaign { operator: Operator::VodafoneItaly, sessions: 3, session_duration_s: 1.0, base_seed: 42 };
        let streamed = c.run_streaming_on(Executor::new(2), 0.5);
        // Sequential AoS baseline: fold each full trace post-hoc, merge in
        // spec order.
        let mut baseline = OnlineAggregates::new(0.5);
        for result in c.run() {
            let mut agg = OnlineAggregates::new(0.5);
            for r in result.trace.iter() {
                SlotSink::push(&mut agg, &r);
            }
            agg.finish();
            baseline.merge(&agg);
        }
        assert_eq!(streamed, baseline);
        assert!(streamed.records() > 0);
        assert!(streamed.mean_throughput_mbps(ran::kpi::Direction::Dl) > 10.0);
    }

    #[test]
    fn streaming_campaign_bounds_retained_records() {
        // The acceptance bound: streaming the 3-operator standard campaign
        // must never retain more than 10% of the total records in memory.
        let operators = [Operator::VodafoneSpain, Operator::TelekomGermany, Operator::AttUs];
        let mut total_records = 0u64;
        for (i, op) in operators.iter().enumerate() {
            let agg = Campaign::standard(*op, 1000 + i as u64).run_streaming_on(Executor::new(4), 1.0);
            total_records += agg.records();
        }
        let peak = obs::registry().gauge("kpi.peak_retained_records").get();
        assert!(peak > 0, "streaming path should report its high-water mark");
        assert!(
            (peak as u64) < total_records / 10,
            "peak retained {peak} records vs total {total_records}"
        );
    }
}
