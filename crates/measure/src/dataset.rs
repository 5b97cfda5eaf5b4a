//! Dataset export/import — the simulated counterpart of the paper's
//! artifact release ("we make our dataset, artifacts, source code,
//! processing scripts, plots and results publicly available").
//!
//! A [`Dataset`] is a directory of JSON files: one `manifest.json`
//! describing the campaign, plus one `sessions/<name>.json` per session
//! holding the spec and the full slot-level KPI trace. Every figure can
//! be recomputed from an exported dataset without re-running the
//! simulator — exactly how the paper's artifact consumers work with its
//! released captures.

use crate::executor::Executor;
use crate::session::{SessionResult, SessionSpec};
use ran::kpi::{KpiTrace, CHUNK_RECORDS};
use serde::{Deserialize, Serialize};
use std::io;
use std::path::{Path, PathBuf};

/// Manifest of an exported dataset.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct DatasetManifest {
    /// Free-text description of the campaign.
    pub description: String,
    /// Session file names (relative to `sessions/`), in export order.
    pub sessions: Vec<String>,
    /// Total records across all sessions.
    pub total_records: u64,
    /// Format version, for forward compatibility.
    pub version: u32,
}

/// One exported session: the spec that produced it plus its trace.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SessionRecord {
    /// The session specification (operator, mobility, seed, …).
    pub spec: SessionSpec,
    /// The slot-level KPI trace.
    pub trace: KpiTrace,
}

/// A dataset rooted at a directory.
#[derive(Debug, Clone)]
pub struct Dataset {
    root: PathBuf,
}

/// One named, typed reason a dataset load lost data — the currency of
/// [`Dataset::load_all_lossy`]. The paper's artifact pipeline faced all
/// of these in the raw XCAL captures (truncated files, collector
/// versions newer than the parser, files listed but never flushed) and
/// salvaged what it could; so does ours.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LoadError {
    /// `manifest.json` is absent (or unreadable at the I/O level).
    MissingManifest {
        /// The manifest path that could not be read.
        path: PathBuf,
        /// The underlying I/O error.
        detail: String,
    },
    /// `manifest.json` exists but does not parse as a manifest.
    MalformedManifest {
        /// The parse error.
        detail: String,
    },
    /// The manifest declares a format version newer than this build
    /// understands. Sessions are still attempted best-effort.
    UnknownVersion {
        /// The version the manifest declares.
        found: u32,
        /// The newest version this build writes.
        supported: u32,
    },
    /// A session file named by the manifest is missing on disk.
    MissingSession {
        /// The manifest entry.
        name: String,
    },
    /// A session file exists but does not parse — truncation lands here.
    MalformedSession {
        /// The manifest entry.
        name: String,
        /// The parse error.
        detail: String,
    },
}

impl std::fmt::Display for LoadError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LoadError::MissingManifest { path, detail } => {
                write!(f, "manifest {} unreadable: {detail}", path.display())
            }
            LoadError::MalformedManifest { detail } => {
                write!(f, "manifest does not parse: {detail}")
            }
            LoadError::UnknownVersion { found, supported } => {
                write!(f, "dataset version {found} is newer than supported {supported}")
            }
            LoadError::MissingSession { name } => {
                write!(f, "session file {name} named by the manifest is missing")
            }
            LoadError::MalformedSession { name, detail } => {
                write!(f, "session file {name} does not parse: {detail}")
            }
        }
    }
}

impl std::error::Error for LoadError {}

/// Durably commit `contents` to `path`: write a process-unique `.tmp-`
/// sibling, fsync it, rename it into place, then fsync the parent
/// directory so the rename itself survives a host crash.
///
/// A bare tmp+rename leaves two holes this helper closes. First, a crash
/// after the rename can still lose the *rename* (the directory entry
/// lives in the parent directory's metadata, which is not flushed by the
/// file's own fsync) — an acknowledged checkpoint entry would silently
/// vanish. Second, a fixed `.tmp` sibling name lets two processes
/// committing the same path interleave their writes and rename a torn
/// hybrid into place; the pid suffix gives every writer its own staging
/// file, so concurrent committers of identical content race benignly.
/// Every durable write in the campaign engine — session files,
/// `checkpoint.json`, `manifest.json`, and the distributed coordinator's
/// lease renewals — funnels through here.
pub fn commit_file(path: &Path, contents: &[u8]) -> io::Result<()> {
    let parent = path.parent().filter(|p| !p.as_os_str().is_empty());
    let mut tmp = path.as_os_str().to_os_string();
    tmp.push(format!(".tmp-{}", std::process::id()));
    let tmp = PathBuf::from(tmp);
    {
        use std::io::Write as _;
        let mut file = std::fs::File::create(&tmp)?;
        file.write_all(contents)?;
        file.sync_all()?;
    }
    std::fs::rename(&tmp, path).inspect_err(|_| {
        let _ = std::fs::remove_file(&tmp);
    })?;
    if let Some(dir) = parent {
        sync_dir(dir)?;
    }
    Ok(())
}

/// Fsync a directory so recently committed renames inside it are
/// durable. No-op errors (e.g. a filesystem that refuses directory
/// handles) are not swallowed: durability is the point.
pub fn sync_dir(dir: &Path) -> io::Result<()> {
    std::fs::File::open(dir)?.sync_all()
}

/// Current manifest format version. Version 2 stores session traces in
/// the columnar wire form (one concatenated array per KPI column, flag
/// columns bit-packed into `u64` words); version 1 stored an array of row
/// objects. [`Dataset::load_session`] reads both.
pub const DATASET_VERSION: u32 = 2;

impl Dataset {
    /// Open (or designate) a dataset directory.
    pub fn at(root: impl Into<PathBuf>) -> Self {
        Dataset { root: root.into() }
    }

    /// The dataset root.
    pub fn root(&self) -> &Path {
        &self.root
    }

    fn sessions_dir(&self) -> PathBuf {
        self.root.join("sessions")
    }

    fn manifest_path(&self) -> PathBuf {
        self.root.join("manifest.json")
    }

    /// The canonical session file name: export index, operator acronym,
    /// seed.
    pub fn session_file_name(index: usize, result: &SessionResult) -> String {
        Dataset::session_file_name_for(index, &result.spec)
    }

    /// [`Dataset::session_file_name`] from the spec alone — the name is
    /// a pure function of `(index, spec)`, which lets distributed
    /// workers locate a session file before (re-)running it.
    pub fn session_file_name_for(index: usize, spec: &crate::session::SessionSpec) -> String {
        format!(
            "{:03}_{}_seed{}.json",
            index,
            spec.operator.acronym().replace(['[', ']'], ""),
            spec.seed
        )
    }

    /// Stream the canonical JSON encoding of one session record into `w`:
    /// `{"spec":…,"trace":…}`. The spec is small and goes through
    /// `serde_json::to_string`; the trace is written column by column
    /// straight from its chunks by [`KpiTrace::write_json`], through a
    /// bounded buffer, so no value tree or whole-file string is built.
    /// Export and checkpoint both encode through here, so their files
    /// are byte-identical.
    fn write_session_to<W: io::Write>(w: &mut W, result: &SessionResult) -> io::Result<()> {
        let spec = serde_json::to_string(&result.spec)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?;
        w.write_all(format!("{{\"spec\":{spec},\"trace\":").as_bytes())?;
        result.trace.write_json(w)?;
        w.write_all(b"}")
    }

    /// A sibling of `root` carrying the given suffix — staging and
    /// tombstone directories live next to the dataset, never inside it.
    fn sibling(&self, suffix: &str) -> PathBuf {
        let mut s = self.root.clone().into_os_string();
        s.push(suffix);
        PathBuf::from(s)
    }

    /// Export a batch of session results, writing the manifest and one
    /// JSON file per session. Returns the manifest.
    ///
    /// The export is **atomic at the directory level**: everything is
    /// staged into a `<root>.partial-<pid>` sibling first and swapped
    /// into place only once the manifest is on disk. A failure mid-export
    /// (full disk, killed process) leaves the previous dataset — or
    /// nothing — at `root`, never a torn half-export that `load_all`
    /// would trip over; a previous export at `root` is replaced
    /// wholesale, so stale session files from an older, larger campaign
    /// cannot shadow the new manifest.
    ///
    /// Session files are encoded in parallel, one file per work item on
    /// [`Executor::from_env`]; the manifest lists them in `results` order
    /// whatever order they finish in, so the directory is byte-identical
    /// at any thread count.
    pub fn export(
        &self,
        description: &str,
        results: &[SessionResult],
    ) -> io::Result<DatasetManifest> {
        self.export_on(&Executor::from_env(), description, results)
    }

    /// [`Dataset::export`] on an explicit executor.
    pub(crate) fn export_on(
        &self,
        executor: &Executor,
        description: &str,
        results: &[SessionResult],
    ) -> io::Result<DatasetManifest> {
        let _span = obs::span("dataset.export");
        let staging = self.sibling(&format!(".partial-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&staging);
        let staged = Dataset::at(&staging);
        let manifest = (|| -> io::Result<DatasetManifest> {
            let sessions_dir = staged.sessions_dir();
            std::fs::create_dir_all(&sessions_dir)?;
            let indices: Vec<usize> = (0..results.len()).collect();
            let names = executor.map(&indices, |&i| -> io::Result<String> {
                let name = Dataset::session_file_name(i, &results[i]);
                let mut file = std::fs::File::create(sessions_dir.join(&name))?;
                Dataset::write_session_to(&mut file, &results[i])?;
                Ok(name)
            });
            let manifest = DatasetManifest {
                description: description.to_string(),
                sessions: names.into_iter().collect::<io::Result<_>>()?,
                total_records: results.iter().map(|r| r.trace.len() as u64).sum(),
                version: DATASET_VERSION,
            };
            let json = serde_json::to_string_pretty(&manifest)
                .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?;
            std::fs::write(staged.manifest_path(), json)?;
            Ok(manifest)
        })()
        .inspect_err(|_| {
            let _ = std::fs::remove_dir_all(&staging);
        })?;

        // Swap the finished staging directory into place. An existing
        // dataset moves aside first so the rename into `root` cannot
        // collide; the tombstone is deleted once the swap lands.
        let stale = self.sibling(&format!(".stale-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&stale);
        let swap = (|| -> io::Result<()> {
            if self.root.symlink_metadata().is_ok() {
                std::fs::rename(&self.root, &stale)?;
            }
            std::fs::rename(&staging, &self.root)
        })()
        .inspect_err(|_| {
            let _ = std::fs::remove_dir_all(&staging);
        });
        swap?;
        // Make the directory swap itself durable: the renames live in the
        // parent directory's metadata, which the staged files' writes do
        // not flush.
        if let Some(parent) = self.root.parent().filter(|p| !p.as_os_str().is_empty()) {
            sync_dir(parent)?;
        }
        let _ = std::fs::remove_dir_all(&stale);

        let reg = obs::registry();
        reg.counter("dataset.exports").inc();
        reg.counter("dataset.exported_records").add(manifest.total_records);
        Ok(manifest)
    }

    /// Write one session into `sessions/` **incrementally** (no manifest
    /// involved) — the checkpoint path. The file goes through
    /// [`commit_file`] (process-unique tmp sibling, fsync, rename, parent
    /// directory fsync), so a kill mid-write never leaves a torn session
    /// file under its final name, a host crash cannot lose the rename,
    /// and two distributed workers committing the same deterministic
    /// session race benignly. Returns the file name.
    pub fn write_session(&self, index: usize, result: &SessionResult) -> io::Result<String> {
        std::fs::create_dir_all(self.sessions_dir())?;
        let name = Dataset::session_file_name(index, result);
        let mut bytes = Vec::new();
        Dataset::write_session_to(&mut bytes, result)?;
        commit_file(&self.sessions_dir().join(&name), &bytes)?;
        obs::registry().counter("dataset.checkpointed_sessions").inc();
        Ok(name)
    }

    /// Read the manifest.
    pub fn manifest(&self) -> io::Result<DatasetManifest> {
        let json = std::fs::read_to_string(self.manifest_path())?;
        serde_json::from_str(&json).map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))
    }

    /// Load one session by its manifest name.
    pub fn load_session(&self, name: &str) -> io::Result<SessionRecord> {
        let json = std::fs::read_to_string(self.sessions_dir().join(name))?;
        serde_json::from_str(&json).map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))
    }

    /// Load every session in manifest order.
    pub fn load_all(&self) -> io::Result<Vec<SessionRecord>> {
        self.manifest()?.sessions.iter().map(|n| self.load_session(n)).collect()
    }

    /// Load everything salvageable, in manifest order, with one typed
    /// [`LoadError`] per piece of data that could not be recovered.
    ///
    /// Unlike the all-or-nothing [`Dataset::load_all`], a truncated
    /// session file, a manifest entry whose file vanished, or a manifest
    /// from a newer format version each cost only what they name — every
    /// healthy session still loads. An unreadable or unparsable manifest
    /// is terminal (there is nothing to walk) and yields a single error.
    pub fn load_all_lossy(&self) -> (Vec<SessionRecord>, Vec<LoadError>) {
        let _span = obs::span("dataset.load_lossy");
        let mut errors = Vec::new();
        let manifest = match std::fs::read_to_string(self.manifest_path()) {
            Ok(json) => match serde_json::from_str::<DatasetManifest>(&json) {
                Ok(m) => m,
                Err(e) => {
                    errors.push(LoadError::MalformedManifest { detail: e.to_string() });
                    return (Vec::new(), errors);
                }
            },
            Err(e) => {
                errors.push(LoadError::MissingManifest {
                    path: self.manifest_path(),
                    detail: e.to_string(),
                });
                return (Vec::new(), errors);
            }
        };
        if manifest.version > DATASET_VERSION {
            // Newer collector than parser: note it, then salvage
            // best-effort — per-session sniffing may still understand
            // the files.
            errors.push(LoadError::UnknownVersion {
                found: manifest.version,
                supported: DATASET_VERSION,
            });
        }
        let mut records = Vec::with_capacity(manifest.sessions.len());
        for name in &manifest.sessions {
            match std::fs::read_to_string(self.sessions_dir().join(name)) {
                Ok(json) => match serde_json::from_str::<SessionRecord>(&json) {
                    Ok(record) => records.push(record),
                    Err(e) => errors.push(LoadError::MalformedSession {
                        name: name.clone(),
                        detail: e.to_string(),
                    }),
                },
                Err(e) if e.kind() == io::ErrorKind::NotFound => {
                    errors.push(LoadError::MissingSession { name: name.clone() });
                }
                Err(e) => errors.push(LoadError::MalformedSession {
                    name: name.clone(),
                    detail: e.to_string(),
                }),
            }
        }
        let reg = obs::registry();
        reg.counter("dataset.salvaged_sessions").add(records.len() as u64);
        reg.counter("dataset.load_errors").add(errors.len() as u64);
        (records, errors)
    }
}

/// Stream a KPI trace as CSV into a writer, one columnar chunk at a time:
/// rows are formatted into a buffer that is flushed every
/// [`CHUNK_RECORDS`] records, so exporting a multi-minute trace never
/// holds more than one chunk's worth of text in memory.
pub fn write_csv<W: io::Write>(trace: &KpiTrace, writer: &mut W) -> io::Result<()> {
    use std::fmt::Write as _;
    let mut buf = String::with_capacity(CHUNK_RECORDS * 96 + 128);
    buf.push_str(
        "slot,time_s,carrier,direction,scheduled,n_prb,n_re,mcs,modulation,layers,\
         tbs_bits,delivered_bits,is_retx,block_error,cqi,sinr_db,rsrp_dbm,rsrq_db,serving_site\n",
    );
    for (i, r) in trace.iter().enumerate() {
        let _ = writeln!(
            buf,
            "{},{:.6},{},{},{},{},{},{},{},{},{},{},{},{},{},{:.3},{:.3},{:.3},{}",
            r.slot,
            r.time_s,
            r.carrier,
            match r.direction {
                ran::kpi::Direction::Dl => "DL",
                ran::kpi::Direction::Ul => "UL",
            },
            r.scheduled,
            r.n_prb,
            r.n_re,
            r.mcs,
            r.modulation,
            r.layers,
            r.tbs_bits,
            r.delivered_bits,
            r.is_retx,
            r.block_error,
            r.cqi,
            r.sinr_db,
            r.rsrp_dbm,
            r.rsrq_db,
            r.serving_site,
        );
        if (i + 1) % CHUNK_RECORDS == 0 {
            writer.write_all(buf.as_bytes())?;
            buf.clear();
        }
    }
    writer.write_all(buf.as_bytes())?;
    writer.flush()
}

/// Render a KPI trace as CSV (one row per slot record) — the
/// spreadsheet-friendly form the paper's artifact repository ships next
/// to its raw captures. Convenience wrapper over [`write_csv`].
pub fn trace_to_csv(trace: &KpiTrace) -> String {
    let mut out = Vec::with_capacity(trace.len() * 96 + 128);
    write_csv(trace, &mut out).expect("writing to a Vec cannot fail");
    String::from_utf8(out).expect("CSV rows are ASCII")
}

#[cfg(test)]
mod tests {
    use super::*;
    use operators::Operator;
    use ran::kpi::Direction;

    fn tmpdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("midband5g-dataset-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn roundtrip_preserves_traces_exactly() {
        let results: Vec<SessionResult> = (0..2)
            .map(|i| {
                SessionResult::run(SessionSpec::stationary(Operator::VodafoneGermany, i, 1.0, 60 + i as u64))
            })
            .collect();
        let ds = Dataset::at(tmpdir("roundtrip"));
        let manifest = ds.export("test campaign", &results).unwrap();
        assert_eq!(manifest.sessions.len(), 2);
        assert_eq!(manifest.version, DATASET_VERSION);

        let loaded = ds.load_all().unwrap();
        assert_eq!(loaded.len(), 2);
        for (orig, back) in results.iter().zip(&loaded) {
            assert_eq!(orig.spec.seed, back.spec.seed);
            assert_eq!(orig.trace.len(), back.trace.len());
            // Figures recompute identically from the export.
            assert_eq!(
                orig.trace.mean_throughput_mbps(Direction::Dl),
                back.trace.mean_throughput_mbps(Direction::Dl)
            );
            assert_eq!(orig.trace.layer_shares(), back.trace.layer_shares());
        }
        std::fs::remove_dir_all(ds.root()).unwrap();
    }

    /// Every file of an exported dataset, by path relative to its root.
    fn dir_bytes(ds: &Dataset) -> Vec<(String, Vec<u8>)> {
        let manifest = std::fs::read(ds.manifest_path()).unwrap();
        let mut files = vec![("manifest.json".to_string(), manifest)];
        let mut names: Vec<String> = std::fs::read_dir(ds.sessions_dir())
            .unwrap()
            .map(|e| e.unwrap().file_name().into_string().unwrap())
            .collect();
        names.sort();
        for name in names {
            let bytes = std::fs::read(ds.sessions_dir().join(&name)).unwrap();
            files.push((format!("sessions/{name}"), bytes));
        }
        files
    }

    fn mixed_results() -> Vec<SessionResult> {
        [Operator::VodafoneGermany, Operator::VerizonUs, Operator::AttUs, Operator::OrangeSpain100]
            .into_iter()
            .enumerate()
            .map(|(i, op)| SessionResult::run(SessionSpec::stationary(op, i, 0.3, 90 + i as u64)))
            .collect()
    }

    #[test]
    fn export_is_byte_identical_across_thread_counts() {
        let results = mixed_results();
        let reference = Dataset::at(tmpdir("threads-1"));
        reference.export_on(&Executor::sequential(), "threads", &results).unwrap();
        let expected = dir_bytes(&reference);
        assert_eq!(expected.len(), results.len() + 1);
        for threads in [2, 8] {
            let ds = Dataset::at(tmpdir(&format!("threads-{threads}")));
            ds.export_on(&Executor::new(threads), "threads", &results).unwrap();
            assert!(dir_bytes(&ds) == expected, "export differs at {threads} threads");
            std::fs::remove_dir_all(ds.root()).unwrap();
        }
        std::fs::remove_dir_all(reference.root()).unwrap();
    }

    #[test]
    fn checkpoint_file_matches_the_exported_file() {
        let results = mixed_results();
        let exported = Dataset::at(tmpdir("ckpt-export"));
        let manifest = exported.export("ckpt", &results).unwrap();
        let checkpoint = Dataset::at(tmpdir("ckpt-write"));
        for (i, r) in results.iter().enumerate() {
            let name = checkpoint.write_session(i, r).unwrap();
            assert_eq!(name, manifest.sessions[i]);
            assert!(
                std::fs::read(checkpoint.sessions_dir().join(&name)).unwrap()
                    == std::fs::read(exported.sessions_dir().join(&name)).unwrap(),
                "{name}: checkpoint bytes differ from export bytes"
            );
        }
        std::fs::remove_dir_all(exported.root()).unwrap();
        std::fs::remove_dir_all(checkpoint.root()).unwrap();
    }

    #[test]
    fn missing_manifest_is_a_clean_error() {
        let ds = Dataset::at(tmpdir("missing"));
        assert!(ds.manifest().is_err());
        assert!(ds.load_session("nope.json").is_err());
    }

    #[test]
    fn csv_export_shape() {
        let r = SessionResult::run(SessionSpec::stationary(Operator::VodafoneGermany, 0, 0.2, 4));
        let csv = trace_to_csv(&r.trace);
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines.len(), r.trace.len() + 1, "header + one row per record");
        assert!(lines[0].starts_with("slot,time_s,carrier,direction"));
        let cols = lines[0].split(',').count();
        for line in &lines[1..] {
            assert_eq!(line.split(',').count(), cols, "ragged row: {line}");
        }
        // Directions render as DL/UL.
        assert!(lines[1..].iter().all(|l| l.contains(",DL,") || l.contains(",UL,")));
    }

    #[test]
    fn record_counts_accumulate() {
        let results = vec![SessionResult::run(SessionSpec::stationary(
            Operator::AttUs,
            0,
            0.5,
            3,
        ))];
        let ds = Dataset::at(tmpdir("counts"));
        let manifest = ds.export("one", &results).unwrap();
        assert_eq!(manifest.total_records, results[0].trace.len() as u64);
        std::fs::remove_dir_all(ds.root()).unwrap();
    }

    #[test]
    fn v1_fixture_still_loads() {
        // A committed dataset exported before the columnar refactor:
        // row-object traces, version 1 manifest.
        let ds = Dataset::at(concat!(env!("CARGO_MANIFEST_DIR"), "/tests/fixtures/v1_dataset"));
        let manifest = ds.manifest().unwrap();
        assert_eq!(manifest.version, 1);
        let record = ds.load_session(&manifest.sessions[0]).unwrap();
        assert_eq!(record.trace.len(), 3);
        let first = record.trace.get(0).unwrap();
        assert_eq!(first.slot, 0);
        assert_eq!(first.modulation, ran::kpi::Modulation::Qam256);
        assert!(first.scheduled);
        assert_eq!(record.trace.iter().filter(|r| r.direction == Direction::Ul).count(), 1);
        // load_all follows the manifest the same way.
        assert_eq!(ds.load_all().unwrap().len(), manifest.sessions.len());
    }
}
