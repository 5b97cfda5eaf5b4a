//! Golden dataset v2 bytes.
//!
//! `tests/fixtures/v2_dataset/` was exported by the `serde_json::Value`
//! tree encoder that preceded the streaming writer, from the three short
//! sessions [`golden_results`] builds: a single-carrier operator, a
//! carrier-aggregation operator (records with `carrier > 0`) and a
//! congestion-window transport behind CoDel (non-zero queue columns).
//! Re-exporting the same sessions must reproduce every session file and
//! `manifest.json` byte for byte, so the wire format is pinned against
//! committed bytes rather than against a second live encoder.
//!
//! To regenerate after a *deliberate* format change:
//! `cargo test -p measure --test golden_v2 -- --ignored regenerate`.

use measure::dataset::{Dataset, DATASET_VERSION};
use measure::session::{SessionResult, SessionSpec};
use operators::Operator;
use ran::workload::{AqmSpec, WorkloadSpec};
use std::path::{Path, PathBuf};

const DESCRIPTION: &str = "golden v2 fixture";

fn fixture_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/v2_dataset")
}

/// The generating specs: ~0.2 s sessions, cheap enough to rerun per test.
fn golden_results() -> Vec<SessionResult> {
    let cwnd = WorkloadSpec::Cwnd { aqm: AqmSpec::CoDel { limit_kbit: 2_000 } };
    vec![
        SessionResult::run(SessionSpec::stationary(Operator::VodafoneGermany, 0, 0.2, 11)),
        SessionResult::run(SessionSpec::stationary(Operator::VerizonUs, 1, 0.2, 12)),
        SessionResult::run_workload(SessionSpec::stationary(Operator::VodafoneSpain, 0, 0.2, 13), &cwnd)
            .result,
    ]
}

fn tmpdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("midband5g-golden-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn read(path: &Path) -> Vec<u8> {
    std::fs::read(path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

#[test]
fn golden_sessions_cover_the_column_edge_cases() {
    let results = golden_results();
    assert!(results[0].trace.iter().all(|r| r.carrier == 0), "single-carrier operator");
    assert!(results[1].trace.iter().any(|r| r.carrier > 0), "CA operator has an SCell");
    assert!(results[2].trace.iter().any(|r| r.queue_bits > 0), "queue_bits column populated");
    assert!(results[2].trace.iter().any(|r| r.queue_delay_ms > 0.0), "queue_delay_ms populated");
}

#[test]
fn export_reproduces_the_golden_bytes() {
    let results = golden_results();
    let ds = Dataset::at(tmpdir("export"));
    let manifest = ds.export(DESCRIPTION, &results).unwrap();
    assert_eq!(manifest.version, DATASET_VERSION);
    let golden = fixture_dir();
    assert_eq!(
        read(&ds.root().join("manifest.json")),
        read(&golden.join("manifest.json")),
        "manifest.json differs from the golden fixture"
    );
    for name in &manifest.sessions {
        let rel = Path::new("sessions").join(name);
        assert!(
            read(&ds.root().join(&rel)) == read(&golden.join(&rel)),
            "{name} differs from the golden fixture"
        );
    }
    let on_disk = std::fs::read_dir(golden.join("sessions")).unwrap().count();
    assert_eq!(on_disk, manifest.sessions.len(), "fixture holds exactly the manifest's files");
    std::fs::remove_dir_all(ds.root()).unwrap();
}

#[test]
fn golden_fixture_loads_to_the_generating_traces() {
    let ds = Dataset::at(fixture_dir());
    let manifest = ds.manifest().unwrap();
    assert_eq!(manifest.version, 2);
    assert_eq!(manifest.description, DESCRIPTION);
    let loaded = ds.load_all().unwrap();
    let results = golden_results();
    assert_eq!(loaded.len(), results.len());
    for (back, orig) in loaded.iter().zip(&results) {
        assert_eq!(back.spec, orig.spec);
        assert_eq!(back.trace, orig.trace, "{:?} trace changed", orig.spec.operator);
    }
}

#[test]
#[ignore = "rewrites the committed fixture"]
fn regenerate() {
    Dataset::at(fixture_dir()).export(DESCRIPTION, &golden_results()).unwrap();
}
