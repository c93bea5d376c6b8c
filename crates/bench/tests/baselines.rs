//! The committed `BENCH_*.json` baselines are one ledger: every report
//! `bench_compare` diffs is committed, parses under the row schema with
//! unique row names, and all of them come from one commit on one host,
//! so `./ci.sh perf` compares like with like.

use std::path::Path;

use adc_bench::ledger::{Report, REPORTS};

fn repo_root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("crates/bench sits two levels below the repo root")
}

#[test]
fn committed_baselines_are_one_ledger() {
    let mut committed: Vec<String> = std::fs::read_dir(repo_root())
        .expect("read repo root")
        .map(|entry| {
            entry
                .expect("dir entry")
                .file_name()
                .to_string_lossy()
                .into_owned()
        })
        .filter(|name| name.starts_with("BENCH_") && name.ends_with(".json"))
        .collect();
    committed.sort();
    let mut expected: Vec<String> = REPORTS.iter().map(|r| r.to_string()).collect();
    expected.sort();
    assert_eq!(
        committed, expected,
        "committed reports vs the ledger's list"
    );

    let reports: Vec<Report> = REPORTS
        .iter()
        .map(|file| {
            let text = std::fs::read_to_string(repo_root().join(file))
                .unwrap_or_else(|e| panic!("read {file}: {e}"));
            // `parse` enforces the row schema and unique row names.
            let report = Report::parse(&text).unwrap_or_else(|e| panic!("{file}: {e}"));
            assert!(!report.rows.is_empty(), "{file} has no rows");
            report
        })
        .collect();
    let first = &reports[0].provenance;
    for (file, report) in REPORTS.iter().zip(&reports) {
        assert_eq!(
            report.provenance.git_commit, first.git_commit,
            "{file}: every baseline comes from one commit"
        );
        assert_eq!(
            report.provenance.host_cpus, first.host_cpus,
            "{file}: every baseline comes from one host"
        );
    }
    assert_ne!(first.git_commit, "unknown", "baselines carry their commit");
}
