//! `sqlog-clean` ingestion policies, end to end through the real binary.
//!
//! A corrupted input file (structural damage, invalid UTF-8, a depth-bomb
//! statement) must abort a strict run with exit 1, while `--lenient` runs
//! to completion: bad lines copied verbatim to the `--quarantine` sidecar,
//! the run-health section reporting every count, and exit 2 — the
//! "completed but degraded" code. A fault-free run exits 0. These three
//! exit codes are a documented contract, pinned here.

use sqlog::core::RunReport;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::Command;

const BIN: &str = env!("CARGO_BIN_EXE_sqlog-clean");

/// A scratch directory unique to this test process, removed on drop.
struct Scratch(PathBuf);

impl Scratch {
    fn new(label: &str) -> Scratch {
        let dir = std::env::temp_dir().join(format!("sqlog-cli-{label}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("create scratch dir");
        Scratch(dir)
    }

    fn path(&self, name: &str) -> PathBuf {
        self.0.join(name)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

const MALFORMED_LINE: &[u8] = b"definitely not a log line";
const UTF8_LINE: &[u8] = b"9\t9000\tu2\t\t\t\tSELECT \xFF FROM t";

fn corrupted_fixture() -> Vec<u8> {
    let mut raw: Vec<u8> = Vec::new();
    raw.extend_from_slice(b"0\t0\tu1\t\t\t\tSELECT name FROM Employee WHERE empId = 8\n");
    raw.extend_from_slice(MALFORMED_LINE);
    raw.push(b'\n');
    raw.extend_from_slice(b"1\t1000\tu1\t\t\t\tSELECT name FROM Employee WHERE empId = 1\n");
    raw.extend_from_slice(UTF8_LINE);
    raw.push(b'\n');
    let bomb = format!(
        "2\t2000\tu1\t\t\t\tSELECT {}1{}\n",
        "(".repeat(10_000),
        ")".repeat(10_000)
    );
    raw.extend_from_slice(bomb.as_bytes());
    raw.extend_from_slice(b"3\t3000\tu1\t\t\t\tSELECT ra, dec FROM photoprimary WHERE objid=3\n");
    raw
}

#[test]
fn strict_mode_aborts_on_corrupted_input() {
    let scratch = Scratch::new("strict");
    let input = scratch.path("corrupted.tsv");
    std::fs::write(&input, corrupted_fixture()).expect("write fixture");

    let out = Command::new(BIN)
        .args(["--in", input.to_str().unwrap()])
        .output()
        .expect("run sqlog-clean");
    assert_eq!(
        out.status.code(),
        Some(1),
        "strict run must exit 1 (fatal) on a corrupted log"
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("malformed log line 2"), "stderr: {stderr}");
}

#[test]
fn lenient_mode_runs_to_completion_with_quarantine_and_health_report() {
    let scratch = Scratch::new("lenient");
    let input = scratch.path("corrupted.tsv");
    let clean = scratch.path("clean.tsv");
    let quarantine = scratch.path("bad.tsv");
    let stats = scratch.path("stats.json");
    std::fs::write(&input, corrupted_fixture()).expect("write fixture");

    let args = [
        "--in",
        input.to_str().unwrap(),
        "--out",
        clean.to_str().unwrap(),
        "--lenient",
        "--quarantine",
        quarantine.to_str().unwrap(),
        "--stats-json",
        stats.to_str().unwrap(),
    ];
    let out = Command::new(BIN)
        .args(args)
        .output()
        .expect("run sqlog-clean");
    let stderr = String::from_utf8_lossy(&out.stderr);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(
        out.status.code(),
        Some(2),
        "a lenient run that quarantined lines completed degraded: exit 2\n{stderr}"
    );

    // The sidecar holds exactly the two unreadable lines, verbatim.
    let mut expected = Vec::new();
    expected.extend_from_slice(MALFORMED_LINE);
    expected.push(b'\n');
    expected.extend_from_slice(UTF8_LINE);
    expected.push(b'\n');
    assert_eq!(std::fs::read(&quarantine).expect("read sidecar"), expected);
    let reported = format!(
        "quarantined 2 unreadable lines (1 malformed, 1 invalid UTF-8), copied to {}",
        quarantine.display()
    );
    assert!(stderr.contains(&reported), "stderr: {stderr}");

    // The statistics report carries the run-health accounting.
    assert!(stdout.contains("Run health"), "stdout: {stdout}");
    assert!(stdout.contains("degraded"), "stdout: {stdout}");
    assert!(stdout.contains("2 (1 invalid UTF-8)"), "stdout: {stdout}");
    assert!(
        stdout.contains("limit-rejected statements"),
        "stdout: {stdout}"
    );

    // The clean log was produced: the surviving DW pair collapses into one
    // IN-query, the photoprimary query passes through.
    let clean_text = std::fs::read_to_string(&clean).expect("read clean log");
    assert!(clean_text.contains("IN (8, 1)"), "clean: {clean_text}");
    assert!(clean_text.contains("photoprimary"), "clean: {clean_text}");

    // A checkpointed run reads the input through the same ingest: the same
    // stderr report, `ingest.*` counters and warning events.
    let ingest_obs = || {
        let report = RunReport::parse(&std::fs::read_to_string(&stats).expect("read stats"))
            .expect("parse run report");
        let counters: BTreeMap<String, u64> = report
            .obs
            .counters
            .into_iter()
            .filter(|(name, _)| name.starts_with("ingest."))
            .collect();
        (counters, report.obs.warnings)
    };
    let plain = ingest_obs();
    assert_eq!(
        plain.0.get("ingest.quarantined_lines"),
        Some(&2),
        "{plain:?}"
    );
    assert_eq!(
        plain.0.get("ingest.invalid_utf8_lines"),
        Some(&1),
        "{plain:?}"
    );
    assert_eq!(plain.1.len(), 1, "{plain:?}");
    let out = Command::new(BIN)
        .args(args)
        .args(["--run-dir", scratch.path("run").to_str().unwrap()])
        .output()
        .expect("run sqlog-clean --run-dir");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "--run-dir: {stderr}");
    assert!(stderr.contains(&reported), "--run-dir stderr: {stderr}");
    assert_eq!(ingest_obs(), plain, "--run-dir changed the ingest report");
    assert_eq!(std::fs::read(&quarantine).expect("read sidecar"), expected);
}

#[test]
fn quarantine_without_lenient_is_rejected() {
    let out = Command::new(BIN)
        .args(["--in", "whatever.tsv", "--quarantine", "bad.tsv"])
        .output()
        .expect("run sqlog-clean");
    assert_eq!(out.status.code(), Some(1), "usage errors are fatal: exit 1");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("--quarantine requires --lenient"),
        "{stderr}"
    );
}

#[test]
fn healthy_run_exits_zero_and_help_exits_zero() {
    let scratch = Scratch::new("healthy");
    let input = scratch.path("ok.tsv");
    std::fs::write(
        &input,
        b"0\t0\tu1\t\t\t\tSELECT name FROM Employee WHERE empId = 8\n\
          1\t1000\tu1\t\t\t\tSELECT name FROM Employee WHERE empId = 1\n",
    )
    .expect("write fixture");

    let out = Command::new(BIN)
        .args(["--in", input.to_str().unwrap()])
        .output()
        .expect("run sqlog-clean");
    assert_eq!(out.status.code(), Some(0), "clean run exits 0");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("clean (no faults)"), "stdout: {stdout}");

    let help = Command::new(BIN).args(["--help"]).output().expect("help");
    assert_eq!(help.status.code(), Some(0), "--help exits 0");
}
