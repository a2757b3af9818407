//! Segmented ingest is observably identical to the sequential reader.
//!
//! `ingest_slice_traced` splits the input into line-aligned byte segments
//! and scans them in parallel. These tests pin the merge contract end to
//! end: for every thread count and both ingest policies, the entries, the
//! ingest statistics, the quarantine sidecar bytes, and the *pipeline
//! outputs computed from the ingested log* (clean log, removal log) are
//! byte-identical to a sequential `read_log_with` scan — including on a
//! hostile corpus whose quarantined lines straddle segment boundaries.

use sqlog_catalog::skyserver_catalog;
use sqlog_core::{ingest_slice_traced, Pipeline, PipelineConfig};
use sqlog_gen::{generate, GenConfig};
use sqlog_log::{read_log_with, write_log, IngestPolicy, QueryLog};
use sqlog_obs::Recorder;

const THREADS: [usize; 4] = [1, 2, 8, 0]; // 0 = auto (one per core)

/// A generated workload serialized to TSV — clean lines only.
fn clean_corpus() -> Vec<u8> {
    let log = generate(&GenConfig::with_scale(4_000, 99));
    let mut data = Vec::new();
    write_log(&log, &mut data).unwrap();
    data
}

/// The clean corpus with garbage interleaved *pervasively*, so that at every
/// thread count some quarantined line straddles or abuts a segment cut:
/// every few lines carry a wrong field count, invalid UTF-8, a blank line,
/// or a CRLF terminator, and the file ends without a newline.
fn hostile_corpus() -> Vec<u8> {
    let clean = clean_corpus();
    let mut data = Vec::new();
    for (i, line) in clean.split_inclusive(|&b| b == b'\n').enumerate() {
        data.extend_from_slice(line);
        match i % 5 {
            0 => data.extend_from_slice(b"garbage line without enough tabs\n"),
            1 => data.extend_from_slice(b"\n"),
            2 => data.extend_from_slice(b"9\t9\t\xFF\t\t\t\tSELECT 1\n"),
            3 => data.extend_from_slice(b"8\t8\tu\t\t\t\tSELECT 2\r\n"),
            _ => {}
        }
    }
    data.extend_from_slice(b"trailing line with no terminator");
    data
}

/// Sequential reference scan.
fn sequential(data: &[u8], policy: IngestPolicy) -> Result<(QueryLog, Vec<u8>), String> {
    let mut quarantine = Vec::new();
    read_log_with(data, policy, Some(&mut quarantine))
        .map(|(log, _)| (log, quarantine))
        .map_err(|e| e.to_string())
}

/// Segmented scan at a given thread count.
fn segmented(
    data: &[u8],
    policy: IngestPolicy,
    threads: usize,
) -> Result<(QueryLog, Vec<u8>), String> {
    let mut quarantine = Vec::new();
    ingest_slice_traced(
        data,
        policy,
        threads,
        Some(&mut quarantine),
        &Recorder::disabled(),
        None,
    )
    .map(|(log, _)| (log, quarantine))
    .map_err(|e| e.to_string())
}

#[test]
fn segmented_ingest_matches_sequential_on_clean_and_hostile_corpora() {
    for (label, data) in [("clean", clean_corpus()), ("hostile", hostile_corpus())] {
        for policy in [IngestPolicy::Strict, IngestPolicy::Lenient] {
            let seq = sequential(&data, policy);
            for threads in THREADS {
                let seg = segmented(&data, policy, threads);
                assert_eq!(seg, seq, "{label}, {policy:?}, threads={threads}");
            }
        }
    }
}

#[test]
fn pipeline_outputs_from_segmented_ingest_are_byte_identical() {
    // End to end: hostile corpus → lenient ingest → pipeline. Clean and
    // removal logs must not depend on the segment count, with the parse
    // cache on or off.
    let data = hostile_corpus();
    let (seq_log, seq_quarantine) = sequential(&data, IngestPolicy::Lenient).unwrap();
    assert!(
        !seq_quarantine.is_empty(),
        "corpus must exercise quarantine"
    );
    let catalog = skyserver_catalog();
    let run = |log: &QueryLog, cache: bool| {
        let cfg = PipelineConfig {
            parse_cache: cache,
            ..PipelineConfig::default()
        };
        Pipeline::new(&catalog).with_config(cfg).run(log)
    };
    for cache in [false, true] {
        let reference = run(&seq_log, cache);
        for threads in THREADS {
            let (log, quarantine) = segmented(&data, IngestPolicy::Lenient, threads).unwrap();
            assert_eq!(quarantine, seq_quarantine, "threads={threads}");
            let result = run(&log, cache);
            assert_eq!(
                result.clean_log, reference.clean_log,
                "clean log differs: threads={threads}, cache={cache}"
            );
            assert_eq!(
                result.removal_log, reference.removal_log,
                "removal log differs: threads={threads}, cache={cache}"
            );
        }
    }
}
