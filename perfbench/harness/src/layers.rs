//! The traced in-process pipeline run: every stage operator called from
//! here, one span per call, then the clean and removal logs written the way
//! `sqlog-clean` writes them.

use crate::trace::Tracer;
use sqlog_catalog::skyserver_catalog;
use sqlog_core::{
    ingest_file_traced, run_checkpointed, CheckpointOptions, Pipeline, PipelineConfig,
    PipelineResult, RunDir, Stage, StageTimings, Statistics, TemplateStore,
};
use sqlog_gen::TruthSidecar;
use sqlog_log::{write_log_file_atomic, IngestPolicy};
use sqlog_obs::{Json, Recorder};
use std::path::Path;
use std::time::Instant;

/// Per-layer metrics, by name.
pub type Metrics = Vec<(&'static str, f64)>;

/// Layer metrics and checks of one traced run.
pub struct Traced {
    /// The assembled result (outputs already on disk).
    pub result: PipelineResult,
    /// Per-layer metrics.
    pub metrics: Metrics,
    /// Failed correctness checks (empty = all passed).
    pub problems: Vec<String>,
    /// Table-5 counts, for the results file.
    pub table5: Json,
}

fn config(threads: usize, rec: &Recorder) -> PipelineConfig {
    PipelineConfig {
        parallelism: threads,
        recorder: rec.clone(),
        ..PipelineConfig::default()
    }
}

/// Runs ingest → … → assemble → write on `input` at `threads` threads.
pub fn traced_pipeline(
    tr: &mut Tracer,
    input: &Path,
    threads: usize,
    clean_out: &Path,
    removal_out: &Path,
    truth: Option<&Path>,
) -> Result<Traced, String> {
    // The recorder is on so the stages' own counters (prefilter, cache,
    // batching) can be read back; outputs are pinned identical either way.
    let rec = Recorder::new();
    let catalog = skyserver_catalog();
    let pipeline = Pipeline::new(&catalog).with_config(config(threads, &rec));
    let input_bytes = std::fs::metadata(input).map_err(|e| e.to_string())?.len();

    let (log, _ingest_stats) = tr
        .span("ingest", || {
            ingest_file_traced(input, IngestPolicy::Strict, threads, None, &rec, None)
        })
        .map_err(|e| format!("ingest {}: {e}", input.display()))?;
    let view = tr.span("sort", || pipeline.op_sort(&log));
    let (pre_clean, dedup_stats) = tr.span("dedup", || pipeline.op_dedup(&view));
    let store = TemplateStore::with_recorder(rec.clone());
    let parsed = tr.span("parse", || pipeline.op_parse(&pre_clean, &store));
    let sessions = tr.span("sessions", || {
        pipeline.op_sessions(&pre_clean, &parsed.records)
    });
    let mined = tr.span("mine", || pipeline.op_mine(&sessions, &parsed.records));
    let detected = tr.span("detect", || {
        pipeline.op_detect(&pre_clean, &parsed.records, &sessions, &store)
    });
    let outcome = tr.span("solve", || {
        pipeline.op_solve(&pre_clean, &parsed.records, &sessions, &store, &detected)
    });
    let n_sessions = sessions.sessions.len();
    let n_instances = detected.instances.len();
    let pre_clean_len = pre_clean.len();
    let result = tr.span("assemble", || {
        pipeline.assemble(
            log.len(),
            &pre_clean,
            &dedup_stats,
            parsed,
            &sessions,
            mined,
            detected,
            outcome,
            store,
            StageTimings::default(),
        )
    });
    tr.span("write", || {
        write_log_file_atomic(&result.clean_log, clean_out)
            .and_then(|()| write_log_file_atomic(&result.removal_log, removal_out))
    })
    .map_err(|e| format!("write outputs: {e}"))?;

    let counters = rec.counters();
    let counter = |name: &str| counters.get(name).copied().unwrap_or(0) as f64;
    let st = &result.stats;
    let prefilter = counter("dedup.prefilter_hits") + counter("dedup.prefilter_misses");
    let cache = st.parse_cache;
    let cache_lookups = (cache.hits + cache.misses + cache.fallbacks) as f64;
    let written = std::fs::metadata(clean_out).map(|m| m.len()).unwrap_or(0)
        + std::fs::metadata(removal_out).map(|m| m.len()).unwrap_or(0);
    let metrics = vec![
        ("ingest.ms", tr.ms("ingest")),
        (
            "ingest.mb_per_s",
            input_bytes as f64 / MIB / (tr.ms("ingest") / 1e3).max(1e-9),
        ),
        ("ingest.rss_delta_mb", tr.rss_delta_mb("ingest")),
        ("sort.ms", tr.ms("sort")),
        ("dedup.ms", tr.ms("dedup")),
        ("dedup.removed", st.duplicates_removed as f64),
        (
            "dedup.prefilter_hit_ratio",
            ratio(counter("dedup.prefilter_hits"), prefilter),
        ),
        (
            "dedup.prefilter_bailouts",
            counter("dedup.prefilter_bailouts"),
        ),
        ("parse.ms", tr.ms("parse")),
        (
            "parse.us_per_record",
            tr.ms("parse") * 1e3 / pre_clean_len.max(1) as f64,
        ),
        (
            "parse.cache_hit_ratio",
            ratio(cache.hits as f64, cache_lookups),
        ),
        ("parse.cache_fallbacks", cache.fallbacks as f64),
        ("parse.templates", result.store.len() as f64),
        ("parse.rss_delta_mb", tr.rss_delta_mb("parse")),
        ("sessions.ms", tr.ms("sessions")),
        ("sessions.count", n_sessions as f64),
        ("mine.ms", tr.ms("mine")),
        ("mine.patterns", st.pattern_count as f64),
        ("detect.ms", tr.ms("detect")),
        ("detect.instances", n_instances as f64),
        ("solve.ms", tr.ms("solve")),
        (
            "solve.useful_ratio",
            ratio(st.solved_instances as f64, n_instances as f64),
        ),
        (
            "solve.batched_templates",
            counter("solve.batched_templates"),
        ),
        ("solve.rss_delta_mb", tr.rss_delta_mb("solve")),
        ("assemble.ms", tr.ms("assemble")),
        ("write.ms", tr.ms("write")),
        ("write.mb", written as f64 / MIB),
    ];

    let mut problems = table5_problems(st);
    if let Some(path) = truth {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
        let truth = TruthSidecar::parse(&text)?;
        let recall = sqlog_conformance::recall::score_recall(&truth, &result);
        if recall.recall() < 1.0 {
            problems.push(format!(
                "planted-instance recall {:.4} < 1.0 ({} of {} missed; first: {})",
                recall.recall(),
                recall.expected - recall.detected,
                recall.expected,
                recall.missed.first().map(String::as_str).unwrap_or("")
            ));
        }
    }
    let table5 = Json::obj(vec![
        ("original", Json::U64(st.original_size as u64)),
        ("duplicates", Json::U64(st.duplicates_removed as u64)),
        ("after_dedup", Json::U64(st.after_dedup as u64)),
        ("selects", Json::U64(st.select_count as u64)),
        ("errors", Json::U64(st.syntax_errors as u64)),
        ("non_select", Json::U64(st.non_select as u64)),
        (
            "limit_rejected",
            Json::U64(st.run_health.limit_rejected as u64),
        ),
        ("final", Json::U64(st.final_size as u64)),
        ("removal", Json::U64(st.removal_size as u64)),
        ("solved_instances", Json::U64(st.solved_instances as u64)),
    ]);
    Ok(Traced {
        result,
        metrics,
        problems,
        table5,
    })
}

/// The Table-5 identities: original = duplicates + after-dedup, and
/// after-dedup = SELECTs + errors + non-SELECTs (the parse step counts a
/// limit-rejected statement among its errors, so it is not added again).
pub fn table5_problems(st: &Statistics) -> Vec<String> {
    let mut problems = Vec::new();
    if st.original_size != st.duplicates_removed + st.after_dedup {
        problems.push(format!(
            "original {} != duplicates {} + after-dedup {}",
            st.original_size, st.duplicates_removed, st.after_dedup
        ));
    }
    if st.after_dedup != st.select_count + st.syntax_errors + st.non_select {
        problems.push(format!(
            "after-dedup {} != selects {} + errors {} (incl. {} limit-rejected) + non-select {}",
            st.after_dedup,
            st.select_count,
            st.syntax_errors,
            st.run_health.limit_rejected,
            st.non_select
        ));
    }
    if st.run_health.limit_rejected > st.syntax_errors {
        problems.push(format!(
            "limit-rejected {} exceeds errors {}",
            st.run_health.limit_rejected, st.syntax_errors
        ));
    }
    problems
}

/// The checkpoint layer on `input`: a plain run, a checkpointed run, and
/// a resume after stopping at the end of detection (solve re-runs).
pub fn traced_checkpoint(
    tr: &mut Tracer,
    input: &Path,
    threads: usize,
    work: &Path,
) -> Result<(Metrics, Vec<String>), String> {
    let catalog = skyserver_catalog();
    let rec = Recorder::disabled();
    let pipeline = Pipeline::new(&catalog).with_config(config(threads, &rec));
    let input_bytes = std::fs::metadata(input).map_err(|e| e.to_string())?.len();
    let out = |name: &str| work.join(name);

    let t = Instant::now();
    let plain = tr.span("plain", || -> Result<PipelineResult, String> {
        let (log, _) = ingest_file_traced(input, IngestPolicy::Strict, threads, None, &rec, None)
            .map_err(|e| e.to_string())?;
        let result = pipeline.run(&log);
        write_log_file_atomic(&result.clean_log, out("plain.clean.tsv"))
            .and_then(|()| write_log_file_atomic(&result.removal_log, out("plain.removal.tsv")))
            .map_err(|e| e.to_string())?;
        Ok(result)
    })?;
    let plain_ms = t.elapsed().as_secs_f64() * 1e3;
    drop(plain);

    let run = |dir: &Path, resume: bool, stop_after: Option<Stage>, tag: &str| {
        let rd = if resume {
            RunDir::open(dir)?
        } else {
            RunDir::create(dir)?
        };
        let opts = CheckpointOptions {
            input: input.to_path_buf(),
            policy: IngestPolicy::Strict,
            quarantine: None,
            resume,
            stop_after,
        };
        let outcome = run_checkpointed(&pipeline, &rd, &opts)?;
        if let Some(o) = &outcome {
            write_log_file_atomic(&o.result.clean_log, out(&format!("{tag}.clean.tsv")))
                .and_then(|()| {
                    write_log_file_atomic(&o.result.removal_log, out(&format!("{tag}.removal.tsv")))
                })
                .map_err(|e| e.to_string())?;
            rd.mark_completed()?;
        }
        Ok::<_, String>(outcome.is_some())
    };

    let dir = out("run");
    let dir2 = out("run-resume");
    for d in [&dir, &dir2] {
        let _ = std::fs::remove_dir_all(d);
    }
    let t = Instant::now();
    tr.span("checkpoint", || run(&dir, false, None, "ckpt"))?;
    let ckpt_ms = t.elapsed().as_secs_f64() * 1e3;
    let run_dir_bytes = dir_bytes(&dir);
    tr.span("checkpoint.interrupted", || {
        run(&dir2, false, Some(Stage::Detect), "unused")
    })?;
    let t = Instant::now();
    tr.span("checkpoint.resume", || run(&dir2, true, None, "resumed"))?;
    let resume_s = t.elapsed().as_secs_f64();

    let mut problems = Vec::new();
    for tag in ["ckpt", "resumed"] {
        for kind in ["clean", "removal"] {
            let a = std::fs::read(out(&format!("plain.{kind}.tsv"))).map_err(|e| e.to_string())?;
            let b = std::fs::read(out(&format!("{tag}.{kind}.tsv"))).map_err(|e| e.to_string())?;
            if a != b {
                problems.push(format!("{tag} {kind} log differs from the plain run"));
            }
        }
    }
    let output_bytes = file_len(&out("ckpt.clean.tsv")) + file_len(&out("ckpt.removal.tsv"));
    let metrics = vec![
        ("checkpoint.ms", ckpt_ms - plain_ms),
        ("checkpoint.mb", run_dir_bytes as f64 / MIB),
        ("checkpoint.resume_s", resume_s),
        (
            "checkpoint.disk_bytes_per_input_byte",
            (run_dir_bytes + output_bytes) as f64 / input_bytes.max(1) as f64,
        ),
    ];
    for d in [&dir, &dir2] {
        let _ = std::fs::remove_dir_all(d);
    }
    Ok((metrics, problems))
}

fn file_len(p: &Path) -> u64 {
    std::fs::metadata(p).map(|m| m.len()).unwrap_or(0)
}

/// Bytes of all regular files under `dir`.
pub fn dir_bytes(dir: &Path) -> u64 {
    let Ok(rd) = std::fs::read_dir(dir) else {
        return 0;
    };
    rd.flatten()
        .map(|e| match e.file_type() {
            Ok(t) if t.is_dir() => dir_bytes(&e.path()),
            Ok(_) => e.metadata().map(|m| m.len()).unwrap_or(0),
            Err(_) => 0,
        })
        .sum()
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

const MIB: f64 = 1024.0 * 1024.0;
