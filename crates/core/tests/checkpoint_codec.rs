//! The checkpoint payload codec: every stage payload round-trips through
//! [`Wire`], damaged or foreign checkpoints are reported and their stage
//! re-runs, and the run directory stays smaller than the log it cleans.

use sqlog_catalog::skyserver_catalog;
use sqlog_core::checkpoint::{
    run_checkpointed, CheckpointOptions, CheckpointOutcome, RunDir, Stage, Wire, CHECKPOINT_SCHEMA,
};
use sqlog_core::{
    AntipatternClass, AntipatternInstance, ChosenRewrites, DedupStats, DetectOutput, MinedPatterns,
    ParseCacheStats, ParseStats, ParsedLog, PatternData, Pipeline, PipelineConfig, PipelineResult,
    Session, Sessions, TemplateId,
};
use sqlog_gen::{generate, GenConfig};
use sqlog_log::{write_log_file, IngestPolicy, IngestStats};
use sqlog_skeleton::{
    Fnv1a, OutputColumns, PredicateKind, PredicateProfile, QueryTemplate, Theta, ValueKind,
};
use sqlog_sql::StatementKind;
use std::collections::{HashMap, HashSet};
use std::path::{Path, PathBuf};

struct Scratch(PathBuf);

impl Scratch {
    fn new(label: &str) -> Scratch {
        let dir = std::env::temp_dir().join(format!("sqlog-codec-{label}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
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

/// Encodes, decodes and re-encodes `v`; also checks that every strict
/// prefix of the encoding and the encoding plus one byte are refused.
fn round_trip<T: Wire>(v: &T) -> T {
    let bytes = v.to_wire();
    let back = T::from_wire(&bytes).expect("decodes");
    assert_eq!(back.to_wire(), bytes, "re-encoding differs");
    for cut in 0..bytes.len() {
        assert!(T::from_wire(&bytes[..cut]).is_err(), "prefix {cut} decoded");
    }
    let mut longer = bytes.clone();
    longer.push(0);
    let err = T::from_wire(&longer).err().expect("trailing byte refused");
    assert!(err.contains("trailing"), "{err}");
    back
}

#[test]
fn scalars_round_trip() {
    for v in [
        0u64,
        1,
        127,
        128,
        16_383,
        16_384,
        u64::from(u32::MAX),
        u64::MAX,
    ] {
        assert_eq!(round_trip(&v), v);
    }
    assert_eq!(round_trip(&u32::MAX), u32::MAX);
    assert_eq!(round_trip(&usize::MAX), usize::MAX);
    for s in ["", "tab\there", "line\nbreak\r\n", "ünïcødé ✓ 星", "\0nul"] {
        assert_eq!(round_trip(&s.to_string()), s);
    }
    assert_eq!(round_trip(&Some(7u32)), Some(7));
    assert_eq!(round_trip(&None::<String>), None);
}

#[test]
fn malformed_bytes_are_refused_not_panicked_on() {
    // An 11-byte varint, a 10-byte varint past 64 bits, a bool of 2, a
    // sequence longer than the bytes left, a string that is not UTF-8, a
    // u32 out of range, an unknown enum tag.
    assert!(u64::from_wire(&[0x80; 11]).is_err());
    let mut over = vec![0xff; 9];
    over.push(0x02);
    assert!(u64::from_wire(&over).is_err());
    assert!(bool::from_wire(&[2]).is_err());
    assert!(Vec::<u32>::from_wire(&[0xff, 0xff, 0xff, 0x0f]).is_err());
    assert!(String::from_wire(&[2, 0xc3, 0x28]).is_err());
    assert!(u32::from_wire(&u64::from(u32::MAX).wrapping_add(1).to_wire()).is_err());
    assert!(AntipatternClass::from_wire(&[9]).is_err());
    // A set or map holding one element twice was not written by `put`.
    assert!(HashSet::<u32>::from_wire(&[2, 1, 1]).is_err());
    assert!(HashMap::<u32, bool>::from_wire(&[2, 1, 0, 1, 1]).is_err());
}

#[test]
fn ingest_and_dedup_payloads_round_trip() {
    let stats = IngestStats {
        lines: 10,
        entries: 7,
        quarantined: 3,
        malformed: 2,
        invalid_utf8: 1,
    };
    assert_eq!(round_trip(&stats), stats);
    let dedup = (
        vec![0u32, 5, 3, 200_000],
        DedupStats {
            input: 9,
            removed: 5,
            kept: 4,
            poison: 1,
            degraded_shards: 1,
        },
    );
    assert_eq!(round_trip(&dedup), dedup);
    let empty = (Vec::<u32>::new(), DedupStats::default());
    assert_eq!(round_trip(&empty), empty);
}

#[test]
fn parse_payload_round_trips_every_predicate_and_value_kind() {
    let statements = [
        // Every θ against every value kind, in both orientations.
        "SELECT ra, dec AS dëc, ra + 1 FROM photoprimary WHERE objid = -1.5e3 AND s <> 'o''brien ü' \
         AND n = NULL AND b < TRUE AND v <= @RA AND c > p.objid AND x >= ra + 1 AND 5 < y",
        "SELECT ra, dec AS dëc, ra + 1 FROM photoprimary WHERE objid = 7 AND s <> '' \
         AND n = NULL AND b < TRUE AND v <= @RA AND c > p.objid AND x >= ra + 1 AND 6 < y",
        "SELECT * FROM t WHERE r NOT BETWEEN -1 AND 2 AND k IN (1, 'a', NULL, @v) \
         AND f IS NULL AND name NOT LIKE 'x%' AND (a = 1 OR b = 2)",
        "SELECT a FROM t JOIN u ON t.k = u.k",
        "SELECT 1",
        "INSERT INTO t VALUES (1)",
        "SELECT broken FROM",
    ];
    let log = sqlog_log::QueryLog::from_entries(
        statements
            .iter()
            .enumerate()
            .map(|(i, s)| {
                sqlog_log::LogEntry::minimal(i as u64, *s, sqlog_log::Timestamp::from_secs(0))
                    .with_user("u")
            })
            .collect(),
    );
    let catalog = skyserver_catalog();
    let pipeline = Pipeline::new(&catalog);
    let store = sqlog_core::TemplateStore::new();
    let mut parsed = pipeline.op_parse(&sqlog_log::LogView::identity(&log), &store);
    assert_eq!(parsed.records.len(), 5);
    parsed.stats = ParseStats {
        total: 9,
        selects: 2,
        errors: 3,
        limit_exceeded: 1,
        poison: 1,
        degraded_shards: 1,
        non_select: HashMap::from([
            (StatementKind::Insert, 1),
            (StatementKind::Ddl, 1),
            (StatementKind::Exec, 1),
            (StatementKind::Other, 1),
        ]),
    };
    parsed.cache = ParseCacheStats {
        enabled: true,
        hits: 5,
        misses: 3,
        fallbacks: 1,
        crosschecks: 2,
    };
    let back = round_trip(&parsed);
    assert_eq!(back.records, parsed.records);
    assert_eq!(back.stats, parsed.stats);
    assert_eq!(back.cache, parsed.cache);
    for (i, sql) in statements.iter().take(5).enumerate() {
        let q = sqlog_sql::parse_query(sql).unwrap();
        let view = back.records.view(i);
        assert_eq!(
            view.profile(),
            PredicateProfile::of_select(&q.body),
            "{sql}"
        );
        assert_eq!(view.output(), &OutputColumns::of_select(&q.body), "{sql}");
    }
    // The literal slots really are per record: the first two statements
    // share a template and differ only in their constants.
    assert_eq!(back.records[0].template, back.records[1].template);
    assert_eq!(
        back.records.view(0).profile().conjuncts[1],
        PredicateKind::Comparison {
            column: "s".into(),
            theta: Theta::NotEq,
            value: ValueKind::String("o'brien ü".into()),
        }
    );

    let empty = ParsedLog {
        records: Default::default(),
        stats: ParseStats::default(),
        cache: ParseCacheStats::default(),
    };
    assert!(round_trip(&empty).records.is_empty());

    let templates: Vec<QueryTemplate> = (0..store.len() as u32)
        .map(|i| store.get(TemplateId(i)))
        .collect();
    assert_eq!(round_trip(&templates), templates);
    // A clause range outside the text is damage, not a panic.
    let select_1 = templates.last().unwrap();
    assert_eq!(select_1.full, "SELECT <num>");
    let mut bytes = select_1.to_wire();
    let last = bytes.len() - 1;
    bytes[last] = 0x7f;
    assert!(QueryTemplate::from_wire(&bytes).is_err());
}

#[test]
fn sessions_mine_detect_and_solve_payloads_round_trip() {
    let sessions = Sessions {
        sessions: vec![
            Session {
                user: 1,
                records: vec![0, 2, 7],
            },
            Session {
                user: 0,
                records: Vec::new(),
            },
        ],
        user_names: vec!["anon".into(), "ユーザー".into()],
        poison: 1,
        degraded_shards: 2,
    };
    let back = round_trip(&sessions);
    assert_eq!(back.sessions, sessions.sessions);
    assert_eq!(back.user_names, sessions.user_names);
    assert_eq!((back.poison, back.degraded_shards), (1, 2));
    assert!(round_trip(&Sessions::default()).sessions.is_empty());

    let mut mined = MinedPatterns {
        total_queries: 42,
        poison_sessions: 1,
        degraded_shards: 3,
        ..MinedPatterns::default()
    };
    for (key, users) in [(vec![1u32, 2], vec![9u32, 3, 5]), (vec![0], vec![])] {
        mined.patterns.insert(
            key.into_iter().map(TemplateId).collect(),
            PatternData {
                frequency: 4,
                users: users.into_iter().collect::<HashSet<u32>>(),
            },
        );
    }
    let back = round_trip(&mined);
    assert_eq!(back.patterns, mined.patterns);
    assert_eq!(
        (
            back.total_queries,
            back.poison_sessions,
            back.degraded_shards
        ),
        (42, 1, 3)
    );
    assert!(round_trip(&MinedPatterns::default()).patterns.is_empty());

    let classes = [
        AntipatternClass::DwStifle,
        AntipatternClass::DsStifle,
        AntipatternClass::DfStifle,
        AntipatternClass::CthCandidate,
        AntipatternClass::Snc,
        AntipatternClass::Custom("N+1 fetch ✓".into()),
        // A custom name equal to a builtin label stays custom.
        AntipatternClass::Custom("SNC".into()),
    ];
    let detected = DetectOutput {
        instances: classes
            .iter()
            .enumerate()
            .map(|(i, class)| AntipatternInstance {
                class: class.clone(),
                records: vec![i, i + 1],
                identity: vec![TemplateId(i as u32)],
                marker_keys: vec![vec![TemplateId(1), TemplateId(2)], Vec::new()],
                solvable: i % 2 == 0,
            })
            .collect(),
        poison_sessions: 1,
        degraded_shards: 1,
    };
    let back = round_trip(&detected);
    assert_eq!(back.instances, detected.instances);
    assert!(round_trip(&DetectOutput::default()).instances.is_empty());

    let chosen = ChosenRewrites {
        solved: vec![
            (0, vec!["SELECT a\tb FROM t WHERE x IN (1, 2)".into()]),
            (
                4,
                vec!["SELECT 'line\nbreak', 'größe' FROM t".into(), String::new()],
            ),
            (6, Vec::new()),
        ],
        skipped_overlaps: 3,
    };
    assert_eq!(round_trip(&chosen), chosen);
    assert_eq!(
        round_trip(&ChosenRewrites::default()),
        ChosenRewrites::default()
    );
}

// --- the checkpointed driver over damaged and foreign checkpoints --------

fn opts(input: &Path, resume: bool, stop_after: Option<Stage>) -> CheckpointOptions {
    CheckpointOptions {
        input: input.to_path_buf(),
        policy: IngestPolicy::Strict,
        quarantine: None,
        resume,
        stop_after,
    }
}

fn config(threads: usize) -> PipelineConfig {
    PipelineConfig {
        parallelism: threads,
        ..PipelineConfig::default()
    }
}

fn fixture(scratch: &Scratch, scale: usize) -> PathBuf {
    let input = scratch.path("input.tsv");
    write_log_file(&generate(&GenConfig::with_scale(scale, 4242)), &input).unwrap();
    input
}

fn assert_same_output(a: &PipelineResult, b: &PipelineResult, label: &str) {
    let stats = |r: &PipelineResult| {
        let mut s = r.stats.with_zeroed_timings();
        s.run_health.interruptions = 0;
        s
    };
    assert_eq!(stats(a), stats(b), "{label}");
    assert_eq!(a.clean_log, b.clean_log, "{label}");
    assert_eq!(a.removal_log, b.removal_log, "{label}");
    assert_eq!(a.instances, b.instances, "{label}");
}

/// Runs to completion, lets `damage` rewrite one stage's checkpoint, then
/// resumes: that stage and every later one must re-run with a warning, and
/// the output must not change.
fn damage_and_resume(
    label: &str,
    stage: Stage,
    damage: impl FnOnce(&Path),
) -> (CheckpointOutcome, PipelineResult) {
    let scratch = Scratch::new(label);
    let input = fixture(&scratch, 2_000);
    let catalog = skyserver_catalog();
    let pipeline = Pipeline::new(&catalog).with_config(config(1));
    let dir = RunDir::create(scratch.path("run")).unwrap();
    let fresh = run_checkpointed(&pipeline, &dir, &opts(&input, false, None))
        .unwrap()
        .expect("completes");
    damage(&dir.checkpoint_path(stage));
    let resumed = run_checkpointed(&pipeline, &dir, &opts(&input, true, None))
        .unwrap()
        .expect("completes despite the damage");
    assert_same_output(&fresh.result, &resumed.result, label);
    let warned = resumed
        .warnings
        .iter()
        .any(|w| w.contains(&format!("checkpoint {stage}")) && w.contains("re-running"));
    assert!(warned, "{label}: warnings {:?}", resumed.warnings);
    let position = Stage::ALL.iter().position(|&s| s == stage).unwrap();
    let before: Vec<&str> = Stage::ALL[..position].iter().map(|s| s.name()).collect();
    assert_eq!(resumed.loaded_stages, before, "{label}");
    (resumed, fresh.result)
}

/// Replaces a checkpoint's payload, with a header that matches it — so
/// only the decoder's own checks stand between the payload and the run.
fn forge(path: &Path, stage: Stage, schema: u64, payload: &[u8]) {
    let mut fnv = Fnv1a::new();
    fnv.update(payload);
    let mut bytes = format!(
        "{{\"stage\":\"{stage}\",\"schema\":{schema},\"payload_bytes\":{},\"payload_fnv\":{}}}\n",
        payload.len(),
        fnv.finish().0
    )
    .into_bytes();
    bytes.extend_from_slice(payload);
    std::fs::write(path, bytes).unwrap();
}

#[test]
fn truncated_or_flipped_parse_and_solve_checkpoints_rerun() {
    for stage in [Stage::Parse, Stage::Solve] {
        damage_and_resume(&format!("cut-{stage}"), stage, |p| {
            let bytes = std::fs::read(p).unwrap();
            std::fs::write(p, &bytes[..bytes.len() - 3]).unwrap();
        });
        damage_and_resume(&format!("flip-{stage}"), stage, |p| {
            let mut bytes = std::fs::read(p).unwrap();
            let mid = bytes.len() / 2 + 40;
            bytes[mid] ^= 0x01;
            std::fs::write(p, bytes).unwrap();
        });
    }
}

#[test]
fn payloads_that_do_not_fit_the_run_are_refused() {
    // A solved instance index beyond detect's list: caught by the same
    // assembly a live solve ends with.
    let chosen = ChosenRewrites {
        solved: vec![(1 << 30, vec!["SELECT 1".into()])],
        skipped_overlaps: 0,
    };
    let (resumed, _) = damage_and_resume("forged-solve", Stage::Solve, |p| {
        forge(p, Stage::Solve, CHECKPOINT_SCHEMA, &chosen.to_wire())
    });
    assert!(resumed.warnings[0].contains("out of order or out of bounds"));

    // Ingest statistics the input does not reproduce.
    let (resumed, fresh) = damage_and_resume("forged-ingest", Stage::Ingest, |p| {
        let stats = IngestStats {
            lines: 1,
            entries: 1,
            ..IngestStats::default()
        };
        forge(p, Stage::Ingest, CHECKPOINT_SCHEMA, &stats.to_wire())
    });
    assert_eq!(resumed.ingest_stats.entries, fresh.stats.original_size);

    // Trailing bytes after a well-formed payload.
    damage_and_resume("trailing-mine", Stage::Mine, |p| {
        let mut payload = MinedPatterns::default().to_wire();
        payload.push(0);
        forge(p, Stage::Mine, CHECKPOINT_SCHEMA, &payload)
    });
}

#[test]
fn schema_1_checkpoint_is_refused_and_rerun() {
    // The JSON payload an older build wrote for dedup.
    let json = br#"{"kept":[0,1,2],"stats":{"input":3,"removed":0,"kept":3,"poison":0,"degraded_shards":0}}"#;
    let (resumed, _) = damage_and_resume("schema-1", Stage::Dedup, |p| {
        forge(p, Stage::Dedup, 1, json)
    });
    assert!(
        resumed.warnings[0].contains("unsupported checkpoint schema 1"),
        "{:?}",
        resumed.warnings
    );
}

#[test]
fn schema_2_parse_checkpoint_is_reported_and_rerun() {
    // A parse checkpoint from the per-record-facts layout: same stage,
    // older schema number in its header.
    let (resumed, fresh) = damage_and_resume("schema-2", Stage::Parse, |p| {
        let bytes = std::fs::read(p).unwrap();
        let nl = bytes.iter().position(|&b| b == b'\n').unwrap();
        forge(p, Stage::Parse, 2, &bytes[nl + 1..]);
    });
    assert!(
        resumed.warnings[0].contains("unsupported checkpoint schema 2"),
        "{:?}",
        resumed.warnings
    );
    assert!(!resumed.loaded_stages.contains(&"parse"));
    let bytes = |log: &sqlog_log::QueryLog| {
        let mut out = Vec::new();
        sqlog_log::write_log(log, &mut out).unwrap();
        out
    };
    assert!(bytes(&resumed.result.clean_log) == bytes(&fresh.clean_log));
    assert!(bytes(&resumed.result.removal_log) == bytes(&fresh.removal_log));
}

#[test]
fn parse_checkpoint_stores_each_template_once() {
    // `genlog --scale 200000 --seed 1` at one thread: the per-record
    // layout wrote 9,442,112 B here; templates, facts and literal vectors
    // take under 3.5 MB.
    let scratch = Scratch::new("parse-size");
    let input = scratch.path("input.tsv");
    write_log_file(&generate(&GenConfig::with_scale(200_000, 1)), &input).unwrap();
    let catalog = skyserver_catalog();
    let pipeline = Pipeline::new(&catalog).with_config(config(1));
    let dir = RunDir::create(scratch.path("run")).unwrap();
    let stopped =
        run_checkpointed(&pipeline, &dir, &opts(&input, false, Some(Stage::Parse))).unwrap();
    assert!(stopped.is_none(), "the run stops after parse");
    let bytes = std::fs::metadata(dir.checkpoint_path(Stage::Parse))
        .unwrap()
        .len();
    assert!(bytes <= 3_500_000, "parse.ckpt is {bytes} B");
}

fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .unwrap()
        .flatten()
        .map(|e| {
            let meta = e.metadata().unwrap();
            if meta.is_dir() {
                dir_bytes(&e.path())
            } else {
                meta.len()
            }
        })
        .sum()
}

#[test]
fn run_dir_is_smaller_than_the_input_and_thread_independent() {
    let scratch = Scratch::new("size");
    let input = fixture(&scratch, 20_000);
    let input_bytes = std::fs::metadata(&input).unwrap().len();
    let catalog = skyserver_catalog();
    let mut runs = Vec::new();
    for threads in [1usize, 8] {
        let dir = RunDir::create(scratch.path(&format!("run-{threads}"))).unwrap();
        let pipeline = Pipeline::new(&catalog).with_config(config(threads));
        let outcome = run_checkpointed(&pipeline, &dir, &opts(&input, false, None))
            .unwrap()
            .expect("completes");
        let run_bytes = dir_bytes(dir.root());
        assert!(
            run_bytes <= input_bytes,
            "run dir {run_bytes} B > input {input_bytes} B"
        );
        let ingest = std::fs::metadata(dir.checkpoint_path(Stage::Ingest)).unwrap();
        assert!(ingest.len() < 1024, "ingest.ckpt is {} B", ingest.len());
        // The stage columns account for the whole run.
        let t = outcome.result.stats.timings;
        assert!(t.stage_sum_ms() <= t.total_ms + 1, "{t:?}");
        assert!(
            t.total_ms - t.stage_sum_ms().min(t.total_ms) <= 25 + t.total_ms / 10,
            "{t:?}"
        );
        runs.push(dir);
    }
    for stage in [
        Stage::Dedup,
        Stage::Sessions,
        Stage::Mine,
        Stage::Detect,
        Stage::Solve,
    ] {
        let one = std::fs::read(runs[0].checkpoint_path(stage)).unwrap();
        let eight = std::fs::read(runs[1].checkpoint_path(stage)).unwrap();
        assert!(
            one == eight,
            "{stage} checkpoint differs between 1 and 8 threads"
        );
    }
}

#[test]
fn empty_input_checkpoints_and_resumes_after_every_stage() {
    let scratch = Scratch::new("empty");
    let input = scratch.path("empty.tsv");
    std::fs::write(&input, "").unwrap();
    let catalog = skyserver_catalog();
    let pipeline = Pipeline::new(&catalog).with_config(config(1));
    for stage in Stage::ALL {
        let dir = RunDir::create(scratch.path(&format!("run-{stage}"))).unwrap();
        assert!(
            run_checkpointed(&pipeline, &dir, &opts(&input, false, Some(stage)))
                .unwrap()
                .is_none()
        );
        let done = run_checkpointed(&pipeline, &dir, &opts(&input, true, None))
            .unwrap()
            .expect("completes");
        assert!(done.warnings.is_empty(), "{:?}", done.warnings);
        assert!(done.loaded_stages.contains(&stage.name()));
        assert!(done.result.clean_log.is_empty() && done.result.removal_log.is_empty());
    }
}

#[test]
fn fresh_run_dir_starts_empty() {
    let scratch = Scratch::new("stale");
    let root = scratch.path("run");
    let stale = [
        "checkpoints/parse.ckpt.tmp",
        "checkpoints/solve.ckpt",
        "checkpoints/unknown.bin",
        "MANIFEST.json",
        "MANIFEST.json.tmp",
        "quarantine.tsv",
    ];
    std::fs::create_dir_all(root.join("checkpoints")).unwrap();
    for name in stale {
        std::fs::write(root.join(name), b"left by a crashed run").unwrap();
    }
    std::fs::write(root.join("notes.txt"), b"not the run's").unwrap();
    let dir = RunDir::create(&root).unwrap();
    for name in stale {
        assert!(!root.join(name).exists(), "{name} survived RunDir::create");
    }
    assert!(dir.checkpoint_path(Stage::Parse).parent().unwrap().is_dir());
    assert_eq!(
        std::fs::read_dir(root.join("checkpoints")).unwrap().count(),
        0
    );
    assert!(
        root.join("notes.txt").exists(),
        "an unrelated file was removed"
    );
}
