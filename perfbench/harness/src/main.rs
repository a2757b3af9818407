//! `perfbench-harness` — the compiled half of the sqlog benchmark.
//!
//! `perfbench/run.py` drives it; each subcommand prints one JSON object on
//! stdout and exits 0, or prints a diagnostic on stderr and exits non-zero.
//!
//! ```text
//! gen --workload skyserver|adhoc --seed S --entries N --out LOG [--truth SIDECAR]
//! pipeline --in LOG --threads T --out CLEAN --removal REMOVAL [--truth SIDECAR]
//!          [--spans FILE] [--minidb-rows N --minidb-cap M --seed S]
//! checkpoint --in LOG --threads T --work DIR [--spans FILE]
//! oracle --seed S --rows N --source-entries N --seconds X --setups K
//! ```

mod adhoc;
mod layers;
mod oracle;
mod trace;

use sqlog_catalog::skyserver_catalog;
use sqlog_core::{Pipeline, PipelineConfig};
use sqlog_gen::{generate, GenConfig, TruthSidecar};
use sqlog_log::{read_log_file, write_log_file};
use sqlog_minidb::datagen::skyserver_db;
use sqlog_minidb::MiniDb;
use sqlog_obs::Json;
use sqlog_sql::ast::Statement;
use sqlog_sql::parse_statement;
use std::collections::HashMap;
use std::path::PathBuf;
use std::process::exit;
use std::time::{Duration, Instant};
use trace::Tracer;

/// Clean-log SELECTs sampled per literal-masked shape for the minidb layer.
const PER_SHAPE: usize = 10;

struct Args(HashMap<String, String>);

impl Args {
    fn parse(rest: &[String]) -> Result<Args, String> {
        let mut map = HashMap::new();
        let mut it = rest.iter();
        while let Some(flag) = it.next() {
            let key = flag
                .strip_prefix("--")
                .ok_or_else(|| format!("unexpected argument {flag}"))?;
            let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            map.insert(key.to_string(), value.clone());
        }
        Ok(Args(map))
    }

    fn str(&self, key: &str) -> Result<&str, String> {
        self.0
            .get(key)
            .map(String::as_str)
            .ok_or_else(|| format!("--{key} is required"))
    }

    fn path(&self, key: &str) -> Result<PathBuf, String> {
        self.str(key).map(PathBuf::from)
    }

    fn opt_path(&self, key: &str) -> Option<PathBuf> {
        self.0.get(key).map(PathBuf::from)
    }

    fn num<T: std::str::FromStr>(&self, key: &str) -> Result<T, String> {
        self.str(key)?
            .parse()
            .map_err(|_| format!("--{key}: not a number"))
    }
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let Some((cmd, rest)) = argv.split_first() else {
        eprintln!("usage: perfbench-harness gen|pipeline|checkpoint|oracle --flag value …");
        exit(2);
    };
    let out = Args::parse(rest).and_then(|args| match cmd.as_str() {
        "gen" => cmd_gen(&args),
        "pipeline" => cmd_pipeline(&args),
        "checkpoint" => cmd_checkpoint(&args),
        "oracle" => cmd_oracle(&args),
        other => Err(format!("unknown subcommand {other}")),
    });
    match out {
        Ok(json) => println!("{}", json.render()),
        Err(msg) => {
            eprintln!("perfbench-harness {cmd}: {msg}");
            exit(1);
        }
    }
}

fn num(v: f64) -> Json {
    Json::F64(v)
}

fn metrics_json(metrics: &[(&str, f64)]) -> Json {
    Json::Obj(
        metrics
            .iter()
            .map(|(k, v)| (k.to_string(), num(*v)))
            .collect(),
    )
}

fn problems_json(problems: &[String]) -> Json {
    Json::Arr(problems.iter().cloned().map(Json::Str).collect())
}

fn write_spans(args: &Args, tr: &Tracer, process: &str) -> Result<(), String> {
    if let Some(path) = args.opt_path("spans") {
        std::fs::write(&path, tr.to_json(process).render())
            .map_err(|e| format!("{}: {e}", path.display()))?;
    }
    Ok(())
}

/// Generates a workload input. The `adhoc` input is checked against the
/// workload's design before it is written; a drift fails the command.
fn cmd_gen(args: &Args) -> Result<Json, String> {
    let seed: u64 = args.num("seed")?;
    let entries: usize = args.num("entries")?;
    let out = args.path("out")?;
    let (log, props) = match args.str("workload")? {
        "skyserver" => {
            let log = generate(&GenConfig::with_scale(entries, seed));
            if let Some(path) = args.opt_path("truth") {
                std::fs::write(&path, TruthSidecar::derive(&log).render())
                    .map_err(|e| format!("{}: {e}", path.display()))?;
            }
            write_log_file(&log, &out).map_err(|e| e.to_string())?;
            (log, Json::Null)
        }
        "adhoc" => {
            let log = adhoc::generate_adhoc(seed, entries);
            write_log_file(&log, &out).map_err(|e| e.to_string())?;
            // The check reads the file back: it is the input the program sees.
            let written = read_log_file(&out).map_err(|e| e.to_string())?;
            let p = adhoc::AdhocProperties::measure(&written);
            p.check()
                .map_err(|e| format!("adhoc input drifted from its design: {e}"))?;
            let props = Json::obj(vec![
                ("distinct_shape_share", num(p.distinct_shape_share())),
                ("resubmission_share", num(p.resubmission_share())),
                ("distinct_shapes", Json::U64(p.distinct_shapes as u64)),
            ]);
            (log, props)
        }
        other => return Err(format!("unknown workload {other}")),
    };
    let bytes = std::fs::metadata(&out).map_err(|e| e.to_string())?.len();
    Ok(Json::obj(vec![
        ("entries", Json::U64(log.len() as u64)),
        ("bytes", Json::U64(bytes)),
        ("properties", props),
    ]))
}

/// The traced pipeline run, optionally followed by the minidb layer on a
/// sample of the run's own clean log.
fn cmd_pipeline(args: &Args) -> Result<Json, String> {
    let mut tr = Tracer::new();
    let traced = layers::traced_pipeline(
        &mut tr,
        &args.path("in")?,
        args.num("threads")?,
        &args.path("out")?,
        &args.path("removal")?,
        args.opt_path("truth").as_deref(),
    )?;
    let mut metrics = traced.metrics;
    let mut problems = traced.problems;
    let mut attempted = 1usize;
    if let Some(rows) = args.0.get("minidb-rows") {
        let rows: usize = rows.parse().map_err(|_| "--minidb-rows: not a number")?;
        let cap: usize = args.num("minidb-cap")?;
        let set = tr.span("minidb.select", || {
            oracle::statement_set(&traced.result, cap / 2, PER_SHAPE, cap)
        });
        drop(traced.result);
        let (m, p) = traced_minidb(&mut tr, &set, rows, args.num("seed")?);
        attempted += set.statements.len();
        metrics.extend(m);
        problems.extend(p);
    } else {
        drop(traced.result);
    }
    write_spans(args, &tr, "pipeline")?;
    Ok(Json::obj(vec![
        ("metrics", metrics_json(&metrics)),
        ("layer_ms", num(tr.top_level_ms())),
        ("table5", traced.table5),
        ("attempted", Json::U64(attempted as u64)),
        ("problems", problems_json(&problems)),
    ]))
}

/// The minidb layer, traced: build + ANALYZE, then timed passes over the
/// statement set per call kind (plan, planned execution, the closed loop),
/// then the planned-vs-naive check.
fn traced_minidb(
    tr: &mut Tracer,
    set: &oracle::StatementSet,
    rows: usize,
    seed: u64,
) -> (layers::Metrics, Vec<String>) {
    let db: MiniDb = tr.span("minidb.build", || skyserver_db(rows, seed));
    let queries: Vec<_> = tr.span("minidb.parse", || {
        set.statements
            .iter()
            .filter_map(|s| match parse_statement(s) {
                Ok(Statement::Select(q)) => Some(q),
                _ => None,
            })
            .collect()
    });
    let mut plan_us = Vec::new();
    let mut exec_us = Vec::new();
    let (mut scanned, mut returned, mut seeks) = (0u64, 0u64, 0usize);
    // At least 1000 samples per quantile, so the p99 has ten beyond it.
    let passes = 1000usize.div_ceil(queries.len().max(1)).max(1);
    tr.span("minidb.plan", || {
        for _ in 0..passes {
            for q in &queries {
                let t = Instant::now();
                let plan = db.plan(q);
                plan_us.push(t.elapsed().as_secs_f64() * 1e6);
                if plan.is_ok_and(|p| p.primary_scan().is_some_and(|s| s.access.is_seek())) {
                    seeks += 1;
                }
            }
        }
    });
    tr.span("minidb.exec", || {
        for _ in 0..passes {
            for q in &queries {
                let t = Instant::now();
                let out = db.execute_query_planned(q);
                exec_us.push(t.elapsed().as_secs_f64() * 1e6);
                if let Ok(p) = out {
                    scanned += p.ops.storage_scanned();
                    returned += p.result.rows.len() as u64;
                }
            }
        }
    });
    let replay = tr.span("minidb.replay", || {
        oracle::replay(&db, set, Duration::from_millis(500), 1000)
    });
    let problems = tr.span("minidb.check", || oracle::check_statements(&db, set));
    let n = (queries.len() * passes).max(1) as f64;
    let metrics = vec![
        ("minidb.build_ms", tr.ms("minidb.build")),
        ("minidb.statements", set.statements.len() as f64),
        ("minidb.plan_us_p50", oracle::quantile(&plan_us, 0.5)),
        ("minidb.plan_us_p99", oracle::quantile(&plan_us, 0.99)),
        ("minidb.exec_us_p50", oracle::quantile(&exec_us, 0.5)),
        ("minidb.exec_us_p99", oracle::quantile(&exec_us, 0.99)),
        (
            "minidb.stmt_p50_us",
            oracle::quantile(&replay.latencies_us, 0.5),
        ),
        (
            "minidb.stmt_p99_us",
            oracle::quantile(&replay.latencies_us, 0.99),
        ),
        (
            "minidb.scanned_per_row",
            scanned as f64 / returned.max(1) as f64,
        ),
        ("minidb.seek_share", seeks as f64 / n),
    ];
    (metrics, problems)
}

fn cmd_checkpoint(args: &Args) -> Result<Json, String> {
    let mut tr = Tracer::new();
    let work = args.path("work")?;
    std::fs::create_dir_all(&work).map_err(|e| e.to_string())?;
    let (metrics, problems) =
        layers::traced_checkpoint(&mut tr, &args.path("in")?, args.num("threads")?, &work)?;
    write_spans(args, &tr, "checkpoint")?;
    Ok(Json::obj(vec![
        ("metrics", metrics_json(&metrics)),
        ("attempted", Json::U64(4)),
        ("problems", problems_json(&problems)),
    ]))
}

/// Oracle setup: the source log, its clean run, the statement set, and the
/// database (build + ANALYZE).
fn oracle_setup(seed: u64, rows: usize, source_entries: usize) -> (oracle::StatementSet, MiniDb) {
    let log = generate(&GenConfig::with_scale(source_entries, seed));
    let catalog = skyserver_catalog();
    let result = Pipeline::new(&catalog)
        .with_config(PipelineConfig {
            parallelism: 1,
            ..PipelineConfig::default()
        })
        .run(&log);
    let set = oracle::statement_set(&result, usize::MAX, PER_SHAPE, usize::MAX);
    (set, skyserver_db(rows, seed))
}

/// The `oracle` workload's end-to-end run: setup `setups` times (median
/// reported), then the closed loop for `seconds` (throughput and CPU are
/// medians over its passes), then the checks.
fn cmd_oracle(args: &Args) -> Result<Json, String> {
    let seed: u64 = args.num("seed")?;
    let rows: usize = args.num("rows")?;
    let source_entries: usize = args.num("source-entries")?;
    let seconds: f64 = args.num("seconds")?;
    let setups: usize = args.num::<usize>("setups")?.max(1);
    let mut setup_s = Vec::new();
    let mut built = None;
    for _ in 0..setups {
        drop(built.take());
        let t = Instant::now();
        built = Some(oracle_setup(seed, rows, source_entries));
        setup_s.push(t.elapsed().as_secs_f64());
    }
    let (set, db) = built.expect("at least one setup");
    if set.statements.is_empty() {
        return Err("the statement set is empty".into());
    }
    let replay = oracle::replay(&db, &set, Duration::from_secs_f64(seconds), 1000);
    let problems = oracle::check_statements(&db, &set);
    let n = replay.latencies_us.len();
    let (rate, cpu) = replay.per_pass_medians(set.statements.len());
    Ok(Json::obj(vec![
        ("setup_s", num(oracle::quantile(&setup_s, 0.5))),
        (
            "setup_runs",
            Json::Arr(setup_s.into_iter().map(num).collect()),
        ),
        ("statements", Json::U64(set.statements.len() as u64)),
        ("stifle_statements", Json::U64(set.stifle as u64)),
        ("samples", Json::U64(n as u64)),
        ("rejected", Json::U64(replay.rejected as u64)),
        ("rows_returned", Json::U64(replay.rows)),
        ("replay_s", num(replay.wall.as_secs_f64())),
        ("passes", Json::U64(replay.passes.len() as u64)),
        ("entries_per_s", num(rate)),
        ("cpu_us_per_entry", num(cpu)),
        (
            "stmt_p50_us",
            num(oracle::quantile(&replay.latencies_us, 0.5)),
        ),
        (
            "stmt_p99_us",
            num(oracle::quantile(&replay.latencies_us, 0.99)),
        ),
        ("problems", problems_json(&problems)),
    ]))
}
