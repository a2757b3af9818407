//! Step 2 of the pipeline: parsing statements (§5.3).
//!
//! Every statement of the pre-cleaned log is parsed into a syntax tree.
//! Statements with syntax errors are excluded (counted), non-SELECT
//! statements are excluded (counted per kind), and each surviving SELECT is
//! reduced to a compact [`ParsedRecord`]: its interned template id plus its
//! literals, with the template-level facts the detectors need stored once
//! per template (see [`crate::records`]). The full AST is *not* retained —
//! records must stay small enough for multi-million-entry logs; solvers that
//! need an AST re-parse the one statement they rewrite.
//!
//! The stage's entry point is [`crate::Pipeline::op_parse`]. Parsing is
//! embarrassingly parallel and runs on a scoped thread pool. Two things
//! keep the hot path cheap and the result deterministic:
//!
//! * each worker memoizes fingerprint → id locally, so the shared
//!   [`TemplateStore`] lock is only taken on a worker's *first* sight of a
//!   template, not once per record;
//! * after the join, template ids are renumbered canonically — id order =
//!   first appearance in record order — so the ids (which flow into pattern
//!   keys, marks, and instance identities) are identical for every thread
//!   count, and each template's facts are its first record's.

use crate::config::PipelineConfig;
use crate::fault;
use crate::parse_cache::ShapeCache;
use crate::records::{index_u32, Literals, ParsedRecord, ParsedRecords, ShardRecords};
use crate::shard::{guarded, resolve_threads, run_shards_traced, whole_range, ShardTrace};
use crate::store::{TemplateId, TemplateStore};
use serde::{Deserialize, Serialize};
use sqlog_log::LogView;
use sqlog_obs::SpanId;
use sqlog_sql::{parse_statements_with, ParseLimits, Statement, StatementKind};
use std::collections::HashMap;

/// Counters from the parse step.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ParseStats {
    /// Statements examined.
    pub total: usize,
    /// Statements kept (SELECTs that parsed).
    pub selects: usize,
    /// Statements dropped as unparseable — syntax errors plus resource-limit
    /// rejections (the paper's §5.3 drops both the same way).
    pub errors: usize,
    /// The subset of `errors` rejected by a parser resource guard
    /// ([`ParseLimits`]) rather than a grammar error.
    pub limit_exceeded: usize,
    /// Statements skipped because processing them panicked (poison records,
    /// isolated during a degraded shard re-run).
    pub poison: usize,
    /// Parse shards whose worker panicked and was recovered per-record.
    pub degraded_shards: usize,
    /// Statements dropped per non-SELECT kind.
    pub non_select: HashMap<StatementKind, usize>,
}

impl ParseStats {
    /// Total non-SELECT statements dropped.
    pub fn non_select_total(&self) -> usize {
        self.non_select.values().sum()
    }
}

/// Effectiveness counters of the template-aware parse cache, which
/// memoizes each worker's repeated statement shapes.
///
/// Kept separate from [`ParseStats`]: each worker owns its cache, so the
/// hit/miss split depends on how statements shard across threads. The
/// *parse result* is identical either way; determinism comparisons zero
/// this struct alongside timings.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ParseCacheStats {
    /// Whether the cache was enabled for this parse.
    pub enabled: bool,
    /// Statements served from a worker's shape cache.
    pub hits: u64,
    /// Statements that populated a new cache entry (full parse).
    pub misses: u64,
    /// Statements that bypassed the cache — unkeyable text, oversized, or
    /// an uncacheable shape (full parse).
    pub fallbacks: u64,
    /// Cache hits verified against a full parse (debug builds only).
    pub crosschecks: u64,
}

impl ParseCacheStats {
    /// Hit rate over the cache-eligible statements, in percent.
    pub fn hit_rate_pct(&self) -> f64 {
        let total = self.hits + self.misses + self.fallbacks;
        if total == 0 {
            0.0
        } else {
            100.0 * self.hits as f64 / total as f64
        }
    }
}

/// The parsed log: records (in log order) plus statistics.
#[derive(Debug)]
pub struct ParsedLog {
    /// Records for the SELECT statements, ordered by log position.
    pub records: ParsedRecords,
    /// Parse statistics.
    pub stats: ParseStats,
    /// Parse-cache effectiveness (all-zero when the cache is disabled).
    pub cache: ParseCacheStats,
}

pub(crate) enum Outcome {
    /// A SELECT, as a record of the worker's [`ShardRecords`].
    Select(ParsedRecord),
    NonSelect(StatementKind),
    Error {
        limit: bool,
    },
    /// Processing this statement panicked; it was skipped during recovery.
    Poison,
}

/// Parses one statement in full; a SELECT becomes a record of `out`.
pub(crate) fn parse_one(
    out: &mut ShardRecords,
    store: &TemplateStore,
    limits: &ParseLimits,
    entry_idx: u32,
    sql: &str,
) -> Outcome {
    match parse_statements_with(sql, limits) {
        Ok(stmts) => {
            // A log row occasionally contains a `;`-separated batch; the
            // analysis treats the first SELECT as the row's query, matching
            // the one-row-one-query model of the SkyServer log.
            if let Some(q) = stmts.iter().find_map(Statement::as_select) {
                return Outcome::Select(out.push_select(store, entry_idx, q));
            }
            match stmts.first() {
                Some(Statement::Other(kind)) => Outcome::NonSelect(*kind),
                _ => Outcome::Error { limit: false },
            }
        }
        Err(e) => Outcome::Error {
            limit: e.is_limit(),
        },
    }
}

/// Renumbers template ids to first-appearance-in-record-order, making them
/// independent of parser-thread interleaving. Ids below `preexisting` (from
/// before this parse) keep their numbers.
fn canonicalize_templates(store: &TemplateStore, preexisting: usize, records: &mut [ParsedRecord]) {
    let total = store.len();
    if total == preexisting {
        return;
    }
    let mut remap: Vec<u32> = vec![u32::MAX; total];
    let mut order: Vec<TemplateId> = (0..preexisting as u32).map(TemplateId).collect();
    for (i, slot) in remap.iter_mut().enumerate().take(preexisting) {
        *slot = i as u32;
    }
    for rec in records.iter() {
        let old = rec.template.0 as usize;
        if remap[old] == u32::MAX {
            remap[old] = order.len() as u32;
            order.push(rec.template);
        }
    }
    // Templates interned but referenced by no record (cannot happen today —
    // every intern comes from a surviving SELECT) keep relative order.
    for (old, slot) in remap.iter_mut().enumerate().skip(preexisting) {
        if *slot == u32::MAX {
            *slot = order.len() as u32;
            order.push(TemplateId(old as u32));
        }
    }
    if order
        .iter()
        .enumerate()
        .all(|(new, id)| id.0 as usize == new)
    {
        return; // Already canonical (the single-threaded case).
    }
    store.renumber(&order);
    for rec in records.iter_mut() {
        rec.template = TemplateId(remap[rec.template.0 as usize]);
    }
}

/// Parses a log view into records, interning templates in `store` — the
/// body of [`crate::Pipeline::op_parse`].
///
/// Records, statistics and template ids are identical for every
/// [`PipelineConfig::parallelism`] (ids are canonicalized to first
/// appearance in record order) and whether or not
/// [`PipelineConfig::parse_cache`] is on. Shards that panic (a poison
/// statement crashing the parser) are re-run per-record: the poison
/// statement alone is counted and dropped, every other statement of the
/// shard parses normally.
///
/// Per-shard spans (`"parse.shard"`, parented under `parent`), a
/// shard-latency histogram and outcome counters — including
/// template-interner effectiveness (`parse.templates_interned` vs
/// `parse.template_cache_hits`) and parse-cache effectiveness
/// (`parse.cache_hits` / `parse.cache_misses` / `parse.cache_fallbacks`) —
/// land in the config's recorder.
pub(crate) fn parse_stage(
    view: &LogView<'_>,
    store: &TemplateStore,
    config: &PipelineConfig,
    parent: Option<SpanId>,
) -> ParsedLog {
    let rec = &config.recorder;
    let limits = config.parse_limits();
    let n = view.len();
    let threads = resolve_threads(config.parallelism).min(n.max(1));
    let preexisting = store.len();

    let chunk = n.div_ceil(threads).max(1);
    let mut ranges: Vec<std::ops::Range<usize>> = (0..n)
        .step_by(chunk)
        .map(|start| start..(start + chunk).min(n))
        .collect();
    if ranges.is_empty() {
        ranges = whole_range(0);
    }
    // One worker's pass over its range. `isolate` is the degraded re-run:
    // each statement under its own panic guard. The worker's memo and
    // facts only ever gain complete entries and the shape cache inserts
    // entries only after a successful parse, so a panic mid-record at
    // worst wastes an entry — never corrupts one; literals a poisoned
    // statement appended are dropped.
    let shard = |r: std::ops::Range<usize>, isolate: bool| {
        let fault = fault::armed("parse");
        let mut out = ShardRecords::default();
        let mut cache = config.parse_cache.then(ShapeCache::default);
        let mut parse = |out: &mut ShardRecords, i: usize| {
            let sql = &view.entry(i).statement;
            fault::trip(&fault, sql);
            match cache.as_mut() {
                Some(c) => c.parse_one_cached(out, store, &limits, i as u32, sql, &|j| {
                    view.entry(j as usize).statement.as_str()
                }),
                None => parse_one(out, store, &limits, i as u32, sql),
            }
        };
        let outcomes = r
            .map(|i| {
                if !isolate {
                    return parse(&mut out, i);
                }
                let mark = out.lits.len();
                guarded(|| parse(&mut out, i)).unwrap_or_else(|| {
                    out.lits.truncate(mark);
                    Outcome::Poison
                })
            })
            .collect::<Vec<_>>();
        if rec.is_enabled() {
            // Shard caches die at the join; account their footprint
            // here, while they still exist (counters sum across shards).
            if let Some(c) = &cache {
                rec.counter("mem.parse_cache_bytes", c.approx_bytes() as u64);
            }
        }
        (outcomes, out, cache.map(tally).unwrap_or_default())
    };
    let (results, degraded) = run_shards_traced(
        ranges,
        ShardTrace {
            rec,
            parent,
            span_name: "parse.shard",
            hist_name: "parse.shard_us",
        },
        |r| r.len() as u64,
        |r| shard(r, false),
        |r| shard(r, true),
    );

    let mut stats = ParseStats {
        total: n,
        degraded_shards: degraded,
        ..ParseStats::default()
    };
    let mut cache_stats = ParseCacheStats {
        enabled: config.parse_cache,
        ..ParseCacheStats::default()
    };
    // Lay the workers' outputs end to end: records, facts candidates and
    // literal arenas, each worker's indices shifted past its predecessors'.
    let mut rows = Vec::with_capacity(n);
    let mut candidates = Vec::new();
    let mut lits = Literals::default();
    for (outcomes, shard, shard_cache) in results {
        cache_stats.hits += shard_cache.hits;
        cache_stats.misses += shard_cache.misses;
        cache_stats.fallbacks += shard_cache.fallbacks;
        cache_stats.crosschecks += shard_cache.crosschecks;
        let (facts_base, lits_base) = (index_u32(candidates.len()), index_u32(lits.len()));
        for outcome in outcomes {
            match outcome {
                Outcome::Select(r) => {
                    stats.selects += 1;
                    rows.push(r.shifted(facts_base, lits_base));
                }
                Outcome::NonSelect(kind) => {
                    *stats.non_select.entry(kind).or_default() += 1;
                }
                Outcome::Error { limit } => {
                    stats.errors += 1;
                    if limit {
                        stats.limit_exceeded += 1;
                    }
                }
                Outcome::Poison => stats.poison += 1,
            }
        }
        candidates.extend(shard.facts);
        lits.append(shard.lits);
    }
    canonicalize_templates(store, preexisting, &mut rows);
    let records = ParsedRecords::join(rows, candidates, lits, store.len());
    if rec.is_enabled() {
        // Walks of the templates and the records — enabled runs only.
        rec.counter("mem.template_store_bytes", store.approx_bytes() as u64);
        rec.counter_or_zero("mem.parsed_records_bytes", records.approx_bytes() as u64);
        rec.counter_or_zero("parse.unfactored_records", records.unfactored() as u64);
    }
    rec.counter("parse.total", stats.total as u64);
    rec.counter("parse.selects", stats.selects as u64);
    rec.counter("parse.errors", stats.errors as u64);
    rec.counter("parse.limit_rejected", stats.limit_exceeded as u64);
    rec.counter("parse.non_select", stats.non_select_total() as u64);
    rec.counter("parse.poison_records", stats.poison as u64);
    rec.counter("parse.degraded_shards", stats.degraded_shards as u64);
    // Interner effectiveness at stage granularity: every surviving SELECT
    // resolved a template; the ones that did not mint a fresh id hit a
    // worker memo or the shared store.
    let interned = (store.len() - preexisting) as u64;
    rec.counter("parse.templates_interned", interned);
    rec.counter(
        "parse.template_cache_hits",
        (stats.selects as u64).saturating_sub(interned),
    );
    rec.counter("parse.cache_hits", cache_stats.hits);
    rec.counter("parse.cache_misses", cache_stats.misses);
    rec.counter("parse.cache_fallbacks", cache_stats.fallbacks);
    rec.counter("parse.cache_crosschecks", cache_stats.crosschecks);
    ParsedLog {
        records,
        stats,
        cache: cache_stats,
    }
}

/// Reduces a worker's shape cache to its counters (the map is dropped).
fn tally(cache: ShapeCache) -> ParseCacheStats {
    ParseCacheStats {
        enabled: true,
        hits: cache.hits,
        misses: cache.misses,
        fallbacks: cache.fallbacks,
        crosschecks: cache.crosschecks,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sqlog_log::{LogEntry, QueryLog, Timestamp};

    fn parse(log: &QueryLog, store: &TemplateStore, threads: usize) -> ParsedLog {
        let config = PipelineConfig {
            parallelism: threads,
            ..PipelineConfig::default()
        };
        parse_stage(&LogView::identity(log), store, &config, None)
    }

    fn log(statements: &[&str]) -> QueryLog {
        QueryLog::from_entries(
            statements
                .iter()
                .enumerate()
                .map(|(i, s)| {
                    LogEntry::minimal(i as u64, *s, Timestamp::from_secs(i as i64)).with_user("u")
                })
                .collect(),
        )
    }

    #[test]
    fn filters_non_select_and_errors() {
        let log = log(&[
            "SELECT a FROM t WHERE x = 1",
            "INSERT INTO t VALUES (1)",
            "SELECT b FROM",
            "DELETE FROM t",
            "SELECT a FROM t WHERE x = 2",
        ]);
        let store = TemplateStore::new();
        let parsed = parse(&log, &store, 1);
        assert_eq!(parsed.stats.total, 5);
        assert_eq!(parsed.stats.selects, 2);
        assert_eq!(parsed.stats.errors, 1);
        assert_eq!(parsed.stats.non_select_total(), 2);
        assert_eq!(parsed.records.len(), 2);
        // Same skeleton → same template id.
        assert_eq!(parsed.records[0].template, parsed.records[1].template);
        assert_eq!(store.len(), 1);
        // Entry indices point into the input log.
        assert_eq!(parsed.records[0].entry_idx, 0);
        assert_eq!(parsed.records[1].entry_idx, 4);
    }

    #[test]
    fn parallel_equals_sequential() {
        let statements: Vec<String> = (0..500)
            .map(|i| format!("SELECT c{} FROM t WHERE x = {}", i % 7, i))
            .collect();
        let refs: Vec<&str> = statements.iter().map(String::as_str).collect();
        let log = log(&refs);
        let store1 = TemplateStore::new();
        let seq = parse(&log, &store1, 1);
        for threads in [2, 3, 8] {
            let store2 = TemplateStore::new();
            let par = parse(&log, &store2, threads);
            assert_eq!(seq.stats, par.stats);
            // Canonical renumbering makes the ids — not just the
            // fingerprints — identical across thread counts.
            assert_eq!(seq.records, par.records, "threads {threads}");
            for (a, b) in seq.records.iter().zip(&par.records) {
                assert_eq!(
                    store1.with(a.template, |t| t.fingerprint),
                    store2.with(b.template, |t| t.fingerprint)
                );
            }
        }
    }

    #[test]
    fn template_ids_are_first_appearance_ordered() {
        let statements: Vec<String> = (0..200)
            .map(|i| format!("SELECT c{} FROM t WHERE x = {}", (199 - i) % 5, i))
            .collect();
        let refs: Vec<&str> = statements.iter().map(String::as_str).collect();
        let log = log(&refs);
        let store = TemplateStore::new();
        let parsed = parse(&log, &store, 8);
        let mut seen_max = 0u32;
        for rec in &parsed.records {
            assert!(
                rec.template.0 <= seen_max,
                "template {} appears before all of 0..{}",
                rec.template.0,
                seen_max
            );
            seen_max = seen_max.max(rec.template.0 + 1);
        }
    }

    #[test]
    fn batch_rows_use_first_select() {
        let log = log(&["INSERT INTO t VALUES (1); SELECT a FROM t WHERE x = 1"]);
        let store = TemplateStore::new();
        let parsed = parse(&log, &store, 1);
        assert_eq!(parsed.stats.selects, 1);
        assert_eq!(parsed.records.view(0).primary_table(), Some("t"));
    }

    #[test]
    fn empty_log_is_fine() {
        let store = TemplateStore::new();
        let parsed = parse(&QueryLog::new(), &store, 4);
        assert_eq!(parsed.stats.total, 0);
        assert!(parsed.records.is_empty());
    }
}
