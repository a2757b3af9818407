//! Step 1 of the pipeline: deleting duplicate queries (§5.2).
//!
//! Duplicates are identical statements (after text normalization — see
//! [`sqlog_skeleton::normalize_sql_text`]) from the same user within a small
//! time window. They are unintended re-submissions — web-form reloads or
//! application errors — and stand for the *same* information need, so they
//! are removed before any analysis. The threshold is configurable and
//! `None` means "unrestricted" (Table 4's last row).
//!
//! Deduplication is keyed by `(user, statement fingerprint)`, so the log
//! partitions cleanly by user: [`crate::Pipeline::op_dedup`] shards the scan
//! across users and merges the per-shard survivors back into log order,
//! producing exactly the sequential result for any thread count. The output
//! is a [`LogView`] — an index vector over the input — so no log entry (or
//! its statement `String`) is ever cloned on this path.

use crate::config::PipelineConfig;
use crate::fault;
use crate::shard::{
    balance_chunks, guarded, resolve_threads, run_shards_traced, whole_range, ShardTrace,
};
use sqlog_log::LogView;
use sqlog_obs::SpanId;
use sqlog_skeleton::{text_fingerprint, Fingerprint, FnvHashMap};

/// Outcome statistics of duplicate removal.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct DedupStats {
    /// Entries examined.
    pub input: usize,
    /// Entries removed as duplicates.
    pub removed: usize,
    /// Entries kept.
    pub kept: usize,
    /// Poison entries skipped during degraded (per-record) re-runs of
    /// panicked shards.
    pub poison: usize,
    /// Shards whose worker panicked and was recovered per-record.
    pub degraded_shards: usize,
}

/// Per-shard result of a dedup scan.
struct ShardScan {
    /// Kept view positions, in log order within the shard's users.
    kept: Vec<u32>,
    /// Poison records skipped (degraded re-runs only).
    poison: usize,
}

/// Duplicate decision for one record. Always records the latest
/// occurrence — kept *or* removed — so a burst of reloads collapses to its
/// first statement (chain collapse).
fn is_dup(
    last_seen: &mut FnvHashMap<(u32, Fingerprint), i64>,
    uid: u32,
    fp: Fingerprint,
    now: i64,
    threshold_ms: Option<u64>,
) -> bool {
    let dup = match last_seen.get(&(uid, fp)) {
        Some(&prev) => match threshold_ms {
            Some(t) => (now - prev) as u64 <= t,
            None => true,
        },
        None => false,
    };
    last_seen.insert((uid, fp), now);
    dup
}

/// Sequential scan over one user-partition of the view: positions whose
/// entry repeats the user's previous identical statement within the
/// threshold are duplicates. `uids[i]` identifies the user of position `i`;
/// only positions with `uid_range.contains(uids[i])` are examined.
fn scan_partition(
    view: &LogView<'_>,
    uids: &[u32],
    uid_range: std::ops::Range<u32>,
    threshold_ms: Option<u64>,
) -> ShardScan {
    let fault = fault::armed("dedup");
    let mut last_seen = FnvHashMap::default();
    let mut kept = Vec::new();
    for (i, &uid) in uids.iter().enumerate() {
        if !uid_range.contains(&uid) {
            continue;
        }
        let e = view.entry(i);
        fault::trip(&fault, &e.statement);
        let fp = text_fingerprint(&e.statement);
        if !is_dup(&mut last_seen, uid, fp, e.timestamp.millis(), threshold_ms) {
            kept.push(i as u32);
        }
    }
    ShardScan { kept, poison: 0 }
}

/// Degraded re-run of [`scan_partition`] after its worker panicked: the
/// steps that run untrusted statement text (the injected trip and the
/// fingerprint) run under a per-record panic guard, so exactly the poison
/// records are skipped (they contribute neither a kept position nor a
/// `last_seen` stamp) and everything around them dedups normally. The map
/// is updated only outside the guard, so a panic never leaves partial
/// state behind.
fn scan_partition_isolated(
    view: &LogView<'_>,
    uids: &[u32],
    uid_range: std::ops::Range<u32>,
    threshold_ms: Option<u64>,
) -> ShardScan {
    let fault = fault::armed("dedup");
    let mut last_seen = FnvHashMap::default();
    let mut kept = Vec::new();
    let mut poison = 0usize;
    for (i, &uid) in uids.iter().enumerate() {
        if !uid_range.contains(&uid) {
            continue;
        }
        let e = view.entry(i);
        let Some(fp) = guarded(|| {
            fault::trip(&fault, &e.statement);
            text_fingerprint(&e.statement)
        }) else {
            poison += 1;
            continue;
        };
        if !is_dup(&mut last_seen, uid, fp, e.timestamp.millis(), threshold_ms) {
            kept.push(i as u32);
        }
    }
    ShardScan { kept, poison }
}

/// Removes duplicates from a log view, returning the surviving entries as a
/// new view over the same base log (no entry clones) plus statistics — the
/// body of [`crate::Pipeline::op_dedup`].
///
/// An entry is a duplicate when the same user issued a textually identical
/// statement at most [`PipelineConfig::duplicate_threshold_ms`] earlier —
/// where "earlier" compares against the most recent occurrence, kept *or*
/// removed, so a burst of reloads collapses to its first statement. A large
/// number of removals can indicate an application refactoring, which is why
/// the count is reported (§5.2).
///
/// Users are independent under the `(user, fingerprint)` key, so the scan
/// shards by user over [`PipelineConfig::parallelism`] threads and the
/// merged result is identical for every thread count. Per-shard spans
/// (`"dedup.shard"`, parented under `parent`), a shard-latency histogram
/// and outcome counters land in the config's recorder.
pub(crate) fn dedup_stage<'a>(
    view: &LogView<'a>,
    config: &PipelineConfig,
    parent: Option<SpanId>,
) -> (LogView<'a>, DedupStats) {
    debug_assert!(view.is_time_sorted(), "dedup requires a time-sorted log");
    let rec = &config.recorder;
    let threshold_ms = config.duplicate_threshold_ms;
    let n = view.len();
    let threads = resolve_threads(config.parallelism).min(n.max(1));

    // Partition by user: intern user keys by first appearance.
    let mut uid_of: FnvHashMap<&str, u32> = FnvHashMap::default();
    let mut uids: Vec<u32> = Vec::with_capacity(n);
    let mut counts: Vec<u64> = Vec::new();
    for i in 0..n {
        let key = view.entry(i).user_key();
        let next = counts.len() as u32;
        let uid = *uid_of.entry(key).or_insert(next);
        if uid == next {
            counts.push(0);
        }
        counts[uid as usize] += 1;
        uids.push(uid);
    }

    let ranges = if threads <= 1 || counts.len() <= 1 {
        whole_range(counts.len())
    } else {
        balance_chunks(&counts, threads)
    };
    let uids = &uids;
    let counts = &counts;
    let (shards, degraded) = run_shards_traced(
        ranges,
        ShardTrace {
            rec,
            parent,
            span_name: "dedup.shard",
            hist_name: "dedup.shard_us",
        },
        // Work units = entries belonging to the shard's user range.
        |r| counts[r.clone()].iter().sum(),
        |r| scan_partition(view, uids, r.start as u32..r.end as u32, threshold_ms),
        |r| scan_partition_isolated(view, uids, r.start as u32..r.end as u32, threshold_ms),
    );
    let mut poison = 0usize;
    // Per-shard survivors are disjoint view positions; sorting restores
    // global log order, making the merge independent of sharding.
    let mut kept: Vec<u32> = Vec::new();
    for shard in shards {
        kept.extend(shard.kept);
        poison += shard.poison;
    }
    kept.sort_unstable();

    let stats = DedupStats {
        input: n,
        removed: n - kept.len() - poison,
        kept: kept.len(),
        poison,
        degraded_shards: degraded,
    };
    rec.counter("dedup.input", stats.input as u64);
    rec.counter("dedup.removed", stats.removed as u64);
    rec.counter("dedup.kept", stats.kept as u64);
    rec.counter("dedup.poison_records", stats.poison as u64);
    rec.counter("dedup.degraded_shards", stats.degraded_shards as u64);
    (view.select(kept), stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sqlog_log::{LogEntry, QueryLog, Timestamp};

    fn entry(id: u64, ms: i64, user: &str, stmt: &str) -> LogEntry {
        LogEntry::minimal(id, stmt, Timestamp::from_millis(ms)).with_user(user)
    }

    /// Surviving entry ids and statistics at `threads` worker threads.
    fn dedup_on(
        log: &QueryLog,
        threshold_ms: Option<u64>,
        threads: usize,
    ) -> (Vec<u64>, DedupStats) {
        let config = PipelineConfig {
            duplicate_threshold_ms: threshold_ms,
            parallelism: threads,
            ..PipelineConfig::default()
        };
        let (kept, stats) = dedup_stage(&LogView::identity(log), &config, None);
        (kept.iter().map(|e| e.id).collect(), stats)
    }

    fn dedup(log: &QueryLog, threshold_ms: Option<u64>) -> (Vec<u64>, DedupStats) {
        dedup_on(log, threshold_ms, 1)
    }

    #[test]
    fn removes_sub_threshold_repeats() {
        let log = QueryLog::from_entries(vec![
            entry(0, 0, "a", "SELECT 1"),
            entry(1, 500, "a", "SELECT 1"),
            entry(2, 5_000, "a", "SELECT 1"),
        ]);
        let (ids, stats) = dedup(&log, Some(1_000));
        assert_eq!(stats.removed, 1);
        assert_eq!(ids, vec![0, 2]);
    }

    #[test]
    fn chains_collapse_to_the_first() {
        // 0 ─ 900ms ─ 1800ms: each repeat is within 1s of the previous one.
        let log = QueryLog::from_entries(vec![
            entry(0, 0, "a", "SELECT 1"),
            entry(1, 900, "a", "SELECT 1"),
            entry(2, 1_800, "a", "SELECT 1"),
        ]);
        let (ids, stats) = dedup(&log, Some(1_000));
        assert_eq!(stats.removed, 2);
        assert_eq!(ids, vec![0]);
    }

    #[test]
    fn different_users_never_dedup() {
        let log = QueryLog::from_entries(vec![
            entry(0, 0, "a", "SELECT 1"),
            entry(1, 100, "b", "SELECT 1"),
        ]);
        let (_, stats) = dedup(&log, Some(1_000));
        assert_eq!(stats.removed, 0);
    }

    #[test]
    fn unrestricted_threshold_removes_all_repeats() {
        let log = QueryLog::from_entries(vec![
            entry(0, 0, "a", "SELECT 1"),
            entry(1, 86_400_000, "a", "SELECT 1"),
            entry(2, 0, "a", "SELECT 2"),
        ]);
        let mut log = log;
        log.sort_by_time();
        let (ids, stats) = dedup(&log, None);
        assert_eq!(stats.removed, 1);
        assert_eq!(ids.len(), 2);
    }

    #[test]
    fn whitespace_and_case_variants_are_duplicates() {
        let log = QueryLog::from_entries(vec![
            entry(0, 0, "a", "SELECT objid FROM photoprimary WHERE x = 1"),
            entry(1, 300, "a", "select  OBJID\nfrom photoprimary where x = 1"),
        ]);
        let (_, stats) = dedup(&log, Some(1_000));
        assert_eq!(stats.removed, 1);
    }

    #[test]
    fn different_constants_are_not_duplicates() {
        let log = QueryLog::from_entries(vec![
            entry(0, 0, "a", "SELECT a FROM t WHERE x = 1"),
            entry(1, 100, "a", "SELECT a FROM t WHERE x = 2"),
        ]);
        let (_, stats) = dedup(&log, Some(1_000));
        assert_eq!(stats.removed, 0);
    }

    #[test]
    fn higher_threshold_removes_at_least_as_much() {
        // Monotonicity property behind Table 4.
        let mut entries = Vec::new();
        for i in 0..50i64 {
            entries.push(entry(i as u64, i * 700, "a", "SELECT 1"));
            entries.push(entry(100 + i as u64, i * 700 + 350, "a", "SELECT 2"));
        }
        let mut log = QueryLog::from_entries(entries);
        log.sort_by_time();
        let mut prev_removed = 0;
        for t in [0u64, 500, 1_000, 2_000, 5_000] {
            let (_, stats) = dedup(&log, Some(t));
            assert!(stats.removed >= prev_removed, "threshold {t}");
            prev_removed = stats.removed;
        }
        let (_, unrestricted) = dedup(&log, None);
        assert!(unrestricted.removed >= prev_removed);
    }

    #[test]
    fn sharded_dedup_equals_sequential() {
        // Many interleaved users with in-user repeat chains.
        let mut entries = Vec::new();
        let mut id = 0u64;
        for step in 0..200i64 {
            for u in 0..7 {
                let user = format!("10.0.0.{u}");
                let stmt = format!("SELECT a FROM t WHERE x = {}", step % (u + 2));
                entries.push(entry(id, step * 400, &user, &stmt));
                id += 1;
            }
        }
        let mut log = QueryLog::from_entries(entries);
        log.sort_by_time();
        let (seq, seq_stats) = dedup(&log, Some(1_000));
        for threads in [2, 3, 8] {
            let (par, par_stats) = dedup_on(&log, Some(1_000), threads);
            assert_eq!(seq_stats, par_stats, "threads {threads}");
            assert_eq!(seq, par, "threads {threads}");
        }
    }

    #[test]
    fn hostile_text_dedups_on_normalized_text() {
        // Normalize-equal pairs that differ in raw bytes (trailing
        // semicolons, comments, case) are duplicates; texts that differ in
        // a literal, in comment-glued tokens or in string-literal case are
        // not. Unterminated literals and non-SELECTs dedup like any text.
        let log = QueryLog::from_entries(vec![
            entry(0, 0, "a", "SELECT a FROM t WHERE x = 1"),
            entry(1, 100, "a", "SELECT a FROM t WHERE x = 1;"),
            entry(2, 150, "b", "SELECT a FROM t WHERE x = 1"),
            entry(3, 200, "a", "select A from T where X = 1 -- c"),
            entry(4, 250, "b", "SELECT a FROM t WHERE x = 1 ; "),
            entry(5, 300, "a", "SELECT a FROM t WHERE x = 2"),
            entry(6, 400, "a", "SELECT a/*gap*/FROM t WHERE x = 1"),
            entry(7, 500, "a", "SELECT 'it''s' FROM t"),
            entry(8, 600, "a", "SELECT 'its' FROM t"),
            entry(9, 700, "a", "SELECT 'oops"),
            entry(10, 800, "a", "INSERT INTO t VALUES (1)"),
            entry(11, 900, "a", "SELECT 'it''s' FROM t"),
            entry(12, 1_000, "a", "select 'its' from T"),
            entry(13, 1_100, "a", "insert into t values (1) -- again"),
            entry(14, 5_000, "a", "SELECT 'oops"),
            entry(15, 5_100, "a", "SELECT 'OOPS"),
        ]);
        let windowed = vec![0, 2, 5, 6, 7, 8, 9, 10, 14, 15];
        let unrestricted = vec![0, 2, 5, 6, 7, 8, 9, 10, 15];
        for threads in [1usize, 4] {
            let (ids, stats) = dedup_on(&log, Some(1_000), threads);
            assert_eq!(ids, windowed, "threads {threads}");
            assert_eq!(stats.removed, log.len() - windowed.len());
            let (ids, _) = dedup_on(&log, None, threads);
            assert_eq!(ids, unrestricted, "threads {threads}");
        }
    }

    #[test]
    fn view_output_borrows_the_base_log() {
        let log = QueryLog::from_entries(vec![
            entry(0, 0, "a", "SELECT 1"),
            entry(1, 100, "a", "SELECT 1"),
            entry(2, 5_000, "a", "SELECT 2"),
        ]);
        let config = PipelineConfig {
            parallelism: 1,
            ..PipelineConfig::default()
        };
        let (clean, stats) = dedup_stage(&LogView::identity(&log), &config, None);
        assert_eq!(stats.removed, 1);
        assert_eq!(clean.len(), 2);
        // The surviving positions map back into the original log.
        assert_eq!(clean.base_index(0), 0);
        assert_eq!(clean.base_index(1), 2);
        assert!(std::ptr::eq(clean.base(), &log));
    }
}
