//! Property tests for duplicate deletion (§5.2).

use proptest::prelude::*;
use sqlog_catalog::Catalog;
use sqlog_core::{DedupStats, Pipeline, PipelineConfig};
use sqlog_log::{LogEntry, LogView, QueryLog, Timestamp};

fn dedup(log: &QueryLog, threshold_ms: Option<u64>) -> (QueryLog, DedupStats) {
    let catalog = Catalog::new();
    let pipeline = Pipeline::new(&catalog).with_config(PipelineConfig {
        duplicate_threshold_ms: threshold_ms,
        parallelism: 1,
        ..PipelineConfig::default()
    });
    let (kept, stats) = pipeline.op_dedup(&LogView::identity(log));
    (kept.to_log(), stats)
}

fn log_strategy() -> impl Strategy<Value = QueryLog> {
    // Few distinct statements and users, bursty times: a dedup stress mix.
    prop::collection::vec((0u8..6, 0u8..3, 0i64..20_000), 0..60).prop_map(|rows| {
        let mut entries: Vec<LogEntry> = rows
            .into_iter()
            .enumerate()
            .map(|(i, (stmt, user, ms))| {
                LogEntry::minimal(
                    i as u64,
                    format!("SELECT c{stmt} FROM t WHERE x = {stmt}"),
                    Timestamp::from_millis(ms),
                )
                .with_user(format!("u{user}"))
            })
            .collect();
        entries.sort_by_key(|e| (e.timestamp, e.id));
        for (i, e) in entries.iter_mut().enumerate() {
            e.id = i as u64;
        }
        QueryLog::from_entries(entries)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Larger thresholds never remove fewer duplicates (the Table 4 shape).
    #[test]
    fn threshold_monotonicity(log in log_strategy()) {
        let mut prev = 0usize;
        for t in [0u64, 500, 1_000, 5_000] {
            let (_, stats) = dedup(&log, Some(t));
            prop_assert!(stats.removed >= prev);
            prev = stats.removed;
        }
        let (_, unrestricted) = dedup(&log, None);
        prop_assert!(unrestricted.removed >= prev);
    }

    /// Deduplication is idempotent: a second pass removes nothing.
    #[test]
    fn idempotence(log in log_strategy(), t in prop::option::of(0u64..5_000)) {
        let (once, _) = dedup(&log, t);
        let (twice, second) = dedup(&once, t);
        prop_assert_eq!(second.removed, 0);
        prop_assert_eq!(once, twice);
    }

    /// Dedup only ever removes entries, never reorders or invents them.
    #[test]
    fn output_is_a_subsequence(log in log_strategy(), t in 0u64..5_000) {
        let (clean, stats) = dedup(&log, Some(t));
        prop_assert_eq!(clean.len() + stats.removed, log.len());
        // Subsequence check by (id) order.
        let mut it = log.entries.iter();
        for kept in &clean.entries {
            prop_assert!(
                it.any(|orig| orig.id == kept.id),
                "entry {} not in order",
                kept.id
            );
        }
    }

    /// The first occurrence of every distinct (user, statement) is kept.
    #[test]
    fn first_occurrences_survive(log in log_strategy(), t in prop::option::of(0u64..5_000)) {
        let (clean, _) = dedup(&log, t);
        let mut firsts = std::collections::HashSet::new();
        for e in &log.entries {
            let key = (e.user_key().to_string(), e.statement.clone());
            if firsts.insert(key) {
                prop_assert!(
                    clean.entries.iter().any(|c| c.id == e.id),
                    "first occurrence {} was removed",
                    e.id
                );
            }
        }
    }
}
