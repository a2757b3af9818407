//! Searching-nullable-columns detection (Definition 16, §5.4).
//!
//! `col = NULL` and `col <> NULL` never match anything in SQL's three-valued
//! logic; the intended forms are `IS NULL` / `IS NOT NULL`. The paper uses
//! SNC as the worked example of extending the framework with a new
//! antipattern: a single-query pattern with a direct rewrite.

use super::{AntipatternClass, AntipatternInstance, DetectCtx, Detector};

/// Detects SNC occurrences.
pub struct SncDetector;

impl Detector for SncDetector {
    fn name(&self) -> &str {
        "snc"
    }

    fn detect(&self, ctx: &DetectCtx<'_>) -> Vec<AntipatternInstance> {
        // Iterate session-wise (not over all records) so that detection can
        // shard by session range without double-counting; every parsed
        // record belongs to exactly one session.
        let mut out = Vec::new();
        for session in ctx.sessions {
            for &ri in &session.records {
                let rec = &ctx.records[ri];
                if rec.profile.null_comparisons().is_empty() {
                    continue;
                }
                out.push(AntipatternInstance {
                    class: AntipatternClass::Snc,
                    records: vec![ri],
                    identity: vec![rec.template],
                    marker_keys: vec![vec![rec.template]],
                    solvable: true,
                });
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::PipelineConfig;
    use crate::mine::sessions_stage;
    use crate::parse_step::parse_stage;
    use crate::store::TemplateStore;
    use sqlog_catalog::skyserver_catalog;
    use sqlog_log::{LogEntry, LogView, QueryLog, Timestamp};

    fn detect(rows: &[&str]) -> Vec<AntipatternInstance> {
        let log = QueryLog::from_entries(
            rows.iter()
                .enumerate()
                .map(|(i, s)| {
                    LogEntry::minimal(i as u64, *s, Timestamp::from_secs(i as i64)).with_user("u")
                })
                .collect(),
        );
        let store = TemplateStore::new();
        let config = PipelineConfig::default();
        let view = LogView::identity(&log);
        let parsed = parse_stage(&view, &store, &config, None);
        let sessions = sessions_stage(&view, &parsed.records, &config, None);
        let catalog = skyserver_catalog();
        let ctx = DetectCtx {
            log: &view,
            records: &parsed.records,
            sessions: &sessions.sessions,
            store: &store,
            catalog: &catalog,
            config: &config,
        };
        SncDetector.detect(&ctx)
    }

    #[test]
    fn detects_paper_examples() {
        let instances = detect(&[
            "SELECT * FROM Bugs WHERE assigned_to = NULL",
            "SELECT * FROM Bugs WHERE assigned_to <> NULL",
            "SELECT * FROM Bugs WHERE assigned_to IS NULL",
        ]);
        assert_eq!(instances.len(), 2);
        assert!(instances
            .iter()
            .all(|i| i.class == AntipatternClass::Snc && i.solvable));
    }

    #[test]
    fn snc_inside_conjunction_detected() {
        let instances = detect(&["SELECT a FROM t WHERE x = 1 AND y = NULL"]);
        assert_eq!(instances.len(), 1);
    }

    #[test]
    fn null_in_select_list_is_fine() {
        let instances = detect(&["SELECT NULL FROM t WHERE x = 1"]);
        assert!(instances.is_empty());
    }
}
