//! Stifle detection (Definitions 11–14).
//!
//! A Stifle instance is a maximal uninterrupted run of queries from one user
//! where every query has exactly one equality predicate on a key attribute
//! (Def. 11) and every adjacent pair stands in the *same* class relation:
//!
//! * **DW** (Def. 12): same skeleton, different constant,
//! * **DS** (Def. 13): same FROM and same WHERE (incl. constant), different
//!   SELECT clause,
//! * **DF** (Def. 14): different FROM, same WHERE (incl. constant).
//!
//! Runs shorter than two queries are not instances.

use super::{AntipatternClass, AntipatternInstance, DetectCtx, Detector};
use crate::parse_step::ParsedRecord;
use crate::store::{TemplateId, TemplateStore};
use sqlog_skeleton::ValueKind;

/// Detects the three Stifle classes.
pub struct StifleDetector;

/// The Def. 11 facts of one record, precomputed per run attempt.
struct Shape<'a> {
    template: TemplateId,
    column: &'a str,
    value: &'a ValueKind,
}

fn shape<'a>(ctx: &DetectCtx<'_>, rec: &'a ParsedRecord) -> Option<Shape<'a>> {
    let (column, value) = rec.profile.single_equality()?;
    // Def. 11: θ is equality on a *constant* (the log records values, and
    // the DW merge needs literals), and filCol is a key attribute.
    if !value.is_constant() {
        return None;
    }
    if ctx.config.require_key_attribute
        && !ctx
            .catalog
            .is_key_attribute(rec.primary_table.as_deref(), column)
    {
        return None;
    }
    Some(Shape {
        template: rec.template,
        column,
        value,
    })
}

/// The pairwise class relation between two Def.-11 queries.
fn relation(store: &TemplateStore, a: &Shape<'_>, b: &Shape<'_>) -> Option<AntipatternClass> {
    if a.template == b.template {
        // Same skeleton. Different constant → DW; identical constant would
        // be a duplicate, which is not a Stifle relation.
        return (a.value != b.value).then_some(AntipatternClass::DwStifle);
    }
    // Different skeletons: compare clause-wise (Defs. 13–14). The WHERE
    // clauses must agree *including* the constant.
    if a.column != b.column || a.value != b.value {
        return None;
    }
    store.with(a.template, |ta| {
        store.with(b.template, |tb| {
            if ta.sfc == tb.sfc && ta.ssc != tb.ssc && ta.swc == tb.swc {
                Some(AntipatternClass::DsStifle)
            } else if ta.sfc != tb.sfc && ta.swc == tb.swc {
                Some(AntipatternClass::DfStifle)
            } else {
                None
            }
        })
    })
}

/// Identity + marker keys for a finished run.
fn finish_run(class: AntipatternClass, run: &[(usize, TemplateId)]) -> AntipatternInstance {
    let records: Vec<usize> = run.iter().map(|(ri, _)| *ri).collect();
    // Distinct templates in first-appearance order.
    let mut distinct: Vec<TemplateId> = Vec::new();
    for (_, t) in run {
        if !distinct.contains(t) {
            distinct.push(*t);
        }
    }
    // Identity: canonical (sorted) distinct templates.
    let mut identity = distinct.clone();
    identity.sort_unstable();

    // Marker keys: the mined-pattern shapes this instance manifests as.
    let mut marker_keys: Vec<Vec<TemplateId>> = Vec::new();
    match class {
        AntipatternClass::DwStifle => {
            let t = distinct[0];
            marker_keys.push(vec![t]);
            marker_keys.push(vec![t, t]);
            marker_keys.push(vec![t, t, t]);
        }
        _ => {
            // All rotations of the distinct-template cycle: an alternation
            // A B A B … manifests as both [A,B] and [B,A] (Table 6 lists
            // both orders of the DS pair as separate antipatterns).
            let k = distinct.len();
            for r in 0..k {
                let mut rot: Vec<TemplateId> = Vec::with_capacity(k);
                rot.extend_from_slice(&distinct[r..]);
                rot.extend_from_slice(&distinct[..r]);
                marker_keys.push(rot);
            }
        }
    }

    AntipatternInstance {
        class,
        records,
        identity,
        marker_keys,
        solvable: true,
    }
}

impl Detector for StifleDetector {
    fn name(&self) -> &str {
        "stifle"
    }

    fn detect(&self, ctx: &DetectCtx<'_>) -> Vec<AntipatternInstance> {
        let mut out = Vec::new();
        for session in ctx.sessions {
            let recs = &session.records;
            let mut i = 0usize;
            while i < recs.len() {
                let Some(first) = shape(ctx, &ctx.records[recs[i]]) else {
                    i += 1;
                    continue;
                };
                // Grow the longest run of one class starting at i.
                let mut run: Vec<(usize, TemplateId)> = vec![(recs[i], first.template)];
                let mut class: Option<AntipatternClass> = None;
                let mut prev = first;
                let mut j = i + 1;
                while j < recs.len() {
                    let Some(cur) = shape(ctx, &ctx.records[recs[j]]) else {
                        break;
                    };
                    let Some(rel) = relation(ctx.store, &prev, &cur) else {
                        break;
                    };
                    match &class {
                        None => class = Some(rel),
                        Some(c) if *c != rel => break,
                        Some(_) => {}
                    }
                    run.push((recs[j], cur.template));
                    prev = cur;
                    j += 1;
                }
                match class {
                    Some(c) if run.len() >= 2 => {
                        out.push(finish_run(c, &run));
                        // Restart from the run's last record: a boundary
                        // query can open the next instance of a *different*
                        // class (the paper's Table 2 marks single statements
                        // as members of several antipatterns). Progress is
                        // guaranteed because j ≥ i + 2 here.
                        i = j - 1;
                    }
                    _ => i += 1,
                }
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

    fn detect(rows: &[&str]) -> (Vec<AntipatternInstance>, TemplateStore) {
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
        (StifleDetector.detect(&ctx), store)
    }

    #[test]
    fn detects_dw_run() {
        let (instances, _) = detect(&[
            "SELECT rowc_g, colc_g FROM photoprimary WHERE objid=1",
            "SELECT rowc_g, colc_g FROM photoprimary WHERE objid=2",
            "SELECT rowc_g, colc_g FROM photoprimary WHERE objid=3",
        ]);
        assert_eq!(instances.len(), 1);
        let inst = &instances[0];
        assert_eq!(inst.class, AntipatternClass::DwStifle);
        assert_eq!(inst.records, vec![0, 1, 2]);
        assert_eq!(inst.identity.len(), 1);
        assert!(inst.solvable);
    }

    #[test]
    fn detects_ds_alternation_as_one_instance() {
        // Paper Example 11 shape: same FROM+WHERE, different SELECT.
        let (instances, _) = detect(&[
            "SELECT name FROM Employee WHERE empId=8",
            "SELECT address, phone FROM Employee WHERE empId=8",
        ]);
        assert_eq!(instances.len(), 1);
        assert_eq!(instances[0].class, AntipatternClass::DsStifle);
        assert_eq!(instances[0].identity.len(), 2);
        // Both rotations are marker keys.
        assert_eq!(instances[0].marker_keys.len(), 2);
    }

    #[test]
    fn detects_df_pair() {
        // Paper Example 13: same WHERE, different tables.
        let (instances, _) = detect(&[
            "SELECT name FROM Employee WHERE empId = 8",
            "SELECT address FROM EmployeeInfo WHERE empId = 8",
        ]);
        assert_eq!(instances.len(), 1);
        assert_eq!(instances[0].class, AntipatternClass::DfStifle);
    }

    #[test]
    fn constant_change_breaks_a_ds_run() {
        let (instances, _) = detect(&[
            "SELECT rowc_r, colc_r FROM photoprimary WHERE objid=1",
            "SELECT rowc_g, colc_g FROM photoprimary WHERE objid=1",
            "SELECT rowc_r, colc_r FROM photoprimary WHERE objid=2",
            "SELECT rowc_g, colc_g FROM photoprimary WHERE objid=2",
        ]);
        // Two DS instances (one per objid) — the boundary pair differs in
        // both SELECT and constant, which matches no class.
        assert_eq!(instances.len(), 2);
        assert!(instances
            .iter()
            .all(|i| i.class == AntipatternClass::DsStifle));
    }

    #[test]
    fn without_the_key_axiom_non_key_filters_become_stifles() {
        // The paper's discussed ablation: dropping Def. 11's third axiom
        // admits false positives like repeated magnitude filters.
        let log = QueryLog::from_entries(
            [
                "SELECT objid FROM photoprimary WHERE r = 14.2",
                "SELECT objid FROM photoprimary WHERE r = 15.1",
            ]
            .iter()
            .enumerate()
            .map(|(i, s)| {
                LogEntry::minimal(i as u64, *s, Timestamp::from_secs(i as i64)).with_user("u")
            })
            .collect(),
        );
        let store = TemplateStore::new();
        let config = PipelineConfig {
            require_key_attribute: false,
            ..PipelineConfig::default()
        };
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
        let instances = StifleDetector.detect(&ctx);
        assert_eq!(instances.len(), 1);
        assert_eq!(instances[0].class, AntipatternClass::DwStifle);
    }

    #[test]
    fn non_key_filter_is_not_a_stifle() {
        // `r` is a magnitude, not a key (Def. 11's third axiom).
        let (instances, _) = detect(&[
            "SELECT objid FROM photoprimary WHERE r = 14.2",
            "SELECT objid FROM photoprimary WHERE r = 15.1",
        ]);
        assert!(instances.is_empty());
    }

    #[test]
    fn multi_predicate_queries_are_not_stifles() {
        let (instances, _) = detect(&[
            "SELECT a FROM photoprimary WHERE objid = 1 AND run = 2",
            "SELECT a FROM photoprimary WHERE objid = 2 AND run = 2",
        ]);
        assert!(instances.is_empty());
    }

    #[test]
    fn range_predicates_are_not_stifles() {
        let (instances, _) = detect(&[
            "SELECT a FROM photoprimary WHERE objid > 1",
            "SELECT a FROM photoprimary WHERE objid > 2",
        ]);
        assert!(instances.is_empty());
    }

    #[test]
    fn identical_repeats_are_not_dw() {
        // Same constant twice = duplicate territory, not DW.
        let (instances, _) = detect(&[
            "SELECT a FROM photoprimary WHERE objid = 1",
            "SELECT a FROM photoprimary WHERE objid = 1",
        ]);
        assert!(instances.is_empty());
    }

    #[test]
    fn class_switch_starts_a_new_instance() {
        // DW DW DW then DS pair on the last constant.
        let (instances, _) = detect(&[
            "SELECT rowc_g, colc_g FROM photoprimary WHERE objid=1",
            "SELECT rowc_g, colc_g FROM photoprimary WHERE objid=2",
            "SELECT rowc_g, colc_g FROM photoprimary WHERE objid=3",
            "SELECT ra, dec FROM photoprimary WHERE objid=3",
        ]);
        assert_eq!(instances.len(), 2);
        assert_eq!(instances[0].class, AntipatternClass::DwStifle);
        assert_eq!(instances[0].records, vec![0, 1, 2]);
        assert_eq!(instances[1].class, AntipatternClass::DsStifle);
        assert_eq!(instances[1].records, vec![2, 3]);
    }

    #[test]
    fn dw_marker_keys_cover_ngram_shapes() {
        let (instances, _) = detect(&[
            "SELECT a FROM photoprimary WHERE objid = 1",
            "SELECT a FROM photoprimary WHERE objid = 2",
        ]);
        let keys = &instances[0].marker_keys;
        assert_eq!(keys.len(), 3);
        assert_eq!(keys[0].len(), 1);
        assert_eq!(keys[1].len(), 2);
        assert_eq!(keys[2].len(), 3);
    }
}
