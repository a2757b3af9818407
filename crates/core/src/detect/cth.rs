//! Circuitous-Treasure-Hunt candidate detection (Definition 15).
//!
//! A CTH candidate is a source query followed (closely, by the same user) by
//! queries that
//!
//! * have a different skeleton than the source (SQ₁ ≠ SQ₂),
//! * consist of exactly one equality predicate (CP = 1, θ = equality), and
//! * filter on an attribute the source query's SELECT clause may have
//!   produced.
//!
//! Re-querying being off the table (§1), this yields *candidates* only; the
//! true/false decision requires domain knowledge — in this reproduction the
//! workload generator's ground-truth labels play that role (§6.6).

use super::{AntipatternClass, AntipatternInstance, DetectCtx, Detector};
use crate::store::TemplateId;

/// Detects CTH candidates.
pub struct CthDetector;

impl Detector for CthDetector {
    fn name(&self) -> &str {
        "cth"
    }

    fn detect(&self, ctx: &DetectCtx<'_>) -> Vec<AntipatternInstance> {
        let mut out = Vec::new();
        let lookahead = ctx.config.cth_lookahead.max(1);
        let max_gap = ctx.config.cth_max_gap_ms;

        for session in ctx.sessions {
            let recs = &session.records;
            let mut k = 0usize;
            while k < recs.len() {
                let src_ri = recs[k];
                let src = &ctx.records[src_ri];
                // A source must produce *something* a follow-up could use.
                if !src.output.wildcard && src.output.names.is_empty() {
                    k += 1;
                    continue;
                }
                let src_ms = ctx.record_millis(src_ri);
                let mut followups: Vec<usize> = Vec::new();
                let mut follow_tpls: Vec<TemplateId> = Vec::new();
                for &f_ri in recs
                    .iter()
                    .take(recs.len().min(k + 1 + lookahead))
                    .skip(k + 1)
                {
                    let f = &ctx.records[f_ri];
                    // Def. 15: SQ₁ ≠ SQ₂, CP = 1, θ = equality.
                    if f.template == src.template {
                        break;
                    }
                    let Some((col, _value)) = f.profile.single_equality() else {
                        break;
                    };
                    // The constant must be an attribute the source produced.
                    if !src.output.may_contain(col) {
                        break;
                    }
                    // Close in time: a hunt is a software loop, not a visit
                    // next week. (Even human browsing within a few minutes
                    // qualifies as a *candidate* — cf. Table 9.)
                    if (ctx.record_millis(f_ri) - src_ms) as u64 > max_gap {
                        break;
                    }
                    followups.push(f_ri);
                    if !follow_tpls.contains(&f.template) {
                        follow_tpls.push(f.template);
                    }
                }
                if followups.is_empty() {
                    k += 1;
                    continue;
                }

                let mut records = Vec::with_capacity(1 + followups.len());
                records.push(src_ri);
                records.extend_from_slice(&followups);

                // Identity: source template + distinct follow-up templates.
                let mut identity = vec![src.template];
                identity.extend(follow_tpls.iter().copied());

                // Marker keys: each (source, follow-up) pair plus the full
                // distinct sequence.
                let mut marker_keys: Vec<Vec<TemplateId>> =
                    follow_tpls.iter().map(|&f| vec![src.template, f]).collect();
                if identity.len() > 2 {
                    marker_keys.push(identity.clone());
                }

                let n_follow = followups.len();
                out.push(AntipatternInstance {
                    class: AntipatternClass::CthCandidate,
                    records,
                    identity,
                    marker_keys,
                    solvable: false,
                });
                // Continue after the follow-ups.
                k += 1 + n_follow;
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

    fn detect_at(rows: &[(&str, i64)]) -> Vec<AntipatternInstance> {
        let log = QueryLog::from_entries(
            rows.iter()
                .enumerate()
                .map(|(i, (s, secs))| {
                    LogEntry::minimal(i as u64, *s, Timestamp::from_secs(*secs)).with_user("u")
                })
                .collect(),
        );
        let store = TemplateStore::new();
        let config = PipelineConfig::default();
        let view = LogView::identity(&log);
        let parsed = parse_stage(&view, &store, &config, None);
        let long_gap = PipelineConfig {
            session_gap_ms: 600_000,
            ..config.clone()
        };
        let sessions = sessions_stage(&view, &parsed.records, &long_gap, None);
        let catalog = skyserver_catalog();
        let ctx = DetectCtx {
            log: &view,
            records: &parsed.records,
            sessions: &sessions.sessions,
            store: &store,
            catalog: &catalog,
            config: &config,
        };
        CthDetector.detect(&ctx)
    }

    #[test]
    fn detects_table_10_shape() {
        // The paper's CTH candidate 2: wildcard source, instant follow-up.
        let instances = detect_at(&[
            (
                "SELECT * FROM dbo.fGetNearestObjEq(145.38708,0.12532,0.1)",
                0,
            ),
            (
                "SELECT plate, fiberID, mjd, SpecObjID FROM SpecObjAll \
                 WHERE SpecObjID = 75094094447116288",
                0,
            ),
        ]);
        assert_eq!(instances.len(), 1);
        let inst = &instances[0];
        assert_eq!(inst.class, AntipatternClass::CthCandidate);
        assert_eq!(inst.records, vec![0, 1]);
        assert!(!inst.solvable);
    }

    #[test]
    fn detects_table_9_shape_with_named_output() {
        // Candidate 1: the source lists `name, type`; the follow-up filters
        // on `name`. 27 seconds apart — still a candidate.
        let instances = detect_at(&[
            (
                "SELECT name, type FROM DBObjects WHERE type='U' AND name NOT IN \
                 ('LoadEvents', 'QueryResults') ORDER BY name",
                0,
            ),
            ("SELECT description FROM DBObjects WHERE name='Galaxy'", 27),
        ]);
        assert_eq!(instances.len(), 1);
    }

    #[test]
    fn table_2_sequence_is_one_candidate() {
        // The paper's parsed-log example (Table 2): the source selects
        // `E.Id`, and the follow-ups filter on `id`. (Table 1's original
        // spelling selects `empId`, which the paper itself normalizes to
        // `Id` in Table 2 — Def. 15 is strict about the attribute name.)
        let instances = detect_at(&[
            (
                "SELECT E.Id FROM Employees E WHERE E.department = 'sales'",
                0,
            ),
            (
                "SELECT E.name, E.surname FROM Employees E WHERE E.id = 12",
                5,
            ),
            (
                "SELECT E.name, E.surname FROM Employees E WHERE E.id = 15",
                9,
            ),
            (
                "SELECT E.name, E.surname FROM Employees E WHERE E.id = 16",
                15,
            ),
        ]);
        assert_eq!(instances.len(), 1);
        let inst = &instances[0];
        assert_eq!(inst.records, vec![0, 1, 2, 3]);
        // Source template + one distinct follow-up template.
        assert_eq!(inst.identity.len(), 2);
    }

    #[test]
    fn unrelated_filter_column_is_not_a_followup() {
        let instances = detect_at(&[
            ("SELECT rowc_g, colc_g FROM photoprimary WHERE objid = 1", 0),
            ("SELECT rowc_g FROM photoobjall WHERE objid = 2", 1),
        ]);
        // Source outputs rowc_g/colc_g; follow-up filters objid → no CTH.
        assert!(instances.is_empty());
    }

    #[test]
    fn same_template_is_not_a_followup() {
        let instances = detect_at(&[
            ("SELECT objid FROM photoprimary WHERE objid = 1", 0),
            ("SELECT objid FROM photoprimary WHERE objid = 2", 1),
        ]);
        assert!(instances.is_empty());
    }

    #[test]
    fn large_gap_is_not_a_hunt() {
        let instances = detect_at(&[
            ("SELECT * FROM dbo.fGetNearestObjEq(1.0, 2.0, 0.1)", 0),
            (
                "SELECT z FROM SpecObjAll WHERE SpecObjID = 5",
                400, // 400 s > 300 s default
            ),
        ]);
        assert!(instances.is_empty());
    }

    #[test]
    fn multi_predicate_followup_rejected() {
        let instances = detect_at(&[
            ("SELECT * FROM dbo.fGetNearestObjEq(1.0, 2.0, 0.1)", 0),
            (
                "SELECT z FROM SpecObjAll WHERE SpecObjID = 5 AND plate = 3",
                1,
            ),
        ]);
        assert!(instances.is_empty());
    }
}
