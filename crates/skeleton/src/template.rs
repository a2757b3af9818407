//! Query templates (Definition 4): the triple of clause skeletons
//! (SFC, SWC, SSC) of one query, rendered once as the full skeleton text
//! plus the byte ranges of the three clauses within it.

use crate::fingerprint::Fingerprint;
use crate::skeleton::render_template;
use serde::{Deserialize, Serialize};
use sqlog_sql::ast::Query;
use std::ops::Range;

/// A query template: the skeleton of one query (literals replaced with
/// placeholders) and its clause triple.
///
/// Definition 5 equality compares the skeleton triple. The canonical
/// clauses with constants (Def. 3's SC/FC/WC) and the skeleton of the
/// rest of the query are not stored; [`crate::render_select_clause`] and
/// its siblings render them on demand.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct QueryTemplate {
    /// Full skeleton text of the whole query.
    pub full: String,
    /// Byte ranges of the SSC, SFC and SWC within [`Self::full`], in that
    /// order. An absent clause is an empty range.
    clauses: [Range<u32>; 3],
    /// Fingerprint of the full skeleton text — the template's identity in
    /// the template store.
    pub fingerprint: Fingerprint,
    /// Fingerprint of the (SFC, SWC, SSC) triple only (Def. 4 identity).
    pub triple_fingerprint: Fingerprint,
}

impl QueryTemplate {
    /// Builds the template of a query with one skeleton rendering.
    pub fn of_query(q: &Query) -> Self {
        let (full, clauses) = render_template(q);
        QueryTemplate::from_parts(full, clauses)
            .expect("rendered clause ranges lie within the text")
    }

    /// Rebuilds a template from its full skeleton text and the byte ranges
    /// of its SSC, SFC and SWC (as [`Self::clause_ranges`] returns them),
    /// recomputing both fingerprints. `None` when a range does not lie on
    /// character boundaries within `full`.
    pub fn from_parts(full: String, clauses: [Range<u32>; 3]) -> Option<Self> {
        let clause = |i: usize| full.get(clauses[i].start as usize..clauses[i].end as usize);
        let triple_fingerprint = Fingerprint::of_sequence([
            Fingerprint::of_str(clause(1)?),
            Fingerprint::of_str(clause(2)?),
            Fingerprint::of_str(clause(0)?),
        ]);
        Some(QueryTemplate {
            fingerprint: Fingerprint::of_str(&full),
            triple_fingerprint,
            full,
            clauses,
        })
    }

    /// The byte ranges of the SSC, SFC and SWC within [`Self::full`].
    pub fn clause_ranges(&self) -> &[Range<u32>; 3] {
        &self.clauses
    }

    fn clause(&self, i: usize) -> &str {
        let r = &self.clauses[i];
        &self.full[r.start as usize..r.end as usize]
    }

    /// Skeleton of the SELECT clause (Def. 2's SSC).
    pub fn ssc(&self) -> &str {
        self.clause(0)
    }

    /// Skeleton of the FROM clause (SFC).
    pub fn sfc(&self) -> &str {
        self.clause(1)
    }

    /// Skeleton of the WHERE clause (SWC); empty when absent.
    pub fn swc(&self) -> &str {
        self.clause(2)
    }

    /// Approximate heap + inline footprint in bytes: the struct itself
    /// plus the skeleton text. Good enough for memory accounting (it
    /// ignores allocator slack and `String` over-capacity).
    pub fn approx_bytes(&self) -> usize {
        std::mem::size_of::<QueryTemplate>() + self.full.len()
    }

    /// Definition 5: two skeletons are equal iff their SFC, SWC and SSC are
    /// pairwise equal.
    pub fn skeleton_equal(&self, other: &QueryTemplate) -> bool {
        self.sfc() == other.sfc() && self.swc() == other.swc() && self.ssc() == other.ssc()
    }

    /// Definition 6: two queries are *similar* iff their skeletons are equal.
    /// Alias of [`Self::skeleton_equal`], kept for readability at call sites.
    pub fn similar(&self, other: &QueryTemplate) -> bool {
        self.skeleton_equal(other)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::skeleton::{
        render_from_clause, render_query, render_select_clause, render_tail, render_where_clause,
        Mode,
    };
    use sqlog_sql::parse_query;

    fn tpl(sql: &str) -> QueryTemplate {
        QueryTemplate::of_query(&parse_query(sql).unwrap())
    }

    fn wc(sql: &str) -> String {
        render_where_clause(&parse_query(sql).unwrap().body, Mode::Canonical)
    }

    fn fc(sql: &str) -> String {
        render_from_clause(&parse_query(sql).unwrap().body, Mode::Canonical)
    }

    #[test]
    fn same_shape_same_fingerprint() {
        let (a_q, b_q) = (
            "SELECT name FROM Employee WHERE empId = 8",
            "SELECT name FROM Employee WHERE empId = 1",
        );
        let (a, b) = (tpl(a_q), tpl(b_q));
        assert_eq!(a.fingerprint, b.fingerprint);
        assert!(a.skeleton_equal(&b));
        assert!(a.similar(&b));
        assert_eq!(
            (a.ssc(), a.sfc(), a.swc()),
            ("name", "employee", "empid = <num>")
        );
        // Canonical WHERE clauses differ — this is what DW-Stifle checks.
        assert_ne!(wc(a_q), wc(b_q));
    }

    #[test]
    fn different_projection_different_fingerprint() {
        let a_q = "SELECT name FROM Employee WHERE empId = 8";
        let b_q = "SELECT address, phone FROM Employee WHERE empId = 8";
        let (a, b) = (tpl(a_q), tpl(b_q));
        assert_ne!(a.fingerprint, b.fingerprint);
        assert!(!a.skeleton_equal(&b));
        // Same FROM + WHERE with constants — this is what DS-Stifle checks.
        assert_eq!(fc(a_q), fc(b_q));
        assert_eq!(wc(a_q), wc(b_q));
    }

    #[test]
    fn triple_fingerprint_ignores_tail() {
        let a = tpl("SELECT a FROM t WHERE x = 1");
        let b = tpl("SELECT a FROM t WHERE x = 1 ORDER BY a DESC");
        assert_eq!(a.triple_fingerprint, b.triple_fingerprint);
        assert_ne!(a.fingerprint, b.fingerprint);
        let q = parse_query("SELECT a FROM t WHERE x = 1 ORDER BY a DESC").unwrap();
        assert_eq!(render_tail(&q, Mode::Skeleton), "ORDER BY a DESC");
    }

    #[test]
    fn triple_components_are_separated() {
        // Moving text between clauses must change the triple fingerprint:
        // (sfc="t x", swc="") vs (sfc="t", swc="x") style collisions are
        // prevented by hashing components separately.
        let a = tpl("SELECT a FROM t WHERE b = 1");
        let b = tpl("SELECT a, b FROM t");
        assert_ne!(a.triple_fingerprint, b.triple_fingerprint);
    }

    #[test]
    fn one_render_matches_the_clause_renderers() {
        for sql in [
            "SELECT a FROM t",
            "SELECT 1",
            "SELECT DISTINCT TOP 5 a, b AS c INTO x FROM t JOIN u ON t.k = u.k WHERE a = 'q' \
             GROUP BY a HAVING count(*) > 1 UNION SELECT b FROM v WHERE z = 2 ORDER BY a LIMIT 3",
            "SELECT * FROM (SELECT a FROM t WHERE x = 1) AS d WHERE d.a IN (1, 2)",
        ] {
            let q = parse_query(sql).unwrap();
            let t = QueryTemplate::of_query(&q);
            assert_eq!(t.full, render_query(&q, Mode::Skeleton), "{sql}");
            assert_eq!(
                t.ssc(),
                render_select_clause(&q.body, Mode::Skeleton),
                "{sql}"
            );
            assert_eq!(
                t.sfc(),
                render_from_clause(&q.body, Mode::Skeleton),
                "{sql}"
            );
            assert_eq!(
                t.swc(),
                render_where_clause(&q.body, Mode::Skeleton),
                "{sql}"
            );
            let back = QueryTemplate::from_parts(t.full.clone(), t.clause_ranges().clone());
            assert_eq!(back.as_ref(), Some(&t), "{sql}");
        }
        assert!(QueryTemplate::from_parts("abc".into(), [0..1, 2..9, 0..0]).is_none());
    }
}
