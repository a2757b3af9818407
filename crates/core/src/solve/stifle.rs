//! Solving the three Stifle classes (Examples 10, 12 and 14 of the paper).
//!
//! * **DW**: one query with all constants merged into an `IN` list,
//! * **DS**: one query with the union of the SELECT lists,
//! * **DF**: one query joining the tables on the shared key column.
//!
//! Solvers re-parse the statements they rewrite (the parse step does not
//! retain ASTs); the rewritten statement is rendered by the canonical
//! printer, so it re-parses to exactly the intended tree.

use crate::detect::{AntipatternClass, AntipatternInstance, DetectCtx};
use crate::ext::Solver;
use crate::solve::batch::QueryCache;
use sqlog_skeleton::FnvHashSet;
use sqlog_sql::ast::*;

/// Solver for DW/DS/DF Stifle instances.
///
/// Carries a [`QueryCache`] so instances over the same statement shape —
/// the defining property of a Stifle chain — parse the shape once and
/// instantiate per-record literals from the certified template.
#[derive(Default)]
pub struct StifleSolver {
    cache: QueryCache,
}

impl StifleSolver {
    /// Parses the statement behind record `ri` through the batch cache and
    /// returns its query.
    fn query_of(&self, ctx: &DetectCtx<'_>, ri: usize) -> Option<Query> {
        let entry = ctx.record_entry(ri);
        self.cache.query(&entry.statement, &ctx.config.recorder)
    }
}

/// The column expression and literal of a single-equality WHERE clause.
fn equality_parts(selection: &Expr) -> Option<(Expr, Expr)> {
    match selection {
        Expr::Nested(inner) => equality_parts(inner),
        Expr::Binary {
            left,
            op: BinaryOp::Eq,
            right,
        } => {
            if matches!(strip(left), Expr::Column(_)) {
                Some((strip(left).clone(), strip(right).clone()))
            } else if matches!(strip(right), Expr::Column(_)) {
                Some((strip(right).clone(), strip(left).clone()))
            } else {
                None
            }
        }
        _ => None,
    }
}

fn strip(e: &Expr) -> &Expr {
    match e {
        Expr::Nested(inner) => strip(inner),
        other => other,
    }
}

/// Rendered form of a projection item, for duplicate elimination.
fn item_text(item: &SelectItem) -> String {
    item.to_string().to_ascii_lowercase()
}

impl StifleSolver {
    /// Example 10: `WHERE col = v₁ … WHERE col = vₙ` →
    /// `WHERE col IN (v₁, …, vₙ)`.
    fn solve_dw(&self, inst: &AntipatternInstance, ctx: &DetectCtx<'_>) -> Option<Vec<String>> {
        let mut base = self.query_of(ctx, inst.records[0])?;
        let (col_expr, _) = equality_parts(base.body.selection.as_ref()?)?;

        let mut values: Vec<Expr> = Vec::with_capacity(inst.records.len());
        // Rendered-text prefilter for the duplicate-value scan: AST-equal
        // values render to equal lower-cased text (Ident comparison is
        // case-insensitive), so a fresh rendering proves a fresh value and
        // only rendering collisions pay the exact O(k) AST scan.
        let mut rendered: FnvHashSet<String> = FnvHashSet::default();
        for &ri in &inst.records {
            let q = self.query_of(ctx, ri)?;
            let (_, value) = equality_parts(q.body.selection.as_ref()?)?;
            if rendered.insert(value.to_string().to_ascii_lowercase()) || !values.contains(&value) {
                values.push(value);
            }
        }

        if ctx.config.rewrite_adds_filter_column {
            // Prepend the filter column so each result row remains
            // attributable to one of the merged constants (Example 10 adds
            // `empId` to the projection).
            let Expr::Column(name) = &col_expr else {
                return None;
            };
            let already = base.body.projection.iter().any(|item| match item {
                SelectItem::Wildcard | SelectItem::QualifiedWildcard(_) => true,
                SelectItem::Expr {
                    expr: Expr::Column(c),
                    ..
                } => c.last() == name.last(),
                _ => false,
            });
            if !already {
                base.body.projection.insert(
                    0,
                    SelectItem::Expr {
                        expr: col_expr.clone(),
                        alias: None,
                    },
                );
            }
        }

        base.body.selection = Some(Expr::InList {
            expr: Box::new(col_expr),
            list: values,
            negated: false,
        });
        Some(vec![base.to_string()])
    }

    /// Example 12: union the SELECT lists over the shared FROM + WHERE.
    fn solve_ds(&self, inst: &AntipatternInstance, ctx: &DetectCtx<'_>) -> Option<Vec<String>> {
        let mut base = self.query_of(ctx, inst.records[0])?;
        let mut seen: FnvHashSet<String> = base.body.projection.iter().map(item_text).collect();
        let mut seen_templates: FnvHashSet<_> =
            std::iter::once(ctx.records[inst.records[0]].template).collect();
        for &ri in &inst.records[1..] {
            if !seen_templates.insert(ctx.records[ri].template) {
                continue;
            }
            let q = self.query_of(ctx, ri)?;
            for item in q.body.projection {
                if seen.insert(item_text(&item)) {
                    base.body.projection.push(item);
                }
            }
        }
        Some(vec![base.to_string()])
    }

    /// Example 14: join the tables on the filter column, qualify the
    /// projections, filter once.
    fn solve_df(&self, inst: &AntipatternInstance, ctx: &DetectCtx<'_>) -> Option<Vec<String>> {
        // Collect one representative query per distinct table.
        let mut tables: Vec<(String, Query)> = Vec::new();
        for &ri in &inst.records {
            let table = ctx.records[ri].primary_table.clone()?;
            if tables.iter().any(|(t, _)| *t == table) {
                continue;
            }
            tables.push((table, self.query_of(ctx, ri)?));
        }
        if tables.len() < 2 {
            return None;
        }
        let (col, _) = ctx.records[inst.records[0]].profile.single_equality()?;
        let col = col.to_string();
        let (_, first_q) = &tables[0];
        let (_, value) = equality_parts(first_q.body.selection.as_ref()?)?;

        // FROM: t1 INNER JOIN t2 ON t2.col = t1.col INNER JOIN …
        let mut from = TableRef::Table {
            name: ObjectName::simple(tables[0].0.clone()),
            alias: None,
        };
        for (table, _) in &tables[1..] {
            let on = Expr::Binary {
                left: Box::new(Expr::Column(ObjectName(vec![
                    Ident::new(table.clone()),
                    Ident::new(col.clone()),
                ]))),
                op: BinaryOp::Eq,
                right: Box::new(Expr::Column(ObjectName(vec![
                    Ident::new(tables[0].0.clone()),
                    Ident::new(col.clone()),
                ]))),
            };
            from = TableRef::Join {
                left: Box::new(from),
                right: Box::new(TableRef::Table {
                    name: ObjectName::simple(table.clone()),
                    alias: None,
                }),
                kind: JoinKind::Inner,
                constraint: Some(on),
            };
        }

        // Projection: each source query's items, columns qualified by their
        // table so the merged query is unambiguous.
        let mut projection: Vec<SelectItem> = Vec::new();
        let mut seen: FnvHashSet<String> = FnvHashSet::default();
        for (table, q) in &tables {
            for item in &q.body.projection {
                let qualified = match item {
                    SelectItem::Expr {
                        expr: Expr::Column(name),
                        alias,
                    } => SelectItem::Expr {
                        expr: Expr::Column(ObjectName(vec![
                            Ident::new(table.clone()),
                            name.last().clone(),
                        ])),
                        alias: alias.clone(),
                    },
                    SelectItem::Wildcard => {
                        SelectItem::QualifiedWildcard(ObjectName::simple(table.clone()))
                    }
                    other => other.clone(),
                };
                if seen.insert(item_text(&qualified)) {
                    projection.push(qualified);
                }
            }
        }

        let selection = Expr::Binary {
            left: Box::new(Expr::Column(ObjectName(vec![
                Ident::new(tables[0].0.clone()),
                Ident::new(col),
            ]))),
            op: BinaryOp::Eq,
            right: Box::new(value),
        };

        let merged = Query::simple(Select {
            distinct: false,
            top: None,
            top_percent: false,
            projection,
            into: None,
            from: vec![from],
            selection: Some(selection),
            group_by: Vec::new(),
            having: None,
        });
        Some(vec![merged.to_string()])
    }
}

impl Solver for StifleSolver {
    fn name(&self) -> &str {
        "stifle"
    }

    fn solve(&self, inst: &AntipatternInstance, ctx: &DetectCtx<'_>) -> Option<Vec<String>> {
        match inst.class {
            AntipatternClass::DwStifle => self.solve_dw(inst, ctx),
            AntipatternClass::DsStifle => self.solve_ds(inst, ctx),
            AntipatternClass::DfStifle => self.solve_df(inst, ctx),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::PipelineConfig;
    use crate::detect::{detect_builtin, DetectCtx};
    use crate::mine::sessions_stage;
    use crate::parse_step::parse_stage;
    use crate::store::TemplateStore;
    use sqlog_catalog::skyserver_catalog;
    use sqlog_log::{LogEntry, LogView, QueryLog, Timestamp};

    fn solve(rows: &[&str]) -> Vec<Vec<String>> {
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
        let solver = StifleSolver::default();
        detect_builtin(&ctx)
            .iter()
            .filter(|i| i.solvable)
            .filter_map(|i| solver.solve(i, &ctx))
            .collect()
    }

    #[test]
    fn dw_merges_into_in_list() {
        // Example 9 → Example 10 of the paper.
        let solved = solve(&[
            "SELECT name FROM Employee WHERE empId = 8",
            "SELECT name FROM Employee WHERE empId = 1",
        ]);
        assert_eq!(solved.len(), 1);
        assert_eq!(
            solved[0],
            vec!["SELECT empId, name FROM Employee WHERE empId IN (8, 1)".to_string()]
        );
    }

    #[test]
    fn dw_deduplicates_values() {
        let solved = solve(&[
            "SELECT name FROM Employee WHERE empId = 8",
            "SELECT name FROM Employee WHERE empId = 1",
            "SELECT name FROM Employee WHERE empId = 8",
        ]);
        // 8,1,8 → run is 8,1,8 (adjacent values differ pairwise) → IN (8, 1).
        assert!(solved[0][0].ends_with("IN (8, 1)"), "{:?}", solved);
    }

    #[test]
    fn ds_unions_select_lists() {
        // Example 11 → Example 12.
        let solved = solve(&[
            "SELECT name FROM Employee WHERE empId=8",
            "SELECT address, phone FROM Employee WHERE empId=8",
        ]);
        assert_eq!(
            solved[0],
            vec!["SELECT name, address, phone FROM Employee WHERE empId = 8".to_string()]
        );
    }

    #[test]
    fn ds_union_drops_repeated_columns() {
        let solved = solve(&[
            "SELECT name, phone FROM Employee WHERE empId=8",
            "SELECT phone, address FROM Employee WHERE empId=8",
        ]);
        assert_eq!(
            solved[0][0],
            "SELECT name, phone, address FROM Employee WHERE empId = 8"
        );
    }

    #[test]
    fn df_joins_on_the_filter_column() {
        // Example 13 → Example 14.
        let solved = solve(&[
            "SELECT name FROM Employee WHERE empId = 8",
            "SELECT address FROM EmployeeInfo WHERE empId = 8",
        ]);
        assert_eq!(
            solved[0],
            vec![
                // Table and column names come from the (lower-cased)
                // analysis facts, not the original spelling.
                "SELECT employee.name, employeeinfo.address FROM employee INNER JOIN \
                 employeeinfo ON employeeinfo.empid = employee.empid \
                 WHERE employee.empid = 8"
                    .to_string()
            ]
        );
    }

    #[test]
    fn rewrites_reparse() {
        for batch in solve(&[
            "SELECT rowc_g, colc_g FROM photoprimary WHERE objid=587722982829850000",
            "SELECT rowc_g, colc_g FROM photoprimary WHERE objid=587722982829850001",
            "SELECT rowc_g, colc_g FROM photoprimary WHERE objid=587722982829850002",
        ]) {
            for stmt in batch {
                sqlog_sql::parse_statement(&stmt)
                    .unwrap_or_else(|e| panic!("rewrite does not re-parse: {stmt}: {e}"));
            }
        }
    }

    #[test]
    fn dw_with_string_keys() {
        let solved = solve(&[
            "SELECT description FROM DBObjects WHERE name='Galaxy'",
            "SELECT description FROM DBObjects WHERE name='Star'",
        ]);
        assert_eq!(
            solved[0][0],
            "SELECT name, description FROM DBObjects WHERE name IN ('Galaxy', 'Star')"
        );
    }
}
