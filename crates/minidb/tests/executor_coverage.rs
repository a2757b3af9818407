//! Executor coverage over the generated workload: every statement of the
//! synthetic log either executes or fails with an *honest* error — the
//! engine never panics and never silently mis-executes an unsupported shape.
//!
//! The differential tests below additionally pin the cost-based
//! planner + Volcano executor to the retained naive reference path: over
//! the full generated log and over every statement of the solver-rewrite
//! corpus, both executors must produce identical rows (order-normalized)
//! or both must reject the statement.

use sqlog_catalog::skyserver_catalog;
use sqlog_core::Pipeline;
use sqlog_gen::{generate, GenConfig};
use sqlog_minidb::datagen::skyserver_db;
use sqlog_minidb::table::{ColumnData, Table};
use sqlog_minidb::{ExecError, ExecResult, MiniDb};
use sqlog_sql::ast::Query;

#[test]
fn every_generated_statement_executes_or_errors_honestly() {
    let log = generate(&GenConfig::with_scale(4_000, 31415));
    let db = skyserver_db(2_000, 31415);
    let mut executed = 0usize;
    let mut unsupported = 0usize;
    let mut rejected = 0usize;
    for e in &log.entries {
        match db.execute_sql(&e.statement) {
            Ok(_) => executed += 1,
            Err(ExecError::Unsupported(_)) => unsupported += 1,
            Err(ExecError::UnknownTable(_) | ExecError::UnknownColumn(_)) => rejected += 1,
        }
    }
    // The point-lookup crawlers, window scans, metadata browsing and most
    // human idioms execute; the table-valued-function spatial searches are
    // honestly Unsupported.
    assert!(
        executed as f64 > 0.5 * log.len() as f64,
        "executed {executed} of {}",
        log.len()
    );
    assert!(unsupported > 0);
    // Nothing should reference tables/columns the datagen lacks.
    assert_eq!(
        rejected, 0,
        "{rejected} statements hit missing tables/columns"
    );
}

fn parse_select(sql: &str) -> Option<Query> {
    let stmt = sqlog_sql::parse_statement(sql).ok()?;
    stmt.as_select().cloned()
}

/// Order-normalized row multiset of a result.
fn sorted_rows(r: &ExecResult) -> Vec<String> {
    let mut keys: Vec<String> = r.rows.iter().map(|row| format!("{row:?}")).collect();
    keys.sort();
    keys
}

/// Runs one statement through both executors and asserts they agree:
/// identical columns and rows (order-normalized) when both execute, or
/// both rejecting it. Returns whether the statement executed.
fn assert_paths_agree(db: &MiniDb, sql: &str) -> bool {
    let Some(query) = parse_select(sql) else {
        return false;
    };
    let planned = db.execute_query(&query);
    let naive = db.execute_query_naive(&query);
    match (planned, naive) {
        (Ok(p), Ok(n)) => {
            assert_eq!(p.columns, n.columns, "columns diverge on {sql:?}");
            assert_eq!(sorted_rows(&p), sorted_rows(&n), "rows diverge on {sql:?}");
            true
        }
        (Err(_), Err(_)) => false,
        (p, n) => panic!(
            "executors diverge on {sql:?}: planned {:?}, naive {:?}",
            p.as_ref().map(|r| r.rows.len()),
            n.as_ref().map(|r| r.rows.len())
        ),
    }
}

#[test]
fn planned_executor_matches_naive_reference_on_generated_log() {
    let log = generate(&GenConfig::with_scale(3_000, 27182));
    let db = skyserver_db(2_000, 27182);
    let mut executed = 0usize;
    for e in &log.entries {
        if assert_paths_agree(&db, &e.statement) {
            executed += 1;
        }
    }
    assert!(
        executed as f64 > 0.5 * log.len() as f64,
        "compared only {executed} of {}",
        log.len()
    );
}

#[test]
fn planned_executor_matches_naive_reference_on_solver_rewrites() {
    let log = generate(&GenConfig::with_scale(3_000, 16180));
    let corpus = Pipeline::new(&skyserver_catalog()).run(&log);
    assert!(
        !corpus.rewrites.is_empty(),
        "pipeline produced no rewrites to compare"
    );
    let db = skyserver_db(2_000, 16180);
    let mut executed = 0usize;
    for rw in &corpus.rewrites {
        for sql in rw
            .original_statements
            .iter()
            .chain(&rw.rewritten_statements)
        {
            if assert_paths_agree(&db, sql) {
                executed += 1;
            }
        }
    }
    assert!(executed > 0, "no corpus statement executed on both paths");
}

#[test]
fn aliased_self_join_hides_the_base_table_name() {
    // SQL Server's rule: once `t` is aliased, `t.id` names no source. Both
    // executors must reject it rather than bind it to one (or both) of the
    // aliases, while the aliases themselves still resolve.
    let mut t = Table::new("t");
    t.add_column("id", ColumnData::Int(vec![Some(1), Some(2), Some(3)]));
    t.add_column("g", ColumnData::Int(vec![Some(7), Some(7), Some(8)]));
    t.build_pk("id");
    let mut db = MiniDb::new();
    db.add_table(t);

    let hidden =
        parse_select("SELECT a.id, b.id FROM t AS a JOIN t AS b ON a.g = b.g WHERE t.id = 1")
            .unwrap();
    let unbound = ExecError::UnknownColumn("t.id".into());
    assert_eq!(db.execute_query_naive(&hidden).unwrap_err(), unbound);
    assert_eq!(db.execute_query_planned(&hidden).unwrap_err(), unbound);

    let aliased = "SELECT a.id, b.id FROM t AS a JOIN t AS b ON a.g = b.g WHERE A.id = 1";
    assert!(assert_paths_agree(&db, aliased));
    let rows = db.execute_query(&parse_select(aliased).unwrap()).unwrap();
    assert_eq!(rows.rows.len(), 2, "a.id = 1 pairs with both g = 7 rows");
}
