//! Property tests for the cost-based planner and Volcano executor.
//!
//! Random single-table databases (index layout varies: none / hash / pk on
//! `k`, optional range index on `h`) and random point/range predicates,
//! holding three invariants:
//!
//! 1. the planner never picks a seek on a column that lacks the matching
//!    index kind;
//! 2. the cost estimate is monotone in row count — duplicating every row
//!    never makes the estimate smaller;
//! 3. the planned executor returns exactly the naive reference executor's
//!    rows (order-normalized), or both paths reject the statement — on
//!    single-table queries and on aliased self-joins whose columns are
//!    qualified by an alias, by the hidden base-table name, or not at all.

use proptest::prelude::*;
use sqlog_minidb::{Access, ColumnData, MiniDb, Table};
use sqlog_sql::ast::Query;

/// Index layout for the `k` column.
#[derive(Debug, Clone, Copy)]
enum KIndex {
    None,
    Hash,
    Pk,
}

fn build_db(rows: &[(i64, i64, i64)], k_index: KIndex, h_range: bool, dup: usize) -> MiniDb {
    let reps = dup.max(1);
    let mut t = Table::new("t");
    let col = |f: fn(&(i64, i64, i64)) -> i64| -> ColumnData {
        ColumnData::Int(
            std::iter::repeat_with(|| rows.iter().map(f))
                .take(reps)
                .flatten()
                .map(Some)
                .collect(),
        )
    };
    t.add_column("k", col(|r| r.0));
    t.add_column("h", col(|r| r.1));
    t.add_column("v", col(|r| r.2));
    match k_index {
        KIndex::None => {}
        KIndex::Hash => t.build_index("k"),
        KIndex::Pk => t.build_pk("k"),
    }
    if h_range {
        t.build_range_index("h");
    }
    let mut db = MiniDb::new();
    db.add_table(t);
    db
}

fn rows_strategy() -> impl Strategy<Value = Vec<(i64, i64, i64)>> {
    prop::collection::vec((0i64..40, 0i64..200, -50i64..50), 1..80)
}

fn k_index_strategy() -> impl Strategy<Value = KIndex> {
    prop_oneof![Just(KIndex::None), Just(KIndex::Hash), Just(KIndex::Pk),]
}

/// A random point / IN / range predicate over one of the three columns.
fn pred_strategy() -> impl Strategy<Value = String> {
    (
        prop_oneof![Just("k"), Just("h"), Just("v")],
        -10i64..210,
        -10i64..210,
        0u8..4,
    )
        .prop_map(|(c, a, b, op)| {
            let (lo, hi) = (a.min(b), a.max(b));
            match op {
                0 => format!("{c} = {a}"),
                1 => format!("{c} IN ({lo}, {hi})"),
                2 => format!("{c} BETWEEN {lo} AND {hi}"),
                _ => format!("{c} > {a}"),
            }
        })
}

/// A column of `t AS a JOIN t AS b`: qualified by either alias, by the
/// base-table name the aliases hide (unbound under SQL Server's rule), or
/// unqualified.
fn self_join_column() -> impl Strategy<Value = String> {
    (
        prop_oneof![Just("a."), Just("b."), Just("t."), Just("")],
        prop_oneof![Just("k"), Just("h"), Just("v")],
    )
        .prop_map(|(q, c)| format!("{q}{c}"))
}

/// An aliased self-join with a random join key pair, projection and
/// point / IN / range filter.
fn self_join_strategy() -> impl Strategy<Value = String> {
    (
        prop_oneof![Just("k"), Just("h")],
        prop_oneof![Just("k"), Just("h")],
        self_join_column(),
        self_join_column(),
        -10i64..210,
        0u8..3,
    )
        .prop_map(|(l, r, proj, filter, a, op)| {
            let pred = match op {
                0 => format!("{filter} = {a}"),
                1 => format!("{filter} IN ({a}, {})", a + 1),
                _ => format!("{filter} > {a}"),
            };
            format!("SELECT {proj}, b.v FROM t AS a JOIN t AS b ON a.{l} = b.{r} WHERE {pred}")
        })
}

/// Both executors return the same rows (order-normalized), or both reject.
fn assert_paths_agree(db: &MiniDb, sql: &str) -> Result<(), TestCaseError> {
    let query = parse(sql);
    match (db.execute_query(&query), db.execute_query_naive(&query)) {
        (Ok(planned), Ok(naive)) => {
            prop_assert_eq!(&planned.columns, &naive.columns);
            let sort = |r: &sqlog_minidb::ExecResult| {
                let mut keys: Vec<String> = r.rows.iter().map(|row| format!("{row:?}")).collect();
                keys.sort();
                keys
            };
            prop_assert_eq!(sort(&planned), sort(&naive), "rows diverge on {}", sql);
        }
        (Err(_), Err(_)) => {}
        (p, n) => prop_assert!(
            false,
            "one path rejected {}: planned ok={} naive ok={}",
            sql,
            p.is_ok(),
            n.is_ok()
        ),
    }
    Ok(())
}

fn parse(sql: &str) -> Query {
    let stmt = sqlog_sql::parse_statement(sql).expect("generated SQL parses");
    stmt.as_select().expect("generated SQL is a SELECT").clone()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// A seek access path requires the matching index kind on its column.
    #[test]
    fn planner_never_seeks_an_unindexed_column(
        rows in rows_strategy(),
        k_index in k_index_strategy(),
        h_range in any::<bool>(),
        pred in pred_strategy(),
    ) {
        let db = build_db(&rows, k_index, h_range, 1);
        let table = db.table("t").expect("table t");
        let sql = format!("SELECT k, h, v FROM t WHERE {pred}");
        let plan = db.plan(&parse(&sql)).expect("plannable");
        for scan in plan.scans() {
            match &scan.access {
                Access::PkSeek { column, .. } => {
                    prop_assert_eq!(table.primary_key.as_deref(), Some(column.as_str()));
                    prop_assert!(table.indexes.contains_key(column));
                }
                Access::IndexSeek { column, .. } => {
                    prop_assert!(table.indexes.contains_key(column));
                }
                Access::IndexRangeSeek { column, .. } => {
                    prop_assert!(table.range_indexes.contains_key(column));
                }
                Access::FullScan => {}
            }
        }
    }

    /// Duplicating every row never shrinks the plan's cost estimate.
    #[test]
    fn cost_estimate_is_monotone_in_row_count(
        rows in rows_strategy(),
        k_index in k_index_strategy(),
        h_range in any::<bool>(),
        pred in pred_strategy(),
    ) {
        let sql = format!("SELECT k, h, v FROM t WHERE {pred}");
        let query = parse(&sql);
        let small = build_db(&rows, k_index, h_range, 1)
            .plan(&query)
            .expect("plannable");
        let big = build_db(&rows, k_index, h_range, 2)
            .plan(&query)
            .expect("plannable");
        prop_assert!(
            big.est_cost >= small.est_cost - 1e-9,
            "doubling rows shrank est_cost {} -> {} for {}",
            small.est_cost, big.est_cost, sql
        );
    }

    /// The planned executor agrees with the naive reference, row for row.
    #[test]
    fn planned_rows_match_naive_reference(
        rows in rows_strategy(),
        k_index in k_index_strategy(),
        h_range in any::<bool>(),
        pred in pred_strategy(),
    ) {
        let db = build_db(&rows, k_index, h_range, 1);
        assert_paths_agree(&db, &format!("SELECT k, h, v FROM t WHERE {pred}"))?;
    }

    /// The same agreement on aliased self-joins, whatever the qualifiers.
    #[test]
    fn self_join_rows_match_naive_reference(
        rows in rows_strategy(),
        k_index in k_index_strategy(),
        h_range in any::<bool>(),
        sql in self_join_strategy(),
    ) {
        let db = build_db(&rows, k_index, h_range, 1);
        assert_paths_agree(&db, &sql)?;
    }
}
