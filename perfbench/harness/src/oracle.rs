//! The minidb layer: the statement set replayed against
//! `minidb::datagen::skyserver_db`, and its single-client closed loop.
//!
//! The set is (a) the §6.3 stifle originals and their pipeline rewrites —
//! point and IN-list seeks — and (b) a fixed per-shape sample of the other
//! SELECTs of the clean log, kept only when a syntactic filter says minidb
//! supports every construct: one SELECT body, one or two base tables of the
//! database joined by an inner join, no table-valued functions, no derived
//! tables or subqueries.

use sqlog_core::PipelineResult;
use sqlog_minidb::{ExecResult, MiniDb};
use sqlog_skeleton::{raw_shape_scan, FnvHashMap, RawKey};
use sqlog_sql::ast::{Expr, JoinKind, Query, Statement, TableRef};
use sqlog_sql::parse_statement;
use std::collections::HashSet;
use std::time::{Duration, Instant};

/// Tables `skyserver_db` creates.
const DB_TABLES: &[&str] = &[
    "photoprimary",
    "photoobjall",
    "galaxy",
    "star",
    "specobjall",
    "specobj",
];

/// The replayed statements, in replay order.
pub struct StatementSet {
    /// Statement texts.
    pub statements: Vec<String>,
    /// How many of them came from solved stifle instances.
    pub stifle: usize,
}

/// Builds the statement set from a pipeline result: up to `stifle_cap`
/// stifle statements, then up to `per_shape` clean-log SELECTs per
/// literal-masked shape, `cap` statements in all.
pub fn statement_set(
    result: &PipelineResult,
    stifle_cap: usize,
    per_shape: usize,
    cap: usize,
) -> StatementSet {
    let mut seen: HashSet<&str> = HashSet::new();
    let mut statements: Vec<String> = Vec::new();
    'rw: for rw in &result.rewrites {
        if !rw.class.label().contains("Stifle") {
            continue;
        }
        for s in rw
            .original_statements
            .iter()
            .chain(&rw.rewritten_statements)
        {
            if statements.len() >= stifle_cap {
                break 'rw;
            }
            if supported(s) && seen.insert(s) {
                statements.push(s.clone());
            }
        }
    }
    let stifle = statements.len();
    let mut per: FnvHashMap<RawKey, usize> = FnvHashMap::default();
    let mut lits = Vec::new();
    for e in &result.clean_log.entries {
        if statements.len() >= cap {
            break;
        }
        let Some(key) = raw_shape_scan(&e.statement, &mut lits) else {
            continue;
        };
        let n = per.entry(key).or_default();
        if *n >= per_shape || seen.contains(e.statement.as_str()) || !supported(&e.statement) {
            continue;
        }
        *n += 1;
        seen.insert(&e.statement);
        statements.push(e.statement.clone());
    }
    StatementSet { statements, stifle }
}

/// The syntactic filter: constructs minidb executes.
pub fn supported(sql: &str) -> bool {
    let Ok(Statement::Select(q)) = parse_statement(sql) else {
        return false;
    };
    query_supported(&q)
}

fn query_supported(q: &Query) -> bool {
    let b = &q.body;
    if !q.set_ops.is_empty() || b.into.is_some() || b.from.is_empty() {
        return false;
    }
    let mut tables = 0;
    for t in &b.from {
        if !from_supported(t, &mut tables) {
            return false;
        }
    }
    let exprs = b
        .projection
        .iter()
        .filter_map(|p| match p {
            sqlog_sql::ast::SelectItem::Expr { expr, .. } => Some(expr),
            _ => None,
        })
        .chain(b.selection.as_ref())
        .chain(&b.group_by)
        .chain(b.having.as_ref());
    tables <= 2 && exprs.into_iter().all(expr_supported)
}

fn from_supported(t: &TableRef, tables: &mut usize) -> bool {
    match t {
        TableRef::Table { name, .. } => {
            *tables += 1;
            name.0
                .last()
                .is_some_and(|i| DB_TABLES.contains(&i.value.to_ascii_lowercase().as_str()))
        }
        TableRef::Join {
            left, right, kind, ..
        } => {
            *kind == JoinKind::Inner
                && from_supported(left, tables)
                && from_supported(right, tables)
        }
        TableRef::Function { .. } | TableRef::Derived { .. } => false,
    }
}

/// No subqueries anywhere in an expression.
fn expr_supported(e: &Expr) -> bool {
    !format!("{e}").to_ascii_lowercase().contains("select")
}

/// Order-normalized rendering of a result, for planned-vs-naive checks.
pub fn normalized(r: &ExecResult) -> Vec<String> {
    let mut rows: Vec<String> = r.rows.iter().map(|row| format!("{row:?}")).collect();
    rows.sort();
    rows
}

/// Statements whose planned rows differ from the naive executor's, or that
/// either executor rejects.
pub fn check_statements(db: &MiniDb, set: &StatementSet) -> Vec<String> {
    let mut problems = Vec::new();
    for s in &set.statements {
        let q = match parse_statement(s) {
            Ok(Statement::Select(q)) => q,
            _ => {
                problems.push(format!("not a SELECT: {s}"));
                continue;
            }
        };
        match (db.execute_query_planned(&q), db.execute_query_naive(&q)) {
            (Ok(p), Ok(n)) => {
                if normalized(&p.result) != normalized(&n) {
                    problems.push(format!("planned rows differ from naive rows: {s}"));
                }
            }
            (Err(e), _) | (_, Err(e)) => problems.push(format!("rejected ({e}): {s}")),
        }
    }
    problems
}

/// One closed-loop replay: statement latencies (parse + plan + execute).
pub struct Replay {
    /// Per-statement latency, microseconds.
    pub latencies_us: Vec<f64>,
    /// Statements the engine rejected.
    pub rejected: usize,
    /// Replay wall time.
    pub wall: Duration,
    /// Rows returned, summed.
    pub rows: u64,
    /// Wall and CPU time of each full pass over the set.
    pub passes: Vec<(Duration, Duration)>,
}

impl Replay {
    /// Statements per second and CPU µs per statement, each the median over
    /// the passes: a pass is the unit of work, and the median keeps a burst
    /// of contention on a shared host from moving the run's figure.
    pub fn per_pass_medians(&self, statements: usize) -> (f64, f64) {
        let n = statements.max(1) as f64;
        let rate: Vec<f64> = self
            .passes
            .iter()
            .map(|(w, _)| n / w.as_secs_f64().max(1e-9))
            .collect();
        let cpu: Vec<f64> = self
            .passes
            .iter()
            .map(|(_, c)| c.as_secs_f64() * 1e6 / n)
            .collect();
        (median(&rate), median(&cpu))
    }
}

fn median(v: &[f64]) -> f64 {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    match s.len() {
        0 => 0.0,
        n if n % 2 == 1 => s[n / 2],
        n => (s[n / 2 - 1] + s[n / 2]) / 2.0,
    }
}

/// Replays the set in order, pass after pass, until `budget` has elapsed
/// and at least `min_samples` statements ran.
pub fn replay(db: &MiniDb, set: &StatementSet, budget: Duration, min_samples: usize) -> Replay {
    let mut latencies_us = Vec::new();
    let mut rejected = 0;
    let mut rows = 0u64;
    let mut passes = Vec::new();
    let t0 = Instant::now();
    loop {
        let pass = Instant::now();
        let pass_cpu = process_cpu();
        for s in &set.statements {
            let t = Instant::now();
            let out = match parse_statement(s) {
                Ok(Statement::Select(q)) => db.execute_query_planned(&q).ok(),
                _ => None,
            };
            latencies_us.push(t.elapsed().as_secs_f64() * 1e6);
            match out {
                Some(p) => rows += p.result.rows.len() as u64,
                None => rejected += 1,
            }
        }
        passes.push((pass.elapsed(), process_cpu().saturating_sub(pass_cpu)));
        if set.statements.is_empty()
            || (t0.elapsed() >= budget && latencies_us.len() >= min_samples)
        {
            break;
        }
    }
    Replay {
        wall: t0.elapsed(),
        latencies_us,
        rejected,
        rows,
        passes,
    }
}

/// The `q` quantile (0–1) of `v` by nearest rank; `v` need not be sorted.
pub fn quantile(v: &[f64], q: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let rank = ((q * s.len() as f64).ceil() as usize).clamp(1, s.len());
    s[rank - 1]
}

#[repr(C)]
struct Timeval {
    sec: i64,
    usec: i64,
}

#[repr(C)]
struct Rusage {
    utime: Timeval,
    stime: Timeval,
    rest: [i64; 14],
}

extern "C" {
    fn getrusage(who: i32, usage: *mut Rusage) -> i32;
}

/// User + system CPU time of this process so far.
pub fn process_cpu() -> Duration {
    let mut ru = Rusage {
        utime: Timeval { sec: 0, usec: 0 },
        stime: Timeval { sec: 0, usec: 0 },
        rest: [0; 14],
    };
    // SAFETY: `ru` is a valid, writable `struct rusage` for x86_64/aarch64
    // Linux (two timevals followed by fourteen longs); RUSAGE_SELF = 0.
    let rc = unsafe { getrusage(0, &mut ru) };
    if rc != 0 {
        return Duration::ZERO;
    }
    let us = |t: &Timeval| t.sec as u64 * 1_000_000 + t.usec as u64;
    Duration::from_micros(us(&ru.utime) + us(&ru.stime))
}
