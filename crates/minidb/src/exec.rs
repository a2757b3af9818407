//! Query execution.
//!
//! The executor covers the query shapes the experiments run: single-table
//! scans and index seeks with conjunctive predicates, `IN` lists, `BETWEEN`,
//! `LIKE`, `IS NULL`, inner equi-joins of base tables, `count(*)`, `TOP`/
//! `LIMIT` and `ORDER BY` on plain columns. Anything else returns
//! [`ExecError::Unsupported`] — honest refusal beats silent wrong answers.

use crate::table::Table;
use crate::value::Value;
use sqlog_sql::ast::*;
use std::collections::HashMap;
use std::fmt;

/// Execution errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ExecError {
    /// FROM references a table the database does not have.
    UnknownTable(String),
    /// A column could not be resolved.
    UnknownColumn(String),
    /// The query uses a shape the executor does not implement.
    Unsupported(String),
}

impl fmt::Display for ExecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExecError::UnknownTable(t) => write!(f, "unknown table {t}"),
            ExecError::UnknownColumn(c) => write!(f, "unknown column {c}"),
            ExecError::Unsupported(w) => write!(f, "unsupported query shape: {w}"),
        }
    }
}

impl std::error::Error for ExecError {}

/// Result of executing one statement.
#[derive(Debug, Clone, PartialEq)]
pub struct ExecResult {
    /// Output column names.
    pub columns: Vec<String>,
    /// Result rows.
    pub rows: Vec<Vec<Value>>,
    /// Rows examined (candidate rows after index pruning).
    pub scanned_rows: usize,
    /// Whether an index pruned the scan.
    pub used_index: bool,
}

/// Does a column qualifier name the FROM-clause source bound as `binding`?
///
/// SQL Server's rule: an aliased source answers only to its alias — the
/// base-table name it hides is unbound — and an unaliased one to its table
/// name, ASCII case-insensitively. Every qualifier match in the planner and
/// both executors goes through this one function.
pub(crate) fn binds(binding: &str, qualifier: &str) -> bool {
    binding.eq_ignore_ascii_case(qualifier)
}

/// One bound source in the FROM clause.
pub(crate) struct Source<'a> {
    /// Binding name: alias if given, else the table name.
    pub(crate) binding: String,
    pub(crate) table: &'a Table,
}

/// A row under evaluation: one row id per source. Exposed crate-wide so the
/// aggregate module can evaluate expressions per group member.
pub struct RowCtxView<'a, 'b> {
    sources: &'b [Source<'a>],
    rows: &'b [usize],
}

/// Crate-internal constructor for the Volcano operators.
pub(crate) fn row_ctx<'a, 'b>(sources: &'b [Source<'a>], rows: &'b [usize]) -> RowCtxView<'a, 'b> {
    RowCtxView { sources, rows }
}

impl RowCtxView<'_, '_> {
    fn resolve(&self, name: &ObjectName) -> Result<Value, ExecError> {
        let col = name.last().normalized();
        if let Some(qualifier) = name.qualifier().last() {
            for (si, s) in self.sources.iter().enumerate() {
                if binds(&s.binding, &qualifier.value) {
                    let c = s
                        .table
                        .column(&col)
                        .ok_or_else(|| ExecError::UnknownColumn(name.to_string()))?;
                    return Ok(c.data.get(self.rows[si]));
                }
            }
            return Err(ExecError::UnknownColumn(name.to_string()));
        }
        for (si, s) in self.sources.iter().enumerate() {
            if let Some(c) = s.table.column(&col) {
                return Ok(c.data.get(self.rows[si]));
            }
        }
        Err(ExecError::UnknownColumn(name.to_string()))
    }
}

pub(crate) fn literal_value(lit: &Literal) -> Value {
    match lit {
        Literal::Number(text) => {
            if let Ok(i) = text.parse::<i64>() {
                Value::Int(i)
            } else if let Some(hex) = text.strip_prefix("0x").or_else(|| text.strip_prefix("0X")) {
                i64::from_str_radix(hex, 16).map_or(Value::Null, Value::Int)
            } else {
                text.parse::<f64>().map_or(Value::Null, Value::Float)
            }
        }
        Literal::String(s) => Value::Str(s.clone()),
        Literal::Null => Value::Null,
        Literal::Boolean(b) => Value::Int(i64::from(*b)),
    }
}

/// Scalar evaluation.
fn eval_scalar(expr: &Expr, ctx: &RowCtxView<'_, '_>) -> Result<Value, ExecError> {
    match expr {
        Expr::Column(name) => ctx.resolve(name),
        Expr::Literal(lit) => Ok(literal_value(lit)),
        Expr::Nested(inner) => eval_scalar(inner, ctx),
        Expr::Unary {
            op: UnaryOp::Minus,
            expr,
        } => match eval_scalar(expr, ctx)? {
            Value::Int(i) => Ok(Value::Int(-i)),
            Value::Float(f) => Ok(Value::Float(-f)),
            _ => Ok(Value::Null),
        },
        Expr::Unary {
            op: UnaryOp::Plus,
            expr,
        } => eval_scalar(expr, ctx),
        Expr::Binary { left, op, right }
            if matches!(op, BinaryOp::BitAnd | BinaryOp::BitOr | BinaryOp::BitXor) =>
        {
            let (a, b) = (eval_scalar(left, ctx)?, eval_scalar(right, ctx)?);
            match (a, b) {
                (Value::Int(a), Value::Int(b)) => Ok(Value::Int(match op {
                    BinaryOp::BitAnd => a & b,
                    BinaryOp::BitOr => a | b,
                    _ => a ^ b,
                })),
                _ => Ok(Value::Null),
            }
        }
        Expr::Binary { left, op, right }
            if matches!(
                op,
                BinaryOp::Plus | BinaryOp::Minus | BinaryOp::Multiply | BinaryOp::Divide
            ) =>
        {
            let (a, b) = (eval_scalar(left, ctx)?, eval_scalar(right, ctx)?);
            let (a, b) = match (a, b) {
                (Value::Int(a), Value::Int(b)) => (a as f64, b as f64),
                (Value::Float(a), Value::Float(b)) => (a, b),
                (Value::Int(a), Value::Float(b)) => (a as f64, b),
                (Value::Float(a), Value::Int(b)) => (a, b as f64),
                _ => return Ok(Value::Null),
            };
            let r = match op {
                BinaryOp::Plus => a + b,
                BinaryOp::Minus => a - b,
                BinaryOp::Multiply => a * b,
                _ => {
                    if b == 0.0 {
                        return Ok(Value::Null);
                    }
                    a / b
                }
            };
            Ok(Value::Float(r))
        }
        Expr::Function {
            name,
            args,
            distinct: false,
        } => {
            let fname = name.last().normalized();
            let mut vals = Vec::with_capacity(args.len());
            for a in args {
                vals.push(eval_scalar(a, ctx)?);
            }
            scalar_function(&fname, &vals)
        }
        other => Err(ExecError::Unsupported(format!(
            "scalar expression {other:?}"
        ))),
    }
}

/// Built-in scalar functions: the numeric/string helpers that show up in
/// logged SkyServer queries (`abs`, `floor`, `ceiling`, `sqrt`, `power`,
/// `round`, `str`, `upper`, `lower`, `len`).
fn scalar_function(name: &str, args: &[Value]) -> Result<Value, ExecError> {
    let num = |v: &Value| -> Option<f64> {
        match v {
            Value::Int(i) => Some(*i as f64),
            Value::Float(f) => Some(*f),
            _ => None,
        }
    };
    let unary_num = |f: fn(f64) -> f64| -> Result<Value, ExecError> {
        match args {
            [v] => Ok(num(v).map_or(Value::Null, |x| Value::Float(f(x)))),
            _ => Err(ExecError::Unsupported(format!("{name} takes one argument"))),
        }
    };
    match name {
        "abs" => match args {
            [Value::Int(i)] => Ok(Value::Int(i.abs())),
            [v] => Ok(num(v).map_or(Value::Null, |x| Value::Float(x.abs()))),
            _ => Err(ExecError::Unsupported("abs takes one argument".into())),
        },
        "floor" => unary_num(f64::floor),
        "ceiling" | "ceil" => unary_num(f64::ceil),
        "sqrt" => unary_num(f64::sqrt),
        "round" => match args {
            [v] => Ok(num(v).map_or(Value::Null, |x| Value::Float(x.round()))),
            [v, d] => {
                let (Some(x), Some(d)) = (num(v), num(d)) else {
                    return Ok(Value::Null);
                };
                let m = 10f64.powi(d as i32);
                Ok(Value::Float((x * m).round() / m))
            }
            _ => Err(ExecError::Unsupported("round takes 1–2 arguments".into())),
        },
        "power" => match args {
            [a, b] => match (num(a), num(b)) {
                (Some(x), Some(y)) => Ok(Value::Float(x.powf(y))),
                _ => Ok(Value::Null),
            },
            _ => Err(ExecError::Unsupported("power takes two arguments".into())),
        },
        // SQL Server's `str(float [, length [, decimals]])`.
        "str" => match args {
            [] => Err(ExecError::Unsupported("str takes 1–3 arguments".into())),
            [v, rest @ ..] if rest.len() <= 2 => {
                let Some(x) = num(v) else {
                    return Ok(Value::Null);
                };
                let decimals = rest.get(1).and_then(num).unwrap_or(0.0) as usize;
                Ok(Value::Str(format!("{x:.decimals$}")))
            }
            _ => Err(ExecError::Unsupported("str takes 1–3 arguments".into())),
        },
        "upper" => match args {
            [Value::Str(s)] => Ok(Value::Str(s.to_uppercase())),
            [Value::Null] => Ok(Value::Null),
            _ => Err(ExecError::Unsupported("upper takes one string".into())),
        },
        "lower" => match args {
            [Value::Str(s)] => Ok(Value::Str(s.to_lowercase())),
            [Value::Null] => Ok(Value::Null),
            _ => Err(ExecError::Unsupported("lower takes one string".into())),
        },
        "len" | "length" => match args {
            [Value::Str(s)] => Ok(Value::Int(s.chars().count() as i64)),
            [Value::Null] => Ok(Value::Null),
            _ => Err(ExecError::Unsupported("len takes one string".into())),
        },
        other => Err(ExecError::Unsupported(format!("function {other}"))),
    }
}

/// Crate-internal re-export of scalar evaluation for the aggregate module.
pub(crate) fn eval_scalar_pub(expr: &Expr, ctx: &RowCtxView<'_, '_>) -> Result<Value, ExecError> {
    eval_scalar(expr, ctx)
}

/// Crate-internal re-export of predicate evaluation for the Volcano filter.
pub(crate) fn eval_pred_pub(
    expr: &Expr,
    ctx: &RowCtxView<'_, '_>,
) -> Result<Option<bool>, ExecError> {
    eval_pred(expr, ctx)
}

/// SQL LIKE with `%` and `_`.
fn like_match(text: &str, pattern: &str) -> bool {
    fn rec(t: &[u8], p: &[u8]) -> bool {
        match p.first() {
            None => t.is_empty(),
            Some(b'%') => (0..=t.len()).any(|k| rec(&t[k..], &p[1..])),
            Some(b'_') => !t.is_empty() && rec(&t[1..], &p[1..]),
            Some(&c) => !t.is_empty() && t[0].eq_ignore_ascii_case(&c) && rec(&t[1..], &p[1..]),
        }
    }
    rec(text.as_bytes(), pattern.as_bytes())
}

/// Three-valued predicate evaluation (`None` = unknown).
fn eval_pred(expr: &Expr, ctx: &RowCtxView<'_, '_>) -> Result<Option<bool>, ExecError> {
    match expr {
        Expr::Binary {
            left,
            op: BinaryOp::And,
            right,
        } => {
            let (a, b) = (eval_pred(left, ctx)?, eval_pred(right, ctx)?);
            Ok(match (a, b) {
                (Some(false), _) | (_, Some(false)) => Some(false),
                (Some(true), Some(true)) => Some(true),
                _ => None,
            })
        }
        Expr::Binary {
            left,
            op: BinaryOp::Or,
            right,
        } => {
            let (a, b) = (eval_pred(left, ctx)?, eval_pred(right, ctx)?);
            Ok(match (a, b) {
                (Some(true), _) | (_, Some(true)) => Some(true),
                (Some(false), Some(false)) => Some(false),
                _ => None,
            })
        }
        Expr::Unary {
            op: UnaryOp::Not,
            expr,
        } => Ok(eval_pred(expr, ctx)?.map(|b| !b)),
        Expr::Binary { left, op, right } if op.is_comparison() => {
            let (a, b) = (eval_scalar(left, ctx)?, eval_scalar(right, ctx)?);
            let Some(ord) = a.compare(&b) else {
                return Ok(None);
            };
            Ok(Some(match op {
                BinaryOp::Eq => ord.is_eq(),
                BinaryOp::NotEq => !ord.is_eq(),
                BinaryOp::Lt => ord.is_lt(),
                BinaryOp::LtEq => ord.is_le(),
                BinaryOp::Gt => ord.is_gt(),
                BinaryOp::GtEq => ord.is_ge(),
                _ => unreachable!(),
            }))
        }
        Expr::Between {
            expr,
            low,
            high,
            negated,
        } => {
            let v = eval_scalar(expr, ctx)?;
            let (lo, hi) = (eval_scalar(low, ctx)?, eval_scalar(high, ctx)?);
            let (Some(a), Some(b)) = (v.compare(&lo), v.compare(&hi)) else {
                return Ok(None);
            };
            let inside = a.is_ge() && b.is_le();
            Ok(Some(inside != *negated))
        }
        Expr::InList {
            expr,
            list,
            negated,
        } => {
            let v = eval_scalar(expr, ctx)?;
            if v.is_null() {
                return Ok(None);
            }
            let mut saw_null = false;
            for item in list {
                let w = eval_scalar(item, ctx)?;
                if w.is_null() {
                    saw_null = true;
                } else if v.sql_eq(&w) {
                    return Ok(Some(!*negated));
                }
            }
            if saw_null {
                Ok(None)
            } else {
                Ok(Some(*negated))
            }
        }
        Expr::IsNull { expr, negated } => {
            let v = eval_scalar(expr, ctx)?;
            Ok(Some(v.is_null() != *negated))
        }
        Expr::Like {
            expr,
            pattern,
            negated,
        } => {
            let (v, p) = (eval_scalar(expr, ctx)?, eval_scalar(pattern, ctx)?);
            match (v, p) {
                (Value::Str(t), Value::Str(p)) => Ok(Some(like_match(&t, &p) != *negated)),
                (Value::Null, _) | (_, Value::Null) => Ok(None),
                _ => Ok(Some(*negated)),
            }
        }
        Expr::Nested(inner) => eval_pred(inner, ctx),
        other => Err(ExecError::Unsupported(format!("predicate {other:?}"))),
    }
}

/// Index probe extracted from a WHERE clause: an equality or IN on a column.
struct Probe {
    binding: String,
    column: String,
    values: Vec<Value>,
}

/// Range probe: integer bounds on a range-indexed column.
struct RangeProbe {
    binding: String,
    column: String,
    lo: Option<i64>,
    hi: Option<i64>,
}

/// Either kind of index access plan.
enum ProbePlan {
    Point(Probe),
    Range(RangeProbe),
}

/// Finds integer bounds on a range-indexed column among the conjuncts
/// (`h >= a AND h <= b`, `h BETWEEN a AND b`, one-sided comparisons).
fn find_range_probe(selection: &Expr, sources: &[Source<'_>]) -> Option<RangeProbe> {
    fn int_lit(e: &Expr) -> Option<i64> {
        match e {
            Expr::Literal(Literal::Number(n)) => n.parse().ok(),
            Expr::Nested(inner) => int_lit(inner),
            _ => None,
        }
    }
    // (source index, column) → bounds, merged across conjuncts.
    let mut bounds: HashMap<(usize, String), (Option<i64>, Option<i64>)> = HashMap::new();
    let resolve = |name: &ObjectName| -> Option<(usize, String)> {
        let col = name.last().normalized();
        let qualifier = name.qualifier().last().map(|q| q.normalized());
        sources
            .iter()
            .position(|s| {
                qualifier.as_deref().is_none_or(|q| binds(&s.binding, q))
                    && s.table.range_indexes.contains_key(&col)
            })
            .map(|si| (si, col))
    };
    let mut tighten = |key: (usize, String), lo: Option<i64>, hi: Option<i64>| {
        let e = bounds.entry(key).or_insert((None, None));
        if let Some(lo) = lo {
            e.0 = Some(e.0.map_or(lo, |old: i64| old.max(lo)));
        }
        if let Some(hi) = hi {
            e.1 = Some(e.1.map_or(hi, |old: i64| old.min(hi)));
        }
    };
    for conj in selection.conjuncts() {
        match conj {
            Expr::Binary { left, op, right } if op.is_comparison() => {
                // Normalize to column-on-the-left.
                let (col, v, op) = match (left.as_ref(), right.as_ref()) {
                    (Expr::Column(c), e) => match int_lit(e) {
                        Some(v) => (c, v, *op),
                        None => continue,
                    },
                    (e, Expr::Column(c)) => match int_lit(e) {
                        Some(v) => (
                            c,
                            v,
                            match op {
                                BinaryOp::Lt => BinaryOp::Gt,
                                BinaryOp::LtEq => BinaryOp::GtEq,
                                BinaryOp::Gt => BinaryOp::Lt,
                                BinaryOp::GtEq => BinaryOp::LtEq,
                                other => *other,
                            },
                        ),
                        None => continue,
                    },
                    _ => continue,
                };
                let Some(key) = resolve(col) else { continue };
                match op {
                    BinaryOp::GtEq => tighten(key, Some(v), None),
                    BinaryOp::Gt => tighten(key, Some(v.saturating_add(1)), None),
                    BinaryOp::LtEq => tighten(key, None, Some(v)),
                    BinaryOp::Lt => tighten(key, None, Some(v.saturating_sub(1))),
                    _ => {}
                }
            }
            Expr::Between {
                expr,
                low,
                high,
                negated: false,
            } => {
                let Expr::Column(c) = expr.as_ref() else {
                    continue;
                };
                let (Some(lo), Some(hi)) = (int_lit(low), int_lit(high)) else {
                    continue;
                };
                let Some(key) = resolve(c) else { continue };
                tighten(key, Some(lo), Some(hi));
            }
            _ => {}
        }
    }
    // Prefer the tightest two-sided range; any bounded column qualifies.
    type Bounds = (Option<i64>, Option<i64>);
    let mut best: Option<((usize, String), Bounds)> = None;
    for (key, b) in bounds {
        let score = usize::from(b.0.is_some()) + usize::from(b.1.is_some());
        let best_score = best.as_ref().map_or(0, |(_, b)| {
            usize::from(b.0.is_some()) + usize::from(b.1.is_some())
        });
        if score > best_score {
            best = Some((key, b));
        }
    }
    best.map(|((si, column), (lo, hi))| RangeProbe {
        binding: sources[si].binding.clone(),
        column,
        lo,
        hi,
    })
}

/// Finds an indexable conjunct for any of the sources.
fn find_probe(selection: &Expr, sources: &[Source<'_>]) -> Option<Probe> {
    for conj in selection.conjuncts() {
        let (name, values) = match conj {
            Expr::Binary {
                left,
                op: BinaryOp::Eq,
                right,
            } => match (left.as_ref(), right.as_ref()) {
                (Expr::Column(c), Expr::Literal(l)) | (Expr::Literal(l), Expr::Column(c)) => {
                    (c, vec![literal_value(l)])
                }
                _ => continue,
            },
            Expr::InList {
                expr,
                list,
                negated: false,
            } => match expr.as_ref() {
                Expr::Column(c) if list.iter().all(|e| matches!(e, Expr::Literal(_))) => (
                    c,
                    list.iter()
                        .map(|e| match e {
                            Expr::Literal(l) => literal_value(l),
                            _ => unreachable!(),
                        })
                        .collect(),
                ),
                _ => continue,
            },
            _ => continue,
        };
        let col = name.last().normalized();
        let qualifier = name.qualifier().last().map(|q| q.normalized());
        for s in sources {
            let matches_binding = qualifier.as_deref().is_none_or(|q| binds(&s.binding, q));
            if matches_binding && s.table.indexes.contains_key(&col) {
                return Some(Probe {
                    binding: s.binding.clone(),
                    column: col,
                    values,
                });
            }
        }
    }
    None
}

/// Executes a query against a set of tables through the cost-based planner
/// and the Volcano executor (see [`crate::plan`] and [`crate::ops`]). Table
/// statistics are computed on the fly; callers that execute repeatedly
/// against the same tables should go through [`crate::MiniDb`], which caches
/// them.
pub fn execute(query: &Query, tables: &HashMap<String, Table>) -> Result<ExecResult, ExecError> {
    crate::ops::execute_planned(query, tables).map(|p| p.result)
}

/// Executes a query with the retained naive reference executor: one pass,
/// first-indexable-conjunct access choice, no planner. This is the
/// differential-testing baseline the Volcano executor is checked against —
/// both paths share the projection/aggregation/ordering tails, so result
/// rows must match bit-for-bit.
pub fn execute_naive(
    query: &Query,
    tables: &HashMap<String, Table>,
) -> Result<ExecResult, ExecError> {
    if !query.is_simple() {
        return Err(ExecError::Unsupported("set operations".into()));
    }
    let body = &query.body;

    // Materialize derived tables (inner queries run first, recursively).
    let mut arena: Vec<Table> = Vec::new();
    for t in &body.from {
        collect_derived(t, tables, &mut arena)?;
    }

    // Bind the FROM clause.
    let mut sources: Vec<Source<'_>> = Vec::new();
    let mut join_on: Vec<Expr> = Vec::new();
    let mut derived_cursor = 0usize;
    for t in &body.from {
        bind_table_ref(
            t,
            tables,
            &arena,
            &mut derived_cursor,
            &mut sources,
            &mut join_on,
        )?;
    }

    // Constant-only query (`SELECT 1`).
    if sources.is_empty() {
        return constant_result(body);
    }
    if sources.len() > 2 {
        return Err(ExecError::Unsupported(">2-way joins".into()));
    }

    // Combined predicate: WHERE plus any JOIN ... ON conditions.
    let mut predicate = body.selection.clone();
    for on in join_on {
        predicate = Some(match predicate {
            Some(p) => Expr::and(p, on),
            None => on,
        });
    }

    // Candidate rows via an index probe: point (hash) first, else range
    // (ordered) — the access paths behind the §6.3 cost asymmetry.
    let plan = predicate.as_ref().and_then(|p| {
        find_probe(p, &sources)
            .map(ProbePlan::Point)
            .or_else(|| find_range_probe(p, &sources).map(ProbePlan::Range))
    });
    let mut scanned = 0usize;
    let used_index;

    // Enumerate candidate row combinations.
    #[allow(unused_mut)]
    let mut matches: Vec<Vec<usize>> = Vec::new();
    let enumerate_rows = |s: &Source<'_>, plan: &Option<ProbePlan>| -> (Vec<usize>, bool) {
        match plan {
            Some(ProbePlan::Point(p)) if p.binding == s.binding => {
                let mut rows = Vec::new();
                for v in &p.values {
                    if let Some(ids) = s.table.index_lookup(&p.column, v) {
                        rows.extend(ids.iter().map(|&r| r as usize));
                    }
                }
                rows.sort_unstable();
                rows.dedup();
                (rows, true)
            }
            Some(ProbePlan::Range(p)) if p.binding == s.binding => {
                match s.table.range_lookup(&p.column, p.lo, p.hi) {
                    Some(rows) => (rows.into_iter().map(|r| r as usize).collect(), true),
                    None => ((0..s.table.rows()).collect(), false),
                }
            }
            _ => ((0..s.table.rows()).collect(), false),
        }
    };

    match sources.len() {
        1 => {
            let (rows, via_index) = enumerate_rows(&sources[0], &plan);
            used_index = via_index;
            scanned += rows.len();
            for r in rows {
                let ctx = RowCtxView {
                    sources: &sources,
                    rows: &[r],
                };
                let keep = match &predicate {
                    Some(p) => eval_pred(p, &ctx)? == Some(true),
                    None => true,
                };
                if keep {
                    matches.push(vec![r]);
                }
            }
        }
        _ => {
            // Two-way nested-loop join with index probing on either side.
            let (left_rows, left_idx) = enumerate_rows(&sources[0], &plan);
            used_index = left_idx;
            // Try to accelerate the inner side with an equi-join index:
            // find `a.col = b.col` in the predicate.
            let join_cols = predicate
                .as_ref()
                .map(|p| find_equi_join(p, &sources))
                .unwrap_or_default();
            for lr in left_rows {
                scanned += 1;
                let inner: Vec<usize> = if let Some((lcol, rcol)) = &join_cols {
                    let lval = sources[0]
                        .table
                        .column(lcol)
                        .map(|c| c.data.get(lr))
                        .unwrap_or(Value::Null);
                    match sources[1].table.index_lookup(rcol, &lval) {
                        Some(ids) => ids.iter().map(|&r| r as usize).collect(),
                        None => (0..sources[1].table.rows()).collect(),
                    }
                } else {
                    (0..sources[1].table.rows()).collect()
                };
                for rr in inner {
                    scanned += 1;
                    let ctx = RowCtxView {
                        sources: &sources,
                        rows: &[lr, rr],
                    };
                    let keep = match &predicate {
                        Some(p) => eval_pred(p, &ctx)? == Some(true),
                        None => true,
                    };
                    if keep {
                        matches.push(vec![lr, rr]);
                    }
                }
            }
        }
    }

    finish_rows(query, &sources, matches, scanned, used_index).map(|(r, _)| r)
}

/// Evaluates a FROM-less projection (`SELECT 1`). Shared by both executors.
pub(crate) fn constant_result(body: &Select) -> Result<ExecResult, ExecError> {
    let ctx = RowCtxView {
        sources: &[],
        rows: &[],
    };
    let mut row = Vec::new();
    let mut names = Vec::new();
    for item in &body.projection {
        match item {
            SelectItem::Expr { expr, alias } => {
                row.push(eval_scalar(expr, &ctx)?);
                names.push(
                    alias
                        .as_ref()
                        .map_or_else(|| expr.to_string(), |a| a.value.clone()),
                );
            }
            _ => return Err(ExecError::Unsupported("wildcard without FROM".into())),
        }
    }
    Ok(ExecResult {
        columns: names,
        rows: vec![row],
        scanned_rows: 0,
        used_index: false,
    })
}

/// Row counts through the result tail, for operator-level reporting:
/// `matches → (sort) → project/aggregate → distinct → limit`.
pub(crate) struct TailCounts {
    /// Rows after projection (or surviving groups), before DISTINCT.
    pub(crate) pre_distinct: usize,
    /// Rows after DISTINCT, before TOP/LIMIT.
    pub(crate) pre_limit: usize,
}

/// The shared result tail: ORDER BY over matched source rows, then the
/// grouped or scalar projection, DISTINCT and TOP/LIMIT. Both the naive
/// reference executor and the Volcano executor end here, which is what
/// makes their result rows comparable bit-for-bit.
pub(crate) fn finish_rows(
    query: &Query,
    sources: &[Source<'_>],
    mut matches: Vec<Vec<usize>>,
    scanned: usize,
    used_index: bool,
) -> Result<(ExecResult, TailCounts), ExecError> {
    let body = &query.body;

    // ORDER BY: sort the matched source rows, so non-projected columns are
    // valid sort keys. Projection aliases are resolved to their expressions
    // (`SELECT u - g AS ug ... ORDER BY ug`).
    if !query.order_by.is_empty() {
        let alias_of = |name: &ObjectName| -> Option<&Expr> {
            if !name.qualifier().is_empty() {
                return None;
            }
            body.projection.iter().find_map(|item| match item {
                SelectItem::Expr {
                    expr,
                    alias: Some(a),
                } if a == name.last() => Some(expr),
                _ => None,
            })
        };
        let sort_exprs: Vec<&Expr> = query
            .order_by
            .iter()
            .map(|item| match &item.expr {
                Expr::Column(name) => alias_of(name).unwrap_or(&item.expr),
                other => other,
            })
            .collect();
        let mut keyed: Vec<(Vec<Value>, Vec<usize>)> = Vec::with_capacity(matches.len());
        for m in matches {
            let ctx = RowCtxView { sources, rows: &m };
            let mut keys = Vec::with_capacity(sort_exprs.len());
            for expr in &sort_exprs {
                keys.push(eval_scalar(expr, &ctx)?);
            }
            keyed.push((keys, m));
        }
        let dirs: Vec<bool> = query
            .order_by
            .iter()
            .map(|o| o.asc.unwrap_or(true))
            .collect();
        keyed.sort_by(|a, b| {
            for (i, &asc) in dirs.iter().enumerate() {
                let ord = a.0[i].compare(&b.0[i]).unwrap_or(std::cmp::Ordering::Equal);
                let ord = if asc { ord } else { ord.reverse() };
                if !ord.is_eq() {
                    return ord;
                }
            }
            std::cmp::Ordering::Equal
        });
        matches = keyed.into_iter().map(|(_, m)| m).collect();
    }

    // Grouped / aggregate path (GROUP BY, HAVING, or aggregate projection).
    if !body.group_by.is_empty()
        || body.having.is_some()
        || crate::aggregate::projection_has_aggregate(&body.projection)
    {
        return execute_grouped(query, sources, &matches, scanned, used_index);
    }

    // Projection.
    let mut columns: Vec<String> = Vec::new();
    let mut projected: Vec<Vec<Value>> = Vec::with_capacity(matches.len());
    for (mi, m) in matches.iter().enumerate() {
        let ctx = RowCtxView { sources, rows: m };
        let mut row = Vec::new();
        for item in &body.projection {
            match item {
                SelectItem::Wildcard => {
                    for (si, s) in sources.iter().enumerate() {
                        for c in &s.table.columns {
                            if mi == 0 {
                                columns.push(c.name.clone());
                            }
                            row.push(c.data.get(m[si]));
                        }
                    }
                }
                SelectItem::QualifiedWildcard(q) => {
                    let binding = q.last().normalized();
                    let Some((si, s)) = sources
                        .iter()
                        .enumerate()
                        .find(|(_, s)| binds(&s.binding, &binding))
                    else {
                        return Err(ExecError::UnknownTable(binding));
                    };
                    for c in &s.table.columns {
                        if mi == 0 {
                            columns.push(c.name.clone());
                        }
                        row.push(c.data.get(m[si]));
                    }
                }
                SelectItem::Expr { expr, alias } => {
                    if mi == 0 {
                        columns.push(
                            alias
                                .as_ref()
                                .map_or_else(|| expr.to_string(), |a| a.value.clone()),
                        );
                    }
                    row.push(eval_scalar(expr, &ctx)?);
                }
            }
        }
        projected.push(row);
    }
    if matches.is_empty() {
        // Still produce column names for an empty result.
        for item in &body.projection {
            match item {
                SelectItem::Wildcard | SelectItem::QualifiedWildcard(_) => {
                    for s in sources {
                        for c in &s.table.columns {
                            columns.push(c.name.clone());
                        }
                    }
                }
                SelectItem::Expr { expr, alias } => columns.push(
                    alias
                        .as_ref()
                        .map_or_else(|| expr.to_string(), |a| a.value.clone()),
                ),
            }
        }
    }

    // DISTINCT: drop later duplicates, keeping (sorted) order.
    let pre_distinct = projected.len();
    if body.distinct {
        dedup_rows(&mut projected);
    }
    let pre_limit = projected.len();

    // TOP / LIMIT.
    let limit = body
        .top
        .as_ref()
        .or(query.limit.as_ref())
        .and_then(|e| match e {
            Expr::Literal(Literal::Number(n)) => n.parse::<usize>().ok(),
            Expr::Nested(inner) => match inner.as_ref() {
                Expr::Literal(Literal::Number(n)) => n.parse::<usize>().ok(),
                _ => None,
            },
            _ => None,
        });
    if let Some(n) = limit {
        projected.truncate(n);
    }

    Ok((
        ExecResult {
            columns,
            rows: projected,
            scanned_rows: scanned,
            used_index,
        },
        TailCounts {
            pre_distinct,
            pre_limit,
        },
    ))
}

/// Finds an `a.col = b.col` equi-join conjunct where `b`'s column is indexed.
fn find_equi_join(predicate: &Expr, sources: &[Source<'_>]) -> Option<(String, String)> {
    if sources.len() != 2 {
        return None;
    }
    for conj in predicate.conjuncts() {
        if let Expr::Binary {
            left,
            op: BinaryOp::Eq,
            right,
        } = conj
        {
            if let (Expr::Column(a), Expr::Column(b)) = (left.as_ref(), right.as_ref()) {
                let (ca, cb) = (a.last().normalized(), b.last().normalized());
                // Either orientation; want (left source column, right source column).
                let qa = a.qualifier().last().map(|q| q.normalized());
                let qb = b.qualifier().last().map(|q| q.normalized());
                let is_left =
                    |q: &Option<String>| q.as_deref().is_none_or(|q| binds(&sources[0].binding, q));
                let is_right = |q: &Option<String>| {
                    q.as_deref().is_some_and(|q| binds(&sources[1].binding, q))
                };
                if is_left(&qa) && is_right(&qb) && sources[1].table.indexes.contains_key(&cb) {
                    return Some((ca, cb));
                }
                if is_left(&qb) && is_right(&qa) && sources[1].table.indexes.contains_key(&ca) {
                    return Some((cb, ca));
                }
            }
        }
    }
    None
}

pub(crate) fn bind_table_ref<'a>(
    t: &TableRef,
    tables: &'a HashMap<String, Table>,
    arena: &'a [Table],
    derived_cursor: &mut usize,
    sources: &mut Vec<Source<'a>>,
    join_on: &mut Vec<Expr>,
) -> Result<(), ExecError> {
    match t {
        TableRef::Table { name, alias } => {
            let tname = name.last().normalized();
            let table = tables
                .get(&tname)
                .ok_or_else(|| ExecError::UnknownTable(tname.clone()))?;
            sources.push(Source {
                binding: alias
                    .as_ref()
                    .map_or_else(|| tname.clone(), |a| a.normalized()),
                table,
            });
            Ok(())
        }
        TableRef::Join {
            left,
            right,
            kind: JoinKind::Inner,
            constraint,
        } => {
            bind_table_ref(left, tables, arena, derived_cursor, sources, join_on)?;
            bind_table_ref(right, tables, arena, derived_cursor, sources, join_on)?;
            if let Some(on) = constraint {
                join_on.push(on.clone());
            }
            Ok(())
        }
        TableRef::Join { .. } => Err(ExecError::Unsupported("non-inner join".into())),
        TableRef::Function { name, .. } => Err(ExecError::Unsupported(format!(
            "table-valued function {name}"
        ))),
        TableRef::Derived { alias, .. } => {
            // Materialized earlier by `collect_derived`, in traversal order.
            let table = arena
                .get(*derived_cursor)
                .expect("derived table materialized");
            *derived_cursor += 1;
            sources.push(Source {
                binding: alias
                    .as_ref()
                    .map_or_else(|| table.name.clone(), |a| a.normalized()),
                table,
            });
            Ok(())
        }
    }
}

/// Removes duplicate rows, keeping first occurrences (SQL `DISTINCT`;
/// NULLs compare equal for this purpose, as in SQL's grouping semantics).
fn dedup_rows(rows: &mut Vec<Vec<Value>>) {
    let mut seen: std::collections::HashSet<String> = std::collections::HashSet::new();
    rows.retain(|row| {
        use std::fmt::Write as _;
        let mut key = String::new();
        for v in row {
            let _ = write!(key, "{v:?}\u{1f}");
        }
        seen.insert(key)
    });
}

/// Depth-first materialization of derived tables, in the same traversal
/// order `bind_table_ref` uses.
fn collect_derived(
    t: &TableRef,
    tables: &HashMap<String, Table>,
    arena: &mut Vec<Table>,
) -> Result<(), ExecError> {
    match t {
        TableRef::Derived { subquery, alias } => {
            let result = execute_naive(subquery, tables)?;
            let name = alias
                .as_ref()
                .map_or_else(|| format!("derived{}", arena.len()), |a| a.normalized());
            arena.push(materialize(&name, &result));
            Ok(())
        }
        TableRef::Join { left, right, .. } => {
            collect_derived(left, tables, arena)?;
            collect_derived(right, tables, arena)
        }
        _ => Ok(()),
    }
}

/// Turns an execution result into an in-memory table. Column types are
/// inferred from the first non-NULL value of each column.
pub(crate) fn materialize(name: &str, result: &ExecResult) -> Table {
    let mut table = Table::new(name);
    for (ci, col_name) in result.columns.iter().enumerate() {
        let first = result.rows.iter().map(|r| &r[ci]).find(|v| !v.is_null());
        let data = match first {
            Some(Value::Int(_)) | None => crate::table::ColumnData::Int(
                result
                    .rows
                    .iter()
                    .map(|r| match &r[ci] {
                        Value::Int(i) => Some(*i),
                        _ => None,
                    })
                    .collect(),
            ),
            Some(Value::Float(_)) => crate::table::ColumnData::Float(
                result
                    .rows
                    .iter()
                    .map(|r| match &r[ci] {
                        Value::Float(f) => Some(*f),
                        Value::Int(i) => Some(*i as f64),
                        _ => None,
                    })
                    .collect(),
            ),
            _ => crate::table::ColumnData::Str(
                result
                    .rows
                    .iter()
                    .map(|r| match &r[ci] {
                        Value::Null => None,
                        v => Some(v.to_string()),
                    })
                    .collect(),
            ),
        };
        // Derived columns may repeat names (e.g. two unaliased expressions);
        // keep the first occurrence, which is the one unqualified resolution
        // would find anyway.
        if table.column(col_name).is_none() {
            table.add_column(col_name.clone(), data);
        }
    }
    table
}

/// Executes the grouped / aggregate path over the matched rows.
fn execute_grouped(
    query: &Query,
    sources: &[Source<'_>],
    matches: &[Vec<usize>],
    scanned: usize,
    used_index: bool,
) -> Result<(ExecResult, TailCounts), ExecError> {
    use crate::aggregate::{eval_group_pred, eval_group_scalar};
    let body = &query.body;

    // Per-match row contexts.
    let ctxs: Vec<RowCtxView<'_, '_>> = matches
        .iter()
        .map(|m| RowCtxView { sources, rows: m })
        .collect();

    // Partition into groups by the rendered GROUP BY key (empty GROUP BY →
    // one global group, present even with zero input rows, so that
    // `SELECT count(*) ...` over an empty match set yields a single 0 row).
    let mut order: Vec<String> = Vec::new();
    let mut groups: HashMap<String, Vec<&RowCtxView<'_, '_>>> = HashMap::new();
    if body.group_by.is_empty() {
        order.push(String::new());
        groups.insert(String::new(), ctxs.iter().collect());
    } else {
        for ctx in &ctxs {
            let mut key = String::new();
            for e in &body.group_by {
                use std::fmt::Write as _;
                let _ = write!(key, "{}\u{1f}", eval_scalar(e, ctx)?);
            }
            if !groups.contains_key(&key) {
                order.push(key.clone());
            }
            groups.entry(key).or_default().push(ctx);
        }
    }

    // Project each surviving group.
    let mut columns: Vec<String> = Vec::new();
    for item in &body.projection {
        match item {
            SelectItem::Expr { expr, alias } => columns.push(
                alias
                    .as_ref()
                    .map_or_else(|| expr.to_string(), |a| a.value.clone()),
            ),
            _ => {
                return Err(ExecError::Unsupported(
                    "wildcard projection in a grouped query".into(),
                ))
            }
        }
    }
    let mut rows: Vec<Vec<Value>> = Vec::with_capacity(order.len());
    let mut sort_keys: Vec<Vec<Value>> = Vec::new();
    for key in &order {
        let group = &groups[key];
        if let Some(h) = &body.having {
            if eval_group_pred(h, group)? != Some(true) {
                continue;
            }
        }
        let mut row = Vec::with_capacity(body.projection.len());
        for item in &body.projection {
            let SelectItem::Expr { expr, .. } = item else {
                unreachable!()
            };
            row.push(eval_group_scalar(expr, group)?);
        }
        if !query.order_by.is_empty() {
            let mut keys = Vec::with_capacity(query.order_by.len());
            for o in &query.order_by {
                keys.push(eval_group_scalar(&o.expr, group)?);
            }
            sort_keys.push(keys);
        }
        rows.push(row);
    }

    // ORDER BY over group-level keys.
    if !query.order_by.is_empty() {
        let dirs: Vec<bool> = query
            .order_by
            .iter()
            .map(|o| o.asc.unwrap_or(true))
            .collect();
        let mut keyed: Vec<(Vec<Value>, Vec<Value>)> = sort_keys.into_iter().zip(rows).collect();
        keyed.sort_by(|a, b| {
            for (i, &asc) in dirs.iter().enumerate() {
                let ord = a.0[i].compare(&b.0[i]).unwrap_or(std::cmp::Ordering::Equal);
                let ord = if asc { ord } else { ord.reverse() };
                if !ord.is_eq() {
                    return ord;
                }
            }
            std::cmp::Ordering::Equal
        });
        rows = keyed.into_iter().map(|(_, r)| r).collect();
    }

    // DISTINCT over the grouped output.
    let pre_distinct = rows.len();
    if body.distinct {
        dedup_rows(&mut rows);
    }
    let pre_limit = rows.len();

    // TOP / LIMIT.
    let limit = body
        .top
        .as_ref()
        .or(query.limit.as_ref())
        .and_then(|e| match e {
            Expr::Literal(Literal::Number(n)) => n.parse::<usize>().ok(),
            _ => None,
        });
    if let Some(n) = limit {
        rows.truncate(n);
    }

    Ok((
        ExecResult {
            columns,
            rows,
            scanned_rows: scanned,
            used_index,
        },
        TailCounts {
            pre_distinct,
            pre_limit,
        },
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::table::ColumnData;
    use sqlog_sql::parse_query;

    fn db() -> HashMap<String, Table> {
        let mut employee = Table::new("Employee");
        employee.add_column(
            "empid",
            ColumnData::Int(vec![Some(1), Some(2), Some(8), Some(9)]),
        );
        employee.add_column(
            "name",
            ColumnData::Str(vec![
                Some("ann".into()),
                Some("bob".into()),
                Some("joe".into()),
                None,
            ]),
        );
        employee.add_column(
            "salary",
            ColumnData::Float(vec![Some(10.0), Some(20.0), Some(30.0), None]),
        );
        employee.build_index("empid");

        let mut info = Table::new("EmployeeInfo");
        info.add_column("empid", ColumnData::Int(vec![Some(1), Some(8)]));
        info.add_column(
            "address",
            ColumnData::Str(vec![Some("x st".into()), Some("y st".into())]),
        );
        info.build_index("empid");

        let mut map = HashMap::new();
        map.insert("employee".to_string(), employee);
        map.insert("employeeinfo".to_string(), info);
        map
    }

    fn run(sql: &str) -> ExecResult {
        execute(&parse_query(sql).unwrap(), &db()).unwrap()
    }

    #[test]
    fn point_lookup_uses_index() {
        let r = run("SELECT name FROM Employee WHERE empId = 8");
        assert!(r.used_index);
        assert_eq!(r.scanned_rows, 1);
        assert_eq!(r.rows, vec![vec![Value::from("joe")]]);
    }

    #[test]
    fn in_list_uses_index() {
        let r = run("SELECT empId, name FROM Employee WHERE empId IN (8, 1)");
        assert!(r.used_index);
        assert_eq!(r.rows.len(), 2);
        assert_eq!(r.scanned_rows, 2);
    }

    #[test]
    fn full_scan_on_non_indexed_column() {
        let r = run("SELECT empId FROM Employee WHERE name = 'bob'");
        assert!(!r.used_index);
        assert_eq!(r.scanned_rows, 4);
        assert_eq!(r.rows, vec![vec![Value::Int(2)]]);
    }

    #[test]
    fn between_and_comparison() {
        let r = run("SELECT empId FROM Employee WHERE salary BETWEEN 15 AND 35");
        assert_eq!(r.rows.len(), 2);
        let r = run("SELECT empId FROM Employee WHERE salary > 25");
        assert_eq!(r.rows, vec![vec![Value::Int(8)]]);
    }

    #[test]
    fn null_semantics() {
        // NULL never compares equal; IS NULL finds it.
        let r = run("SELECT empId FROM Employee WHERE name = NULL");
        assert!(r.rows.is_empty());
        let r = run("SELECT empId FROM Employee WHERE name IS NULL");
        assert_eq!(r.rows, vec![vec![Value::Int(9)]]);
        let r = run("SELECT empId FROM Employee WHERE name IS NOT NULL");
        assert_eq!(r.rows.len(), 3);
    }

    #[test]
    fn like_matching() {
        let r = run("SELECT empId FROM Employee WHERE name LIKE 'b%'");
        assert_eq!(r.rows, vec![vec![Value::Int(2)]]);
        let r = run("SELECT empId FROM Employee WHERE name LIKE '_o_'");
        assert_eq!(r.rows.len(), 2); // bob, joe
        let r = run("SELECT empId FROM Employee WHERE name NOT LIKE '%o%'");
        assert_eq!(r.rows, vec![vec![Value::Int(1)]]);
    }

    #[test]
    fn count_star() {
        let r = run("SELECT count(*) FROM Employee WHERE salary >= 10");
        assert_eq!(r.rows, vec![vec![Value::Int(3)]]);
        assert_eq!(r.columns, vec!["count(*)"]);
        // Aliased aggregate names the output column.
        let r = run("SELECT count(*) AS n FROM Employee");
        assert_eq!(r.columns, vec!["n"]);
        assert_eq!(r.rows, vec![vec![Value::Int(4)]]);
        // Empty match set still yields one zero row.
        let r = run("SELECT count(*) FROM Employee WHERE empId = 999");
        assert_eq!(r.rows, vec![vec![Value::Int(0)]]);
    }

    #[test]
    fn group_by_with_aggregates() {
        // Two employees share empid? No — group by a derived bucket: use
        // salary presence. Group by name IS NULL-ness is unsupported; group
        // by empid parity via arithmetic is unsupported too, so group by a
        // plain column with duplicates: build on the info table instead.
        let r = run("SELECT empId, count(*) AS c FROM Employee GROUP BY empId ORDER BY empId");
        assert_eq!(r.rows.len(), 4);
        assert!(r.rows.iter().all(|row| row[1] == Value::Int(1)));
        assert_eq!(r.columns, vec!["empId", "c"]);
    }

    #[test]
    fn aggregate_functions() {
        let r = run("SELECT min(salary), max(salary), avg(salary), sum(salary) FROM Employee");
        assert_eq!(
            r.rows,
            vec![vec![
                Value::Float(10.0),
                Value::Float(30.0),
                Value::Float(20.0),
                Value::Float(60.0),
            ]]
        );
        // count(expr) skips NULLs; count(*) does not.
        let r = run("SELECT count(name), count(*) FROM Employee");
        assert_eq!(r.rows, vec![vec![Value::Int(3), Value::Int(4)]]);
    }

    #[test]
    fn having_filters_groups() {
        let r = run("SELECT empId, count(*) FROM Employee GROUP BY empId HAVING count(*) > 1");
        assert!(r.rows.is_empty());
        let r = run("SELECT empId, count(*) FROM Employee GROUP BY empId HAVING count(*) >= 1");
        assert_eq!(r.rows.len(), 4);
    }

    #[test]
    fn derived_table_with_group_by() {
        // The shape of the paper's introduction rewrite: join a base table
        // against a grouped derived table.
        let r = run(
            "SELECT E.name, O.c FROM Employee AS E INNER JOIN              (SELECT empId, count(*) AS c FROM EmployeeInfo GROUP BY empId) O              ON O.empId = E.empId WHERE E.empId = 8",
        );
        assert_eq!(r.rows, vec![vec![Value::from("joe"), Value::Int(1)]]);
    }

    #[test]
    fn plain_derived_table() {
        let r = run(
            "SELECT d.name FROM (SELECT name, empId FROM Employee WHERE salary > 15) AS d              WHERE d.empId = 8",
        );
        assert_eq!(r.rows, vec![vec![Value::from("joe")]]);
    }

    #[test]
    fn inner_join_with_on() {
        let r = run(
            "SELECT E.name, EI.address FROM Employee AS E INNER JOIN EmployeeInfo AS EI \
             ON E.empId = EI.empId WHERE E.empId = 8",
        );
        assert_eq!(r.rows, vec![vec![Value::from("joe"), Value::from("y st")]]);
    }

    #[test]
    fn order_by_and_top() {
        let r = run("SELECT TOP 2 empId FROM Employee ORDER BY empId DESC");
        assert_eq!(r.rows, vec![vec![Value::Int(9)], vec![Value::Int(8)]]);
        let r = run("SELECT empId FROM Employee ORDER BY salary ASC LIMIT 1");
        // NULL salary sorts as equal; ordering among NULLs unspecified but
        // limit applies.
        assert_eq!(r.rows.len(), 1);
    }

    #[test]
    fn distinct_removes_duplicate_rows() {
        let mut t = Table::new("d");
        t.add_column(
            "x",
            ColumnData::Int(vec![Some(1), Some(1), Some(2), None, None]),
        );
        let mut map = HashMap::new();
        map.insert("d".to_string(), t);
        let q = parse_query("SELECT DISTINCT x FROM d").unwrap();
        let r = execute(&q, &map).unwrap();
        assert_eq!(
            r.rows,
            vec![vec![Value::Int(1)], vec![Value::Int(2)], vec![Value::Null]]
        );
        // Without DISTINCT all five rows come back.
        let q = parse_query("SELECT x FROM d").unwrap();
        assert_eq!(execute(&q, &map).unwrap().rows.len(), 5);
    }

    #[test]
    fn wildcard_projection() {
        let r = run("SELECT * FROM Employee WHERE empId = 1");
        assert_eq!(r.columns, vec!["empid", "name", "salary"]);
        assert_eq!(r.rows.len(), 1);
    }

    #[test]
    fn constant_select() {
        let r = run("SELECT 1 + 2");
        assert_eq!(r.rows, vec![vec![Value::Float(3.0)]]);
    }

    #[test]
    fn range_probe_uses_the_ordered_index() {
        let mut t = Table::new("scan");
        t.add_column("h", ColumnData::Int((0..1_000).map(Some).collect()));
        t.add_column(
            "v",
            ColumnData::Int((0..1_000).map(|i| Some(i * 2)).collect()),
        );
        t.build_range_index("h");
        let mut map = HashMap::new();
        map.insert("scan".to_string(), t);

        let q = parse_query("SELECT v FROM scan WHERE h >= 100 AND h <= 109").unwrap();
        let r = execute(&q, &map).unwrap();
        assert!(r.used_index);
        assert_eq!(r.scanned_rows, 10);
        assert_eq!(r.rows.len(), 10);

        let q = parse_query("SELECT v FROM scan WHERE h BETWEEN 990 AND 2000").unwrap();
        let r = execute(&q, &map).unwrap();
        assert!(r.used_index);
        assert_eq!(r.rows.len(), 10);

        // Strict bounds narrow correctly.
        let q = parse_query("SELECT v FROM scan WHERE h > 997").unwrap();
        let r = execute(&q, &map).unwrap();
        assert!(r.used_index);
        assert_eq!(r.rows.len(), 2);

        // Without a range index the same query full-scans.
        let q = parse_query("SELECT h FROM scan WHERE v BETWEEN 0 AND 2").unwrap();
        let r = execute(&q, &map).unwrap();
        assert!(!r.used_index);
        assert_eq!(r.scanned_rows, 1_000);
    }

    #[test]
    fn scalar_functions() {
        let r = run("SELECT abs(0 - 2), floor(2.7), ceiling(2.1), sqrt(16)");
        assert_eq!(
            r.rows,
            vec![vec![
                Value::Float(2.0),
                Value::Float(2.0),
                Value::Float(3.0),
                Value::Float(4.0),
            ]]
        );
        let r = run("SELECT round(2.71828, 2), power(2, 10), str(2.5, 6, 1)");
        assert_eq!(
            r.rows,
            vec![vec![
                Value::Float(2.72),
                Value::Float(1024.0),
                Value::Str("2.5".into()),
            ]]
        );
        let r = run("SELECT upper(name), len(name) FROM Employee WHERE empId = 2");
        assert_eq!(r.rows, vec![vec![Value::from("BOB"), Value::Int(3)]]);
        // Unknown functions are honest errors.
        let q = parse_query("SELECT frobnicate(1) FROM Employee").unwrap();
        assert!(matches!(execute(&q, &db()), Err(ExecError::Unsupported(_))));
    }

    #[test]
    fn functions_in_predicates() {
        let r = run("SELECT empId FROM Employee WHERE abs(salary - 20) < 1");
        assert_eq!(r.rows, vec![vec![Value::Int(2)]]);
    }

    #[test]
    fn errors_are_reported() {
        let q = parse_query("SELECT a FROM nosuch").unwrap();
        assert!(matches!(
            execute(&q, &db()),
            Err(ExecError::UnknownTable(_))
        ));
        let q = parse_query("SELECT nosuch FROM Employee").unwrap();
        assert!(matches!(
            execute(&q, &db()),
            Err(ExecError::UnknownColumn(_))
        ));
        let q = parse_query("SELECT a FROM t1 UNION SELECT a FROM t2").unwrap();
        assert!(matches!(execute(&q, &db()), Err(ExecError::Unsupported(_))));
    }

    #[test]
    fn dw_rewrite_equals_union_of_originals() {
        // The semantic check behind the DW solver: the merged IN query
        // returns exactly the union of the original point queries.
        let a = run("SELECT empId, name FROM Employee WHERE empId = 8");
        let b = run("SELECT empId, name FROM Employee WHERE empId = 1");
        let merged = run("SELECT empId, name FROM Employee WHERE empId IN (8, 1)");
        assert_eq!(merged.rows.len(), a.rows.len() + b.rows.len());
        for row in a.rows.iter().chain(&b.rows) {
            assert!(merged.rows.contains(row));
        }
    }
}
