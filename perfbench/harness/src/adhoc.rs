//! The `adhoc` workload's input: ad-hoc SELECTs whose literal-masked shapes
//! are (almost) all distinct, plus a small share of exact resubmissions.
//!
//! `sqlog-gen`'s personas cannot produce this input — even a human+web-UI
//! mix reuses a few hundred templates, so the parse cache saturates and the
//! dedup prefilter bails out. The generator here starts from those human
//! and web-UI statements and varies each one's projection list, aliases
//! and predicate columns (drawn from the SkyServer catalog) until its
//! `raw_shape_scan` key is new. A resubmission is an exact copy of the
//! previous statement by the same user, inside the duplicate window.
//! Every statement is printed from a parsed SELECT, and the input check
//! parses a fixed sample back.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use sqlog_catalog::{skyserver_catalog, Catalog};
use sqlog_gen::{generate, GenConfig, WorkloadMix};
use sqlog_log::{LogEntry, QueryLog};
use sqlog_skeleton::{raw_shape_scan, FnvHashMap, FnvHashSet, RawKey};
use sqlog_sql::ast::{
    BinaryOp, Expr, Ident, Literal, ObjectName, Query, SelectItem, Statement, TableRef,
};
use sqlog_sql::parse_statement;

/// Probability that a statement is resubmitted verbatim (≈ 3 % of the log).
const RESUBMIT_PROB: f64 = 0.031;
/// The pipeline's default duplicate window; resubmissions land inside it.
pub const DUPLICATE_WINDOW_MS: i64 = 1_000;

const ALIASES: &[&str] = &[
    "val", "mag", "flux", "err", "pos", "obj", "spec", "band", "col", "fld", "hit", "cand", "src",
    "ref", "ext", "res", "tgt", "sel",
];
const OPS: &[BinaryOp] = &[
    BinaryOp::Lt,
    BinaryOp::Gt,
    BinaryOp::LtEq,
    BinaryOp::GtEq,
    BinaryOp::NotEq,
];

/// Generates about `entries` statements for `seed`.
pub fn generate_adhoc(seed: u64, entries: usize) -> QueryLog {
    let mut cfg = GenConfig::with_scale(entries, seed);
    cfg.mix = WorkloadMix {
        stifle_dw: 0.0,
        stifle_ds: 0.0,
        stifle_df: 0.0,
        cth_real: 0.0,
        cth_false: 0.0,
        sws: 0.0,
        webui: 0.15,
        human: 0.85,
        non_select: 0.0,
        malformed: 0.0,
        snc: 0.0,
        duplicate_prob: 0.0,
    };
    let base = generate(&cfg);
    let catalog = skyserver_catalog();

    // Human statements repeat (quantized constants), so each distinct text
    // is parsed once.
    let mut parsed: FnvHashMap<&str, Option<Query>> = FnvHashMap::default();
    let queries: Vec<Option<&Query>> = {
        for e in &base.entries {
            parsed.entry(e.statement.as_str()).or_insert_with(|| {
                match parse_statement(&e.statement) {
                    Ok(Statement::Select(q)) => Some(*q),
                    _ => None,
                }
            });
        }
        base.entries
            .iter()
            .map(|e| parsed[e.statement.as_str()].as_ref())
            .collect()
    };

    // First draws in parallel, each entry with its own RNG stream; then a
    // sequential pass keeps first-come shapes and redraws the few repeats,
    // so the output depends on the seed alone.
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    let chunk = queries.len().div_ceil(threads).max(1);
    let first: Vec<Option<Draw>> = std::thread::scope(|s| {
        let handles: Vec<_> = queries
            .chunks(chunk)
            .enumerate()
            .map(|(c, qs)| {
                let catalog = &catalog;
                s.spawn(move || {
                    let mut lits = Vec::new();
                    qs.iter()
                        .enumerate()
                        .map(|(j, q)| {
                            let mut rng = entry_rng(seed, c * chunk + j);
                            q.map(|q| {
                                let text = draw(q, catalog, &mut rng, None);
                                let key = raw_shape_scan(&text, &mut lits);
                                Draw { text, key, rng }
                            })
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("draw worker"))
            .collect()
    });

    let mut seen: FnvHashSet<RawKey> = FnvHashSet::default();
    let mut lits = Vec::new();
    let mut fresh_names = 0u64;
    let mut out: Vec<LogEntry> = Vec::with_capacity(base.len() + base.len() / 16);
    for ((e, q), d) in base.entries.iter().zip(&queries).zip(first) {
        let (Some(q), Some(mut d)) = (q, d) else {
            continue;
        };
        let mut attempt = 0;
        while !d.key.is_some_and(|k| seen.insert(k)) {
            attempt += 1;
            if attempt > 16 {
                break;
            }
            // Out of random draws: a never-used alias makes the shape new.
            let fresh = (attempt >= 8).then(|| {
                fresh_names += 1;
                letters(fresh_names)
            });
            d.text = draw(q, &catalog, &mut d.rng, fresh);
            d.key = raw_shape_scan(&d.text, &mut lits);
        }
        if attempt > 16 {
            continue;
        }
        let mut entry = e.clone();
        entry.statement = d.text;
        entry.truth = None;
        if d.rng.random_bool(RESUBMIT_PROB) {
            let mut copy = entry.clone();
            copy.timestamp = entry
                .timestamp
                .offset_millis(d.rng.random_range(50..DUPLICATE_WINDOW_MS - 100));
            out.push(entry);
            out.push(copy);
        } else {
            out.push(entry);
        }
    }
    out.sort_by_key(|e| e.timestamp);
    for (i, e) in out.iter_mut().enumerate() {
        e.id = i as u64;
    }
    QueryLog::from_entries(out)
}

struct Draw {
    text: String,
    key: Option<RawKey>,
    rng: SmallRng,
}

fn entry_rng(seed: u64, index: usize) -> SmallRng {
    SmallRng::seed_from_u64(
        (seed ^ 0xad40_c0de_5eed_0001)
            .wrapping_add((index as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15)),
    )
}

/// One variation of `q`, rendered; `fresh` appends a never-used alias.
fn draw(q: &Query, catalog: &Catalog, rng: &mut SmallRng, fresh: Option<String>) -> String {
    let mut q = q.clone();
    vary(&mut q, catalog, rng);
    if let Some(alias) = fresh {
        q.body.projection.push(SelectItem::Expr {
            expr: Expr::Literal(Literal::Number("1".into())),
            alias: Some(Ident::new(alias)),
        });
    }
    Statement::Select(Box::new(q)).to_string()
}

/// Puts catalog columns (some aliased) in front of the projection and adds
/// a predicate on a catalog column.
fn vary(q: &mut Query, catalog: &Catalog, rng: &mut SmallRng) {
    let table = q
        .body
        .from
        .first()
        .and_then(base_table)
        .and_then(|name| catalog.table(&name))
        .unwrap_or_else(|| {
            // Catalog iteration order is unspecified; sort for determinism.
            let mut all: Vec<_> = catalog.tables().collect();
            all.sort_by(|a, b| a.name.cmp(&b.name));
            all[rng.random_range(0..all.len())]
        });
    let cols: Vec<&str> = table.columns.iter().map(|c| c.name.as_str()).collect();
    let k = rng.random_range(1..=cols.len().min(5));
    let mut picked: Vec<&str> = Vec::with_capacity(k);
    while picked.len() < k {
        let c = cols[rng.random_range(0..cols.len())];
        if !picked.contains(&c) {
            picked.push(c);
        }
    }
    // Aggregate and grouped queries become plain SELECTs of the picked
    // columns, so the statement stays valid SQL for an executor too.
    let aggregate = !q.body.group_by.is_empty()
        || q.body.projection.iter().any(|p| {
            let text = p.to_string().to_ascii_lowercase();
            ["count(", "sum(", "avg(", "min(", "max("]
                .iter()
                .any(|f| text.contains(f))
        });
    if aggregate {
        q.body.group_by.clear();
        q.body.having = None;
        q.order_by.clear();
    }
    let keep_original = !aggregate
        && !q
            .body
            .projection
            .iter()
            .any(|p| matches!(p, SelectItem::Wildcard | SelectItem::QualifiedWildcard(_)));
    let mut projection: Vec<SelectItem> = picked
        .iter()
        .map(|c| SelectItem::Expr {
            expr: Expr::Column(ObjectName::simple(*c)),
            alias: rng.random_bool(0.5).then(|| {
                Ident::new(format!(
                    "{}_{}",
                    ALIASES[rng.random_range(0..ALIASES.len())],
                    letters(rng.random_range(1..27 * 27))
                ))
            }),
        })
        .collect();
    if keep_original {
        projection.append(&mut q.body.projection);
    }
    q.body.projection = projection;

    if q.body.group_by.is_empty() && rng.random_bool(0.7) {
        let col = cols[rng.random_range(0..cols.len())];
        let pred = Expr::Binary {
            left: Box::new(Expr::Column(ObjectName::simple(col))),
            op: OPS[rng.random_range(0..OPS.len())],
            right: Box::new(Expr::Literal(Literal::Number(
                rng.random_range(0..10_000u32).to_string(),
            ))),
        };
        q.body.selection = Some(match q.body.selection.take() {
            Some(w) => Expr::Binary {
                left: Box::new(w),
                op: BinaryOp::And,
                right: Box::new(pred),
            },
            None => pred,
        });
    }
}

fn base_table(t: &TableRef) -> Option<String> {
    match t {
        TableRef::Table { name, .. } => name.0.last().map(|i| i.value.to_ascii_lowercase()),
        TableRef::Join { left, .. } => base_table(left),
        _ => None,
    }
}

/// `n` in bijective base 26 (`a`, …, `z`, `aa`, …): an identifier with no
/// digits, so the shape scan keeps all of it.
fn letters(mut n: u64) -> String {
    let mut s = Vec::new();
    while n > 0 {
        n -= 1;
        s.push(b'a' + (n % 26) as u8);
        n /= 26;
    }
    s.reverse();
    String::from_utf8(s).expect("ascii")
}

/// What the workload's design depends on, measured on the input itself.
pub struct AdhocProperties {
    /// Entries in the log.
    pub entries: usize,
    /// Entries that repeat the same user's previous identical statement
    /// inside the duplicate window.
    pub resubmissions: usize,
    /// Distinct `raw_shape_scan` keys.
    pub distinct_shapes: usize,
    /// Sampled statements (every [`PARSE_SAMPLE`]th) that did not parse
    /// back as a SELECT.
    pub unparsed: usize,
}

/// One statement in this many is parsed back by the input check.
const PARSE_SAMPLE: usize = 32;

impl AdhocProperties {
    /// Measures `log`.
    pub fn measure(log: &QueryLog) -> AdhocProperties {
        let mut lits = Vec::new();
        let mut shapes: FnvHashSet<RawKey> = FnvHashSet::default();
        let mut last: FnvHashMap<(&str, &str), i64> = FnvHashMap::default();
        let mut resubmissions = 0;
        let mut unparsed = 0;
        for (i, e) in log.entries.iter().enumerate() {
            if let Some(k) = raw_shape_scan(&e.statement, &mut lits) {
                shapes.insert(k);
            }
            if i % PARSE_SAMPLE == 0
                && !matches!(parse_statement(&e.statement), Ok(Statement::Select(_)))
            {
                unparsed += 1;
            }
            let user = e.user.as_deref().unwrap_or("");
            let now = e.timestamp.millis();
            if let Some(prev) = last.insert((user, e.statement.as_str()), now) {
                if now - prev <= DUPLICATE_WINDOW_MS {
                    resubmissions += 1;
                }
            }
        }
        AdhocProperties {
            entries: log.len(),
            resubmissions,
            distinct_shapes: shapes.len(),
            unparsed,
        }
    }

    /// Share of entries that are resubmissions.
    pub fn resubmission_share(&self) -> f64 {
        self.resubmissions as f64 / self.entries.max(1) as f64
    }

    /// Distinct shapes per non-resubmitted entry (1.0 = every one unique).
    pub fn distinct_shape_share(&self) -> f64 {
        self.distinct_shapes as f64 / (self.entries - self.resubmissions).max(1) as f64
    }

    /// The workload's design, or why the input no longer matches it.
    pub fn check(&self) -> Result<(), String> {
        let mut problems = Vec::new();
        if self.distinct_shape_share() < 0.99 {
            problems.push(format!(
                "only {:.4} of non-resubmitted statements have a distinct shape (want >= 0.99)",
                self.distinct_shape_share()
            ));
        }
        if !(0.02..=0.04).contains(&self.resubmission_share()) {
            problems.push(format!(
                "resubmission share {:.4} outside [0.02, 0.04]",
                self.resubmission_share()
            ));
        }
        if self.unparsed > 0 {
            problems.push(format!(
                "{} sampled statements do not parse as a SELECT",
                self.unparsed
            ));
        }
        if problems.is_empty() {
            Ok(())
        } else {
            Err(problems.join("; "))
        }
    }
}
