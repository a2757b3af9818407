//! Property test for the parse stage's output layout: every record's view
//! must answer exactly what a fresh parse of its statement answers.
//!
//! A parsed record keeps its template id and its literal texts; the
//! template-level facts live once per template (see
//! `sqlog_core::records`). For every record of a parsed log, the view's
//! `profile()`, `output()` and `primary_table()` must equal
//! `PredicateProfile::of_select`, `OutputColumns::of_select` and
//! `primary_table` of a fresh parse of the statement behind it — with the
//! parse cache on and off, at 1, 2 and 8 threads, and the parsed records
//! must be identical across all six runs.
//!
//! Each case is a log of statements drawn from a set of shapes whose value
//! slots take numbers (signed, spaced `- 5`, decimal, exponent, hex),
//! strings (with `''` escapes), `NULL`, booleans and variables, spelled in
//! three letter cases (so quoted identifiers differ only in case), plus
//! long `IN` lists and a fixed list of hostile statements.

use proptest::prelude::*;
use sqlog_catalog::Catalog;
use sqlog_core::{ParsedLog, Pipeline, PipelineConfig, TemplateStore};
use sqlog_log::{LogEntry, LogView, QueryLog, Timestamp};
use sqlog_skeleton::{primary_table, OutputColumns, PredicateProfile};
use sqlog_sql::{parse_statements, Statement};

/// Shapes with value slots: `?` any value, `#` a number.
const SHAPES: &[&str] = &[
    "SELECT name FROM Employee WHERE empId = ?",
    "SELECT ra, dec AS d FROM photoprimary WHERE objid = ? AND r BETWEEN ? AND ?",
    "SELECT * FROM SpecObj WHERE z > ? AND class LIKE ? AND flags IS NOT NULL",
    "SELECT p.objid, s.z FROM photoprimary p JOIN specobj s ON p.objid = s.bestobjid WHERE s.z < ?",
    "SELECT CAST(ra AS varchar(#)) FROM photoprimary WHERE objid = ?",
    "SELECT \"Name\", [Dept] AS \"D\" FROM \"Employee\" WHERE \"EmpId\" = ?",
    "SELECT TOP # ra FROM photoprimary WHERE type IN (?, ?, ?) ORDER BY ra",
    "SELECT a FROM t WHERE x = - ? OR y <> ?",
    "SELECT a FROM t WHERE ? = x AND b = NULL AND c <> NULL AND d NOT IN (?, #)",
    "SELECT a AS A1, b AS \"B\" FROM t WHERE [Col] = ? AND e >= ?",
    "INSERT INTO t VALUES (?)",
    "SELECT a FROM WHERE x = ?",
];

/// Statements always in the log, whatever the case draws.
const HOSTILE: &[&str] = &[
    "SELECT \"Name\" FROM t WHERE \"Col\" = 1",
    "SELECT \"name\" FROM t WHERE \"col\" = 2",
    "SELECT \"NAME\" FROM t WHERE \"COL\" = 3",
    "SELECT a FROM t WHERE x = - 5",
    "SELECT a FROM t WHERE x = -5",
    "SELECT a FROM t WHERE x = - - 5",
    "SELECT a FROM t WHERE s = 'it''s' AND u = ''",
    "SELECT a FROM t WHERE s = '''' AND u = 'x''y''z'",
    "SELECT a FROM t WHERE x = NULL",
    "SELECT a FROM t WHERE x <> NULL",
    "SELECT a AS b, c d FROM t AS u WHERE u.k = 4",
    "SELECT CAST(x AS varchar(12)) FROM t WHERE y = 1",
    "SELECT CAST(x AS varchar(99)) FROM t WHERE y = 2",
    "INSERT INTO t VALUES (1); SELECT a FROM t WHERE x = 7",
];

/// Draws bounded choices from a vector of random words.
struct Choices<'a> {
    vals: &'a [u32],
    next: usize,
}

impl Choices<'_> {
    fn pick(&mut self, n: usize) -> usize {
        let v = self.vals[self.next % self.vals.len()];
        self.next += 1;
        v as usize % n
    }
}

fn number(c: &mut Choices) -> String {
    let (a, b) = (c.pick(30), c.pick(10));
    match c.pick(7) {
        0 | 1 => a.to_string(),
        2 => format!("-{a}"),
        3 => format!("- {a}"),
        4 => format!("{a}.{b}e-{}", 1 + c.pick(3)),
        5 => format!("0x{:X}", 0x1A0 + a),
        _ => format!("{a}.{b}"),
    }
}

fn value(c: &mut Choices) -> String {
    const PARTS: &[&str] = &["a", "''", "Galaxy", "%", "", "ü"];
    match c.pick(8) {
        0..=2 => number(c),
        3 | 4 => {
            let body: String = (0..c.pick(4)).map(|_| PARTS[c.pick(PARTS.len())]).collect();
            format!("'{body}'")
        }
        5 => "NULL".to_string(),
        6 => ["TRUE", "false"][c.pick(2)].to_string(),
        _ => ["@id", "@ID", "@@rowcount"][c.pick(3)].to_string(),
    }
}

/// One statement: a shape in one of three letter cases, its slots filled.
fn statement(c: &mut Choices) -> String {
    if c.pick(10) == 0 {
        let n = 1 + c.pick(300);
        let values: Vec<String> = (0..n).map(|_| number(c)).collect();
        return format!(
            "SELECT ra FROM photoprimary WHERE objid IN ({})",
            values.join(", ")
        );
    }
    let shape = SHAPES[c.pick(SHAPES.len())];
    let shape = match c.pick(3) {
        0 => shape.to_string(),
        1 => shape.to_ascii_lowercase(),
        _ => shape.to_ascii_uppercase(),
    };
    let mut sql = String::new();
    for ch in shape.chars() {
        match ch {
            '?' => sql.push_str(&value(c)),
            '#' => sql.push_str(&(1 + c.pick(40)).to_string()),
            _ => sql.push(ch),
        }
    }
    sql
}

fn log_of(statements: &[String]) -> QueryLog {
    QueryLog::from_entries(
        statements
            .iter()
            .enumerate()
            .map(|(i, s)| {
                LogEntry::minimal(i as u64, s.as_str(), Timestamp::from_secs(i as i64))
                    .with_user("u")
            })
            .collect(),
    )
}

fn parse(log: &QueryLog, cache: bool, threads: usize) -> (ParsedLog, TemplateStore) {
    let catalog = Catalog::new();
    let pipeline = Pipeline::new(&catalog).with_config(PipelineConfig {
        parse_cache: cache,
        parallelism: threads,
        ..PipelineConfig::default()
    });
    let store = TemplateStore::new();
    let parsed = pipeline.op_parse(&LogView::identity(log), &store);
    (parsed, store)
}

/// Checks every record of one run against a fresh parse of its statement.
fn check_views(log: &QueryLog, parsed: &ParsedLog, label: &str) -> Result<(), TestCaseError> {
    for i in 0..parsed.records.len() {
        let view = parsed.records.view(i);
        let sql = &log.entries[view.entry_idx() as usize].statement;
        let stmts = parse_statements(sql).expect("a record's statement parses");
        let q = stmts
            .iter()
            .find_map(Statement::as_select)
            .expect("a record's statement holds a SELECT");
        prop_assert_eq!(
            view.profile(),
            PredicateProfile::of_select(&q.body),
            "{}: profile of record {} ({})",
            label,
            i,
            sql
        );
        prop_assert_eq!(
            view.output(),
            &OutputColumns::of_select(&q.body),
            "{}: output of record {} ({})",
            label,
            i,
            sql
        );
        prop_assert_eq!(
            view.primary_table().map(str::to_string),
            primary_table(&q.body),
            "{}: primary table of record {} ({})",
            label,
            i,
            sql
        );
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn record_views_equal_a_fresh_parse(
        words in prop::collection::vec(any::<u32>(), 64..512),
        len in 1usize..40,
    ) {
        let mut c = Choices { vals: &words, next: 0 };
        let mut statements: Vec<String> = (0..len).map(|_| statement(&mut c)).collect();
        // Repeat a prefix so the cache meets the same shapes again.
        let repeat: Vec<String> = statements.iter().take(len / 2).map(|s| {
            s.replacen('1', "2", 1)
        }).collect();
        statements.extend(repeat);
        statements.extend(HOSTILE.iter().map(|s| s.to_string()));
        let log = log_of(&statements);

        let (reference, ref_store) = parse(&log, false, 1);
        check_views(&log, &reference, "cache off, 1 thread")?;
        for cache in [false, true] {
            for threads in [1usize, 2, 8] {
                let label = format!("cache {cache}, {threads} threads");
                let (parsed, store) = parse(&log, cache, threads);
                check_views(&log, &parsed, &label)?;
                prop_assert_eq!(&parsed.records, &reference.records, "{}", label);
                prop_assert_eq!(&parsed.stats, &reference.stats, "{}", label);
                prop_assert_eq!(store.len(), ref_store.len(), "{}", label);
            }
        }
    }
}
