//! Batched statement parsing for solvers.
//!
//! Stifle instances group statements that differ only in their literals —
//! exactly what a DW chain is. The solvers used to re-parse every statement
//! from scratch ([`sqlog_sql::parse_statement`] per record); at paper scale
//! that full parse dominates the solve stage. [`QueryCache`] removes it:
//!
//! 1. each statement is scanned allocation-free into its literal spans and a
//!    **masked key** — an FNV-1a hash of the raw bytes with every literal
//!    span replaced by a kind marker. Two statements share a masked key iff
//!    they are byte-identical outside their literal spans (case, whitespace
//!    and comments included) with the same literal kinds in the same places,
//!    so they lex to the same token sequence modulo literal *values* and the
//!    parser — which never branches on literal values — builds the same tree
//!    shape with the literals in the same slots;
//! 2. the first statement of a shape is parsed in full and **certified**:
//!    its own span texts are substituted back into a clone of its AST (in
//!    `walk_query` order) and the result must equal the original. With
//!    pairwise-distinct span texts this proves the mutable walker visits the
//!    literal slots in statement order, so the certified template can be
//!    instantiated for *any* statement of the shape;
//! 3. every later statement of a certified shape skips the parser entirely:
//!    clone the template, write its own span texts into the literal slots.
//!
//! Certification failure (duplicate span texts, a literal the walker cannot
//! see — e.g. the number inside `CAST(x AS varchar(32))`'s type — or a
//! count mismatch) marks the shape unbatchable and those statements take the
//! full-parse path forever; the cache is a pure win or a no-op, never a
//! change in output. Substitution reproduces the parser's literal handling
//! exactly: numbers keep their verbatim token text, strings fold each `''`
//! escape to `'`.

use sqlog_obs::Recorder;
use sqlog_skeleton::{Fnv1a, FnvHashMap, RawLiteral, RawLiteralKind};
use sqlog_sql::ast::{Expr, Literal, Query, Select, SelectItem, Statement, TableRef};
use sqlog_sql::parse_statement;
use std::sync::Mutex;

/// Marker byte hashed in place of a numeric literal span.
const MASK_NUM: u8 = 0xF8;
/// Marker byte hashed in place of a string literal span.
const MASK_STR: u8 = 0xF9;

/// Cache key: FNV-1a over the statement bytes with literal spans masked,
/// plus the masked length and the span count (collision backstop, mirroring
/// [`sqlog_skeleton::RawKey`]). Unlike `RawKey` this key is case- and
/// whitespace-*sensitive*: the certified template is re-rendered with the
/// original identifier spelling, so shapes that differ anywhere outside
/// their literals must not share a template. Being finer than token
/// equivalence costs at most an extra certification per spelling variant —
/// and buys a single-pass scan ([`masked_scan`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct MaskedKey {
    hash: u64,
    len: u32,
    literals: u32,
}

/// Single-pass scanner behind [`masked_scan`]: hashes the statement bytes
/// verbatim while detecting literal token boundaries the same way
/// [`sqlog_skeleton::raw_shape_scan`] does.
struct MaskScan<'a> {
    bytes: &'a [u8],
    pos: usize,
    hash: Fnv1a,
    len: u32,
}

impl MaskScan<'_> {
    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn peek2(&self) -> Option<u8> {
        self.bytes.get(self.pos + 1).copied()
    }

    /// Hashes the current byte verbatim and advances.
    fn take(&mut self) {
        self.hash.update(&self.bytes[self.pos..self.pos + 1]);
        self.len += 1;
        self.pos += 1;
    }

    /// Hashes `[pos, end)` verbatim and advances to `end`.
    fn take_to(&mut self, end: usize) {
        self.hash.update(&self.bytes[self.pos..end]);
        self.len += (end - self.pos) as u32;
        self.pos = end;
    }

    /// Hashes a literal's marker byte (the span itself is skipped).
    fn mask(&mut self, marker: u8) {
        self.hash.update(&[marker]);
        self.len += 1;
    }

    /// `'...'` string literal; records the inner span. `false` = unterminated.
    fn scan_string(&mut self, literals: &mut Vec<RawLiteral>) -> bool {
        self.take(); // opening quote
        let content_start = self.pos;
        let mut has_escape = false;
        loop {
            match self.peek() {
                Some(b'\'') => {
                    if self.peek2() == Some(b'\'') {
                        has_escape = true;
                        self.pos += 2;
                    } else {
                        literals.push(RawLiteral {
                            start: content_start as u32,
                            end: self.pos as u32,
                            kind: RawLiteralKind::String { has_escape },
                        });
                        self.mask(MASK_STR);
                        self.take(); // closing quote
                        return true;
                    }
                }
                Some(_) => self.pos += 1,
                None => return false,
            }
        }
    }

    /// `"x"` / `[x]` quoted identifier: hashed verbatim, its content opens
    /// no literal. `false` = unterminated.
    fn scan_quoted_ident(&mut self, close: u8) -> bool {
        self.take(); // opening quote
        loop {
            match self.peek() {
                Some(b) if b == close => {
                    self.take();
                    return true;
                }
                Some(_) => self.take(),
                None => return false,
            }
        }
    }

    /// `@name` / `@@global`: hashed verbatim; digits in the name are part of
    /// the identifier, not number literals. `false` = a bare `@`.
    fn scan_variable(&mut self) -> bool {
        self.take(); // @
        if self.peek() == Some(b'@') {
            self.take();
        }
        let name_start = self.pos;
        while let Some(b) = self.peek() {
            if b == b'_' || b.is_ascii_alphanumeric() {
                self.take();
            } else {
                break;
            }
        }
        self.pos != name_start
    }

    /// Number token (hex, decimal, trailing-dot, exponent forms — the same
    /// boundaries as the lexer); records the span, hashes the marker.
    fn scan_number(&mut self, literals: &mut Vec<RawLiteral>) {
        let start = self.pos;
        if self.peek() == Some(b'0')
            && matches!(self.peek2(), Some(b'x') | Some(b'X'))
            && self
                .bytes
                .get(self.pos + 2)
                .is_some_and(|b| b.is_ascii_hexdigit())
        {
            self.pos += 2;
            while self.peek().is_some_and(|b| b.is_ascii_hexdigit()) {
                self.pos += 1;
            }
        } else {
            while self.peek().is_some_and(|b| b.is_ascii_digit()) {
                self.pos += 1;
            }
            if self.peek() == Some(b'.') && self.peek2().is_none_or(|b| b.is_ascii_digit()) {
                self.pos += 1;
                while self.peek().is_some_and(|b| b.is_ascii_digit()) {
                    self.pos += 1;
                }
            }
            if matches!(self.peek(), Some(b'e') | Some(b'E')) {
                let mut look = self.pos + 1;
                if matches!(self.bytes.get(look), Some(b'+') | Some(b'-')) {
                    look += 1;
                }
                if self.bytes.get(look).is_some_and(|b| b.is_ascii_digit()) {
                    self.pos = look;
                    while self.peek().is_some_and(|b| b.is_ascii_digit()) {
                        self.pos += 1;
                    }
                }
            }
        }
        literals.push(RawLiteral {
            start: start as u32,
            end: self.pos as u32,
            kind: RawLiteralKind::Number,
        });
        self.mask(MASK_NUM);
    }

    /// Word token: consumed whole so its digits never open a number.
    fn scan_word(&mut self) {
        let mut end = self.pos;
        while let Some(&b) = self.bytes.get(end) {
            if b == b'_' || b == b'#' || b == b'$' || b.is_ascii_alphanumeric() || b >= 0x80 {
                end += 1;
            } else {
                break;
            }
        }
        self.take_to(end);
    }
}

/// Scans `sql` in one pass into its [`MaskedKey`], recording literal spans
/// into `literals` (cleared first, filled in statement order).
///
/// Unlike [`sqlog_skeleton::raw_shape_scan`] the stream is *not* normalized
/// — every non-literal byte (whitespace, comments, identifier case) is
/// hashed verbatim. The literal token boundaries are detected exactly the
/// same way, which is the only part the cache's soundness needs; hashing
/// finer than token equivalence merely splits spelling variants into their
/// own shapes. Returns `None` when literal spans cannot be determined
/// soundly (unterminated strings / block comments / quoted identifiers,
/// a bare `@`) — those statements take the full-parse path.
fn masked_scan(sql: &str, literals: &mut Vec<RawLiteral>) -> Option<MaskedKey> {
    literals.clear();
    let mut s = MaskScan {
        bytes: sql.as_bytes(),
        pos: 0,
        hash: Fnv1a::new(),
        len: 0,
    };
    while let Some(b) = s.peek() {
        match b {
            b'-' if s.peek2() == Some(b'-') => {
                // Line comment: hashed verbatim; its bytes open no literal.
                let nl = s.bytes[s.pos..]
                    .iter()
                    .position(|&c| c == b'\n')
                    .map_or(s.bytes.len(), |i| s.pos + i + 1);
                s.take_to(nl);
            }
            b'/' if s.peek2() == Some(b'*') => {
                // Nested block comment, hashed verbatim.
                let mut depth = 0usize;
                loop {
                    match s.peek() {
                        Some(b'/') if s.peek2() == Some(b'*') => {
                            s.take_to(s.pos + 2);
                            depth += 1;
                        }
                        Some(b'*') if s.peek2() == Some(b'/') => {
                            s.take_to(s.pos + 2);
                            depth -= 1;
                            if depth == 0 {
                                break;
                            }
                        }
                        Some(_) => s.take(),
                        None => return None,
                    }
                }
            }
            b'\'' => {
                if !s.scan_string(literals) {
                    return None;
                }
            }
            b'"' => {
                if !s.scan_quoted_ident(b'"') {
                    return None;
                }
            }
            b'[' => {
                if !s.scan_quoted_ident(b']') {
                    return None;
                }
            }
            b'@' => {
                if !s.scan_variable() {
                    return None;
                }
            }
            b'0'..=b'9' => s.scan_number(literals),
            b'.' if s.peek2().is_some_and(|c| c.is_ascii_digit()) => s.scan_number(literals),
            b'_' | b'a'..=b'z' | b'A'..=b'Z' | b'#' => s.scan_word(),
            _ if b >= 0x80 => s.scan_word(),
            _ => s.take(),
        }
    }
    Some(MaskedKey {
        hash: s.hash.finish().0,
        len: s.len,
        literals: literals.len() as u32,
    })
}

/// What the cache knows about one statement shape.
enum Slot {
    /// Certified template: clone + literal substitution reproduces a full
    /// parse of any statement with this masked key.
    Certified(Box<Query>),
    /// Certification failed; statements of this shape always full-parse.
    Unbatchable,
}

/// A concurrent masked-key → certified-template cache.
///
/// [`QueryCache::query`] is a drop-in replacement for "parse the statement,
/// keep it if it is a SELECT": same result for every input, amortized
/// parse-free for repeated shapes.
#[derive(Default)]
pub struct QueryCache {
    map: Mutex<FnvHashMap<MaskedKey, Slot>>,
}

impl QueryCache {
    /// Parses `sql` through the template cache. Returns `None` exactly when
    /// a direct [`parse_select`] would: parse error or non-SELECT.
    ///
    /// Each newly certified shape bumps the `solve.batched_templates`
    /// counter on `rec`.
    pub fn query(&self, sql: &str, rec: &Recorder) -> Option<Query> {
        let mut spans = Vec::new();
        let Some(key) = masked_scan(sql, &mut spans) else {
            return parse_select(sql);
        };
        {
            let map = self.map.lock().expect("query cache poisoned");
            match map.get(&key) {
                Some(Slot::Certified(template)) => {
                    let mut q = (**template).clone();
                    if substitute(&mut q, sql, &spans) {
                        return Some(q);
                    }
                    // Defensive: substitution cannot fail for a certified
                    // shape, but the full parse is always a correct answer.
                    drop(map);
                    return parse_select(sql);
                }
                Some(Slot::Unbatchable) => {
                    drop(map);
                    return parse_select(sql);
                }
                None => {}
            }
        }
        // First sighting of this shape: full-parse, then try to certify the
        // statement as the shape's template. The lock is not held across the
        // parse; a racing thread at worst also parses and the `or_insert`
        // keeps one winner.
        let q = parse_select(sql);
        let slot = match &q {
            Some(parsed) if certify(parsed, sql, &spans) => {
                rec.counter("solve.batched_templates", 1);
                Slot::Certified(Box::new(parsed.clone()))
            }
            _ => Slot::Unbatchable,
        };
        self.map
            .lock()
            .expect("query cache poisoned")
            .entry(key)
            .or_insert(slot);
        q
    }
}

/// Direct parse: the statement's query if it is a SELECT.
pub fn parse_select(sql: &str) -> Option<Query> {
    match parse_statement(sql).ok()? {
        Statement::Select(q) => Some(*q),
        Statement::Other(_) => None,
    }
}

/// True when `parsed` (the full parse of `sql`, whose literal spans are
/// `spans`) can serve as the shape's template: the span texts are pairwise
/// distinct per kind, and substituting them back into a clone reproduces
/// `parsed` exactly — which proves the walker visits the literal slots in
/// statement order and that no literal is outside the walker's reach.
fn certify(parsed: &Query, sql: &str, spans: &[RawLiteral]) -> bool {
    for (i, a) in spans.iter().enumerate() {
        for b in &spans[..i] {
            let same_kind = matches!(a.kind, RawLiteralKind::Number)
                == matches!(b.kind, RawLiteralKind::Number);
            if same_kind && a.text(sql) == b.text(sql) {
                return false;
            }
        }
    }
    let mut round_trip = parsed.clone();
    substitute(&mut round_trip, sql, spans) && round_trip == *parsed
}

/// Writes the literal spans of `sql` into the number/string literal slots of
/// `q`, in walker order. True iff every slot got a span and every span a
/// slot.
fn substitute(q: &mut Query, sql: &str, spans: &[RawLiteral]) -> bool {
    let mut idx = 0usize;
    let mut ok = true;
    walk_query(q, &mut |lit| {
        if !matches!(lit, Literal::Number(_) | Literal::String(_)) {
            return; // NULL / TRUE / FALSE are word tokens, not spans.
        }
        match spans.get(idx).and_then(|s| s.text(sql).map(|t| (s, t))) {
            Some((span, text)) => {
                *lit = match span.kind {
                    RawLiteralKind::Number => Literal::Number(text.to_string()),
                    RawLiteralKind::String { has_escape } => Literal::String(if has_escape {
                        text.replace("''", "'")
                    } else {
                        text.to_string()
                    }),
                };
                idx += 1;
            }
            None => ok = false,
        }
    });
    ok && idx == spans.len()
}

/// Visits every number/string literal slot of a query, mutably, in source
/// order (certification double-checks the order, so a clause this walk
/// misses degrades the shape to unbatchable rather than corrupting it).
fn walk_query(q: &mut Query, f: &mut impl FnMut(&mut Literal)) {
    walk_select(&mut q.body, f);
    for (_, _, sel) in &mut q.set_ops {
        walk_select(sel, f);
    }
    for item in &mut q.order_by {
        walk_expr(&mut item.expr, f);
    }
    if let Some(e) = &mut q.limit {
        walk_expr(e, f);
    }
}

fn walk_select(s: &mut Select, f: &mut impl FnMut(&mut Literal)) {
    if let Some(e) = &mut s.top {
        walk_expr(e, f);
    }
    for item in &mut s.projection {
        if let SelectItem::Expr { expr, .. } = item {
            walk_expr(expr, f);
        }
    }
    for t in &mut s.from {
        walk_table(t, f);
    }
    if let Some(e) = &mut s.selection {
        walk_expr(e, f);
    }
    for e in &mut s.group_by {
        walk_expr(e, f);
    }
    if let Some(e) = &mut s.having {
        walk_expr(e, f);
    }
}

fn walk_table(t: &mut TableRef, f: &mut impl FnMut(&mut Literal)) {
    match t {
        TableRef::Table { .. } => {}
        TableRef::Function { args, .. } => {
            for a in args {
                walk_expr(a, f);
            }
        }
        TableRef::Derived { subquery, .. } => walk_query(subquery, f),
        TableRef::Join {
            left,
            right,
            constraint,
            ..
        } => {
            walk_table(left, f);
            walk_table(right, f);
            if let Some(c) = constraint {
                walk_expr(c, f);
            }
        }
    }
}

fn walk_expr(e: &mut Expr, f: &mut impl FnMut(&mut Literal)) {
    match e {
        Expr::Literal(lit) => f(lit),
        Expr::Binary { left, right, .. } => {
            walk_expr(left, f);
            walk_expr(right, f);
        }
        Expr::Unary { expr, .. } => walk_expr(expr, f),
        Expr::Function { args, .. } => {
            for a in args {
                walk_expr(a, f);
            }
        }
        Expr::IsNull { expr, .. } => walk_expr(expr, f),
        Expr::InList { expr, list, .. } => {
            walk_expr(expr, f);
            for x in list {
                walk_expr(x, f);
            }
        }
        Expr::InSubquery { expr, subquery, .. } => {
            walk_expr(expr, f);
            walk_query(subquery, f);
        }
        Expr::Between {
            expr, low, high, ..
        } => {
            walk_expr(expr, f);
            walk_expr(low, f);
            walk_expr(high, f);
        }
        Expr::Like { expr, pattern, .. } => {
            walk_expr(expr, f);
            walk_expr(pattern, f);
        }
        Expr::Nested(inner) => walk_expr(inner, f),
        Expr::Subquery(q) => walk_query(q, f),
        Expr::Exists { subquery, .. } => walk_query(subquery, f),
        Expr::Case {
            operand,
            branches,
            else_result,
        } => {
            if let Some(op) = operand {
                walk_expr(op, f);
            }
            for (when, then) in branches {
                walk_expr(when, f);
                walk_expr(then, f);
            }
            if let Some(e) = else_result {
                walk_expr(e, f);
            }
        }
        Expr::Cast { expr, .. } => walk_expr(expr, f),
        Expr::Column(_) | Expr::Variable(_) | Expr::Wildcard => {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The strong equivalence check: rendered text, not `PartialEq` — Ident
    /// equality is case-insensitive, so only rendering catches a template
    /// that leaked another statement's identifier spelling.
    fn assert_batched_matches_direct(cache: &QueryCache, sql: &str) {
        let rec = Recorder::disabled();
        let batched = cache.query(sql, &rec);
        let direct = parse_select(sql);
        match (&batched, &direct) {
            (Some(b), Some(d)) => {
                assert_eq!(b.to_string(), d.to_string(), "render mismatch for {sql}");
                assert_eq!(b, d, "AST mismatch for {sql}");
            }
            (None, None) => {}
            _ => panic!("batched={batched:?} direct={direct:?} for {sql}"),
        }
    }

    #[test]
    fn repeated_shapes_reproduce_the_direct_parse() {
        let cache = QueryCache::default();
        for sql in [
            "SELECT name FROM Employee WHERE empId = 8",
            "SELECT name FROM Employee WHERE empId = 12345",
            "SELECT name FROM Employee WHERE empId = 0x1AF",
            "SELECT name FROM Employee WHERE empId = 1.5e-3",
            "SELECT description FROM DBObjects WHERE name = 'Galaxy'",
            "SELECT description FROM DBObjects WHERE name = 'it''s'",
            "SELECT description FROM DBObjects WHERE name = 'a''''b'",
            "SELECT TOP 10 ra, dec FROM photoprimary WHERE objid = 42 ORDER BY ra",
            "SELECT TOP 99 ra, dec FROM photoprimary WHERE objid = 43 ORDER BY ra",
            "SELECT a FROM t WHERE x BETWEEN 1 AND 2 AND s LIKE 'p%'",
            "SELECT a FROM t WHERE x BETWEEN 30 AND 44 AND s LIKE 'q%'",
            "SELECT a FROM (SELECT b FROM u WHERE c = 7) d WHERE e IN (1, 2, 3)",
            "SELECT a FROM (SELECT b FROM u WHERE c = 9) d WHERE e IN (4, 5, 6)",
            "SELECT count(*) FROM t GROUP BY g HAVING count(*) > 5",
            "SELECT str(p.ra, 10, 4) FROM photoprimary p WHERE p.objid = 1",
            "SELECT x FROM t WHERE EXISTS (SELECT 1 FROM u WHERE u.id = t.id)",
            "SELECT CASE WHEN x = 1 THEN 'one' ELSE 'other' END FROM t",
            "SELECT x FROM a INNER JOIN b ON a.id = b.id WHERE a.v = 3",
            "SELECT x FROM t WHERE y IN (SELECT z FROM u WHERE w = 11)",
            "SELECT a FROM t WHERE x = 1 UNION SELECT a FROM t WHERE x = 2",
        ] {
            assert_batched_matches_direct(&cache, sql);
        }
    }

    #[test]
    fn identifier_spelling_is_not_shared_across_statements() {
        // Same tokens modulo case → same RawKey, but masked keys differ, so
        // each spelling renders with its own identifiers.
        let cache = QueryCache::default();
        assert_batched_matches_direct(&cache, "SELECT Name FROM Employee WHERE EmpId = 8");
        assert_batched_matches_direct(&cache, "select name from employee where empid = 9");
    }

    #[test]
    fn duplicate_literal_representatives_degrade_soundly() {
        // "1, 1" cannot be certified (ambiguous slot order); the shape must
        // still answer correctly for "2, 3".
        let cache = QueryCache::default();
        assert_batched_matches_direct(&cache, "SELECT a FROM t WHERE x = 1 AND y = 1");
        assert_batched_matches_direct(&cache, "SELECT a FROM t WHERE x = 2 AND y = 3");
    }

    #[test]
    fn literals_outside_the_walker_degrade_soundly() {
        // The CAST type's "32" is a scanned span but lives in `ty: String`,
        // not a literal slot — certification must reject the shape.
        let cache = QueryCache::default();
        assert_batched_matches_direct(&cache, "SELECT CAST(x AS varchar(32)) FROM t WHERE y = 1");
        assert_batched_matches_direct(&cache, "SELECT CAST(x AS varchar(32)) FROM t WHERE y = 2");
    }

    #[test]
    fn unkeyable_and_non_select_statements_pass_through() {
        let cache = QueryCache::default();
        let rec = Recorder::disabled();
        assert!(cache.query("SELECT 'oops", &rec).is_none());
        assert!(cache.query("DELETE FROM t WHERE x = 1", &rec).is_none());
        assert!(cache.query("DELETE FROM t WHERE x = 2", &rec).is_none());
    }

    #[test]
    fn certified_templates_are_counted_once_per_shape() {
        let cache = QueryCache::default();
        let rec = Recorder::new();
        for v in 0..5 {
            cache
                .query(&format!("SELECT a FROM t WHERE x = {v}"), &rec)
                .unwrap();
        }
        cache
            .query("SELECT b FROM other WHERE y = 'z'", &rec)
            .unwrap();
        assert_eq!(rec.counters().get("solve.batched_templates"), Some(&2));
    }

    #[test]
    fn generated_log_selects_match_the_direct_parse() {
        // The batch cache is the solver's only parse path; the direct parse
        // stays its reference on a whole generated workload.
        let log = sqlog_gen::generate(&sqlog_gen::GenConfig::with_scale(4_000, 4242));
        let cache = QueryCache::default();
        let mut selects = 0usize;
        for e in &log.entries {
            if parse_select(&e.statement).is_some() {
                selects += 1;
                assert_batched_matches_direct(&cache, &e.statement);
            }
        }
        assert!(selects > 3_000, "only {selects} SELECTs generated");
    }

    #[test]
    fn number_and_string_kinds_never_cross_shapes() {
        let cache = QueryCache::default();
        assert_batched_matches_direct(&cache, "SELECT a FROM t WHERE x = 1");
        assert_batched_matches_direct(&cache, "SELECT a FROM t WHERE x = '1'");
    }
}
