//! Template-aware parse cache: skip re-parsing repeated query shapes.
//!
//! Real query logs are dominated by a small set of query *shapes* — the
//! SkyServer log's millions of rows come from a few thousand web-form
//! templates that differ only in literals. The parse stage therefore spends
//! most of its time re-deriving facts it has already derived: the template,
//! the output columns, the primary table, and the literal-independent parts
//! of the predicate profile are identical for every statement of a shape.
//!
//! Each parse worker owns a [`ShapeCache`] mapping a statement's
//! [`RawKey`] — an allocation-free, literal-normalized hash of its raw
//! bytes (see [`sqlog_skeleton::rawkey`]) — to the parse outcome of the
//! first statement seen with that key. On a hit, the record reuses the
//! cached template and facts entry, and its literals are appended to the
//! worker's arena by slicing the recorded literal spans out of the new
//! statement's text — no lexing, no parsing, no skeleton rendering, and no
//! allocation of its own.
//!
//! # Soundness
//!
//! Equal raw keys guarantee equal token streams *modulo literal text*, so
//! the template, output columns and primary table carry over directly.
//! Which profile slots are literal-dependent is discovered by a one-time
//! **sentinel probe** per shape: the first statement's literals are
//! replaced by unique sentinel values, the probe is fully parsed, and the
//! slots where the sentinels surface become the substitution recipe, one
//! step per Number/String slot in the records' slot order. The probe must
//! reproduce the cached template fingerprint, output columns, primary table
//! and conjunct shapes exactly — any deviation (e.g. a literal that leaks
//! into the skeleton, like a `CAST(x AS varchar(12))` type size) marks the
//! shape [`CacheEntry::Uncacheable`] and every statement of that shape
//! falls back to a full parse. As a final guard the recipe is replayed
//! against the first statement itself and must reproduce its own literals
//! byte-for-byte.
//!
//! Statements the scanner cannot key (unterminated constructs), oversized
//! statements, and uncacheable shapes all take the fallback path, so the
//! cache can only ever *skip* work, never change an outcome. Debug builds
//! additionally cross-check the first `CROSSCHECK_HITS` (64) hits per
//! worker against a full parse.

use crate::parse_step::{parse_one, Outcome};
use crate::records::{index_u32, Literals, ParsedRecord, ShardRecords};
use crate::store::{TemplateId, TemplateStore};
use sqlog_skeleton::{
    primary_table, raw_shape_scan, Fingerprint, FnvHashMap, OutputColumns, PredicateKind,
    PredicateProfile, QueryTemplate, RawKey, RawLiteral, RawLiteralKind, ValueKind,
};
use sqlog_sql::{parse_statements_with, ParseLimits, Statement, StatementKind};

/// One Number/String slot of a cached shape: on a hit, the record's next
/// literal is the text of the new statement's `lit`-th scanned literal.
/// A recipe holds one per slot, in slot order.
#[derive(Debug, Clone, Copy)]
struct Subst {
    /// Index into the statement's scanned literals (statement order).
    lit: u32,
    /// The profile folds a leading unary minus into the number text
    /// (`- 5` → `Number("-5")`); the scan records only the digits.
    negate: bool,
    /// String slot (needs `''` unescaping) vs number slot.
    is_string: bool,
}

/// What the cache knows about the SELECT shape behind one raw key.
#[derive(Debug, Clone)]
struct SelectEntry {
    template: TemplateId,
    fingerprint: Fingerprint,
    /// The worker's facts entry for the shape's first statement.
    facts: u32,
    /// Entry index of the first statement seen with this key, used to
    /// build the sentinel probe lazily on the first hit.
    first_idx: u32,
    /// Index of the first statement's first literal in the worker's arena.
    first_lits: u32,
    /// Substitution recipe; `None` until the first hit builds it.
    substs: Option<Vec<Subst>>,
}

/// What the cache knows about one raw shape key.
#[derive(Debug, Clone)]
enum CacheEntry {
    /// The shape's first statement was a non-SELECT; the leading keyword is
    /// shape-determined, so every statement of the shape shares the kind.
    NonSelect(StatementKind),
    /// The shape fails to parse. Grammar and resource-limit errors are both
    /// shape-determined (literal text never changes token *kinds* or
    /// counts; oversized statements bypass the cache before lookup).
    Error {
        /// Rejected by a resource guard rather than a grammar error.
        limit: bool,
    },
    /// The sentinel probe could not certify a substitution recipe — fall
    /// back to a full parse for every statement of this shape.
    Uncacheable,
    /// A cacheable SELECT shape.
    Select(Box<SelectEntry>),
}

/// Cache hits per worker that debug builds cross-check against a full
/// parse (panicking on divergence).
#[cfg(debug_assertions)]
const CROSSCHECK_HITS: u64 = 64;

/// Per-worker shape cache plus its effectiveness tally.
///
/// Workers own their cache (like the fingerprint→id memo) so the hot path
/// takes no locks; the per-shard tallies are summed after the join.
#[derive(Debug, Default)]
pub(crate) struct ShapeCache {
    map: FnvHashMap<RawKey, CacheEntry>,
    /// Scratch literal-span buffer, reused across statements.
    scratch: Vec<RawLiteral>,
    /// Statements served from the cache.
    pub hits: u64,
    /// Statements that populated a new entry (full parse).
    pub misses: u64,
    /// Statements that bypassed the cache: unkeyable, oversized, or an
    /// uncacheable shape (full parse).
    pub fallbacks: u64,
    /// Cache hits that were cross-checked against a full parse.
    pub crosschecks: u64,
}

impl ShapeCache {
    /// Approximate bytes held by this worker's cache: the hash-map index
    /// at capacity, the boxed SELECT entries with their recipes, and the
    /// literal scratch buffer. The facts and literals the entries point at
    /// belong to the worker's records. Memory accounting only — not an
    /// allocator-exact figure.
    pub(crate) fn approx_bytes(&self) -> usize {
        use std::mem::size_of;
        let mut bytes = self.map.capacity() * (size_of::<RawKey>() + size_of::<CacheEntry>());
        for e in self.map.values() {
            if let CacheEntry::Select(s) = e {
                bytes += size_of::<SelectEntry>();
                bytes += s
                    .substs
                    .as_ref()
                    .map_or(0, |v| v.capacity() * size_of::<Subst>());
            }
        }
        bytes + self.scratch.capacity() * size_of::<RawLiteral>()
    }

    /// Parses one statement through the cache; a SELECT becomes a record
    /// of `out`. `statement_of` resolves an entry index back to its text
    /// (for the lazy sentinel probe).
    pub(crate) fn parse_one_cached<'v>(
        &mut self,
        out: &mut ShardRecords,
        store: &TemplateStore,
        limits: &ParseLimits,
        entry_idx: u32,
        sql: &str,
        statement_of: &dyn Fn(u32) -> &'v str,
    ) -> Outcome {
        // Oversized statements must be rejected by the real parser so the
        // limit counters agree with the uncached path.
        if sql.len() > limits.max_statement_bytes {
            self.fallbacks += 1;
            return parse_one(out, store, limits, entry_idx, sql);
        }
        self.scratch.clear();
        let mut lits = std::mem::take(&mut self.scratch);
        let Some(key) = raw_shape_scan(sql, &mut lits) else {
            self.scratch = lits;
            self.fallbacks += 1;
            return parse_one(out, store, limits, entry_idx, sql);
        };

        let outcome = match self.map.get_mut(&key) {
            None => {
                self.misses += 1;
                let outcome = parse_one(out, store, limits, entry_idx, sql);
                let entry = match &outcome {
                    Outcome::Select(rec) => CacheEntry::Select(Box::new(SelectEntry {
                        template: rec.template,
                        fingerprint: store.with(rec.template, |t| t.fingerprint),
                        facts: rec.facts,
                        first_idx: entry_idx,
                        first_lits: rec.lits,
                        substs: None,
                    })),
                    Outcome::NonSelect(kind) => CacheEntry::NonSelect(*kind),
                    Outcome::Error { limit } => CacheEntry::Error { limit: *limit },
                    Outcome::Poison => CacheEntry::Uncacheable,
                };
                self.map.insert(key, entry);
                outcome
            }
            Some(CacheEntry::NonSelect(kind)) => {
                self.hits += 1;
                Outcome::NonSelect(*kind)
            }
            Some(CacheEntry::Error { limit }) => {
                self.hits += 1;
                Outcome::Error { limit: *limit }
            }
            Some(CacheEntry::Uncacheable) => {
                self.fallbacks += 1;
                parse_one(out, store, limits, entry_idx, sql)
            }
            Some(CacheEntry::Select(entry)) => {
                // Build the recipe lazily on the first hit; a failed build
                // leaves `substs` as `None` and demotes the shape below.
                if entry.substs.is_none() {
                    entry.substs = build_recipe(entry, out, limits, statement_of(entry.first_idx));
                }
                let first = out.lits.len();
                let filled = entry
                    .substs
                    .as_deref()
                    .and_then(|substs| push_literals(&mut out.lits, substs, sql, &lits));
                match filled {
                    Some(()) => {
                        let rec = ParsedRecord {
                            entry_idx,
                            template: entry.template,
                            facts: entry.facts,
                            lits: index_u32(first),
                        };
                        self.hits += 1;
                        #[cfg(debug_assertions)]
                        if self.crosschecks < CROSSCHECK_HITS {
                            self.crosschecks += 1;
                            crosscheck(out, &rec, store, limits, sql);
                        }
                        Outcome::Select(rec)
                    }
                    None => {
                        // Recipe build or span decode failed — demote the
                        // shape rather than trust it.
                        out.lits.truncate(first);
                        self.map.insert(key, CacheEntry::Uncacheable);
                        self.fallbacks += 1;
                        parse_one(out, store, limits, entry_idx, sql)
                    }
                }
            }
        };
        self.scratch = lits;
        outcome
    }
}

/// Debug builds: a cache hit must equal a full parse of its statement —
/// same template, equal facts, equal literals.
#[cfg(debug_assertions)]
fn crosscheck(
    out: &ShardRecords,
    rec: &ParsedRecord,
    store: &TemplateStore,
    limits: &ParseLimits,
    sql: &str,
) {
    let entry_idx = rec.entry_idx;
    let mut fresh_out = ShardRecords::default();
    match parse_one(&mut fresh_out, store, limits, entry_idx, sql) {
        Outcome::Select(fresh) => {
            assert_eq!(
                (
                    fresh.template,
                    &fresh_out.facts[fresh.facts as usize],
                    fresh_out.literals(&fresh)
                ),
                (
                    rec.template,
                    &out.facts[rec.facts as usize],
                    out.literals(rec)
                ),
                "parse-cache cross-check mismatch at entry {entry_idx}",
            );
        }
        _ => panic!(
            "parse-cache cross-check: cached SELECT but full parse produced a different \
             outcome at entry {entry_idx}"
        ),
    }
}

/// Prefix of a sentinel number; with literal `k` zero-padded to nine digits
/// it makes 12 decimal digits, distinct per slot.
const SENT_NUM: &str = "987";
/// Prefix of a sentinel string-literal body; followed by `k`, with no quotes,
/// so it needs no escaping inside the probe text.
const SENT_STR: &str = "sqlog.sentinel.";

/// Builds the substitution recipe for a cached SELECT shape, or `None`
/// when the shape cannot be certified (then it becomes uncacheable).
fn build_recipe(
    entry: &SelectEntry,
    out: &ShardRecords,
    limits: &ParseLimits,
    first_sql: &str,
) -> Option<Vec<Subst>> {
    let facts = &out.facts[entry.facts as usize];
    let mut a_lits = Vec::new();
    raw_shape_scan(first_sql, &mut a_lits)?;

    // Splice a unique sentinel into each literal span. If a literal's own
    // text *equals* its sentinel the probe could not tell the slot apart
    // from a constant — give up (vanishingly rare by construction).
    let mut probe = String::with_capacity(first_sql.len() + a_lits.len() * 20);
    let mut sentinels = Vec::with_capacity(a_lits.len());
    let mut pos = 0usize;
    for (k, lit) in a_lits.iter().enumerate() {
        let s = match lit.kind {
            RawLiteralKind::Number => format!("{SENT_NUM}{k:09}"),
            RawLiteralKind::String { .. } => format!("{SENT_STR}{k}"),
        };
        if lit.text(first_sql)? == s {
            return None;
        }
        probe.push_str(first_sql.get(pos..lit.start as usize)?);
        probe.push_str(&s);
        sentinels.push(s);
        pos = lit.end as usize;
    }
    probe.push_str(first_sql.get(pos..)?);

    // The sentinels may make the probe longer than the original; size the
    // byte guard to the probe so the probe itself is never rejected.
    let probe_limits = ParseLimits {
        max_statement_bytes: limits.max_statement_bytes.max(probe.len()),
        ..*limits
    };
    let stmts = parse_statements_with(&probe, &probe_limits).ok()?;
    let q = stmts.iter().find_map(Statement::as_select)?;

    // The probe must be shape-identical to the cached statement; a literal
    // that leaks into any of these facts makes the shape uncacheable.
    if QueryTemplate::of_query(q).fingerprint != entry.fingerprint
        || OutputColumns::of_select(&q.body) != facts.output
        || primary_table(&q.body) != facts.primary_table
    {
        return None;
    }
    let probe_profile = PredicateProfile::of_select(&q.body);
    if probe_profile.conjuncts.len() != facts.profile.conjuncts.len() {
        return None;
    }
    let mut substs = Vec::new();
    for (a, p) in facts.profile.conjuncts.iter().zip(&probe_profile.conjuncts) {
        zip_conjunct(a, p, &sentinels, &mut substs)?;
    }
    // Every literal slot of the records must come from the statement.
    if substs.len() != facts.literals as usize {
        return None;
    }

    // Replaying the recipe over the first statement itself must reproduce
    // its own literals exactly — this catches any span misalignment before
    // the recipe is ever applied to another statement.
    let mut replay = Literals::default();
    push_literals(&mut replay, &substs, first_sql, &a_lits)?;
    let first = entry.first_lits as usize;
    if (0..substs.len()).any(|k| replay.get(k) != out.lits.get(first + k)) {
        return None;
    }
    Some(substs)
}

/// Aligns one cached conjunct against its probe counterpart: the shapes
/// must match exactly, and every slot where a sentinel surfaced becomes a
/// substitution.
fn zip_conjunct(
    a: &PredicateKind,
    p: &PredicateKind,
    sentinels: &[String],
    out: &mut Vec<Subst>,
) -> Option<()> {
    use PredicateKind as P;
    match (a, p) {
        (
            P::Comparison {
                column: ca,
                theta: ta,
                value: va,
            },
            P::Comparison {
                column: cp,
                theta: tp,
                value: vp,
            },
        ) if ca == cp && ta == tp => zip_value(va, vp, sentinels, out),
        (
            P::Between {
                column: ca,
                low: la,
                high: ha,
                negated: na,
            },
            P::Between {
                column: cp,
                low: lp,
                high: hp,
                negated: np,
            },
        ) if ca == cp && na == np => {
            zip_value(la, lp, sentinels, out)?;
            zip_value(ha, hp, sentinels, out)
        }
        (
            P::InList {
                column: ca,
                values: va,
                negated: na,
            },
            P::InList {
                column: cp,
                values: vp,
                negated: np,
            },
        ) if ca == cp && na == np && va.len() == vp.len() => {
            for (x, y) in va.iter().zip(vp) {
                zip_value(x, y, sentinels, out)?;
            }
            Some(())
        }
        (
            P::IsNull {
                column: ca,
                negated: na,
            },
            P::IsNull {
                column: cp,
                negated: np,
            },
        ) if ca == cp && na == np => Some(()),
        (
            P::Like {
                column: ca,
                pattern: pa,
                negated: na,
            },
            P::Like {
                column: cp,
                pattern: pp,
                negated: np,
            },
        ) if ca == cp && na == np => zip_value(pa, pp, sentinels, out),
        (P::Other, P::Other) => Some(()),
        _ => None,
    }
}

/// Aligns one value slot. A sentinel in the probe means the slot is
/// literal-dependent (and the cached side must hold the matching literal
/// kind); anything else must be byte-identical between probe and cache.
fn zip_value(
    a: &ValueKind,
    p: &ValueKind,
    sentinels: &[String],
    out: &mut Vec<Subst>,
) -> Option<()> {
    match p {
        ValueKind::Number(n) => {
            let (negate, body) = match n.strip_prefix('-') {
                Some(rest) => (true, rest),
                None => (false, n.as_str()),
            };
            if let Some(k) = find_sentinel(body, RawLiteralKind::Number, sentinels) {
                return match a {
                    ValueKind::Number(_) => {
                        out.push(Subst {
                            lit: k as u32,
                            negate,
                            is_string: false,
                        });
                        Some(())
                    }
                    _ => None,
                };
            }
            (a == p).then_some(())
        }
        ValueKind::String(s) => {
            if let Some(k) =
                find_sentinel(s, RawLiteralKind::String { has_escape: false }, sentinels)
            {
                return match a {
                    ValueKind::String(_) => {
                        out.push(Subst {
                            lit: k as u32,
                            negate: false,
                            is_string: true,
                        });
                        Some(())
                    }
                    _ => None,
                };
            }
            (a == p).then_some(())
        }
        _ => (a == p).then_some(()),
    }
}

/// Finds the literal index whose sentinel text (of the right kind) equals
/// `text`. Each sentinel spells out its own index, so the index is read
/// back from `text` and checked against that one sentinel: O(1) per slot,
/// which keeps a recipe build linear in the literal count (long `IN` lists).
/// Neither prefix matches the other kind's sentinels, so equal text also
/// means equal kind.
fn find_sentinel(text: &str, kind: RawLiteralKind, sentinels: &[String]) -> Option<usize> {
    let prefix = match kind {
        RawLiteralKind::Number => SENT_NUM,
        RawLiteralKind::String { .. } => SENT_STR,
    };
    let k: usize = text.strip_prefix(prefix)?.parse().ok()?;
    (sentinels.get(k)? == text).then_some(k)
}

/// Applies a substitution recipe: appends the text of each slot's literal
/// of `sql` to `arena`, in slot order. `None` when a span does not fit its
/// slot; the arena then holds a partial record the caller truncates.
fn push_literals(
    arena: &mut Literals,
    substs: &[Subst],
    sql: &str,
    lits: &[RawLiteral],
) -> Option<()> {
    for s in substs {
        let lit = lits.get(s.lit as usize)?;
        arena.push_with(|text| match (lit.kind, s.is_string) {
            (RawLiteralKind::String { .. }, true) => lit.push_value(sql, text),
            (RawLiteralKind::Number, false) => {
                // The profile folds a leading unary minus into the number.
                if s.negate {
                    text.push('-');
                }
                lit.push_value(sql, text)
            }
            _ => None,
        })?;
    }
    Some(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::records::TemplateFacts;

    fn cached_parse(
        statements: &[&str],
    ) -> (Vec<Outcome>, ShapeCache, ShardRecords, TemplateStore) {
        let store = TemplateStore::new();
        let mut out = ShardRecords::default();
        let mut cache = ShapeCache::default();
        let limits = ParseLimits::default();
        let outcomes = statements
            .iter()
            .enumerate()
            .map(|(i, sql)| {
                cache.parse_one_cached(&mut out, &store, &limits, i as u32, sql, &|j| {
                    statements[j as usize]
                })
            })
            .collect();
        (outcomes, cache, out, store)
    }

    fn full_parse(statements: &[&str]) -> (Vec<Outcome>, ShardRecords, TemplateStore) {
        let store = TemplateStore::new();
        let mut out = ShardRecords::default();
        let limits = ParseLimits::default();
        let outcomes = statements
            .iter()
            .enumerate()
            .map(|(i, sql)| parse_one(&mut out, &store, &limits, i as u32, sql))
            .collect();
        (outcomes, out, store)
    }

    /// Each SELECT's entry index, template, facts and literals.
    fn records<'a>(
        outcomes: &[Outcome],
        out: &'a ShardRecords,
    ) -> Vec<(u32, TemplateId, &'a TemplateFacts, Vec<&'a str>)> {
        outcomes
            .iter()
            .filter_map(|o| match o {
                Outcome::Select(r) => Some((
                    r.entry_idx,
                    r.template,
                    &out.facts[r.facts as usize],
                    (0..out.facts[r.facts as usize].literals as usize)
                        .map(|k| out.lits.get(r.lits as usize + k))
                        .collect(),
                )),
                _ => None,
            })
            .collect()
    }

    fn assert_equivalent(statements: &[&str]) -> ShapeCache {
        let (cached, cache, cached_out, _store_c) = cached_parse(statements);
        let (full, full_out, _store_f) = full_parse(statements);
        assert_eq!(records(&cached, &cached_out), records(&full, &full_out));
        cache
    }

    #[test]
    fn hits_reproduce_full_parse_facts() {
        // The negated statements are their own shape (the `-` is a real
        // token), exercising the negate-fold substitution path.
        let cache = assert_equivalent(&[
            "SELECT name FROM Employee WHERE empId = 8",
            "SELECT name FROM Employee WHERE empId = 9",
            "select NAME from employee where EMPID=10 -- same shape",
            "SELECT name FROM Employee WHERE empId = -3",
            "SELECT name FROM Employee WHERE empId = -77",
        ]);
        assert_eq!(cache.misses, 2);
        assert_eq!(cache.hits, 3);
        assert_eq!(cache.fallbacks, 0);
        #[cfg(debug_assertions)]
        assert_eq!(cache.crosschecks, 3);
    }

    #[test]
    fn string_literals_with_escapes_rebuild() {
        assert_equivalent(&[
            "SELECT a FROM t WHERE s = 'plain' AND r BETWEEN 1 AND 2",
            "SELECT a FROM t WHERE s = 'it''s' AND r BETWEEN 3 AND 4.5",
            "SELECT a FROM t WHERE s = '' AND r BETWEEN -1 AND 1e9",
        ]);
    }

    #[test]
    fn in_list_and_like_slots_rebuild() {
        let cache = assert_equivalent(&[
            "SELECT a FROM t WHERE id IN (1, 2, 3) AND s LIKE 'x%'",
            "SELECT a FROM t WHERE id IN (7, 8, 9) AND s LIKE 'y_z%'",
        ]);
        assert_eq!(cache.hits, 1);
    }

    #[test]
    fn cast_type_size_is_uncacheable_not_wrong() {
        // The skeleton renders the CAST target type verbatim, so the
        // literal inside `varchar(12)` leaks into the template: the probe
        // must refuse to certify the shape and both statements full-parse.
        let stmts = [
            "SELECT CAST(x AS varchar(12)) FROM t WHERE y = 1",
            "SELECT CAST(x AS varchar(99)) FROM t WHERE y = 2",
        ];
        let (cached, cache, cached_out, store) = cached_parse(&stmts);
        let (full, full_out, store_f) = full_parse(&stmts);
        assert_eq!(records(&cached, &cached_out), records(&full, &full_out));
        // Distinct templates must stay distinct.
        assert_eq!(store.len(), store_f.len());
        assert_eq!(cache.hits, 0);
        assert!(cache.fallbacks >= 1);
    }

    #[test]
    fn errors_and_non_selects_are_cached() {
        let (outcomes, cache, _, _) = cached_parse(&[
            "INSERT INTO t VALUES (1)",
            "INSERT INTO t VALUES (2)",
            "SELECT b FROM",
            "SELECT b FROM",
        ]);
        assert!(matches!(outcomes[1], Outcome::NonSelect(_)));
        assert!(matches!(outcomes[3], Outcome::Error { .. }));
        assert_eq!(cache.hits, 2);
        assert_eq!(cache.misses, 2);
    }

    #[test]
    fn unkeyable_statements_fall_back() {
        let (outcomes, cache, _, _) = cached_parse(&[
            "SELECT a FROM t WHERE s = 'unterminated",
            "SELECT a FROM t WHERE s = 'unterminated",
        ]);
        assert!(matches!(outcomes[0], Outcome::Error { .. }));
        assert_eq!(cache.fallbacks, 2);
        assert_eq!(cache.hits + cache.misses, 0);
    }

    #[test]
    fn differing_shapes_do_not_collide() {
        let (_, cache, _, store) = cached_parse(&[
            "SELECT a FROM t WHERE x = 1",
            "SELECT a FROM t WHERE x > 1",
            "SELECT a FROM t WHERE x = 1 AND y = 2",
            "SELECT b FROM t WHERE x = 1",
        ]);
        assert_eq!(cache.misses, 4);
        assert_eq!(cache.hits, 0);
        assert_eq!(store.len(), 4);
    }

    #[test]
    fn variables_and_null_comparisons_carry_over() {
        assert_equivalent(&[
            "SELECT a FROM t WHERE objid = @id AND b = NULL",
            "SELECT a FROM t WHERE OBJID = @ID AND b = NULL",
        ]);
    }

    #[test]
    fn recipe_build_is_linear_in_the_literal_count() {
        // Two statements of one shape with 80 000-value IN lists (~640 KB,
        // inside the parser's byte and token limits). Matching every
        // profile slot against every sentinel is quadratic: ~2.4 s in a
        // release build at 40 000 values (against ~16 ms for the miss), and
        // four times that here, far over the bound.
        let in_list = |base: u64| {
            let values: Vec<String> = (base..base + 80_000).map(|v| v.to_string()).collect();
            format!(
                "SELECT ra FROM photoprimary WHERE objid IN ({})",
                values.join(", ")
            )
        };
        let stmts = [in_list(100_000), in_list(200_000)];
        let store = TemplateStore::new();
        let mut out = ShardRecords::default();
        let mut cache = ShapeCache::default();
        let limits = ParseLimits::default();
        let statement_of = |j: u32| stmts[j as usize].as_str();
        let miss = cache.parse_one_cached(&mut out, &store, &limits, 0, &stmts[0], &statement_of);
        let start = std::time::Instant::now();
        let hit = cache.parse_one_cached(&mut out, &store, &limits, 1, &stmts[1], &statement_of);
        let elapsed = start.elapsed();
        assert!(matches!(miss, Outcome::Select(_)));
        assert!(matches!(hit, Outcome::Select(_)));
        assert_eq!((cache.misses, cache.hits), (1, 1));
        assert!(
            elapsed < std::time::Duration::from_secs(3),
            "first hit of an 80 000-value IN-list shape took {elapsed:?}"
        );
    }
}
