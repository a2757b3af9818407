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
//! first statement seen with that key. On a hit, the cached facts are
//! reused and only the literal-*dependent* slots of the predicate profile
//! are re-extracted by slicing the recorded literal spans out of the new
//! statement's text — no lexing, no parsing, no skeleton rendering.
//!
//! # Soundness
//!
//! Equal raw keys guarantee equal token streams *modulo literal text*, so
//! the template, output columns and primary table carry over directly.
//! Which profile slots are literal-dependent is discovered by a one-time
//! **sentinel probe** per shape: the first statement's literals are
//! replaced by unique sentinel values, the probe is fully parsed, and the
//! slots where the sentinels surface become the substitution recipe. The
//! probe must reproduce the cached template fingerprint, output columns,
//! primary table and conjunct shapes exactly — any deviation (e.g. a
//! literal that leaks into the skeleton, like a `CAST(x AS varchar(12))`
//! type size) marks the shape [`CacheEntry::Uncacheable`] and every
//! statement of that shape falls back to a full parse. As a final guard
//! the recipe is replayed against the first statement itself and must
//! reproduce its own profile byte-for-byte.
//!
//! Statements the scanner cannot key (unterminated constructs), oversized
//! statements, and uncacheable shapes all take the fallback path, so the
//! cache can only ever *skip* work, never change an outcome. Debug builds
//! additionally cross-check the first `CROSSCHECK_HITS` (64) hits per
//! worker against a full parse.

use crate::parse_step::{parse_one, Outcome, ParsedRecord};
use crate::store::{TemplateId, TemplateStore};
use sqlog_skeleton::{
    primary_table, raw_shape_scan, Fingerprint, FnvHashMap, OutputColumns, PredicateKind,
    PredicateProfile, QueryTemplate, RawKey, RawLiteral, RawLiteralKind, ValueKind,
};
use sqlog_sql::{parse_statements_with, ParseLimits, Statement, StatementKind};

/// One literal-dependent slot of a cached predicate profile: on a hit,
/// conjunct `conjunct` / slot `slot` is overwritten with the text of the
/// new statement's `lit`-th scanned literal.
#[derive(Debug, Clone, Copy)]
struct Subst {
    /// Index into `PredicateProfile::conjuncts`.
    conjunct: u32,
    /// Slot within the conjunct: comparison value / LIKE pattern = 0,
    /// BETWEEN low = 0 and high = 1, IN-list element = its index.
    slot: u32,
    /// Index into the statement's scanned literals (statement order).
    lit: u32,
    /// The profile folds a leading unary minus into the number text
    /// (`- 5` → `Number("-5")`); the scan records only the digits.
    negate: bool,
    /// String slot (needs `''` unescaping) vs number slot.
    is_string: bool,
}

/// Cached facts for the SELECT shape behind one raw key.
#[derive(Debug, Clone)]
struct SelectEntry {
    template: TemplateId,
    fingerprint: Fingerprint,
    output: OutputColumns,
    primary_table: Option<String>,
    profile: PredicateProfile,
    /// Entry index of the first statement seen with this key, used to
    /// build the sentinel probe lazily on the first hit.
    first_idx: u32,
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
    /// at capacity, the boxed SELECT entries with their heap-owned parts,
    /// and the literal scratch buffer. Memory accounting only — not an
    /// allocator-exact figure.
    pub(crate) fn approx_bytes(&self) -> usize {
        use std::mem::size_of;
        let mut bytes = self.map.capacity() * (size_of::<RawKey>() + size_of::<CacheEntry>());
        for e in self.map.values() {
            if let CacheEntry::Select(s) = e {
                bytes += size_of::<SelectEntry>();
                bytes += s.primary_table.as_deref().map_or(0, str::len);
                bytes += s.profile.conjuncts.capacity() * size_of::<PredicateKind>();
                bytes += s
                    .substs
                    .as_ref()
                    .map_or(0, |v| v.capacity() * size_of::<Subst>());
            }
        }
        bytes + self.scratch.capacity() * size_of::<RawLiteral>()
    }

    /// Parses one statement through the cache. `statement_of` resolves an
    /// entry index back to its text (for the lazy sentinel probe).
    pub(crate) fn parse_one_cached<'v>(
        &mut self,
        store: &TemplateStore,
        memo: &mut FnvHashMap<Fingerprint, TemplateId>,
        limits: &ParseLimits,
        entry_idx: u32,
        sql: &str,
        statement_of: &dyn Fn(u32) -> &'v str,
    ) -> Outcome {
        // Oversized statements must be rejected by the real parser so the
        // limit counters agree with the uncached path.
        if sql.len() > limits.max_statement_bytes {
            self.fallbacks += 1;
            return parse_one(store, memo, limits, entry_idx, sql);
        }
        self.scratch.clear();
        let mut lits = std::mem::take(&mut self.scratch);
        let Some(key) = raw_shape_scan(sql, &mut lits) else {
            self.scratch = lits;
            self.fallbacks += 1;
            return parse_one(store, memo, limits, entry_idx, sql);
        };

        let outcome = match self.map.get_mut(&key) {
            None => {
                self.misses += 1;
                let outcome = parse_one(store, memo, limits, entry_idx, sql);
                let entry = match &outcome {
                    Outcome::Select(rec) => CacheEntry::Select(Box::new(SelectEntry {
                        template: rec.template,
                        fingerprint: store.with(rec.template, |t| t.fingerprint),
                        output: rec.output.clone(),
                        primary_table: rec.primary_table.clone(),
                        profile: rec.profile.clone(),
                        first_idx: entry_idx,
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
                parse_one(store, memo, limits, entry_idx, sql)
            }
            Some(CacheEntry::Select(entry)) => {
                // Build the recipe lazily on the first hit; a failed build
                // leaves `substs` as `None` and demotes the shape below.
                if entry.substs.is_none() {
                    entry.substs = build_recipe(entry, limits, statement_of(entry.first_idx));
                }
                let rebuilt = entry
                    .substs
                    .as_deref()
                    .and_then(|substs| rebuild_profile(&entry.profile, substs, sql, &lits))
                    .map(|profile| ParsedRecord {
                        entry_idx,
                        template: entry.template,
                        profile,
                        output: entry.output.clone(),
                        primary_table: entry.primary_table.clone(),
                    });
                match rebuilt {
                    Some(rec) => {
                        self.hits += 1;
                        #[cfg(debug_assertions)]
                        if self.crosschecks < CROSSCHECK_HITS {
                            self.crosschecks += 1;
                            match parse_one(store, memo, limits, entry_idx, sql) {
                                Outcome::Select(fresh) => assert_eq!(
                                    *fresh, rec,
                                    "parse-cache cross-check mismatch at entry {entry_idx}",
                                ),
                                _ => panic!(
                                    "parse-cache cross-check: cached SELECT but full parse \
                                     produced a different outcome at entry {entry_idx}"
                                ),
                            }
                        }
                        Outcome::Select(Box::new(rec))
                    }
                    None => {
                        // Recipe build or span decode failed — demote the
                        // shape rather than trust it.
                        self.map.insert(key, CacheEntry::Uncacheable);
                        self.fallbacks += 1;
                        parse_one(store, memo, limits, entry_idx, sql)
                    }
                }
            }
        };
        self.scratch = lits;
        outcome
    }
}

/// Sentinel number for literal `k`: 12 decimal digits, distinct per slot.
fn sent_num(k: usize) -> String {
    format!("987{k:09}")
}

/// Sentinel string-literal body for literal `k`: no quotes, so it needs no
/// escaping inside the probe text.
fn sent_str(k: usize) -> String {
    format!("sqlog.sentinel.{k}")
}

/// Builds the substitution recipe for a cached SELECT shape, or `None`
/// when the shape cannot be certified (then it becomes uncacheable).
fn build_recipe(entry: &SelectEntry, limits: &ParseLimits, first_sql: &str) -> Option<Vec<Subst>> {
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
            RawLiteralKind::Number => sent_num(k),
            RawLiteralKind::String { .. } => sent_str(k),
        };
        if lit.text(first_sql)? == s {
            return None;
        }
        probe.push_str(first_sql.get(pos..lit.start as usize)?);
        probe.push_str(&s);
        sentinels.push((s, lit.kind));
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
    let q = stmts.iter().find_map(|s| match s {
        Statement::Select(q) => Some(q),
        _ => None,
    })?;

    // The probe must be shape-identical to the cached statement; a literal
    // that leaks into any of these facts makes the shape uncacheable.
    if QueryTemplate::of_query(q).fingerprint != entry.fingerprint
        || OutputColumns::of_select(&q.body) != entry.output
        || primary_table(&q.body) != entry.primary_table
    {
        return None;
    }
    let probe_profile = PredicateProfile::of_select(&q.body);
    if probe_profile.conjuncts.len() != entry.profile.conjuncts.len() {
        return None;
    }
    let mut substs = Vec::new();
    for (ci, (a, p)) in entry
        .profile
        .conjuncts
        .iter()
        .zip(&probe_profile.conjuncts)
        .enumerate()
    {
        zip_conjunct(ci as u32, a, p, &sentinels, &mut substs)?;
    }

    // Replaying the recipe over the first statement itself must reproduce
    // its own profile exactly — this catches any span misalignment before
    // the recipe is ever applied to another statement.
    if rebuild_profile(&entry.profile, &substs, first_sql, &a_lits)? != entry.profile {
        return None;
    }
    Some(substs)
}

/// Aligns one cached conjunct against its probe counterpart: the shapes
/// must match exactly, and every slot where a sentinel surfaced becomes a
/// substitution.
fn zip_conjunct(
    ci: u32,
    a: &PredicateKind,
    p: &PredicateKind,
    sentinels: &[(String, RawLiteralKind)],
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
        ) if ca == cp && ta == tp => zip_value(ci, 0, va, vp, sentinels, out),
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
            zip_value(ci, 0, la, lp, sentinels, out)?;
            zip_value(ci, 1, ha, hp, sentinels, out)
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
            for (i, (x, y)) in va.iter().zip(vp).enumerate() {
                zip_value(ci, i as u32, x, y, sentinels, out)?;
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
        ) if ca == cp && na == np => zip_value(ci, 0, pa, pp, sentinels, out),
        (P::Other, P::Other) => Some(()),
        _ => None,
    }
}

/// Aligns one value slot. A sentinel in the probe means the slot is
/// literal-dependent (and the cached side must hold the matching literal
/// kind); anything else must be byte-identical between probe and cache.
fn zip_value(
    ci: u32,
    slot: u32,
    a: &ValueKind,
    p: &ValueKind,
    sentinels: &[(String, RawLiteralKind)],
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
                            conjunct: ci,
                            slot,
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
                            conjunct: ci,
                            slot,
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
/// `text`. Linear scan; recipes are built once per shape.
fn find_sentinel(
    text: &str,
    kind: RawLiteralKind,
    sentinels: &[(String, RawLiteralKind)],
) -> Option<usize> {
    sentinels.iter().position(|(s, k)| {
        s == text
            && matches!(
                (k, kind),
                (RawLiteralKind::Number, RawLiteralKind::Number)
                    | (RawLiteralKind::String { .. }, RawLiteralKind::String { .. })
            )
    })
}

/// Applies a substitution recipe: clones `base` and overwrites each
/// literal-dependent slot with the text of `sql`'s corresponding literal.
fn rebuild_profile(
    base: &PredicateProfile,
    substs: &[Subst],
    sql: &str,
    lits: &[RawLiteral],
) -> Option<PredicateProfile> {
    let mut profile = base.clone();
    for s in substs {
        let lit = lits.get(s.lit as usize)?;
        let raw = lit.text(sql)?;
        let value = if s.is_string {
            match lit.kind {
                RawLiteralKind::String { has_escape } => ValueKind::String(if has_escape {
                    raw.replace("''", "'")
                } else {
                    raw.to_string()
                }),
                RawLiteralKind::Number => return None,
            }
        } else {
            match lit.kind {
                RawLiteralKind::Number => ValueKind::Number(if s.negate {
                    format!("-{raw}")
                } else {
                    raw.to_string()
                }),
                RawLiteralKind::String { .. } => return None,
            }
        };
        *slot_mut(&mut profile, s.conjunct, s.slot)? = value;
    }
    Some(profile)
}

/// Mutable access to the value slot `(conjunct, slot)` of a profile.
fn slot_mut(p: &mut PredicateProfile, conjunct: u32, slot: u32) -> Option<&mut ValueKind> {
    match (p.conjuncts.get_mut(conjunct as usize)?, slot) {
        (PredicateKind::Comparison { value, .. }, 0) => Some(value),
        (PredicateKind::Between { low, .. }, 0) => Some(low),
        (PredicateKind::Between { high, .. }, 1) => Some(high),
        (PredicateKind::InList { values, .. }, i) => values.get_mut(i as usize),
        (PredicateKind::Like { pattern, .. }, 0) => Some(pattern),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cached_parse(statements: &[&str]) -> (Vec<Outcome>, ShapeCache, TemplateStore) {
        let store = TemplateStore::new();
        let mut memo = FnvHashMap::default();
        let mut cache = ShapeCache::default();
        let limits = ParseLimits::default();
        let outcomes = statements
            .iter()
            .enumerate()
            .map(|(i, sql)| {
                cache.parse_one_cached(&store, &mut memo, &limits, i as u32, sql, &|j| {
                    statements[j as usize]
                })
            })
            .collect();
        (outcomes, cache, store)
    }

    fn full_parse(statements: &[&str]) -> (Vec<Outcome>, TemplateStore) {
        let store = TemplateStore::new();
        let mut memo = FnvHashMap::default();
        let limits = ParseLimits::default();
        let outcomes = statements
            .iter()
            .enumerate()
            .map(|(i, sql)| parse_one(&store, &mut memo, &limits, i as u32, sql))
            .collect();
        (outcomes, store)
    }

    fn records(outcomes: &[Outcome]) -> Vec<&ParsedRecord> {
        outcomes
            .iter()
            .filter_map(|o| match o {
                Outcome::Select(r) => Some(r.as_ref()),
                _ => None,
            })
            .collect()
    }

    fn assert_equivalent(statements: &[&str]) -> ShapeCache {
        let (cached, cache, _store_c) = cached_parse(statements);
        let (full, _store_f) = full_parse(statements);
        let (cached_recs, full_recs) = (records(&cached), records(&full));
        assert_eq!(cached_recs.len(), full_recs.len());
        for (c, f) in cached_recs.iter().zip(&full_recs) {
            assert_eq!(c, f);
        }
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
        let (cached, cache, store) = cached_parse(&stmts);
        let (full, store_f) = full_parse(&stmts);
        assert_eq!(records(&cached).len(), records(&full).len());
        // Distinct templates must stay distinct.
        assert_eq!(store.len(), store_f.len());
        assert_eq!(cache.hits, 0);
        assert!(cache.fallbacks >= 1);
    }

    #[test]
    fn errors_and_non_selects_are_cached() {
        let (outcomes, cache, _) = cached_parse(&[
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
        let (outcomes, cache, _) = cached_parse(&[
            "SELECT a FROM t WHERE s = 'unterminated",
            "SELECT a FROM t WHERE s = 'unterminated",
        ]);
        assert!(matches!(outcomes[0], Outcome::Error { .. }));
        assert_eq!(cache.fallbacks, 2);
        assert_eq!(cache.hits + cache.misses, 0);
    }

    #[test]
    fn differing_shapes_do_not_collide() {
        let (_, cache, store) = cached_parse(&[
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
}
