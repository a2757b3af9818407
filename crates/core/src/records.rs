//! The parse stage's output layout: each fact stored once.
//!
//! The detectors need, per parsed SELECT, its template, the classified
//! WHERE conjuncts (filter columns, θ, orientation, and which value slots
//! hold constants), the output columns, the primary table, and the
//! constants themselves. All of it except the constants is a function of
//! the template, so [`ParsedRecords`] stores it once per template, in a
//! table of template facts: entry `t` holds template `t`'s facts, taken
//! from its first record in log order (the rule that also canonicalizes
//! template ids). A [`ParsedRecord`] keeps only its entry index, its
//! template and where its literals start in one shared arena, which holds
//! the texts of the Number/String value slots in *slot order*: conjuncts in
//! source order, and within a conjunct the comparison value, the BETWEEN
//! low then high bound, the IN-list elements, or the LIKE pattern. That is
//! the order of the parse cache's substitution recipe, so a cache hit fills
//! a record by appending literal slices of its statement to the arena.
//!
//! A record whose facts differ from its template's points at a facts entry
//! of its own past the per-template entries, and `parse.unfactored_records`
//! counts such records. For every statement the parser accepts today the
//! skeleton determines the facts (identifiers, quoted or not, are compared
//! and rendered lower-cased), so the count is 0 on every workload measured;
//! the check keeps a future parser or profile change from silently pinning
//! one record's facts on another.
//!
//! [`RecordView`] answers the detectors' questions about one record
//! without materializing anything; [`RecordView::profile`] rebuilds the
//! full [`PredicateProfile`] when a caller wants it.

use crate::store::{TemplateId, TemplateStore};
use sqlog_skeleton::{
    primary_table, Fingerprint, FnvHashMap, OutputColumns, PredicateKind, PredicateProfile,
    QueryTemplate, Theta, ValueKind, ValueRef,
};
use sqlog_sql::ast::{Query, Select};
use std::mem::size_of;

/// The literal-independent facts of a parsed SELECT.
#[derive(Debug, Clone, Default, PartialEq, Eq, Hash)]
pub(crate) struct TemplateFacts {
    /// Classified WHERE conjuncts. Every Number/String value is blank: a
    /// slot that each record fills from its literals.
    pub(crate) profile: PredicateProfile,
    /// Output columns of the projection.
    pub(crate) output: OutputColumns,
    /// The single base table, when the FROM clause is one plain table.
    pub(crate) primary_table: Option<String>,
    /// Number of Number/String slots in `profile`.
    pub(crate) literals: u32,
}

impl TemplateFacts {
    /// Facts from their parts; Number/String values in `profile` are
    /// blanked.
    pub(crate) fn new(
        mut profile: PredicateProfile,
        output: OutputColumns,
        primary_table: Option<String>,
    ) -> Self {
        let mut literals = 0u32;
        for_each_slot(&mut profile, |v| {
            if let ValueKind::Number(t) | ValueKind::String(t) = v {
                t.clear();
                literals += 1;
            }
        });
        TemplateFacts {
            profile,
            output,
            primary_table,
            literals,
        }
    }

    /// The facts of a SELECT body; its Number/String slot texts are moved
    /// into `lits` in slot order.
    pub(crate) fn of_select(s: &Select, lits: &mut Literals) -> Self {
        let mut profile = PredicateProfile::of_select(s);
        for_each_slot(&mut profile, |v| {
            if let ValueKind::Number(t) | ValueKind::String(t) = v {
                lits.push(t);
            }
        });
        TemplateFacts::new(profile, OutputColumns::of_select(s), primary_table(s))
    }

    fn approx_bytes(&self) -> usize {
        let mut bytes = size_of::<TemplateFacts>()
            + self.profile.conjuncts.capacity() * size_of::<PredicateKind>()
            + self
                .output
                .names
                .iter()
                .map(|n| size_of::<String>() + n.len())
                .sum::<usize>()
            + self.primary_table.as_ref().map_or(0, String::len);
        for c in &self.profile.conjuncts {
            bytes += c.column().map_or(0, str::len);
            if let PredicateKind::InList { values, .. } = c {
                bytes += values.capacity() * size_of::<ValueKind>();
            }
        }
        bytes
    }
}

/// Calls `f` on every value slot of `profile`, in slot order.
fn for_each_slot(profile: &mut PredicateProfile, mut f: impl FnMut(&mut ValueKind)) {
    for c in &mut profile.conjuncts {
        match c {
            PredicateKind::Comparison { value, .. } => f(value),
            PredicateKind::Between { low, high, .. } => {
                f(low);
                f(high);
            }
            PredicateKind::InList { values, .. } => values.iter_mut().for_each(&mut f),
            PredicateKind::Like { pattern, .. } => f(pattern),
            PredicateKind::IsNull { .. } | PredicateKind::Other => {}
        }
    }
}

/// An append-only arena of literal texts.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub(crate) struct Literals {
    text: String,
    /// `ends[i]` is where literal `i` ends in `text`; it starts where
    /// literal `i - 1` ends.
    ends: Vec<usize>,
}

impl Literals {
    /// Number of literals held.
    pub(crate) fn len(&self) -> usize {
        self.ends.len()
    }

    /// Literal `i`.
    pub(crate) fn get(&self, i: usize) -> &str {
        let start = if i == 0 { 0 } else { self.ends[i - 1] };
        &self.text[start..self.ends[i]]
    }

    /// Appends one literal.
    pub(crate) fn push(&mut self, s: &str) {
        self.text.push_str(s);
        self.ends.push(self.text.len());
    }

    /// Appends one literal written by `write`; nothing when it fails.
    pub(crate) fn push_with(
        &mut self,
        write: impl FnOnce(&mut String) -> Option<()>,
    ) -> Option<()> {
        let mark = self.text.len();
        match write(&mut self.text) {
            Some(()) => {
                self.ends.push(self.text.len());
                Some(())
            }
            None => {
                self.text.truncate(mark);
                None
            }
        }
    }

    /// Drops every literal from index `n` on.
    pub(crate) fn truncate(&mut self, n: usize) {
        self.ends.truncate(n);
        self.text.truncate(self.ends.last().copied().unwrap_or(0));
    }

    /// Moves `other`'s literals to the end of this arena.
    pub(crate) fn append(&mut self, other: Literals) {
        let base = self.text.len();
        self.text.push_str(&other.text);
        self.ends.extend(other.ends.iter().map(|e| e + base));
    }

    fn approx_bytes(&self) -> usize {
        self.text.capacity() + self.ends.capacity() * size_of::<usize>()
    }
}

/// One parsed SELECT statement: where it is in the log, its template, and
/// where its facts and literals are. Read it through
/// [`ParsedRecords::view`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ParsedRecord {
    /// Index into the pre-cleaned log's entry vector.
    pub entry_idx: u32,
    /// Interned template.
    pub template: TemplateId,
    /// Index into the facts table: `template`'s own entry, or the
    /// record's own entry when its facts differ from the template's.
    pub(crate) facts: u32,
    /// Index of the record's first literal in the arena.
    pub(crate) lits: u32,
}

impl ParsedRecord {
    /// The record with its facts and literal indices moved past the
    /// entries of the workers before its own.
    pub(crate) fn shifted(self, facts_base: u32, lits_base: u32) -> Self {
        ParsedRecord {
            facts: self.facts + facts_base,
            lits: self.lits + lits_base,
            ..self
        }
    }
}

/// The parsed SELECTs of a log, in log order, with their facts stored once
/// per template (see the module documentation).
///
/// Dereferences to the slice of [`ParsedRecord`]s, so `records[i].template`
/// and `records.len()` read the rows directly; [`Self::view`] answers the
/// predicate and projection questions.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ParsedRecords {
    pub(crate) rows: Vec<ParsedRecord>,
    /// Entry `t` holds template `t`'s facts; entries past the templates
    /// belong to unfactored records.
    pub(crate) facts: Vec<TemplateFacts>,
    pub(crate) lits: Literals,
}

impl std::ops::Deref for ParsedRecords {
    type Target = [ParsedRecord];

    fn deref(&self) -> &[ParsedRecord] {
        &self.rows
    }
}

impl<'a> IntoIterator for &'a ParsedRecords {
    type Item = &'a ParsedRecord;
    type IntoIter = std::slice::Iter<'a, ParsedRecord>;

    fn into_iter(self) -> Self::IntoIter {
        self.rows.iter()
    }
}

impl ParsedRecords {
    /// The facts of record `i`.
    pub fn view(&self, i: usize) -> RecordView<'_> {
        let record = &self.rows[i];
        RecordView {
            record,
            facts: &self.facts[record.facts as usize],
            lits: &self.lits,
        }
    }

    /// Records whose facts differ from their template's and are stored
    /// with the record.
    pub fn unfactored(&self) -> usize {
        self.rows.iter().filter(|r| r.facts != r.template.0).count()
    }

    /// Approximate bytes held: rows, facts table and literal arena. Memory
    /// accounting only — not an allocator-exact figure.
    pub fn approx_bytes(&self) -> usize {
        self.rows.capacity() * size_of::<ParsedRecord>()
            + self.facts.capacity() * size_of::<TemplateFacts>()
            + self
                .facts
                .iter()
                .map(|f| f.approx_bytes() - size_of::<TemplateFacts>())
                .sum::<usize>()
            + self.lits.approx_bytes()
    }

    /// Joins the parse workers' outputs. `rows` are every worker's records
    /// in log order, with canonical template ids (`templates` of them) and
    /// `facts` indexing `candidates`, the workers' facts entries laid end to
    /// end; `lits` is their literal arenas, likewise. Each template's entry
    /// becomes the facts of its first record; a record whose facts differ
    /// gets an entry past the templates, shared by equal facts.
    pub(crate) fn join(
        mut rows: Vec<ParsedRecord>,
        mut candidates: Vec<TemplateFacts>,
        lits: Literals,
        templates: usize,
    ) -> Self {
        const UNRESOLVED: u32 = u32::MAX;
        let mut resolved = vec![UNRESOLVED; candidates.len()];
        let mut owners: Vec<Option<TemplateFacts>> = vec![None; templates];
        let mut variants: FnvHashMap<TemplateFacts, u32> = FnvHashMap::default();
        for row in &mut rows {
            let c = row.facts as usize;
            if resolved[c] == UNRESOLVED {
                let t = row.template.0;
                let candidate = std::mem::take(&mut candidates[c]);
                resolved[c] = match &owners[t as usize] {
                    None => {
                        owners[t as usize] = Some(candidate);
                        t
                    }
                    Some(owner) if *owner == candidate => t,
                    Some(_) => {
                        let next = index_u32(templates + variants.len());
                        *variants.entry(candidate).or_insert(next)
                    }
                };
            }
            row.facts = resolved[c];
        }
        let mut facts: Vec<TemplateFacts> =
            owners.into_iter().map(Option::unwrap_or_default).collect();
        let mut extra: Vec<(TemplateFacts, u32)> = variants.into_iter().collect();
        extra.sort_unstable_by_key(|(_, i)| *i);
        facts.extend(extra.into_iter().map(|(f, _)| f));
        ParsedRecords { rows, facts, lits }
    }
}

/// A `u32` index, for counts the records' fields hold.
pub(crate) fn index_u32(i: usize) -> u32 {
    u32::try_from(i).expect("parsed-record index < 2^32")
}

/// The facts of one parsed record: its row, its template's (or its own)
/// facts entry, and its literals.
#[derive(Clone, Copy)]
pub struct RecordView<'a> {
    record: &'a ParsedRecord,
    facts: &'a TemplateFacts,
    lits: &'a Literals,
}

impl<'a> RecordView<'a> {
    /// Index into the pre-cleaned log's entry vector.
    pub fn entry_idx(&self) -> u32 {
        self.record.entry_idx
    }

    /// The record's template.
    pub fn template(&self) -> TemplateId {
        self.record.template
    }

    /// The text of the record's `k`-th literal slot.
    fn literal(&self, k: usize) -> &'a str {
        self.lits.get(self.record.lits as usize + k)
    }

    /// A value slot of the facts, with its literal if it holds one.
    fn value(&self, slot: &'a ValueKind, k: usize) -> ValueRef<'a> {
        match slot {
            ValueKind::Number(_) => ValueRef::Number(self.literal(k)),
            ValueKind::String(_) => ValueRef::String(self.literal(k)),
            other => other.borrowed(),
        }
    }

    /// [`PredicateProfile::single_equality`] of the record.
    pub fn single_equality(&self) -> Option<(&'a str, ValueRef<'a>)> {
        let (column, value) = self.facts.profile.single_equality()?;
        // The one conjunct has one value slot, so its literal is the first.
        Some((column, self.value(value, 0)))
    }

    /// [`PredicateProfile::null_comparisons`] of the record.
    pub fn null_comparisons(&self) -> Vec<(usize, &'a str, Theta)> {
        self.facts.profile.null_comparisons()
    }

    /// All filter columns mentioned by classified predicates.
    pub fn columns(&self) -> impl Iterator<Item = &'a str> {
        self.facts.profile.columns()
    }

    /// Output columns of the projection.
    pub fn output(&self) -> &'a OutputColumns {
        &self.facts.output
    }

    /// The single base table, when the FROM clause is one plain table.
    pub fn primary_table(&self) -> Option<&'a str> {
        self.facts.primary_table.as_deref()
    }

    /// The record's full predicate profile, literals included — equal to
    /// [`PredicateProfile::of_select`] of its statement.
    pub fn profile(&self) -> PredicateProfile {
        let mut profile = self.facts.profile.clone();
        let mut k = 0;
        for_each_slot(&mut profile, |v| {
            if let ValueKind::Number(t) | ValueKind::String(t) = v {
                t.push_str(self.literal(k));
                k += 1;
            }
        });
        profile
    }
}

/// One parse worker's records under construction: its facts entries (at
/// least one per template it met) and its literal arena.
#[derive(Debug, Default)]
pub(crate) struct ShardRecords {
    /// Fingerprint → the template's id and this worker's first facts entry
    /// for it. The shared store's lock is taken only on a worker's first
    /// sight of a template.
    memo: FnvHashMap<Fingerprint, (TemplateId, u32)>,
    pub(crate) facts: Vec<TemplateFacts>,
    pub(crate) lits: Literals,
}

impl ShardRecords {
    /// Reduces a parsed SELECT to a record: interns its template and
    /// appends its literals.
    pub(crate) fn push_select(
        &mut self,
        store: &TemplateStore,
        entry_idx: u32,
        q: &Query,
    ) -> ParsedRecord {
        let tpl = QueryTemplate::of_query(q);
        let lits = index_u32(self.lits.len());
        let facts = TemplateFacts::of_select(&q.body, &mut self.lits);
        let (template, facts) = match self.memo.get(&tpl.fingerprint) {
            Some(&(id, first)) if self.facts[first as usize] == facts => (id, first),
            Some(&(id, _)) => (id, self.add(facts)),
            None => {
                let fp = tpl.fingerprint;
                let id = store.intern(tpl);
                let first = self.add(facts);
                self.memo.insert(fp, (id, first));
                (id, first)
            }
        };
        ParsedRecord {
            entry_idx,
            template,
            facts,
            lits,
        }
    }

    fn add(&mut self, facts: TemplateFacts) -> u32 {
        self.facts.push(facts);
        index_u32(self.facts.len() - 1)
    }

    /// The literal texts of one of this worker's records.
    #[cfg(debug_assertions)]
    pub(crate) fn literals(&self, rec: &ParsedRecord) -> Vec<&str> {
        (0..self.facts[rec.facts as usize].literals as usize)
            .map(|k| self.lits.get(rec.lits as usize + k))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checkpoint::Wire;
    use sqlog_sql::parse_query;

    /// A worker's candidate facts and literals for one statement.
    fn candidate(sql: &str, lits: &mut Literals) -> TemplateFacts {
        TemplateFacts::of_select(&parse_query(sql).unwrap().body, lits)
    }

    #[test]
    fn records_whose_facts_differ_keep_their_own_entry() {
        // Facts that differ within one template cannot come out of the
        // parser today, so the candidates are made by hand: three records
        // of template 0, the second and third (from different workers)
        // with equal facts that differ from the first's.
        let mut lits = Literals::default();
        let candidates = vec![
            candidate("SELECT a FROM t WHERE x = 1", &mut lits),
            candidate("SELECT b FROM u WHERE y = 'q'", &mut lits),
            candidate("SELECT b FROM u WHERE y = 'r'", &mut lits),
        ];
        let rows = (0..3u32)
            .map(|i| ParsedRecord {
                entry_idx: 2 * i,
                template: TemplateId(0),
                facts: i,
                lits: i,
            })
            .collect();
        let records = ParsedRecords::join(rows, candidates, lits, 1);
        assert_eq!(records.facts.len(), 2);
        assert_eq!(
            records.iter().map(|r| r.facts).collect::<Vec<_>>(),
            [0, 1, 1]
        );
        assert_eq!(records.unfactored(), 2);
        assert_eq!(records.view(0).primary_table(), Some("t"));
        assert_eq!(records.view(2).primary_table(), Some("u"));
        assert_eq!(
            records.view(2).single_equality(),
            Some(("y", ValueRef::String("r")))
        );
        // The checkpoint codec keeps the own-facts records apart.
        let back = ParsedRecords::from_wire(&records.to_wire()).unwrap();
        assert_eq!(back, records);
    }
}
