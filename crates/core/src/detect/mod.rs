//! Step 4 of the pipeline: antipattern detection (Definitions 11–16).
//!
//! Detectors scan the per-user sessions for instances of the built-in
//! antipatterns — the three Stifle classes, CTH candidates, SNC — and any
//! registered extensions (§5.4). Each instance records which parsed records
//! it covers, the identity key used for "count of distinct antipatterns"
//! (Table 5), and the pattern keys that mark mined patterns as antipatterns
//! (Fig. 2a, Table 6).

pub mod cth;
pub mod snc;
pub mod stifle;

use crate::config::PipelineConfig;
use crate::mine::Session;
use crate::records::ParsedRecords;
use crate::store::{TemplateId, TemplateStore};
use sqlog_catalog::Catalog;
use sqlog_log::LogView;
use std::fmt;

/// The antipattern classes the framework knows about.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum AntipatternClass {
    /// Different-WHERE Stifle (Def. 12) — solvable by an `IN` merge.
    DwStifle,
    /// Different-SELECT Stifle (Def. 13) — solvable by projection union.
    DsStifle,
    /// Different-FROM Stifle (Def. 14) — solvable by a key join.
    DfStifle,
    /// Circuitous-Treasure-Hunt candidate (Def. 15) — detected, not solved.
    CthCandidate,
    /// Searching-nullable-columns (Def. 16) — solvable by `IS [NOT] NULL`.
    Snc,
    /// An extension antipattern registered via
    /// [`crate::ext::ExtensionRegistry`].
    Custom(String),
}

impl AntipatternClass {
    /// Short display label.
    pub fn label(&self) -> &str {
        match self {
            AntipatternClass::DwStifle => "DW-Stifle",
            AntipatternClass::DsStifle => "DS-Stifle",
            AntipatternClass::DfStifle => "DF-Stifle",
            AntipatternClass::CthCandidate => "CTH",
            AntipatternClass::Snc => "SNC",
            AntipatternClass::Custom(name) => name,
        }
    }
}

impl fmt::Display for AntipatternClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.label())
    }
}

/// One detected antipattern occurrence.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AntipatternInstance {
    /// The class.
    pub class: AntipatternClass,
    /// Indices into the parsed-record vector, in log order.
    pub records: Vec<usize>,
    /// Identity for distinct-antipattern counting: the instance's distinct
    /// templates, canonically ordered.
    pub identity: Vec<TemplateId>,
    /// Mined-pattern keys this instance marks as antipatterns.
    pub marker_keys: Vec<Vec<TemplateId>>,
    /// Whether a solving rewrite exists for this class.
    pub solvable: bool,
}

/// Everything a detector may look at.
///
/// Detectors must be **session-local**: each instance they emit comes from
/// the records of a single session. The pipeline relies on this to shard
/// detection across contiguous session ranges — a shard's context differs
/// only in `sessions`, and concatenating shard outputs in order reproduces
/// the sequential result.
pub struct DetectCtx<'a> {
    /// The pre-cleaned log, as a view over the original entries.
    pub log: &'a LogView<'a>,
    /// Parsed records (all of them — `records[ri]` and
    /// `records.view(ri)` stay valid for every session, sharded or not).
    pub records: &'a ParsedRecords,
    /// The per-user sessions this detector invocation should scan (a shard
    /// of the full session list, or all of it).
    pub sessions: &'a [Session],
    /// Interned templates.
    pub store: &'a TemplateStore,
    /// Schema catalog (key-attribute checks).
    pub catalog: &'a Catalog,
    /// Pipeline configuration.
    pub config: &'a PipelineConfig,
}

impl DetectCtx<'_> {
    /// Timestamp (ms) of a parsed record.
    pub fn record_millis(&self, record_idx: usize) -> i64 {
        self.log
            .entry(self.records[record_idx].entry_idx as usize)
            .timestamp
            .millis()
    }

    /// The log entry behind a parsed record.
    pub fn record_entry(&self, record_idx: usize) -> &sqlog_log::LogEntry {
        self.log.entry(self.records[record_idx].entry_idx as usize)
    }
}

/// A pluggable antipattern detector (§5.4: "one first comes up with its
/// formal definition … based on the definition, one provides a detection
/// rule").
pub trait Detector: Sync {
    /// Human-readable detector name.
    fn name(&self) -> &str;
    /// Scans the log and returns all instances found.
    fn detect(&self, ctx: &DetectCtx<'_>) -> Vec<AntipatternInstance>;
}

/// Runs the built-in detectors (and none of the extensions — the pipeline
/// appends those itself). Instances are returned sorted by their first
/// record, i.e. in order of appearance in the log; the solving step relies
/// on this order (§5.5: "solving starts with the antipattern which appears
/// in the log first").
pub fn detect_builtin(ctx: &DetectCtx<'_>) -> Vec<AntipatternInstance> {
    let mut out = Vec::new();
    out.extend(stifle::StifleDetector.detect(ctx));
    out.extend(cth::CthDetector.detect(ctx));
    out.extend(snc::SncDetector.detect(ctx));
    sort_instances(&mut out);
    let rec = &ctx.config.recorder;
    if rec.is_enabled() {
        rec.counter("detect.instances", out.len() as u64);
        for inst in &out {
            rec.counter(class_counter_name(&inst.class), 1);
        }
    }
    out
}

/// Static counter name for a class's detected instances. Extension classes
/// share one bucket — counter names must be `'static`, and the per-class
/// split for extensions is available from `Statistics::per_class` anyway.
fn class_counter_name(class: &AntipatternClass) -> &'static str {
    match class {
        AntipatternClass::DwStifle => "detect.dw_stifle",
        AntipatternClass::DsStifle => "detect.ds_stifle",
        AntipatternClass::DfStifle => "detect.df_stifle",
        AntipatternClass::CthCandidate => "detect.cth",
        AntipatternClass::Snc => "detect.snc",
        AntipatternClass::Custom(_) => "detect.custom",
    }
}

/// Sorts instances by order of appearance (first covered record, then
/// class). The remaining tie-breaks make the order *total* over
/// distinguishable instances, so the result does not depend on the order
/// detectors (or detection shards) contributed them.
pub fn sort_instances(instances: &mut [AntipatternInstance]) {
    instances.sort_by(|a, b| {
        let fa = a.records.first().copied().unwrap_or(usize::MAX);
        let fb = b.records.first().copied().unwrap_or(usize::MAX);
        fa.cmp(&fb)
            .then_with(|| a.class.cmp(&b.class))
            .then_with(|| a.records.cmp(&b.records))
            .then_with(|| a.identity.cmp(&b.identity))
            .then_with(|| a.marker_keys.cmp(&b.marker_keys))
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn class_labels() {
        assert_eq!(AntipatternClass::DwStifle.label(), "DW-Stifle");
        assert_eq!(AntipatternClass::Custom("X".into()).label(), "X");
        assert_eq!(AntipatternClass::CthCandidate.to_string(), "CTH");
    }

    #[test]
    fn sort_orders_by_first_record() {
        let mk = |first: usize, class: AntipatternClass| AntipatternInstance {
            class,
            records: vec![first, first + 1],
            identity: vec![],
            marker_keys: vec![],
            solvable: true,
        };
        let mut v = vec![
            mk(10, AntipatternClass::DsStifle),
            mk(2, AntipatternClass::CthCandidate),
            mk(2, AntipatternClass::DwStifle),
        ];
        sort_instances(&mut v);
        assert_eq!(v[0].records[0], 2);
        assert_eq!(v[0].class, AntipatternClass::DwStifle);
        assert_eq!(v[2].records[0], 10);
    }
}
