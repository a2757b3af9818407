//! Pipeline configuration.

use serde::{Deserialize, Serialize};

/// Tunable parameters of the cleaning pipeline.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PipelineConfig {
    /// Duplicate time threshold in milliseconds (§5.2, Table 4). `None`
    /// means unrestricted: every identical re-submission by the same user is
    /// a duplicate regardless of elapsed time.
    pub duplicate_threshold_ms: Option<u64>,
    /// Maximum gap between two statements of one user before a new session
    /// (and thus a new potential pattern instance) starts. Def. 8 requires
    /// instances to be uninterrupted; the gap bounds "short time between
    /// them" (§4.1.1).
    pub session_gap_ms: u64,
    /// Maximum n-gram length mined as a multi-template pattern.
    pub max_ngram: usize,
    /// Minimum frequency for a mined pattern to be reported.
    pub min_pattern_frequency: u64,
    /// Maximum time gap between a CTH source query and a follow-up
    /// (candidates beyond this are not considered part of one hunt).
    pub cth_max_gap_ms: u64,
    /// How many subsequent queries after a potential CTH source are examined
    /// for follow-ups.
    pub cth_lookahead: usize,
    /// Enforce Definition 11's third axiom: the Stifle filter column must be
    /// a key attribute of the queried table. The paper: "We could have
    /// omitted the third axiom in principle: This would have simplified
    /// things, but with the potential drawback of some false positives."
    /// Setting this to `false` is that ablation.
    pub require_key_attribute: bool,
    /// Include the filter column in the projection of a DW rewrite, as in
    /// the paper's Example 10 (`SELECT empId, name ... WHERE empId IN (...)`),
    /// so result rows remain attributable to the merged constants.
    pub rewrite_adds_filter_column: bool,
    /// Worker threads for the sharded pipeline stages (dedup, parse,
    /// sessions, mining, detection). `0` = one per available core, `1` =
    /// fully sequential. Output is byte-identical for every value (§5
    /// stages shard by user/session and merge deterministically).
    pub parallelism: usize,
    /// Maximum expression/subquery/join nesting depth the parser will
    /// follow before rejecting a statement as a resource bomb (counted with
    /// syntax errors; see [`sqlog_sql::ParseLimits::max_depth`]).
    pub max_parse_depth: usize,
    /// Maximum statement length in bytes accepted by the parser
    /// ([`sqlog_sql::ParseLimits::max_statement_bytes`]).
    pub max_statement_bytes: usize,
    /// Maximum lexed tokens per statement
    /// ([`sqlog_sql::ParseLimits::max_tokens`]).
    pub max_parse_tokens: usize,
    /// Enable the template-aware parse cache: statements whose raw shape
    /// (text modulo whitespace, case and literals) was already parsed skip
    /// lexing/parsing and reuse the cached template and facts. Output is
    /// byte-identical with the cache on or off; `--no-parse-cache`
    /// disables it for A/B runs.
    pub parse_cache: bool,
    /// Observability sink. [`sqlog_obs::Recorder::disabled`] (the default)
    /// reduces every instrumentation point to a branch-on-a-bool no-op;
    /// an enabled recorder collects per-stage/per-shard spans, counters
    /// and latency histograms for `--trace-events` / `--stats-json`.
    /// Cloning the config shares the recorder (and its collected data).
    /// `PartialEq` compares only enablement, never collected data, so the
    /// derived config equality still means "same tunables".
    pub recorder: sqlog_obs::Recorder,
}

impl PipelineConfig {
    /// The parser resource guards as a [`sqlog_sql::ParseLimits`].
    pub fn parse_limits(&self) -> sqlog_sql::ParseLimits {
        sqlog_sql::ParseLimits {
            max_depth: self.max_parse_depth,
            max_statement_bytes: self.max_statement_bytes,
            max_tokens: self.max_parse_tokens,
        }
    }
}

impl Default for PipelineConfig {
    fn default() -> Self {
        PipelineConfig {
            duplicate_threshold_ms: Some(1_000),
            session_gap_ms: 300_000,
            max_ngram: 3,
            min_pattern_frequency: 2,
            cth_max_gap_ms: 300_000,
            cth_lookahead: 8,
            require_key_attribute: true,
            rewrite_adds_filter_column: true,
            parallelism: 0,
            max_parse_depth: sqlog_sql::ParseLimits::default().max_depth,
            max_statement_bytes: sqlog_sql::ParseLimits::default().max_statement_bytes,
            max_parse_tokens: sqlog_sql::ParseLimits::default().max_tokens,
            parse_cache: true,
            recorder: sqlog_obs::Recorder::disabled(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_paper_choices() {
        let c = PipelineConfig::default();
        // §6.2 picks 1 second as the duplicate threshold.
        assert_eq!(c.duplicate_threshold_ms, Some(1_000));
        assert!(c.max_ngram >= 2);
    }
}
