//! # sqlog-skeleton — skeleton queries, templates and predicate profiles
//!
//! Implements Definitions 2–6 of *"Cleaning Antipatterns in an SQL Query
//! Log"*: skeleton trees (literals replaced by placeholders), the
//! (SFC, SWC, SSC) query-template triple, skeleton equality, plus the
//! per-query predicate facts (CP, θ, filter columns, output columns) that
//! the antipattern definitions (Defs. 11–16) consume.
//!
//! ```
//! use sqlog_skeleton::{render_where_clause, Mode, QueryTemplate};
//! use sqlog_sql::parse_query;
//!
//! let qa = parse_query("SELECT name FROM Employee WHERE empId = 8").unwrap();
//! let qb = parse_query("SELECT name FROM Employee WHERE empId = 1").unwrap();
//! let (a, b) = (QueryTemplate::of_query(&qa), QueryTemplate::of_query(&qb));
//! assert!(a.similar(&b));                 // Def. 6
//! assert_eq!(a.fingerprint, b.fingerprint);
//! assert_eq!(a.swc(), "empid = <num>");   // skeleton WHERE clause
//! // Canonical WHERE clauses (with constants) differ.
//! assert_ne!(
//!     render_where_clause(&qa.body, Mode::Canonical),
//!     render_where_clause(&qb.body, Mode::Canonical),
//! );
//! ```

#![warn(missing_docs)]

pub mod fingerprint;
pub mod normalize;
pub mod predicate;
pub mod rawkey;
pub mod skeleton;
pub mod template;

pub use fingerprint::{Fingerprint, Fnv1a, FnvBuildHasher, FnvHashMap, FnvHashSet, FnvHasher};
pub use normalize::{normalize_sql_text, text_fingerprint};
pub use predicate::{
    base_tables, primary_table, OutputColumns, PredicateKind, PredicateProfile, Theta, ValueKind,
    ValueRef,
};
pub use rawkey::{raw_shape_scan, RawKey, RawLiteral, RawLiteralKind};
pub use skeleton::{
    render_from_clause, render_query, render_select_clause, render_tail, render_where_clause, Mode,
};
pub use template::QueryTemplate;
