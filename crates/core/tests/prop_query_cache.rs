//! Property test for the solver's template cache: `QueryCache::query` must
//! equal a direct `parse_select` on every statement, whatever its spelling.
//!
//! Each case is a batch of variants of one statement shape, run through one
//! cache in order. Variants flip identifier and keyword case, insert
//! whitespace and comments, quote identifiers as `[x]` or `"x"`, and draw
//! every literal slot from numbers (integer, decimal, hex, exponent,
//! leading dot), strings (with `''` escapes) and `@`/`@@` variables.
//! Literal values come from small ranges, so duplicate literals (which
//! refuse certification) are common. Half the variants reuse the batch's
//! spelling, so certified templates are served to other literal values;
//! the other half respell it, so statements that share a `RawKey` but
//! differ in spelling meet in one cache.

use proptest::prelude::*;
use sqlog_core::solve::batch::{parse_select, QueryCache};
use sqlog_obs::Recorder;

/// Draws bounded choices from a vector of random words, cycling when a
/// statement needs more choices than the vector holds.
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

/// One piece of the shape: a word, punctuation, or a literal slot.
#[derive(Clone, Copy)]
enum Piece {
    Keyword(&'static str),
    Ident(&'static str),
    Punct(&'static str),
    /// Any literal: number, string or variable.
    Value,
    /// A number literal.
    Num,
    /// A string literal.
    Str,
}

use Piece::{Ident as I, Keyword as K, Num, Punct as P, Str, Value};

const SHAPE: &[Piece] = &[
    K("SELECT"),
    K("TOP"),
    Num,
    I("ra"),
    P(","),
    I("dec"),
    P(","),
    Value,
    K("FROM"),
    I("photoprimary"),
    K("WHERE"),
    I("objid"),
    P("="),
    Value,
    K("AND"),
    I("name"),
    K("LIKE"),
    Str,
    K("AND"),
    I("r"),
    K("BETWEEN"),
    Num,
    K("AND"),
    Num,
    K("OR"),
    I("x"),
    K("IN"),
    P("("),
    Value,
    P(","),
    Value,
    P(")"),
    K("ORDER"),
    K("BY"),
    I("ra"),
];

fn spell_word(w: &str, c: &mut Choices) -> String {
    match c.pick(4) {
        0 => w.to_string(),
        1 => w.to_ascii_lowercase(),
        2 => w.to_ascii_uppercase(),
        _ => w
            .chars()
            .enumerate()
            .map(|(i, ch)| {
                if i % 2 == 0 {
                    ch.to_ascii_uppercase()
                } else {
                    ch.to_ascii_lowercase()
                }
            })
            .collect(),
    }
}

fn spell_ident(w: &str, c: &mut Choices) -> String {
    let w = spell_word(w, c);
    match c.pick(3) {
        0 => w,
        1 => format!("[{w}]"),
        _ => format!("\"{w}\""),
    }
}

/// A separator between two pieces; `glue` allows none at all (only next
/// to punctuation, where no two tokens can fuse).
fn separator(glue: bool, c: &mut Choices) -> &'static str {
    const SEPS: &[&str] = &[
        " ",
        "  ",
        "\t",
        "\n ",
        "\r\n",
        " /* c */ ",
        " /* a /* nested */ b */ ",
        " -- note\n",
    ];
    if glue && c.pick(3) == 0 {
        ""
    } else {
        SEPS[c.pick(SEPS.len())]
    }
}

fn number(c: &mut Choices) -> String {
    let (a, b) = (c.pick(12), c.pick(12));
    match c.pick(6) {
        0 | 1 => a.to_string(),
        2 => format!("0x{:X}", 0x1A0 + a),
        3 => format!("{a}.{b}e-{}", 1 + c.pick(3)),
        4 => format!("{a}.{b}"),
        _ => format!(".{b}"),
    }
}

fn string(c: &mut Choices) -> String {
    const PARTS: &[&str] = &["a", "b", "''", "Galaxy", "%", ""];
    let body: String = (0..c.pick(4)).map(|_| PARTS[c.pick(PARTS.len())]).collect();
    format!("'{body}'")
}

fn variable(c: &mut Choices) -> String {
    let name = spell_word(["ra", "id", "rowcount"][c.pick(3)], c);
    if c.pick(2) == 0 {
        format!("@{name}")
    } else {
        format!("@@{name}")
    }
}

/// Renders one variant: `kinds` fixes each `Value` slot's literal kind,
/// `spelling` the case, quoting and separators, `values` the literals.
fn render(kinds: &mut Choices, spelling: &mut Choices, values: &mut Choices) -> String {
    let mut sql = String::new();
    let mut prev_punct = true;
    for piece in SHAPE {
        let punct = matches!(piece, P(_));
        if !sql.is_empty() {
            sql.push_str(separator(prev_punct || punct, spelling));
        }
        let text = match *piece {
            K(w) => spell_word(w, spelling),
            I(w) => spell_ident(w, spelling),
            P(p) => p.to_string(),
            Num => number(values),
            Str => string(values),
            Value => match kinds.pick(3) {
                0 => number(values),
                1 => string(values),
                _ => variable(values),
            },
        };
        sql.push_str(&text);
        prev_punct = punct;
    }
    sql
}

fn choices(n: usize) -> impl Strategy<Value = Vec<u32>> {
    prop::collection::vec(any::<u32>(), n)
}

/// A batch of variants of one shape.
fn batch_strategy() -> impl Strategy<Value = Vec<String>> {
    (
        choices(8),
        choices(128),
        prop::collection::vec((any::<bool>(), choices(128), choices(128)), 1..10),
    )
        .prop_map(|(kinds, shared_spelling, variants)| {
            variants
                .iter()
                .map(|(respell, own_spelling, values)| {
                    let spelling = if *respell {
                        own_spelling
                    } else {
                        &shared_spelling
                    };
                    render(
                        &mut Choices {
                            vals: &kinds,
                            next: 0,
                        },
                        &mut Choices {
                            vals: spelling,
                            next: 0,
                        },
                        &mut Choices {
                            vals: values,
                            next: 0,
                        },
                    )
                })
                .collect()
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The cache answers exactly like a direct parse: same rendered text
    /// (which catches a template leaking another statement's identifier
    /// spelling, since `Ident` equality ignores case) and same AST.
    #[test]
    fn cached_query_equals_direct_parse(batch in batch_strategy()) {
        let cache = QueryCache::default();
        let rec = Recorder::disabled();
        for sql in &batch {
            let cached = cache.query(sql, &rec);
            let direct = parse_select(sql);
            prop_assert_eq!(
                cached.as_ref().map(|q| q.to_string()),
                direct.as_ref().map(|q| q.to_string()),
                "rendered text differs for {}",
                sql
            );
            prop_assert_eq!(cached, direct, "AST differs for {}", sql);
        }
    }
}
