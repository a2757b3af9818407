//! Property tests for the streaming-normalization contracts dedup rests on.
//!
//! Two invariants, over arbitrary (including hostile) byte soup:
//!
//! 1. **Streaming fingerprint fidelity**: `text_fingerprint` (one
//!    allocation-free pass) equals hashing the string built by
//!    `normalize_sql_text` — the two must be the same function forever.
//! 2. **Idempotence**: normalizing normalized text changes nothing.

use proptest::prelude::*;
use sqlog_skeleton::{normalize_sql_text, text_fingerprint, Fingerprint};

/// Fragments that concatenate into adversarial pseudo-SQL: comment openers
/// without closers, stray quotes, trailing semicolons, multi-byte text,
/// numbers glued to words — everything the scanners must agree on.
fn fragment() -> impl Strategy<Value = String> {
    prop_oneof![
        Just("SELECT ".to_string()),
        Just("x".to_string()),
        Just("T2".to_string()),
        Just(" ".to_string()),
        Just("\t\n".to_string()),
        Just(";".to_string()),
        Just("; ".to_string()),
        Just("--c".to_string()),
        Just("--c\n".to_string()),
        Just("/*b*/".to_string()),
        Just("/* /* nested? */".to_string()),
        Just("/*open".to_string()),
        Just("'lit'".to_string()),
        Just("'it''s'".to_string()),
        Just("'open".to_string()),
        Just("''".to_string()),
        Just("'".to_string()),
        Just("= 12".to_string()),
        Just("0x1F".to_string()),
        Just("1.5e-3".to_string()),
        Just("1e+5".to_string()),
        Just(".5".to_string()),
        Just("-7".to_string()),
        Just("größe".to_string()),
        Just("¡α!".to_string()),
        Just("[A  B]".to_string()),
        Just("@v".to_string()),
        "[ -~]{0,6}".prop_map(|s| s),
    ]
}

fn soup() -> impl Strategy<Value = String> {
    prop::collection::vec(fragment(), 0..12).prop_map(|v| v.concat())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn streaming_fingerprint_equals_string_fingerprint(sql in soup()) {
        prop_assert_eq!(
            text_fingerprint(&sql),
            Fingerprint::of_str(&normalize_sql_text(&sql)),
            "streaming fingerprint diverged for {:?}", sql
        );
    }

    #[test]
    fn normalization_is_idempotent(sql in soup()) {
        let once = normalize_sql_text(&sql);
        prop_assert_eq!(normalize_sql_text(&once), once.clone(),
            "normalize not idempotent for {:?}", sql);
    }
}
