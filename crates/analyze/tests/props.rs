//! Property tests: the tokenizer and the passes are total — arbitrary
//! byte soup, malformed Rust, and truncated literals must never panic,
//! and the lexer's line numbers must stay within the input.

use clk_analyze::{analyze_str, tokenize, AnalyzeConfig};
use proptest::prelude::*;

/// Fragments of everything the passes pattern-match on; the soup
/// strategy splices them into pathological arrangements.
const FRAGMENTS: &[&str] = &[
    "for",
    "in",
    "let",
    "mut",
    "HashMap",
    "HashSet",
    "Instant",
    "::",
    "now",
    "static",
    "thread_local",
    "!",
    "unwrap",
    "expect",
    ".",
    "(",
    ")",
    "{",
    "}",
    "<",
    ">",
    "+=",
    "sum",
    "#",
    "[",
    "cfg",
    "test",
    "]",
    "mod",
    ";",
    "=",
    "&",
    "x",
    "m",
    "0.5",
    "1e9",
    "RefCell",
    "Cell",
    "SystemTime",
    "iter",
    "keys",
    "values",
    "drain",
    "into_iter",
    "'a",
    "'x'",
    "\"s\"",
    "r#\"r\"#",
    "// clk-analyze: allow(A001)",
    "// clk-analyze: allow(A001, A003) because",
    "/* block */",
    "\"",
    "'",
    "/*",
    "panic",
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn tokenizer_never_panics_on_arbitrary_bytes(
        bytes in proptest::collection::vec(0u8..=255u8, 0..512),
    ) {
        let src = String::from_utf8_lossy(&bytes);
        let (toks, comments) = tokenize(&src);
        let line_count = src.lines().count() as u32 + 1;
        for t in &toks {
            prop_assert!(t.line >= 1 && t.line <= line_count);
        }
        for c in &comments {
            prop_assert!(c.line >= 1 && c.line <= line_count);
        }
    }

    #[test]
    fn passes_never_panic_on_fragment_soup(
        picks in proptest::collection::vec((0usize..FRAGMENTS.len(), 0u8..=7u8), 0..120),
    ) {
        let mut src = String::new();
        for &(idx, sep) in &picks {
            src.push_str(FRAGMENTS[idx]);
            src.push(match sep {
                0 => '\n',
                1 => '\t',
                _ => ' ',
            });
        }
        // hot-path file so every pass (incl. Cell/RefCell A004) runs
        let _ = analyze_str("crates/core/src/local.rs", &src, &AnalyzeConfig::default());
    }

    #[test]
    fn passes_never_panic_on_arbitrary_bytes(
        bytes in proptest::collection::vec(0u8..=255u8, 0..400),
    ) {
        let src = String::from_utf8_lossy(&bytes).into_owned();
        let _ = analyze_str("crates/x/src/lib.rs", &src, &AnalyzeConfig::default());
    }
}

#[test]
fn truncated_literals_are_total() {
    for src in [
        "\"",
        "r\"",
        "r#\"",
        "b\"",
        "br##\"x",
        "'",
        "'\\'",
        "'a",
        "/*",
        "/**/",
        "//",
        "for x in",
        "let m: HashMap<",
        "#[cfg(test)]",
        "m.",
        "m.iter",
        "1e",
        "0.",
        "for x in m.",
        "let m = HashMap::new()",
        "static",
        "static mut",
    ] {
        let _ = analyze_str("crates/x/src/lib.rs", src, &AnalyzeConfig::default());
    }
}
