//! Properties of the manifest parser (`ExperimentManifest::from_json`) on
//! hostile and near-valid input: it never panics, and whatever it accepts
//! serializes to a canonical form that parses back to the same manifest.
//! Every builtin, at any seed and scale a JSON number carries exactly,
//! survives `to_json → from_json → to_json` unchanged; past that range
//! the parser refuses the number rather than round it. (`golden.rs` pins
//! the checked-in builtins themselves.)

use proptest::prelude::*;
use vmsim_config::manifest::MAX_JSON_INT;
use vmsim_config::{builtin, ExperimentManifest};

/// Fragments that steer generated input into every parser state: JSON
/// structure, the manifest's own keys and enum names, and numbers at the
/// edges of the integer ranges the parser converts to.
const TOKENS: [&str; 40] = [
    "{",
    "}",
    "[",
    "]",
    ":",
    ",",
    " ",
    "\"",
    "\\",
    "null",
    "true",
    "false",
    "0",
    "-1",
    "0.5",
    "1e400",
    "4294967296",
    "9007199254740993",
    "18446744073709551616",
    "\"name\"",
    "\"description\"",
    "\"seeds\"",
    "\"measure_ops\"",
    "\"obs\"",
    "\"trace\"",
    "\"sim\"",
    "\"faults\"",
    "\"vms\"",
    "\"supervisor\"",
    "\"experiment\"",
    "\"kind\"",
    "\"matrix\"",
    "\"report\"",
    "\"policies\"",
    "\"workloads\"",
    "\"alloc-latency\"",
    "\"walk-breakdown\"",
    "\"pages\"",
    "\"ptemagnet\"",
    "é",
];

fn fragment() -> impl Strategy<Value = String> {
    prop_oneof![
        4 => (0..TOKENS.len()).prop_map(|i| TOKENS[i].to_string()),
        1 => any::<u32>().prop_map(|c| char::from_u32(c % 0x11_0000).unwrap_or('?').to_string()),
    ]
}

/// A JSON number: integers across the whole `u64` range and at the edges
/// the parser converts to, small counts, and fractions.
fn number() -> impl Strategy<Value = String> {
    prop_oneof![
        4 => (0u64..2048).prop_map(|n| n.to_string()),
        2 => (0..=MAX_JSON_INT).prop_map(|n| n.to_string()),
        1 => any::<u64>().prop_map(|n| n.to_string()),
        1 => any::<u32>().prop_map(|n| format!("{}.{}", n % 100, n % 7)),
        1 => (0usize..10).prop_map(|i| [
            "-0", "-7", "1e3", "2.5e-3", "1e400", "9007199254740993",
            "18446744073709551615", "18446744073709551616", "4294967296", "0.0",
        ][i].to_string()),
    ]
}

/// A replacement for one value of a manifest: numbers, other scalars
/// (hostile strings included) and small containers of the wrong shape.
fn replacement() -> impl Strategy<Value = String> {
    prop_oneof![
        3 => number(),
        2 => (0usize..8).prop_map(|i| [
            "null", "true", "false", "[]", "{}", "[1, \"x\"]", "{\"kind\": \"matrix\"}", "\"\"",
        ][i].to_string()),
        2 => (0usize..8).prop_map(|i| [
            "\"default\"", "\"granular:4\"", "\"pagerank\"", "\"objdet\"", "\"matrix\"",
            "\"fig6\"", "\"a\\nb\\u0000\\\"\"", "\"\\ud83d\\ude00\"",
        ][i].to_string()),
    ]
}

/// Byte spans of the scalar tokens (strings, numbers, literals) in a JSON
/// document, keys included.
fn scalar_spans(doc: &str) -> Vec<(usize, usize)> {
    let bytes = doc.as_bytes();
    let mut spans = Vec::new();
    let mut i = 0;
    while i < bytes.len() {
        let start = i;
        match bytes[i] {
            b'"' => {
                i += 1;
                while bytes[i] != b'"' {
                    i += if bytes[i] == b'\\' { 2 } else { 1 };
                }
                i += 1;
            }
            b'-' | b'0'..=b'9' | b'a'..=b'z' => {
                while i < bytes.len() && !b",:]} \n".contains(&bytes[i]) {
                    i += 1;
                }
            }
            _ => {
                i += 1;
                continue;
            }
        }
        spans.push((start, i));
    }
    spans
}

/// Every builtin at the given seed and scale.
fn builtins_at(seed: u64, ops: u64) -> Vec<ExperimentManifest> {
    vec![
        builtin::table1(seed, ops),
        builtin::table4(seed, ops),
        builtin::fig5(seed, ops),
        builtin::fig6(seed, ops),
        builtin::fig7(seed, ops),
        builtin::csv(seed, ops),
        builtin::sec62(seed, ops),
        builtin::thp(seed, ops),
        builtin::specint(seed, ops),
        builtin::variance(1 + seed % 8, ops),
        builtin::llc(seed, ops, &[1, 2, 4, 16, 64]),
        builtin::hw(seed, ops),
        builtin::sec64(ops),
        builtin::breakdown(seed, ops),
    ]
}

/// The round-trip contract: `m`'s canonical JSON parses back to `m`, and
/// serializing again reproduces the same bytes.
fn assert_fixpoint(m: &ExperimentManifest) {
    let json = m.to_json();
    let back = ExperimentManifest::from_json(&json)
        .unwrap_or_else(|e| panic!("{}: canonical JSON must parse: {e}\n{json}", m.name));
    assert_eq!(&back, m, "{}: value round trip\n{json}", m.name);
    assert_eq!(back.to_json(), json, "{}: not a fixpoint", m.name);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Any bytes (decoded lossily, as a request line would be) are either
    /// a manifest or a `ManifestError`.
    #[test]
    fn arbitrary_bytes_never_panic(bytes in prop::collection::vec(any::<u8>(), 0..512)) {
        let _ = ExperimentManifest::from_json(&String::from_utf8_lossy(&bytes));
    }

    /// Token soup built from the manifest's own vocabulary never panics.
    #[test]
    fn token_soup_never_panics(parts in prop::collection::vec(fragment(), 0..96)) {
        let _ = ExperimentManifest::from_json(&parts.concat());
    }

    /// Replacing up to four tokens of a builtin's JSON never panics, and
    /// whatever still parses reaches the canonical fixpoint. Three edits in
    /// four put a number where a number was, so that many mutants parse.
    #[test]
    fn mutated_builtins_parse_to_a_fixpoint_or_fail_cleanly(
        which in any::<usize>(),
        edits in prop::collection::vec((any::<usize>(), any::<u8>(), number(), replacement()), 1..5),
    ) {
        let all = builtin::all();
        let mut doc = all[which % all.len()].to_json();
        for (at, flavor, num, value) in edits {
            let typed = flavor % 4 != 0;
            let mut spans = scalar_spans(&doc);
            if typed {
                spans.retain(|&(start, _)| matches!(doc.as_bytes()[start], b'-' | b'0'..=b'9'));
            }
            let (start, end) = spans[at % spans.len()];
            doc.replace_range(start..end, if typed { &num } else { &value });
        }
        if let Ok(m) = ExperimentManifest::from_json(&doc) {
            assert_fixpoint(&m);
        }
    }

    /// Every parameterized builtin round-trips at any seed and scale up
    /// to the largest integer a JSON number carries exactly.
    #[test]
    fn builtins_round_trip_at_any_exact_seed_and_scale(
        seed in 0..=MAX_JSON_INT,
        ops in 0..=MAX_JSON_INT,
    ) {
        for m in builtins_at(seed, ops) {
            assert_fixpoint(&m);
        }
    }

    /// A seed past that range is refused at its path, never silently
    /// rounded to a different seed.
    #[test]
    fn seeds_past_the_exact_range_are_refused(excess in 1..=u64::MAX - MAX_JSON_INT) {
        let json = builtin::table4(MAX_JSON_INT + excess, 1_000).to_json();
        let err = ExperimentManifest::from_json(&json).expect_err("inexact seed");
        prop_assert_eq!(err.context, "$.seeds[0]");
    }
}
