//! Properties of the `vmsim_obs::json` parser on hostile and large input:
//! it never panics, its nesting depth is bounded, the writer's strings
//! round-trip through it, and a multi-megabyte string literal parses (the
//! string scanner is linear in its input).

use proptest::prelude::*;
use vmsim_obs::json::{self, Json, MAX_DEPTH};

/// Fragments that steer generated input into every parser state: the
/// structural characters, escapes, literals, numbers, and multi-byte text.
const TOKENS: [&str; 24] = [
    "{",
    "}",
    "[",
    "]",
    "\"",
    "\\",
    ":",
    ",",
    " ",
    "\n",
    "\\u",
    "\\n",
    "00e9",
    "d83d",
    "true",
    "null",
    "fals",
    "-",
    "0",
    "7.5e-3",
    "1E+",
    "é",
    "\u{1F600}",
    "\u{0}",
];

fn fragment() -> impl Strategy<Value = String> {
    prop_oneof![
        3 => (0..TOKENS.len()).prop_map(|i| TOKENS[i].to_string()),
        1 => any::<u32>().prop_map(|c| char::from_u32(c % 0x11_0000).unwrap_or('?').to_string()),
    ]
}

/// Characters biased towards what the writer must escape.
fn text_char() -> impl Strategy<Value = char> {
    prop_oneof![
        2 => (0x20u32..0x7f).prop_map(|c| char::from_u32(c).unwrap()),
        1 => (0u32..0x20).prop_map(|c| char::from_u32(c).unwrap()),
        1 => (0usize..4).prop_map(|i| ['"', '\\', '/', '\u{7f}'][i]),
        1 => any::<u32>().prop_map(|c| char::from_u32(c % 0x11_0000).unwrap_or('\u{FFFD}')),
    ]
}

/// `depth` containers, each an array or an object as `kinds` says,
/// around a `0`.
fn nested(kinds: &[bool]) -> String {
    let mut doc = String::new();
    for &array in kinds {
        doc.push_str(if array { "[" } else { "{\"k\": " });
    }
    doc.push('0');
    for &array in kinds.iter().rev() {
        doc.push(if array { ']' } else { '}' });
    }
    doc
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Any text is either a document or a `ParseError` pointing inside it.
    #[test]
    fn arbitrary_input_never_panics(parts in prop::collection::vec(fragment(), 0..64)) {
        let input = parts.concat();
        if let Err(e) = json::parse(&input) {
            prop_assert!(e.pos <= input.len(), "{e} beyond {} bytes", input.len());
        }
    }

    /// Nesting up to the bound parses; one level more is the typed error at
    /// the container that crossed it.
    #[test]
    fn nesting_past_the_bound_is_an_error(kinds in prop::collection::vec(any::<bool>(), 1..2 * MAX_DEPTH)) {
        let doc = nested(&kinds);
        match json::parse(&doc) {
            Ok(_) => prop_assert!(kinds.len() <= MAX_DEPTH, "depth {} accepted", kinds.len()),
            Err(e) => {
                prop_assert!(kinds.len() > MAX_DEPTH, "depth {} refused: {e}", kinds.len());
                prop_assert_eq!(e.msg, "nesting too deep");
                let opened: usize = kinds[..MAX_DEPTH]
                    .iter()
                    .map(|&array| if array { 1 } else { "{\"k\": ".len() })
                    .sum();
                prop_assert_eq!(e.pos, opened);
            }
        }
    }

    /// `write_str` then `parse` gives back the original string, alone and
    /// as an object key and value.
    #[test]
    fn written_strings_round_trip(chars in prop::collection::vec(text_char(), 0..200)) {
        let s: String = chars.into_iter().collect();
        let mut lit = String::new();
        json::write_str(&mut lit, &s);
        prop_assert_eq!(json::parse(&lit), Ok(Json::Str(s.clone())));

        let doc = format!("{{{lit}: [{lit}, 1]}}");
        let expected = Json::Obj(vec![(s.clone(), Json::Arr(vec![Json::Str(s), Json::Num(1.0)]))]);
        prop_assert_eq!(json::parse(&doc), Ok(expected));
    }
}

#[test]
fn two_million_open_brackets_are_refused_not_a_stack_overflow() {
    let doc = "[".repeat(2_000_000);
    let err = json::parse(&doc).expect_err("nesting past the bound");
    assert_eq!(err.msg, "nesting too deep");
    assert_eq!(err.pos, MAX_DEPTH);
}

#[test]
fn a_multi_megabyte_string_literal_parses() {
    let mut s = String::with_capacity(5 << 20);
    let mut i = 0u32;
    while s.len() < 4 << 20 {
        s.push_str("run of plain ascii text ");
        s.push(['é', '\u{1F600}', '"', '\\', '\n', '\u{1}'][(i % 6) as usize]);
        i += 1;
    }
    let mut lit = String::new();
    json::write_str(&mut lit, &s);
    assert_eq!(
        json::parse(&lit).expect("large literal").as_str(),
        Some(s.as_str())
    );
}
