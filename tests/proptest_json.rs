//! Fuzzing the wire and store JSON parser: random strings over the JSON
//! alphabet never panic the parser, and every value it accepts is a fixed
//! point of render-then-parse.

use p2::service::json::Json;
use proptest::prelude::*;
use proptest::TestCaseError;

/// Brackets, quotes, the backslash and `u` of escapes, digits, the number
/// punctuation, the letters of `true`/`false`/`null`, whitespace and one
/// multibyte character.
const ALPHABET: &[char] = &[
    '[', ']', '{', '}', ',', ':', '"', '\\', 'u', '0', '1', '2', '5', '9', 'e', 'E', '+', '-', '.',
    't', 'r', 'f', 'a', 'l', 's', 'n', ' ', '\n', '\t', 'é',
];

/// The characters a number is drawn from.
const NUMBER: &[char] = &['0', '1', '5', '9', 'e', 'E', '+', '-', '.'];

/// Parses `text` and, if it is accepted, checks that rendering the value and
/// parsing it again gives the same value.
fn check_round_trip(text: &str) -> Result<(), TestCaseError> {
    if let Ok(value) = Json::parse(text) {
        let rendered = value.to_string();
        prop_assert_eq!(Json::parse(&rendered), Ok(value));
    }
    Ok(())
}

/// The next pick; a spent stream reads as zeros.
fn pick(picks: &mut impl Iterator<Item = usize>) -> usize {
    picks.next().unwrap_or(0)
}

/// Decodes random picks into JSON-shaped text over [`ALPHABET`]: each pick
/// chooses a value kind, a length or a character. Containers stop nesting at
/// depth 4.
fn shaped_value(picks: &mut impl Iterator<Item = usize>, depth: usize, out: &mut String) {
    let kinds = if depth >= 4 { 5 } else { 7 };
    match pick(picks) % kinds {
        0 => out.push_str("null"),
        1 => out.push_str("true"),
        2 => out.push_str("false"),
        3 => {
            for _ in 0..1 + pick(picks) % 5 {
                out.push(NUMBER[pick(picks) % NUMBER.len()]);
            }
        }
        4 => {
            out.push('"');
            for _ in 0..pick(picks) % 5 {
                out.push(ALPHABET[pick(picks) % ALPHABET.len()]);
            }
            out.push('"');
        }
        kind => {
            let (open, close) = if kind == 5 { ('[', ']') } else { ('{', '}') };
            out.push(open);
            for i in 0..pick(picks) % 4 {
                if i > 0 {
                    out.push(',');
                }
                if kind == 6 {
                    out.push_str(&format!("\"k{}\":", pick(picks) % 3));
                }
                shaped_value(picks, depth + 1, out);
            }
            out.push(close);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4096))]

    #[test]
    fn parse_never_panics_and_accepted_values_round_trip(
        picks in proptest::collection::vec(0usize..ALPHABET.len(), 0..24),
    ) {
        let text: String = picks.iter().map(|&i| ALPHABET[i]).collect();
        check_round_trip(&text)?;
    }

    /// Most uniformly random strings fail to parse, so this also feeds the
    /// parser JSON-shaped text, with up to two characters overwritten.
    #[test]
    fn json_shaped_strings_round_trip(
        picks in proptest::collection::vec(0usize..1 << 16, 0..64),
        edits in proptest::collection::vec((0usize..1 << 16, 0usize..ALPHABET.len()), 0..3),
    ) {
        let mut text = String::new();
        shaped_value(&mut picks.into_iter(), 0, &mut text);
        let mut chars: Vec<char> = text.chars().collect();
        for (at, pick) in edits {
            let at = at % chars.len();
            chars[at] = ALPHABET[pick];
        }
        check_round_trip(&chars.into_iter().collect::<String>())?;
    }
}
