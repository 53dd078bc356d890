//! The sweep-spec parser is total: every input is a spec or an error,
//! never a panic. Covered are every prefix and every single-byte
//! replacement of a full spec, and random lines built from the spec's own
//! keys and values, hostile widths, phase counts and repeated keys
//! included. Whatever the parser accepts satisfies [`SweepSpec`]'s
//! documented invariants.

use proptest::prelude::*;
use sfq_explore::spec::{
    self, Flow, SweepSpec, CONFIG_TOKENS, FLOW_TOKENS, LIBRARY_VARIANTS, OBJECTIVE_TOKENS,
    SPEC_KEYS, TIMING_TOKENS,
};
use std::panic::catch_unwind;

/// A valid spec that sets every key.
const FULL: &str = "# Table-I neighbourhood sweep.\n\
                    sweep       table1\n\
                    benchmarks  adder:16 multiplier:8 voter:5 c6288  # trailing\n\
                    flows       1phi nphi t1\n\
                    phases      3 4 6\n\
                    opt         none pre-opt slack-opt dff-opt\n\
                    timing      off on\n\
                    library     default cheap-dff costly-dff\n\
                    objectives  gates depth dffs area\n";

/// Values that are not keywords: subjects at hostile widths, bad phase
/// counts, separators and junk.
const HOSTILE: [&str; 22] = [
    "adder:100000000",
    "adder:18446744073709551616",
    "adder:0",
    "adder:",
    "adder:-1",
    "voter:4",
    "voter:2",
    "voter:1",
    "voter:3",
    "c6288:3",
    "c6288",
    "sin:8",
    "nosuch:8",
    ":",
    "0",
    "1",
    "2",
    "3",
    "4294967296",
    "-1",
    "#",
    "\u{fffd}",
];

fn no_duplicates<T: PartialEq>(axis: &[T]) -> bool {
    axis.iter().enumerate().all(|(i, v)| !axis[..i].contains(v))
}

/// Parses `text`, turning a parser panic into a failure that names the
/// input. An accepted spec must hold what [`SweepSpec`] promises: every
/// axis non-empty and duplicate-free, every subject within its bounds,
/// positive phase counts, and `t1` only with at least 3 phases.
fn parse_total(text: &str) -> Option<SweepSpec> {
    let parsed = catch_unwind(|| spec::parse(text))
        .unwrap_or_else(|_| panic!("the spec parser panicked on {text:?}"));
    let spec = parsed.ok()?;
    assert!(!spec.benchmarks.is_empty(), "{text:?}");
    for subject in &spec.benchmarks {
        assert!(
            sfq_circuits::named::parse_subject(subject).is_ok(),
            "accepted subject {subject:?} in {text:?}"
        );
    }
    for (axis, ok) in [
        ("benchmarks", no_duplicates(&spec.benchmarks)),
        ("flows", no_duplicates(&spec.flows)),
        ("phases", no_duplicates(&spec.phases)),
        ("opt", no_duplicates(&spec.opts)),
        ("timing", no_duplicates(&spec.timing)),
        ("library", no_duplicates(&spec.libraries)),
        ("objectives", no_duplicates(&spec.objectives)),
    ] {
        assert!(ok, "duplicate {axis} value accepted in {text:?}");
    }
    for len in [
        spec.flows.len(),
        spec.phases.len(),
        spec.opts.len(),
        spec.timing.len(),
        spec.libraries.len(),
        spec.objectives.len(),
    ] {
        assert!(len > 0, "empty axis accepted in {text:?}");
    }
    assert!(spec.phases.iter().all(|&p| p >= 1), "{text:?}");
    if spec.flows.contains(&Flow::T1) {
        assert!(spec.phases.iter().all(|&p| p >= 3), "{text:?}");
    }
    Some(spec)
}

#[test]
fn every_prefix_parses_or_errs() {
    for end in 0..FULL.len() {
        parse_total(&FULL[..end]);
    }
    let full = parse_total(FULL).expect("the full spec is valid");
    assert_eq!((full.benchmarks.len(), full.opts.len()), (4, 4));
}

#[test]
fn every_byte_replacement_parses_or_errs() {
    let mut bytes = FULL.as_bytes().to_vec();
    let mut accepted = 0;
    for i in 0..bytes.len() {
        let original = bytes[i];
        for b in 0..=u8::MAX {
            bytes[i] = b;
            let text = String::from_utf8_lossy(&bytes);
            accepted += usize::from(parse_total(&text).is_some());
        }
        bytes[i] = original;
    }
    assert!(accepted > 0, "replacements inside comments still parse");
}

/// Every key and value the spec knows, then the hostile values.
fn vocabulary() -> Vec<&'static str> {
    let mut words = SPEC_KEYS.to_vec();
    for table in [
        &FLOW_TOKENS[..],
        &CONFIG_TOKENS[..],
        &TIMING_TOKENS[..],
        &LIBRARY_VARIANTS[..],
        &OBJECTIVE_TOKENS[..],
        &HOSTILE[..],
    ] {
        words.extend_from_slice(table);
    }
    words
}

/// Renders one line: a key (four times in five; otherwise any vocabulary
/// word in the key's place), then values drawn from the vocabulary, a
/// random `adder:<width>` / `voter:<width>` or a random number.
fn render_line(words: &[&str], key: usize, values: &[(usize, u64)]) -> String {
    let mut line = match key % 5 {
        4 => words[key % words.len()],
        _ => SPEC_KEYS[key % SPEC_KEYS.len()],
    }
    .to_string();
    for &(pick, n) in values {
        line.push(' ');
        match pick % (words.len() + 3) {
            i if i < words.len() => line.push_str(words[i]),
            i if i == words.len() => line.push_str(&format!("adder:{n}")),
            i if i == words.len() + 1 => line.push_str(&format!("voter:{}", n % 16)),
            _ => line.push_str(&n.to_string()),
        }
    }
    line
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 512, ..ProptestConfig::default() })]

    #[test]
    fn random_keyword_lines_parse_or_err(
        lines in prop::collection::vec(
            (0usize..64, prop::collection::vec((any::<usize>(), any::<u64>()), 0..6)),
            1..10,
        ),
    ) {
        let words = vocabulary();
        let mut text: String = lines
            .iter()
            .map(|(key, values)| render_line(&words, *key, values) + "\n")
            .collect();
        parse_total(&text);
        // The same lines after a valid benchmarks line, so the value
        // checks of the other keys are reached, not just the missing-key
        // error.
        text.insert_str(0, "benchmarks adder:4\n");
        parse_total(&text);
    }
}
