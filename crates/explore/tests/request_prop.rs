//! The `serve` request parser is total: every line is a request or an
//! error, never a panic. Covered are every prefix and every single-byte
//! replacement of a full request, and random lines built from the
//! request vocabulary with hostile widths, zero and too few phases, and
//! repeated and unknown tokens. Whatever the parser accepts names a
//! subject within the registry's bounds and a flow at or above its phase
//! floor, and holds at most one option per axis.
//!
//! Parsing builds nothing: the random lines ask for subjects up to each
//! benchmark's largest width (millions of AND nodes), so a parser that
//! built them would not finish.

use proptest::prelude::*;
use sfq_circuits::named::{self, KNOWN_BENCHMARKS};
use sfq_explore::spec::{parse_request, Flow, Request, CONFIG_TOKENS, FLOW_TOKENS, OPT_TOKENS};
use std::panic::catch_unwind;

/// The option axes of a request: the pre-mapping stage and the timing
/// stage.
const AXES: [&[&str]; 2] = [&OPT_TOKENS, &["timing", "no-timing"]];

/// A valid request that uses every field.
const FULL: &str = "adder:8 t1 6 pre-opt timing";

/// Fields that are not in the request vocabulary: subjects at hostile
/// widths, bad phase counts and junk.
const HOSTILE: [&str; 20] = [
    "adder:100000000",
    "adder:18446744073709551616",
    "adder:0",
    "adder:",
    "adder:-1",
    "voter:4",
    "voter:1",
    "c6288:3",
    "nosuch:8",
    "1phi:4",
    ":",
    "0",
    "1",
    "2",
    "3",
    "4294967296",
    "-1",
    "---",
    "#",
    "\u{fffd}",
];

/// Parses `line`, turning a parser panic into a failure that names the
/// input, and checks what an accepted request promises.
fn parse_total(line: &str) -> Option<Request<'_>> {
    let parsed = catch_unwind(|| parse_request(line))
        .unwrap_or_else(|_| panic!("the request parser panicked on {line:?}"));
    let request = parsed.ok()?;
    let &(_, _, largest) = KNOWN_BENCHMARKS
        .iter()
        .find(|&&(name, ..)| name == request.name)
        .unwrap_or_else(|| panic!("unregistered subject accepted in {line:?}"));
    assert!(request.width <= largest, "{line:?}");
    assert_eq!(
        named::parse_subject(request.subject),
        Ok((request.name, request.width)),
        "{line:?}"
    );
    for axis in AXES {
        let set = line.split_whitespace().filter(|f| axis.contains(f));
        assert!(
            set.count() <= 1,
            "two {axis:?} options accepted in {line:?}"
        );
    }
    let config = &request.config;
    assert!(config.phases >= 1, "{line:?}");
    assert_eq!(config.use_t1, request.flow == Flow::T1, "{line:?}");
    match request.flow {
        Flow::T1 => assert!(config.phases >= 3, "t1 under 3 phases in {line:?}"),
        Flow::SinglePhase => assert_eq!(config.phases, 1, "{line:?}"),
        Flow::Multiphase => {}
    }
    Some(request)
}

#[test]
fn every_prefix_parses_or_errs() {
    for end in 0..FULL.len() {
        parse_total(&FULL[..end]);
    }
    let full = parse_total(FULL).expect("the full request is valid");
    assert_eq!((full.name, full.width, full.flow), ("adder", 8, Flow::T1));
    assert_eq!(full.config.phases, 6);
    assert!(full.config.pre_opt.enabled && full.config.timing.enabled);
}

#[test]
fn every_byte_replacement_parses_or_errs() {
    let mut bytes = FULL.as_bytes().to_vec();
    let mut accepted = 0;
    for i in 0..bytes.len() {
        let original = bytes[i];
        for b in 0..=u8::MAX {
            bytes[i] = b;
            let line = String::from_utf8_lossy(&bytes);
            accepted += usize::from(parse_total(&line).is_some());
        }
        bytes[i] = original;
    }
    assert!(accepted > 0, "replacements inside the width still parse");
}

#[test]
fn the_t1_floor_and_zero_phases_are_request_errors() {
    for line in ["adder:8 t1 2", "adder:8 t1 1", "adder:8 t1 0"] {
        let err = parse_request(line).unwrap_err();
        assert!(err.contains("at least 3 phases"), "{line}: {err}");
    }
    for line in ["adder:8 nphi 0", "adder:8 1phi 0"] {
        let err = parse_request(line).unwrap_err();
        assert!(err.contains("at least 1 phase"), "{line}: {err}");
    }
    let err = parse_request("adder:100000000 1phi").unwrap_err();
    assert_eq!(
        err,
        "adder width 100000000 is above its largest width 262144"
    );
    assert!(parse_request("adder:8 t1 3").is_ok());
    assert!(parse_request("adder:8 nphi 2").is_ok());
}

#[test]
fn two_options_on_one_axis_are_rejected() {
    for first in CONFIG_TOKENS {
        for second in CONFIG_TOKENS {
            let line = format!("adder:8 t1 4 {first} {second}");
            let same_axis = AXES
                .iter()
                .any(|axis| axis.contains(&first) && axis.contains(&second));
            match parse_total(&line) {
                Some(_) => assert!(!same_axis, "{line:?} accepted"),
                None => {
                    assert!(same_axis, "{line:?} rejected");
                    let err = parse_request(&line).unwrap_err();
                    assert!(err.contains(first) && err.contains(second), "{err}");
                }
            }
        }
    }
}

/// Every subject name at its default, its largest width and one past it,
/// then the flows, the options and the hostile fields.
fn vocabulary() -> Vec<String> {
    let mut words = Vec::new();
    for (name, _, largest) in KNOWN_BENCHMARKS {
        words.push(name.to_string());
        words.push(format!("{name}:{largest}"));
        words.push(format!("{name}:{}", largest + 1));
    }
    for table in [&FLOW_TOKENS[..], &CONFIG_TOKENS[..], &HOSTILE[..]] {
        words.extend(table.iter().map(|w| w.to_string()));
    }
    words
}

/// Renders one line: a subject (four times in five a registry entry,
/// bare or at a random width up to one past its largest; otherwise any
/// vocabulary word), a flow (likewise), then fields drawn from the
/// vocabulary or random phase counts.
fn render_line(words: &[String], head: (usize, u64), fields: &[(usize, u64)]) -> String {
    let (pick, n) = head;
    let mut line = match pick % 5 {
        4 => words[pick % words.len()].clone(),
        _ => {
            let (name, _, largest) = KNOWN_BENCHMARKS[pick % KNOWN_BENCHMARKS.len()];
            match n % 3 {
                0 => name.to_string(),
                _ => format!("{name}:{}", n % (largest as u64 + 2)),
            }
        }
    };
    line.push(' ');
    line.push_str(match n % 5 {
        4 => words[(n as usize) % words.len()].as_str(),
        k => FLOW_TOKENS[k as usize % FLOW_TOKENS.len()],
    });
    for &(pick, n) in fields {
        line.push(' ');
        match pick % (words.len() + 8) {
            i if i < words.len() => line.push_str(&words[i]),
            _ => line.push_str(&(n % 8).to_string()),
        }
    }
    line
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 2048, ..ProptestConfig::default() })]

    #[test]
    fn random_request_lines_parse_or_err(
        head in (any::<usize>(), any::<u64>()),
        fields in prop::collection::vec((any::<usize>(), any::<u64>()), 0..6),
    ) {
        let words = vocabulary();
        parse_total(&render_line(&words, head, &fields));
    }
}
