//! Name-addressed benchmark registry.
//!
//! The CLI (`gen`/`opt`/`sta`/`serve`) and the `sfq-explore` sweep spec all
//! resolve benchmarks by name; one registry keeps them agreeing on the
//! legal names, the default widths and the no-silent-typo policy (an
//! unknown name is a hard error listing every known benchmark, so a typo
//! can never fall through to another circuit).

use crate::random::{random_aig, RandomAigConfig};
use crate::{epfl, iscas};
use sfq_netlist::aig::Aig;

/// Seed of the `scale-100k` registry entry: the scale-class benchmark must
/// build the same network everywhere (CI smoke, bench suite, local runs) so
/// structural hashes compare across machines.
pub const SCALE_SEED: u64 = 0x5FA1_E100;

/// Benchmark names the registry resolves, with their default widths
/// (0 = the generator is fixed-size and takes no width). For `scale-100k`
/// the "width" is the gate-construction budget, so `scale-100k:250000`
/// stretches the same generator to a quarter million attempts.
pub const KNOWN_BENCHMARKS: [(&str, usize); 9] = [
    ("adder", 128),
    ("multiplier", 32),
    ("square", 32),
    ("sin", 16),
    ("log2", 32),
    ("voter", 255),
    ("c6288", 0),
    ("c7552", 0),
    ("scale-100k", 100_000),
];

/// Whether `name` is a registered benchmark.
pub fn is_known(name: &str) -> bool {
    KNOWN_BENCHMARKS.iter().any(|(n, _)| *n == name)
}

/// The registered names, in declaration order (for error messages).
pub fn known_names() -> Vec<&'static str> {
    KNOWN_BENCHMARKS.iter().map(|&(n, _)| n).collect()
}

/// Builds the named benchmark at `width` (0 = the benchmark's default).
///
/// # Errors
///
/// Unknown names are a hard error listing every known benchmark, and so is
/// a width on a fixed-size benchmark (it would name the same network under
/// a different label).
pub fn build(name: &str, width: usize) -> Result<Aig, String> {
    let default = KNOWN_BENCHMARKS
        .iter()
        .find(|(n, _)| *n == name)
        .map(|&(_, w)| w)
        .ok_or_else(|| {
            format!(
                "unknown benchmark '{name}' (known benchmarks: {})",
                known_names().join(", ")
            )
        })?;
    if default == 0 && width != 0 {
        return Err(format!("{name} is fixed-size and takes no width"));
    }
    let width = if width == 0 { default } else { width };
    Ok(match name {
        "adder" => epfl::adder(width),
        "multiplier" => epfl::multiplier(width),
        "square" => epfl::square(width),
        "sin" => epfl::sin(width),
        "log2" => epfl::log2(width),
        "voter" => epfl::voter(width),
        "c6288" => iscas::c6288_like(),
        "c7552" => iscas::c7552_like(),
        "scale-100k" => random_aig(
            SCALE_SEED,
            &RandomAigConfig {
                num_pis: 64,
                num_gates: width,
                num_pos: 32,
                xor_percent: 30,
            },
        ),
        _ => unreachable!("name validated above"),
    })
}

/// Parses a `name[:width]` subject (the spelling shared by `serve`
/// request lines and the explore sweep spec's `benchmarks` axis) and
/// builds it. The returned label echoes the subject (`adder:8` keeps its
/// width suffix, `adder` stays bare).
pub fn build_subject(subject: &str) -> Result<(String, Aig), String> {
    let (name, width) = match subject.split_once(':') {
        Some((name, w)) => {
            let width: usize = w
                .parse()
                .ok()
                .filter(|&w| w >= 1)
                .ok_or_else(|| format!("bad width '{w}' in '{subject}'"))?;
            (name, width)
        }
        None => (subject, 0),
    };
    Ok((subject.to_string(), build(name, width)?))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_registered_name_builds() {
        // Small explicit widths for the parametric generators keep this a
        // unit-speed test; the fixed-size ISCAS pair takes the default.
        for (name, width) in [
            ("adder", 8),
            ("multiplier", 4),
            ("square", 4),
            ("sin", 8),
            ("log2", 8),
            ("voter", 15),
            ("c6288", 0),
            ("c7552", 0),
            ("scale-100k", 2_000),
        ] {
            assert!(is_known(name), "{name} must be registered");
            let aig = build(name, width).expect(name);
            assert!(aig.po_count() > 0, "{name} has no outputs");
        }
    }

    #[test]
    fn scale_benchmark_is_deterministic_across_builds() {
        let a = build("scale-100k", 3_000).unwrap();
        let b = build("scale-100k", 3_000).unwrap();
        assert_eq!(a.structural_hash(), b.structural_hash());
        assert_eq!(a.pi_count(), 64);
        assert_eq!(a.po_count(), 32);
        assert!(a.and_count() > 2_000, "strashing must not collapse it");
    }

    #[test]
    fn unknown_names_list_the_registry() {
        let err = build("adedr", 8).unwrap_err();
        assert!(err.contains("unknown benchmark 'adedr'"), "{err}");
        for (name, _) in KNOWN_BENCHMARKS {
            assert!(err.contains(name), "error must list {name}: {err}");
        }
    }

    #[test]
    fn subjects_parse_widths_and_reject_bad_ones() {
        let (label, aig) = build_subject("adder:8").unwrap();
        assert_eq!(label, "adder:8");
        assert_eq!(aig.pi_count(), 16);
        let (label, _) = build_subject("c6288").unwrap();
        assert_eq!(label, "c6288");
        assert!(build_subject("adder:x").is_err());
        assert!(build_subject("adder:0").is_err());
        assert!(build_subject("nope:4").is_err());
        for fixed in ["c6288", "c7552"] {
            let err = build_subject(&format!("{fixed}:3")).unwrap_err();
            assert_eq!(err, format!("{fixed} is fixed-size and takes no width"));
        }
    }
}
