//! Name-addressed benchmark registry.
//!
//! The CLI (`gen`/`opt`/`sta`/`serve`), the `sfq-bench` suites and the
//! `sfq-explore` sweep spec all build benchmarks by name; one registry
//! keeps them agreeing on the legal names, the default and largest widths
//! and the no-silent-typo policy (an unknown name is a hard error listing
//! every known benchmark, so a typo can never fall through to another
//! circuit).

use crate::random::{random_aig, RandomAigConfig};
use crate::{epfl, iscas};
use sfq_netlist::aig::Aig;

/// Seed of the `scale-100k` registry entry: the scale-class benchmark must
/// build the same network everywhere (CI smoke, bench suite, local runs) so
/// structural hashes compare across machines.
pub const SCALE_SEED: u64 = 0x5FA1_E100;

/// Benchmark names the registry resolves, with their default and largest
/// widths (0 = the generator is fixed-size and takes no width). For
/// `scale-100k` the "width" is the gate-construction budget, so
/// `scale-100k:250000` stretches the same generator to a quarter million
/// attempts.
///
/// The largest width keeps each network under ≈4M AND nodes (the figure
/// after each entry is its AND count at that width), so a request for a
/// huge width is refused before anything is built instead of exhausting
/// memory part-way through building it.
pub const KNOWN_BENCHMARKS: [(&str, usize, usize); 9] = [
    ("adder", 128, 1 << 18),       // 2.9M
    ("multiplier", 32, 1 << 9),    // 3.2M
    ("square", 32, 1 << 9),        // 2.0M
    ("sin", 16, 1 << 8),           // 1.3M
    ("log2", 32, 1 << 14),         // 0.8M
    ("voter", 255, (1 << 18) - 1), // 3.8M
    ("c6288", 0, 0),
    ("c7552", 0, 0),
    ("scale-100k", 100_000, 1 << 21), // 3.4M
];

/// Whether `name` is a registered benchmark.
pub fn is_known(name: &str) -> bool {
    KNOWN_BENCHMARKS.iter().any(|&(n, ..)| n == name)
}

/// The registered names, in declaration order (for error messages).
pub fn known_names() -> Vec<&'static str> {
    KNOWN_BENCHMARKS.iter().map(|&(n, ..)| n).collect()
}

/// Checks that the named benchmark can be built at `width` (0 = the
/// benchmark's default) and returns the width it would be built at.
///
/// # Errors
///
/// Unknown names are a hard error listing every known benchmark, and so
/// is a width on a fixed-size benchmark (it would name the same network
/// under a different label), a width above the benchmark's largest (see
/// [`KNOWN_BENCHMARKS`]), and an even or too small `voter` input count.
pub fn check(name: &str, width: usize) -> Result<usize, String> {
    let &(_, default, max) = KNOWN_BENCHMARKS
        .iter()
        .find(|&&(n, ..)| n == name)
        .ok_or_else(|| {
            format!(
                "unknown benchmark '{name}' (known benchmarks: {})",
                known_names().join(", ")
            )
        })?;
    if default == 0 && width != 0 {
        return Err(format!("{name} is fixed-size and takes no width"));
    }
    if width > max {
        return Err(format!(
            "{name} width {width} is above its largest width {max}"
        ));
    }
    if name == "voter" && width != 0 && (width < 3 || width.is_multiple_of(2)) {
        return Err(format!(
            "voter needs an odd input count of at least 3, got {width}"
        ));
    }
    Ok(if width == 0 { default } else { width })
}

/// Builds the named benchmark at `width` (0 = the benchmark's default).
///
/// # Errors
///
/// Whatever [`check`] rejects, before anything is built.
pub fn build(name: &str, width: usize) -> Result<Aig, String> {
    let width = check(name, width)?;
    Ok(match name {
        "adder" => epfl::adder(width),
        "multiplier" => epfl::multiplier(width),
        "square" => epfl::square(width),
        "sin" => epfl::sin(width),
        "log2" => epfl::log2(width),
        "voter" => epfl::voter(width),
        "c6288" => iscas::c6288_like(),
        "c7552" => iscas::c7552_like(),
        "scale-100k" => return build_random(SCALE_SEED, width),
        _ => unreachable!("name validated above"),
    })
}

/// Builds the scale-class network behind `scale-100k` and `gen random`
/// from `seed`: `gates` construction attempts (0 = the entry's default)
/// over 64 inputs and 32 outputs, 30 % of them XORs.
///
/// # Errors
///
/// A gate budget above the `scale-100k` entry's largest width, before
/// anything is built.
pub fn build_random(seed: u64, gates: usize) -> Result<Aig, String> {
    let config = RandomAigConfig {
        num_pis: 64,
        num_gates: check("scale-100k", gates)?,
        num_pos: 32,
        xor_percent: 30,
    };
    Ok(random_aig(seed, &config))
}

/// Parses and [`check`]s a `name[:width]` subject (the spelling shared by
/// `serve` request lines and the explore sweep spec's `benchmarks` axis)
/// without building it. Returns the name and the width (0 when the
/// subject names none).
///
/// # Errors
///
/// A width that is not a positive number, and whatever [`check`] rejects.
pub fn parse_subject(subject: &str) -> Result<(&str, usize), String> {
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
    check(name, width)?;
    Ok((name, width))
}

/// Parses a `name[:width]` subject (see [`parse_subject`]) and builds it.
/// The returned label echoes the subject (`adder:8` keeps its width
/// suffix, `adder` stays bare).
pub fn build_subject(subject: &str) -> Result<(String, Aig), String> {
    let (name, width) = parse_subject(subject)?;
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
    fn random_builds_are_the_scale_entry_under_a_seed() {
        let scale = build("scale-100k", 2_000).unwrap();
        let random = build_random(SCALE_SEED, 2_000).unwrap();
        assert_eq!(scale.structural_hash(), random.structural_hash());
        let other = build_random(SCALE_SEED + 1, 2_000).unwrap();
        assert_ne!(scale.structural_hash(), other.structural_hash());
        let err = build_random(1, 100_000_000_000).unwrap_err();
        assert_eq!(
            err,
            "scale-100k width 100000000000 is above its largest width 2097152"
        );
    }

    #[test]
    fn unknown_names_list_the_registry() {
        let err = build("adedr", 8).unwrap_err();
        assert!(err.contains("unknown benchmark 'adedr'"), "{err}");
        for (name, ..) in KNOWN_BENCHMARKS {
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

    #[test]
    fn widths_are_bounded_before_anything_is_built() {
        // Widths the CLI, CI, the Table-I suites and the scale benchmarks
        // use, and every largest width, pass the check.
        for (name, width) in [
            ("adder", 8),
            ("adder", 64),
            ("multiplier", 64),
            ("sin", 16),
            ("voter", 1001),
            ("scale-100k", 2_000),
            ("scale-100k", 10_000),
            ("scale-100k", 250_000),
        ] {
            assert_eq!(check(name, width), Ok(width), "{name} {width}");
        }
        for (name, default, max) in KNOWN_BENCHMARKS {
            assert_eq!(check(name, 0), Ok(default), "{name} default");
            assert_eq!(check(name, max), Ok(max.max(default)), "{name} largest");
        }
        // One past the largest fails; a huge width fails without building.
        let err = build_subject("adder:100000000").unwrap_err();
        assert_eq!(
            err,
            "adder width 100000000 is above its largest width 262144"
        );
        assert!(build("multiplier", 513).is_err());
        assert!(parse_subject(&format!("adder:{}", usize::MAX)).is_err());
        // The voter generator needs an odd input count of at least 3.
        for bad in ["voter:1", "voter:4"] {
            let err = build_subject(bad).unwrap_err();
            assert!(err.contains("odd input count"), "{bad}: {err}");
        }
        assert_eq!(parse_subject("voter:3"), Ok(("voter", 3)));
    }
}
