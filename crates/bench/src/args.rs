//! The one command-line parser: a declarative flag table per command.
//!
//! Every front end (each `sfq-t1` subcommand and the `ablation` binary) is
//! a `const` [`Command`]: name, positional synopsis, one-line description
//! and the [`Flag`]s it accepts. That one table drives [`parse`], the
//! unknown-flag error and the usage text, so the three never disagree.
//!
//! Parsing fails loudly, never with a silently dropped file or a silent
//! default: a `-`-prefixed token outside the table, a value flag with no
//! value (or whose value looks like a flag, `--csv --small`), a flag given
//! twice, and too few or too many positionals are all errors. Positionals
//! may come before or after the flags; `-h`/`--help` anywhere asks for the
//! usage instead of a run.

use sfq_engine::{default_workers, DiskStore, ResultCache};
use std::fmt::Display;
use std::str::FromStr;
use std::sync::Arc;

/// One flag, written as its usage line: the spelling, an optional value
/// placeholder, two spaces, the help text — `"--jobs N  worker threads"`.
/// A flag with a placeholder consumes the next argument as its value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Flag(pub &'static str);

impl Flag {
    fn split(self) -> (&'static str, &'static str) {
        self.0.split_once("  ").unwrap_or((self.0, ""))
    }

    /// The spelling, e.g. `--jobs` or `-o`.
    pub fn name(self) -> &'static str {
        self.split().0.split(' ').next().unwrap_or_default()
    }

    fn placeholder(self) -> Option<&'static str> {
        self.split().0.split_once(' ').map(|(_, v)| v)
    }
}

/// Engine worker threads.
pub const JOBS: Flag = Flag("--jobs N  engine worker threads (default: available parallelism)");
/// CSV output of the command's table.
pub const CSV: Flag = Flag("--csv FILE  write the table as CSV");
/// Persistent result store.
pub const CACHE_DIR: Flag = Flag("--cache-dir DIR  persistent result store (second runs hit it)");
/// Chrome-trace output.
pub const TRACE: Flag = Flag("--trace FILE  Chrome-trace JSON of the run (chrome://tracing)");
/// Schema-versioned perf report output.
pub const BENCH_JSON: Flag = Flag("--bench-json FILE  BENCH_*.json perf report of the run");
/// The `sfq-opt` stage before mapping.
pub const PRE_OPT: Flag = Flag("--pre-opt  run the sfq-opt stage before mapping");
/// CI-scale benchmark widths.
pub const SMALL: Flag = Flag("--small  CI-scale benchmark widths");
/// Clock phase count.
pub const PHASES: Flag = Flag("--phases N  number of clock phases (default 4)");
/// The command's output file.
pub const OUTPUT: Flag = Flag("-o FILE  output file");

/// Every command's implicit `-h`/`--help`.
const HELP: Flag = Flag("-h, --help  print this help");

/// A command's flag table: everything the parser, the unknown-flag error
/// and the usage text know about it.
#[derive(Debug, Clone, Copy)]
pub struct Command {
    /// The command words, e.g. `opt` or `store gc`.
    pub name: &'static str,
    /// Positional synopsis, `<x>` required and `[x]` optional, e.g.
    /// `<benchmark|in.aag> [width]`; the accepted count is read off it.
    pub positionals: &'static str,
    /// One-line description.
    pub about: &'static str,
    /// Every flag the command accepts.
    pub flags: &'static [Flag],
}

impl Command {
    fn flag(&self, name: &str) -> Option<Flag> {
        self.flags.iter().copied().find(|f| f.name() == name)
    }

    fn synopsis(&self, program: &str) -> String {
        let parts = [program, self.name, self.positionals, "[flags]"];
        let parts: Vec<&str> = parts.into_iter().filter(|p| !p.is_empty()).collect();
        parts.join(" ")
    }

    /// Usage text generated from the table; `program` (e.g. `sfq-t1`)
    /// prefixes the command name, empty for a standalone binary.
    pub fn usage(&self, program: &str) -> String {
        let mut out = format!("{}\n  {}\n", self.synopsis(program), self.about);
        for f in self.flags.iter().chain(&[HELP]) {
            let (spec, help) = f.split();
            out.push_str(&format!("  {spec:<22} {help}\n"));
        }
        out
    }
}

/// What [`parse`] found: the positionals and the flags given.
#[derive(Debug, Clone)]
pub struct Args {
    cmd: &'static Command,
    positionals: Vec<String>,
    given: Vec<(&'static str, Option<String>)>,
}

/// Parses `argv` (the arguments after the command words) against `cmd`'s
/// table. `Ok(None)` means `-h`/`--help` was given: the caller prints
/// [`Command::usage`] and does no work.
pub fn parse(cmd: &'static Command, argv: &[String]) -> Result<Option<Args>, String> {
    if argv.iter().any(|a| a == "-h" || a == "--help") {
        return Ok(None);
    }
    let name = cmd.name;
    let mut args = Args {
        cmd,
        positionals: Vec::new(),
        given: Vec::new(),
    };
    let mut rest = argv.iter();
    while let Some(token) = rest.next() {
        if !token.starts_with('-') {
            args.positionals.push(token.clone());
            continue;
        }
        let Some(flag) = cmd.flag(token) else {
            let names: Vec<&str> = cmd.flags.iter().map(|f| f.name()).collect();
            let names = names.join(", ");
            return Err(format!("{name}: unknown flag '{token}' (flags: {names})"));
        };
        if args.given.iter().any(|(n, _)| *n == flag.name()) {
            return Err(format!("{name}: flag '{token}' given twice"));
        }
        let value = match flag.placeholder() {
            None => None,
            Some(placeholder) => match rest.next() {
                Some(v) if !v.starts_with('-') => Some(v.clone()),
                _ => return Err(format!("{token} requires {}", describe(placeholder))),
            },
        };
        args.given.push((flag.name(), value));
    }
    let words: Vec<&str> = cmd.positionals.split_whitespace().collect();
    let required = words.iter().filter(|w| !w.starts_with('[')).count();
    let n = args.positionals.len();
    let problem = if n < required {
        format!("missing {}", words[n])
    } else if n > words.len() {
        format!("unexpected argument '{}'", args.positionals[words.len()])
    } else {
        return Ok(Some(args));
    };
    let usage = cmd.synopsis("");
    Err(format!("{name}: {problem} (usage: {usage})"))
}

fn describe(placeholder: &str) -> &'static str {
    match placeholder {
        "FILE" => "a file path",
        "DIR" => "a directory",
        "LIST" => "a comma-separated list",
        _ => "a number",
    }
}

impl Args {
    /// The `i`-th positional argument, if given.
    pub fn positional(&self, i: usize) -> Option<&str> {
        self.positionals.get(i).map(String::as_str)
    }

    /// Whether `flag` was given. Asking for a flag outside the command's
    /// table is a bug in the caller and panics.
    pub fn has(&self, flag: &str) -> bool {
        self.entry(flag).is_some()
    }

    /// The value of the value flag `flag`, if given.
    pub fn value(&self, flag: &str) -> Option<&str> {
        self.entry(flag).and_then(|(_, v)| v.as_deref())
    }

    fn entry(&self, flag: &str) -> Option<&(&'static str, Option<String>)> {
        let known = self.cmd.flag(flag).is_some();
        assert!(known, "{}: {flag} is not in the flag table", self.cmd.name);
        self.given.iter().find(|(n, _)| *n == flag)
    }

    /// Parses the value of `flag`: `Ok(None)` when absent, an error naming
    /// the flag when malformed.
    pub fn parse<T: FromStr>(&self, flag: &str) -> Result<Option<T>, String>
    where
        T::Err: Display,
    {
        self.value(flag)
            .map(|v| v.parse().map_err(|e| format!("bad {flag} '{v}': {e}")))
            .transpose()
    }

    /// Like [`Args::parse`], but the value must also be positive.
    pub fn positive<T>(&self, flag: &str) -> Result<Option<T>, String>
    where
        T: FromStr + Default + PartialOrd,
        T::Err: Display,
    {
        match self.parse::<T>(flag)? {
            Some(n) if n <= T::default() => Err(format!(
                "bad {flag} '{}': not a positive integer",
                self.value(flag).unwrap_or_default()
            )),
            n => Ok(n),
        }
    }

    /// `--jobs N` (N ≥ 1), defaulting to the available parallelism.
    pub fn jobs(&self) -> Result<usize, String> {
        Ok(self.positive("--jobs")?.unwrap_or_else(default_workers))
    }

    /// `--cache-dir DIR`, opened as an in-memory [`ResultCache`] layered
    /// over a [`DiskStore`], ready for
    /// [`SuiteRunner::with_store`](sfq_engine::SuiteRunner::with_store).
    pub fn store(&self) -> Result<Option<Arc<ResultCache>>, String> {
        let Some(dir) = self.value("--cache-dir") else {
            return Ok(None);
        };
        let disk = DiskStore::open(dir).map_err(|e| format!("--cache-dir {dir}: {e}"))?;
        Ok(Some(Arc::new(ResultCache::with_backing(Arc::new(disk)))))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const TEST: Command = Command {
        name: "test",
        positionals: "<subject> [width]",
        about: "a command for the parser's tests",
        flags: &[
            JOBS,
            CSV,
            CACHE_DIR,
            TRACE,
            BENCH_JSON,
            SMALL,
            Flag("--rounds N  limit"),
        ],
    };

    fn parse_list(list: &[&str]) -> Result<Option<Args>, String> {
        let argv: Vec<String> = list.iter().map(|s| s.to_string()).collect();
        parse(&TEST, &argv)
    }

    fn ok(list: &[&str]) -> Args {
        parse_list(list).expect("parses").expect("not --help")
    }

    fn err(list: &[&str]) -> String {
        parse_list(list).expect_err("must be rejected")
    }

    #[test]
    fn csv_present_absent_and_missing_path() {
        assert_eq!(
            ok(&["x", "--csv", "out.csv"]).value("--csv"),
            Some("out.csv")
        );
        assert_eq!(ok(&["x", "--small"]).value("--csv"), None);
        assert_eq!(err(&["x", "--csv"]), "--csv requires a file path");
        assert_eq!(
            err(&["x", "--csv", "--small"]),
            "--csv requires a file path"
        );
    }

    #[test]
    fn cache_dir_present_absent_and_missing_path() {
        let a = ok(&["x", "--cache-dir", "store"]);
        assert_eq!(a.value("--cache-dir"), Some("store"));
        assert_eq!(
            err(&["x", "--cache-dir"]),
            "--cache-dir requires a directory"
        );
        assert!(ok(&["x"]).store().unwrap().is_none());
    }

    #[test]
    fn trace_and_bench_json_fail_loudly_on_missing_paths() {
        assert_eq!(
            ok(&["x", "--trace", "t.json"]).value("--trace"),
            Some("t.json")
        );
        err(&["x", "--trace", "--small"]);
        err(&["x", "--bench-json"]);
    }

    #[test]
    fn jobs_valid_invalid_and_default() {
        assert_eq!(ok(&["x", "--jobs", "3"]).jobs().unwrap(), 3);
        assert!(ok(&["x"]).jobs().unwrap() >= 1, "defaults to ≥ 1");
        assert_eq!(err(&["x", "--jobs"]), "--jobs requires a number");
        let zero = ok(&["x", "--jobs", "0"]).jobs().unwrap_err();
        assert_eq!(zero, "bad --jobs '0': not a positive integer");
        let word = ok(&["x", "--jobs", "abc"]).jobs().unwrap_err();
        assert!(word.starts_with("bad --jobs 'abc': "), "{word}");
    }

    #[test]
    fn unknown_repeated_and_miscounted_arguments_are_errors() {
        let names = "--jobs, --csv, --cache-dir, --trace, --bench-json, --small, --rounds";
        let unknown = format!("test: unknown flag '--smal' (flags: {names})");
        assert_eq!(err(&["x", "--smal"]), unknown);
        let twice = err(&["x", "--rounds", "1", "--rounds", "2"]);
        assert_eq!(twice, "test: flag '--rounds' given twice");
        let usage = "(usage: test <subject> [width] [flags])";
        assert_eq!(
            err(&["--small"]),
            format!("test: missing <subject> {usage}")
        );
        let extra = format!("test: unexpected argument 'extra' {usage}");
        assert_eq!(err(&["x", "8", "extra"]), extra);
    }

    #[test]
    fn positionals_anywhere_and_help_before_validation() {
        let a = ok(&["--small", "x", "--rounds", "2", "8"]);
        assert_eq!((a.positional(0), a.positional(1)), (Some("x"), Some("8")));
        assert_eq!(a.parse::<u32>("--rounds").unwrap(), Some(2));
        assert!(a.has("--small") && !a.has("--csv"));
        assert!(parse_list(&["--smal", "-h"]).unwrap().is_none());
    }

    #[test]
    fn usage_is_generated_from_the_table() {
        let text = TEST.usage("prog");
        assert!(
            text.starts_with("prog test <subject> [width] [flags]\n"),
            "{text}"
        );
        assert!(
            text.contains("\n  --jobs N               engine worker threads"),
            "{text}"
        );
        assert!(
            text.ends_with("\n  -h, --help             print this help\n"),
            "{text}"
        );
    }

    #[test]
    #[should_panic(expected = "--nope is not in the flag table")]
    fn asking_for_an_undeclared_flag_is_a_bug() {
        ok(&["x"]).has("--nope");
    }
}
