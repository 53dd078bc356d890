//! The `ablation` binary parses its flags from its table: malformed
//! invocations fail before any section runs, and `--help` prints the table.

fn ablation(args: &[&str]) -> std::process::Output {
    std::process::Command::new(env!("CARGO_BIN_EXE_ablation"))
        .args(args)
        .output()
        .expect("run ablation")
}

#[test]
fn malformed_invocations_fail_and_help_lists_every_flag() {
    for (args, named) in [
        (&["--bogus"][..], "unknown flag '--bogus'"),
        (&["--small", "--paper"], "--small and --paper"),
        (&["--jobs", "0"], "--jobs"),
        (&["extra"], "unexpected argument 'extra'"),
    ] {
        let out = ablation(args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            !out.status.success() && stderr.contains(named),
            "{args:?}: {stderr}"
        );
        assert!(out.stdout.is_empty(), "{args:?} ran a section");
    }
    let out = ablation(&["--help"]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success() && !stdout.contains("==="), "{stdout}");
    for flag in ["--jobs", "--pre-opt", "--small", "--paper", "--cache-dir"] {
        assert!(stdout.contains(flag), "{stdout}");
    }
}
