//! The CLI's flag handling: `--help` lists a subcommand's flags without
//! running it, a flag the subcommand does not read is an error that
//! names the flag instead of being silently ignored, and a malformed
//! value is an error naming the flag and the value instead of being
//! silently replaced by the default.

use std::process::{Command, Output};

fn noiselab(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_noiselab"))
        .args(args)
        .current_dir(std::env::temp_dir())
        .output()
        .expect("spawn noiselab")
}

#[test]
fn every_subcommand_help_lists_its_flags_and_runs_nothing() {
    for (cmd, flag) in [
        ("baseline", "--runs"),
        ("trace", "--out"),
        ("generate", "--traces"),
        ("inject", "--config"),
        ("analyze", "--top"),
        ("report", "--what"),
        ("campaign", "--checkpoint"),
        ("metrics", "--runs"),
        ("advise", "--check"),
        ("audit", "--static"),
        ("conform", "--fuzz"),
    ] {
        let out = noiselab(&[cmd, "--help"]);
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(out.status.success(), "{cmd} --help failed: {out:?}");
        assert!(
            stdout.starts_with(&format!("noiselab {cmd}:")),
            "{cmd}: {stdout}"
        );
        assert!(stdout.contains(flag), "{cmd} --help omits {flag}: {stdout}");
    }
    // Help must not fall through to the default 5-run simulation.
    let out = noiselab(&["metrics", "--help"]);
    assert!(!String::from_utf8_lossy(&out.stdout).contains("run(s)"));
}

#[test]
fn unknown_flags_are_rejected_by_name() {
    for (args, flag) in [
        (&["metrics", "--bogus", "1"][..], "--bogus"),
        (&["baseline", "--runs", "1", "--tracing"], "--tracing"),
        (&["campaign", "--model", "omp"], "--model"),
        (&["audit", "--no-cache"], "--no-cache"),
    ] {
        let out = noiselab(args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(!out.status.success(), "{args:?} succeeded");
        assert!(
            stderr.contains(&format!("unknown flag {flag}")),
            "{args:?}: {stderr}"
        );
        assert!(out.stdout.is_empty(), "{args:?} ran anyway: {out:?}");
    }
}

#[test]
fn malformed_values_are_rejected_by_flag_and_value() {
    for (args, flag, value) in [
        (&["metrics", "--runs", "x"][..], "--runs", "x"),
        (&["baseline", "--seed", "abc"], "--seed", "abc"),
        (&["audit", "--dual-run", "--perturb", "x"], "--perturb", "x"),
        (&["report", "--scale", "papr"], "--scale", "papr"),
        (
            &["campaign", "--runs", "2", "--retries", "-1"],
            "--retries",
            "-1",
        ),
        (&["conform", "--seed", "0xZZ"], "--seed", "0xZZ"),
        (&["metrics", "--json", "yes"], "--json", "yes"),
    ] {
        let out = noiselab(args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(!out.status.success(), "{args:?} succeeded");
        assert!(
            stderr.contains(flag) && stderr.contains(&format!("{value:?}")),
            "{args:?}: {stderr}"
        );
        assert!(out.stdout.is_empty(), "{args:?} ran anyway: {out:?}");
    }
}
