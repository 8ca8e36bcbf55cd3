//! `loadgen` rejects invalid option values with exit code 2 and a message
//! naming the value, instead of clamping it or printing a nonsense report.

use std::process::Command;

fn loadgen(args: &[&str]) -> (Option<i32>, String, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_loadgen"))
        .args(["--scenario", "attest", "--sessions", "5", "--json"])
        .args(args)
        .output()
        .expect("loadgen runs");
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

#[test]
fn invalid_values_exit_2_with_the_reason() {
    for (args, named) in [
        (&["--rate", "0"][..], "rate_per_sec"),
        (&["--mode", "closed", "--concurrency", "0"], "concurrency"),
        (&["--workers", "0"], "workers"),
        (&["--clients", "0"], "clients"),
        (&["--drop", "1.5"], "drop_chance"),
        (&["--corrupt", "-0.1"], "corrupt_chance"),
        (&["--duplicate", "NaN"], "duplicate_chance"),
        (&["--shards", "0"], "--shards"),
        (&["--switchless-workers", "0"], "--switchless-workers"),
    ] {
        let (code, stdout, stderr) = loadgen(args);
        assert_eq!(code, Some(2), "{args:?}: {stderr}");
        assert!(stdout.is_empty(), "{args:?} printed a report: {stdout}");
        assert!(stderr.contains(named), "{args:?}: {stderr}");
    }
}

#[test]
fn a_valid_run_still_succeeds() {
    let (code, stdout, stderr) = loadgen(&["--mode", "closed", "--concurrency", "1"]);
    assert_eq!(code, Some(0), "{stderr}");
    assert!(stdout.contains("\"completed\":5"), "{stdout}");
}

#[test]
fn the_retired_reference_flag_is_rejected() {
    let (code, stdout, stderr) = loadgen(&["--reference"]);
    assert_ne!(code, Some(0), "{stderr}");
    assert!(stdout.is_empty(), "printed a report: {stdout}");
    assert!(stderr.contains("unknown flag: --reference"), "{stderr}");
}
