//! The `bfvr` argument contract: `-h`/`--help` anywhere prints usage and
//! succeeds; a flag the command does not read, or a value flag with no
//! value, is a usage error that runs nothing.

use std::process::{Command, Output};

fn bfvr(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_bfvr"))
        .args(args)
        .output()
        .expect("binary runs")
}

const COMMANDS: &[&str] = &[
    "gen", "stats", "convert", "reach", "resume", "serve", "submit", "audit", "lint", "check",
    "trace", "report",
];

#[test]
fn help_anywhere_prints_usage_and_succeeds() {
    let mut cases: Vec<Vec<&str>> = vec![vec!["--help"], vec!["-h"]];
    for &cmd in COMMANDS {
        cases.push(vec![cmd, "--help"]);
        cases.push(vec![cmd, "gen:s27", "-h"]);
    }
    // Help wins over anything else on the line, unknown flags included.
    cases.push(vec!["reach", "gen:s27", "--bogus-flag", "--help"]);
    for args in cases {
        let o = bfvr(&args);
        assert!(o.status.success(), "{args:?} exited {:?}", o.status);
        let out = String::from_utf8_lossy(&o.stdout);
        assert!(out.contains("USAGE:"), "{args:?} printed no usage");
    }
}

#[test]
fn unknown_flag_is_a_usage_error() {
    for &cmd in COMMANDS {
        let o = bfvr(&[cmd, "gen:s27", "--bogus-flag"]);
        assert!(!o.status.success(), "`{cmd}` accepted an unknown flag");
        let err = String::from_utf8_lossy(&o.stderr);
        assert!(
            err.contains("unknown flag `--bogus-flag`"),
            "`{cmd}`: unexpected error text {err:?}"
        );
        assert!(o.stdout.is_empty(), "`{cmd}` ran before rejecting the flag");
    }
    // Another command's flag is just as unknown here.
    let o = bfvr(&["reach", "gen:s27", "--bad", "111"]);
    assert!(!o.status.success());
    // `--frozen` is gone, and `--jobs` belongs to `reach --race` only.
    for (args, flag) in [
        (&["reach", "gen:s27", "--frozen"][..], "--frozen"),
        (&["audit", "gen:s27", "--jobs", "2"][..], "--jobs"),
    ] {
        let o = bfvr(args);
        assert!(!o.status.success(), "{args:?} was accepted");
        let err = String::from_utf8_lossy(&o.stderr);
        assert!(
            err.contains(&format!("unknown flag `{flag}`")),
            "{args:?}: unexpected error text {err:?}"
        );
    }
    // An unknown command is reported as such, flags or not.
    let o = bfvr(&["frobnicate", "--bogus-flag"]);
    assert!(!o.status.success());
    assert!(String::from_utf8_lossy(&o.stderr).contains("unknown command"));
}

#[test]
fn value_flag_without_a_value_is_a_usage_error() {
    let o = bfvr(&["reach", "gen:s27", "--engine"]);
    assert!(!o.status.success());
    assert!(String::from_utf8_lossy(&o.stderr).contains("`--engine` needs a value"));
}

#[test]
fn jobs_without_race_is_a_usage_error() {
    let o = bfvr(&["reach", "gen:s27", "--jobs", "2"]);
    assert!(!o.status.success());
    assert_eq!(
        String::from_utf8_lossy(&o.stderr),
        "error: --jobs requires --race\n"
    );
    assert!(o.stdout.is_empty(), "reach ran before rejecting --jobs");
}

#[test]
fn documented_flags_are_still_accepted() {
    let o = bfvr(&[
        "reach",
        "gen:s27",
        "--engine",
        "bfv",
        "--order",
        "coi",
        "--node-limit",
        "100000",
        "--dump-reached",
    ]);
    assert!(o.status.success(), "{}", String::from_utf8_lossy(&o.stderr));
    let o = bfvr(&["check", "gen:modk:3:5", "--bad", "111", "--sift"]);
    assert!(o.status.success(), "{}", String::from_utf8_lossy(&o.stderr));
    let o = bfvr(&["reach", "gen:s27", "--race", "--jobs", "1"]);
    assert!(o.status.success(), "{}", String::from_utf8_lossy(&o.stderr));
}
