//! CLI contract tests for the `repro` binary's failure modes: bad
//! input must name the valid choices and exit non-zero, never panic.

use std::process::Command;

fn repro(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_repro")).args(args).output().expect("spawn repro")
}

#[test]
fn unknown_trace_scenario_lists_valid_names_and_exits_nonzero() {
    let out = repro(&["trace", "no-such-scenario"]);
    assert_eq!(out.status.code(), Some(2), "unknown scenario must exit 2");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("no-such-scenario"), "stderr names the bad input: {err}");
    for name in mce_bench::trace::SCENARIOS {
        assert!(err.contains(name), "stderr must list valid scenario {name:?}: {err}");
    }
    assert!(err.contains("all"), "stderr must mention the `all` alias: {err}");
    assert!(!err.contains("panicked"), "validation, not a panic: {err}");
}

#[test]
fn unknown_subcommand_exits_nonzero_with_hint() {
    let out = repro(&["definitely-not-a-subcommand"]);
    assert_eq!(out.status.code(), Some(2));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("unknown subcommand"), "stderr: {err}");
}

#[test]
fn known_trace_scenario_with_explicit_flag_is_not_rejected_up_front() {
    // `figure 9` exercises the other validated path: a bad figure
    // number exits 2 with the valid set named.
    let out = repro(&["figure", "9"]);
    assert_eq!(out.status.code(), Some(2));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains('4') && err.contains('6'), "stderr names valid figures: {err}");
}

#[test]
fn non_numeric_arguments_name_the_expected_form_and_exit_2() {
    let cases: &[(&[&str], &str)] = &[
        (&["figure", "x"], "4, 5, 6"),
        (&["schedule-audit", "x"], "dimension"),
        (&["robustness", "x"], "dimension"),
        (&["interference", "x", "--quick"], "dimension"),
        (&["trace", "hotspot", "x"], "dimension"),
    ];
    for (args, expected_form) in cases {
        let out = repro(args);
        let err = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?} must exit 2: {err}");
        assert!(err.contains("\"x\""), "{args:?}: stderr names the bad input: {err}");
        assert!(err.contains(expected_form), "{args:?}: stderr names the expected form: {err}");
        assert!(!err.contains("panicked"), "{args:?}: validation, not a panic: {err}");
    }
}
