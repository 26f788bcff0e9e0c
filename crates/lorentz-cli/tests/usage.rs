//! Command-line usage errors, against the real binary.

use std::process::Command;

#[test]
fn an_unknown_flag_exits_with_the_usage_status_and_names_the_flag() {
    let output = Command::new(env!("CARGO_BIN_EXE_lorentz"))
        .args(["ticket", "--no-such-flag", "3"])
        .output()
        .expect("spawn lorentz ticket");
    assert_eq!(output.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(stderr.contains("unknown flag --no-such-flag"), "{stderr}");
    assert!(output.stdout.is_empty(), "nothing ran");
}

#[test]
fn listen_with_follow_against_an_unreachable_upstream_fails_and_starts_no_server() {
    let model = std::env::temp_dir().join(format!("lorentz-usage-{}.json", std::process::id()));
    lorentz_chaos::build_fixture(&model).expect("train the model fixture");
    let output = Command::new(env!("CARGO_BIN_EXE_lorentz"))
        .args(["serve", "--model"])
        .arg(&model)
        .args(["--listen", "127.0.0.1:0", "--follow", "tcp://127.0.0.1:1"])
        .output()
        .expect("spawn lorentz serve");
    let _ = std::fs::remove_file(&model);
    assert_eq!(output.status.code(), Some(1), "a runtime error");
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(stderr.contains("replication failed"), "{stderr}");
    assert!(!stderr.contains("listening on"), "nothing served: {stderr}");
}

/// Runs `lorentz serve --model model.json` plus `extra`, which must fail
/// on its flags (exit 2) before reading the model, and returns stderr.
fn serve_usage_error(extra: &[&str]) -> String {
    let output = Command::new(env!("CARGO_BIN_EXE_lorentz"))
        .args(["serve", "--model", "model.json"])
        .args(extra)
        .output()
        .expect("spawn lorentz serve");
    assert_eq!(output.status.code(), Some(2), "{extra:?}");
    assert!(output.stdout.is_empty(), "nothing ran");
    String::from_utf8_lossy(&output.stderr).into_owned()
}

const LEADER: [&str; 2] = ["--listen", "127.0.0.1:0"];
const STANDBY: [&str; 4] = ["--listen", "127.0.0.1:0", "--follow", "tcp://127.0.0.1:1"];

#[test]
fn serve_without_listen_is_a_usage_error_naming_listen() {
    let stderr = serve_usage_error(&[]);
    assert!(stderr.contains("--listen"), "{stderr}");
}

#[test]
fn follow_without_listen_is_a_usage_error_naming_listen() {
    let stderr = serve_usage_error(&["--follow", "tcp://127.0.0.1:1"]);
    assert!(stderr.contains("--listen"), "{stderr}");
}

#[test]
fn the_retired_standby_forms_are_usage_errors() {
    for flag in ["--requests", "--await-promotion", "--run-ms"] {
        let stderr = serve_usage_error(&[&STANDBY[..], &[flag, "1"]].concat());
        assert!(stderr.contains(flag), "{flag}: {stderr}");
    }
}

#[test]
fn the_deleted_request_file_flags_are_usage_errors_on_a_leader() {
    for flag in ["--requests", "--queue-capacity", "--degraded-at"] {
        let stderr = serve_usage_error(&[&LEADER[..], &[flag, "1"]].concat());
        assert!(stderr.contains(flag), "{flag}: {stderr}");
    }
}

#[test]
fn each_role_refuses_the_other_roles_flags() {
    let wal = std::env::temp_dir().join(format!("lorentz-usage-{}.wal", std::process::id()));
    let wal = wal.to_str().unwrap();
    let standby_flags = [
        ["--replica-wal", wal],
        ["--promote-listen", "127.0.0.1:0"],
        ["--promote-after-ms", "300"],
    ];
    for [flag, value] in standby_flags {
        let stderr = serve_usage_error(&[&LEADER[..], &[flag, value]].concat());
        assert!(stderr.contains(flag), "leader {flag}: {stderr}");
    }
    for [flag, value] in [
        ["--feedback-wal", wal],
        ["--replicate-listen", "tcp://127.0.0.1:0"],
    ] {
        let stderr = serve_usage_error(&[&STANDBY[..], &[flag, value]].concat());
        assert!(stderr.contains(flag), "standby {flag}: {stderr}");
    }
    assert!(!std::path::Path::new(wal).exists(), "no log was created");
}
