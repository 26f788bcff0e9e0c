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
fn listen_with_follow_is_a_usage_error_naming_both_flags() {
    let output = Command::new(env!("CARGO_BIN_EXE_lorentz"))
        .args([
            "serve",
            "--model",
            "model.json",
            "--listen",
            "127.0.0.1:0",
            "--follow",
            "tcp://127.0.0.1:1",
        ])
        .output()
        .expect("spawn lorentz serve");
    assert_eq!(output.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(
        stderr.contains("--listen") && stderr.contains("--follow"),
        "{stderr}"
    );
    assert!(
        !stderr.contains("listening on"),
        "no server started: {stderr}"
    );
    assert!(output.stdout.is_empty(), "nothing ran");
}
