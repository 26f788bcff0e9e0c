//! An idle `lorentz serve --listen` runs only the threads it needs, against
//! the real binary: the acceptor (the main thread) and the λ-writer, plus
//! the replication acceptor when `--replicate-listen` is set. TCP reads are
//! answered on their connection's thread, so no worker pool starts.
#![cfg(target_os = "linux")]

use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::Duration;

fn lorentz_bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_lorentz"))
}

fn tmp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("lorentz-idle-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Trains a small model into `dir` and returns its path.
fn train_model(dir: &Path) -> PathBuf {
    let fleet = dir.join("fleet.json");
    let model = dir.join("model.json");
    let status = lorentz_bin()
        .args(["generate", "--servers", "60", "--seed", "5", "--out"])
        .arg(&fleet)
        .status()
        .expect("spawn lorentz generate");
    assert!(status.success(), "generate failed");
    let status = lorentz_bin()
        .args(["train", "--fleet"])
        .arg(&fleet)
        .arg("--out")
        .arg(&model)
        .args(["--trees", "5", "--min-bucket", "3"])
        .status()
        .expect("spawn lorentz train");
    assert!(status.success(), "train failed");
    model
}

/// Starts `lorentz serve --listen 127.0.0.1:0` with `extra` flags, waits
/// until it listens, and returns the sorted names of its threads.
fn idle_thread_names(model: &Path, extra: &[&str]) -> Vec<String> {
    let mut child = lorentz_bin()
        .args(["serve", "--model"])
        .arg(model)
        .args(["--listen", "127.0.0.1:0"])
        .args(extra)
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn lorentz serve");
    let stderr = BufReader::new(child.stderr.take().unwrap());
    let mut seen = Vec::new();
    for line in stderr.lines() {
        let line = line.unwrap();
        let listening = line.starts_with("listening on");
        seen.push(line);
        if listening {
            break;
        }
    }
    // Give a thread started after the banner the chance to show up.
    std::thread::sleep(Duration::from_millis(200));
    let tasks = Path::new("/proc").join(child.id().to_string()).join("task");
    let mut names: Vec<String> = std::fs::read_dir(tasks)
        .map(|entries| {
            entries
                .map(|t| std::fs::read_to_string(t.unwrap().path().join("comm")).unwrap())
                .map(|name| name.trim_end().to_owned())
                .collect()
        })
        .unwrap_or_default();
    names.sort();
    let _ = child.kill();
    let _ = child.wait();
    assert!(
        seen.last().is_some_and(|l| l.starts_with("listening on")),
        "server never listened: {seen:?}"
    );
    names
}

#[test]
fn an_idle_tcp_server_runs_only_its_acceptors_and_the_lambda_writer() {
    let dir = tmp_dir("threads");
    let model = train_model(&dir);
    // Thread names as the kernel keeps them: cut to 15 bytes.
    let (main, writer, replication) = ("lorentz", "lorentz-serve-l", "lorentz-repl-ac");

    assert_eq!(idle_thread_names(&model, &[]), [main, writer]);

    let wal = dir.join("signals.wal");
    let replicated = idle_thread_names(
        &model,
        &[
            "--feedback-wal",
            wal.to_str().unwrap(),
            "--replicate-listen",
            "tcp://127.0.0.1:0",
        ],
    );
    assert_eq!(replicated, [main, replication, writer]);
    let _ = std::fs::remove_dir_all(&dir);
}
