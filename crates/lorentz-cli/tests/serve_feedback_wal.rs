//! A leader's feedback WAL, end to end against the real binary: feedback
//! frames sent over the wire raise λ, land in `--feedback-wal` as one
//! record each, and a server restarted on the same log serves the same λ.

use serde::Deserialize;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStderr, Command, Stdio};

/// A scratch directory under the temp dir, removed on drop.
struct TempDir(PathBuf);

impl TempDir {
    fn new(name: &str) -> Self {
        let dir = std::env::temp_dir().join(format!("lorentz-cli-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        Self(dir)
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// A running `lorentz serve --listen 127.0.0.1:0`, killed on drop unless
/// it was drained.
struct Server {
    child: Child,
    stream: TcpStream,
    _stderr: BufReader<ChildStderr>,
}

impl Server {
    /// Starts a leader on `model` with `--feedback-wal wal` and connects
    /// to the address it prints.
    fn start(model: &Path, wal: &Path) -> Self {
        let mut child = Command::new(env!("CARGO_BIN_EXE_lorentz"))
            .args(["serve", "--model"])
            .arg(model)
            .args(["--listen", "127.0.0.1:0", "--json", "--feedback-wal"])
            .arg(wal)
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
            .expect("spawn lorentz serve");
        // The reader stays open with the server, which writes its ledger
        // to stderr after the drain.
        let mut stderr = BufReader::new(child.stderr.take().unwrap());
        let mut seen = String::new();
        let addr = loop {
            let start = seen.len();
            if stderr.read_line(&mut seen).unwrap_or(0) == 0 {
                let _ = child.kill();
                let _ = child.wait();
                panic!("server never listened: {seen}");
            }
            if let Some(rest) = seen[start..].strip_prefix("listening on ") {
                break rest.split_whitespace().next().unwrap().to_owned();
            }
        };
        let stream = TcpStream::connect(addr).expect("connect to the server");
        Self {
            child,
            stream,
            _stderr: stderr,
        }
    }

    /// Sends one length-prefixed JSON frame and reads the reply frame.
    fn send(&mut self, frame: &str) -> serde::Value {
        let mut out = (frame.len() as u32).to_be_bytes().to_vec();
        out.extend_from_slice(frame.as_bytes());
        self.stream.write_all(&out).unwrap();
        let mut len = [0u8; 4];
        self.stream.read_exact(&mut len).unwrap();
        let mut body = vec![0u8; u32::from_be_bytes(len) as usize];
        self.stream.read_exact(&mut body).unwrap();
        serde_json::parse(std::str::from_utf8(&body).unwrap()).unwrap()
    }

    /// Reads the recommendation for the feedback path and returns its λ.
    fn read_lambda(&mut self) -> f64 {
        let reply =
            self.send(r#"{"id": 0, "customer": 1, "subscription": 2, "resource_group": 3}"#);
        let lambda = reply.get_field("ok").and_then(|ok| ok.get_field("lambda"));
        f64::from_value(lambda.unwrap_or_else(|| panic!("no λ in {reply:?}"))).unwrap()
    }

    /// Drains the server and waits for it to exit cleanly.
    fn drain(mut self) {
        let ack = self.send(r#"{"op": "drain"}"#);
        assert_eq!(
            ack.get_field("ack").and_then(serde::Value::as_str),
            Some("drain")
        );
        assert!(
            self.child.wait().unwrap().success(),
            "serve exited non-zero"
        );
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

#[test]
fn feedback_frames_are_logged_and_replayed_on_restart() {
    let dir = TempDir::new("serve-wal");
    let model = dir.0.join("model.json");
    let wal = dir.0.join("signals.wal");
    lorentz_chaos::build_fixture(&model).expect("train the model fixture");

    let mut server = Server::start(&model, &wal);
    let before = server.read_lambda();
    for _ in 0..2 {
        let ack =
            server.send(r#"{"gamma": 1, "customer": 1, "subscription": 2, "resource_group": 3}"#);
        assert_eq!(
            ack.get_field("ack").and_then(serde::Value::as_str),
            Some("feedback"),
            "{ack:?}"
        );
    }
    let after = server.read_lambda();
    server.drain();
    assert!(after > before, "λ rose: {before} -> {after}");

    // Each acked signal is one record, framed with the epoch-stamped λ
    // delta it published.
    let (_, recovery) = lorentz_core::SignalWal::open(&wal).unwrap();
    assert_eq!(recovery.signals.len(), 2);
    assert_eq!(recovery.torn_tail_bytes, 0);
    assert_eq!(recovery.last_epoch, 3, "seed epoch 1 + two delta publishes");

    let mut restarted = Server::start(&model, &wal);
    let replayed = restarted.read_lambda();
    restarted.drain();
    assert_eq!(replayed.to_bits(), after.to_bits(), "{replayed} vs {after}");
}
