//! Real-process cluster members. The harness spawns actual `lorentz`
//! binaries (leader + standbys) so the chaos run exercises exactly the
//! code paths production would: process death is `kill -9`, a frozen
//! leader is `SIGSTOP`, and every stderr line the operators would see is
//! captured for the post-run invariant checks.

use crate::ChaosError;
use std::io::{BufRead, BufReader};
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// One spawned cluster member with live-captured stderr/stdout.
pub struct Node {
    /// Role label for reports ("leader", "standby0", ...).
    pub name: String,
    child: Child,
    stderr_lines: Arc<Mutex<Vec<String>>>,
    stdout_lines: Arc<Mutex<Vec<String>>>,
    /// Filled by `wait`/`try_wait`; `kill -9` reports the signal status.
    exit_code: Option<Option<i32>>,
}

impl Node {
    /// Spawns `binary` with `args`, capturing stderr and stdout line by
    /// line on reader threads (so a chatty child never blocks on a full
    /// pipe).
    pub fn spawn(name: &str, binary: &Path, args: &[String]) -> Result<Self, ChaosError> {
        let mut child = Command::new(binary)
            .args(args)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
            .map_err(|e| ChaosError::Spawn {
                node: name.to_owned(),
                source: e,
            })?;
        let stderr_lines = capture(child.stderr.take(), name);
        let stdout_lines = capture(child.stdout.take(), name);
        Ok(Self {
            name: name.to_owned(),
            child,
            stderr_lines,
            stdout_lines,
            exit_code: None,
        })
    }

    /// The OS process id (for signals).
    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// Blocks until a stderr line containing `marker` appears, returning
    /// it. Lines keep accumulating while we wait.
    pub fn wait_for_stderr(&self, marker: &str, timeout: Duration) -> Result<String, ChaosError> {
        let deadline = Instant::now() + timeout;
        loop {
            if let Some(line) = self.find_stderr(marker) {
                return Ok(line);
            }
            if Instant::now() >= deadline {
                return Err(ChaosError::Timeout(format!(
                    "{}: no '{marker}' on stderr within {timeout:?}; captured so far:\n{}",
                    self.name,
                    self.stderr().join("\n")
                )));
            }
            std::thread::sleep(Duration::from_millis(10));
        }
    }

    /// The first captured stderr line containing `marker`, if any yet.
    pub fn find_stderr(&self, marker: &str) -> Option<String> {
        self.stderr_lines
            .lock()
            .expect("stderr capture poisoned")
            .iter()
            .find(|l| l.contains(marker))
            .cloned()
    }

    /// Everything captured on stderr so far.
    pub fn stderr(&self) -> Vec<String> {
        self.stderr_lines
            .lock()
            .expect("stderr capture poisoned")
            .clone()
    }

    /// Everything captured on stdout so far.
    pub fn stdout(&self) -> Vec<String> {
        self.stdout_lines
            .lock()
            .expect("stdout capture poisoned")
            .clone()
    }

    /// `kill -9`: the process is gone, no shutdown path runs.
    pub fn kill9(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
        self.exit_code = Some(None);
    }

    /// Sends a POSIX signal by name ("STOP", "CONT") via `kill(1)` —
    /// `std::process` exposes no raw-signal API and the harness is
    /// Linux-only anyway.
    pub fn signal(&self, sig: &str) -> Result<(), ChaosError> {
        let status = Command::new("kill")
            .arg(format!("-{sig}"))
            .arg(self.pid().to_string())
            .status()
            .map_err(|e| ChaosError::Spawn {
                node: format!("kill -{sig} {}", self.name),
                source: e,
            })?;
        if !status.success() {
            return Err(ChaosError::Timeout(format!(
                "kill -{sig} {} ({}) failed with {status}",
                self.name,
                self.pid()
            )));
        }
        Ok(())
    }

    /// Waits for the child to exit on its own, up to `timeout`. Returns
    /// the exit code (`None` = killed by signal).
    pub fn wait_exit(&mut self, timeout: Duration) -> Result<Option<i32>, ChaosError> {
        if let Some(code) = self.exit_code {
            return Ok(code);
        }
        let deadline = Instant::now() + timeout;
        loop {
            match self.child.try_wait() {
                Ok(Some(status)) => {
                    let code = status.code();
                    self.exit_code = Some(code);
                    return Ok(code);
                }
                Ok(None) => {
                    if Instant::now() >= deadline {
                        return Err(ChaosError::Timeout(format!(
                            "{} did not exit within {timeout:?}; stderr so far:\n{}",
                            self.name,
                            self.stderr().join("\n")
                        )));
                    }
                    std::thread::sleep(Duration::from_millis(20));
                }
                Err(e) => {
                    return Err(ChaosError::Spawn {
                        node: format!("wait {}", self.name),
                        source: e,
                    });
                }
            }
        }
    }

    /// Whether the process has already exited.
    pub fn exited(&mut self) -> bool {
        if self.exit_code.is_some() {
            return true;
        }
        match self.child.try_wait() {
            Ok(Some(status)) => {
                self.exit_code = Some(status.code());
                true
            }
            _ => false,
        }
    }
}

impl Drop for Node {
    fn drop(&mut self) {
        if self.exit_code.is_none() {
            // A SIGSTOPped child ignores SIGKILL delivery ordering quirks
            // if left stopped; continue it first so the kill lands.
            let _ = self.signal("CONT");
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

/// Spawns a reader thread draining one child pipe into a shared line
/// buffer.
fn capture<R: std::io::Read + Send + 'static>(
    pipe: Option<R>,
    name: &str,
) -> Arc<Mutex<Vec<String>>> {
    let lines = Arc::new(Mutex::new(Vec::new()));
    if let Some(pipe) = pipe {
        let sink = Arc::clone(&lines);
        let thread_name = format!("chaos-capture-{name}");
        let _ = std::thread::Builder::new()
            .name(thread_name)
            .spawn(move || {
                let reader = BufReader::new(pipe);
                for line in reader.lines() {
                    match line {
                        Ok(line) => sink.lock().expect("capture poisoned").push(line),
                        Err(_) => break,
                    }
                }
            });
    }
    lines
}
