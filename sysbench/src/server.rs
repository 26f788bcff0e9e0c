//! Running the unmodified `lorentz` binary as a child process: a `serve`
//! instance the load generator talks to, and one-shot subcommands
//! (`generate`, `train`) timed from outside.
//!
//! Every child is killed and waited for when its handle drops, so no error
//! path leaves a process behind.

use lorentz_serve::wire;
use serde::{Deserialize, Value};
use std::io::{BufRead, BufReader, Read};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStderr, Command, ExitStatus, Stdio};
use std::time::{Duration, Instant};

/// How long any single child may take before the run gives up on it.
const CHILD_TIMEOUT: Duration = Duration::from_secs(120);

/// Sends one control frame on a connection of its own and returns the reply.
fn control_exchange(addr: SocketAddr, payload: &[u8]) -> Result<Vec<u8>, String> {
    let what = String::from_utf8_lossy(payload);
    let mut stream =
        TcpStream::connect(addr).map_err(|e| format!("{what}: connect {addr}: {e}"))?;
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .map_err(|e| e.to_string())?;
    wire::write_frame(&mut stream, payload).map_err(|e| format!("{what}: {e}"))?;
    wire::read_frame(&mut stream, wire::MAX_FRAME_LEN_DEFAULT)
        .map_err(|e| format!("{what}: waiting for the reply: {e}"))
}

/// Peak resident set size (`VmHWM`) of a live process, in kB.
pub fn vm_hwm_kb(pid: u32) -> Option<u64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// Resets this process's own `VmHWM` to its current resident set size, so
/// that the next reading is the peak since this call and not since the
/// process started.
pub fn reset_own_vm_hwm() -> Result<(), String> {
    std::fs::write("/proc/self/clear_refs", "5")
        .map_err(|e| format!("cannot reset VmHWM through /proc/self/clear_refs: {e}"))
}

/// Kills and reaps the child if it is still running.
struct Reaper(Child);

impl Drop for Reaper {
    fn drop(&mut self) {
        if matches!(self.0.try_wait(), Ok(None)) {
            let _ = self.0.kill();
        }
        let _ = self.0.wait();
    }
}

impl Reaper {
    /// Waits for exit, polling `on_tick` every millisecond — the poll is the
    /// resolution of a child's wall time, and at 5 ms a 45 ms `generate`
    /// read 42 or 57 ms. Kills the child and errors after [`CHILD_TIMEOUT`].
    fn wait(&mut self, mut on_tick: impl FnMut(u32)) -> Result<ExitStatus, String> {
        let started = Instant::now();
        let pid = self.0.id();
        loop {
            match self.0.try_wait() {
                Ok(Some(status)) => return Ok(status),
                Ok(None) => {}
                Err(e) => return Err(format!("waiting for child {pid}: {e}")),
            }
            if started.elapsed() > CHILD_TIMEOUT {
                let _ = self.0.kill();
                return Err(format!("child {pid} did not exit within {CHILD_TIMEOUT:?}"));
            }
            on_tick(pid);
            std::thread::sleep(Duration::from_millis(1));
        }
    }
}

/// What one finished one-shot child cost.
pub struct ChildRun {
    pub wall: Duration,
    pub status: ExitStatus,
    /// Last `VmHWM` seen while the child ran (polled every 1 ms; the peak
    /// is monotone, so this trails the true peak by at most one poll).
    pub peak_rss_kb: u64,
    pub stderr: String,
}

/// Runs `lorentz <args>` to completion, timing spawn → exit.
pub fn run_lorentz(lorentz: &Path, args: &[&str]) -> Result<ChildRun, String> {
    let started = Instant::now();
    let child = Command::new(lorentz)
        .args(args)
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .map_err(|e| format!("cannot run {}: {e}", lorentz.display()))?;
    let mut child = Reaper(child);
    let mut peak_rss_kb = 0;
    let status = child.wait(|pid| {
        if let Some(kb) = vm_hwm_kb(pid) {
            peak_rss_kb = kb;
        }
    })?;
    let wall = started.elapsed();
    let mut stderr = String::new();
    if let Some(mut pipe) = child.0.stderr.take() {
        let _ = pipe.read_to_string(&mut stderr);
    }
    Ok(ChildRun {
        wall,
        status,
        peak_rss_kb,
        stderr,
    })
}

/// How to start one `lorentz serve --listen` instance.
pub struct ServerConfig<'a> {
    pub lorentz: &'a Path,
    pub model: &'a Path,
    pub shards: usize,
    pub workers: usize,
    pub feedback_wal: Option<&'a Path>,
    pub metrics_out: &'a Path,
}

/// A running `lorentz serve --listen 127.0.0.1:0` child.
pub struct Server {
    child: Reaper,
    stderr: BufReader<ChildStderr>,
    pub addr: SocketAddr,
    metrics_out: PathBuf,
    /// Spawn → first `pong`: model load, WAL replay, engine start, bind.
    pub setup: Duration,
}

/// The server's own account of the run, read after it drained.
pub struct ServerReport {
    /// The `--json` ledger printed on stdout.
    pub ledger: Value,
    /// The `--metrics-out` snapshot.
    pub metrics: Value,
    pub peak_rss_kb: u64,
}

impl ServerReport {
    /// A ledger field (`submitted`, `accepted`, `frames_in`, ...).
    pub fn ledger_u64(&self, field: &str) -> Result<u64, String> {
        self.ledger
            .get_field(field)
            .and_then(|v| u64::from_value(v).ok())
            .ok_or_else(|| format!("server ledger has no integer field '{field}'"))
    }

    /// A counter of the metrics snapshot (0 when it was never registered).
    pub fn counter(&self, name: &str) -> u64 {
        self.metrics
            .get_field("counters")
            .and_then(|c| c.get_field(name))
            .and_then(|v| u64::from_value(v).ok())
            .unwrap_or(0)
    }
}

impl Server {
    pub fn start(config: &ServerConfig<'_>) -> Result<Self, String> {
        let started = Instant::now();
        let mut command = Command::new(config.lorentz);
        command
            .arg("serve")
            .arg("--model")
            .arg(config.model)
            .args(["--listen", "127.0.0.1:0"])
            .args(["--shards", &config.shards.to_string()])
            .args(["--workers", &config.workers.to_string()])
            .arg("--json")
            .arg("--metrics-out")
            .arg(config.metrics_out);
        if let Some(wal) = config.feedback_wal {
            command.arg("--feedback-wal").arg(wal);
        }
        let mut child = Reaper(
            command
                .stdin(Stdio::null())
                .stdout(Stdio::piped())
                .stderr(Stdio::piped())
                .spawn()
                .map_err(|e| format!("cannot run {}: {e}", config.lorentz.display()))?,
        );
        let mut stderr = BufReader::new(child.0.stderr.take().expect("stderr is piped"));
        // The server announces its kernel-assigned port once the engine is up.
        let mut seen = String::new();
        let addr: SocketAddr = loop {
            let mut line = String::new();
            let n = stderr
                .read_line(&mut line)
                .map_err(|e| format!("reading server stderr: {e}"))?;
            if n == 0 {
                return Err(format!("lorentz serve exited before listening: {seen}"));
            }
            if let Some(rest) = line.strip_prefix("listening on ") {
                let addr = rest.split_whitespace().next().unwrap_or("");
                break addr
                    .parse()
                    .map_err(|e| format!("bad listen address '{addr}': {e}"))?;
            }
            seen.push_str(&line);
        };
        let pong = control_exchange(addr, b"{\"op\": \"ping\"}")?;
        if !pong.windows(4).any(|w| w == b"pong") {
            return Err(format!(
                "expected a pong, got {}",
                String::from_utf8_lossy(&pong)
            ));
        }
        Ok(Self {
            child,
            stderr,
            addr,
            metrics_out: config.metrics_out.to_path_buf(),
            setup: started.elapsed(),
        })
    }

    /// Sends the drain frame, waits for the process to exit, and collects
    /// its ledger, metrics snapshot and peak memory.
    pub fn drain(mut self) -> Result<ServerReport, String> {
        let pid = self.child.0.id();
        // Read before exit: /proc/<pid> is gone afterwards.
        let peak_rss_kb = vm_hwm_kb(pid).ok_or_else(|| format!("no VmHWM for pid {pid}"))?;
        control_exchange(self.addr, b"{\"op\": \"drain\"}")?;
        let status = self.child.wait(|_| ())?;
        let mut stdout = String::new();
        self.child
            .0
            .stdout
            .take()
            .expect("stdout is piped")
            .read_to_string(&mut stdout)
            .map_err(|e| format!("reading server stdout: {e}"))?;
        let mut log = String::new();
        let _ = self.stderr.read_to_string(&mut log);
        if !status.success() {
            return Err(format!("lorentz serve exited with {status}: {log}"));
        }
        let ledger =
            serde_json::parse(&stdout).map_err(|e| format!("server --json ledger: {e}"))?;
        let metrics_text = std::fs::read_to_string(&self.metrics_out)
            .map_err(|e| format!("{}: {e}", self.metrics_out.display()))?;
        let metrics =
            serde_json::parse(&metrics_text).map_err(|e| format!("server metrics: {e}"))?;
        Ok(ServerReport {
            ledger,
            metrics,
            peak_rss_kb,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn resetting_the_high_water_mark_forgets_an_earlier_peak() {
        const MB: usize = 1 << 20;
        let own = std::process::id();
        // Touch every page of a block large enough to stand clear of what
        // the tests running beside this one allocate.
        let block = vec![1u8; 256 * MB];
        assert_eq!(
            block
                .iter()
                .step_by(4096)
                .map(|b| *b as usize)
                .sum::<usize>(),
            256 * MB / 4096
        );
        drop(block);
        let peak_kb = vm_hwm_kb(own).unwrap();
        assert!(peak_kb as usize >= 256 * MB / 1024);
        reset_own_vm_hwm().unwrap();
        let after_kb = vm_hwm_kb(own).unwrap();
        assert!(
            after_kb + 128 * 1024 < peak_kb,
            "VmHWM {after_kb} kB after the reset, {peak_kb} kB before"
        );
    }
}
