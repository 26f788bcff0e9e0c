//! A built-in TCP fault proxy for the replication link. Standbys
//! subscribe to the proxy's listen address instead of the leader's
//! replication port, so the harness can sever, delay, or heal the
//! replication path without touching client traffic.
//!
//! Modes:
//! * **Forward** — pump bytes both ways unchanged.
//! * **Delay(d)** — pump, sleeping `d` before each forwarded chunk.
//! * **Blackhole** — tear every live bridge (both halves shut down) and
//!   refuse new connections by accepting-and-closing, so followers see a
//!   hard transport error immediately instead of hanging — exactly the
//!   signal their promotion timers count.
//! * **Cut(n)** — one shot: forward `n` more upstream→client bytes, sever
//!   the bridge that carried the last of them, and go back to forwarding.
//!   A test arms it to tear a frame mid-flight (a server falling over
//!   mid-response, a leader dying mid-send) from its own side of the
//!   socket.

use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

/// The proxy's current treatment of replication traffic.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Mode {
    /// Pass bytes through unchanged.
    Forward,
    /// Pass bytes through after a per-chunk delay (milliseconds).
    Delay(u64),
    /// Sever everything; refuse new bridges.
    Blackhole,
    /// Forward this many more upstream→client bytes, then sever.
    Cut(u64),
}

struct ProxyState {
    mode: Mutex<Mode>,
    /// Epoch counter bumped on every blackhole so pump threads notice a
    /// severing that happened while they were blocked in `read`.
    generation: AtomicU64,
    /// Live streams to tear on blackhole (client and upstream halves).
    bridges: Mutex<Vec<TcpStream>>,
    /// Bridges severed by a [`FaultProxy::cut_after`].
    cuts: AtomicU64,
    stop: AtomicBool,
}

/// A running fault proxy in front of one upstream address.
pub struct FaultProxy {
    local: SocketAddr,
    state: Arc<ProxyState>,
    accept_handle: Option<JoinHandle<()>>,
}

impl FaultProxy {
    /// Starts the proxy on an ephemeral local port, forwarding to
    /// `upstream`.
    pub fn start(upstream: SocketAddr) -> std::io::Result<Self> {
        let listener = TcpListener::bind(("127.0.0.1", 0))?;
        let local = listener.local_addr()?;
        listener.set_nonblocking(true)?;
        let state = Arc::new(ProxyState {
            mode: Mutex::new(Mode::Forward),
            generation: AtomicU64::new(0),
            bridges: Mutex::new(Vec::new()),
            cuts: AtomicU64::new(0),
            stop: AtomicBool::new(false),
        });
        let accept_state = Arc::clone(&state);
        let accept_handle = std::thread::Builder::new()
            .name("chaos-proxy-accept".to_owned())
            .spawn(move || accept_loop(listener, upstream, accept_state))?;
        Ok(Self {
            local,
            state,
            accept_handle: Some(accept_handle),
        })
    }

    /// The address standbys should subscribe to.
    pub fn local_addr(&self) -> SocketAddr {
        self.local
    }

    /// Severs every live bridge and refuses new ones until [`heal`].
    ///
    /// [`heal`]: FaultProxy::heal
    pub fn blackhole(&self) {
        *self.state.mode.lock().expect("proxy mode poisoned") = Mode::Blackhole;
        self.state.generation.fetch_add(1, Ordering::AcqRel);
        let mut bridges = self.state.bridges.lock().expect("proxy bridges poisoned");
        for stream in bridges.drain(..) {
            let _ = stream.shutdown(Shutdown::Both);
        }
    }

    /// Delays each forwarded chunk by `ms` milliseconds (both directions).
    pub fn delay(&self, ms: u64) {
        *self.state.mode.lock().expect("proxy mode poisoned") = Mode::Delay(ms);
    }

    /// Returns to transparent forwarding; new subscriptions succeed again.
    pub fn heal(&self) {
        *self.state.mode.lock().expect("proxy mode poisoned") = Mode::Forward;
    }

    /// One-shot tear: forwards `bytes` more upstream→client bytes, then
    /// severs the bridge they crossed and returns to forwarding. The
    /// client receives exactly that prefix and then end-of-stream.
    pub fn cut_after(&self, bytes: u64) {
        *self.state.mode.lock().expect("proxy mode poisoned") = Mode::Cut(bytes);
    }

    /// How many bridges a [`FaultProxy::cut_after`] has severed so far.
    pub fn cuts(&self) -> u64 {
        self.state.cuts.load(Ordering::Acquire)
    }
}

impl Drop for FaultProxy {
    fn drop(&mut self) {
        self.state.stop.store(true, Ordering::Release);
        self.blackhole();
        if let Some(handle) = self.accept_handle.take() {
            let _ = handle.join();
        }
    }
}

fn accept_loop(listener: TcpListener, upstream: SocketAddr, state: Arc<ProxyState>) {
    while !state.stop.load(Ordering::Acquire) {
        match listener.accept() {
            Ok((client, _)) => {
                let mode = *state.mode.lock().expect("proxy mode poisoned");
                if mode == Mode::Blackhole {
                    // Refuse loudly: an immediate close is a transport
                    // error the follower's redial loop sees right away.
                    let _ = client.shutdown(Shutdown::Both);
                    continue;
                }
                let upstream_stream =
                    match TcpStream::connect_timeout(&upstream, Duration::from_millis(500)) {
                        Ok(s) => s,
                        Err(_) => {
                            let _ = client.shutdown(Shutdown::Both);
                            continue;
                        }
                    };
                bridge(client, upstream_stream, &state);
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(5));
            }
            Err(_) => break,
        }
    }
}

/// Wires one client↔upstream bridge with a pump thread per direction.
fn bridge(client: TcpStream, upstream: TcpStream, state: &Arc<ProxyState>) {
    let pairs = match (client.try_clone(), upstream.try_clone()) {
        (Ok(client_clone), Ok(upstream_clone)) => [
            (client, upstream_clone, false),
            (upstream, client_clone, true),
        ],
        _ => return,
    };
    {
        let mut bridges = state.bridges.lock().expect("proxy bridges poisoned");
        for (reader, writer, _) in &pairs {
            if let (Ok(r), Ok(w)) = (reader.try_clone(), writer.try_clone()) {
                bridges.push(r);
                bridges.push(w);
            }
        }
    }
    for (reader, writer, downstream) in pairs {
        let pump_state = Arc::clone(state);
        let _ = std::thread::Builder::new()
            .name("chaos-proxy-pump".to_owned())
            .spawn(move || pump(reader, writer, downstream, &pump_state));
    }
}

/// Pumps one direction of a bridge; `downstream` is upstream→client, the
/// direction a [`Mode::Cut`] counts.
fn pump(mut reader: TcpStream, mut writer: TcpStream, downstream: bool, state: &ProxyState) {
    // A read timeout keeps the pump responsive to blackhole generations
    // even when the link is idle.
    let _ = reader.set_read_timeout(Some(Duration::from_millis(50)));
    let started_gen = state.generation.load(Ordering::Acquire);
    let mut buf = [0u8; 4096];
    loop {
        if state.stop.load(Ordering::Acquire)
            || state.generation.load(Ordering::Acquire) != started_gen
        {
            break;
        }
        let n = match reader.read(&mut buf) {
            Ok(0) => break,
            Ok(n) => n,
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                continue;
            }
            Err(_) => break,
        };
        // How much of the chunk to forward, and whether to sever after.
        let (keep, sever) = {
            let mut mode = state.mode.lock().expect("proxy mode poisoned");
            match *mode {
                Mode::Blackhole => break,
                Mode::Delay(ms) => {
                    drop(mode);
                    std::thread::sleep(Duration::from_millis(ms));
                    (n, false)
                }
                Mode::Cut(left) if downstream && n as u64 >= left => {
                    *mode = Mode::Forward;
                    state.cuts.fetch_add(1, Ordering::AcqRel);
                    (left as usize, true)
                }
                Mode::Cut(left) if downstream => {
                    *mode = Mode::Cut(left - n as u64);
                    (n, false)
                }
                Mode::Cut(_) | Mode::Forward => (n, false),
            }
        };
        if writer.write_all(&buf[..keep]).is_err() || sever {
            break;
        }
    }
    let _ = reader.shutdown(Shutdown::Both);
    let _ = writer.shutdown(Shutdown::Both);
}

#[cfg(test)]
mod tests {
    use super::*;

    /// An echo upstream: whatever arrives is written back.
    fn echo_upstream() -> (SocketAddr, JoinHandle<()>) {
        let listener = TcpListener::bind(("127.0.0.1", 0)).unwrap();
        let addr = listener.local_addr().unwrap();
        let handle = std::thread::spawn(move || {
            for stream in listener.incoming().flatten() {
                std::thread::spawn(move || {
                    let mut stream = stream;
                    let mut buf = [0u8; 256];
                    while let Ok(n) = stream.read(&mut buf) {
                        if n == 0 || stream.write_all(&buf[..n]).is_err() {
                            break;
                        }
                    }
                });
            }
        });
        (addr, handle)
    }

    #[test]
    fn forwards_then_blackholes_then_heals() {
        let (upstream, _handle) = echo_upstream();
        let proxy = FaultProxy::start(upstream).unwrap();

        let mut conn = TcpStream::connect(proxy.local_addr()).unwrap();
        conn.set_read_timeout(Some(Duration::from_secs(2))).unwrap();
        conn.write_all(b"ping").unwrap();
        let mut buf = [0u8; 4];
        conn.read_exact(&mut buf).unwrap();
        assert_eq!(&buf, b"ping");

        // Blackhole: the live bridge tears and a fresh connect is refused
        // (accept-then-close reads as EOF / reset).
        proxy.blackhole();
        std::thread::sleep(Duration::from_millis(50));
        let mut torn = [0u8; 1];
        let torn_read = conn.read(&mut torn);
        assert!(
            matches!(torn_read, Ok(0) | Err(_)),
            "bridge must be severed"
        );
        let mut refused = TcpStream::connect(proxy.local_addr()).unwrap();
        refused
            .set_read_timeout(Some(Duration::from_secs(2)))
            .unwrap();
        let _ = refused.write_all(b"ping");
        let refused_read = refused.read(&mut torn);
        assert!(
            matches!(refused_read, Ok(0) | Err(_)),
            "new bridges refused"
        );

        // Heal: traffic flows again.
        proxy.heal();
        let mut healed = TcpStream::connect(proxy.local_addr()).unwrap();
        healed
            .set_read_timeout(Some(Duration::from_secs(2)))
            .unwrap();
        healed.write_all(b"pong").unwrap();
        healed.read_exact(&mut buf).unwrap();
        assert_eq!(&buf, b"pong");
    }

    #[test]
    fn a_cut_forwards_the_prefix_then_severs_once() {
        let (upstream, _handle) = echo_upstream();
        let proxy = FaultProxy::start(upstream).unwrap();
        proxy.cut_after(3);
        let mut conn = TcpStream::connect(proxy.local_addr()).unwrap();
        conn.set_read_timeout(Some(Duration::from_secs(2))).unwrap();
        // The request crosses whole; only the echo back is counted.
        conn.write_all(b"pingpong").unwrap();
        let mut echoed = Vec::new();
        conn.read_to_end(&mut echoed)
            .expect("end-of-stream, not a timeout");
        assert_eq!(echoed, b"pin", "exactly the prefix, then end-of-stream");
        assert_eq!(proxy.cuts(), 1);

        // One shot: the next bridge forwards everything.
        let mut next = TcpStream::connect(proxy.local_addr()).unwrap();
        next.set_read_timeout(Some(Duration::from_secs(2))).unwrap();
        next.write_all(b"pong").unwrap();
        let mut buf = [0u8; 4];
        next.read_exact(&mut buf).unwrap();
        assert_eq!(&buf, b"pong");
        assert_eq!(proxy.cuts(), 1);
    }
}
