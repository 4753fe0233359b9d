//! The deterministic *network* fault-injection plane.
//!
//! Where [`FaultPlan`](crate::FaultPlan) disrupts work inside a process,
//! [`NetFaultPlan`] disrupts the wire between processes: the remote
//! stage-cache protocol (and any other HTTP traffic) has to survive
//! refused connections, truncated bodies, flipped bytes, injected
//! latency and outright blackholes. Decisions are pure hashes of the
//! plan seed and the connection index — no RNG state — so a faulty run
//! replays identically and tests can assert exact per-connection
//! behavior.
//!
//! [`FlakyProxy`] puts a plan on the wire: an in-process TCP forwarder
//! that accepts on a local port, applies the planned fault for each
//! accepted connection, and otherwise relays bytes to an upstream
//! address. It is the deterministic stand-in for a lossy campus network
//! between a flow engine and a shared cache hub.

use crate::{fnv64, hash_fraction};
use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::{self, JoinHandle};
use std::time::Duration;

/// The fault a [`NetFaultPlan`] injects into one connection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NetFault {
    /// Relay the connection untouched.
    None,
    /// Close the connection immediately (connection refused / reset).
    Refuse,
    /// Relay the request, then send only the first half of the response.
    Truncate,
    /// Relay the request, then flip one response byte before sending.
    Corrupt,
    /// Sleep this many milliseconds before relaying anything.
    Latency(u64),
    /// Accept, read the request, and never answer (hang until timeout).
    Blackhole,
}

/// A seeded, deterministic plan of network faults, keyed by connection
/// index.
///
/// Each rate is the probability the corresponding fault fires for a
/// given connection; when several would fire the most disruptive wins
/// (refuse > blackhole > truncate > corrupt > latency). `blackhole_after`
/// unconditionally blackholes every connection at or past that index —
/// the "remote cache dies mid-batch" scenario.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NetFaultPlan {
    /// Plan seed: same seed, same faults.
    pub seed: u64,
    /// Probability a connection is refused outright.
    pub refuse_rate: f64,
    /// Probability a response is truncated mid-body.
    pub truncate_rate: f64,
    /// Probability one response byte is flipped.
    pub corrupt_rate: f64,
    /// Probability the connection is delayed by `latency_ms`.
    pub latency_rate: f64,
    /// Injected delay when a latency fault fires, in milliseconds.
    pub latency_ms: u64,
    /// Probability a connection is blackholed (accepted, never answered).
    pub blackhole_rate: f64,
    /// Blackhole every connection with index >= this, regardless of
    /// rates: the deterministic mid-run outage switch.
    pub blackhole_after: Option<u64>,
}

impl Default for NetFaultPlan {
    fn default() -> Self {
        NetFaultPlan::disabled()
    }
}

impl NetFaultPlan {
    /// A plan that relays every connection untouched.
    #[must_use]
    pub fn disabled() -> Self {
        NetFaultPlan {
            seed: 0,
            refuse_rate: 0.0,
            truncate_rate: 0.0,
            corrupt_rate: 0.0,
            latency_rate: 0.0,
            latency_ms: 0,
            blackhole_rate: 0.0,
            blackhole_after: None,
        }
    }

    /// A general-purpose flaky link: `rate` total fault probability,
    /// split evenly across refusal, truncation, corruption and latency
    /// (25 ms). This is the "30%-fault campus network" used by E20 and
    /// the CI chaos smoke.
    #[must_use]
    pub fn flaky(seed: u64, rate: f64) -> Self {
        let share = rate.clamp(0.0, 1.0) / 4.0;
        NetFaultPlan {
            seed,
            refuse_rate: share,
            truncate_rate: share,
            corrupt_rate: share,
            latency_rate: share,
            latency_ms: 25,
            ..NetFaultPlan::disabled()
        }
    }

    /// Sets the refusal rate.
    #[must_use]
    pub fn with_refuse_rate(mut self, rate: f64) -> Self {
        self.refuse_rate = rate.clamp(0.0, 1.0);
        self
    }

    /// Sets the truncation rate.
    #[must_use]
    pub fn with_truncate_rate(mut self, rate: f64) -> Self {
        self.truncate_rate = rate.clamp(0.0, 1.0);
        self
    }

    /// Sets the corruption rate.
    #[must_use]
    pub fn with_corrupt_rate(mut self, rate: f64) -> Self {
        self.corrupt_rate = rate.clamp(0.0, 1.0);
        self
    }

    /// Sets the latency rate and injected delay.
    #[must_use]
    pub fn with_latency(mut self, rate: f64, latency_ms: u64) -> Self {
        self.latency_rate = rate.clamp(0.0, 1.0);
        self.latency_ms = latency_ms;
        self
    }

    /// Sets the blackhole rate.
    #[must_use]
    pub fn with_blackhole_rate(mut self, rate: f64) -> Self {
        self.blackhole_rate = rate.clamp(0.0, 1.0);
        self
    }

    /// Blackholes every connection with index >= `n`.
    #[must_use]
    pub fn with_blackhole_after(mut self, n: u64) -> Self {
        self.blackhole_after = Some(n);
        self
    }

    fn roll(&self, site: &str, connection: u64) -> f64 {
        hash_fraction(self.hash(site, connection))
    }

    fn hash(&self, site: &str, connection: u64) -> u64 {
        let mut bytes = Vec::with_capacity(site.len() + 17);
        bytes.extend_from_slice(&self.seed.to_le_bytes());
        bytes.extend_from_slice(site.as_bytes());
        bytes.push(0);
        bytes.extend_from_slice(&connection.to_le_bytes());
        fnv64(&bytes)
    }

    /// The fault this plan injects into connection `connection`.
    ///
    /// Severity resolves ties: a connection that rolls both a refusal
    /// and a latency is refused.
    #[must_use]
    pub fn fault(&self, connection: u64) -> NetFault {
        if let Some(after) = self.blackhole_after {
            if connection >= after {
                return NetFault::Blackhole;
            }
        }
        if self.refuse_rate > 0.0 && self.roll("refuse", connection) < self.refuse_rate {
            return NetFault::Refuse;
        }
        if self.blackhole_rate > 0.0 && self.roll("blackhole", connection) < self.blackhole_rate {
            return NetFault::Blackhole;
        }
        if self.truncate_rate > 0.0 && self.roll("truncate", connection) < self.truncate_rate {
            return NetFault::Truncate;
        }
        if self.corrupt_rate > 0.0 && self.roll("corrupt", connection) < self.corrupt_rate {
            return NetFault::Corrupt;
        }
        if self.latency_rate > 0.0 && self.roll("latency", connection) < self.latency_rate {
            return NetFault::Latency(self.latency_ms);
        }
        NetFault::None
    }

    /// The response byte offset a corruption fault flips (modulo body
    /// length) and the nonzero xor mask it applies.
    #[must_use]
    pub fn corrupt_site(&self, connection: u64) -> (u64, u8) {
        let h = self.hash("corrupt-site", connection);
        ((h >> 16), ((h >> 8) as u8) | 1)
    }
}

/// How long a blackholed connection is held open before the proxy gives
/// up on it; generous next to any sane client timeout.
const BLACKHOLE_HOLD: Duration = Duration::from_secs(10);

/// An in-process flaky TCP proxy: accepts on a local port, decides a
/// [`NetFault`] per connection from its [`NetFaultPlan`], and relays to
/// an upstream address.
///
/// The relay assumes one-shot HTTP/1.1 exchanges (`Connection: close`,
/// which is all the chipforge hub speaks): the client's request is
/// pumped upstream until EOF, the full upstream response is buffered,
/// the fault is applied to the response bytes, and the result is written
/// back. Dropping the proxy shuts it down.
#[derive(Debug)]
pub struct FlakyProxy {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    connections: Arc<AtomicU64>,
    accept_thread: Option<JoinHandle<()>>,
}

impl FlakyProxy {
    /// Starts a proxy on an OS-assigned local port, relaying to
    /// `upstream` under `plan`.
    pub fn start(upstream: SocketAddr, plan: NetFaultPlan) -> std::io::Result<Self> {
        Self::start_on("127.0.0.1:0", upstream, plan)
    }

    /// Starts a proxy bound to `listen`, relaying to `upstream` under
    /// `plan`.
    pub fn start_on(
        listen: &str,
        upstream: SocketAddr,
        plan: NetFaultPlan,
    ) -> std::io::Result<Self> {
        let listener = TcpListener::bind(listen)?;
        let addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let connections = Arc::new(AtomicU64::new(0));
        let thread_stop = Arc::clone(&stop);
        let thread_connections = Arc::clone(&connections);
        // A short accept timeout keeps the loop responsive to shutdown.
        listener.set_nonblocking(false)?;
        let accept_thread = thread::Builder::new()
            .name("flaky-proxy-accept".into())
            .spawn(move || {
                accept_loop(&listener, upstream, plan, &thread_stop, &thread_connections);
            })?;
        Ok(FlakyProxy {
            addr,
            stop,
            connections,
            accept_thread: Some(accept_thread),
        })
    }

    /// The proxy's listening address.
    #[must_use]
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Connections accepted so far.
    #[must_use]
    pub fn connections(&self) -> u64 {
        self.connections.load(Ordering::SeqCst)
    }

    /// Stops accepting and joins the accept loop. Connections already
    /// being relayed finish (or time out) on their own threads.
    pub fn shutdown(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        // Unblock the accept call with a throwaway connection.
        let _ = TcpStream::connect_timeout(&self.addr, Duration::from_millis(200));
        if let Some(handle) = self.accept_thread.take() {
            let _ = handle.join();
        }
    }
}

impl Drop for FlakyProxy {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn accept_loop(
    listener: &TcpListener,
    upstream: SocketAddr,
    plan: NetFaultPlan,
    stop: &Arc<AtomicBool>,
    connections: &Arc<AtomicU64>,
) {
    loop {
        let (client, _) = match listener.accept() {
            Ok(pair) => pair,
            Err(_) => {
                if stop.load(Ordering::SeqCst) {
                    return;
                }
                continue;
            }
        };
        if stop.load(Ordering::SeqCst) {
            return;
        }
        let index = connections.fetch_add(1, Ordering::SeqCst);
        let fault = plan.fault(index);
        let corrupt_site = plan.corrupt_site(index);
        let conn_stop = Arc::clone(stop);
        let _ = thread::Builder::new()
            .name(format!("flaky-proxy-conn-{index}"))
            .spawn(move || {
                relay(client, upstream, fault, corrupt_site, &conn_stop);
            });
    }
}

/// Relays one connection under `fault`. Errors are swallowed: from the
/// client's perspective a relay error is just another network fault.
fn relay(
    mut client: TcpStream,
    upstream: SocketAddr,
    fault: NetFault,
    corrupt_site: (u64, u8),
    stop: &Arc<AtomicBool>,
) {
    match fault {
        NetFault::Refuse => {
            // Dropping the accepted socket resets the connection; the
            // client sees an immediate close before any response.
            return;
        }
        NetFault::Blackhole => {
            // Read (and discard) whatever the client sends, then hold
            // the socket open silently until the client gives up. A
            // client half-close (EOF after its request) stops the
            // reads but not the hold: a blackhole never answers and
            // never closes, it only goes quiet, so the client must
            // spend its read timeout to get free.
            let _ = client.set_read_timeout(Some(Duration::from_millis(50)));
            let mut sink = [0u8; 4096];
            let mut draining = true;
            let start = std::time::Instant::now();
            while start.elapsed() < BLACKHOLE_HOLD && !stop.load(Ordering::SeqCst) {
                if !draining {
                    thread::sleep(Duration::from_millis(50));
                    continue;
                }
                match client.read(&mut sink) {
                    Ok(0) => draining = false,
                    Ok(_) => {}
                    Err(ref e)
                        if e.kind() == std::io::ErrorKind::WouldBlock
                            || e.kind() == std::io::ErrorKind::TimedOut => {}
                    Err(_) => draining = false,
                }
            }
            return;
        }
        NetFault::Latency(ms) => thread::sleep(Duration::from_millis(ms)),
        NetFault::None | NetFault::Truncate | NetFault::Corrupt => {}
    }

    let Ok(mut server) = TcpStream::connect_timeout(&upstream, Duration::from_secs(5)) else {
        return;
    };
    let _ = server.set_read_timeout(Some(Duration::from_secs(10)));
    let _ = client.set_read_timeout(Some(Duration::from_secs(10)));

    // Pump the request client→upstream on its own thread; EOF (or the
    // client half-closing after its request) propagates as a write-side
    // shutdown so the upstream knows the request is complete.
    let Ok(client_read) = client.try_clone() else {
        return;
    };
    let Ok(server_write) = server.try_clone() else {
        return;
    };
    let pump = thread::Builder::new()
        .name("flaky-proxy-pump".into())
        .spawn(move || {
            let mut from = client_read;
            let mut to = server_write;
            let mut buf = [0u8; 4096];
            loop {
                match from.read(&mut buf) {
                    Ok(0) | Err(_) => break,
                    Ok(n) => {
                        if to.write_all(&buf[..n]).is_err() {
                            break;
                        }
                    }
                }
            }
            let _ = to.shutdown(Shutdown::Write);
        });

    // The hub speaks Connection: close, so the full response ends at EOF.
    let mut response = Vec::new();
    let _ = server.read_to_end(&mut response);
    if let Ok(handle) = pump {
        let _ = handle.join();
    }

    match fault {
        NetFault::Truncate => {
            response.truncate(response.len() / 2);
        }
        NetFault::Corrupt if !response.is_empty() => {
            let (offset, xor) = corrupt_site;
            // Flip a byte in the tail half so headers usually parse
            // and the corruption lands in the body — the case only
            // a checksum can catch.
            let lo = response.len() / 2;
            let idx = lo + (offset as usize % (response.len() - lo).max(1));
            let idx = idx.min(response.len() - 1);
            response[idx] ^= xor;
        }
        _ => {}
    }
    let _ = client.write_all(&response);
    let _ = client.shutdown(Shutdown::Write);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_plan_never_faults() {
        let plan = NetFaultPlan::disabled();
        for c in 0..64 {
            assert_eq!(plan.fault(c), NetFault::None);
        }
    }

    #[test]
    fn decisions_are_deterministic_and_seed_sensitive() {
        let a = NetFaultPlan::flaky(11, 0.5);
        let b = NetFaultPlan::flaky(12, 0.5);
        let mut diverged = false;
        for c in 0..128 {
            assert_eq!(a.fault(c), a.fault(c), "replays");
            if a.fault(c) != b.fault(c) {
                diverged = true;
            }
        }
        assert!(diverged, "different seeds must fault differently");
    }

    #[test]
    fn flaky_rate_is_roughly_respected() {
        let plan = NetFaultPlan::flaky(42, 0.3);
        let fired = (0..1000)
            .filter(|&c| plan.fault(c) != NetFault::None)
            .count();
        assert!(
            (200..=400).contains(&fired),
            "30% rate fired {fired}/1000 times"
        );
    }

    #[test]
    fn blackhole_after_overrides_everything() {
        let plan = NetFaultPlan::disabled().with_blackhole_after(3);
        assert_eq!(plan.fault(2), NetFault::None);
        assert_eq!(plan.fault(3), NetFault::Blackhole);
        assert_eq!(plan.fault(4000), NetFault::Blackhole);
        let flaky = NetFaultPlan::flaky(1, 1.0).with_blackhole_after(0);
        for c in 0..16 {
            assert_eq!(flaky.fault(c), NetFault::Blackhole);
        }
    }

    #[test]
    fn severity_orders_refuse_first() {
        // All rates 1.0: every connection must resolve to Refuse.
        let plan = NetFaultPlan::disabled()
            .with_refuse_rate(1.0)
            .with_truncate_rate(1.0)
            .with_corrupt_rate(1.0)
            .with_latency(1.0, 5)
            .with_blackhole_rate(1.0);
        for c in 0..16 {
            assert_eq!(plan.fault(c), NetFault::Refuse);
        }
    }

    #[test]
    fn corrupt_site_mask_is_never_zero() {
        let plan = NetFaultPlan::flaky(5, 1.0);
        for c in 0..64 {
            assert_ne!(plan.corrupt_site(c).1, 0);
        }
    }

    #[test]
    fn proxy_relays_cleanly_when_disabled() {
        let upstream = TcpListener::bind("127.0.0.1:0").expect("bind upstream");
        let upstream_addr = upstream.local_addr().expect("addr");
        let echo = thread::spawn(move || {
            let (mut conn, _) = upstream.accept().expect("accept");
            let mut request = Vec::new();
            let mut buf = [0u8; 1024];
            loop {
                match conn.read(&mut buf) {
                    Ok(0) | Err(_) => break,
                    Ok(n) => request.extend_from_slice(&buf[..n]),
                }
            }
            conn.write_all(b"pong:").expect("write");
            conn.write_all(&request).expect("write");
        });
        let proxy = FlakyProxy::start(upstream_addr, NetFaultPlan::disabled()).expect("proxy");
        let mut client = TcpStream::connect(proxy.addr()).expect("connect");
        client.write_all(b"ping").expect("send");
        client.shutdown(Shutdown::Write).expect("half-close");
        let mut response = Vec::new();
        client.read_to_end(&mut response).expect("read");
        assert_eq!(response, b"pong:ping");
        assert_eq!(proxy.connections(), 1);
        echo.join().expect("echo thread");
    }

    #[test]
    fn proxy_truncates_and_refuses_per_plan() {
        let upstream = TcpListener::bind("127.0.0.1:0").expect("bind upstream");
        let upstream_addr = upstream.local_addr().expect("addr");
        let serve = thread::spawn(move || {
            // Serve until the listener is dropped by the main thread.
            for conn in upstream.incoming() {
                let Ok(mut conn) = conn else { break };
                let mut buf = [0u8; 1024];
                loop {
                    match conn.read(&mut buf) {
                        Ok(0) | Err(_) => break,
                        Ok(_) => {}
                    }
                }
                if conn.write_all(b"0123456789abcdef").is_err() {
                    break;
                }
            }
        });
        // Truncate every connection.
        let plan = NetFaultPlan::disabled().with_truncate_rate(1.0);
        let proxy = FlakyProxy::start(upstream_addr, plan).expect("proxy");
        let mut client = TcpStream::connect(proxy.addr()).expect("connect");
        client.write_all(b"x").expect("send");
        client.shutdown(Shutdown::Write).expect("half-close");
        let mut response = Vec::new();
        client.read_to_end(&mut response).expect("read");
        assert_eq!(response, b"01234567", "half the 16-byte response");

        // Refuse every connection: the client reads EOF with no bytes.
        let plan = NetFaultPlan::disabled().with_refuse_rate(1.0);
        let proxy2 = FlakyProxy::start(upstream_addr, plan).expect("proxy");
        let mut client = TcpStream::connect(proxy2.addr()).expect("connect");
        let _ = client.write_all(b"x");
        let mut response = Vec::new();
        let _ = client.read_to_end(&mut response);
        assert!(response.is_empty(), "refused connection returns nothing");
        drop(serve);
    }
}
