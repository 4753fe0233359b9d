//! The remote stage-cache tier: a failure-first HTTP client for the
//! content-addressed cache protocol `forge serve` hosts.
//!
//! * `GET /cache/chain/<key>,<key>,…` — the lookup a run makes: every key
//!   of its stage chain the local tiers lack, in one request. The answer
//!   is a count line, then one `<key> <frame>` line per entry the hub
//!   holds ([`chain_body`]); keys it lacks are simply absent.
//! * `GET` / `PUT /cache/stage/<key>` — one entry: fetch, publish.
//!
//! A shared network cache turns one course's flow runs into the whole
//! campus's warm start — but only if the network edge can fail without
//! taking the flow down. Every operation here is therefore wrapped in
//! the resilience plane the workspace already has:
//!
//! * **per-request timeouts** — connect, read and write are all bounded
//!   by [`RemoteCacheConfig::timeout`]; a slow remote costs bounded time
//!   per stage, never a hang;
//! * **capped-backoff retries** ([`chipforge_resil::Backoff`]) — only on
//!   transport errors; an HTTP 404 is an answer, not a failure;
//! * **a per-endpoint circuit breaker**
//!   ([`chipforge_admit::CircuitBreaker`]) — after `breaker_threshold`
//!   consecutive transport failures the endpoint fast-fails locally for
//!   `breaker_cooldown` operations, so a dead remote degrades to a few
//!   milliseconds of connect timeouts and then to nothing at all;
//! * **checksum verification on every fetched artifact** — bodies carry
//!   the workspace-standard `payload|fnv64` frame; a corrupt or
//!   truncated body is counted and treated as a miss, never
//!   deserialized. A chain answer is taken whole or not at all: one
//!   entry that fails its frame, a count that does not match, or a key
//!   that was not asked for rejects every entry in it.
//!
//! The result is the invariant E20 proves: a batch pointed at a remote
//! cache that is down, slow or lying produces the byte-identical
//! canonical report of a batch that never had one — the remote tier can
//! only ever change *speed*.

use chipforge_admit::CircuitBreaker;
use chipforge_flow::{FlowStep, StageSnapshot};
use chipforge_resil::{frame_checksummed, verify_checksummed, Backoff};
use std::fmt::Write as _;
use std::io::{self, Read, Write as _};
use std::net::{Shutdown, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Duration;

/// The largest request body a hub reads (`chipforge_serve::http::MAX_BODY`;
/// `serve` depends on this crate, so the figure is repeated here). A
/// larger `PUT` is answered 413 before the body is read, which the
/// sender sees as a broken pipe mid-write, not as an answer.
const HUB_MAX_BODY: usize = 1024 * 1024;

/// The most keys one chain lookup may name: one flow's stage chain. A
/// hub refuses longer lookups, so one request cannot ask it to copy out
/// an unbounded share of its cache.
pub const MAX_CHAIN_KEYS: usize = FlowStep::ALL.len();

/// The checksum-framed JSON of `snapshot`: a disk entry's bytes and a
/// protocol body's.
pub(crate) fn encode(snapshot: &StageSnapshot) -> String {
    frame_checksummed(&serde::json::to_string(snapshot))
}

/// The snapshot a frame carries, or `None` when it fails its checksum
/// or does not parse.
pub(crate) fn decode(frame: &str) -> Option<StageSnapshot> {
    verify_checksummed(frame).and_then(|payload| serde::json::from_str(payload).ok())
}

/// The body of a chain-lookup answer: a line with the entry count, then
/// one `<key> <frame>` line per entry. Frames hold compact JSON, so they
/// never contain a newline.
#[must_use]
pub fn chain_body<'a>(entries: impl ExactSizeIterator<Item = (u128, &'a str)>) -> String {
    let mut body = format!("{}\n", entries.len());
    for (key, frame) in entries {
        let _ = writeln!(body, "{key:032x} {frame}");
    }
    body
}

/// Splits a chain-lookup answer into `(index into asked, frame)` pairs,
/// or `None` when it is not exactly a well-formed answer to `asked`: the
/// count must match the lines, and every key must be one asked for, at
/// most once. Frames are not verified here.
fn parse_chain<'a>(body: &'a str, asked: &[(FlowStep, u128)]) -> Option<Vec<(usize, &'a str)>> {
    let mut lines = body.strip_suffix('\n')?.split('\n');
    let count: usize = lines.next()?.parse().ok()?;
    if count > asked.len() {
        return None;
    }
    let mut taken = vec![false; asked.len()];
    let mut entries = Vec::with_capacity(count);
    for line in lines {
        let (hex, frame) = line.split_once(' ')?;
        if hex.len() != 32 {
            return None;
        }
        let key = u128::from_str_radix(hex, 16).ok()?;
        let at = asked.iter().position(|&(_, asked)| asked == key)?;
        if std::mem::replace(&mut taken[at], true) {
            return None;
        }
        entries.push((at, frame));
    }
    (entries.len() == count).then_some(entries)
}

/// Tuning for the remote stage-cache tier.
#[derive(Debug, Clone)]
pub struct RemoteCacheConfig {
    /// Remote cache address: `host:port`, with an optional `http://`
    /// prefix and trailing `/`.
    pub url: String,
    /// Per-request budget covering connect, write and read.
    pub timeout: Duration,
    /// Transport-error retries per operation (an HTTP status is never
    /// retried).
    pub retries: u32,
    /// Delay schedule between retries.
    pub backoff: Backoff,
    /// Consecutive transport failures before an endpoint's breaker
    /// trips open.
    pub breaker_threshold: u32,
    /// Operations fast-failed per open period before a half-open probe.
    pub breaker_cooldown: u32,
}

impl RemoteCacheConfig {
    /// A config for `url` with the defaults the CLI exposes: 1 s
    /// timeout, 2 retries with 25–250 ms capped backoff, breaker
    /// tripping after 3 consecutive failures and fast-failing 32
    /// operations per open period.
    #[must_use]
    pub fn new(url: impl Into<String>) -> Self {
        RemoteCacheConfig {
            url: url.into(),
            timeout: Duration::from_millis(1000),
            retries: 2,
            backoff: Backoff {
                base: Duration::from_millis(25),
                max: Duration::from_millis(250),
                seed: 0,
            },
            breaker_threshold: 3,
            breaker_cooldown: 32,
        }
    }

    /// Overrides the per-request timeout.
    #[must_use]
    pub fn with_timeout(mut self, timeout: Duration) -> Self {
        self.timeout = timeout;
        self
    }

    /// The bare `host:port` this config points at.
    #[must_use]
    pub fn addr(&self) -> &str {
        let addr = self.url.trim();
        let addr = addr.strip_prefix("http://").unwrap_or(addr);
        addr.trim_end_matches('/')
    }
}

/// A monotonic snapshot of the remote tier's counters; subtract two
/// snapshots for per-batch deltas (mirrors
/// [`crate::stage_cache::StageCounters`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RemoteCounters {
    /// Verified snapshots served by the remote.
    pub hits: u64,
    /// Lookups the remote could not serve (404, error, corrupt).
    pub misses: u64,
    /// Requests that timed out at the transport layer.
    pub timeouts: u64,
    /// Transport retries performed.
    pub retries: u64,
    /// Operations fast-failed by an open breaker.
    pub breaker_open: u64,
    /// Times an endpoint breaker tripped open.
    pub trips: u64,
    /// Fetched bodies that failed checksum or parse verification.
    pub corrupt: u64,
    /// Snapshots accepted by the remote.
    pub stores: u64,
    /// HTTP requests sent, retries included: the round trips the tier
    /// cost.
    pub requests: u64,
    /// Snapshots never published because their frame exceeds the hub's
    /// body limit.
    pub oversize: u64,
}

/// The remote cache client. One instance per engine (or hub), shared
/// across workers; all state is atomics plus the two endpoint breakers.
pub struct RemoteCache {
    config: RemoteCacheConfig,
    get_breaker: Mutex<CircuitBreaker>,
    put_breaker: Mutex<CircuitBreaker>,
    hits: AtomicU64,
    misses: AtomicU64,
    timeouts: AtomicU64,
    retries: AtomicU64,
    corrupt: AtomicU64,
    stores: AtomicU64,
    requests: AtomicU64,
    oversize: AtomicU64,
}

impl std::fmt::Debug for RemoteCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RemoteCache")
            .field("url", &self.config.url)
            .finish_non_exhaustive()
    }
}

impl RemoteCache {
    /// A client for `config`. Construction never touches the network;
    /// the first operation does.
    #[must_use]
    pub fn new(config: RemoteCacheConfig) -> Self {
        let get_breaker =
            CircuitBreaker::new(config.breaker_threshold.max(1), config.breaker_cooldown);
        let put_breaker = get_breaker.clone();
        RemoteCache {
            config,
            get_breaker: Mutex::new(get_breaker),
            put_breaker: Mutex::new(put_breaker),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            timeouts: AtomicU64::new(0),
            retries: AtomicU64::new(0),
            corrupt: AtomicU64::new(0),
            stores: AtomicU64::new(0),
            requests: AtomicU64::new(0),
            oversize: AtomicU64::new(0),
        }
    }

    /// The configured remote address (`host:port`).
    #[must_use]
    pub fn addr(&self) -> String {
        self.config.addr().to_string()
    }

    /// Current monotonic counter values.
    #[must_use]
    pub fn counters(&self) -> RemoteCounters {
        let (get_trips, get_ff) = {
            let b = self.get_breaker.lock().expect("breaker lock");
            (b.trips(), b.fast_fails())
        };
        let (put_trips, put_ff) = {
            let b = self.put_breaker.lock().expect("breaker lock");
            (b.trips(), b.fast_fails())
        };
        RemoteCounters {
            hits: self.hits.load(Ordering::SeqCst),
            misses: self.misses.load(Ordering::SeqCst),
            timeouts: self.timeouts.load(Ordering::SeqCst),
            retries: self.retries.load(Ordering::SeqCst),
            breaker_open: get_ff + put_ff,
            trips: get_trips + put_trips,
            corrupt: self.corrupt.load(Ordering::SeqCst),
            stores: self.stores.load(Ordering::SeqCst),
            requests: self.requests.load(Ordering::SeqCst),
            oversize: self.oversize.load(Ordering::SeqCst),
        }
    }

    /// Fetches and verifies the snapshot under `key`, or `None` on any
    /// failure whatsoever — miss, timeout, open breaker, bad checksum,
    /// wrong step. The caller never sees an unverified byte.
    #[must_use]
    pub fn fetch(&self, key: u128, step: FlowStep) -> Option<StageSnapshot> {
        let path = format!("/cache/stage/{key:032x}");
        let response = self.exchange(&self.get_breaker, "GET", &path, None, key);
        let Some((200, frame)) = response else {
            self.misses.fetch_add(1, Ordering::SeqCst);
            return None;
        };
        match decode(&frame) {
            Some(snapshot) if snapshot.step == step => {
                self.hits.fetch_add(1, Ordering::SeqCst);
                Some(snapshot)
            }
            Some(_) => {
                // A verified snapshot for a different stage: a key
                // collision or protocol confusion — a miss either way.
                self.misses.fetch_add(1, Ordering::SeqCst);
                None
            }
            None => {
                // 200 with a body that fails its own checksum: the
                // remote (or the network) is lying.
                self.corrupt.fetch_add(1, Ordering::SeqCst);
                self.misses.fetch_add(1, Ordering::SeqCst);
                None
            }
        }
    }

    /// Looks up every key of `chain` (at most [`MAX_CHAIN_KEYS`]: one
    /// flow's chain) in one request and calls `found` with each verified
    /// snapshot and the frame it came in, in chain order. Keys the remote
    /// lacks — or all of them, when the answer is not a 200, fails
    /// verification or never comes — are counted as misses and skipped.
    pub fn fetch_chain(
        &self,
        chain: &[(FlowStep, u128)],
        mut found: impl FnMut(u128, StageSnapshot, &str),
    ) {
        debug_assert!(chain.len() <= MAX_CHAIN_KEYS, "one flow's chain at most");
        let Some(&(_, first)) = chain.first() else {
            return;
        };
        let mut path = String::from("/cache/chain/");
        for (i, (_, key)) in chain.iter().enumerate() {
            let _ = write!(path, "{}{key:032x}", if i == 0 { "" } else { "," });
        }
        let missed = |n: usize| self.misses.fetch_add(n as u64, Ordering::SeqCst);
        let Some((200, body)) = self.exchange(&self.get_breaker, "GET", &path, None, first) else {
            missed(chain.len());
            return;
        };
        // Verify everything before handing anything out: one bad entry
        // means the answer as a whole cannot be trusted.
        let verified: Option<Vec<(usize, StageSnapshot, &str)>> = parse_chain(&body, chain)
            .and_then(|entries| {
                entries
                    .into_iter()
                    .map(|(at, frame)| {
                        let snapshot = decode(frame).filter(|s| s.step == chain[at].0)?;
                        Some((at, snapshot, frame))
                    })
                    .collect()
            });
        let Some(mut verified) = verified else {
            self.corrupt.fetch_add(1, Ordering::SeqCst);
            missed(chain.len());
            return;
        };
        self.hits.fetch_add(verified.len() as u64, Ordering::SeqCst);
        missed(chain.len() - verified.len());
        verified.sort_by_key(|&(at, _, _)| at);
        for (at, snapshot, frame) in verified {
            found(chain[at].1, snapshot, frame);
        }
    }

    /// Publishes `snapshot` under `key`. Failures are absorbed: a cache
    /// store is an optimization, never an obligation.
    pub fn publish(&self, key: u128, snapshot: &StageSnapshot) {
        self.publish_frame(key, snapshot.step, &encode(snapshot));
    }

    /// Publishes an already framed snapshot of stage `step` under `key`.
    /// A body the hub is bound to refuse is not sent at all: the refusal
    /// would look like a transport failure and be retried, slept on and
    /// charged to the breaker, once per large snapshot of every job.
    pub fn publish_frame(&self, key: u128, step: FlowStep, frame: &str) {
        if frame.len() > HUB_MAX_BODY {
            if self.oversize.fetch_add(1, Ordering::Relaxed) == 0 {
                eprintln!(
                    "warning: {step} snapshot of {} bytes exceeds the remote cache's {} byte \
                     body limit; snapshots this large stay local",
                    frame.len(),
                    HUB_MAX_BODY
                );
            }
            return;
        }
        let path = format!("/cache/stage/{key:032x}");
        let response = self.exchange(&self.put_breaker, "PUT", &path, Some(frame), key);
        if let Some((200, _)) = response {
            self.stores.fetch_add(1, Ordering::SeqCst);
        }
    }

    /// One breaker-guarded, retried operation. `None` means the
    /// operation never got an HTTP answer (fast-fail or exhausted
    /// transport retries).
    fn exchange(
        &self,
        breaker: &Mutex<CircuitBreaker>,
        method: &str,
        path: &str,
        body: Option<&str>,
        key: u128,
    ) -> Option<(u16, String)> {
        if !breaker.lock().expect("breaker lock").admit() {
            return None;
        }
        let key_str = format!("{key:032x}");
        let mut attempt = 0u32;
        loop {
            self.requests.fetch_add(1, Ordering::SeqCst);
            let answer = http_exchange(
                self.config.addr(),
                self.config.timeout,
                method,
                path,
                &[],
                body,
            );
            match answer {
                Ok(answer) => {
                    // Any HTTP answer proves the endpoint alive.
                    breaker.lock().expect("breaker lock").record_success();
                    return Some(answer);
                }
                Err(error) => {
                    if matches!(
                        error.kind(),
                        io::ErrorKind::TimedOut | io::ErrorKind::WouldBlock
                    ) {
                        self.timeouts.fetch_add(1, Ordering::SeqCst);
                    }
                    attempt += 1;
                    if attempt > self.config.retries {
                        breaker.lock().expect("breaker lock").record_failure();
                        return None;
                    }
                    self.retries.fetch_add(1, Ordering::SeqCst);
                    std::thread::sleep(self.config.backoff.delay(&key_str, attempt));
                }
            }
        }
    }
}

/// One HTTP/1.1 exchange with `addr` (`host:port`) on a fresh
/// `Connection: close` connection: connect, write and read are each
/// bounded by `timeout`, and a truncated or garbled response is an
/// error ([`io::ErrorKind::InvalidData`]), not an answer. `headers` are
/// sent after `Host`. This is the workspace's one client-side exchange:
/// [`RemoteCache`] and the `chipforge-serve` hub client both speak
/// through it.
///
/// # Errors
///
/// Any transport failure — resolution, connect, timeout, reset — or a
/// response without a valid status line.
pub fn http_exchange(
    addr: &str,
    timeout: Duration,
    method: &str,
    path: &str,
    headers: &[(&str, &str)],
    body: Option<&str>,
) -> io::Result<(u16, String)> {
    let mut refused = io::Error::new(
        io::ErrorKind::AddrNotAvailable,
        format!("`{addr}` resolves to no address"),
    );
    let mut connected = None;
    for candidate in addr.to_socket_addrs()? {
        match TcpStream::connect_timeout(&candidate, timeout) {
            Ok(stream) => {
                connected = Some(stream);
                break;
            }
            Err(error) => refused = error,
        }
    }
    let Some(mut stream) = connected else {
        return Err(refused);
    };
    stream.set_read_timeout(Some(timeout))?;
    stream.set_write_timeout(Some(timeout))?;
    let body = body.unwrap_or("");
    let mut request = format!("{method} {path} HTTP/1.1\r\nHost: {addr}\r\n");
    for (name, value) in headers {
        let _ = write!(request, "{name}: {value}\r\n");
    }
    let _ = write!(
        request,
        "Content-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    );
    stream.write_all(request.as_bytes())?;
    let _ = stream.shutdown(Shutdown::Write);
    read_response(&mut stream)
}

/// Reads one `Connection: close` response off `stream`: the head, then
/// the body straight into the buffer the caller gets, sized from
/// `Content-Length` when the head names one. The peer closing early
/// leaves a short body, as it always has: the checksum frame is what
/// tells a whole body from a cut one.
fn read_response(stream: &mut impl Read) -> io::Result<(u16, String)> {
    let garbled = || io::Error::new(io::ErrorKind::InvalidData, "malformed HTTP response");
    let mut raw = Vec::with_capacity(512);
    let mut chunk = [0u8; 512];
    let head_end = loop {
        let scanned = raw.len().saturating_sub(3);
        let n = stream.read(&mut chunk)?;
        if n == 0 {
            return Err(garbled());
        }
        raw.extend_from_slice(&chunk[..n]);
        if let Some(at) = raw[scanned..].windows(4).position(|w| w == b"\r\n\r\n") {
            break scanned + at;
        }
    };
    let head = std::str::from_utf8(&raw[..head_end]).map_err(|_| garbled())?;
    let status = parse_status(head).ok_or_else(garbled)?;
    let expected = head
        .lines()
        .filter_map(|line| line.split_once(':'))
        .find(|(name, _)| name.eq_ignore_ascii_case("content-length"))
        .and_then(|(_, value)| value.trim().parse::<usize>().ok());
    let mut body = raw.split_off(head_end + 4);
    if let Some(expected) = expected {
        // A hint from the peer, so bounded by what a hub takes in (and so
        // has to give back); a longer body still grows.
        body.reserve(expected.saturating_sub(body.len()).min(HUB_MAX_BODY));
    }
    stream.read_to_end(&mut body)?;
    let body = String::from_utf8(body)
        .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "response body is not UTF-8"))?;
    Ok((status, body))
}

/// The status of an `HTTP/1.1 <status> ...` head.
fn parse_status(head: &str) -> Option<u16> {
    let mut parts = head.lines().next()?.split_whitespace();
    if !parts.next()?.starts_with("HTTP/") {
        return None;
    }
    parts.next()?.parse().ok()
}

/// Parses a whole `HTTP/1.1 <status> ...` response held in memory, with
/// the reader every exchange uses. A truncated or garbled response is a
/// transport error, not an answer.
#[must_use]
pub fn parse_response(raw: &str) -> Option<(u16, String)> {
    read_response(&mut raw.as_bytes()).ok()
}

#[cfg(test)]
mod tests {
    use super::*;
    use chipforge_flow::StageArtifact;
    use std::net::{SocketAddr, TcpListener};

    fn snapshot(step: FlowStep) -> StageSnapshot {
        StageSnapshot {
            step,
            detail: "remote test artifact".to_string(),
            artifact: StageArtifact::Export { gds: vec![9, 9, 9] },
        }
    }

    /// Serves `responses` one connection at a time, capturing requests.
    fn one_shot_server(
        responses: Vec<String>,
    ) -> (SocketAddr, std::thread::JoinHandle<Vec<String>>) {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let handle = std::thread::spawn(move || {
            let mut seen = Vec::new();
            for response in responses {
                let (mut conn, _) = listener.accept().expect("accept");
                let mut raw = Vec::new();
                let mut buf = [0u8; 4096];
                loop {
                    match conn.read(&mut buf) {
                        Ok(0) | Err(_) => break,
                        Ok(n) => {
                            raw.extend_from_slice(&buf[..n]);
                            // The client half-closes after its request,
                            // but be robust to a full request in one read.
                            if raw.windows(4).any(|w| w == b"\r\n\r\n") {
                                break;
                            }
                        }
                    }
                }
                seen.push(String::from_utf8_lossy(&raw).to_string());
                conn.write_all(response.as_bytes()).expect("respond");
            }
            seen
        });
        (addr, handle)
    }

    fn http(status: u16, body: &str) -> String {
        format!(
            "HTTP/1.1 {status} X\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
            body.len()
        )
    }

    fn quick_config(addr: SocketAddr) -> RemoteCacheConfig {
        RemoteCacheConfig {
            timeout: Duration::from_millis(500),
            retries: 0,
            ..RemoteCacheConfig::new(format!("http://{addr}/"))
        }
    }

    #[test]
    fn url_parsing_strips_scheme_and_slash() {
        assert_eq!(
            RemoteCacheConfig::new("http://127.0.0.1:8423/").addr(),
            "127.0.0.1:8423"
        );
        assert_eq!(
            RemoteCacheConfig::new("127.0.0.1:8423").addr(),
            "127.0.0.1:8423"
        );
    }

    #[test]
    fn fetch_verifies_and_returns_a_framed_snapshot() {
        let want = snapshot(FlowStep::Export);
        let framed = frame_checksummed(&serde::json::to_string(&want));
        let (addr, server) = one_shot_server(vec![http(200, &framed)]);
        let cache = RemoteCache::new(quick_config(addr));
        let got = cache.fetch(7, FlowStep::Export).expect("verified hit");
        assert_eq!(got.detail, want.detail);
        let counters = cache.counters();
        assert_eq!(
            (counters.hits, counters.misses, counters.corrupt),
            (1, 0, 0)
        );
        let seen = server.join().expect("server");
        assert!(seen[0].starts_with("GET /cache/stage/00000000000000000000000000000007 "));
    }

    #[test]
    fn corrupt_body_is_a_counted_miss_never_a_snapshot() {
        let want = snapshot(FlowStep::Export);
        let mut framed = frame_checksummed(&serde::json::to_string(&want));
        // Flip one payload byte: checksum verification must reject it.
        framed.replace_range(2..3, "X");
        let (addr, server) = one_shot_server(vec![http(200, &framed)]);
        let cache = RemoteCache::new(quick_config(addr));
        assert!(cache.fetch(7, FlowStep::Export).is_none());
        let counters = cache.counters();
        assert_eq!(
            (counters.hits, counters.misses, counters.corrupt),
            (0, 1, 1)
        );
        server.join().expect("server");
    }

    #[test]
    fn wrong_step_is_a_miss_and_404_is_not_corruption() {
        let want = snapshot(FlowStep::Route);
        let framed = frame_checksummed(&serde::json::to_string(&want));
        let (addr, server) = one_shot_server(vec![http(200, &framed), http(404, "")]);
        let cache = RemoteCache::new(quick_config(addr));
        assert!(cache.fetch(7, FlowStep::Export).is_none(), "wrong step");
        assert!(cache.fetch(8, FlowStep::Export).is_none(), "404");
        let counters = cache.counters();
        assert_eq!((counters.misses, counters.corrupt), (2, 0));
        server.join().expect("server");
    }

    #[test]
    fn publish_counts_accepted_stores_and_frames_the_body() {
        let (addr, server) = one_shot_server(vec![http(200, "")]);
        let cache = RemoteCache::new(quick_config(addr));
        cache.publish(9, &snapshot(FlowStep::Export));
        assert_eq!(cache.counters().stores, 1);
        let seen = server.join().expect("server");
        assert!(seen[0].starts_with("PUT /cache/stage/00000000000000000000000000000009 "));
        let body = seen[0].split("\r\n\r\n").nth(1).unwrap_or("");
        assert!(
            verify_checksummed(body).is_some(),
            "PUT body must be checksum-framed"
        );
    }

    /// Bind-then-drop: the port is (almost surely) refused afterward.
    fn dead_addr() -> SocketAddr {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        listener.local_addr().expect("addr")
    }

    #[test]
    fn oversize_publish_never_reaches_the_network() {
        // Any attempt on this address is a transport failure, retried
        // and charged to a breaker that one failure trips.
        let mut config = quick_config(dead_addr());
        config.retries = 2;
        config.breaker_threshold = 1;
        let cache = RemoteCache::new(config);
        let mut big = snapshot(FlowStep::Export);
        big.artifact = StageArtifact::Export {
            gds: vec![200; HUB_MAX_BODY / 3],
        };
        cache.publish(1, &big);
        cache.publish(2, &big);
        let counters = cache.counters();
        assert_eq!(
            (counters.oversize, counters.requests, counters.retries),
            (2, 0, 0)
        );
        assert_eq!((counters.trips, counters.stores), (0, 0));
        cache.publish(3, &snapshot(FlowStep::Export));
        assert_eq!(cache.counters().trips, 1, "a sendable body is still tried");
    }

    /// Three Export keys and the frames of their snapshots.
    fn export_chain() -> (Vec<(FlowStep, u128)>, Vec<String>) {
        let chain = vec![
            (FlowStep::Export, 0xa1),
            (FlowStep::Export, 0xb2),
            (FlowStep::Export, 0xc3),
        ];
        let frames = (1..=3u8)
            .map(|n| {
                let mut snapshot = snapshot(FlowStep::Export);
                snapshot.artifact = StageArtifact::Export { gds: vec![n; 4] };
                encode(&snapshot)
            })
            .collect();
        (chain, frames)
    }

    /// Runs one chain lookup and returns the keys and GDS handed out.
    fn found_by(cache: &RemoteCache, chain: &[(FlowStep, u128)]) -> Vec<(u128, Vec<u8>)> {
        let mut found = Vec::new();
        cache.fetch_chain(chain, |key, snapshot, frame| {
            assert_eq!(
                decode(frame).map(|s| s.detail),
                Some(snapshot.detail.clone())
            );
            if let StageArtifact::Export { gds } = snapshot.artifact {
                found.push((key, gds));
            }
        });
        found
    }

    #[test]
    fn a_chain_is_looked_up_in_one_request() {
        let (chain, frames) = export_chain();
        // The hub holds the first and the last key, and answers in the
        // order asked.
        let body = chain_body([(0xa1, &*frames[0]), (0xc3, &*frames[2])].into_iter());
        assert!(body.starts_with("2\n000000000000000000000000000000a1 "));
        let (addr, server) = one_shot_server(vec![http(200, &body)]);
        let cache = RemoteCache::new(quick_config(addr));
        assert_eq!(
            found_by(&cache, &chain),
            vec![(0xa1, vec![1; 4]), (0xc3, vec![3; 4])]
        );
        let counters = cache.counters();
        assert_eq!(
            (
                counters.requests,
                counters.hits,
                counters.misses,
                counters.corrupt
            ),
            (1, 2, 1, 0)
        );
        let seen = server.join().expect("server");
        assert!(seen[0].starts_with(
            "GET /cache/chain/000000000000000000000000000000a1,\
             000000000000000000000000000000b2,000000000000000000000000000000c3 "
        ));
    }

    #[test]
    fn a_chain_answer_is_taken_whole_or_not_at_all() {
        let (chain, frames) = export_chain();
        let line = |key: u128, frame: &str| format!("{key:032x} {frame}\n");
        let mut tampered = frames[1].clone();
        tampered.replace_range(2..3, "X");
        let bad_answers = [
            // One entry fails its checksum.
            format!("2\n{}{}", line(0xa1, &frames[0]), line(0xb2, &tampered)),
            // Cut at an entry boundary: the count gives it away.
            format!("2\n{}", line(0xa1, &frames[0])),
            // Cut inside an entry.
            format!("1\n{}", &line(0xa1, &frames[0])[..40]),
            // A key nobody asked for, and one asked for twice.
            format!("1\n{}", line(0xd4, &frames[0])),
            format!("2\n{}{}", line(0xa1, &frames[0]), line(0xa1, &frames[0])),
            // The right frame under the wrong stage's key.
            chain_body([(0xa1, &*encode(&snapshot(FlowStep::Route)))].into_iter()),
            // Not a chain answer at all.
            String::new(),
            "many\n".to_string(),
        ];
        for answer in bad_answers {
            let (addr, server) = one_shot_server(vec![http(200, &answer)]);
            let cache = RemoteCache::new(quick_config(addr));
            assert!(found_by(&cache, &chain).is_empty(), "{answer:?}");
            let counters = cache.counters();
            assert_eq!(
                (counters.hits, counters.misses, counters.corrupt),
                (0, 3, 1),
                "{answer:?}"
            );
            server.join().expect("server");
        }
    }

    #[test]
    fn a_refused_chain_lookup_misses_every_key() {
        let (chain, _) = export_chain();
        let (addr, server) = one_shot_server(vec![http(404, "no route")]);
        let cache = RemoteCache::new(quick_config(addr));
        assert!(found_by(&cache, &chain).is_empty());
        let counters = cache.counters();
        assert_eq!(
            (counters.requests, counters.misses, counters.corrupt),
            (1, 3, 0),
            "an HTTP refusal is an answer, not corruption, and is not retried"
        );
        server.join().expect("server");
    }

    #[test]
    fn an_unanswered_chain_lookup_misses_every_key() {
        let (chain, _) = export_chain();
        let cache = RemoteCache::new(quick_config(dead_addr()));
        assert!(found_by(&cache, &chain).is_empty());
        let counters = cache.counters();
        assert_eq!(
            (counters.requests, counters.misses, counters.corrupt),
            (1, 3, 0)
        );
    }

    /// Hands out one byte per read, so every boundary falls between two.
    struct Trickle<'a>(&'a [u8]);

    impl Read for Trickle<'_> {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            let n = self.0.len().min(buf.len()).min(1);
            buf[..n].copy_from_slice(&self.0[..n]);
            self.0 = &self.0[n..];
            Ok(n)
        }
    }

    #[test]
    fn responses_are_read_head_first_and_garbled_ones_are_invalid_data() {
        let whole = http(200, "payload|00");
        for got in [
            read_response(&mut whole.as_bytes()),
            read_response(&mut Trickle(whole.as_bytes())),
        ] {
            assert_eq!(got.expect("reads"), (200, "payload|00".to_string()));
        }
        // Cut inside the body it is still an answer: the checksum frame,
        // not the transport, tells a whole body from a short one.
        let cut = &whole.as_bytes()[..whole.len() - 3];
        assert_eq!(
            read_response(&mut &*cut).expect("reads"),
            (200, "payload".to_string())
        );
        for garbled in [
            &b""[..],
            b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\n",
            b"not http\r\n\r\nbody",
            b"HTTP/1.1 abc\r\n\r\nbody",
            b"HTTP/1.1 200 \xff\r\n\r\nbody",
            b"HTTP/1.1 200 OK\r\n\r\n\xff",
        ] {
            let error = read_response(&mut &*garbled).expect_err("garbled");
            assert_eq!(error.kind(), io::ErrorKind::InvalidData, "{garbled:?}");
        }
    }

    #[test]
    fn dead_remote_trips_the_breaker_then_fast_fails() {
        let mut config = quick_config(dead_addr());
        config.breaker_threshold = 2;
        config.breaker_cooldown = 8;
        config.backoff = Backoff {
            base: Duration::ZERO,
            max: Duration::ZERO,
            seed: 0,
        };
        let cache = RemoteCache::new(config);
        for key in 0..6u128 {
            assert!(cache.fetch(key, FlowStep::Export).is_none());
        }
        let counters = cache.counters();
        assert_eq!(counters.hits, 0);
        assert_eq!(counters.misses, 6, "every fetch degrades to a miss");
        assert!(counters.trips >= 1, "breaker must trip: {counters:?}");
        assert!(
            counters.breaker_open >= 1,
            "post-trip fetches fast-fail: {counters:?}"
        );
    }

    #[test]
    fn transport_retries_are_counted() {
        let mut config = quick_config(dead_addr());
        config.retries = 2;
        config.breaker_threshold = 100;
        config.backoff = Backoff {
            base: Duration::ZERO,
            max: Duration::ZERO,
            seed: 0,
        };
        let cache = RemoteCache::new(config);
        assert!(cache.fetch(1, FlowStep::Export).is_none());
        assert_eq!(cache.counters().retries, 2, "both retries consumed");
    }
}
