//! The HTTP front end: a `TcpListener` accept loop routing requests
//! onto a [`Hub`].
//!
//! One request per connection (`Connection: close`), one handler thread
//! per connection, 5-second socket timeouts. Handlers never unwrap
//! tainted input: every malformed request is answered with the 4xx the
//! parser mapped it to, so no byte sequence a client sends can take
//! down the accept loop.

use crate::auth::{Identity, KeyRegistry};
use crate::http::{error_body, read_request, write_response, HttpError, Request};
use crate::hub::{Hub, SubmitOutcome};
use chipforge_exec::remote::MAX_CHAIN_KEYS;
use serde::Value;
use std::io::BufReader;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// A running hub server: the bound address plus the accept-loop thread.
pub struct Server {
    addr: SocketAddr,
    hub: Arc<Hub>,
    stop: Arc<AtomicBool>,
    accept_thread: Option<JoinHandle<()>>,
}

impl Server {
    /// Binds `addr` (e.g. `127.0.0.1:0` for an ephemeral port) and
    /// starts serving `hub` with `keys` as the tenant registry.
    ///
    /// # Errors
    ///
    /// Returns the bind error, formatted.
    pub fn start(hub: Hub, keys: KeyRegistry, addr: &str) -> Result<Self, String> {
        let listener = TcpListener::bind(addr).map_err(|e| format!("bind {addr}: {e}"))?;
        let local = listener
            .local_addr()
            .map_err(|e| format!("local addr: {e}"))?;
        let hub = Arc::new(hub);
        let stop = Arc::new(AtomicBool::new(false));
        let keys = Arc::new(keys);
        let accept_hub = Arc::clone(&hub);
        let accept_stop = Arc::clone(&stop);
        let accept_thread = std::thread::spawn(move || {
            for stream in listener.incoming() {
                if accept_stop.load(Ordering::SeqCst) {
                    break;
                }
                let Ok(stream) = stream else { continue };
                let hub = Arc::clone(&accept_hub);
                let keys = Arc::clone(&keys);
                std::thread::spawn(move || handle_connection(stream, &hub, &keys));
            }
        });
        Ok(Server {
            addr: local,
            hub,
            stop,
            accept_thread: Some(accept_thread),
        })
    }

    /// The bound socket address.
    #[must_use]
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops the accept loop and shuts the hub down (drains running
    /// jobs, joins workers, closes the journal).
    pub fn shutdown(mut self) {
        self.stop.store(true, Ordering::SeqCst);
        // Poke the listener so `incoming()` returns once more.
        let _ = TcpStream::connect(self.addr);
        if let Some(handle) = self.accept_thread.take() {
            let _ = handle.join();
        }
        self.hub.shutdown();
    }
}

fn handle_connection(stream: TcpStream, hub: &Hub, keys: &KeyRegistry) {
    let _ = stream.set_read_timeout(Some(Duration::from_secs(5)));
    let _ = stream.set_write_timeout(Some(Duration::from_secs(5)));
    let mut reader = BufReader::new(stream);
    let response = match read_request(&mut reader) {
        Ok(request) => route(&request, hub, keys),
        Err(error) => Err(error),
    };
    let mut stream = reader.into_inner();
    let (status, body) = match response {
        Ok((status, body)) => (status, body),
        Err(error) => (error.status, error_body(&error)),
    };
    let _ = write_response(&mut stream, status, &body);
}

fn authenticate<'a>(request: &Request, keys: &'a KeyRegistry) -> Result<&'a Identity, HttpError> {
    let presented = request
        .header("x-api-key")
        .ok_or_else(|| HttpError::new(401, "missing X-Api-Key header"))?;
    keys.identify(presented)
        .ok_or_else(|| HttpError::new(401, "unknown API key"))
}

fn json_field(pairs: Vec<(&str, Value)>) -> String {
    serde::json::to_string(&Value::Map(
        pairs
            .into_iter()
            .map(|(k, v)| (Value::Str(k.to_string()), v))
            .collect(),
    ))
}

/// Routes one parsed request. Returns `(status, body)` or the error to
/// send.
fn route(request: &Request, hub: &Hub, keys: &KeyRegistry) -> Result<(u16, String), HttpError> {
    let path = request.path.as_str();
    let method = request.method.as_str();
    match (method, path) {
        ("GET", "/healthz") => {
            return Ok((200, json_field(vec![("ok", Value::Bool(true))])));
        }
        ("GET", "/metrics") => {
            return Ok((200, serde::json::to_string(&hub.metrics())));
        }
        ("POST", "/api/v1/jobs") => {
            let who = authenticate(request, keys)?;
            return submit(request, hub, who);
        }
        ("GET", "/api/v1/jobs") => {
            let who = authenticate(request, keys)?;
            return Ok((200, serde::json::to_string(&hub.list_jobs(who))));
        }
        _ => {}
    }

    // /api/v1/jobs/<id>[/result|/cancel]
    if let Some(rest) = path.strip_prefix("/api/v1/jobs/") {
        let who = authenticate(request, keys)?;
        let (id_text, action) = match rest.split_once('/') {
            Some((id, action)) => (id, Some(action)),
            None => (rest, None),
        };
        let id: u64 = id_text
            .parse()
            .map_err(|_| HttpError::new(404, format!("no job `{id_text}`")))?;
        return match (method, action) {
            ("GET", None) => job_status(hub, who, id),
            ("GET", Some("result")) => job_result(hub, who, id),
            ("POST", Some("cancel")) => {
                if hub.cancel(who, id) {
                    Ok((200, json_field(vec![("cancelled", Value::U64(id))])))
                } else if hub.job_status(who, id).is_some() {
                    Err(HttpError::new(409, "job is not queued"))
                } else {
                    Err(HttpError::new(404, format!("no job {id}")))
                }
            }
            (_, None | Some("result" | "cancel")) => {
                Err(HttpError::new(405, format!("{method} not allowed here")))
            }
            _ => Err(HttpError::new(404, format!("no route `{path}`"))),
        };
    }

    // /cache/stage/<key> and /cache/chain/<key>,… — the remote
    // stage-cache protocol. Keyless by design, like /metrics: cache
    // bodies are checksum-framed snapshots keyed by a 128-bit content
    // hash, not tenant data.
    if let Some(rest) = path.strip_prefix("/cache/stage/") {
        return cache_stage(method, rest, request, hub);
    }
    if let Some(rest) = path.strip_prefix("/cache/chain/") {
        return cache_chain(method, rest, hub);
    }

    if matches!(path, "/healthz" | "/metrics" | "/api/v1/jobs") {
        return Err(HttpError::new(405, format!("{method} not allowed here")));
    }
    Err(HttpError::new(404, format!("no route `{path}`")))
}

/// The content-addressed get/put protocol behind `/cache/stage/<key>`:
/// GET returns the framed snapshot (404 on miss), PUT stores a verified
/// entry. 409 when the hub runs without `--stage-cache`.
fn cache_stage(
    method: &str,
    key_text: &str,
    request: &Request,
    hub: &Hub,
) -> Result<(u16, String), HttpError> {
    let key = u128::from_str_radix(key_text, 16)
        .map_err(|_| HttpError::new(404, format!("no cache key `{key_text}`")))?;
    if !hub.cache_enabled() {
        return Err(HttpError::new(409, "stage cache disabled on this hub"));
    }
    match method {
        "GET" => hub
            .cache_get(key)
            .map(|body| (200, body))
            .ok_or_else(|| HttpError::new(404, format!("cache miss for `{key_text}`"))),
        "PUT" => {
            let body = std::str::from_utf8(&request.body)
                .map_err(|_| HttpError::bad_request("body is not UTF-8"))?;
            hub.cache_put(key, body).map_err(HttpError::bad_request)?;
            Ok((
                200,
                json_field(vec![("stored", Value::Str(key_text.into()))]),
            ))
        }
        _ => Err(HttpError::new(405, format!("{method} not allowed here"))),
    }
}

/// `/cache/chain/<key>,…`: GET answers with every listed entry the hub
/// holds in one body — the lookup a run makes for its whole stage chain.
/// At most [`MAX_CHAIN_KEYS`] keys; 409 when the hub runs without
/// `--stage-cache`.
fn cache_chain(method: &str, keys_text: &str, hub: &Hub) -> Result<(u16, String), HttpError> {
    if method != "GET" {
        return Err(HttpError::new(405, format!("{method} not allowed here")));
    }
    let keys = keys_text
        .split(',')
        .map(|key| u128::from_str_radix(key, 16))
        .collect::<Result<Vec<_>, _>>()
        .map_err(|_| HttpError::bad_request(format!("bad key list `{keys_text}`")))?;
    if keys.len() > MAX_CHAIN_KEYS {
        return Err(HttpError::bad_request(format!(
            "{} keys in one chain lookup; at most {MAX_CHAIN_KEYS}",
            keys.len()
        )));
    }
    hub.cache_chain(&keys)
        .map(|body| (200, body))
        .ok_or_else(|| HttpError::new(409, "stage cache disabled on this hub"))
}

fn submit(request: &Request, hub: &Hub, who: &Identity) -> Result<(u16, String), HttpError> {
    let text = std::str::from_utf8(&request.body)
        .map_err(|_| HttpError::bad_request("body is not UTF-8"))?;
    let body =
        serde::json::parse(text).map_err(|e| HttpError::bad_request(format!("bad JSON: {e}")))?;
    let spec = crate::api::job_from_json(&body).map_err(HttpError::bad_request)?;
    match hub.submit(who, spec) {
        SubmitOutcome::Accepted(id) => Ok((
            202,
            json_field(vec![
                ("id", Value::U64(id)),
                ("state", Value::Str("queued".into())),
                ("tier", Value::Str(who.tier.to_string())),
            ]),
        )),
        SubmitOutcome::RateLimited => Err(HttpError::new(429, "tier rate limit exceeded")),
        SubmitOutcome::QueueFull => Err(HttpError::new(429, "tier queue is full")),
    }
}

fn job_status(hub: &Hub, who: &Identity, id: u64) -> Result<(u16, String), HttpError> {
    hub.job_status(who, id)
        .map(|status| (200, serde::json::to_string(&status)))
        .ok_or_else(|| HttpError::new(404, format!("no job {id}")))
}

fn job_result(hub: &Hub, who: &Identity, id: u64) -> Result<(u16, String), HttpError> {
    let status = hub
        .job_status(who, id)
        .ok_or_else(|| HttpError::new(404, format!("no job {id}")))?;
    match status.get("state").as_str() {
        Some("queued" | "running") => Err(HttpError::new(409, "job has not finished")),
        _ => Ok((200, serde::json::to_string(&status))),
    }
}
