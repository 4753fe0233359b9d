//! A tiny blocking HTTP client for the hub: `forge client`, the load
//! generator and the integration tests all speak through it, so the
//! service is exercised over real sockets, never via in-process calls.

use chipforge_exec::remote::http_exchange;
use chipforge_resil::Backoff;
use serde::Value;
use std::time::{Duration, Instant};

/// Budget for each of connect, write and read of one exchange.
const EXCHANGE_TIMEOUT: Duration = Duration::from_secs(30);

/// Hub client: server address plus the API key requests present.
///
/// Transport failures (refused connection, reset, timeout) are retried
/// with capped exponential backoff before surfacing the named
/// `hub unreachable` error; HTTP-level refusals are never retried.
#[derive(Debug, Clone)]
pub struct Client {
    addr: String,
    key: String,
    retries: u32,
    backoff: Backoff,
}

/// One decoded HTTP response.
#[derive(Debug, Clone)]
pub struct Response {
    /// HTTP status code.
    pub status: u16,
    /// Parsed JSON body.
    pub body: Value,
}

impl Client {
    /// A client for the hub at `addr` (e.g. `127.0.0.1:8080`)
    /// presenting `key`. Defaults to 3 transport retries with a 250 ms
    /// backoff base.
    #[must_use]
    pub fn new(addr: impl Into<String>, key: impl Into<String>) -> Self {
        Client {
            addr: addr.into(),
            key: key.into(),
            retries: 3,
            backoff: Backoff {
                base: Duration::from_millis(250),
                max: Duration::from_millis(2_000),
                seed: 0,
            },
        }
    }

    /// Overrides the transport retry policy: `retries` extra attempts,
    /// exponential backoff from `retry_ms` capped at 8× the base.
    /// `retries = 0` fails on the first transport error.
    #[must_use]
    pub fn with_retries(mut self, retries: u32, retry_ms: u64) -> Self {
        self.retries = retries;
        self.backoff = Backoff {
            base: Duration::from_millis(retry_ms),
            max: Duration::from_millis(retry_ms.saturating_mul(8)),
            seed: 0,
        };
        self
    }

    /// Sends one request and decodes the JSON response, retrying
    /// transport failures per the retry policy.
    ///
    /// # Errors
    ///
    /// Returns `hub unreachable: <addr> after <n> attempt(s): <cause>`
    /// when every attempt fails at the transport layer, or a message
    /// for non-JSON bodies.
    pub fn request(
        &self,
        method: &str,
        path: &str,
        body: Option<&str>,
    ) -> Result<Response, String> {
        let attempts = self.retries.saturating_add(1);
        let mut last_error = String::new();
        for attempt in 0..attempts {
            if attempt > 0 {
                std::thread::sleep(self.backoff.delay(path, attempt));
            }
            let headers = [("x-api-key", self.key.as_str())];
            let exchange =
                http_exchange(&self.addr, EXCHANGE_TIMEOUT, method, path, &headers, body)
                    .map_err(|e| e.to_string());
            match exchange.and_then(decode) {
                Ok(response) => return Ok(response),
                Err(error) => last_error = error,
            }
        }
        Err(format!(
            "hub unreachable: {} after {attempts} attempt(s): {last_error}",
            self.addr
        ))
    }

    /// Submits one job body; returns the assigned id on 202, or the
    /// full refusal response otherwise.
    ///
    /// # Errors
    ///
    /// Transport failures only; admission refusals are `Ok` responses.
    pub fn submit(&self, job: &str) -> Result<Result<u64, Response>, String> {
        let response = self.request("POST", "/api/v1/jobs", Some(job))?;
        if response.status == 202 {
            let id = response
                .body
                .get("id")
                .as_u64()
                .ok_or_else(|| "202 without an id".to_string())?;
            return Ok(Ok(id));
        }
        Ok(Err(response))
    }

    /// Fetches one job's status JSON.
    ///
    /// # Errors
    ///
    /// Transport failures, or a non-200 status.
    pub fn job_status(&self, id: u64) -> Result<Value, String> {
        let response = self.request("GET", &format!("/api/v1/jobs/{id}"), None)?;
        if response.status != 200 {
            return Err(format!("job {id}: HTTP {}", response.status));
        }
        Ok(response.body)
    }

    /// Polls a job until it reaches a terminal state.
    ///
    /// # Errors
    ///
    /// Transport failures, or `timeout` elapsing first.
    pub fn wait(&self, id: u64, timeout: Duration) -> Result<Value, String> {
        let deadline = Instant::now() + timeout;
        loop {
            let status = self.job_status(id)?;
            match status.get("state").as_str() {
                Some("queued" | "running") => {}
                _ => return Ok(status),
            }
            if Instant::now() >= deadline {
                return Err(format!("job {id} did not finish within {timeout:?}"));
            }
            std::thread::sleep(Duration::from_millis(10));
        }
    }

    /// Cancels a queued job; `Ok(true)` if it was cancelled.
    ///
    /// # Errors
    ///
    /// Transport failures only.
    pub fn cancel(&self, id: u64) -> Result<bool, String> {
        let response = self.request("POST", &format!("/api/v1/jobs/{id}/cancel"), None)?;
        Ok(response.status == 200)
    }

    /// Lists this tenant's jobs.
    ///
    /// # Errors
    ///
    /// Transport failures, or a non-200 status.
    pub fn list(&self) -> Result<Value, String> {
        let response = self.request("GET", "/api/v1/jobs", None)?;
        if response.status != 200 {
            return Err(format!("list: HTTP {}", response.status));
        }
        Ok(response.body)
    }

    /// Fetches the `/metrics` snapshot (no authentication required).
    ///
    /// # Errors
    ///
    /// Transport failures, or a non-200 status.
    pub fn metrics(&self) -> Result<Value, String> {
        let response = self.request("GET", "/metrics", None)?;
        if response.status != 200 {
            return Err(format!("metrics: HTTP {}", response.status));
        }
        Ok(response.body)
    }
}

/// Decodes an answered exchange's JSON body.
fn decode((status, body): (u16, String)) -> Result<Response, String> {
    let body = serde::json::parse(&body).map_err(|e| format!("non-JSON body: {e}"))?;
    Ok(Response { status, body })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse_response(raw: &str) -> Result<Response, String> {
        chipforge_exec::remote::parse_response(raw)
            .ok_or_else(|| "malformed response".to_string())
            .and_then(decode)
    }

    #[test]
    fn parses_a_minimal_response() {
        let raw = "HTTP/1.1 202 Accepted\r\ncontent-type: application/json\r\n\r\n{\"id\":7}";
        let response = parse_response(raw).expect("parses");
        assert_eq!(response.status, 202);
        assert_eq!(response.body.get("id").as_u64(), Some(7));
    }

    #[test]
    fn rejects_garbage() {
        assert!(parse_response("not http").is_err());
        assert!(parse_response("HTTP/1.1 abc\r\n\r\n{}").is_err());
        assert!(parse_response("HTTP/1.1 200 OK\r\n\r\nnot json").is_err());
    }
}
