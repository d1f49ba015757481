//! The client: a blocking connection plus deadline-aware retry.
//!
//! The retry loop only ever retries
//! [`ErrorKind::Busy`](crate::protocol::ErrorKind::Busy) — the one error
//! class where waiting can help (a slot may free up). Quota violations,
//! lost contexts and bad requests are returned immediately: retrying
//! them without changing anything cannot succeed, and hammering a
//! poisoned session is exactly the anti-pattern the typed errors exist
//! to prevent.
//!
//! Backoff is exponential with *seeded* jitter (a splitmix64 stream), so
//! a soak run under a fixed seed replays the same retry schedule — the
//! same determinism discipline the simulator itself follows.

use crate::protocol::{read_frame, write_frame, Request, Response, ServerStats};
use crate::server::ClientError;
use gpucmp_ptx::splitmix64;
use std::io::{self, BufReader, BufWriter};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::{Duration, Instant};

/// Exponential-backoff retry schedule for `Busy` rejections.
#[derive(Clone, Copy, Debug)]
pub struct RetryPolicy {
    /// Give up after this many attempts (1 = no retry).
    pub max_attempts: u32,
    /// Delay before the first retry; doubles each attempt.
    pub base_delay: Duration,
    /// Ceiling on any single delay.
    pub max_delay: Duration,
    /// Total time budget across all attempts; when the *next* sleep
    /// would cross it, the last response is returned instead.
    pub deadline: Duration,
    /// Jitter seed: the same seed replays the same schedule.
    pub seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 8,
            base_delay: Duration::from_millis(2),
            max_delay: Duration::from_millis(250),
            deadline: Duration::from_secs(5),
            seed: 0x9E37_79B9,
        }
    }
}

impl RetryPolicy {
    /// Delay before retry number `attempt` (0-based): `base * 2^attempt`
    /// capped at `max_delay`, scaled by a jitter factor in `[0.5, 1.0)`
    /// drawn from the seeded stream.
    fn delay(&self, attempt: u32, jitter: &mut u64) -> Duration {
        let exp = self
            .base_delay
            .saturating_mul(1u32 << attempt.min(16))
            .min(self.max_delay);
        let frac = (splitmix64(jitter) >> 11) as f64 / (1u64 << 53) as f64;
        exp.mul_f64(0.5 + frac / 2.0)
    }
}

/// A blocking client connection.
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: BufWriter<TcpStream>,
}

impl Client {
    /// Connect to a server.
    pub fn connect(addr: impl ToSocketAddrs) -> io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        let reader = BufReader::new(stream.try_clone()?);
        Ok(Client {
            reader,
            writer: BufWriter::new(stream),
        })
    }

    /// Send one request and wait for its response. No retry.
    pub fn request(&mut self, req: &Request) -> io::Result<Response> {
        write_frame(&mut self.writer, &req.encode())?;
        let payload = read_frame(&mut self.reader)?.ok_or_else(|| {
            io::Error::new(io::ErrorKind::UnexpectedEof, "server closed the connection")
        })?;
        Response::decode(&payload)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))
    }

    /// Send a request, retrying `Busy` rejections per `policy`. Returns
    /// the first non-`Busy` response, or the final `Busy` once attempts
    /// or the deadline run out.
    pub fn request_with_retry(
        &mut self,
        req: &Request,
        policy: &RetryPolicy,
    ) -> io::Result<Response> {
        let start = Instant::now();
        let mut jitter = policy.seed;
        for attempt in 0..policy.max_attempts {
            let resp = self.request(req)?;
            let retryable = matches!(&resp, Response::Error { kind, .. } if kind.is_retryable());
            if !retryable || attempt + 1 == policy.max_attempts {
                return Ok(resp);
            }
            let delay = policy.delay(attempt, &mut jitter);
            if start.elapsed() + delay > policy.deadline {
                return Ok(resp);
            }
            std::thread::sleep(delay);
        }
        unreachable!("loop returns on the last attempt");
    }

    // ---- typed conveniences -------------------------------------------

    /// Open a session, retrying `Busy` per `policy`.
    pub fn open(&mut self, tenant: &str, policy: &RetryPolicy) -> Result<u64, ClientError> {
        match self.request_with_retry(
            &Request::Open {
                tenant: tenant.into(),
            },
            policy,
        )? {
            Response::Opened { session } => Ok(session),
            other => Err(unexpected("Opened", other)),
        }
    }

    /// Close a session.
    pub fn close(&mut self, session: u64) -> Result<(), ClientError> {
        match self.request(&Request::Close { session })? {
            Response::Closed => Ok(()),
            other => Err(unexpected("Closed", other)),
        }
    }

    /// Allocate device memory; returns the device pointer.
    pub fn alloc(&mut self, session: u64, bytes: u64) -> Result<u64, ClientError> {
        match self.request(&Request::Alloc { session, bytes })? {
            Response::Allocated { ptr } => Ok(ptr),
            other => Err(unexpected("Allocated", other)),
        }
    }

    /// Host-to-device write.
    pub fn write(&mut self, session: u64, ptr: u64, data: Vec<u8>) -> Result<(), ClientError> {
        match self.request(&Request::Write { session, ptr, data })? {
            Response::Written => Ok(()),
            other => Err(unexpected("Written", other)),
        }
    }

    /// Device-to-host read.
    pub fn read(&mut self, session: u64, ptr: u64, bytes: u64) -> Result<Vec<u8>, ClientError> {
        match self.request(&Request::Read {
            session,
            ptr,
            bytes,
        })? {
            Response::Data { data } => Ok(data),
            other => Err(unexpected("Data", other)),
        }
    }

    /// Launch a registry kernel; returns the modelled kernel time, ns.
    pub fn launch(
        &mut self,
        session: u64,
        kernel: &str,
        grid: u32,
        block: u32,
        params: Vec<u64>,
    ) -> Result<f64, ClientError> {
        match self.request(&Request::Launch {
            session,
            kernel: kernel.into(),
            grid,
            block,
            params,
        })? {
            Response::Launched { kernel_ns } => Ok(kernel_ns),
            other => Err(unexpected("Launched", other)),
        }
    }

    /// Reset the session's context; returns whether a fault was cleared.
    pub fn reset_session(&mut self, session: u64) -> Result<bool, ClientError> {
        match self.request(&Request::Reset { session })? {
            Response::ResetDone { had_fault, .. } => Ok(had_fault),
            other => Err(unexpected("ResetDone", other)),
        }
    }

    /// Fetch the server counters.
    pub fn stats(&mut self) -> Result<ServerStats, ClientError> {
        match self.request(&Request::Stats)? {
            Response::Stats(s) => Ok(s),
            other => Err(unexpected("Stats", other)),
        }
    }
}

fn unexpected(wanted: &str, got: Response) -> ClientError {
    match got {
        Response::Error { kind, message } => ClientError::Server { kind, message },
        other => ClientError::Protocol(format!("expected {wanted}, got {other:?}")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_is_deterministic_bounded_and_growing() {
        let p = RetryPolicy {
            base_delay: Duration::from_millis(4),
            max_delay: Duration::from_millis(100),
            ..RetryPolicy::default()
        };
        let mut j1 = p.seed;
        let mut j2 = p.seed;
        for attempt in 0..10 {
            let a = p.delay(attempt, &mut j1);
            let b = p.delay(attempt, &mut j2);
            assert_eq!(a, b, "same seed, same schedule");
            assert!(a <= p.max_delay, "capped");
            assert!(a >= p.base_delay / 2, "never collapses to zero");
        }
        // A different seed gives a different schedule (with overwhelming
        // probability for 10 draws).
        let mut j3 = p.seed ^ 0xDEAD_BEEF;
        let same = (0..10).all(|i| {
            let mut j = p.seed;
            for _ in 0..i {
                splitmix64(&mut j);
            }
            p.delay(i, &mut j) == p.delay(i, &mut j3)
        });
        assert!(!same);
    }
}
