//! The `serve-steady` workload: a default-config server on loopback,
//! driven closed-loop by two clients, one connection and one long
//! session each. Closed loop because a `Client` caller blocks on every
//! reply; an open-loop rate sweep needs a server that pipelines.

use crate::metrics::{
    highest_tail, mean, median, ms, peak_rss_mb, percentile, tail_label, Outcome,
};
use crate::spans::{write_trace, Spans};
use crate::{splitmix64, RunConfig};
use gpucmp_server::protocol::ErrorKind;
use gpucmp_server::{
    serve_local, Client, Request, Response, ServerConfig, ServerHandle, SessionService,
};
use std::collections::HashMap;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// Client threads, one connection each.
const CLIENTS: usize = 2;

/// Set-ups (server start, connects, steady sessions) timed per run,
/// spread over it.
const SETUP_REPS: usize = 10;

/// The workload's name, for messages and the trace.
const NAME: &str = "serve-steady";

/// Each op reads 4096 f32 = 16 KiB: above the server's 8 KiB
/// `BufWriter`, so every reply takes the large-write path.
const STEADY_ELEMS: u32 = 4096;

/// Threads per block of the `fill` launches.
const BLOCK: u32 = 128;

/// Traced ops per client whose exchanges are kept for the replay; the
/// cap bounds the memory the log takes.
const REPLAY_OPS: usize = 500;

/// Request kinds, for per-kind latency.
const KINDS: [&str; 6] = ["open", "alloc", "write", "launch", "read", "close"];

fn kind_of(req: &Request) -> usize {
    match req {
        Request::Open { .. } => 0,
        Request::Alloc { .. } => 1,
        Request::Write { .. } => 2,
        Request::Launch { .. } => 3,
        Request::Read { .. } => 4,
        _ => 5,
    }
}

/// One request and the response it got.
#[derive(Clone, Debug)]
struct Exchange {
    req: Request,
    resp: Response,
}

/// One client's connection and what it has seen.
struct Worker {
    id: usize,
    client: Client,
    rng: u64,
    /// The long session and its buffer.
    session: Option<(u64, u64)>,
    traced: bool,
    /// Whether the current op's exchanges go to `ops`.
    logging: bool,
    /// Traced ops so far; with `id` it makes the request id.
    seq: u64,
    /// Exchanges of the set-up (the long session), for the replay.
    prologue: Vec<Exchange>,
    /// Request id and exchanges of the first [`REPLAY_OPS`] traced ops,
    /// for the replay.
    ops: Vec<(u64, Vec<Exchange>)>,
    /// Latency of each op in `ops`.
    logged_ms: Vec<f64>,
    op_ms: Vec<f64>,
    kind_ms: [Vec<f64>; 6],
    spans: Spans,
    attempted: u64,
    errors: Vec<String>,
}

impl Worker {
    fn connect(addr: SocketAddr, id: usize, seed: u64, epoch: Instant) -> Result<Self, String> {
        let client = Client::connect(addr).map_err(|e| format!("client {id}: connect: {e}"))?;
        Ok(Worker {
            id,
            client,
            rng: seed ^ (id as u64).wrapping_mul(0xA076_1D64_78BD_642F),
            session: None,
            traced: false,
            logging: false,
            seq: 0,
            prologue: Vec::new(),
            ops: Vec::new(),
            logged_ms: Vec::new(),
            op_ms: Vec::new(),
            kind_ms: Default::default(),
            spans: Spans::new(epoch),
            attempted: 0,
            errors: Vec::new(),
        })
    }

    /// The request id of the current traced op, unique across clients.
    fn request_id(&self) -> u64 {
        ((self.id as u64) << 32) | self.seq
    }

    /// Send one request. A typed error reply or a broken connection is
    /// an `Err`; the caller checks the reply's variant.
    fn call(&mut self, req: Request, parent: Option<usize>) -> Result<Response, String> {
        let kind = kind_of(&req);
        let start = Instant::now();
        let resp = self.client.request(&req);
        let end = Instant::now();
        let resp = resp.map_err(|e| format!("{}: untyped transport error: {e}", KINDS[kind]))?;
        if self.traced {
            self.kind_ms[kind].push(ms(end - start));
            let request = self.request_id();
            self.spans
                .record(KINDS[kind], start, end, parent, request, self.id as u32);
        }
        if self.logging {
            if let Some((_, log)) = self.ops.last_mut() {
                log.push(Exchange {
                    req,
                    resp: resp.clone(),
                });
            }
        }
        match resp {
            Response::Error {
                kind: ErrorKind::Busy,
                message,
            } => Err(format!("{}: refused Busy: {message}", KINDS[kind])),
            Response::Error { kind: k, message } => Err(format!("{}: {k}: {message}", KINDS[kind])),
            r => Ok(r),
        }
    }

    fn open(&mut self, parent: Option<usize>) -> Result<u64, String> {
        let tenant = format!("client{}", self.id);
        match self.call(Request::Open { tenant }, parent)? {
            Response::Opened { session } => Ok(session),
            r => Err(format!("open: unexpected reply {r:?}")),
        }
    }

    fn alloc(&mut self, session: u64, bytes: u64, parent: Option<usize>) -> Result<u64, String> {
        match self.call(Request::Alloc { session, bytes }, parent)? {
            Response::Allocated { ptr } => Ok(ptr),
            r => Err(format!("alloc: unexpected reply {r:?}")),
        }
    }

    fn fill(
        &mut self,
        session: u64,
        ptr: u64,
        n: u32,
        value: f32,
        parent: Option<usize>,
    ) -> Result<(), String> {
        let req = Request::Launch {
            session,
            kernel: "fill".into(),
            grid: n.div_ceil(BLOCK),
            block: BLOCK,
            params: vec![ptr, n as u64, value.to_bits() as u64],
        };
        match self.call(req, parent)? {
            Response::Launched { .. } => Ok(()),
            r => Err(format!("launch: unexpected reply {r:?}")),
        }
    }

    fn read(
        &mut self,
        session: u64,
        ptr: u64,
        bytes: u64,
        parent: Option<usize>,
    ) -> Result<Vec<u8>, String> {
        match self.call(
            Request::Read {
                session,
                ptr,
                bytes,
            },
            parent,
        )? {
            Response::Data { data } => Ok(data),
            r => Err(format!("read: unexpected reply {r:?}")),
        }
    }

    fn close(&mut self, session: u64, parent: Option<usize>) -> Result<(), String> {
        match self.call(Request::Close { session }, parent)? {
            Response::Closed => Ok(()),
            r => Err(format!("close: unexpected reply {r:?}")),
        }
    }

    /// A seeded finite `f32`.
    fn value(&mut self) -> f32 {
        (splitmix64(&mut self.rng) >> 40) as f32 / 1024.0 - 8192.0
    }

    /// The set-up: one session and its 16 KiB buffer.
    fn open_steady(&mut self) -> Result<(), String> {
        self.logging = true;
        self.ops.push((self.request_id(), Vec::new()));
        let r: Result<_, String> = (|| {
            let s = self.open(None)?;
            let p = self.alloc(s, STEADY_ELEMS as u64 * 4, None)?;
            Ok((s, p))
        })();
        self.logging = false;
        self.prologue = self.ops.pop().map(|(_, log)| log).unwrap_or_default();
        self.session = Some(r?);
        Ok(())
    }

    /// One op: launch `fill` with a seeded value, read the buffer back.
    fn op(&mut self, parent: Option<usize>) -> Result<(), String> {
        let (s, p) = self.session.expect("the session is open");
        let v = self.value();
        self.fill(s, p, STEADY_ELEMS, v, parent)?;
        let data = self.read(s, p, STEADY_ELEMS as u64 * 4, parent)?;
        check_readback(&data, STEADY_ELEMS, v)
    }

    /// Run ops until `stop` says so; returns when the loop ended.
    fn run_ops(&mut self, traced: bool, done: &AtomicUsize, stop: impl Fn(usize) -> bool) {
        self.traced = traced;
        while !stop(done.load(Ordering::Relaxed)) {
            let start = Instant::now();
            if traced {
                self.seq += 1;
            }
            self.logging = traced && self.ops.len() < REPLAY_OPS;
            if self.logging {
                self.ops.push((self.request_id(), Vec::new()));
            }
            let root = if traced {
                let request = self.request_id();
                self.spans
                    .open("client.op", start, None, request, self.id as u32)
            } else {
                None
            };
            self.attempted += 1;
            let r = self.op(root);
            let end = Instant::now();
            self.spans.close(root, end);
            match r {
                Ok(()) => {
                    self.op_ms.push(ms(end - start));
                    if self.logging {
                        self.logged_ms.push(ms(end - start));
                    }
                }
                Err(e) => self.errors.push(format!("client {}: {e}", self.id)),
            }
            done.fetch_add(1, Ordering::Relaxed);
        }
        self.traced = false;
        self.logging = false;
    }
}

/// Check a readback: `filled` f32 that equal `value`, bit for bit.
fn check_readback(data: &[u8], filled: u32, value: f32) -> Result<(), String> {
    let len = filled as usize * 4;
    if data.len() != len {
        return Err(format!("readback of {} B, expected {len}", data.len()));
    }
    for (i, chunk) in data.chunks_exact(4).enumerate() {
        let got = u32::from_le_bytes(chunk.try_into().expect("4-byte chunk"));
        if got != value.to_bits() {
            return Err(format!(
                "readback element {i} is {:?}, expected {value:?}",
                f32::from_bits(got)
            ));
        }
    }
    Ok(())
}

/// A running server and its connected clients.
struct Rig {
    server: ServerHandle,
    workers: Vec<Worker>,
}

fn start(seed: u64, epoch: Instant) -> Result<Rig, String> {
    let server = serve_local(ServerConfig::default()).map_err(|e| format!("server: {e}"))?;
    let mut workers = Vec::new();
    for id in 0..CLIENTS {
        let mut d = Worker::connect(server.addr(), id, seed, epoch)?;
        d.open_steady()?;
        workers.push(d);
    }
    Ok(Rig { server, workers })
}

impl Rig {
    /// Close the sessions, drop the connections, stop the server.
    fn stop(mut self) -> Result<gpucmp_server::ServerStats, String> {
        for d in &mut self.workers {
            if let Some((s, _)) = d.session.take() {
                d.close(s, None)?;
            }
        }
        self.workers.clear();
        let stats = self.server.service().stats();
        self.server.shutdown();
        Ok(stats)
    }

    /// Every client drives ops on its own thread until `stop` holds.
    fn phase(&mut self, traced: bool, stop: impl Fn(usize) -> bool + Sync) -> Duration {
        let done = AtomicUsize::new(0);
        let start = Instant::now();
        std::thread::scope(|s| {
            for d in &mut self.workers {
                let (done, stop) = (&done, &stop);
                s.spawn(move || d.run_ops(traced, done, stop));
            }
        });
        start.elapsed()
    }
}

/// Per-op host time of the same request sequence replayed in-process:
/// through `SessionService::handle`, and through the wire codec.
#[derive(Debug, Default)]
struct Replay {
    handle_ms: Vec<f64>,
    codec_ms: Vec<f64>,
}

fn rewrite(req: &Request, sessions: &HashMap<u64, u64>) -> Request {
    let map = |s: &u64| *sessions.get(s).unwrap_or(s);
    let mut r = req.clone();
    match &mut r {
        Request::Close { session }
        | Request::Alloc { session, .. }
        | Request::Write { session, .. }
        | Request::Read { session, .. }
        | Request::Launch { session, .. }
        | Request::Reset { session } => *session = map(session),
        Request::Open { .. } | Request::Stats => {}
    }
    r
}

/// The in-process side of the replay.
struct Replayer<'a> {
    service: SessionService,
    sessions: HashMap<u64, u64>,
    spans: &'a mut Spans,
    out: &'a mut Outcome,
}

impl Replayer<'_> {
    /// Replay one exchange; returns its `(codec, handle)` milliseconds.
    fn one(&mut self, ex: &Exchange, parent: Option<usize>, tid: u32, op: u64) -> (f64, f64) {
        let req = rewrite(&ex.req, &self.sessions);
        let t0 = Instant::now();
        let decoded = Request::decode(&req.encode());
        let t1 = Instant::now();
        let resp = match decoded {
            Ok(r) => self.service.handle(r),
            Err(e) => Response::Error {
                kind: ErrorKind::BadRequest,
                message: e.to_string(),
            },
        };
        let t2 = Instant::now();
        let resp = Response::decode(&resp.encode());
        let t3 = Instant::now();
        self.spans.record("server.codec", t0, t1, parent, op, tid);
        self.spans.record("server.handle", t1, t2, parent, op, tid);
        self.spans.record("server.codec", t2, t3, parent, op, tid);
        match (&ex.resp, resp) {
            (Response::Opened { session: old }, Ok(Response::Opened { session: new })) => {
                self.sessions.insert(*old, new);
            }
            (want, got) => self.out.check(got.as_ref() == Ok(want), || {
                format!("replayed reply {got:?} differs from the served {want:?}")
            }),
        }
        (ms(t1 - t0) + ms(t3 - t2), ms(t2 - t1))
    }
}

/// Replay every recorded exchange (clients interleaved op by op) on a
/// fresh service, timing handler and codec; every reply must match the
/// one the TCP server sent.
fn replay(workers: &[Worker], spans: &mut Spans, out: &mut Outcome) -> Replay {
    let service = match SessionService::new(ServerConfig::default()) {
        Ok(s) => s,
        Err(e) => {
            out.check(false, || format!("replay service: {e}"));
            return Replay::default();
        }
    };
    let mut r = Replayer {
        service,
        sessions: HashMap::new(),
        spans,
        out,
    };
    let mut result = Replay::default();
    for d in workers {
        for ex in &d.prologue {
            r.one(ex, None, 10 + d.id as u32, (d.id as u64) << 32);
        }
    }
    let rounds = workers.iter().map(|d| d.ops.len()).max().unwrap_or(0);
    for i in 0..rounds {
        for d in workers {
            let Some((request, log)) = d.ops.get(i) else {
                continue;
            };
            let tid = 10 + d.id as u32;
            let root = r
                .spans
                .open("replay.op", Instant::now(), None, *request, tid);
            let (mut codec, mut handle) = (0.0, 0.0);
            for ex in log {
                let (c, h) = r.one(ex, root, tid, *request);
                codec += c;
                handle += h;
            }
            r.spans.close(root, Instant::now());
            result.codec_ms.push(codec);
            result.handle_ms.push(handle);
        }
    }
    result
}

/// Fold the workers' attempts and errors into `out`.
fn tally(out: &mut Outcome, workers: &mut [Worker]) {
    for d in workers {
        out.attempted += d.attempted;
        out.failed += d.errors.len() as u64;
        out.errors.append(&mut d.errors);
        d.attempted = 0;
    }
}

/// Run the workload.
pub fn run(cfg: &RunConfig) -> Outcome {
    let mut out = Outcome::default();
    let epoch = Instant::now();
    let mut setups = Vec::new();
    let mut timed_setup = |rep: u64| {
        let t = Instant::now();
        let rig = start(cfg.seed.wrapping_add(rep), epoch);
        setups.push(t.elapsed().as_secs_f64());
        rig
    };
    let mut rig = match timed_setup(0) {
        Ok(r) => r,
        Err(e) => {
            out.check(false, || format!("set-up failed: {e}"));
            return out;
        }
    };

    if !cfg.trace {
        // Before each tenth of the run but the first, a throwaway set-up
        // is timed, so the set-ups sample the whole run.
        let t0 = Instant::now();
        for chunk in 1..=SETUP_REPS {
            if chunk > 1 {
                match timed_setup(chunk as u64).and_then(Rig::stop) {
                    Ok(stats) => check_stats(&mut out, &stats),
                    Err(e) => out.check(false, || format!("a repeated set-up: {e}")),
                }
            }
            let until = Duration::from_secs_f64(cfg.seconds * chunk as f64 / SETUP_REPS as f64);
            let needed = if chunk == SETUP_REPS {
                cfg.min_samples
            } else {
                0
            };
            let attempted: usize = rig.workers.iter().map(|d| d.attempted as usize).sum();
            rig.phase(false, |done| {
                t0.elapsed() >= until && attempted + done >= needed
            });
        }
        let lat: Vec<f64> = rig
            .workers
            .iter()
            .flat_map(|d| d.op_ms.iter().copied())
            .collect();
        tally(&mut out, &mut rig.workers);
        match rig.stop() {
            Ok(stats) => check_stats(&mut out, &stats),
            Err(e) => out.check(false, || format!("stopping the server: {e}")),
        }
        out.check(lat.len() >= cfg.min_samples, || {
            format!(
                "{} samples, short of the {} the run needs",
                lat.len(),
                cfg.min_samples
            )
        });
        if lat.is_empty() {
            return out;
        }
        let tail = highest_tail(lat.len()).filter(|&p| p > 50.0);
        eprintln!(
            "{NAME}: {} ops by {CLIENTS} clients in {:.2} s; p50 {:.3} ms{}",
            lat.len(),
            t0.elapsed().as_secs_f64(),
            median(&lat),
            tail.map(|p| format!(", {} {:.3} ms", tail_label(p), percentile(&lat, p)))
                .unwrap_or_default()
        );
        out.push("latency_ms", "ms", median(&lat));
        out.push("setup_s", "s", median(&setups));
        if let Some(rss) = peak_rss_mb() {
            out.push("peak_rss_mb", "MB", rss);
        }
        return out;
    }

    // Traced run: an untraced phase, a traced phase of the same length,
    // then the traced request sequence replayed in-process.
    let phase = Duration::from_secs_f64(cfg.seconds / 3.0);
    let min_ops = cfg.min_iters;
    let t0 = Instant::now();
    rig.phase(false, |done| t0.elapsed() >= phase && done >= min_ops);
    let untraced: Vec<f64> = rig
        .workers
        .iter_mut()
        .flat_map(|d| d.op_ms.drain(..))
        .collect();
    let t1 = Instant::now();
    rig.phase(true, |done| t1.elapsed() >= phase && done >= min_ops);
    let traced: Vec<f64> = rig
        .workers
        .iter()
        .flat_map(|d| d.op_ms.iter().copied())
        .collect();
    let logged: Vec<f64> = rig
        .workers
        .iter()
        .flat_map(|d| d.logged_ms.iter().copied())
        .collect();
    tally(&mut out, &mut rig.workers);
    let mut spans = Spans::new(epoch);
    let rep = replay(&rig.workers, &mut spans, &mut out);

    let mut kind_ms: [Vec<f64>; 6] = Default::default();
    for d in &mut rig.workers {
        for (k, v) in d.kind_ms.iter_mut().enumerate() {
            kind_ms[k].append(v);
        }
        spans.absorb(std::mem::replace(&mut d.spans, Spans::new(epoch)));
    }
    let stats = match rig.stop() {
        Ok(s) => s,
        Err(e) => {
            out.check(false, || format!("stopping the server: {e}"));
            return out;
        }
    };
    check_stats(&mut out, &stats);
    if untraced.is_empty() || logged.is_empty() || rep.handle_ms.is_empty() {
        out.check(false, || "a phase completed no operation".into());
        return out;
    }
    for (k, name) in KINDS.iter().enumerate() {
        if !kind_ms[k].is_empty() {
            out.push(format!("server.{name}_ms"), "ms", median(&kind_ms[k]));
        }
    }
    // Handler and codec times come from replaying the logged ops, so
    // the transport share is taken against those same ops.
    let handle_ms = mean(&rep.handle_ms);
    let codec_ms = mean(&rep.codec_ms);
    out.push("server.handle_ms", "ms", handle_ms);
    out.push("server.codec_ms", "ms", codec_ms);
    out.push(
        "server.transport_ms",
        "ms",
        mean(&logged) - handle_ms - codec_ms,
    );
    out.push(
        "server.busy_rejections",
        "count",
        stats.busy_rejections as f64,
    );
    out.push("server.resets", "count", stats.resets as f64);
    out.push("server.launches", "count", stats.launches as f64);
    let op_ms = mean(&traced);
    out.push("trace.ops", "count", traced.len() as f64);
    out.push("trace.traced_ms", "ms", op_ms);
    out.push("trace.untraced_ms", "ms", mean(&untraced));
    out.push(
        "trace.overhead_pct",
        "%",
        (op_ms / mean(&untraced) - 1.0) * 100.0,
    );
    match write_trace(
        &format!("trace-{NAME}-{}.json", cfg.seed),
        &spans.chrome_trace(NAME),
    ) {
        Ok(path) => eprintln!("{NAME}: chrome trace at {}", path.display()),
        Err(e) => out.check(false, || format!("writing the chrome trace: {e}")),
    }
    out
}

/// Server-side invariants: nothing refused, every slot back in the pool.
fn check_stats(out: &mut Outcome, stats: &gpucmp_server::ServerStats) {
    out.check(stats.busy_rejections == 0, || {
        format!("{} opens were refused Busy", stats.busy_rejections)
    });
    out.check(stats.slots_free == stats.slots, || {
        format!(
            "{} of {} slots still claimed",
            stats.slots - stats.slots_free,
            stats.slots
        )
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn readback_check_is_exact() {
        let bytes = |v: &[f32]| v.iter().flat_map(|x| x.to_le_bytes()).collect::<Vec<u8>>();
        assert!(check_readback(&bytes(&[2.0, 2.0]), 2, 2.0).is_ok());
        assert!(check_readback(&bytes(&[2.0, 2.5]), 2, 2.0).is_err());
        assert!(check_readback(&bytes(&[0.0]), 1, -0.0).is_err());
        assert!(check_readback(&bytes(&[2.0]), 2, 2.0).is_err());
        assert!(check_readback(&bytes(&[2.0, 2.0, 2.0]), 2, 2.0).is_err());
    }
}
