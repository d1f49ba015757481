//! Multi-tenant soak harness for `gpucmp-server`.
//!
//! ```text
//! cargo run --release -p gpucmp-bench --bin serve_bench -- \
//!     [--tenants N] [--iters N] [--slots N] [--seed S] [--trace out.json]
//! ```
//!
//! Spins up an in-process server, drives it with N concurrent tenant
//! threads over real TCP, and reports request-latency percentiles plus
//! the fault-isolation counters. When a chaos seed is set (`--seed` or
//! the `GPUCMP_FAULT_SEED` env var, matching the campaign's fault
//! convention), one extra *chaos tenant* repeatedly faults its own
//! context (out-of-bounds stores, watchdog-tripping spins) and resets
//! it, while the harness asserts the well-behaved tenants' results stay
//! bit-identical to a fault-free reference run.
//!
//! Exit protocol (the CI gate's convention):
//!
//! | exit | meaning                                                     |
//! |------|-------------------------------------------------------------|
//! | 0    | clean soak: no chaos seed, every invariant held             |
//! | 2    | partial: chaos ran under a *declared* seed, faults were     |
//! |      | injected and contained, every surviving invariant held      |
//! | 1    | an invariant broke (cross-tenant corruption, slot growth,   |
//! |      | untyped failure, server hang/crash)                         |

use gpucmp_ptx::splitmix64;
use gpucmp_server::protocol::ErrorKind;
use gpucmp_server::{serve_local, Client, RetryPolicy, ServerConfig, TenantQuota};
use std::process::ExitCode;
use std::time::{Duration, Instant};

const N_ELEMS: u32 = 512;
const BYTES: u64 = N_ELEMS as u64 * 4;

fn retry(seed: u64) -> RetryPolicy {
    RetryPolicy {
        max_attempts: 200,
        base_delay: Duration::from_micros(200),
        max_delay: Duration::from_millis(20),
        deadline: Duration::from_secs(30),
        seed,
    }
}

fn fill_params(ptr: u64, n: u32, v: f32) -> Vec<u64> {
    vec![ptr, n as u64, f32::to_bits(v) as u64]
}

/// One well-behaved tenant: open → alloc → iterate fill/read → close,
/// recording per-request latencies and the final readback.
fn good_tenant(
    addr: std::net::SocketAddr,
    name: String,
    iters: u32,
    seed: u64,
) -> Result<(Vec<f64>, Vec<u8>), String> {
    let mut c = Client::connect(addr).map_err(|e| format!("{name}: connect: {e}"))?;
    let policy = retry(seed);
    let s = c
        .open(&name, &policy)
        .map_err(|e| format!("{name}: open: {e}"))?;
    let ptr = c
        .alloc(s, BYTES)
        .map_err(|e| format!("{name}: alloc: {e}"))?;
    let mut latencies_ms = Vec::with_capacity(iters as usize);
    let mut data = Vec::new();
    for i in 0..iters {
        let v = (i % 7) as f32 + 0.5;
        let t0 = Instant::now();
        c.launch(s, "fill", N_ELEMS / 128, 128, fill_params(ptr, N_ELEMS, v))
            .map_err(|e| format!("{name}: launch {i}: {e}"))?;
        data = c
            .read(s, ptr, BYTES)
            .map_err(|e| format!("{name}: read {i}: {e}"))?;
        latencies_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        for chunk in data.chunks_exact(4) {
            let got = f32::from_le_bytes(chunk.try_into().unwrap());
            if got != v {
                return Err(format!("{name}: iter {i}: read {got}, expected {v}"));
            }
        }
    }
    c.close(s).map_err(|e| format!("{name}: close: {e}"))?;
    Ok((latencies_ms, data))
}

/// The chaos tenant: alternate out-of-bounds faults and watchdog spins,
/// verify each poisons only its own session (sticky `ContextLost` until
/// `Reset`), seeded so a run replays exactly.
fn chaos_tenant(addr: std::net::SocketAddr, rounds: u32, seed: u64) -> Result<u64, String> {
    let mut c = Client::connect(addr).map_err(|e| format!("chaos: connect: {e}"))?;
    let policy = retry(seed ^ 0xC4A0);
    let s = c
        .open("chaos", &policy)
        .map_err(|e| format!("chaos: open: {e}"))?;
    let ptr = c.alloc(s, 1024).map_err(|e| format!("chaos: alloc: {e}"))?;
    let mut rng = seed;
    let mut faults = 0u64;
    for round in 0..rounds {
        let (kernel, params): (&str, Vec<u64>) = if splitmix64(&mut rng) % 2 == 0 {
            ("oob", vec![ptr])
        } else {
            ("spin", vec![ptr, 100_000_000])
        };
        match c.launch(s, kernel, 1, 32, params) {
            Err(e) if e.kind() == Some(ErrorKind::DeviceFault) => faults += 1,
            Err(e) => return Err(format!("chaos: round {round}: untyped failure: {e}")),
            Ok(_) => return Err(format!("chaos: round {round}: {kernel} did not fault")),
        }
        // Sticky until reset: the next request must bounce, typed.
        match c.alloc(s, 64) {
            Err(e) if e.kind() == Some(ErrorKind::ContextLost) => {}
            other => {
                return Err(format!(
                    "chaos: round {round}: expected ContextLost, got {other:?}"
                ))
            }
        }
        let had_fault = c
            .reset_session(s)
            .map_err(|e| format!("chaos: round {round}: reset: {e}"))?;
        if !had_fault {
            return Err(format!("chaos: round {round}: reset saw no fault"));
        }
        let _ = c
            .alloc(s, 1024)
            .map_err(|e| format!("chaos: round {round}: realloc: {e}"))?;
    }
    c.close(s).map_err(|e| format!("chaos: close: {e}"))?;
    Ok(faults)
}

fn percentile(sorted_ms: &[f64], p: f64) -> f64 {
    if sorted_ms.is_empty() {
        return 0.0;
    }
    let idx = ((sorted_ms.len() - 1) as f64 * p).round() as usize;
    sorted_ms[idx]
}

fn main() -> ExitCode {
    let mut tenants: u32 = 4;
    let mut iters: u32 = 50;
    let mut slots: usize = 3;
    let mut seed: Option<u64> = std::env::var("GPUCMP_FAULT_SEED")
        .ok()
        .and_then(|v| v.parse().ok());
    let mut trace_out: Option<String> = None;
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let mut grab = || it.next().cloned().unwrap_or_default();
        match a.as_str() {
            "--tenants" => tenants = grab().parse().unwrap_or(tenants),
            "--iters" => iters = grab().parse().unwrap_or(iters),
            "--slots" => slots = grab().parse().unwrap_or(slots),
            "--seed" => seed = grab().parse().ok(),
            "--trace" => trace_out = Some(grab()),
            other => {
                eprintln!("serve_bench: unknown argument '{other}'");
                eprintln!(
                    "usage: serve_bench [--tenants N] [--iters N] [--slots N] \
                     [--seed S] [--trace out.json]"
                );
                return ExitCode::FAILURE;
            }
        }
    }
    let chaos_rounds = 5u32;
    let device = gpucmp_sim::DeviceSpec::gtx480();

    // Fault-free reference: what every well-behaved tenant must read
    // back bit-for-bit, chaos or not.
    let reference = {
        let mut server = serve_local(ServerConfig {
            device: device.clone(),
            slots: 1,
            arena_bytes: 4 << 20,
            quota: TenantQuota::default(),
            trace: false,
        })
        .expect("reference server");
        let r = good_tenant(server.addr(), "reference".into(), iters, 0);
        server.shutdown();
        match r {
            Ok((_, data)) => data,
            Err(e) => {
                eprintln!("serve_bench: FAIL — reference run: {e}");
                return ExitCode::FAILURE;
            }
        }
    };

    let mut server = serve_local(ServerConfig {
        device,
        slots,
        arena_bytes: 4 << 20,
        // A tight watchdog keeps the chaos tenant's runaway `spin`
        // launches cheap: the point is the typed fault, not the burn.
        quota: TenantQuota {
            inst_budget: Some(200_000),
            ..TenantQuota::default()
        },
        trace: trace_out.is_some(),
    })
    .expect("soak server");
    let addr = server.addr();

    // Typed-backpressure probe: an allocation over the resident-byte
    // quota must come back QuotaExceeded — a response, not a hang.
    let quota_probe = {
        let mut c = Client::connect(addr).expect("probe connect");
        let s = c.open("probe", &retry(0xBEEF)).expect("probe open");
        let over = TenantQuota::default().max_resident_bytes + 1;
        let r = match c.alloc(s, over) {
            Err(e) if e.kind() == Some(ErrorKind::QuotaExceeded) => Ok(()),
            other => Err(format!("over-quota alloc returned {other:?}")),
        };
        c.close(s).expect("probe close");
        r
    };

    let start = Instant::now();
    let mut joins = Vec::new();
    for t in 0..tenants {
        let name = format!("tenant-{t}");
        joins.push(std::thread::spawn(move || {
            good_tenant(addr, name, iters, 0x5EED + t as u64)
        }));
    }
    let chaos_join = seed.map(|s| std::thread::spawn(move || chaos_tenant(addr, chaos_rounds, s)));

    let mut errors: Vec<String> = Vec::new();
    if let Err(e) = quota_probe {
        errors.push(e);
    }
    let mut latencies: Vec<f64> = Vec::new();
    for j in joins {
        match j.join().expect("tenant thread") {
            Ok((lat, data)) => {
                latencies.extend(lat);
                if data != reference {
                    errors.push("tenant readback diverged from the fault-free reference".into());
                }
            }
            Err(e) => errors.push(e),
        }
    }
    let mut injected_faults = 0u64;
    if let Some(j) = chaos_join {
        match j.join().expect("chaos thread") {
            Ok(n) => injected_faults = n,
            Err(e) => errors.push(e),
        }
    }
    let wall = start.elapsed();

    // The server must still answer, and the pool must show no growth
    // and no leaked slots.
    let stats = match Client::connect(addr)
        .and_then(|mut c| c.stats().map_err(|e| std::io::Error::other(e.to_string())))
    {
        Ok(s) => s,
        Err(e) => {
            eprintln!("serve_bench: FAIL — server unreachable after soak: {e}");
            return ExitCode::FAILURE;
        }
    };
    if stats.slots as usize != slots {
        errors.push(format!(
            "pool grew: {} slots, configured {slots}",
            stats.slots
        ));
    }
    if stats.slots_free != stats.slots {
        errors.push(format!(
            "slot leak: {} of {} slots free after all sessions closed",
            stats.slots_free, stats.slots
        ));
    }
    if stats.opens != stats.closes {
        errors.push(format!(
            "session leak: {} opens vs {} closes",
            stats.opens, stats.closes
        ));
    }
    if stats.device_faults != injected_faults {
        errors.push(format!(
            "fault containment: {} device faults recorded, {injected_faults} injected",
            stats.device_faults
        ));
    }
    if stats.quota_rejections == 0 {
        errors.push("quota probe left no typed rejection in the counters".into());
    }

    if let Some(path) = &trace_out {
        let streams: Vec<(String, Vec<gpucmp_runtime::SessionEvent>)> = server
            .service()
            .take_traces()
            .into_iter()
            .map(|t| (format!("{} / session {}", t.tenant, t.session), t.events))
            .collect();
        let doc = gpucmp_trace::chrome_trace_multi(&gpucmp_sim::DeviceSpec::gtx480(), &streams);
        if let Err(e) = std::fs::write(path, doc.to_text()) {
            errors.push(format!("trace export to {path}: {e}"));
        } else {
            println!(
                "serve_bench: wrote {} tenant streams to {path}",
                streams.len()
            );
        }
    }
    server.shutdown();

    latencies.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let total_requests = stats.launches + stats.opens + stats.closes + stats.resets;
    println!(
        "serve_bench: {} tenants x {} iters over {} slots in {:.2}s ({} launches)",
        tenants,
        iters,
        slots,
        wall.as_secs_f64(),
        stats.launches
    );
    println!(
        "serve_bench: launch+read latency p50 {:.3} ms, p99 {:.3} ms ({} samples)",
        percentile(&latencies, 0.50),
        percentile(&latencies, 0.99),
        latencies.len()
    );
    println!(
        "serve_bench: counters — busy {} quota {} faults {} context_lost {} resets {} \
         ({} requests total)",
        stats.busy_rejections,
        stats.quota_rejections,
        stats.device_faults,
        stats.context_lost,
        stats.resets,
        total_requests,
    );

    if !errors.is_empty() {
        for e in &errors {
            eprintln!("serve_bench: FAIL — {e}");
        }
        return ExitCode::FAILURE;
    }
    match seed {
        Some(s) => {
            println!(
                "serve_bench: PARTIAL — {injected_faults} faults injected under seed {s}, \
                 all contained; neighbours bit-identical to the fault-free reference"
            );
            ExitCode::from(2)
        }
        None => {
            println!("serve_bench: PASS — clean soak, every invariant held");
            ExitCode::SUCCESS
        }
    }
}
