//! The `kernel-build` workload: build a fixed kernel set through both
//! front-ends at both campaign devices' register caps, then resolve,
//! hash and decode each result. No launches, so the compiler does nearly
//! all the work; it mirrors `campaign`, where the simulator does.

use crate::campaign;
use crate::metrics::{median, peak_rss_mb, Outcome};
use crate::recording::{Captured, Ledger};
use crate::spans::{write_trace, Spans};
use crate::RunConfig;
use gpucmp_compiler::{compile_with_style, lower::lower, ptxas, Api, KernelDef};
use gpucmp_fuzz::{case_seed, generate};
use gpucmp_ptx::{kernel_hash, validate_kernel, InstStats};
use gpucmp_runtime::RtError;
use gpucmp_sim::{decode_kernel, DeviceSpec};
use std::hint::black_box;
use std::time::Instant;

/// Set-ups timed per run, spread over it.
const SETUP_REPS: usize = 10;

/// A kernel of the set, with the hashes it must build to.
#[derive(Clone, Debug, PartialEq)]
pub struct Job {
    /// The definition.
    pub def: KernelDef,
    /// `(api, device, kernel_hash)` the campaign's sessions loaded.
    pub expect: Vec<(Api, &'static str, u64)>,
}

/// The distinct kernel definitions one campaign pass builds, with the
/// code hash each `(api, device)` loaded. With `capture_only`, every
/// benchmark stops at its first launch; each builds all its kernels
/// before that, which a test checks.
fn capture(seed: u64, capture_only: bool) -> Result<Vec<Captured>, String> {
    let benches = campaign::benchmarks();
    let mut ledger = Ledger {
        captured: Some(Vec::new()),
        capture_only,
        ..Ledger::default()
    };
    for cell in campaign::plan(benches.len(), seed) {
        let bench = benches[cell.bench].as_ref();
        match campaign::run_cell_recorded(bench, &cell, &mut ledger).0 {
            Ok(_) => {}
            Err(RtError::Injected { op: "launch", .. }) if capture_only => {}
            Err(e) => return Err(format!("capturing {}: {e}", bench.name())),
        }
    }
    Ok(ledger.captured.unwrap_or_default())
}

/// The kernel set: the campaign's distinct kernels, then as many seeded
/// generated ones, so each source makes half the builds.
pub fn kernel_set(seed: u64) -> Result<Vec<Job>, String> {
    let mut jobs: Vec<Job> = Vec::new();
    for c in capture(seed, true)? {
        let expect = (c.api, c.device, c.code_hash);
        match jobs.iter_mut().find(|j| j.def == c.def) {
            Some(j) => j.expect.push(expect),
            None => jobs.push(Job {
                def: c.def,
                expect: vec![expect],
            }),
        }
    }
    for i in 0..jobs.len() as u64 {
        jobs.push(Job {
            def: generate(case_seed(seed, i)).def,
            expect: Vec::new(),
        });
    }
    Ok(jobs)
}

/// Every `(api, device)` each kernel is built for.
fn targets() -> Vec<(Api, DeviceSpec)> {
    let mut t = Vec::new();
    for api in Api::both() {
        for device in campaign::devices() {
            t.push((api, device));
        }
    }
    t
}

/// Per-stage host time of traced builds, ns.
#[derive(Debug, Default)]
struct Stages {
    lower: u64,
    validate: u64,
    stats: u64,
    ptxas: u64,
    resolve: u64,
    hash: u64,
    decode: u64,
    ptx_insts: u64,
}

/// One build the way `Gpu::build` does it, plus the decode a first
/// launch adds; returns the code hash.
fn build(def: &KernelDef, api: Api, device: &DeviceSpec) -> Result<u64, String> {
    let compiled = compile_with_style(def, &api.style(), device.max_regs_per_thread)
        .map_err(|e| e.to_string())?;
    let resolved = compiled.exec.resolve()?;
    let hash = kernel_hash(&resolved.kernel);
    black_box(decode_kernel(&resolved, device));
    black_box(compiled.ptx_stats);
    Ok(hash)
}

/// [`build`] with every stage of `compile_with_style` called and timed
/// separately, recording one span per stage under one span per build.
fn build_traced(
    def: &KernelDef,
    api: Api,
    device: &DeviceSpec,
    st: &mut Stages,
    spans: &mut Option<Spans>,
    request: u64,
) -> Result<u64, String> {
    let t_build = Instant::now();
    let root = spans
        .as_mut()
        .and_then(|s| s.open("kernel.build", t_build, None, request, 0));
    let mut stage = |name: &'static str, acc: &mut u64, start: Instant| {
        let end = Instant::now();
        *acc += end.duration_since(start).as_nanos() as u64;
        if let Some(s) = spans.as_mut() {
            s.record(name, start, end, root, request, 0);
        }
    };
    let t = Instant::now();
    let ptx = lower(def, &api.style());
    stage("compiler.lower", &mut st.lower, t);
    let t = Instant::now();
    let ok = validate_kernel(&ptx);
    stage("compiler.validate", &mut st.validate, t);
    ok.map_err(|e| format!("front-end output invalid: {e}"))?;
    let t = Instant::now();
    let ptx_stats = InstStats::of_kernel(&ptx);
    stage("compiler.stats", &mut st.stats, t);
    st.ptx_insts += ptx_stats.total();
    let t = Instant::now();
    let mut exec = ptx.clone();
    black_box(ptxas::run(&mut exec, device.max_regs_per_thread));
    stage("compiler.ptxas", &mut st.ptxas, t);
    let t = Instant::now();
    let ok = validate_kernel(&exec);
    stage("compiler.validate", &mut st.validate, t);
    ok.map_err(|e| format!("ptxas output invalid: {e}"))?;
    let t = Instant::now();
    let resolved = exec.resolve();
    stage("ptx.resolve", &mut st.resolve, t);
    let resolved = resolved?;
    let t = Instant::now();
    let hash = kernel_hash(&resolved.kernel);
    stage("ptx.hash", &mut st.hash, t);
    let t = Instant::now();
    black_box(decode_kernel(&resolved, device));
    stage("sim.decode", &mut st.decode, t);
    if let Some(s) = spans.as_mut() {
        s.close(root, Instant::now());
    }
    Ok(hash)
}

/// One pass over the set.
struct Pass {
    /// Code hash of each build, in build order (0 for a failed build).
    hashes: Vec<u64>,
    /// Host time of each build, seconds.
    builds: Vec<f64>,
    /// Host time of the whole pass, seconds.
    wall: f64,
}

/// Build every kernel for every target through `one`.
fn pass(
    jobs: &[Job],
    targets: &[(Api, DeviceSpec)],
    out: &mut Outcome,
    mut one: impl FnMut(&KernelDef, Api, &DeviceSpec, u64) -> Result<u64, String>,
) -> Pass {
    let mut hashes = Vec::with_capacity(jobs.len() * targets.len());
    let mut builds = Vec::with_capacity(jobs.len() * targets.len());
    let start = Instant::now();
    for (j, job) in jobs.iter().enumerate() {
        for (k, (api, device)) in targets.iter().enumerate() {
            let request = (j * targets.len() + k) as u64;
            out.attempted += 1;
            let t = Instant::now();
            let r = one(&job.def, *api, device, request);
            builds.push(t.elapsed().as_secs_f64());
            match r {
                Ok(h) => hashes.push(h),
                Err(e) => {
                    out.failed += 1;
                    out.errors
                        .push(format!("{} ({}): {e}", job.def.name, api.name()));
                    hashes.push(0);
                }
            }
        }
    }
    Pass {
        hashes,
        builds,
        wall: start.elapsed().as_secs_f64(),
    }
}

/// The hashes every pass must produce: for campaign kernels at a
/// campaign `(api, device)`, the hash the campaign's session loaded.
fn check_hashes(
    out: &mut Outcome,
    jobs: &[Job],
    targets: &[(Api, DeviceSpec)],
    hashes: &[u64],
    reference: &mut Option<Vec<u64>>,
) {
    let want = reference.get_or_insert_with(|| hashes.to_vec());
    out.check(hashes == want.as_slice(), || {
        "kernel hashes differ between passes".to_string()
    });
    for (j, job) in jobs.iter().enumerate() {
        for &(api, device, expect) in &job.expect {
            let k = targets
                .iter()
                .position(|(a, d)| *a == api && d.name == device)
                .expect("campaign targets are a subset of the build targets");
            let got = hashes[j * targets.len() + k];
            out.check(got == expect, || {
                format!(
                    "{} ({}, {device}) built to {got:016x}, the campaign loaded {expect:016x}",
                    job.def.name,
                    api.name()
                )
            });
        }
    }
}

/// Run the workload.
pub fn run(cfg: &RunConfig) -> Outcome {
    let mut out = Outcome::default();
    let mut setups = Vec::new();
    let mut timed_setup = |out: &mut Outcome| {
        let t = Instant::now();
        let jobs = kernel_set(cfg.seed);
        setups.push(t.elapsed().as_secs_f64());
        jobs.map_err(|e| out.check(false, || format!("set-up failed: {e}")))
    };
    let Ok(jobs) = timed_setup(&mut out) else {
        return out;
    };
    let campaign_kernels = jobs.iter().filter(|j| !j.expect.is_empty()).count();
    out.check(campaign_kernels > 0, || {
        "captured no campaign kernels".into()
    });
    let targets = targets();
    // Builds before this index are of campaign kernels, the rest generated.
    let split = campaign_kernels * targets.len();
    let mut reference = None;
    let untraced = |out: &mut Outcome| pass(&jobs, &targets, out, |d, a, dev, _| build(d, a, dev));

    // Warm-up pass, also the hash reference.
    let p = untraced(&mut out);
    check_hashes(&mut out, &jobs, &targets, &p.hashes, &mut reference);

    if !cfg.trace {
        let mut walls = Vec::new();
        let mut fastest = vec![f64::INFINITY; p.builds.len()];
        let start = Instant::now();
        let mut setups_done = 1;
        let mut set_up_again = |out: &mut Outcome| {
            let again = timed_setup(out);
            out.check(again.as_ref().is_ok_and(|j| *j == jobs), || {
                "a repeated set-up captured a different kernel set".into()
            });
        };
        while walls.len() < cfg.min_iters || start.elapsed().as_secs_f64() < cfg.seconds {
            let due = 1.0 + (SETUP_REPS - 1) as f64 * start.elapsed().as_secs_f64() / cfg.seconds;
            if (setups_done as f64) < due.min(SETUP_REPS as f64) {
                setups_done += 1;
                set_up_again(&mut out);
            }
            let p = untraced(&mut out);
            check_hashes(&mut out, &jobs, &targets, &p.hashes, &mut reference);
            walls.push(p.wall);
            for (f, t) in fastest.iter_mut().zip(&p.builds) {
                *f = f.min(*t);
            }
        }
        while setups_done < SETUP_REPS {
            setups_done += 1;
            set_up_again(&mut out);
        }
        // As in `campaign`: the sum of each build's fastest repetition,
        // which the host's drifting speed moves far less than a median.
        let build_s: f64 = fastest.iter().sum();
        eprintln!(
            "kernel-build: {} kernels ({campaign_kernels} from the campaign) x {} targets, \
             {} passes; pass median {:.4} s; sum of fastest builds {build_s:.4} s \
             (campaign kernels {:.4} s, generated {:.4} s)",
            jobs.len(),
            targets.len(),
            walls.len(),
            median(&walls),
            fastest[..split].iter().sum::<f64>(),
            fastest[split..].iter().sum::<f64>()
        );
        out.push("latency_ms", "ms", build_s * 1e3);
        out.push("setup_s", "s", median(&setups));
        if let Some(rss) = peak_rss_mb() {
            out.push("peak_rss_mb", "MB", rss);
        }
        return out;
    }

    let epoch = Instant::now();
    let mut stages = Stages::default();
    let mut untraced_walls = Vec::new();
    let mut traced_walls = Vec::new();
    let (mut campaign_kernels_s, mut fuzz_kernels_s) = (0.0, 0.0);
    let mut trace_doc = None;
    while untraced_walls.len() < cfg.min_iters.max(2)
        || traced_walls.len() < cfg.min_iters.max(2)
        || epoch.elapsed().as_secs_f64() < cfg.seconds
    {
        let p = untraced(&mut out);
        check_hashes(&mut out, &jobs, &targets, &p.hashes, &mut reference);
        untraced_walls.push(p.wall);

        let mut spans = traced_walls.is_empty().then(|| Spans::new(Instant::now()));
        let p = pass(&jobs, &targets, &mut out, |d, a, dev, req| {
            build_traced(d, a, dev, &mut stages, &mut spans, req)
        });
        check_hashes(&mut out, &jobs, &targets, &p.hashes, &mut reference);
        traced_walls.push(p.wall);
        campaign_kernels_s += p.builds[..split].iter().sum::<f64>();
        fuzz_kernels_s += p.builds[split..].iter().sum::<f64>();
        if let Some(s) = spans {
            trace_doc = Some(s.chrome_trace("kernel-build"));
        }
    }

    let n = traced_walls.len() as f64;
    let per_pass_ms = |ns: u64| ns as f64 / 1e6 / n;
    let wall_ms = traced_walls.iter().sum::<f64>() * 1e3 / n;
    let untraced_ms = untraced_walls.iter().sum::<f64>() * 1e3 / untraced_walls.len() as f64;
    let stage_ms = [
        ("compiler.lower_ms", stages.lower),
        ("compiler.validate_ms", stages.validate),
        ("compiler.stats_ms", stages.stats),
        ("compiler.ptxas_ms", stages.ptxas),
        ("ptx.resolve_ms", stages.resolve),
        ("ptx.hash_ms", stages.hash),
        ("sim.decode_ms", stages.decode),
    ];
    let staged: f64 = stage_ms.iter().map(|(_, ns)| per_pass_ms(*ns)).sum();
    out.check(staged <= wall_ms, || {
        format!("stage times {staged:.3} ms exceed the traced pass {wall_ms:.3} ms")
    });
    for (name, ns) in stage_ms {
        out.push(name, "ms", per_pass_ms(ns));
    }
    out.push("compiler.ptx_insts", "count", stages.ptx_insts as f64 / n);
    let builds = (jobs.len() * targets.len()) as f64;
    out.push("compiler.builds", "count", builds);
    out.push("sim.decodes", "count", builds);
    out.push("kernel_build.other_ms", "ms", wall_ms - staged);
    out.push(
        "kernel_build.campaign_ms",
        "ms",
        campaign_kernels_s * 1e3 / n,
    );
    out.push("kernel_build.fuzz_ms", "ms", fuzz_kernels_s * 1e3 / n);
    out.push("trace.ops", "count", n);
    out.push("trace.traced_ms", "ms", wall_ms);
    out.push("trace.untraced_ms", "ms", untraced_ms);
    out.push(
        "trace.overhead_pct",
        "%",
        (wall_ms / untraced_ms - 1.0) * 100.0,
    );
    if let Some(doc) = trace_doc {
        match write_trace(&format!("trace-kernel-build-{}.json", cfg.seed), &doc) {
            Ok(path) => eprintln!("kernel-build: chrome trace at {}", path.display()),
            Err(e) => out.check(false, || format!("writing the chrome trace: {e}")),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Stopping each benchmark at its first launch must still capture
    /// every kernel a full campaign pass builds.
    #[test]
    fn capture_only_finds_every_kernel_of_a_full_pass() {
        let key = |c: &Captured| (c.api.name(), c.device, c.code_hash);
        let full = capture(0, false).unwrap();
        let fast = capture(0, true).unwrap();
        assert_eq!(full.len(), fast.len());
        for (f, q) in full.iter().zip(&fast) {
            assert_eq!(key(f), key(q));
            assert_eq!(f.def, q.def);
        }
    }
}
