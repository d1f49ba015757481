//! The `campaign` workload: serial passes over the quick matrix, the
//! 84 runs `reproduce_paper bench --quick` makes.

use crate::metrics::{median, ms, peak_rss_mb, row_name, Outcome};
use crate::recording::{Layer, Ledger, Recording};
use crate::spans::{write_trace, Spans};
use crate::{splitmix64, RunConfig};
use gpucmp_benchmarks::{Benchmark, RunOutput, Scale};
use gpucmp_compiler::Api;
use gpucmp_core::experiments::{run_cuda_with_exec, run_opencl_with_exec};
use gpucmp_runtime::{Cuda, Gpu, OpenCl, RtError};
use gpucmp_sim::{DeviceSpec, ExecOptions};
use std::time::{Duration, Instant};

/// Set-ups timed before every measured pass. A set-up takes tens of
/// microseconds, so many are timed, spread over the run, and `setup_s`
/// is their median.
const SETUPS_PER_PASS: usize = 20;

/// A benchmark registry.
pub type Benches = Vec<Box<dyn Benchmark>>;

/// The quick campaign's benchmarks, in the campaign's row order.
pub fn benchmarks() -> Benches {
    let mut v = gpucmp_benchmarks::real_world(Scale::Quick);
    v.extend(gpucmp_benchmarks::synthetic(Scale::Quick));
    v.extend(gpucmp_benchmarks::streamed_variants(Scale::Quick));
    v.extend(gpucmp_benchmarks::micro_workloads(Scale::Quick));
    v
}

/// The campaign's devices.
pub fn devices() -> [DeviceSpec; 2] {
    [DeviceSpec::gtx280(), DeviceSpec::gtx480()]
}

/// One run of the matrix: a benchmark on a device through an API.
#[derive(Clone, Debug)]
pub struct Cell {
    /// Index into [`benchmarks`].
    pub bench: usize,
    /// Device.
    pub device: DeviceSpec,
    /// Programming model.
    pub api: Api,
}

/// Every cell of the matrix, in an order shuffled by `seed`. Every order
/// produces the same results; the seed only changes what runs next to
/// what.
pub fn plan(benches: usize, seed: u64) -> Vec<Cell> {
    let mut cells = Vec::new();
    for bench in 0..benches {
        for device in devices() {
            for api in Api::both() {
                cells.push(Cell {
                    bench,
                    device: device.clone(),
                    api,
                });
            }
        }
    }
    let mut state = seed;
    for i in (1..cells.len()).rev() {
        let j = (splitmix64(&mut state) % (i as u64 + 1)) as usize;
        cells.swap(i, j);
    }
    cells
}

/// The campaign's simulation options: serial, default tier, pinned so
/// the environment cannot change what is measured.
pub fn exec() -> ExecOptions {
    ExecOptions::serial()
}

/// Run one cell the way the campaign does.
pub fn run_cell(bench: &dyn Benchmark, cell: &Cell) -> Result<RunOutput, RtError> {
    match cell.api {
        Api::Cuda => run_cuda_with_exec(bench, &cell.device, None, exec()),
        Api::OpenCl => run_opencl_with_exec(bench, &cell.device, None, exec()),
    }
}

/// Run one cell through a [`Recording`] of a fresh context, accounting
/// into `ledger`. Returns the output and the session's decode count.
pub fn run_cell_recorded(
    bench: &dyn Benchmark,
    cell: &Cell,
    ledger: &mut Ledger,
) -> (Result<RunOutput, RtError>, u64) {
    fn go<G: Gpu>(
        mut gpu: G,
        bench: &dyn Benchmark,
        ledger: &mut Ledger,
        start: Instant,
    ) -> (Result<RunOutput, RtError>, u64) {
        gpu.set_exec_options(exec());
        ledger.charge(Layer::Context, start);
        let mut rec = Recording::new(gpu, ledger);
        let out = bench.run(&mut rec);
        (out, rec.inner.session().decode_count())
    }
    let start = Instant::now();
    match cell.api {
        Api::Cuda => match Cuda::new(cell.device.clone()) {
            Ok(gpu) => go(gpu, bench, ledger, start),
            Err(e) => (Err(e), 0),
        },
        Api::OpenCl => go(
            OpenCl::create_any(cell.device.clone()),
            bench,
            ledger,
            start,
        ),
    }
}

/// Simulated totals of a pass over the measured windows. They depend on
/// nothing the host does, so every pass of a run must agree exactly.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct SimTotals {
    /// Warp instructions.
    pub warp_insts: u64,
    /// Lane instructions.
    pub lane_insts: u64,
    /// Global-memory instructions.
    pub gmem_insts: u64,
    /// Virtual wall time, ns.
    pub virtual_ns: f64,
}

impl SimTotals {
    fn add(&mut self, out: &RunOutput) {
        self.warp_insts += out.stats.warp_instructions;
        self.lane_insts += out.stats.lane_instructions;
        self.gmem_insts += out.stats.gmem_instructions;
        self.virtual_ns += out.wall_ns;
    }
}

/// One pass over the plan.
#[derive(Debug)]
pub struct Pass {
    /// Host wall time of the whole pass.
    pub wall: Duration,
    /// Host time of each cell, in plan order, seconds.
    pub cells: Vec<f64>,
    /// Simulated totals.
    pub totals: SimTotals,
    /// Rows that errored or failed verification.
    pub failures: Vec<String>,
}

/// Run every cell of `plan` through `run`, checking each output.
pub fn pass(
    benches: &[Box<dyn Benchmark>],
    plan: &[Cell],
    mut run: impl FnMut(usize, &dyn Benchmark, &Cell) -> Result<RunOutput, RtError>,
) -> Pass {
    let mut totals = SimTotals::default();
    let mut failures = Vec::new();
    let mut cells = Vec::with_capacity(plan.len());
    let start = Instant::now();
    for (i, cell) in plan.iter().enumerate() {
        let bench = benches[cell.bench].as_ref();
        let t = Instant::now();
        let r = run(i, bench, cell);
        cells.push(t.elapsed().as_secs_f64());
        match r {
            Ok(out) if out.verify.is_pass() => totals.add(&out),
            Ok(out) => failures.push(format!(
                "{}/{}/{}: unverified: {:?}",
                bench.name(),
                cell.device.name,
                cell.api.name(),
                out.verify
            )),
            Err(e) => failures.push(format!(
                "{}/{}/{}: {e}",
                bench.name(),
                cell.device.name,
                cell.api.name()
            )),
        }
    }
    Pass {
        wall: start.elapsed(),
        cells,
        totals,
        failures,
    }
}

/// Account a finished pass: attempts, failures, and agreement of its
/// simulated totals with the run's first pass.
fn tally(out: &mut Outcome, p: &Pass, rows: usize, reference: &mut Option<SimTotals>) {
    out.attempted += rows as u64;
    out.failed += p.failures.len() as u64;
    out.errors.extend(p.failures.iter().cloned());
    let want = *reference.get_or_insert(p.totals);
    out.check(p.totals == want, || {
        format!(
            "simulated totals differ between passes: {:?} vs {want:?}",
            p.totals
        )
    });
}

/// One set-up: the benchmark registry, the seeded plan, and a fresh
/// context per device and API.
fn setup(seed: u64) -> Result<(Benches, Vec<Cell>), RtError> {
    let benches = benchmarks();
    let plan = plan(benches.len(), seed);
    for device in devices() {
        std::hint::black_box(Cuda::new(device.clone())?);
        std::hint::black_box(OpenCl::create_any(device));
    }
    Ok((benches, plan))
}

/// Run the workload.
pub fn run(cfg: &RunConfig) -> Outcome {
    let mut out = Outcome::default();
    let mut setups = Vec::new();
    let mut timed_setup = |out: &mut Outcome| {
        let t = Instant::now();
        let s = setup(cfg.seed);
        setups.push(t.elapsed().as_secs_f64());
        s.map_err(|e| out.check(false, || format!("set-up failed: {e}")))
    };
    let Ok((benches, plan)) = timed_setup(&mut out) else {
        return out;
    };
    let rows = plan.len();
    out.check(rows == 84, || {
        format!("quick matrix has {rows} rows, not 84")
    });
    let mut reference = None;

    // Warm-up: let allocator and page cache settle before timing.
    let warm = pass(&benches, &plan, |_, b, c| run_cell(b, c));
    tally(&mut out, &warm, rows, &mut reference);

    if !cfg.trace {
        let mut walls = Vec::new();
        let mut fastest = vec![f64::INFINITY; rows];
        let start = Instant::now();
        while walls.len() < cfg.min_iters || start.elapsed().as_secs_f64() < cfg.seconds {
            for _ in 0..SETUPS_PER_PASS {
                let _ = timed_setup(&mut out);
            }
            let p = pass(&benches, &plan, |_, b, c| run_cell(b, c));
            tally(&mut out, &p, rows, &mut reference);
            walls.push(p.wall.as_secs_f64());
            for (f, t) in fastest.iter_mut().zip(&p.cells) {
                *f = f.min(*t);
            }
        }
        // The host's speed drifts by tens of percent over seconds, so a
        // pass median moves with whatever else the machine runs. Each
        // row's fastest repetition is what the code costs when nothing
        // slows it; their sum is the campaign at that speed.
        let campaign_s: f64 = fastest.iter().sum();
        eprintln!(
            "campaign: {} passes of {rows} rows; pass median {:.4} s, fastest {:.4} s; \
             sum of fastest rows {campaign_s:.4} s",
            walls.len(),
            median(&walls),
            walls.iter().copied().fold(f64::INFINITY, f64::min),
        );
        out.push("latency_ms", "ms", campaign_s * 1e3);
        out.push("setup_s", "s", median(&setups));
        if let Some(rss) = peak_rss_mb() {
            out.push("peak_rss_mb", "MB", rss);
        }
        return out;
    }

    // Traced run: untraced and traced passes alternate, so the tracing
    // overhead is measured under the same conditions.
    let epoch = Instant::now();
    let mut ledger = Ledger::default();
    let mut row_ms = vec![0.0; benches.len()];
    let mut decodes = 0u64;
    let mut untraced = Vec::new();
    let mut traced = Vec::new();
    let mut trace_doc = None;
    while untraced.len() < cfg.min_iters.max(2)
        || traced.len() < cfg.min_iters.max(2)
        || epoch.elapsed().as_secs_f64() < cfg.seconds
    {
        let p = pass(&benches, &plan, |_, b, c| run_cell(b, c));
        tally(&mut out, &p, rows, &mut reference);
        untraced.push(p.wall);

        // Only the first traced pass keeps spans; the rest only count.
        if traced.is_empty() {
            ledger.spans = Some(Spans::new(Instant::now()));
        }
        let root = ledger
            .spans
            .as_mut()
            .and_then(|s| s.open("campaign.pass", Instant::now(), None, 0, 0));
        let p = pass(&benches, &plan, |i, b, c| {
            let row = ledger
                .spans
                .as_mut()
                .and_then(|s| s.open(b.name(), Instant::now(), root, i as u64, 0));
            ledger.parent = row;
            ledger.request = i as u64;
            let (r, d) = run_cell_recorded(b, c, &mut ledger);
            decodes += d;
            if let Some(s) = &mut ledger.spans {
                s.close(row, Instant::now());
            }
            r
        });
        if let Some(mut s) = ledger.spans.take() {
            s.close(root, Instant::now());
            trace_doc = Some(s.chrome_trace("campaign"));
        }
        tally(&mut out, &p, rows, &mut reference);
        for (cell, t) in plan.iter().zip(&p.cells) {
            row_ms[cell.bench] += t * 1e3;
        }
        traced.push(p.wall);
    }

    let n = traced.len() as f64;
    let per_pass_ms = |ns: u64| ns as f64 / 1e6 / n;
    let wall_ms = traced.iter().map(|d| ms(*d)).sum::<f64>() / n;
    let untraced_ms = untraced.iter().map(|d| ms(*d)).sum::<f64>() / untraced.len() as f64;
    let layers_ms: f64 = Layer::ALL.iter().map(|l| per_pass_ms(ledger.ns(*l))).sum();
    let host_ms = wall_ms - layers_ms;
    out.check(host_ms >= 0.0, || {
        format!("layer times {layers_ms:.3} ms exceed the traced pass {wall_ms:.3} ms")
    });
    let totals = reference.unwrap_or_default();
    let launch_s = ledger.ns(Layer::Launch) as f64 / 1e9;

    out.push("sim.launch_ms", "ms", per_pass_ms(ledger.ns(Layer::Launch)));
    out.push("sim.exec_ms", "ms", per_pass_ms(ledger.exec_ns));
    out.push("sim.merge_ms", "ms", per_pass_ms(ledger.merge_ns));
    out.push(
        "sim.minst_per_s",
        "Minst/s",
        ledger.lane_insts as f64 / 1e6 / launch_s,
    );
    out.push("sim.launches", "count", ledger.launches as f64 / n);
    out.push("sim.decodes", "count", decodes as f64 / n);
    out.push("sim.warp_insts", "count", totals.warp_insts as f64);
    out.push("sim.lane_insts", "count", totals.lane_insts as f64);
    out.push("sim.gmem_insts", "count", totals.gmem_insts as f64);
    out.push("sim.virtual_ms", "sim_ms", totals.virtual_ns / 1e6);
    out.push(
        "compiler.build_ms",
        "ms",
        per_pass_ms(ledger.ns(Layer::Build)),
    );
    out.push("compiler.builds", "count", ledger.builds as f64 / n);
    out.push(
        "runtime.context_ms",
        "ms",
        per_pass_ms(ledger.ns(Layer::Context)),
    );
    out.push(
        "runtime.transfer_ms",
        "ms",
        per_pass_ms(ledger.ns(Layer::Transfer)),
    );
    out.push("runtime.sync_ms", "ms", per_pass_ms(ledger.ns(Layer::Sync)));
    out.push("benchmarks.host_ms", "ms", host_ms);
    for (i, b) in benches.iter().enumerate() {
        out.push(
            format!("row.{}.ms", row_name(b.name())),
            "ms",
            row_ms[i] / n,
        );
    }
    out.push("trace.ops", "count", n);
    out.push("trace.traced_ms", "ms", wall_ms);
    out.push("trace.untraced_ms", "ms", untraced_ms);
    out.push(
        "trace.overhead_pct",
        "%",
        (wall_ms / untraced_ms - 1.0) * 100.0,
    );
    if let Some(doc) = trace_doc {
        match write_trace(&format!("trace-campaign-{}.json", cfg.seed), &doc) {
            Ok(path) => eprintln!("campaign: chrome trace at {}", path.display()),
            Err(e) => out.check(false, || format!("writing the chrome trace: {e}")),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plan_is_a_seeded_permutation_of_the_matrix() {
        let a = plan(21, 1);
        assert_eq!(a.len(), 84);
        let key = |c: &Cell| (c.bench, c.device.name, c.api.name());
        let mut sorted: Vec<_> = a.iter().map(key).collect();
        sorted.sort();
        sorted.dedup();
        assert_eq!(sorted.len(), 84);
        let b = plan(21, 1);
        assert!(a.iter().zip(&b).all(|(x, y)| key(x) == key(y)));
        let c = plan(21, 2);
        assert!(a.iter().zip(&c).any(|(x, y)| key(x) != key(y)));
    }

    /// Wrapping a runtime in a [`Recording`] must not change a single bit
    /// of any campaign row.
    #[test]
    fn recording_leaves_every_run_output_bit_identical() {
        let benches = benchmarks();
        let mut ledger = Ledger {
            captured: Some(Vec::new()),
            ..Ledger::default()
        };
        for cell in plan(benches.len(), 0) {
            let bench = benches[cell.bench].as_ref();
            let plain = run_cell(bench, &cell).unwrap();
            let (recorded, _) = run_cell_recorded(bench, &cell, &mut ledger);
            let recorded = recorded.unwrap();
            let what = format!("{}/{}/{}", bench.name(), cell.device.name, cell.api.name());
            assert_eq!(plain.value.to_bits(), recorded.value.to_bits(), "{what}");
            assert_eq!(
                plain.kernel_ns.to_bits(),
                recorded.kernel_ns.to_bits(),
                "{what}"
            );
            assert_eq!(
                plain.wall_ns.to_bits(),
                recorded.wall_ns.to_bits(),
                "{what}"
            );
            assert_eq!(plain.launches, recorded.launches, "{what}");
            assert_eq!(plain.stats, recorded.stats, "{what}");
            assert_eq!(plain.verify, recorded.verify, "{what}");
        }
        assert!(ledger.builds >= 84);
        assert!(ledger.launches > 84);
        assert!(!ledger.captured.unwrap().is_empty());
    }
}
