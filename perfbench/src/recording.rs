//! A recording [`Gpu`] wrapper: forwards every call to the runtime it
//! wraps, times the calls that cross into the compiler, the simulator
//! and the runtime's transfer and timeline code, and can capture the
//! kernel definitions a benchmark builds.

use crate::spans::Spans;
use gpucmp_compiler::{Api, KernelDef};
use gpucmp_runtime::{
    Event, Gpu, KernelHandle, LaunchOutcome, LoadedKernel, RtError, Session, Stream,
};
use gpucmp_sim::{DevPtr, LaunchConfig};
use std::time::Instant;

/// The layers a campaign row spends time in, besides the benchmark's own
/// host code.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Layer {
    /// `Cuda::new` / `OpenCl::create_any`: context and arena.
    Context,
    /// `Gpu::build`: front-end, `ptxas`, validation, resolve, load.
    Build,
    /// `Gpu::enqueue_launch_config`: decode on a code-cache miss, block
    /// execution, merge.
    Launch,
    /// `Gpu::enqueue_h2d` / `Gpu::enqueue_d2h`.
    Transfer,
    /// Event, stream and device synchronisation and readback takes: the
    /// virtual timeline.
    Sync,
}

impl Layer {
    /// Every layer, in report order.
    pub const ALL: [Layer; 5] = [
        Layer::Context,
        Layer::Build,
        Layer::Launch,
        Layer::Transfer,
        Layer::Sync,
    ];

    /// Span and metric stem.
    pub const fn name(self) -> &'static str {
        match self {
            Layer::Context => "runtime.context",
            Layer::Build => "compiler.build",
            Layer::Launch => "sim.launch",
            Layer::Transfer => "runtime.transfer",
            Layer::Sync => "runtime.sync",
        }
    }
}

/// A kernel definition a benchmark built, with where it was built and
/// the content hash the session loaded.
#[derive(Clone, Debug)]
pub struct Captured {
    /// Front-end it went through.
    pub api: Api,
    /// Device name.
    pub device: &'static str,
    /// The definition.
    pub def: KernelDef,
    /// `kernel_hash` of the loaded executable form.
    pub code_hash: u64,
}

/// Accumulated times and counts of everything a [`Recording`] forwarded.
#[derive(Debug, Default)]
pub struct Ledger {
    /// Nanoseconds per layer, indexed like [`Layer::ALL`].
    pub layer_ns: [u64; 5],
    /// `Gpu::build` calls.
    pub builds: u64,
    /// Launches that completed.
    pub launches: u64,
    /// Host execution time the simulator reported (`ExecProfile`).
    pub exec_ns: u64,
    /// Host merge time the simulator reported (`ExecProfile`).
    pub merge_ns: u64,
    /// Lane instructions over every completed launch.
    pub lane_insts: u64,
    /// Distinct `(api, device, def)` builds, when capturing.
    pub captured: Option<Vec<Captured>>,
    /// Fail every launch at once with `RtError::Injected`, so a benchmark
    /// stops at its first launch and capturing its kernels costs only its
    /// builds.
    pub capture_only: bool,
    /// Spans, when tracing; `parent` and `request` label new ones.
    pub spans: Option<Spans>,
    /// Enclosing span for new spans.
    pub parent: Option<usize>,
    /// Request id for new spans.
    pub request: u64,
}

impl Ledger {
    /// Account `start..now` to `layer`.
    pub fn charge(&mut self, layer: Layer, start: Instant) {
        let end = Instant::now();
        self.layer_ns[layer as usize] += end.duration_since(start).as_nanos() as u64;
        if let Some(spans) = &mut self.spans {
            spans.record(layer.name(), start, end, self.parent, self.request, 0);
        }
    }

    /// Nanoseconds accounted to `layer`.
    pub fn ns(&self, layer: Layer) -> u64 {
        self.layer_ns[layer as usize]
    }
}

/// A runtime wrapped for recording. Every [`Gpu`] call reaches `inner`
/// unchanged; the result is bit-identical to calling `inner` directly.
pub struct Recording<'a, G: Gpu> {
    /// The wrapped runtime.
    pub inner: G,
    ledger: &'a mut Ledger,
}

impl<'a, G: Gpu> Recording<'a, G> {
    /// Wrap `inner`, accounting into `ledger`.
    pub fn new(inner: G, ledger: &'a mut Ledger) -> Self {
        Recording { inner, ledger }
    }

    fn timed<R>(&mut self, layer: Layer, f: impl FnOnce(&mut G) -> R) -> R {
        let start = Instant::now();
        let r = f(&mut self.inner);
        self.ledger.charge(layer, start);
        r
    }

    fn capture(&mut self, def: &KernelDef, h: KernelHandle) -> Result<(), RtError> {
        let Some(captured) = &mut self.ledger.captured else {
            return Ok(());
        };
        let api = self.inner.api();
        let device = &self.inner.session().device;
        let seen = captured
            .iter()
            .any(|c| c.api == api && c.device == device.name && c.def == *def);
        if !seen {
            captured.push(Captured {
                api,
                device: device.name,
                def: def.clone(),
                code_hash: self.inner.session().kernel(h)?.code_hash,
            });
        }
        Ok(())
    }
}

impl<G: Gpu> Gpu for Recording<'_, G> {
    fn api(&self) -> Api {
        self.inner.api()
    }

    fn session(&self) -> &Session {
        self.inner.session()
    }

    fn session_mut(&mut self) -> &mut Session {
        self.inner.session_mut()
    }

    fn submit_overhead_ns(&self) -> f64 {
        self.inner.submit_overhead_ns()
    }

    fn validate_launch(&self, kernel: &LoadedKernel, cfg: &LaunchConfig) -> Result<(), RtError> {
        self.inner.validate_launch(kernel, cfg)
    }

    fn build(&mut self, def: &KernelDef) -> Result<KernelHandle, RtError> {
        let h = self.timed(Layer::Build, |g| g.build(def))?;
        self.ledger.builds += 1;
        self.capture(def, h)?;
        Ok(h)
    }

    fn enqueue_launch_config(
        &mut self,
        stream: Stream,
        h: KernelHandle,
        cfg: &LaunchConfig,
    ) -> Result<(Event, LaunchOutcome), RtError> {
        if self.ledger.capture_only {
            return Err(RtError::Injected {
                op: "launch",
                nth: 0,
            });
        }
        let r = self.timed(Layer::Launch, |g| g.enqueue_launch_config(stream, h, cfg));
        if let Ok((_, outcome)) = &r {
            let l = &mut *self.ledger;
            l.launches += 1;
            l.exec_ns += outcome.profile().host_exec_ns;
            l.merge_ns += outcome.profile().host_merge_ns;
            l.lane_insts += outcome.report.stats.lane_instructions;
        }
        r
    }

    fn enqueue_h2d(&mut self, stream: Stream, ptr: DevPtr, data: &[u8]) -> Result<Event, RtError> {
        self.timed(Layer::Transfer, |g| g.enqueue_h2d(stream, ptr, data))
    }

    fn enqueue_d2h(&mut self, stream: Stream, ptr: DevPtr, bytes: u64) -> Result<Event, RtError> {
        self.timed(Layer::Transfer, |g| g.enqueue_d2h(stream, ptr, bytes))
    }

    fn event_synchronize(&mut self, event: Event) -> Result<f64, RtError> {
        self.timed(Layer::Sync, |g| g.event_synchronize(event))
    }

    fn stream_synchronize(&mut self, stream: Stream) -> Result<f64, RtError> {
        self.timed(Layer::Sync, |g| g.stream_synchronize(stream))
    }

    fn device_synchronize(&mut self) -> Result<f64, RtError> {
        self.timed(Layer::Sync, |g| g.device_synchronize())
    }

    fn take_readback(&mut self, event: Event) -> Result<Vec<u8>, RtError> {
        self.timed(Layer::Sync, |g| g.take_readback(event))
    }

    // The synchronous sugar below repeats the trait's default bodies, but
    // synchronises through `self` so the timeline wait is charged to
    // `Layer::Sync` rather than left in the benchmark's host time.

    fn h2d(&mut self, ptr: DevPtr, data: &[u8]) -> Result<(), RtError> {
        let ev = self.enqueue_h2d(Stream::DEFAULT, ptr, data)?;
        self.event_synchronize(ev)?;
        Ok(())
    }

    fn d2h(&mut self, ptr: DevPtr, data: &mut [u8]) -> Result<(), RtError> {
        let ev = self.enqueue_d2h(Stream::DEFAULT, ptr, data.len() as u64)?;
        let staged = self.take_readback(ev)?;
        data.copy_from_slice(&staged);
        Ok(())
    }

    fn launch_config(
        &mut self,
        h: KernelHandle,
        cfg: &LaunchConfig,
    ) -> Result<LaunchOutcome, RtError> {
        let (ev, outcome) = self.enqueue_launch_config(Stream::DEFAULT, h, cfg)?;
        self.event_synchronize(ev)?;
        Ok(outcome)
    }
}
