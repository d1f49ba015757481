//! Stream/event semantics over the virtual timeline: overlap beats the
//! serial schedule, the schedule is bit-identical for any simulation
//! thread count and any dependency-equivalent enqueue interleaving,
//! cross-stream events order data correctly, faults poison per-stream,
//! and `reset` accounts for cancelled pending work.

use gpucmp_compiler::{global_id_x, DslKernel, KernelDef};
use gpucmp_ptx::Ty;
use gpucmp_runtime::{Cuda, Event, Gpu, GpuExt, RtError, Stream};
use gpucmp_sim::{DevPtr, DeviceSpec, ExecOptions, FaultKind, LaunchConfig};

const N: usize = 4096;

/// out[gid] = in[gid] * 2 with a bounds guard.
fn double_kernel() -> KernelDef {
    let mut k = DslKernel::new("double");
    let inp = k.param_ptr("in");
    let out = k.param_ptr("out");
    let n = k.param("n", Ty::S32);
    let gid = k.let_(Ty::S32, global_id_x());
    k.if_(gpucmp_compiler::Expr::from(gid).lt(n), |k| {
        let v = k.let_(
            Ty::F32,
            gpucmp_compiler::ld_global(inp.clone(), gid, Ty::F32),
        );
        k.st_global(
            out.clone(),
            gid,
            Ty::F32,
            gpucmp_compiler::Expr::from(v) + gpucmp_compiler::Expr::from(v),
        );
    });
    k.finish()
}

/// Unguarded store used to raise a real device fault.
fn unguarded_fill() -> KernelDef {
    let mut k = DslKernel::new("unguarded_fill");
    let out = k.param_ptr("out");
    let gid = k.let_(Ty::S32, global_id_x());
    k.st_global(out.clone(), gid, Ty::F32, 1.0f32);
    k.finish()
}

/// Enqueue `items` upload→kernel→readback chains round-robin over
/// `streams`, then synchronise; returns the device end time and every
/// chain's readback.
fn pipeline(gpu: &mut Cuda, streams: &[Stream], items: usize) -> (f64, Vec<Vec<f32>>) {
    let h = gpu.build(&double_kernel()).unwrap();
    let bufs: Vec<_> = (0..items)
        .map(|_| (gpu.alloc::<f32>(N).unwrap(), gpu.alloc::<f32>(N).unwrap()))
        .collect();
    let mut evs = Vec::new();
    for (i, (a, b)) in bufs.iter().enumerate() {
        let st = streams[i % streams.len()];
        let data: Vec<f32> = (0..N).map(|j| (i * N + j) as f32).collect();
        gpu.enqueue_h2d_buf(st, a, &data).unwrap();
        let cfg = LaunchConfig::new((N as u32).div_ceil(128), 128u32)
            .arg_ptr(*a)
            .arg_ptr(*b)
            .arg_i32(N as i32);
        gpu.enqueue_launch(st, h, cfg).unwrap();
        evs.push(gpu.enqueue_d2h_buf(st, b).unwrap());
    }
    let end = gpu.device_synchronize().unwrap();
    let outs = evs
        .into_iter()
        .map(|ev| gpu.take_readback_t::<f32>(ev).unwrap())
        .collect();
    (end, outs)
}

#[test]
fn two_streams_finish_strictly_earlier_than_one() {
    let mut serial = Cuda::new(DeviceSpec::gtx480()).unwrap();
    let s1 = serial.create_stream();
    let (end_serial, out_serial) = pipeline(&mut serial, &[s1], 4);

    let mut piped = Cuda::new(DeviceSpec::gtx480()).unwrap();
    let streams = [piped.create_stream(), piped.create_stream()];
    let (end_piped, out_piped) = pipeline(&mut piped, &streams, 4);

    // Same data either way…
    assert_eq!(out_serial, out_piped);
    for (i, o) in out_piped.iter().enumerate() {
        assert_eq!(o[0], (i * N) as f32 * 2.0);
        assert_eq!(o[N - 1], (i * N + N - 1) as f32 * 2.0);
    }
    // …but the two-stream run overlaps transfers with compute.
    assert!(
        end_piped < end_serial,
        "2 streams {end_piped} ns should beat 1 stream {end_serial} ns"
    );
}

#[test]
fn schedule_is_bit_identical_across_sim_thread_counts() {
    let run = |threads: usize| {
        let mut gpu = Cuda::new(DeviceSpec::gtx480()).unwrap();
        gpu.set_exec_options(ExecOptions::with_threads(threads));
        let streams = [gpu.create_stream(), gpu.create_stream()];
        pipeline(&mut gpu, &streams, 4)
    };
    let (end1, out1) = run(1);
    let (end8, out8) = run(8);
    assert_eq!(out1, out8, "results are bit-identical");
    assert_eq!(
        end1.to_bits(),
        end8.to_bits(),
        "the timeline end is bit-identical: {end1} vs {end8}"
    );
}

#[test]
fn dependency_equivalent_enqueue_orders_produce_identical_timelines() {
    // Two interleavings of the same per-stream programs (B's launch
    // waits on A's upload in both): every event must complete at the
    // same virtual instant regardless of host enqueue order.
    let run = |a_first: bool| {
        let mut gpu = Cuda::new(DeviceSpec::gtx480()).unwrap();
        let h = gpu.build(&double_kernel()).unwrap();
        let (sa, sb) = (gpu.create_stream(), gpu.create_stream());
        let a_in = gpu.alloc::<f32>(N).unwrap();
        let a_out = gpu.alloc::<f32>(N).unwrap();
        let b_out = gpu.alloc::<f32>(N).unwrap();
        let data = vec![3.0f32; N];
        let cfg = |inp: DevPtr, out: DevPtr| {
            LaunchConfig::new((N as u32).div_ceil(128), 128u32)
                .arg_ptr(inp)
                .arg_ptr(out)
                .arg_i32(N as i32)
        };
        let up: Event;
        let (ka, kb);
        if a_first {
            up = gpu.enqueue_h2d_buf(sa, &a_in, &data).unwrap();
            ka = gpu
                .enqueue_launch(sa, h, cfg(a_in.ptr(), a_out.ptr()))
                .unwrap()
                .0;
            gpu.stream_wait_event(sb, up).unwrap();
            kb = gpu
                .enqueue_launch(sb, h, cfg(a_in.ptr(), b_out.ptr()))
                .unwrap()
                .0;
        } else {
            up = gpu.enqueue_h2d_buf(sa, &a_in, &data).unwrap();
            gpu.stream_wait_event(sb, up).unwrap();
            kb = gpu
                .enqueue_launch(sb, h, cfg(a_in.ptr(), b_out.ptr()))
                .unwrap()
                .0;
            ka = gpu
                .enqueue_launch(sa, h, cfg(a_in.ptr(), a_out.ptr()))
                .unwrap()
                .0;
        }
        let t_up = gpu.event_synchronize(up).unwrap();
        let t_ka = gpu.event_synchronize(ka).unwrap();
        let t_kb = gpu.event_synchronize(kb).unwrap();
        let t_end = gpu.device_synchronize().unwrap();
        (t_up, t_ka, t_kb, t_end)
    };
    let x = run(true);
    let y = run(false);
    assert_eq!(x, y, "interleaving changed the timeline");
    // The consumer really ran after the upload it waited on.
    assert!(x.2 > x.0, "kb {x:?} must end after the upload");
}

#[test]
fn cross_stream_event_orders_data_correctly() {
    let mut gpu = Cuda::new(DeviceSpec::gtx480()).unwrap();
    let h = gpu.build(&double_kernel()).unwrap();
    let (producer, consumer) = (gpu.create_stream(), gpu.create_stream());
    let a = gpu.alloc::<f32>(N).unwrap();
    let b = gpu.alloc::<f32>(N).unwrap();
    let data: Vec<f32> = (0..N).map(|i| i as f32).collect();
    let up = gpu.enqueue_h2d_buf(producer, &a, &data).unwrap();
    gpu.stream_wait_event(consumer, up).unwrap();
    let cfg = LaunchConfig::new((N as u32).div_ceil(128), 128u32)
        .arg_ptr(a)
        .arg_ptr(b)
        .arg_i32(N as i32);
    let (k_ev, _) = gpu.enqueue_launch(consumer, h, cfg).unwrap();
    let down = gpu.enqueue_d2h_buf(consumer, &b).unwrap();
    let t_up = gpu.event_synchronize(up).unwrap();
    let t_k = gpu.event_synchronize(k_ev).unwrap();
    assert!(
        t_k > t_up,
        "consumer kernel starts after the producer upload"
    );
    let got = gpu.take_readback_t::<f32>(down).unwrap();
    assert!(got.iter().enumerate().all(|(i, &v)| v == 2.0 * i as f32));
    // The clock is monotonic and synchronisation never rewinds it.
    assert!(gpu.now_ns() >= t_k);
}

#[test]
fn take_readback_is_single_shot() {
    let mut gpu = Cuda::new(DeviceSpec::gtx480()).unwrap();
    let st = gpu.create_stream();
    let buf = gpu.alloc::<f32>(8).unwrap();
    gpu.enqueue_h2d_buf(st, &buf, &[7.0f32; 8]).unwrap();
    let ev = gpu.enqueue_d2h_buf(st, &buf).unwrap();
    assert_eq!(gpu.take_readback_t::<f32>(ev).unwrap(), vec![7.0f32; 8]);
    let err = gpu.take_readback_t::<f32>(ev).unwrap_err();
    assert!(matches!(err, RtError::BadEvent(_)), "{err}");
}

#[test]
fn waiting_on_a_never_enqueued_event_is_an_error() {
    // An Event from one session carries a (stream, seq) that the other
    // session never enqueued.
    let mut gpu1 = Cuda::new(DeviceSpec::gtx480()).unwrap();
    let s1 = gpu1.create_stream();
    let buf = gpu1.alloc::<f32>(8).unwrap();
    gpu1.enqueue_h2d_buf(s1, &buf, &[0.0f32; 8]).unwrap();
    let foreign = gpu1.enqueue_d2h_buf(s1, &buf).unwrap();

    let mut gpu2 = Cuda::new(DeviceSpec::gtx480()).unwrap();
    let s2 = gpu2.create_stream();
    let err = gpu2.stream_wait_event(s2, foreign).unwrap_err();
    assert!(matches!(err, RtError::BadEvent(_)), "{err}");
}

#[test]
fn stream_fault_poisons_the_context_and_names_the_stream() {
    let mut gpu = Cuda::new(DeviceSpec::gtx480()).unwrap();
    let h = gpu.build(&unguarded_fill()).unwrap();
    let healthy = gpu.create_stream();
    let faulty = gpu.create_stream();
    // Aim past the end of the arena so thread 1 faults.
    let cap = gpu.session().gmem.capacity();
    let bad = DevPtr(cap - 4);
    let cfg = LaunchConfig::new(1u32, 64u32).arg_ptr(bad);
    let err = gpu.enqueue_launch(faulty, h, cfg).unwrap_err();
    match &err {
        RtError::DeviceFault { fault, .. } => {
            assert!(matches!(fault.kind, FaultKind::OutOfBounds { .. }))
        }
        e => panic!("expected DeviceFault, got {e}"),
    }
    // The error is pinned to the stream that carried the launch…
    assert!(gpu
        .stream_error(faulty)
        .is_some_and(|e| e.contains("out-of-bounds")));
    assert_eq!(gpu.stream_error(healthy), None);
    // …and the context is lost as a whole (CUDA sticky semantics).
    assert!(gpu.fault().is_some());
    let buf = DevPtr(0);
    let e = gpu.enqueue_h2d_t(healthy, buf, &[0.0f32]).unwrap_err();
    assert!(matches!(e, RtError::ContextLost { .. }), "{e}");
}

#[test]
fn reset_cancels_pending_stream_work_and_reports_it() {
    let mut gpu = Cuda::new(DeviceSpec::gtx480()).unwrap();
    let h = gpu.build(&double_kernel()).unwrap();
    let bad_h = gpu.build(&unguarded_fill()).unwrap();
    let (s1, s2) = (gpu.create_stream(), gpu.create_stream());
    let a = gpu.alloc::<f32>(N).unwrap();
    let b = gpu.alloc::<f32>(N).unwrap();
    // Three ops pending on s1 (one a staged readback), one on s2.
    gpu.enqueue_h2d_buf(s1, &a, &vec![1.0f32; N]).unwrap();
    let cfg = LaunchConfig::new((N as u32).div_ceil(128), 128u32)
        .arg_ptr(a)
        .arg_ptr(b)
        .arg_i32(N as i32);
    gpu.enqueue_launch(s1, h, cfg).unwrap();
    let orphan = gpu.enqueue_d2h_buf(s1, &b).unwrap();
    gpu.enqueue_h2d_buf(s2, &b, &vec![2.0f32; N]).unwrap();
    assert_eq!(gpu.session().pending_ops(), 4);

    // A faulting launch poisons the context with the work still queued.
    let cap = gpu.session().gmem.capacity();
    let cfg_bad = LaunchConfig::new(1u32, 64u32).arg_ptr(DevPtr(cap - 4));
    gpu.launch(bad_h, &cfg_bad).unwrap_err();
    assert_eq!(gpu.session().pending_ops(), 4, "fault leaves work queued");

    let report = gpu.reset();
    assert!(report.lost_work());
    assert_eq!(report.cancelled_ops, 4);
    assert_eq!(report.cancelled_by_stream, vec![(1, 3), (2, 1)]);
    assert_eq!(report.dropped_readbacks, 1);
    assert!(report
        .fault
        .as_deref()
        .is_some_and(|f| f.contains("out-of-bounds")));
    let text = report.to_string();
    assert!(text.contains("4 pending op(s)"), "{text}");

    // The cancelled readback is gone and the context works again.
    let e = gpu.take_readback_t::<f32>(orphan).unwrap_err();
    assert!(matches!(e, RtError::BadEvent(_)), "{e}");
    assert_eq!(gpu.session().pending_ops(), 0);
    let buf = gpu.alloc::<f32>(8).unwrap();
    gpu.h2d_buf(&buf, &[5.0f32; 8]).unwrap();
    assert_eq!(gpu.d2h_buf(&buf).unwrap(), vec![5.0f32; 8]);

    // A clean session's reset reports no lost work.
    let mut clean = Cuda::new(DeviceSpec::gtx480()).unwrap();
    let r = clean.reset();
    assert!(!r.lost_work());
    assert_eq!(r.cancelled_ops, 0);
    assert_eq!(r.fault, None);
}

#[test]
fn sync_api_is_sugar_over_the_default_stream() {
    // The synchronous calls must cost exactly what an explicit
    // enqueue-on-default-stream + event-synchronise costs.
    let data = vec![4.0f32; N];
    let run_sync = |gpu: &mut Cuda| {
        let h = gpu.build(&double_kernel()).unwrap();
        let a = gpu.alloc::<f32>(N).unwrap();
        let b = gpu.alloc::<f32>(N).unwrap();
        gpu.h2d_buf(&a, &data).unwrap();
        let cfg = LaunchConfig::new((N as u32).div_ceil(128), 128u32)
            .arg_ptr(a)
            .arg_ptr(b)
            .arg_i32(N as i32);
        gpu.launch(h, &cfg).unwrap();
        let out = gpu.d2h_buf(&b).unwrap();
        (gpu.now_ns(), out)
    };
    let run_explicit = |gpu: &mut Cuda| {
        let h = gpu.build(&double_kernel()).unwrap();
        let a = gpu.alloc::<f32>(N).unwrap();
        let b = gpu.alloc::<f32>(N).unwrap();
        let ev = gpu.enqueue_h2d_buf(Stream::DEFAULT, &a, &data).unwrap();
        gpu.event_synchronize(ev).unwrap();
        let cfg = LaunchConfig::new((N as u32).div_ceil(128), 128u32)
            .arg_ptr(a)
            .arg_ptr(b)
            .arg_i32(N as i32);
        let (kev, _) = gpu.enqueue_launch(Stream::DEFAULT, h, cfg).unwrap();
        gpu.event_synchronize(kev).unwrap();
        let ev = gpu.enqueue_d2h_buf(Stream::DEFAULT, &b).unwrap();
        let out = gpu.take_readback_t::<f32>(ev).unwrap();
        (gpu.now_ns(), out)
    };
    let mut g1 = Cuda::new(DeviceSpec::gtx480()).unwrap();
    let mut g2 = Cuda::new(DeviceSpec::gtx480()).unwrap();
    let (t1, o1) = run_sync(&mut g1);
    let (t2, o2) = run_explicit(&mut g2);
    assert_eq!(o1, o2);
    assert_eq!(t1.to_bits(), t2.to_bits(), "{t1} vs {t2}");
}

#[test]
fn sync_sugar_keeps_the_timeline_bounded() {
    // The synchronous calls drop their own op's completion record, so a
    // long-lived session (every server session) holds O(1) timeline
    // entries; an event the caller holds still resolves to the same time.
    let mut gpu = Cuda::new(DeviceSpec::gtx480()).unwrap();
    let h = gpu.build(&double_kernel()).unwrap();
    let a = gpu.alloc::<f32>(32).unwrap();
    let b = gpu.alloc::<f32>(32).unwrap();
    let cfg = LaunchConfig::new(1u32, 32u32)
        .arg_ptr(a)
        .arg_ptr(b)
        .arg_i32(32);
    let (held, _) = gpu.enqueue_launch(Stream::DEFAULT, h, &cfg).unwrap();
    let held_end = gpu.event_synchronize(held).unwrap();
    let before = gpu.session().recorded_ops();
    for i in 0..10_000 {
        gpu.launch(h, &cfg).unwrap();
        if i % 1000 == 0 {
            gpu.h2d_buf(&a, &[i as f32; 32]).unwrap();
            assert_eq!(
                gpu.d2h_buf(&b).unwrap()[0],
                2.0 * (i as f32 - 1000.0).max(0.0)
            );
        }
    }
    assert_eq!(gpu.session().recorded_ops(), before);
    assert!(before <= 2, "{before} records before the loop");
    assert_eq!(
        gpu.event_synchronize(held).unwrap().to_bits(),
        held_end.to_bits()
    );
}
