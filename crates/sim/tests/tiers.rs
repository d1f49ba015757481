//! Differential tests for the execution tiers: the warp engine (decoded
//! tier) must produce launch results bit-identical to the reference
//! interpreter — statistics, virtual timing, fault kinds and sites,
//! memcheck records, and every register value it writes.

use gpucmp_ptx::{
    Address, CmpOp, Inst, Kernel, KernelBuilder, Op1, Op2, Op3, Operand, Reg, Space, Special, Ty,
};
use gpucmp_sim::{
    decode_kernel, launch_with, launch_with_code, DeviceSpec, ExecOptions, ExecStats, ExecTier,
    FaultKind, GlobalMemory, LaunchConfig, SimError,
};

/// A kernel exercising every tier-relevant construct: straight-line scalar
/// runs, integer division (fallible), divergence with reconvergence,
/// shared memory with a barrier, and global loads/stores.
fn mixed_kernel() -> gpucmp_ptx::Kernel {
    let mut b = KernelBuilder::new("mixed");
    b.param("x", Ty::U64);
    b.param("y", Ty::U64);
    b.param("n", Ty::S32);
    b.shared_alloc(4 * 256);
    let tid = b.special(Special::TidX);
    let ntid = b.special(Special::NtidX);
    let ctaid = b.special(Special::CtaidX);
    let gid = b.tern(Op3::Mad, Ty::U32, ctaid, ntid, tid);
    let n = b.ld_param(2, Ty::S32);
    let p = b.setp(CmpOp::Ge, Ty::S32, gid, n);
    let end = b.new_label();
    b.ssy(end);
    b.bra_if(end, p, true);
    // Scalar run: cvt, shifts, float math.
    let xptr = b.ld_param(0, Ty::U64);
    let yptr = b.ld_param(1, Ty::U64);
    let off64 = b.cvt(Ty::U64, Ty::U32, gid);
    let off = b.bin(Op2::Shl, Ty::U64, off64, 2i32);
    let xa = b.bin(Op2::Add, Ty::U64, xptr, off);
    let _ya = b.bin(Op2::Add, Ty::U64, yptr, off); // extends the scalar run
    let xv = b.ld(Space::Global, Ty::F32, Address::base(Operand::Reg(xa)));
    // Fallible integer division in the middle of scalar code.
    let three = b.mov(Ty::S32, 3i32);
    let q = b.bin(Op2::Div, Ty::S32, gid, three);
    let qf = b.cvt(Ty::F32, Ty::S32, q);
    let s = b.un(Op1::Sqrt, Ty::F32, xv);
    let r = b.tern(Op3::Fma, Ty::F32, s, qf, xv);
    // Shared-memory round trip with a barrier.
    let toff = b.cvt(Ty::U64, Ty::U32, tid);
    let soff = b.bin(Op2::Shl, Ty::U64, toff, 2i32);
    b.st(Space::Shared, Ty::F32, Address::base(Operand::Reg(soff)), r);
    b.place_label(end);
    b.sync();
    b.bar();
    let p2 = b.setp(CmpOp::Ge, Ty::S32, gid, n);
    let end2 = b.new_label();
    b.ssy(end2);
    b.bra_if(end2, p2, true);
    let soff2 = {
        let t = b.cvt(Ty::U64, Ty::U32, tid);
        b.bin(Op2::Shl, Ty::U64, t, 2i32)
    };
    let back = b.ld(Space::Shared, Ty::F32, Address::base(Operand::Reg(soff2)));
    let ya2 = {
        let yptr = b.ld_param(1, Ty::U64);
        let o64 = b.cvt(Ty::U64, Ty::U32, gid);
        let o = b.bin(Op2::Shl, Ty::U64, o64, 2i32);
        b.bin(Op2::Add, Ty::U64, yptr, o)
    };
    b.st(
        Space::Global,
        Ty::F32,
        Address::base(Operand::Reg(ya2)),
        back,
    );
    b.place_label(end2);
    b.sync();
    b.finish()
}

struct Outcome {
    out: Vec<f32>,
    report: gpucmp_sim::LaunchReport,
}

fn run_tier(tier: ExecTier, threads: usize, memcheck: bool, n: usize) -> Outcome {
    let device = DeviceSpec::gtx480();
    let kernel = mixed_kernel().resolve().unwrap();
    let mut gmem = GlobalMemory::new(1 << 20);
    let x = gmem.alloc((n * 4) as u64).unwrap();
    let y = gmem.alloc((n * 4) as u64).unwrap();
    let xs: Vec<f32> = (0..n).map(|i| (i % 131) as f32 * 0.25 + 1.0).collect();
    gmem.write_f32_slice(x, &xs).unwrap();
    let cfg = LaunchConfig::new(8u32, 256u32)
        .arg_ptr(x)
        .arg_ptr(y)
        .arg_i32(n as i32);
    let opts = ExecOptions::with_threads(threads)
        .memcheck(memcheck)
        .tier(tier);
    let report = launch_with(&device, &kernel, &mut gmem, &[], &cfg, &opts).unwrap();
    Outcome {
        out: gmem.read_f32_slice(y, n).unwrap(),
        report,
    }
}

#[test]
fn tiers_produce_bit_identical_reports() {
    for &threads in &[1usize, 8] {
        let base = run_tier(ExecTier::Interp, threads, false, 1900);
        let got = run_tier(ExecTier::Decoded, threads, false, 1900);
        assert_eq!(got.out, base.out, "memory @ {threads} threads");
        assert_eq!(
            got.report.stats, base.report.stats,
            "stats @ {threads} threads"
        );
        assert_eq!(
            got.report.kernel_ns(),
            base.report.kernel_ns(),
            "timing @ {threads} threads"
        );
    }
}

#[test]
fn tiers_record_identical_memcheck_faults() {
    // Undersized buffers: the engine must log the same access faults in the
    // same order and still complete the launch.
    let device = DeviceSpec::gtx480();
    let kernel = mixed_kernel().resolve().unwrap();
    let run = |tier: ExecTier| {
        let mut gmem = GlobalMemory::new(1 << 16);
        let x = gmem.alloc(256).unwrap();
        let y = gmem.alloc(256).unwrap();
        let cfg = LaunchConfig::new(4u32, 128u32)
            .arg_ptr(x)
            .arg_ptr(y)
            .arg_i32(512);
        let opts = ExecOptions::serial().memcheck(true).tier(tier);
        launch_with(&device, &kernel, &mut gmem, &[], &cfg, &opts).unwrap()
    };
    let base = run(ExecTier::Interp);
    assert!(!base.faults.is_empty(), "test must exercise memcheck");
    let got = run(ExecTier::Decoded);
    assert_eq!(got.faults, base.faults, "memcheck records");
    assert_eq!(got.stats, base.stats, "stats under memcheck");
}

#[test]
fn tiers_report_identical_fault_sites() {
    // Aborting faults must carry the same kind and the same (pc, block,
    // thread) site on both tiers — orig_pc attribution through the IR.
    let device = DeviceSpec::gtx480();
    let kernel = mixed_kernel().resolve().unwrap();
    let run = |tier: ExecTier| {
        let mut gmem = GlobalMemory::new(1 << 12);
        let x = gmem.alloc(64).unwrap();
        let y = gmem.alloc(64).unwrap();
        let cfg = LaunchConfig::new(8u32, 128u32)
            .arg_ptr(x)
            .arg_ptr(y)
            .arg_i32(4096);
        let opts = ExecOptions::serial().tier(tier);
        launch_with(&device, &kernel, &mut gmem, &[], &cfg, &opts).unwrap_err()
    };
    let base = match run(ExecTier::Interp) {
        SimError::Fault(f) => f,
        other => panic!("expected fault, got {other:?}"),
    };
    assert!(matches!(base.kind, FaultKind::OutOfBounds { .. }));
    match run(ExecTier::Decoded) {
        SimError::Fault(f) => assert_eq!(f, base, "engine fault"),
        other => panic!("engine: expected fault, got {other:?}"),
    }
}

/// The first fault of a launch, under `tier`.
fn fault_of(
    kernel: &gpucmp_ptx::ResolvedKernel,
    cfg: &LaunchConfig,
    tier: ExecTier,
) -> gpucmp_sim::DeviceFault {
    let mut gmem = GlobalMemory::new(1 << 12);
    let opts = ExecOptions::serial().tier(tier);
    match launch_with(&DeviceSpec::gtx480(), kernel, &mut gmem, &[], cfg, &opts) {
        Err(SimError::Fault(f)) => f,
        other => panic!("{tier:?}: expected a fault, got {other:?}"),
    }
}

#[test]
fn watchdog_fires_at_the_same_instruction_on_every_tier() {
    // An infinite loop with a tiny budget: the engine must exhaust the
    // budget at the interp-identical pc.
    let mut b = KernelBuilder::new("spin");
    let one = b.mov(Ty::S32, 1i32);
    let top = b.new_label();
    b.place_label(top);
    let acc = b.bin(Op2::Add, Ty::S32, one, one);
    let _ = b.bin(Op2::Mul, Ty::S32, acc, one);
    b.bra(top);
    let kernel = b.finish().resolve().unwrap();
    let cfg = LaunchConfig::builder()
        .grid(1u32)
        .block(32u32)
        .inst_budget(100)
        .build();
    let base = fault_of(&kernel, &cfg, ExecTier::Interp);
    assert!(matches!(base.kind, FaultKind::Watchdog { budget: 100 }));
    assert!(base.site.is_some());
    assert_eq!(fault_of(&kernel, &cfg, ExecTier::Decoded), base);
}

#[test]
fn watchdog_trips_inside_a_straight_line_scalar_run() {
    // A loop whose body is one long run of pure scalar ops (what the
    // removed fused tier retired as a single superinstruction). Budgets
    // that run out at assorted positions inside the run, in its first and
    // later iterations, must stop both tiers at the same pc.
    let mut b = KernelBuilder::new("run");
    let x = b.mov(Ty::F32, 1.0f64);
    let i = b.mov(Ty::S32, 0i32);
    let top = b.new_label();
    b.place_label(top);
    for k in 0..12 {
        b.tern_to(Op3::Fma, Ty::F32, x, x, 0.5f64, k as f64);
    }
    b.bin_to(Op2::Add, Ty::S32, i, i, 1i32);
    b.bra(top);
    let kernel = b.finish().resolve().unwrap();
    for budget in [1u64, 3, 7, 9, 14, 20, 29, 40, 47, 53] {
        let cfg = LaunchConfig::builder()
            .grid(1u32)
            .block(32u32)
            .inst_budget(budget)
            .build();
        let base = fault_of(&kernel, &cfg, ExecTier::Interp);
        assert_eq!(base.kind, FaultKind::Watchdog { budget });
        assert_eq!(
            fault_of(&kernel, &cfg, ExecTier::Decoded),
            base,
            "budget {budget}"
        );
    }
}

#[test]
fn precompiled_code_matches_on_the_fly_decode() {
    // launch_with_code(Some(..)) — the session code-cache path — must be
    // indistinguishable from decoding at launch.
    let device = DeviceSpec::gtx480();
    let kernel = mixed_kernel().resolve().unwrap();
    let code = decode_kernel(&kernel, &device);
    let run = |code: Option<&gpucmp_sim::DecodedKernel>| {
        let mut gmem = GlobalMemory::new(1 << 20);
        let x = gmem.alloc(4096).unwrap();
        let y = gmem.alloc(4096).unwrap();
        let xs: Vec<f32> = (0..1024).map(|i| i as f32).collect();
        gmem.write_f32_slice(x, &xs).unwrap();
        let cfg = LaunchConfig::new(4u32, 256u32)
            .arg_ptr(x)
            .arg_ptr(y)
            .arg_i32(1024);
        let opts = ExecOptions::serial().tier(ExecTier::Decoded);
        let r = launch_with_code(&device, &kernel, &mut gmem, &[], &cfg, &opts, code).unwrap();
        (gmem.read_f32_slice(y, 1024).unwrap(), r.stats)
    };
    let (o1, s1) = run(Some(&code));
    let (o2, s2) = run(None);
    assert_eq!(o1, o2);
    assert_eq!(s1, s2);
}

#[test]
fn divide_by_zero_faults_identically_across_tiers() {
    // Integer division is the one fallible scalar op: it runs lane by lane
    // on the engine, so the fault lands on the interpreter's lane — a
    // middle lane of a middle warp here.
    let mut b = KernelBuilder::new("divz");
    b.param("n", Ty::S32);
    let tid = b.special(Special::TidX);
    let n = b.ld_param(0, Ty::S32);
    let d = b.bin(Op2::Sub, Ty::S32, n, tid);
    // faults when tid == n (lane n divides by zero)
    let _ = b.bin(Op2::Div, Ty::S32, tid, d);
    let kernel = b.finish().resolve().unwrap();
    for n in [17, 45] {
        let cfg = LaunchConfig::new(1u32, 64u32).arg_i32(n);
        let base = fault_of(&kernel, &cfg, ExecTier::Interp);
        assert!(matches!(base.kind, FaultKind::DivByZero));
        assert_eq!(base.site.unwrap().thread, [n as u32, 0, 0]);
        assert_eq!(fault_of(&kernel, &cfg, ExecTier::Decoded), base);
    }
}

const TYS: [Ty; 8] = [
    Ty::B32,
    Ty::B64,
    Ty::S32,
    Ty::S64,
    Ty::U32,
    Ty::U64,
    Ty::F32,
    Ty::F64,
];

/// A kernel that loads three raw operands per thread from `x`, `y`, `z`,
/// presets a destination of type `dty` to a sentinel, runs `emit` into it
/// under a divergent mask (lanes with `tid % 3 == 0` skip it), reconverges
/// and stores the destination's raw 64 bits to `out`. Inactive lanes must
/// keep the sentinel; active lanes must hold the interpreter's bits.
fn arm_kernel(sty: Ty, dty: Ty, emit: impl Fn(&mut KernelBuilder, Reg, [Reg; 3])) -> Kernel {
    let mut b = KernelBuilder::new("arm");
    for name in ["x", "y", "z", "out"] {
        b.param(name, Ty::U64);
    }
    let tid = b.special(Special::TidX);
    let ntid = b.special(Special::NtidX);
    let ctaid = b.special(Special::CtaidX);
    let gid = b.tern(Op3::Mad, Ty::U32, ctaid, ntid, tid);
    let gid64 = b.cvt(Ty::U64, Ty::U32, gid);
    let off = b.bin(Op2::Shl, Ty::U64, gid64, 3i32);
    let addr = |b: &mut KernelBuilder, i: usize| {
        let p = b.ld_param(i, Ty::U64);
        Address::base(Operand::Reg(b.bin(Op2::Add, Ty::U64, p, off)))
    };
    let srcs = [0, 1, 2].map(|i| {
        let a = addr(&mut b, i);
        b.ld(Space::Global, sty, a)
    });
    let d = b.reg(dty);
    b.mov_to(Ty::B64, d, 0x5a5a_5a5a_5a5a_5a5ai64);
    let r = b.bin(Op2::Rem, Ty::U32, tid, 3i32);
    let p = b.setp(CmpOp::Eq, Ty::U32, r, 0i32);
    let end = b.new_label();
    b.ssy(end);
    b.bra_if(end, p, true);
    emit(&mut b, d, srcs);
    b.place_label(end);
    b.sync();
    let out = addr(&mut b, 3);
    b.st(Space::Global, Ty::U64, out, d);
    b.finish()
}

/// Raw operand `k` of global thread `i`: small integers (shift counts,
/// divisors), sane floats in both the f32 and the f64 view, and noise.
fn operand(k: u64, i: u64) -> u64 {
    let noise = (i + 1)
        .wrapping_mul(0x9e37_79b9_7f4a_7c15)
        .wrapping_add(k.wrapping_mul(0xbf58_476d_1ce4_e5b9))
        .rotate_left(17 + k as u32);
    match i % 4 {
        0 => (i * 7 + k) % 70,
        1 => {
            (i as f64 * 1.5 - 99.0 + k as f64).to_bits() & !0xffff_ffff
                | (i as f32 * 0.37 - 20.0 - k as f32).to_bits() as u64
        }
        2 => noise,
        _ => (noise as i64 >> 40) as u64,
    }
}

/// Run an arm kernel on `device`: 2 blocks of 100 threads, so the last warp
/// of each block is partial on 32- and on 64-lane devices.
fn run_arm(kernel: &Kernel, device: &DeviceSpec, tier: ExecTier) -> (Vec<u8>, ExecStats) {
    const N: u64 = 200;
    let kernel = kernel.resolve().unwrap();
    let mut gmem = GlobalMemory::new(1 << 16);
    let bufs: Vec<_> = (0..4).map(|_| gmem.alloc(N * 8).unwrap()).collect();
    for (k, &buf) in bufs[..3].iter().enumerate() {
        let bytes: Vec<u8> = (0..N)
            .flat_map(|i| operand(k as u64, i).to_le_bytes())
            .collect();
        gmem.copy_in(buf, &bytes).unwrap();
    }
    let cfg = LaunchConfig::new(2u32, 100u32)
        .arg_ptr(bufs[0])
        .arg_ptr(bufs[1])
        .arg_ptr(bufs[2])
        .arg_ptr(bufs[3]);
    let opts = ExecOptions::serial().tier(tier);
    let report = launch_with(device, &kernel, &mut gmem, &[], &cfg, &opts).unwrap();
    let mut out = vec![0u8; (N * 8) as usize];
    gmem.copy_out(bufs[3], &mut out).unwrap();
    (out, report.stats)
}

#[test]
fn every_scalar_arm_matches_the_interpreter_under_a_divergent_mask() {
    // Every (op, type) pair the engine can meet — its specialised loops
    // and the per-lane fallback alike — on a 32-lane and a 64-lane device.
    let mut arms: Vec<(String, Kernel)> = Vec::new();
    for ty in TYS {
        let int = !ty.is_float();
        let mut arm = |name: String, dty: Ty, emit: &dyn Fn(&mut KernelBuilder, Reg, [Reg; 3])| {
            arms.push((name, arm_kernel(ty, dty, emit)));
        };
        arm(format!("mov.{ty:?}"), ty, &|b, d, [a, _, _]| {
            b.mov_to(ty, d, a)
        });
        for op in [
            Op2::Add,
            Op2::Sub,
            Op2::Mul,
            Op2::Div,
            Op2::Rem,
            Op2::Min,
            Op2::Max,
            Op2::And,
            Op2::Or,
            Op2::Xor,
            Op2::Shl,
            Op2::Shr,
        ] {
            arm(format!("{op:?}.{ty:?}"), ty, &|b, d, [a, y, _]| {
                // Integer divisors are forced odd: faults are tested apart.
                let y = match (int, op) {
                    (true, Op2::Div | Op2::Rem) => b.bin(Op2::Or, ty, y, 1i32),
                    _ => y,
                };
                b.bin_to(op, ty, d, a, y)
            });
        }
        let un: &[Op1] = if int {
            &[Op1::Neg, Op1::Abs, Op1::Not]
        } else {
            &[
                Op1::Neg,
                Op1::Abs,
                Op1::Not,
                Op1::Sqrt,
                Op1::Rsqrt,
                Op1::Rcp,
                Op1::Sin,
                Op1::Cos,
                Op1::Ex2,
                Op1::Lg2,
            ]
        };
        for &op in un {
            arm(format!("{op:?}.{ty:?}"), ty, &|b, d, [a, _, _]| {
                b.emit(Inst::Un {
                    op,
                    ty,
                    d,
                    a: Operand::Reg(a),
                })
            });
        }
        for op in [Op3::Mad, Op3::Fma] {
            arm(format!("{op:?}.{ty:?}"), ty, &|b, d, [a, y, z]| {
                b.tern_to(op, ty, d, a, y, z)
            });
        }
        for cmp in [
            CmpOp::Eq,
            CmpOp::Ne,
            CmpOp::Lt,
            CmpOp::Le,
            CmpOp::Gt,
            CmpOp::Ge,
        ] {
            arm(
                format!("setp.{cmp:?}.{ty:?}"),
                Ty::Pred,
                &|b, d, [a, y, _]| {
                    b.emit(Inst::Setp {
                        cmp,
                        ty,
                        d,
                        a: Operand::Reg(a),
                        b: Operand::Reg(y),
                    })
                },
            );
        }
        arm(format!("selp.{ty:?}"), ty, &|b, d, [a, y, z]| {
            let p = b.setp(CmpOp::Lt, Ty::U32, z, 35i32);
            b.emit(Inst::Selp {
                ty,
                d,
                a: Operand::Reg(a),
                b: Operand::Reg(y),
                p,
            })
        });
        for dty in TYS {
            arm(format!("cvt.{dty:?}.{ty:?}"), dty, &|b, d, [a, _, _]| {
                b.emit(Inst::Cvt {
                    dty,
                    sty: ty,
                    d,
                    a: Operand::Reg(a),
                })
            });
        }
    }
    for device in [DeviceSpec::gtx480(), DeviceSpec::hd5870()] {
        for (name, kernel) in &arms {
            let base = run_arm(kernel, &device, ExecTier::Interp);
            let got = run_arm(kernel, &device, ExecTier::Decoded);
            assert_eq!(got, base, "{name} on {}", device.name);
        }
    }
}

#[test]
fn sentinel_survives_in_inactive_lanes() {
    // The harness above would miss a tier that wrote inactive lanes if the
    // interpreter did too; pin the sentinel directly.
    let kernel = arm_kernel(Ty::S32, Ty::S32, |b, d, [a, y, _]| {
        b.bin_to(Op2::Add, Ty::S32, d, a, y)
    });
    for device in [DeviceSpec::gtx480(), DeviceSpec::hd5870()] {
        let (out, _) = run_arm(&kernel, &device, ExecTier::Decoded);
        for (tid, word) in out.chunks(8).enumerate() {
            let v = u64::from_le_bytes(word.try_into().unwrap());
            assert_eq!(v == 0x5a5a_5a5a_5a5a_5a5a, tid % 100 % 3 == 0, "lane {tid}");
        }
    }
}
