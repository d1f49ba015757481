//! The warp engine: register-major dispatch over the pre-decoded IR.
//!
//! [`BlockExec::run_warp_decoded`] mirrors the interpreter's `run_warp`
//! step for step over a [`DecodedKernel`]: labels are gone, costs, register
//! slots, immediates and branch targets are pre-resolved, and fault sites
//! report the original pc ([`DecodedInst::orig_pc`]). Warp instructions
//! retire one at a time, so counters and the watchdog move as there.
//!
//! A scalar op is matched once per warp instruction, on its op, type and
//! operand kinds, then runs one loop over the warp's lanes, whose operands
//! are contiguous register columns. Hot `(op, type)` pairs get their own
//! loop with the shared ALU function inlined at constant arguments, so
//! each lane runs exactly the interpreter's arithmetic; other pairs keep
//! the ALU's match inside the loop. A two- or three-input float op whose
//! result is NaN is recomputed by the out-of-line ALU the interpreter
//! calls, so NaN payloads match too (one input fixes the hardware's pick).
//!
//! Every lane is computed and only active lanes are written back. That is
//! side-effect free because every ALU op is total except integer
//! `div`/`rem`, which run lane by lane in ascending order: a division
//! fault leaves lanes below the faulting one written, lanes above
//! untouched, and `cur_tid` on the faulting lane, as in the interpreter.

use crate::alu::{alu1, alu2, alu2_inline, alu3, alu3_inline, compare, convert, load_extend};
use crate::decode::{DOp, DSrc, DecodedInst, DecodedKernel};
use crate::error::FaultKind;
use crate::exec::{BlockExec, Frame, WarpStatus};
use crate::launch::Dim3;
use gpucmp_ptx::{CmpOp, Op1, Op2, Op3, Reg, Ty};

/// Widest warp a device may have (lane masks are `u64`).
pub(crate) const MAX_WARP: usize = 64;

/// The lanes one warp instruction runs on.
#[derive(Clone, Copy)]
struct Lanes {
    /// Linear tid of lane 0.
    base: u32,
    /// Lanes that exist (the last warp of a block may be partial).
    n: usize,
    /// Active-lane mask.
    active: u64,
}

/// Expand `$body` once per listed hot pair, with the pair's keys rebound
/// to constants so the ALU call inside folds to that pair's arithmetic,
/// and once more for every other pair.
macro_rules! specialize {
    ($x:ident: $X:ident; [$($a:ident),* $(,)?] => $body:expr) => {
        match $x {
            $($X::$a => {
                let $x = $X::$a;
                $body
            })*
            _ => $body,
        }
    };
    ($x:ident: $X:ident, $y:ident: $Y:ident; [$($a:ident $b:ident),* $(,)?] => $body:expr) => {
        match ($x, $y) {
            $(($X::$a, $Y::$b) => {
                let ($x, $y) = ($X::$a, $Y::$b);
                $body
            })*
            _ => $body,
        }
    };
}

impl<'a> BlockExec<'a> {
    /// Run one warp on the engine until it blocks on a barrier or returns.
    /// Mirrors `run_warp` exactly; see module docs.
    pub(crate) fn run_warp_decoded(
        &mut self,
        w: usize,
        ctaid: Dim3,
        code: &DecodedKernel,
    ) -> Result<(), FaultKind> {
        loop {
            let pc = self.warps[w].pc;
            // Borrow, never copy: `DecodedInst` embeds the full `Inst` for
            // memory ops, and this is the hottest load in the simulator.
            let di: &DecodedInst = &code.body[pc];
            self.cur_pc = di.orig_pc as usize;
            self.cur_tid = self.warps[w].base_tid;
            if self.budget == 0 {
                return Err(FaultKind::Watchdog {
                    budget: self.budget_limit,
                });
            }
            self.budget -= 1;
            self.stats.warp_instructions += 1;
            self.stats.lane_instructions += self.warps[w].active.count_ones() as u64;
            self.stats.issue_millicycles += di.cost;

            match di.op {
                DOp::Ssy => {
                    let active = self.warps[w].active;
                    self.warps[w].stack.push(Frame {
                        restore_mask: active,
                        pending: None,
                    });
                    self.warps[w].pc += 1;
                }
                DOp::Sync => {
                    let warp = &mut self.warps[w];
                    let frame = warp
                        .stack
                        .last_mut()
                        .ok_or(FaultKind::Divergence("sync without ssy frame"))?;
                    if let Some((ppc, pmask)) = frame.pending.take() {
                        warp.active = pmask;
                        warp.pc = ppc;
                    } else {
                        warp.active = frame.restore_mask;
                        warp.stack.pop();
                        warp.pc += 1;
                    }
                }
                DOp::Bra { target, pred } => {
                    let t = target as usize;
                    let refill = code.branch_refill_millicycles;
                    match pred {
                        None => {
                            self.warps[w].pc = t;
                            self.stats.issue_millicycles += refill;
                        }
                        Some((p, polarity)) => {
                            let taken = self.pred_mask(w, Reg(p), polarity);
                            let warp = &mut self.warps[w];
                            let active = warp.active;
                            if taken == active {
                                warp.pc = t;
                                self.stats.issue_millicycles += refill;
                            } else if taken == 0 {
                                warp.pc += 1;
                            } else {
                                self.stats.divergent_branches += 1;
                                let frame = warp
                                    .stack
                                    .last_mut()
                                    .ok_or(FaultKind::Divergence("divergent branch without ssy"))?;
                                self.stats.issue_millicycles += refill;
                                match &mut frame.pending {
                                    None => frame.pending = Some((t, taken)),
                                    Some((ppc, pmask)) if *ppc == t => {
                                        *pmask |= taken;
                                    }
                                    Some(_) => {
                                        return Err(FaultKind::Divergence(
                                            "conflicting divergence targets in one region",
                                        ))
                                    }
                                }
                                warp.active = active & !taken;
                                warp.pc += 1;
                            }
                        }
                    }
                }
                DOp::Bar => {
                    let warp = &mut self.warps[w];
                    if warp.active != warp.full {
                        return Err(FaultKind::Divergence("barrier reached by divergent warp"));
                    }
                    self.stats.barriers += 1;
                    self.stats.issue_millicycles += code.barrier_cost_millicycles;
                    warp.status = WarpStatus::AtBarrier;
                    return Ok(()); // pc advanced at release
                }
                DOp::Ret => {
                    let warp = &mut self.warps[w];
                    if !warp.stack.is_empty() {
                        return Err(FaultKind::Divergence("ret inside ssy region"));
                    }
                    warp.status = WarpStatus::Done;
                    return Ok(());
                }
                DOp::Mem(ref inst) => {
                    self.exec_lanes(w, ctaid, inst)?;
                    self.warps[w].pc += 1;
                }
                ref op => {
                    let warp = &self.warps[w];
                    let lanes = Lanes {
                        base: warp.base_tid,
                        n: warp.full.count_ones() as usize,
                        active: warp.active,
                    };
                    self.exec_warp_op(lanes, ctaid, op)?;
                    self.warps[w].pc += 1;
                }
            }
        }
    }

    /// One scalar op for every lane of a warp. Must mirror `exec_scalar`
    /// lane for lane, flops included. The specialised pairs are those that
    /// carry at least 1 % of a campaign pass's scalar lane instructions.
    fn exec_warp_op(&mut self, l: Lanes, ctaid: Dim3, op: &DOp) -> Result<(), FaultKind> {
        let active = l.active.count_ones() as u64;
        match *op {
            DOp::Mov { ty, d, a } => specialize!(ty: Ty; [F32]
                => self.map(l, ctaid, d, [a], |[x]| load_extend(x, ty))),
            DOp::Cvt { dty, sty, d, a } => specialize!(dty: Ty, sty: Ty; [U64 S32]
                => self.map(l, ctaid, d, [a], |[x]| convert(x, sty, dty))),
            DOp::Un { op, ty, d, a } => {
                if matches!(op, Op1::Sqrt | Op1::Rsqrt | Op1::Rcp) {
                    self.stats.flops += active;
                }
                self.map(l, ctaid, d, [a], |[x]| alu1(op, ty, x))
            }
            DOp::Bin { op, ty, d, a, b } => {
                if !ty.is_float() && matches!(op, Op2::Div | Op2::Rem) {
                    self.load(l, ctaid, [a, b]);
                    return self.div_lanes(l, (op, ty, d));
                }
                if ty.is_float() && !op.is_logic() && !op.is_shift() {
                    self.stats.flops += active;
                }
                specialize!(op: Op2, ty: Ty; [
                    Add F32, Mul F32,
                    Add S32, Sub S32, Mul S32, Shr S32, And S32,
                    Add U32, Mul U32, Shl U32,
                    Add U64, Shl U64,
                ] => self.map(l, ctaid, d, [a, b], |[x, y]| {
                    const E: &str = "only integer div/rem can fault";
                    exact_nan(ty, alu2_inline(op, ty, x, y).expect(E), || {
                        alu2(op, ty, x, y).expect(E)
                    })
                }))
            }
            DOp::Tern { op, ty, d, a, b, c } => {
                if ty.is_float() {
                    self.stats.flops += 2 * active;
                }
                specialize!(op: Op3, ty: Ty; [Fma F32, Mad S32, Mad U32, Mad U64]
                => self.map(l, ctaid, d, [a, b, c], |[x, y, z]| {
                    exact_nan(ty, alu3_inline(op, ty, x, y, z), || alu3(op, ty, x, y, z))
                }))
            }
            DOp::Setp { cmp, ty, d, a, b } => specialize!(cmp: CmpOp, ty: Ty; [
                Eq S32, Ne S32, Lt S32, Ge S32,
                Lt U32, Gt U32,
            ] => self.map(l, ctaid, d, [a, b], |[x, y]| compare(cmp, ty, x, y) as u64)),
            DOp::Selp { ty, d, a, b, p } => specialize!(ty: Ty; [S32]
            => self.map(l, ctaid, d, [a, b, DSrc::Reg(p)], |[x, y, p]| {
                load_extend(if p != 0 { x } else { y }, ty)
            })),
            _ => unreachable!("exec_warp_op on non-scalar op"),
        }
        Ok(())
    }

    /// Integer `div`/`rem` (the one fallible ALU op) over loaded lane
    /// vectors: active lanes run in ascending order and the first fault
    /// stops the warp, with `cur_tid` on the faulting lane.
    fn div_lanes(&mut self, l: Lanes, (op, ty, d): (Op2, Ty, u32)) -> Result<(), FaultKind> {
        for lane in 0..l.n {
            if l.active & (1u64 << lane) != 0 {
                let tid = l.base + lane as u32;
                self.cur_tid = tid;
                let [x, y, _] = &self.lane_vecs;
                let r = alu2(op, ty, x[lane], y[lane])?;
                self.set_reg(tid, Reg(d), r);
            }
        }
        Ok(())
    }

    /// `d = f(srcs)` in every active lane: the sources load into the
    /// lane vectors, `f` runs over every lane, the active results store.
    #[inline(always)]
    fn map<const K: usize>(
        &mut self,
        l: Lanes,
        ctaid: Dim3,
        d: u32,
        srcs: [DSrc; K],
        f: impl Fn([u64; K]) -> u64,
    ) {
        self.load(l, ctaid, srcs);
        let [x, y, z] = &mut self.lane_vecs;
        for ((r, &y), &z) in x[..l.n].iter_mut().zip(&y[..l.n]).zip(&z[..l.n]) {
            *r = f(std::array::from_fn(|k| [*r, y, z][k]));
        }
        let n = l.n;
        let i = self.reg_index(l.base, d);
        let (col, r) = (&mut self.regs[i..i + n], &self.lane_vecs[0][..n]);
        if l.active.count_ones() as usize == n {
            col.copy_from_slice(r);
        } else {
            for (lane, (c, &v)) in col.iter_mut().zip(r).enumerate() {
                if l.active & (1u64 << lane) != 0 {
                    *c = v;
                }
            }
        }
    }

    /// Each source operand's value in every lane (active or not), into
    /// lane vector `k` for source `k`.
    #[inline(always)]
    fn load<const K: usize>(&mut self, l: Lanes, ctaid: Dim3, srcs: [DSrc; K]) {
        for (k, s) in srcs.into_iter().enumerate() {
            match s {
                DSrc::Reg(slot) => {
                    let i = self.reg_index(l.base, slot);
                    self.lane_vecs[k][..l.n].copy_from_slice(&self.regs[i..i + l.n]);
                }
                DSrc::Imm(bits) => self.lane_vecs[k][..l.n].fill(bits),
                DSrc::Special(sp) => {
                    for lane in 0..l.n {
                        self.lane_vecs[k][lane] = self.special(l.base + lane as u32, ctaid, sp);
                    }
                }
            }
        }
    }
}

/// `fast`, unless it is a NaN of type `ty`: then `exact()`, the interpreter's
/// out-of-line computation, which picks the same input NaN it does.
#[inline(always)]
fn exact_nan(ty: Ty, fast: u64, exact: impl FnOnce() -> u64) -> u64 {
    let nan = match ty {
        Ty::F32 => f32::from_bits(fast as u32).is_nan(),
        Ty::F64 => f64::from_bits(fast).is_nan(),
        _ => false,
    };
    if nan {
        exact()
    } else {
        fast
    }
}
