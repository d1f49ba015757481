//! Control-flow graph, liveness analysis and spilling.
//!
//! Used twice: by the front-ends to enforce their virtual-register budgets
//! (producing the `ld.local`/`st.local` traffic visible in the paper's
//! Table V), and by the `ptxas` backend to compute the physical register
//! footprint that drives occupancy (the paper's Fig. 7 mechanism).

use gpucmp_ptx::{Address, Inst, Kernel, Operand, Reg, Space, Ty};
use std::collections::HashMap;

/// A dense bit set over register indices.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BitSet {
    words: Vec<u64>,
}

impl BitSet {
    /// Empty set sized for `n` registers.
    pub fn new(n: usize) -> Self {
        BitSet {
            words: vec![0; n.div_ceil(64)],
        }
    }

    /// Insert `i`; returns true if newly inserted.
    pub fn insert(&mut self, i: usize) -> bool {
        let w = &mut self.words[i / 64];
        let bit = 1u64 << (i % 64);
        let new = *w & bit == 0;
        *w |= bit;
        new
    }

    /// Remove `i`.
    pub fn remove(&mut self, i: usize) {
        self.words[i / 64] &= !(1u64 << (i % 64));
    }

    /// Membership test.
    pub fn contains(&self, i: usize) -> bool {
        self.words[i / 64] & (1u64 << (i % 64)) != 0
    }

    /// Union into `self`; returns true if `self` changed.
    pub fn union_with(&mut self, other: &BitSet) -> bool {
        let mut changed = false;
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            let n = *a | *b;
            changed |= n != *a;
            *a = n;
        }
        changed
    }

    /// Number of set bits.
    pub fn len(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    /// Iterate set bits.
    pub fn iter(&self) -> impl Iterator<Item = usize> + '_ {
        self.words.iter().enumerate().flat_map(|(wi, &w)| {
            (0..64).filter_map(move |b| {
                if w & (1u64 << b) != 0 {
                    Some(wi * 64 + b)
                } else {
                    None
                }
            })
        })
    }
}

/// One basic block: instruction range `[start, end)` and successor blocks.
#[derive(Clone, Debug)]
pub struct Block {
    /// First instruction index.
    pub start: usize,
    /// One past the last instruction index.
    pub end: usize,
    /// Successor block indices.
    pub succs: Vec<usize>,
}

/// Control-flow graph over a kernel's flat instruction stream.
#[derive(Clone, Debug)]
pub struct Cfg {
    /// Basic blocks in program order.
    pub blocks: Vec<Block>,
}

/// Build the CFG. Leaders: instruction 0, every `Label`, and every
/// instruction following a branch or `ret`.
pub fn build_cfg(kernel: &Kernel) -> Cfg {
    let body = &kernel.body;
    let n = body.len();
    let mut is_leader = vec![false; n];
    if n > 0 {
        is_leader[0] = true;
    }
    // label -> pc
    let mut label_pc = HashMap::new();
    for (pc, inst) in body.iter().enumerate() {
        if let Inst::Label(l) = inst {
            label_pc.insert(*l, pc);
            is_leader[pc] = true;
        }
    }
    for (pc, inst) in body.iter().enumerate() {
        match inst {
            Inst::Bra { target, .. } => {
                is_leader[label_pc[target]] = true;
                if pc + 1 < n {
                    is_leader[pc + 1] = true;
                }
            }
            Inst::Ret if pc + 1 < n => {
                is_leader[pc + 1] = true;
            }
            _ => {}
        }
    }
    let leaders: Vec<usize> = (0..n).filter(|&i| is_leader[i]).collect();
    let mut block_of = vec![0usize; n];
    let mut blocks: Vec<Block> = Vec::with_capacity(leaders.len());
    for (bi, &start) in leaders.iter().enumerate() {
        let end = leaders.get(bi + 1).copied().unwrap_or(n);
        block_of[start..end].fill(bi);
        blocks.push(Block {
            start,
            end,
            succs: Vec::new(),
        });
    }
    for bi in 0..blocks.len() {
        let last = blocks[bi].end - 1;
        let mut succs = Vec::new();
        match &body[last] {
            Inst::Ret => {}
            Inst::Bra { target, pred } => {
                succs.push(block_of[label_pc[target]]);
                if pred.is_some() && bi + 1 < blocks.len() {
                    succs.push(bi + 1);
                }
            }
            _ => {
                if bi + 1 < blocks.len() {
                    succs.push(bi + 1);
                }
            }
        }
        blocks[bi].succs = succs;
    }
    Cfg { blocks }
}

/// Per-block liveness sets.
#[derive(Clone, Debug)]
pub struct Liveness {
    /// Live registers at block entry.
    pub live_in: Vec<BitSet>,
    /// Live registers at block exit.
    pub live_out: Vec<BitSet>,
}

/// Backward may-liveness over the CFG.
pub fn liveness(kernel: &Kernel, cfg: &Cfg) -> Liveness {
    let nregs = kernel.regs.len();
    let nb = cfg.blocks.len();
    // gen (upward-exposed uses) and kill (defs) per block
    let mut gen = vec![BitSet::new(nregs); nb];
    let mut kill = vec![BitSet::new(nregs); nb];
    for (bi, b) in cfg.blocks.iter().enumerate() {
        for pc in (b.start..b.end).rev() {
            let inst = &kernel.body[pc];
            if let Some(d) = inst.def() {
                gen[bi].remove(d.index());
                kill[bi].insert(d.index());
            }
            inst.for_each_use(|r| {
                gen[bi].insert(r.index());
            });
        }
    }
    let mut live_in = gen.clone();
    let mut live_out = vec![BitSet::new(nregs); nb];
    let mut changed = true;
    while changed {
        changed = false;
        for bi in (0..nb).rev() {
            let mut out = BitSet::new(nregs);
            for &s in &cfg.blocks[bi].succs {
                out.union_with(&live_in[s]);
            }
            if out != live_out[bi] {
                live_out[bi] = out.clone();
            }
            // in = gen ∪ (out - kill)
            let mut inn = gen[bi].clone();
            for r in out.iter() {
                if !kill[bi].contains(r) {
                    inn.insert(r);
                }
            }
            if inn != live_in[bi] {
                live_in[bi] = inn;
                changed = true;
            }
        }
    }
    Liveness { live_in, live_out }
}

/// Result of pressure analysis.
#[derive(Clone, Debug)]
pub struct Pressure {
    /// Maximum number of simultaneously live 32-bit register slots (wide
    /// registers count double, predicates count zero — they live in a
    /// separate predicate file).
    pub max_live_slots: u32,
    /// Instructions-live count per register (spill priority metric).
    pub live_len: Vec<u32>,
}

/// Compute register pressure.
pub fn pressure(kernel: &Kernel, cfg: &Cfg, lv: &Liveness) -> Pressure {
    let nregs = kernel.regs.len();
    let weight = |r: usize| -> u32 {
        match kernel.regs[r] {
            Ty::Pred => 0,
            t if t.is_wide() => 2,
            _ => 1,
        }
    };
    let mut live_len = vec![0u32; nregs];
    // Step of the block's backward walk from which each live register has
    // been counted. A register's run is added to `live_len` when a def
    // kills it or the walk reaches the block's top, so no step has to visit
    // the whole live set.
    let mut since = vec![0u32; nregs];
    let mut max_slots = 0u32;
    let mut live = BitSet::new(nregs);
    for (bi, b) in cfg.blocks.iter().enumerate() {
        live.words.clone_from(&lv.live_out[bi].words);
        let mut slots = 0;
        for r in live.iter() {
            slots += weight(r);
            since[r] = 0;
        }
        max_slots = max_slots.max(slots);
        let mut step = 0u32;
        for pc in (b.start..b.end).rev() {
            let inst = &kernel.body[pc];
            if let Some(d) = inst.def() {
                if live.contains(d.index()) {
                    live.remove(d.index());
                    slots -= weight(d.index());
                    live_len[d.index()] += step - since[d.index()];
                }
            }
            inst.for_each_use(|r| {
                if live.insert(r.index()) {
                    slots += weight(r.index());
                    since[r.index()] = step;
                }
            });
            max_slots = max_slots.max(slots);
            step += 1;
        }
        for r in live.iter() {
            live_len[r] += step - since[r];
        }
    }
    Pressure {
        max_live_slots: max_slots,
        live_len,
    }
}

/// Spill registers to `local` space until the pressure fits `budget` 32-bit
/// slots (or no further progress can be made). Returns the number of
/// registers spilled. Updates `kernel.local_bytes`.
pub fn spill_to_local(kernel: &mut Kernel, budget: u32) -> u32 {
    let mut spilled = 0u32;
    let mut no_spill: Vec<bool> = vec![false; kernel.regs.len()];
    for round in 0..64 {
        let cfg = build_cfg(kernel);
        let lv = liveness(kernel, &cfg);
        let p = pressure(kernel, &cfg, &lv);
        if p.max_live_slots <= budget {
            break;
        }
        // Spill the longest-lived non-predicate candidates this round.
        let mut cands: Vec<(u32, usize)> = (0..kernel.regs.len())
            .filter(|&r| kernel.regs[r] != Ty::Pred && !no_spill[r] && p.live_len[r] > 2)
            .map(|r| (p.live_len[r], r))
            .collect();
        cands.sort_unstable_by(|a, b| b.cmp(a));
        let take = ((p.max_live_slots - budget) as usize / 2 + 1)
            .min(cands.len())
            .max(1);
        if cands.is_empty() {
            break;
        }
        let victims: Vec<usize> = cands.iter().take(take).map(|&(_, r)| r).collect();
        for v in &victims {
            no_spill[*v] = true;
        }
        spill_regs(kernel, &victims, &mut no_spill);
        spilled += victims.len() as u32;
        let _ = round;
    }
    spilled
}

/// Rewrite the kernel spilling each register in `victims` to its own
/// 8-byte local slot: a `st.local` after every def, a `ld.local` into a
/// fresh temporary before every use.
fn spill_regs(kernel: &mut Kernel, victims: &[usize], no_spill: &mut Vec<bool>) {
    let mut slot_of: HashMap<usize, i64> = HashMap::new();
    for &v in victims {
        slot_of.insert(v, kernel.local_bytes as i64);
        kernel.local_bytes += 8;
    }
    let old_body = std::mem::take(&mut kernel.body);
    let mut new_body = Vec::with_capacity(old_body.len() * 2);
    for mut inst in old_body {
        // Reload spilled uses into fresh temps.
        let mut reloads: Vec<(Reg, Reg)> = Vec::new(); // (victim, temp)
        inst.for_each_use(|r| {
            if slot_of.contains_key(&r.index()) && !reloads.iter().any(|&(v, _)| v == r) {
                reloads.push((r, Reg(0))); // temp assigned below
            }
        });
        for (v, t) in &mut reloads {
            let ty = kernel.regs[v.index()];
            kernel.regs.push(ty);
            no_spill.push(true);
            *t = Reg(kernel.regs.len() as u32 - 1);
            new_body.push(Inst::Ld {
                space: Space::Local,
                ty: widen_for_slot(ty),
                d: *t,
                addr: Address::absolute(slot_of[&v.index()]),
            });
        }
        if !reloads.is_empty() {
            inst.map_regs(|r| {
                // only rewrite *uses*; the def (if it is a victim) keeps its
                // register and gets a store-back below. map_regs rewrites
                // defs too, so restore it afterwards.
                reloads
                    .iter()
                    .find(|&&(v, _)| v == r)
                    .map(|&(_, t)| t)
                    .unwrap_or(r)
            });
            // restore def if it was rewritten
            if let Some(d) = inst.def() {
                if let Some(&(v, _)) = reloads.iter().find(|&&(_, t)| t == d) {
                    // def collided with a reloaded use temp: put the victim
                    // back as destination (store-back follows).
                    set_def(&mut inst, v);
                }
            }
        }
        let def = inst.def();
        new_body.push(inst);
        if let Some(d) = def {
            if let Some(&slot) = slot_of.get(&d.index()) {
                let ty = kernel.regs[d.index()];
                new_body.push(Inst::St {
                    space: Space::Local,
                    ty: widen_for_slot(ty),
                    addr: Address::absolute(slot),
                    a: Operand::Reg(d),
                });
            }
        }
    }
    kernel.body = new_body;
}

/// Local slots are 8 bytes; spill/reload with the register's natural width
/// widened to a b32/b64 image so bit patterns round-trip exactly.
fn widen_for_slot(ty: Ty) -> Ty {
    if ty.is_wide() {
        Ty::B64
    } else {
        Ty::B32
    }
}

fn set_def(inst: &mut Inst, new_d: Reg) {
    match inst {
        Inst::Mov { d, .. }
        | Inst::Cvt { d, .. }
        | Inst::Un { d, .. }
        | Inst::Bin { d, .. }
        | Inst::Tern { d, .. }
        | Inst::Setp { d, .. }
        | Inst::Selp { d, .. }
        | Inst::Ld { d, .. }
        | Inst::Tex { d, .. }
        | Inst::Atom { d, .. } => *d = new_d,
        _ => {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpucmp_ptx::{CmpOp, KernelBuilder, Op2};

    #[test]
    fn bitset_basics() {
        let mut s = BitSet::new(130);
        assert!(s.insert(0));
        assert!(s.insert(129));
        assert!(!s.insert(0));
        assert!(s.contains(129));
        assert_eq!(s.len(), 2);
        s.remove(0);
        assert!(!s.contains(0));
        let collected: Vec<_> = s.iter().collect();
        assert_eq!(collected, vec![129]);
    }

    /// `pressure`'s `live_len` against a direct count: after each step of
    /// each block's backward walk, every live register gains one.
    fn assert_live_len_is_per_step_count(k: &Kernel) {
        let cfg = build_cfg(k);
        let lv = liveness(k, &cfg);
        let mut want = vec![0u32; k.regs.len()];
        for (bi, b) in cfg.blocks.iter().enumerate() {
            let mut live = lv.live_out[bi].clone();
            for pc in (b.start..b.end).rev() {
                if let Some(d) = k.body[pc].def() {
                    live.remove(d.index());
                }
                k.body[pc].for_each_use(|r| {
                    live.insert(r.index());
                });
                for r in live.iter() {
                    want[r] += 1;
                }
            }
        }
        assert_eq!(pressure(k, &cfg, &lv).live_len, want);
    }

    fn straightline_kernel(n_chain: usize) -> Kernel {
        // r0 = 1; r1 = r0+1; ... long dependency chain: pressure stays tiny.
        let mut b = KernelBuilder::new("chain");
        let mut prev = b.mov(Ty::S32, 1i32);
        for _ in 0..n_chain {
            prev = b.bin(Op2::Add, Ty::S32, prev, 1i32);
        }
        b.st(Space::Global, Ty::S32, Address::absolute(0), prev);
        b.finish()
    }

    #[test]
    fn chain_has_low_pressure() {
        let k = straightline_kernel(50);
        let cfg = build_cfg(&k);
        let lv = liveness(&k, &cfg);
        let p = pressure(&k, &cfg, &lv);
        assert!(p.max_live_slots <= 2, "chain pressure {}", p.max_live_slots);
    }

    fn wide_live_kernel(n: usize) -> Kernel {
        // define n values, then use them all at the end: pressure = n.
        let mut b = KernelBuilder::new("wide");
        let regs: Vec<_> = (0..n).map(|i| b.mov(Ty::S32, i as i32)).collect();
        let mut acc = regs[0];
        for r in &regs[1..] {
            acc = b.bin(Op2::Add, Ty::S32, acc, *r);
        }
        b.st(Space::Global, Ty::S32, Address::absolute(0), acc);
        b.finish()
    }

    #[test]
    fn parallel_values_have_high_pressure() {
        let k = wide_live_kernel(40);
        let cfg = build_cfg(&k);
        let lv = liveness(&k, &cfg);
        let p = pressure(&k, &cfg, &lv);
        assert!(p.max_live_slots >= 40, "pressure {}", p.max_live_slots);
        assert_live_len_is_per_step_count(&k);
    }

    #[test]
    fn spilling_reduces_pressure_and_allocates_local() {
        let mut k = wide_live_kernel(40);
        let spilled = spill_to_local(&mut k, 16);
        assert!(spilled > 0);
        assert_eq!(k.local_bytes, spilled * 8);
        let cfg = build_cfg(&k);
        let lv = liveness(&k, &cfg);
        let p = pressure(&k, &cfg, &lv);
        assert!(
            p.max_live_slots <= 16 + 2,
            "post-spill pressure {}",
            p.max_live_slots
        );
        // spill code present
        let lds = k
            .body
            .iter()
            .filter(|i| {
                matches!(
                    i,
                    Inst::Ld {
                        space: Space::Local,
                        ..
                    }
                )
            })
            .count();
        let sts = k
            .body
            .iter()
            .filter(|i| {
                matches!(
                    i,
                    Inst::St {
                        space: Space::Local,
                        ..
                    }
                )
            })
            .count();
        assert!(lds > 0 && sts > 0);
        assert_live_len_is_per_step_count(&k);
    }

    #[test]
    fn cfg_over_branches() {
        let mut b = KernelBuilder::new("br");
        let l_else = b.new_label();
        let l_end = b.new_label();
        let p = b.setp(CmpOp::Lt, Ty::S32, 1i32, 2i32);
        b.bra_if(l_else, p, false);
        let t = b.mov(Ty::S32, 1i32);
        b.st(Space::Global, Ty::S32, Address::absolute(0), t);
        b.bra(l_end);
        b.place_label(l_else);
        let e = b.mov(Ty::S32, 2i32);
        b.st(Space::Global, Ty::S32, Address::absolute(0), e);
        b.place_label(l_end);
        let k = b.finish();
        let cfg = build_cfg(&k);
        assert!(cfg.blocks.len() >= 4);
        // entry block ends with conditional branch: two successors
        let entry_succs = &cfg.blocks[0].succs;
        assert_eq!(entry_succs.len(), 2);
    }

    #[test]
    fn liveness_across_loop_backedge() {
        // acc defined before loop, updated in loop, stored after: must be
        // live around the back edge.
        let mut b = KernelBuilder::new("loop");
        let acc = b.mov(Ty::S32, 0i32);
        let i = b.mov(Ty::S32, 0i32);
        let top = b.new_label();
        let end = b.new_label();
        b.place_label(top);
        let p = b.setp(CmpOp::Ge, Ty::S32, i, 10i32);
        b.bra_if(end, p, true);
        b.bin_to(Op2::Add, Ty::S32, acc, acc, 1i32);
        b.bin_to(Op2::Add, Ty::S32, i, i, 1i32);
        b.bra(top);
        b.place_label(end);
        b.st(Space::Global, Ty::S32, Address::absolute(0), acc);
        let k = b.finish();
        let cfg = build_cfg(&k);
        let lv = liveness(&k, &cfg);
        // find the loop-header block (contains the setp)
        let header = cfg
            .blocks
            .iter()
            .position(|blk| (blk.start..blk.end).any(|pc| matches!(k.body[pc], Inst::Setp { .. })))
            .unwrap();
        assert!(lv.live_in[header].contains(acc.index()));
        assert!(lv.live_in[header].contains(i.index()));
        assert_live_len_is_per_step_count(&k);
    }
}
