//! Stable content hashing for kernels, and the workspace's shared
//! hashing and seeded-randomness primitives.
//!
//! [`kernel_hash`] produces a 64-bit FNV-1a digest over *every* field of a
//! [`Kernel`] — name, parameters, register declarations, instruction stream
//! (including immediates, bit-exact for floats), and the shared/local/
//! physical-register footprint. Two kernels hash equal iff they are
//! structurally identical, so the digest is a sound key for the simulator's
//! per-session code cache: a campaign that builds the same kernel twice
//! decodes it once.
//!
//! The hash is hand-rolled rather than derived from a serialized form:
//! text encodings are not stable for floats (`NaN`, `-0.0`, shortest-repr
//! formatting), while hashing `f64::to_bits` is. Enum variants hash as
//! fixed one-byte tags, so the digest is independent of host endianness
//! quirks in discriminant representation (all multi-byte scalars are fed
//! in little-endian order).
//!
//! [`Fnv`] and [`splitmix64`] are the only FNV-1a and SplitMix64 in the
//! workspace. Campaign-cell fingerprints, fault-plan case keys, retry
//! jitter, soak traffic and the fuzzer's case stream all build on them, so
//! their outputs are pinned by known-answer tests below: a change here
//! would silently re-key every cache entry and replay schedule.

use crate::inst::{Address, AtomOp, CmpOp, Inst, Op1, Op2, Op3, TexRef};
use crate::kernel::Kernel;
use crate::reg::{Operand, Reg, Special};
use crate::ty::{Space, Ty};

/// One SplitMix64 step: advance `state` and return the next output.
#[inline]
pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// 64-bit FNV-1a accumulator.
#[derive(Clone, Copy, Debug)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv::new()
    }
}

impl Fnv {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;

    /// An empty FNV-1a 64 digest.
    #[inline]
    pub fn new() -> Self {
        Fnv(Self::OFFSET)
    }

    /// An FNV-1a 64 digest whose offset basis is XORed with `seed`
    /// (`seeded(0)` is plain FNV-1a).
    #[inline]
    pub fn seeded(seed: u64) -> Self {
        Fnv(Self::OFFSET ^ seed)
    }

    #[inline]
    fn byte(&mut self, b: u8) {
        self.0 ^= b as u64;
        self.0 = self.0.wrapping_mul(Self::PRIME);
    }

    /// Fold a byte string in.
    #[inline]
    pub fn bytes(&mut self, bs: &[u8]) {
        for &b in bs {
            self.byte(b);
        }
    }

    /// The digest so far.
    #[inline]
    pub fn finish(self) -> u64 {
        self.0
    }

    fn u32(&mut self, v: u32) {
        self.bytes(&v.to_le_bytes());
    }

    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    fn i64(&mut self, v: i64) {
        self.bytes(&v.to_le_bytes());
    }

    /// Length-prefixed string (prefix-free against field concatenation).
    fn str(&mut self, s: &str) {
        self.u64(s.len() as u64);
        self.bytes(s.as_bytes());
    }
}

const fn ty_tag(t: Ty) -> u8 {
    match t {
        Ty::Pred => 0,
        Ty::B8 => 1,
        Ty::B16 => 2,
        Ty::B32 => 3,
        Ty::B64 => 4,
        Ty::S32 => 5,
        Ty::S64 => 6,
        Ty::U32 => 7,
        Ty::U64 => 8,
        Ty::F32 => 9,
        Ty::F64 => 10,
    }
}

const fn space_tag(s: Space) -> u8 {
    match s {
        Space::Global => 0,
        Space::Shared => 1,
        Space::Local => 2,
        Space::Const => 3,
        Space::Param => 4,
    }
}

const fn op1_tag(o: Op1) -> u8 {
    match o {
        Op1::Neg => 0,
        Op1::Abs => 1,
        Op1::Not => 2,
        Op1::Sqrt => 3,
        Op1::Rsqrt => 4,
        Op1::Rcp => 5,
        Op1::Sin => 6,
        Op1::Cos => 7,
        Op1::Ex2 => 8,
        Op1::Lg2 => 9,
    }
}

const fn op2_tag(o: Op2) -> u8 {
    match o {
        Op2::Add => 0,
        Op2::Sub => 1,
        Op2::Mul => 2,
        Op2::Div => 3,
        Op2::Rem => 4,
        Op2::Min => 5,
        Op2::Max => 6,
        Op2::And => 7,
        Op2::Or => 8,
        Op2::Xor => 9,
        Op2::Shl => 10,
        Op2::Shr => 11,
    }
}

const fn op3_tag(o: Op3) -> u8 {
    match o {
        Op3::Mad => 0,
        Op3::Fma => 1,
    }
}

const fn cmp_tag(c: CmpOp) -> u8 {
    match c {
        CmpOp::Eq => 0,
        CmpOp::Ne => 1,
        CmpOp::Lt => 2,
        CmpOp::Le => 3,
        CmpOp::Gt => 4,
        CmpOp::Ge => 5,
    }
}

const fn atom_tag(a: AtomOp) -> u8 {
    match a {
        AtomOp::Add => 0,
        AtomOp::Min => 1,
        AtomOp::Max => 2,
        AtomOp::Exch => 3,
        AtomOp::Cas => 4,
    }
}

const fn special_tag(s: Special) -> u8 {
    match s {
        Special::TidX => 0,
        Special::TidY => 1,
        Special::TidZ => 2,
        Special::NtidX => 3,
        Special::NtidY => 4,
        Special::NtidZ => 5,
        Special::CtaidX => 6,
        Special::CtaidY => 7,
        Special::CtaidZ => 8,
        Special::NctaidX => 9,
        Special::NctaidY => 10,
        Special::NctaidZ => 11,
        Special::LaneId => 12,
        Special::WarpId => 13,
        Special::WarpSize => 14,
    }
}

fn hash_reg(h: &mut Fnv, r: Reg) {
    h.u32(r.0);
}

fn hash_operand(h: &mut Fnv, o: Operand) {
    match o {
        Operand::Reg(r) => {
            h.byte(0);
            hash_reg(h, r);
        }
        Operand::ImmI(v) => {
            h.byte(1);
            h.i64(v);
        }
        Operand::ImmF(v) => {
            h.byte(2);
            h.u64(v.to_bits());
        }
        Operand::Special(s) => {
            h.byte(3);
            h.byte(special_tag(s));
        }
    }
}

fn hash_addr(h: &mut Fnv, a: Address) {
    hash_operand(h, a.base);
    h.i64(a.offset);
}

fn hash_inst(h: &mut Fnv, inst: &Inst) {
    match *inst {
        Inst::Label(l) => {
            h.byte(0);
            h.u32(l.0);
        }
        Inst::Mov { ty, d, a } => {
            h.byte(1);
            h.byte(ty_tag(ty));
            hash_reg(h, d);
            hash_operand(h, a);
        }
        Inst::Cvt { dty, sty, d, a } => {
            h.byte(2);
            h.byte(ty_tag(dty));
            h.byte(ty_tag(sty));
            hash_reg(h, d);
            hash_operand(h, a);
        }
        Inst::Un { op, ty, d, a } => {
            h.byte(3);
            h.byte(op1_tag(op));
            h.byte(ty_tag(ty));
            hash_reg(h, d);
            hash_operand(h, a);
        }
        Inst::Bin { op, ty, d, a, b } => {
            h.byte(4);
            h.byte(op2_tag(op));
            h.byte(ty_tag(ty));
            hash_reg(h, d);
            hash_operand(h, a);
            hash_operand(h, b);
        }
        Inst::Tern { op, ty, d, a, b, c } => {
            h.byte(5);
            h.byte(op3_tag(op));
            h.byte(ty_tag(ty));
            hash_reg(h, d);
            hash_operand(h, a);
            hash_operand(h, b);
            hash_operand(h, c);
        }
        Inst::Setp { cmp, ty, d, a, b } => {
            h.byte(6);
            h.byte(cmp_tag(cmp));
            h.byte(ty_tag(ty));
            hash_reg(h, d);
            hash_operand(h, a);
            hash_operand(h, b);
        }
        Inst::Selp { ty, d, a, b, p } => {
            h.byte(7);
            h.byte(ty_tag(ty));
            hash_reg(h, d);
            hash_operand(h, a);
            hash_operand(h, b);
            hash_reg(h, p);
        }
        Inst::Ld { space, ty, d, addr } => {
            h.byte(8);
            h.byte(space_tag(space));
            h.byte(ty_tag(ty));
            hash_reg(h, d);
            hash_addr(h, addr);
        }
        Inst::St { space, ty, addr, a } => {
            h.byte(9);
            h.byte(space_tag(space));
            h.byte(ty_tag(ty));
            hash_addr(h, addr);
            hash_operand(h, a);
        }
        Inst::Tex { ty, d, tex, idx } => {
            h.byte(10);
            h.byte(ty_tag(ty));
            hash_reg(h, d);
            let TexRef(slot) = tex;
            h.byte(slot);
            hash_operand(h, idx);
        }
        Inst::Atom {
            space,
            op,
            ty,
            d,
            addr,
            b,
            c,
        } => {
            h.byte(11);
            h.byte(space_tag(space));
            h.byte(atom_tag(op));
            h.byte(ty_tag(ty));
            hash_reg(h, d);
            hash_addr(h, addr);
            hash_operand(h, b);
            hash_operand(h, c);
        }
        Inst::Bra { target, pred } => {
            h.byte(12);
            h.u32(target.0);
            match pred {
                None => h.byte(0),
                Some((p, pol)) => {
                    h.byte(1);
                    hash_reg(h, p);
                    h.byte(pol as u8);
                }
            }
        }
        Inst::Ssy { target } => {
            h.byte(13);
            h.u32(target.0);
        }
        Inst::SyncPoint => h.byte(14),
        Inst::Bar => h.byte(15),
        Inst::Ret => h.byte(16),
    }
}

/// Stable 64-bit content hash of a kernel (see the module docs).
pub fn kernel_hash(k: &Kernel) -> u64 {
    let mut h = Fnv::new();
    h.str(&k.name);
    h.u64(k.params.len() as u64);
    for p in &k.params {
        h.str(&p.name);
        h.byte(ty_tag(p.ty));
    }
    h.u64(k.regs.len() as u64);
    for &r in &k.regs {
        h.byte(ty_tag(r));
    }
    h.u64(k.body.len() as u64);
    for inst in &k.body {
        hash_inst(&mut h, inst);
    }
    h.u32(k.shared_bytes);
    h.u32(k.local_bytes);
    h.u32(k.phys_regs);
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::LabelId;

    fn sample() -> Kernel {
        let mut k = Kernel::new("k");
        k.regs = vec![Ty::F32, Ty::S32, Ty::Pred];
        k.body = vec![
            Inst::Mov {
                ty: Ty::F32,
                d: Reg(0),
                a: Operand::ImmF(1.5),
            },
            Inst::Setp {
                cmp: CmpOp::Lt,
                ty: Ty::S32,
                d: Reg(2),
                a: Operand::Reg(Reg(1)),
                b: Operand::ImmI(4),
            },
            Inst::Bra {
                target: LabelId(0),
                pred: Some((Reg(2), true)),
            },
            Inst::Label(LabelId(0)),
            Inst::Ret,
        ];
        k
    }

    #[test]
    fn splitmix64_known_answers() {
        let mut s = 0;
        assert_eq!(splitmix64(&mut s), 0xe220_a839_7b1d_cdaf);
        assert_eq!(splitmix64(&mut s), 0x6e78_9e6a_a1b9_65f4);
        assert_eq!(splitmix64(&mut s), 0x06c4_5d18_8009_454f);
    }

    #[test]
    fn fnv1a_known_answers() {
        let digest = |s: &str| {
            let mut h = Fnv::new();
            h.bytes(s.as_bytes());
            h.finish()
        };
        assert_eq!(digest(""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(digest("a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(digest("foobar"), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn identical_kernels_hash_equal() {
        assert_eq!(kernel_hash(&sample()), kernel_hash(&sample()));
    }

    #[test]
    fn any_field_change_changes_the_hash() {
        let base = kernel_hash(&sample());
        let mut k = sample();
        k.name = "k2".into();
        assert_ne!(kernel_hash(&k), base);
        let mut k = sample();
        k.shared_bytes = 64;
        assert_ne!(kernel_hash(&k), base);
        let mut k = sample();
        k.body[1] = Inst::Setp {
            cmp: CmpOp::Le,
            ty: Ty::S32,
            d: Reg(2),
            a: Operand::Reg(Reg(1)),
            b: Operand::ImmI(4),
        };
        assert_ne!(kernel_hash(&k), base);
        // Immediates are hashed bit-exactly, including float payloads.
        let mut k = sample();
        k.body[0] = Inst::Mov {
            ty: Ty::F32,
            d: Reg(0),
            a: Operand::ImmF(-1.5),
        };
        assert_ne!(kernel_hash(&k), base);
    }

    #[test]
    fn float_immediates_distinguish_zero_signs() {
        let mut a = sample();
        a.body[0] = Inst::Mov {
            ty: Ty::F32,
            d: Reg(0),
            a: Operand::ImmF(0.0),
        };
        let mut b = sample();
        b.body[0] = Inst::Mov {
            ty: Ty::F32,
            d: Reg(0),
            a: Operand::ImmF(-0.0),
        };
        assert_ne!(kernel_hash(&a), kernel_hash(&b));
    }
}
