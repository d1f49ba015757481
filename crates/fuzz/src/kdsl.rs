//! `.kdsl` — the replayable corpus format.
//!
//! An s-expression text form of a [`FuzzCase`]: the launch geometry, the
//! buffer/scalar parameters, and the full kernel AST. Every reduced
//! reproducer and every hand-written regression case is checked in as a
//! `.kdsl` file under `crates/fuzz/corpus/` and replayed by the
//! `corpus_replay` test and `fuzz --replay <file>`.
//!
//! Grammar (`;` starts a comment to end of line):
//!
//! ```text
//! (case
//!   (name "string") (seed N) (grid N) (block N)
//!   (buf TY LEN SEED)*            ; pointer params, slot order
//!   (scalar-i32 N | scalar-f32 F)*  ; scalar params, slot order
//!   (inst-budget N)?              ; watchdog override
//!   (device-exempt)?              ; skip the device-comparison axis
//!   (kernel "name"
//!     (vars TY*) (shared-bytes N) (const-data HEXBYTES)?
//!     (body STMT*)))
//!
//! STMT := (let ID E) | (assign ID E)
//!       | (store SPACE E E TY E)            ; base index ty value
//!       | (if E (STMT*) (STMT*))
//!       | (for ID E E STEP UNROLL (STMT*))  ; var start end step unroll
//!       | (while E (STMT*)) | (barrier)
//!       | (atomic AOP SPACE E E TY E OLD)   ; base index ty value old|none
//! E    := (i N) | (f F) | (var ID) | (param N) | (sp BUILTIN)
//!       | (un OP1 E) | (bin OP2 E E) | (cmp COP E E) | (sel E E E)
//!       | (cast TY E) | (ld SPACE E E TY) | (tex SLOT E TY)
//! ```
//!
//! Floats are written as `#<hex>` — the exact IEEE bit pattern (f64 bits
//! for `(f ...)` immediates, f32 bits for `scalar-f32`) — so a minimized
//! reproducer replays bit-identically. Hand-written files may use plain
//! decimal instead; the parser accepts both.

use crate::gen::{BufferSpec, FuzzCase, ScalarSpec};
use gpucmp_compiler::ast::{Builtin, Expr, KernelDef, Stmt, Unroll, Var};
use gpucmp_ptx::{AtomOp, CmpOp, Op1, Op2, Space, Ty};
use std::fmt::Write as _;

// ----------------------------------------------------------------------
// Writer
// ----------------------------------------------------------------------

/// Render a case as `.kdsl` text.
pub fn write_case(case: &FuzzCase) -> String {
    let mut s = String::new();
    let _ = writeln!(s, "; minimized reproducer — replay with:");
    let _ = writeln!(
        s,
        ";   cargo run --release -p gpucmp-fuzz --bin fuzz -- --replay <this file>"
    );
    let _ = writeln!(s, "(case");
    let _ = writeln!(s, "  (name \"{}\")", case.name);
    let _ = writeln!(s, "  (seed {})", case.seed);
    let _ = writeln!(s, "  (grid {})", case.grid);
    let _ = writeln!(s, "  (block {})", case.block);
    for b in &case.bufs {
        let _ = writeln!(s, "  (buf {} {} {})", ty_name(b.ty), b.len, b.init);
    }
    for sc in &case.scalars {
        match sc {
            ScalarSpec::I32(v) => {
                let _ = writeln!(s, "  (scalar-i32 {v})");
            }
            ScalarSpec::F32(v) => {
                let _ = writeln!(s, "  (scalar-f32 #{:08x})", v.to_bits());
            }
        }
    }
    if let Some(b) = case.inst_budget {
        let _ = writeln!(s, "  (inst-budget {b})");
    }
    if case.device_exempt {
        let _ = writeln!(s, "  (device-exempt)");
    }
    let _ = writeln!(s, "  (kernel \"{}\"", case.def.name);
    let mut vars = String::new();
    for ty in &case.def.var_tys {
        let _ = write!(vars, " {}", ty_name(*ty));
    }
    let _ = writeln!(s, "    (vars{vars})");
    let _ = writeln!(s, "    (shared-bytes {})", case.def.shared_bytes);
    if !case.def.const_data.is_empty() {
        let hex: String = case
            .def
            .const_data
            .iter()
            .map(|b| format!("{b:02x}"))
            .collect();
        let _ = writeln!(s, "    (const-data {hex})");
    }
    let _ = writeln!(s, "    (body");
    for st in &case.def.body {
        write_stmt(&mut s, st, 6);
    }
    let _ = writeln!(s, "    )))");
    s
}

fn indent(s: &mut String, n: usize) {
    for _ in 0..n {
        s.push(' ');
    }
}

fn write_body(s: &mut String, body: &[Stmt], ind: usize) {
    if body.is_empty() {
        s.push_str("()");
        return;
    }
    s.push_str("(\n");
    for st in body {
        write_stmt(s, st, ind + 2);
    }
    indent(s, ind);
    s.push(')');
}

fn write_stmt(s: &mut String, st: &Stmt, ind: usize) {
    indent(s, ind);
    match st {
        Stmt::Let(v, e) => {
            let _ = write!(s, "(let {} {})", v.id, expr(e));
        }
        Stmt::Assign(v, e) => {
            let _ = write!(s, "(assign {} {})", v.id, expr(e));
        }
        Stmt::Store {
            space,
            base,
            index,
            ty,
            value,
        } => {
            let _ = write!(
                s,
                "(store {} {} {} {} {})",
                space.suffix(),
                expr(base),
                expr(index),
                ty_name(*ty),
                expr(value)
            );
        }
        Stmt::If { cond, then_, else_ } => {
            let _ = write!(s, "(if {} ", expr(cond));
            write_body(s, then_, ind);
            s.push(' ');
            write_body(s, else_, ind);
            s.push(')');
        }
        Stmt::For {
            var,
            start,
            end,
            step,
            unroll,
            body,
        } => {
            let u = match unroll {
                Unroll::None => "none".to_string(),
                Unroll::Full => "full".to_string(),
                Unroll::By(n) => n.to_string(),
            };
            let _ = write!(
                s,
                "(for {} {} {} {} {} ",
                var.id,
                expr(start),
                expr(end),
                step,
                u
            );
            write_body(s, body, ind);
            s.push(')');
        }
        Stmt::While { cond, body } => {
            let _ = write!(s, "(while {} ", expr(cond));
            write_body(s, body, ind);
            s.push(')');
        }
        Stmt::Barrier => s.push_str("(barrier)"),
        Stmt::AtomicRmw {
            op,
            space,
            base,
            index,
            ty,
            value,
            old,
        } => {
            let o = match old {
                Some(v) => v.id.to_string(),
                None => "none".to_string(),
            };
            let _ = write!(
                s,
                "(atomic {} {} {} {} {} {} {})",
                op.mnemonic(),
                space.suffix(),
                expr(base),
                expr(index),
                ty_name(*ty),
                expr(value),
                o
            );
        }
    }
    s.push('\n');
}

fn expr(e: &Expr) -> String {
    match e {
        Expr::ImmI(v) => format!("(i {v})"),
        Expr::ImmF(v) => format!("(f #{:016x})", v.to_bits()),
        Expr::Var(v) => format!("(var {})", v.id),
        Expr::Param(p) => format!("(param {p})"),
        Expr::Special(b) => format!("(sp {})", builtin_name(*b)),
        Expr::Un(op, a) => format!("(un {} {})", op.mnemonic(), expr(a)),
        Expr::Bin(op, a, b) => format!("(bin {} {} {})", op.mnemonic(), expr(a), expr(b)),
        Expr::Cmp(op, a, b) => format!("(cmp {} {} {})", op.mnemonic(), expr(a), expr(b)),
        Expr::Select(c, a, b) => format!("(sel {} {} {})", expr(c), expr(a), expr(b)),
        Expr::Cast(ty, a) => format!("(cast {} {})", ty_name(*ty), expr(a)),
        Expr::Load {
            space,
            base,
            index,
            ty,
        } => format!(
            "(ld {} {} {} {})",
            space.suffix(),
            expr(base),
            expr(index),
            ty_name(*ty)
        ),
        Expr::TexFetch { slot, index, ty } => {
            format!("(tex {} {} {})", slot, expr(index), ty_name(*ty))
        }
    }
}

fn ty_name(ty: Ty) -> &'static str {
    ty.suffix()
}

fn builtin_name(b: Builtin) -> &'static str {
    match b {
        Builtin::TidX => "tid-x",
        Builtin::TidY => "tid-y",
        Builtin::TidZ => "tid-z",
        Builtin::NtidX => "ntid-x",
        Builtin::NtidY => "ntid-y",
        Builtin::NtidZ => "ntid-z",
        Builtin::CtaidX => "ctaid-x",
        Builtin::CtaidY => "ctaid-y",
        Builtin::CtaidZ => "ctaid-z",
        Builtin::NctaidX => "nctaid-x",
        Builtin::NctaidY => "nctaid-y",
        Builtin::LaneId => "lane-id",
        Builtin::WarpId => "warp-id",
        Builtin::WarpSize => "warp-size",
    }
}

// ----------------------------------------------------------------------
// Parser
// ----------------------------------------------------------------------

/// A parsed s-expression node.
#[derive(Clone, Debug, PartialEq)]
enum Sexp {
    /// Bare atom (symbol, number, `#hex`).
    Atom(String),
    /// Quoted string.
    Str(String),
    /// Parenthesised list.
    List(Vec<Sexp>),
}

fn tokenize(src: &str) -> Result<Vec<String>, String> {
    let mut toks = Vec::new();
    let mut chars = src.chars().peekable();
    while let Some(&c) = chars.peek() {
        match c {
            ';' => {
                for c in chars.by_ref() {
                    if c == '\n' {
                        break;
                    }
                }
            }
            '(' | ')' => {
                toks.push(c.to_string());
                chars.next();
            }
            '"' => {
                chars.next();
                let mut s = String::from("\"");
                let mut closed = false;
                for c in chars.by_ref() {
                    if c == '"' {
                        closed = true;
                        break;
                    }
                    s.push(c);
                }
                if !closed {
                    return Err("unterminated string".into());
                }
                toks.push(s);
            }
            c if c.is_whitespace() => {
                chars.next();
            }
            _ => {
                let mut s = String::new();
                while let Some(&c) = chars.peek() {
                    if c.is_whitespace() || c == '(' || c == ')' || c == ';' || c == '"' {
                        break;
                    }
                    s.push(c);
                    chars.next();
                }
                toks.push(s);
            }
        }
    }
    Ok(toks)
}

fn parse_sexp(toks: &[String], pos: &mut usize) -> Result<Sexp, String> {
    let t = toks.get(*pos).ok_or("unexpected end of input")?;
    *pos += 1;
    match t.as_str() {
        "(" => {
            let mut items = Vec::new();
            loop {
                match toks.get(*pos).map(String::as_str) {
                    Some(")") => {
                        *pos += 1;
                        return Ok(Sexp::List(items));
                    }
                    Some(_) => items.push(parse_sexp(toks, pos)?),
                    None => return Err("unclosed list".into()),
                }
            }
        }
        ")" => Err("unexpected ')'".into()),
        s if s.starts_with('"') => Ok(Sexp::Str(s[1..].to_string())),
        _ => Ok(Sexp::Atom(t.clone())),
    }
}

impl Sexp {
    fn list(&self) -> Result<&[Sexp], String> {
        match self {
            Sexp::List(items) => Ok(items),
            _ => Err(format!("expected list, got {self:?}")),
        }
    }

    fn atom(&self) -> Result<&str, String> {
        match self {
            Sexp::Atom(s) => Ok(s),
            _ => Err(format!("expected atom, got {self:?}")),
        }
    }

    fn string(&self) -> Result<&str, String> {
        match self {
            Sexp::Str(s) => Ok(s),
            _ => Err(format!("expected string, got {self:?}")),
        }
    }

    /// Head symbol of a list form.
    fn head(&self) -> Result<&str, String> {
        self.list()?.first().ok_or("empty form".to_string())?.atom()
    }

    fn int(&self) -> Result<i64, String> {
        self.atom()?
            .parse::<i64>()
            .map_err(|e| format!("bad integer {:?}: {e}", self))
    }

    fn uint(&self) -> Result<u64, String> {
        self.atom()?
            .parse::<u64>()
            .map_err(|e| format!("bad unsigned {:?}: {e}", self))
    }

    /// f64: `#<hex-bits>` (exact) or plain decimal.
    fn float64(&self) -> Result<f64, String> {
        let s = self.atom()?;
        if let Some(hex) = s.strip_prefix('#') {
            let bits = u64::from_str_radix(hex, 16).map_err(|e| format!("bad f64 bits: {e}"))?;
            Ok(f64::from_bits(bits))
        } else {
            s.parse::<f64>()
                .map_err(|e| format!("bad float {s:?}: {e}"))
        }
    }

    /// f32: `#<hex-bits>` (exact, never widened — an f32→f64→f32 round
    /// trip would quieten signalling NaNs) or plain decimal.
    fn float32(&self) -> Result<f32, String> {
        let s = self.atom()?;
        if let Some(hex) = s.strip_prefix('#') {
            let bits = u32::from_str_radix(hex, 16).map_err(|e| format!("bad f32 bits: {e}"))?;
            Ok(f32::from_bits(bits))
        } else {
            s.parse::<f32>()
                .map_err(|e| format!("bad float {s:?}: {e}"))
        }
    }
}

fn parse_ty(s: &Sexp) -> Result<Ty, String> {
    Ok(match s.atom()? {
        "pred" => Ty::Pred,
        "b8" => Ty::B8,
        "b16" => Ty::B16,
        "b32" => Ty::B32,
        "b64" => Ty::B64,
        "s32" => Ty::S32,
        "s64" => Ty::S64,
        "u32" => Ty::U32,
        "u64" => Ty::U64,
        "f32" => Ty::F32,
        "f64" => Ty::F64,
        other => return Err(format!("unknown type {other:?}")),
    })
}

fn parse_space(s: &Sexp) -> Result<Space, String> {
    Ok(match s.atom()? {
        "global" => Space::Global,
        "shared" => Space::Shared,
        "local" => Space::Local,
        "const" => Space::Const,
        "param" => Space::Param,
        other => return Err(format!("unknown space {other:?}")),
    })
}

fn parse_builtin(s: &Sexp) -> Result<Builtin, String> {
    Ok(match s.atom()? {
        "tid-x" => Builtin::TidX,
        "tid-y" => Builtin::TidY,
        "tid-z" => Builtin::TidZ,
        "ntid-x" => Builtin::NtidX,
        "ntid-y" => Builtin::NtidY,
        "ntid-z" => Builtin::NtidZ,
        "ctaid-x" => Builtin::CtaidX,
        "ctaid-y" => Builtin::CtaidY,
        "ctaid-z" => Builtin::CtaidZ,
        "nctaid-x" => Builtin::NctaidX,
        "nctaid-y" => Builtin::NctaidY,
        "lane-id" => Builtin::LaneId,
        "warp-id" => Builtin::WarpId,
        "warp-size" => Builtin::WarpSize,
        other => return Err(format!("unknown builtin {other:?}")),
    })
}

fn parse_op1(s: &Sexp) -> Result<Op1, String> {
    Ok(match s.atom()? {
        "neg" => Op1::Neg,
        "abs" => Op1::Abs,
        "not" => Op1::Not,
        "sqrt" => Op1::Sqrt,
        "rsqrt" => Op1::Rsqrt,
        "rcp" => Op1::Rcp,
        "sin" => Op1::Sin,
        "cos" => Op1::Cos,
        "ex2" => Op1::Ex2,
        "lg2" => Op1::Lg2,
        other => return Err(format!("unknown unary op {other:?}")),
    })
}

fn parse_op2(s: &Sexp) -> Result<Op2, String> {
    Ok(match s.atom()? {
        "add" => Op2::Add,
        "sub" => Op2::Sub,
        "mul" => Op2::Mul,
        "div" => Op2::Div,
        "rem" => Op2::Rem,
        "min" => Op2::Min,
        "max" => Op2::Max,
        "and" => Op2::And,
        "or" => Op2::Or,
        "xor" => Op2::Xor,
        "shl" => Op2::Shl,
        "shr" => Op2::Shr,
        other => return Err(format!("unknown binary op {other:?}")),
    })
}

fn parse_cmp_op(s: &Sexp) -> Result<CmpOp, String> {
    Ok(match s.atom()? {
        "eq" => CmpOp::Eq,
        "ne" => CmpOp::Ne,
        "lt" => CmpOp::Lt,
        "le" => CmpOp::Le,
        "gt" => CmpOp::Gt,
        "ge" => CmpOp::Ge,
        other => return Err(format!("unknown comparison {other:?}")),
    })
}

fn parse_atom_op(s: &Sexp) -> Result<AtomOp, String> {
    Ok(match s.atom()? {
        "add" => AtomOp::Add,
        "min" => AtomOp::Min,
        "max" => AtomOp::Max,
        "exch" => AtomOp::Exch,
        "cas" => AtomOp::Cas,
        other => return Err(format!("unknown atomic op {other:?}")),
    })
}

/// Parser context: the variable table, so `(var ID)` and `(let ID ...)`
/// resolve to a typed [`Var`].
struct Ctx {
    var_tys: Vec<Ty>,
}

impl Ctx {
    fn var(&self, s: &Sexp) -> Result<Var, String> {
        let id = s.uint()? as u32;
        let ty = *self
            .var_tys
            .get(id as usize)
            .ok_or_else(|| format!("variable {id} not in vars table"))?;
        Ok(Var { id, ty })
    }

    fn expr(&self, s: &Sexp) -> Result<Expr, String> {
        let items = s.list()?;
        let head = s.head()?;
        let need = |n: usize| -> Result<(), String> {
            if items.len() != n + 1 {
                Err(format!(
                    "({head} ...) expects {n} operands, got {}",
                    items.len() - 1
                ))
            } else {
                Ok(())
            }
        };
        Ok(match head {
            "i" => {
                need(1)?;
                Expr::ImmI(items[1].int()?)
            }
            "f" => {
                need(1)?;
                Expr::ImmF(items[1].float64()?)
            }
            "var" => {
                need(1)?;
                Expr::Var(self.var(&items[1])?)
            }
            "param" => {
                need(1)?;
                Expr::Param(items[1].uint()? as u32)
            }
            "sp" => {
                need(1)?;
                Expr::Special(parse_builtin(&items[1])?)
            }
            "un" => {
                need(2)?;
                Expr::Un(parse_op1(&items[1])?, Box::new(self.expr(&items[2])?))
            }
            "bin" => {
                need(3)?;
                Expr::Bin(
                    parse_op2(&items[1])?,
                    Box::new(self.expr(&items[2])?),
                    Box::new(self.expr(&items[3])?),
                )
            }
            "cmp" => {
                need(3)?;
                Expr::Cmp(
                    parse_cmp_op(&items[1])?,
                    Box::new(self.expr(&items[2])?),
                    Box::new(self.expr(&items[3])?),
                )
            }
            "sel" => {
                need(3)?;
                Expr::Select(
                    Box::new(self.expr(&items[1])?),
                    Box::new(self.expr(&items[2])?),
                    Box::new(self.expr(&items[3])?),
                )
            }
            "cast" => {
                need(2)?;
                Expr::Cast(parse_ty(&items[1])?, Box::new(self.expr(&items[2])?))
            }
            "ld" => {
                need(4)?;
                Expr::Load {
                    space: parse_space(&items[1])?,
                    base: Box::new(self.expr(&items[2])?),
                    index: Box::new(self.expr(&items[3])?),
                    ty: parse_ty(&items[4])?,
                }
            }
            "tex" => {
                need(3)?;
                Expr::TexFetch {
                    slot: items[1].uint()? as u8,
                    index: Box::new(self.expr(&items[2])?),
                    ty: parse_ty(&items[3])?,
                }
            }
            other => return Err(format!("unknown expression form {other:?}")),
        })
    }

    fn body(&self, s: &Sexp) -> Result<Vec<Stmt>, String> {
        s.list()?.iter().map(|st| self.stmt(st)).collect()
    }

    fn stmt(&self, s: &Sexp) -> Result<Stmt, String> {
        let items = s.list()?;
        let head = s.head()?;
        let arity = match head {
            "let" | "assign" | "while" => 2,
            "store" => 5,
            "if" => 3,
            "for" => 6,
            "barrier" => 0,
            "atomic" => 7,
            other => return Err(format!("unknown statement form {other:?}")),
        };
        if items.len() != arity + 1 {
            return Err(format!(
                "({head} ...) expects {arity} operands, got {}",
                items.len() - 1
            ));
        }
        Ok(match head {
            "let" => Stmt::Let(self.var(&items[1])?, self.expr(&items[2])?),
            "assign" => Stmt::Assign(self.var(&items[1])?, self.expr(&items[2])?),
            "store" => Stmt::Store {
                space: parse_space(&items[1])?,
                base: self.expr(&items[2])?,
                index: self.expr(&items[3])?,
                ty: parse_ty(&items[4])?,
                value: self.expr(&items[5])?,
            },
            "if" => Stmt::If {
                cond: self.expr(&items[1])?,
                then_: self.body(&items[2])?,
                else_: self.body(&items[3])?,
            },
            "for" => Stmt::For {
                var: self.var(&items[1])?,
                start: self.expr(&items[2])?,
                end: self.expr(&items[3])?,
                step: items[4].int()?,
                unroll: match items[5].atom()? {
                    "none" => Unroll::None,
                    "full" => Unroll::Full,
                    n => Unroll::By(
                        n.parse::<u32>()
                            .map_err(|e| format!("bad unroll factor {n:?}: {e}"))?,
                    ),
                },
                body: self.body(&items[6])?,
            },
            "while" => Stmt::While {
                cond: self.expr(&items[1])?,
                body: self.body(&items[2])?,
            },
            "barrier" => Stmt::Barrier,
            "atomic" => Stmt::AtomicRmw {
                op: parse_atom_op(&items[1])?,
                space: parse_space(&items[2])?,
                base: self.expr(&items[3])?,
                index: self.expr(&items[4])?,
                ty: parse_ty(&items[5])?,
                value: self.expr(&items[6])?,
                old: match items[7].atom()? {
                    "none" => None,
                    _ => Some(self.var(&items[7])?),
                },
            },
            _ => unreachable!("arity table covers every head"),
        })
    }
}

/// Parse `.kdsl` text into a [`FuzzCase`].
pub fn parse_case(src: &str) -> Result<FuzzCase, String> {
    let toks = tokenize(src)?;
    let mut pos = 0;
    let top = parse_sexp(&toks, &mut pos)?;
    if pos != toks.len() {
        return Err("trailing tokens after (case ...)".into());
    }
    let items = top.list()?;
    if top.head()? != "case" {
        return Err("top-level form must be (case ...)".into());
    }

    let mut name = None;
    let mut seed = 0u64;
    let mut grid = None;
    let mut block = None;
    let mut bufs = Vec::new();
    let mut scalars = Vec::new();
    let mut inst_budget = None;
    let mut device_exempt = false;
    let mut kernel = None;

    for form in &items[1..] {
        let f = form.list()?;
        let head = form.head()?;
        if f.len() < 2 && !matches!(head, "device-exempt" | "kernel") {
            return Err(format!("({head} ...) needs an operand"));
        }
        match head {
            "name" => name = Some(f[1].string()?.to_string()),
            "seed" => seed = f[1].uint()?,
            "grid" => grid = Some(f[1].uint()? as u32),
            "block" => block = Some(f[1].uint()? as u32),
            "buf" => {
                if f.len() != 4 {
                    return Err("(buf TY LEN SEED) needs 3 operands".into());
                }
                bufs.push(BufferSpec {
                    ty: parse_ty(&f[1])?,
                    len: f[2].uint()? as u32,
                    init: f[3].uint()?,
                });
            }
            "scalar-i32" => scalars.push(ScalarSpec::I32(f[1].int()? as i32)),
            "scalar-f32" => scalars.push(ScalarSpec::F32(f[1].float32()?)),
            "inst-budget" => inst_budget = Some(f[1].uint()?),
            "device-exempt" => device_exempt = true,
            "kernel" => kernel = Some(parse_kernel(form)?),
            other => return Err(format!("unknown case field {other:?}")),
        }
    }

    let def = kernel.ok_or("missing (kernel ...)")?;
    Ok(FuzzCase {
        name: name.ok_or("missing (name ...)")?,
        seed,
        grid: grid.ok_or("missing (grid ...)")?,
        block: block.ok_or("missing (block ...)")?,
        bufs,
        scalars,
        inst_budget,
        device_exempt,
        def,
    })
}

fn parse_kernel(form: &Sexp) -> Result<KernelDef, String> {
    let items = form.list()?;
    let name = items
        .get(1)
        .ok_or("kernel needs a name")?
        .string()?
        .to_string();
    let mut var_tys = Vec::new();
    let mut shared_bytes = 0u32;
    let mut const_data = Vec::new();
    let mut body_form = None;
    for f in &items[2..] {
        let fl = f.list()?;
        let head = f.head()?;
        if fl.len() < 2 && matches!(head, "shared-bytes" | "const-data") {
            return Err(format!("({head} ...) needs an operand"));
        }
        match head {
            "vars" => {
                for t in &fl[1..] {
                    var_tys.push(parse_ty(t)?);
                }
            }
            "shared-bytes" => shared_bytes = fl[1].uint()? as u32,
            "const-data" => {
                let hex = fl[1].atom()?;
                if hex.len() % 2 != 0 {
                    return Err("const-data hex must have even length".into());
                }
                for i in (0..hex.len()).step_by(2) {
                    const_data.push(
                        u8::from_str_radix(&hex[i..i + 2], 16)
                            .map_err(|e| format!("bad const-data hex: {e}"))?,
                    );
                }
            }
            "body" => body_form = Some(f.clone()),
            other => return Err(format!("unknown kernel field {other:?}")),
        }
    }
    let ctx = Ctx {
        var_tys: var_tys.clone(),
    };
    let body_form = body_form.ok_or("missing (body ...)")?;
    let body = body_form.list()?[1..]
        .iter()
        .map(|st| ctx.stmt(st))
        .collect::<Result<Vec<_>, _>>()?;

    // Params are not serialized: they are fully derived from the buffer and
    // scalar lists, which the caller re-derives. Leave a placeholder here;
    // `parse_case` patches it below via `derive_params`.
    Ok(KernelDef {
        name,
        params: Vec::new(),
        var_tys,
        shared_bytes,
        const_data,
        body,
    })
}

/// Recompute the parameter list of a parsed case from its buffer/scalar
/// specs (pointers first, then scalars, matching the generator's layout).
pub fn derive_params(case: &mut FuzzCase) {
    let mut params: Vec<(String, Ty)> = case
        .bufs
        .iter()
        .enumerate()
        .map(|(i, _)| (format!("buf{i}"), Ty::U64))
        .collect();
    for (i, s) in case.scalars.iter().enumerate() {
        let ty = match s {
            ScalarSpec::I32(_) => Ty::S32,
            ScalarSpec::F32(_) => Ty::F32,
        };
        params.push((format!("scl{i}"), ty));
    }
    case.def.params = params;
}

/// Parse and finalize: `parse_case` + `derive_params`.
pub fn load_case(src: &str) -> Result<FuzzCase, String> {
    let mut case = parse_case(src)?;
    derive_params(&mut case);
    Ok(case)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::generate;
    use crate::rng::case_seed;

    #[test]
    fn round_trip_generated_cases() {
        for i in 0..25 {
            let case = generate(case_seed(77, i));
            let text = write_case(&case);
            let back = load_case(&text).unwrap_or_else(|e| panic!("case {i}: {e}\n{text}"));
            assert_eq!(case, back, "round-trip mismatch for case {i}");
        }
    }

    #[test]
    fn floats_round_trip_bit_exactly() {
        let mut case = generate(case_seed(3, 0));
        case.scalars = vec![ScalarSpec::F32(f32::from_bits(0x7f80_0001))]; // sNaN
        case.def.body.insert(
            0,
            Stmt::Let(
                Var {
                    id: case.def.var_tys.len() as u32,
                    ty: Ty::F32,
                },
                Expr::ImmF(f64::from_bits(0x7ff0_dead_beef_0001)),
            ),
        );
        case.def.var_tys.push(Ty::F32);
        derive_params(&mut case);
        let text = write_case(&case);
        let back = load_case(&text).unwrap();
        // Struct equality would reject NaN == NaN, so compare the bit
        // patterns directly and then the re-serialized text (which is
        // bit-exact by construction).
        match (&case.scalars[0], &back.scalars[0]) {
            (ScalarSpec::F32(a), ScalarSpec::F32(b)) => assert_eq!(a.to_bits(), b.to_bits()),
            other => panic!("scalar shape changed: {other:?}"),
        }
        match (&case.def.body[0], &back.def.body[0]) {
            (Stmt::Let(_, Expr::ImmF(a)), Stmt::Let(_, Expr::ImmF(b))) => {
                assert_eq!(a.to_bits(), b.to_bits())
            }
            other => panic!("stmt shape changed: {other:?}"),
        }
        assert_eq!(write_case(&back), text);
    }

    #[test]
    fn comments_and_decimal_floats_parse() {
        let src = r#"
; a hand-written case
(case
  (name "mini") (seed 0) (grid 1) (block 4)
  (buf f32 8 1)
  (scalar-f32 1.5)
  (kernel "mini"
    (vars s32)
    (shared-bytes 0)
    (body
      (let 0 (sp tid-x))
      (store global (param 0) (var 0) f32 (f 2.5)))))
"#;
        let case = load_case(src).unwrap();
        assert_eq!(case.block, 4);
        assert_eq!(case.scalars, vec![ScalarSpec::F32(1.5)]);
        assert_eq!(case.def.body.len(), 2);
        assert_eq!(case.def.params.len(), 2);
    }

    #[test]
    fn parse_errors_are_reported() {
        assert!(load_case("(case (name \"x\"))").is_err());
        assert!(load_case("(case (bogus 1))").is_err());
        assert!(load_case("(case").is_err());
    }
}
