//! Flat bytecode programs for rate expressions.
//!
//! [`crate::expr::CompiledExpr`] is a pointer tree: every evaluation chases
//! one `Box` per node, which costs a cache miss and a branch mispredict per
//! operator — ~60 ns for a typical epidemic rate versus a handful of ns for
//! the equivalent native closure. This module lowers the tree once, at
//! compile time, to a [`RateProgram`]:
//!
//! * a **constant** when the expression references neither species nor
//!   parameters (rates of spontaneous transitions);
//! * a **mass-action fast path** for the dominant shapes of population
//!   models — left-associated products `c · x_i`, `c · ϑ_p · x_i`,
//!   `c · x_i · x_j`, `c · ϑ_p · x_i · x_j` (each factor optional except the
//!   species) — evaluated with straight-line multiplications and no
//!   dispatch at all;
//! * an **affine-product fast path** for the canonical epidemic infection
//!   shape `(a + c·ϑ?·x_i)·x_j`, likewise straight-line;
//! * a **register-based bytecode program** otherwise: a linear [`Op`] array
//!   over a tiered scratch register file (masked indexing, so the compiler
//!   drops the bounds checks), walked by a single interpreter loop with no
//!   pointer chasing. Powers by a small integer constant are
//!   strength-reduced (`x^2 → x·x`) and leaf loads are peephole-fused into
//!   the consuming arithmetic instruction ([`Op::BinLeaf`],
//!   [`Op::BinLeafLeaf`]) during lowering.
//!
//! Lowering preserves the *exact* floating-point evaluation order of the
//! tree (post-order, left to right), so a program returns bit-identical
//! values to [`CompiledExpr::eval`] for every expression free of the `^`
//! strength reduction; the mass-action detector only accepts left-leaning
//! product spines for the same reason. This matters because the
//! hand-written models in `mfu-models` and their DSL twins are
//! cross-validated by *bit-equality* of simulated trajectories.
//!
//! Programs also report their [`RateProgram::species_support`] — the state
//! coordinates they read — which implements
//! [`mfu_ctmc::transition::CompiledRate`] and feeds the dependency-graph
//! Gillespie hot path in `mfu-sim`. [`ProgramSet`] bundles the programs of
//! all rules of a model and evaluates them in one VM pass over a shared
//! scratch register file, which is how the DSL drift backend computes
//! `f(x, ϑ)` without touching the allocator.
//!
//! # Batched (structure-of-arrays) evaluation
//!
//! [`RateProgram::eval_batch_into`] and [`ProgramSet::eval_batch_into`]
//! evaluate a whole [`SoaBatch`] of states — `width` lanes laid out
//! coordinate-major, with one shared `theta` or per-lane thetas
//! ([`BatchTheta`]) — advancing *all lanes through each instruction before
//! moving to the next*. The register file becomes a `width`-strided slab
//! (register `r` of lane `l` lives at `r·width + l`), one per thread, kept
//! between calls and never cleared, since no program reads a register
//! before writing it (debug builds fill it with NaN first, so a program
//! that did would fail the bit-identity suites); the constant, mass-action
//! and affine-product fast paths get row-at-a-time variants;
//! `Op::Cmp`/`Op::Select` stay branch-free per lane. Each instruction is
//! one lane loop over chunks of 8 lanes: the operands are copied into
//! local arrays, computed and stored, which the compiler turns into vector
//! instructions, and the lanes past the last full chunk — every lane of a
//! batch narrower than 8 — run one by one.
//! The operator, the constant or row source of a fused leaf operand and a
//! `PowInt` exponent are resolved before the loop, so each combination is
//! a loop of its own. Because every lane executes exactly the scalar
//! instruction sequence on its own data — same operations, same order,
//! lanes merely advance together — a batched lane is **bit-identical** to
//! a scalar [`RateProgram::eval`] on that lane's `(x, ϑ)`, NaN payloads
//! included. The property suite in `tests/vm_equivalence.rs` pins this
//! across random expressions × widths; the hull, Pontryagin and
//! lockstep-ensemble call sites rely on it to batch freely without
//! perturbing results.

use std::cell::Cell;

use mfu_ctmc::transition::CompiledRate;
use mfu_num::batch::{BatchTheta, SoaBatch};
use mfu_num::StateVec;

use crate::ast::CmpOp;
use crate::expr::{fold_constants, Builtin, CompiledExpr};

/// Registers kept on the stack by the allocation-free evaluation entry
/// points; programs needing more (expression depth > 32) fall back to a
/// heap-allocated register file.
pub const STACK_REGISTERS: usize = 32;

/// First register-file tier: rate expressions of population models rarely
/// exceed depth 8, and an 8-register file costs one cache line to zero.
const SMALL_REGISTERS: usize = 8;

use crate::expr::{unrolled_pow, unrolls};

/// One register instruction: sources `a`/`b` and destination `dst` index a
/// scratch register file; `idx` indexes the constant pool, the state or the
/// parameter vector.
#[derive(Debug, Clone, Copy, PartialEq)]
#[allow(missing_docs)] // field roles are uniform and documented per variant
pub enum Op {
    /// `r[dst] = consts[idx]`
    Const { dst: u16, idx: u16 },
    /// `r[dst] = x[idx]`
    Species { dst: u16, idx: u16 },
    /// `r[dst] = ϑ[idx]`
    Param { dst: u16, idx: u16 },
    /// `r[dst] = -r[a]`
    Neg { dst: u16, a: u16 },
    /// `r[dst] = r[a] + r[b]`
    Add { dst: u16, a: u16, b: u16 },
    /// `r[dst] = r[a] - r[b]`
    Sub { dst: u16, a: u16, b: u16 },
    /// `r[dst] = r[a] * r[b]`
    Mul { dst: u16, a: u16, b: u16 },
    /// `r[dst] = r[a] / r[b]`
    Div { dst: u16, a: u16, b: u16 },
    /// `r[dst] = r[a].powf(r[b])`
    Pow { dst: u16, a: u16, b: u16 },
    /// `r[dst] = r[a]^n` by repeated multiplication (`2 ≤ n ≤ 4`).
    PowInt { dst: u16, a: u16, n: u16 },
    /// `r[dst] = r[a].min(r[b])`
    Min { dst: u16, a: u16, b: u16 },
    /// `r[dst] = r[a].max(r[b])`
    Max { dst: u16, a: u16, b: u16 },
    /// `r[dst] = r[a].abs()`
    Abs { dst: u16, a: u16 },
    /// `r[dst] = r[a].exp()`
    Exp { dst: u16, a: u16 },
    /// `r[dst] = r[a].ln()`
    Log { dst: u16, a: u16 },
    /// `r[dst] = r[a].sqrt()`
    Sqrt { dst: u16, a: u16 },
    /// `r[dst] = r[a] ⊕ leaf[idx]` — a binary op whose right operand loads
    /// straight from the constant pool, the state or the parameters
    /// (peephole fusion of a leaf load and the following arithmetic op).
    BinLeaf {
        op: ArithOp,
        leaf: LeafSource,
        dst: u16,
        a: u16,
        idx: u16,
    },
    /// `r[dst] = leaf_a[a_idx] ⊕ leaf_b[b_idx]` — both operands load from
    /// leaves (second fusion round).
    BinLeafLeaf {
        op: ArithOp,
        leaf_a: LeafSource,
        a_idx: u16,
        leaf_b: LeafSource,
        b_idx: u16,
        dst: u16,
    },
    /// `r[dst] = if cmp(r[a], r[b]) { 1.0 } else { 0.0 }` — comparison to an
    /// indicator value.
    Cmp { op: CmpOp, dst: u16, a: u16, b: u16 },
    /// `r[dst] = if r[cond] != 0.0 { r[a] } else { r[b] }` — guarded
    /// selection. Both operand registers are already computed when this
    /// executes (the lowering emits condition, then-branch and else-branch
    /// as straight-line code), so the instruction is a *branch-free* select
    /// (a conditional move, not a jump): the interpreter loop stays linear
    /// and the PR 2 dispatch characteristics are preserved even for guarded
    /// rates.
    Select { dst: u16, cond: u16, a: u16, b: u16 },
}

/// Arithmetic operator of the fused [`Op::BinLeaf`]/[`Op::BinLeafLeaf`]
/// instructions.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ArithOp {
    /// Addition.
    Add,
    /// Subtraction.
    Sub,
    /// Multiplication.
    Mul,
    /// Division.
    Div,
}

impl ArithOp {
    #[inline(always)]
    fn apply(self, a: f64, b: f64) -> f64 {
        match self {
            ArithOp::Add => a + b,
            ArithOp::Sub => a - b,
            ArithOp::Mul => a * b,
            ArithOp::Div => a / b,
        }
    }
}

/// Where a fused leaf operand loads from.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum LeafSource {
    /// The program's constant pool.
    Const,
    /// The state vector.
    Species,
    /// The parameter vector.
    Param,
}

/// A lowered general-form program: linear opcode array + constant pool.
#[derive(Debug, Clone, PartialEq)]
pub struct ByteProgram {
    ops: Vec<Op>,
    consts: Vec<f64>,
    registers: usize,
}

impl ByteProgram {
    /// The instructions, in execution order; the result is the destination
    /// register of the last instruction (always register 0).
    pub fn ops(&self) -> &[Op] {
        &self.ops
    }

    /// Size of the register file this program needs.
    pub fn registers(&self) -> usize {
        self.registers
    }

    /// Runs the program over a caller-provided register file.
    ///
    /// # Panics
    ///
    /// Panics if `regs` is shorter than [`ByteProgram::registers`].
    #[inline]
    pub fn eval_with(&self, x: &StateVec, theta: &[f64], regs: &mut [f64]) -> f64 {
        debug_assert!(regs.len() >= self.registers);
        self.run::<{ usize::MAX }>(x, theta, regs)
    }

    /// The interpreter loop. When `MASK` is `2^k − 1` and every register
    /// index fits in `k` bits (guaranteed by the tiered callers), the
    /// `& MASK` proves each access in-bounds for a `2^k`-sized file and the
    /// compiler drops all register bounds checks; `MASK = usize::MAX` is the
    /// identity for arbitrary slices (checked accesses).
    #[inline]
    fn run<const MASK: usize>(&self, x: &StateVec, theta: &[f64], regs: &mut [f64]) -> f64 {
        for op in &self.ops {
            match *op {
                Op::Const { dst, idx } => regs[dst as usize & MASK] = self.consts[idx as usize],
                Op::Species { dst, idx } => regs[dst as usize & MASK] = x[idx as usize],
                Op::Param { dst, idx } => regs[dst as usize & MASK] = theta[idx as usize],
                Op::Neg { dst, a } => regs[dst as usize & MASK] = -regs[a as usize & MASK],
                Op::Add { dst, a, b } => {
                    regs[dst as usize & MASK] = regs[a as usize & MASK] + regs[b as usize & MASK]
                }
                Op::Sub { dst, a, b } => {
                    regs[dst as usize & MASK] = regs[a as usize & MASK] - regs[b as usize & MASK]
                }
                Op::Mul { dst, a, b } => {
                    regs[dst as usize & MASK] = regs[a as usize & MASK] * regs[b as usize & MASK]
                }
                Op::Div { dst, a, b } => {
                    regs[dst as usize & MASK] = regs[a as usize & MASK] / regs[b as usize & MASK]
                }
                Op::Pow { dst, a, b } => {
                    regs[dst as usize & MASK] =
                        regs[a as usize & MASK].powf(regs[b as usize & MASK])
                }
                Op::PowInt { dst, a, n } => {
                    regs[dst as usize & MASK] = unrolled_pow(regs[a as usize & MASK], n);
                }
                Op::Min { dst, a, b } => {
                    regs[dst as usize & MASK] = regs[a as usize & MASK].min(regs[b as usize & MASK])
                }
                Op::Max { dst, a, b } => {
                    regs[dst as usize & MASK] = regs[a as usize & MASK].max(regs[b as usize & MASK])
                }
                Op::Abs { dst, a } => regs[dst as usize & MASK] = regs[a as usize & MASK].abs(),
                Op::Exp { dst, a } => regs[dst as usize & MASK] = regs[a as usize & MASK].exp(),
                Op::Log { dst, a } => regs[dst as usize & MASK] = regs[a as usize & MASK].ln(),
                Op::Sqrt { dst, a } => regs[dst as usize & MASK] = regs[a as usize & MASK].sqrt(),
                Op::BinLeaf {
                    op,
                    leaf,
                    dst,
                    a,
                    idx,
                } => {
                    let b = self.load(leaf, idx, x, theta);
                    regs[dst as usize & MASK] = op.apply(regs[a as usize & MASK], b);
                }
                Op::BinLeafLeaf {
                    op,
                    leaf_a,
                    a_idx,
                    leaf_b,
                    b_idx,
                    dst,
                } => {
                    let a = self.load(leaf_a, a_idx, x, theta);
                    let b = self.load(leaf_b, b_idx, x, theta);
                    regs[dst as usize & MASK] = op.apply(a, b);
                }
                Op::Cmp { op, dst, a, b } => {
                    regs[dst as usize & MASK] =
                        f64::from(op.holds(regs[a as usize & MASK], regs[b as usize & MASK]))
                }
                Op::Select { dst, cond, a, b } => {
                    // both values are loaded unconditionally so the branch
                    // lowers to a conditional move, not a jump
                    let take = regs[cond as usize & MASK] != 0.0;
                    let va = regs[a as usize & MASK];
                    let vb = regs[b as usize & MASK];
                    regs[dst as usize & MASK] = if take { va } else { vb };
                }
            }
        }
        regs[0]
    }

    #[inline(always)]
    fn load(&self, leaf: LeafSource, idx: u16, x: &StateVec, theta: &[f64]) -> f64 {
        match leaf {
            LeafSource::Const => self.consts[idx as usize],
            LeafSource::Species => x[idx as usize],
            LeafSource::Param => theta[idx as usize],
        }
    }

    /// The batched interpreter loop: one pass over the instruction array,
    /// advancing all `width` lanes per instruction. `regs` is a
    /// `width`-strided slab (register `r` of lane `l` at `r·width + l`) of
    /// at least `registers · width` slots; the register-0 row lands in
    /// `out`. Per lane this executes exactly the instruction sequence of
    /// [`ByteProgram::run`] on that lane's values, so each lane's result is
    /// bit-identical to a scalar evaluation.
    ///
    /// Every arithmetic instruction runs the chunked lane loop of
    /// [`lanes3`], with its operator and its operand sources resolved here,
    /// outside the loop, so each combination is a loop of its own.
    fn run_batch(&self, x: &SoaBatch, theta: &BatchTheta<'_>, regs: &mut [f64], out: &mut [f64]) {
        let w = x.width();
        debug_assert!(regs.len() >= self.registers * w);
        let reg = |r: u16| Reg(r as usize * w);
        for op in &self.ops {
            match *op {
                Op::Const { dst, idx } => {
                    regs[dst as usize * w..][..w].fill(self.consts[idx as usize]);
                }
                Op::Species { dst, idx } => {
                    regs[dst as usize * w..][..w].copy_from_slice(x.row(idx as usize));
                }
                Op::Param { dst, idx } => match theta {
                    BatchTheta::Shared(t) => regs[dst as usize * w..][..w].fill(t[idx as usize]),
                    BatchTheta::PerLane(b) => {
                        regs[dst as usize * w..][..w].copy_from_slice(b.row(idx as usize));
                    }
                },
                Op::Neg { dst, a } => lanes1(regs, w, reg(dst), reg(a), |v| -v),
                Op::Add { dst, a, b } => arith(regs, w, reg(dst), reg(a), reg(b), ArithOp::Add),
                Op::Sub { dst, a, b } => arith(regs, w, reg(dst), reg(a), reg(b), ArithOp::Sub),
                Op::Mul { dst, a, b } => arith(regs, w, reg(dst), reg(a), reg(b), ArithOp::Mul),
                Op::Div { dst, a, b } => arith(regs, w, reg(dst), reg(a), reg(b), ArithOp::Div),
                Op::Pow { dst, a, b } => lanes2(regs, w, reg(dst), reg(a), reg(b), f64::powf),
                Op::PowInt { dst, a, n } => {
                    // a constant exponent per arm unrolls `unrolled_pow`'s
                    // left-to-right product
                    let (dst, a) = (reg(dst), reg(a));
                    match n {
                        2 => lanes1(regs, w, dst, a, |v| unrolled_pow(v, 2)),
                        3 => lanes1(regs, w, dst, a, |v| unrolled_pow(v, 3)),
                        4 => lanes1(regs, w, dst, a, |v| unrolled_pow(v, 4)),
                        _ => lanes1(regs, w, dst, a, |v| unrolled_pow(v, n)),
                    }
                }
                Op::Min { dst, a, b } => lanes2(regs, w, reg(dst), reg(a), reg(b), f64::min),
                Op::Max { dst, a, b } => lanes2(regs, w, reg(dst), reg(a), reg(b), f64::max),
                Op::Abs { dst, a } => lanes1(regs, w, reg(dst), reg(a), f64::abs),
                Op::Exp { dst, a } => lanes1(regs, w, reg(dst), reg(a), f64::exp),
                Op::Log { dst, a } => lanes1(regs, w, reg(dst), reg(a), f64::ln),
                Op::Sqrt { dst, a } => lanes1(regs, w, reg(dst), reg(a), f64::sqrt),
                Op::BinLeaf {
                    op,
                    leaf,
                    dst,
                    a,
                    idx,
                } => {
                    let (dst, a) = (reg(dst), reg(a));
                    match self.leaf_row(leaf, idx, x, theta) {
                        LaneSrc::Splat(b) => arith(regs, w, dst, a, Splat(b), op),
                        LaneSrc::Row(b) => arith(regs, w, dst, a, Row(b), op),
                    }
                }
                Op::BinLeafLeaf {
                    op,
                    leaf_a,
                    a_idx,
                    leaf_b,
                    b_idx,
                    dst,
                } => {
                    let dst = reg(dst);
                    let a = self.leaf_row(leaf_a, a_idx, x, theta);
                    let b = self.leaf_row(leaf_b, b_idx, x, theta);
                    match (a, b) {
                        (LaneSrc::Splat(a), LaneSrc::Splat(b)) => {
                            arith(regs, w, dst, Splat(a), Splat(b), op);
                        }
                        (LaneSrc::Splat(a), LaneSrc::Row(b)) => {
                            arith(regs, w, dst, Splat(a), Row(b), op);
                        }
                        (LaneSrc::Row(a), LaneSrc::Splat(b)) => {
                            arith(regs, w, dst, Row(a), Splat(b), op);
                        }
                        (LaneSrc::Row(a), LaneSrc::Row(b)) => {
                            arith(regs, w, dst, Row(a), Row(b), op)
                        }
                    }
                }
                Op::Cmp { op, dst, a, b } => {
                    let (dst, a, b) = (reg(dst), reg(a), reg(b));
                    let holds = |op: CmpOp| move |x, y| f64::from(op.holds(x, y));
                    match op {
                        CmpOp::Lt => lanes2(regs, w, dst, a, b, holds(CmpOp::Lt)),
                        CmpOp::Le => lanes2(regs, w, dst, a, b, holds(CmpOp::Le)),
                        CmpOp::Gt => lanes2(regs, w, dst, a, b, holds(CmpOp::Gt)),
                        CmpOp::Ge => lanes2(regs, w, dst, a, b, holds(CmpOp::Ge)),
                        CmpOp::Eq => lanes2(regs, w, dst, a, b, holds(CmpOp::Eq)),
                        CmpOp::Ne => lanes2(regs, w, dst, a, b, holds(CmpOp::Ne)),
                    }
                }
                Op::Select { dst, cond, a, b } => {
                    // branch-free per lane, exactly like the scalar arm: both
                    // values load unconditionally, the pick is a conditional
                    // move carrying the chosen bit pattern through untouched
                    let pick = |c: f64, va: f64, vb: f64| if c != 0.0 { va } else { vb };
                    lanes3(regs, w, reg(dst), reg(cond), reg(a), reg(b), pick);
                }
            }
        }
        out.copy_from_slice(&regs[..w]);
    }

    /// Resolves a fused leaf operand to its lane view: a broadcast scalar
    /// (constant or shared parameter) or a contiguous per-lane row.
    #[inline(always)]
    fn leaf_row<'a>(
        &'a self,
        leaf: LeafSource,
        idx: u16,
        x: &'a SoaBatch,
        theta: &BatchTheta<'a>,
    ) -> LaneSrc<'a> {
        match leaf {
            LeafSource::Const => LaneSrc::Splat(self.consts[idx as usize]),
            LeafSource::Species => LaneSrc::Row(x.row(idx as usize)),
            LeafSource::Param => match theta {
                BatchTheta::Shared(t) => LaneSrc::Splat(t[idx as usize]),
                BatchTheta::PerLane(b) => LaneSrc::Row(b.row(idx as usize)),
            },
        }
    }

    /// Evaluation over a freshly zeroed register file of the right tier:
    /// most programs fit 8 registers (one cache line to clear, no bounds
    /// checks thanks to the masked interpreter), deep ones 32, and
    /// pathological ones fall back to a heap file.
    #[inline]
    fn eval_tiered(&self, x: &StateVec, theta: &[f64]) -> f64 {
        if self.registers <= SMALL_REGISTERS {
            let mut regs = [0.0_f64; SMALL_REGISTERS];
            self.run::<{ SMALL_REGISTERS - 1 }>(x, theta, &mut regs)
        } else if self.registers <= STACK_REGISTERS {
            let mut regs = [0.0_f64; STACK_REGISTERS];
            self.run::<{ STACK_REGISTERS - 1 }>(x, theta, &mut regs)
        } else {
            let mut regs = vec![0.0_f64; self.registers];
            self.run::<{ usize::MAX }>(x, theta, &mut regs)
        }
    }
}

/// A fused-leaf operand as the batched interpreter resolves it: one scalar
/// broadcast to every lane (constants, shared parameters) or a contiguous
/// per-lane row (species, per-lane parameters).
enum LaneSrc<'a> {
    Splat(f64),
    Row(&'a [f64]),
}

/// Lanes per chunk of the batched kernels. A chunk of local arrays is what
/// the compiler turns into vector instructions; 8 lanes fill two 256-bit or
/// four 128-bit registers.
const LANES: usize = 8;

/// A lane-wise operand of [`lanes3`].
trait Lanes: Copy {
    /// Lanes `l..l + LANES`, copied out before the chunk is stored.
    fn chunk(self, regs: &[f64], l: usize) -> [f64; LANES];
    /// Lane `l`.
    fn lane(self, regs: &[f64], l: usize) -> f64;
}

/// A register row of the slab, by its offset `register · width`.
#[derive(Clone, Copy)]
struct Reg(usize);

/// One value broadcast to every lane.
#[derive(Clone, Copy)]
struct Splat(f64);

/// A per-lane row outside the slab (a species or per-lane parameter row).
#[derive(Clone, Copy)]
struct Row<'a>(&'a [f64]);

impl Lanes for Reg {
    #[inline(always)]
    fn chunk(self, regs: &[f64], l: usize) -> [f64; LANES] {
        regs[self.0 + l..][..LANES]
            .try_into()
            .expect("a slice of LANES lanes")
    }

    #[inline(always)]
    fn lane(self, regs: &[f64], l: usize) -> f64 {
        regs[self.0 + l]
    }
}

impl Lanes for Splat {
    #[inline(always)]
    fn chunk(self, _: &[f64], _: usize) -> [f64; LANES] {
        [self.0; LANES]
    }

    #[inline(always)]
    fn lane(self, _: &[f64], _: usize) -> f64 {
        self.0
    }
}

impl Lanes for Row<'_> {
    #[inline(always)]
    fn chunk(self, _: &[f64], l: usize) -> [f64; LANES] {
        self.0[l..][..LANES]
            .try_into()
            .expect("a slice of LANES lanes")
    }

    #[inline(always)]
    fn lane(self, _: &[f64], l: usize) -> f64 {
        self.0[l]
    }
}

/// `r[dst][l] = f(a[l], b[l], c[l])` for every lane `l` of a
/// `width`-strided slab: the one lane loop of the batched interpreter.
/// Full chunks of [`LANES`] lanes are copied into local arrays, computed
/// and stored, so the compiler vectorises them and an operand row that
/// aliases `dst` (the lowering reuses the destination register as its left
/// operand) is read before it is overwritten; the remaining lanes, all of
/// them in a batch narrower than one chunk, run one by one.
#[inline(always)]
fn lanes3<A: Lanes, B: Lanes, C: Lanes>(
    regs: &mut [f64],
    w: usize,
    dst: Reg,
    a: A,
    b: B,
    c: C,
    f: impl Fn(f64, f64, f64) -> f64,
) {
    let full = w - w % LANES;
    for l in (0..full).step_by(LANES) {
        let (va, vb, vc) = (a.chunk(regs, l), b.chunk(regs, l), c.chunk(regs, l));
        let chunk: [f64; LANES] = std::array::from_fn(|k| f(va[k], vb[k], vc[k]));
        regs[dst.0 + l..][..LANES].copy_from_slice(&chunk);
    }
    for l in full..w {
        regs[dst.0 + l] = f(a.lane(regs, l), b.lane(regs, l), c.lane(regs, l));
    }
}

/// [`lanes3`] for a binary operation.
#[inline(always)]
fn lanes2(
    regs: &mut [f64],
    w: usize,
    dst: Reg,
    a: impl Lanes,
    b: impl Lanes,
    f: impl Fn(f64, f64) -> f64,
) {
    lanes3(regs, w, dst, a, b, Splat(0.0), |x, y, _| f(x, y));
}

/// [`lanes3`] for a unary operation.
#[inline(always)]
fn lanes1(regs: &mut [f64], w: usize, dst: Reg, a: impl Lanes, f: impl Fn(f64) -> f64) {
    lanes3(regs, w, dst, a, Splat(0.0), Splat(0.0), |x, _, _| f(x));
}

/// `r[dst] = a ⊕ b` lane by lane, one loop per operator.
#[inline(always)]
fn arith(regs: &mut [f64], w: usize, dst: Reg, a: impl Lanes, b: impl Lanes, op: ArithOp) {
    match op {
        ArithOp::Add => lanes2(regs, w, dst, a, b, |x, y| x + y),
        ArithOp::Sub => lanes2(regs, w, dst, a, b, |x, y| x - y),
        ArithOp::Mul => lanes2(regs, w, dst, a, b, |x, y| x * y),
        ArithOp::Div => lanes2(regs, w, dst, a, b, |x, y| x / y),
    }
}

thread_local! {
    /// This thread's register slab of the batched entry points
    /// ([`RateProgram::eval_batch_into`], [`ProgramSet::eval_batch_into`]),
    /// kept between calls and only ever grown. A nested call would find it
    /// taken and start an empty one.
    static BATCH_SLAB: Cell<Vec<f64>> = const { Cell::new(Vec::new()) };
}

/// Runs `run` over `need` slots of this thread's register slab. The slots
/// are never cleared: every program writes a register before reading it.
/// Debug builds fill them with NaN first, so a program that read a stale
/// register would fail the bit-identity suites there.
fn with_batch_slab(need: usize, run: impl FnOnce(&mut [f64])) {
    let mut slab = BATCH_SLAB.take();
    if slab.len() < need {
        slab.resize(need, 0.0);
    }
    let regs = &mut slab[..need];
    if cfg!(debug_assertions) {
        regs.fill(f64::NAN);
    }
    run(regs);
    BATCH_SLAB.set(slab);
}

/// The shape a rate expression lowered to.
#[derive(Debug, Clone, PartialEq)]
pub enum ProgramKind {
    /// The rate is constant in both state and parameters.
    Const(f64),
    /// `coeff · ϑ_param? · x_{species[0]} · x_{species[1]}?` — the
    /// mass-action fast path. Factors multiply left to right exactly as in
    /// the source product spine; the species factors live inline (no heap
    /// indirection on the hot path).
    MassAction {
        /// Leading constant factor (`1.0` when the spine has none).
        coeff: f64,
        /// Optional parameter factor.
        param: Option<u16>,
        /// Up to two species factors, in source order (`species[..len]`).
        species: [u16; 2],
        /// Number of species factors (0, 1 or 2).
        len: u8,
    },
    /// `(base + coeff · ϑ_param? · x_inner) · x_outer` — the canonical
    /// epidemic infection shape (`(a + ϑ·I)·S`), evaluated straight-line in
    /// the tree's exact operation order.
    AffineProduct {
        /// Additive constant of the inner affine term.
        base: f64,
        /// Multiplicative constant of the inner product (`1.0` when the
        /// spine has none).
        coeff: f64,
        /// Optional parameter factor of the inner product.
        param: Option<u16>,
        /// Species factor of the inner product.
        inner: u16,
        /// Species factor multiplying the affine term.
        outer: u16,
    },
    /// General flat bytecode.
    Bytecode(ByteProgram),
}

/// A rate expression lowered to directly executable form.
///
/// Build one with [`RateProgram::compile`]; evaluate with
/// [`RateProgram::eval`] (stack registers) or [`RateProgram::eval_with`]
/// (caller-shared registers). Implements
/// [`CompiledRate`], so it plugs straight into
/// [`TransitionClass::compiled`](mfu_ctmc::transition::TransitionClass::compiled).
#[derive(Debug, Clone, PartialEq)]
pub struct RateProgram {
    kind: ProgramKind,
    /// Sorted, deduplicated state coordinates the program reads.
    support: Vec<usize>,
}

impl RateProgram {
    /// Lowers a compiled expression tree to a flat program.
    pub fn compile(expr: &CompiledExpr) -> RateProgram {
        let expr = fold_constants(expr);
        let mut support: Vec<usize> = Vec::new();
        collect_support(&expr, &mut support);
        support.sort_unstable();
        support.dedup();

        if let CompiledExpr::Const(v) = expr {
            return RateProgram {
                kind: ProgramKind::Const(v),
                support,
            };
        }
        if let Some(kind) = detect_mass_action(&expr) {
            return RateProgram { kind, support };
        }
        if let Some(kind) = detect_affine_product(&expr) {
            return RateProgram { kind, support };
        }

        let mut lowering = Lowering {
            ops: Vec::new(),
            consts: Vec::new(),
            max_register: 0,
        };
        lowering.emit(&expr, 0);
        RateProgram {
            kind: ProgramKind::Bytecode(ByteProgram {
                ops: fuse_leaf_operands(lowering.ops),
                consts: lowering.consts,
                registers: lowering.max_register as usize + 1,
            }),
            support,
        }
    }

    /// The lowered shape (for introspection, tests and benches).
    pub fn kind(&self) -> &ProgramKind {
        &self.kind
    }

    /// `true` when the program avoids the interpreter loop entirely
    /// (constant or mass-action shape).
    pub fn is_fast_path(&self) -> bool {
        !matches!(self.kind, ProgramKind::Bytecode(_))
    }

    /// Scratch registers needed by [`RateProgram::eval_with`] (0 for fast
    /// paths).
    pub fn registers(&self) -> usize {
        match &self.kind {
            ProgramKind::Bytecode(p) => p.registers,
            _ => 0,
        }
    }

    /// Sorted state coordinates the program reads.
    pub fn species_support(&self) -> &[usize] {
        &self.support
    }

    /// Evaluates the program with stack-allocated registers (fast-path
    /// shapes never touch the register file at all).
    #[inline]
    pub fn eval(&self, x: &StateVec, theta: &[f64]) -> f64 {
        match &self.kind {
            ProgramKind::Const(v) => *v,
            ProgramKind::MassAction {
                coeff,
                param,
                species,
                len,
            } => mass_action(x, theta, *coeff, *param, species, *len),
            ProgramKind::AffineProduct {
                base,
                coeff,
                param,
                inner,
                outer,
            } => affine_product(x, theta, *base, *coeff, *param, *inner, *outer),
            ProgramKind::Bytecode(p) => p.eval_tiered(x, theta),
        }
    }

    /// Evaluates the program over a caller-provided register file (shared
    /// across the programs of a model by [`ProgramSet`]).
    ///
    /// # Panics
    ///
    /// Panics if `regs` is shorter than [`RateProgram::registers`].
    #[inline]
    pub fn eval_with(&self, x: &StateVec, theta: &[f64], regs: &mut [f64]) -> f64 {
        match &self.kind {
            ProgramKind::Const(v) => *v,
            ProgramKind::MassAction {
                coeff,
                param,
                species,
                len,
            } => mass_action(x, theta, *coeff, *param, species, *len),
            ProgramKind::AffineProduct {
                base,
                coeff,
                param,
                inner,
                outer,
            } => affine_product(x, theta, *base, *coeff, *param, *inner, *outer),
            ProgramKind::Bytecode(p) => p.eval_with(x, theta, regs),
        }
    }

    /// Evaluates the program over a [`SoaBatch`] of `width` states in one
    /// instruction pass, writing one rate per lane into `out`. Lane `l` is
    /// bit-identical to `self.eval(&x.lane_state(l), theta_of_lane_l)` —
    /// same floating-point operations in the same order, the lanes merely
    /// advance together (see the [module docs](self)).
    ///
    /// Fast-path shapes evaluate row-at-a-time without touching a register
    /// slab; bytecode programs run over this thread's `width`-strided
    /// register slab, kept between calls and never cleared (debug builds
    /// fill it with NaN first, like [`ProgramSet::eval_batch_into`]'s).
    ///
    /// # Panics
    ///
    /// Panics if `out.len() != x.width()` or a per-lane `theta` batch does
    /// not cover every lane.
    #[inline]
    pub fn eval_batch_into(&self, x: &SoaBatch, theta: BatchTheta<'_>, out: &mut [f64]) {
        let width = x.width();
        assert_eq!(out.len(), width, "one output slot per lane");
        assert!(theta.covers(width), "per-lane theta width mismatch");
        if let ProgramKind::Bytecode(p) = &self.kind {
            with_batch_slab(p.registers * width, |regs| {
                p.run_batch(x, &theta, regs, out);
            });
        } else {
            self.eval_batch_fast(x, &theta, out);
        }
    }

    /// Batched evaluation over a caller-provided `width`-strided register
    /// slab (shared across the programs of a model by
    /// [`ProgramSet::eval_batch_into`]).
    ///
    /// # Panics
    ///
    /// Panics if `out.len() != x.width()`, or (in debug builds) if `regs`
    /// is shorter than `self.registers() · x.width()`.
    pub fn eval_batch_with(
        &self,
        x: &SoaBatch,
        theta: &BatchTheta<'_>,
        regs: &mut [f64],
        out: &mut [f64],
    ) {
        assert_eq!(out.len(), x.width(), "one output slot per lane");
        if let ProgramKind::Bytecode(p) = &self.kind {
            p.run_batch(x, theta, regs, out);
        } else {
            self.eval_batch_fast(x, theta, out);
        }
    }

    /// The non-bytecode shapes, row-at-a-time.
    #[inline]
    fn eval_batch_fast(&self, x: &SoaBatch, theta: &BatchTheta<'_>, out: &mut [f64]) {
        match &self.kind {
            ProgramKind::Const(v) => out.fill(*v),
            ProgramKind::MassAction {
                coeff,
                param,
                species,
                len,
            } => mass_action_batch(x, theta, *coeff, *param, species, *len, out),
            ProgramKind::AffineProduct {
                base,
                coeff,
                param,
                inner,
                outer,
            } => affine_product_batch(x, theta, *base, *coeff, *param, *inner, *outer, out),
            ProgramKind::Bytecode(_) => unreachable!("bytecode handled by the callers"),
        }
    }

    /// Probes the program at `(x, theta)` against the numeric-health
    /// contract the simulation engines enforce at this same boundary
    /// ([`mfu_guard::rate_is_healthy`]): a rate must be finite and
    /// non-negative. Returns the offending value, or `None` when healthy.
    pub fn probe_health(&self, x: &StateVec, theta: &[f64]) -> Option<f64> {
        let rate = self.eval(x, theta);
        if mfu_guard::rate_is_healthy(rate) {
            None
        } else {
            Some(rate)
        }
    }
}

impl CompiledRate for RateProgram {
    fn eval(&self, x: &StateVec, theta: &[f64]) -> f64 {
        RateProgram::eval(self, x, theta)
    }

    fn species_support(&self) -> &[usize] {
        &self.support
    }

    fn eval_batch_into(&self, x: &SoaBatch, theta: BatchTheta<'_>, out: &mut [f64]) {
        RateProgram::eval_batch_into(self, x, theta, out);
    }
}

/// The rate programs of all rules of a model, sharing one scratch register
/// file sized for the largest program.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ProgramSet {
    programs: Vec<RateProgram>,
    registers: usize,
}

impl ProgramSet {
    /// Bundles programs, recording the shared register-file size.
    pub fn new(programs: Vec<RateProgram>) -> Self {
        let registers = programs
            .iter()
            .map(RateProgram::registers)
            .max()
            .unwrap_or(0);
        ProgramSet {
            programs,
            registers,
        }
    }

    /// Number of programs.
    pub fn len(&self) -> usize {
        self.programs.len()
    }

    /// `true` when the set is empty.
    pub fn is_empty(&self) -> bool {
        self.programs.is_empty()
    }

    /// The individual programs, in rule order.
    pub fn programs(&self) -> &[RateProgram] {
        &self.programs
    }

    /// Size of the shared register file.
    pub fn registers(&self) -> usize {
        self.registers
    }

    /// Evaluates every program in one pass, feeding `(rule_index, rate)` to
    /// `sink`. The shared register file lives on the stack — zeroed once per
    /// call and sized to the smallest masked tier that fits, so bytecode
    /// programs run the bounds-check-free interpreter — with a heap fallback
    /// for pathological sets.
    #[inline]
    pub fn eval_each(&self, x: &StateVec, theta: &[f64], mut sink: impl FnMut(usize, f64)) {
        if self.registers <= SMALL_REGISTERS {
            self.eval_each_masked::<SMALL_REGISTERS, { SMALL_REGISTERS - 1 }>(x, theta, &mut sink);
        } else if self.registers <= STACK_REGISTERS {
            self.eval_each_masked::<STACK_REGISTERS, { STACK_REGISTERS - 1 }>(x, theta, &mut sink);
        } else {
            let mut regs = vec![0.0; self.registers];
            for (k, program) in self.programs.iter().enumerate() {
                sink(k, program.eval_with(x, theta, &mut regs));
            }
        }
    }

    /// One masked-tier pass: every register index is `< N` (checked by
    /// [`ProgramSet::eval_each`]), so `run::<MASK>` elides bounds checks.
    #[inline]
    fn eval_each_masked<const N: usize, const MASK: usize>(
        &self,
        x: &StateVec,
        theta: &[f64],
        sink: &mut impl FnMut(usize, f64),
    ) {
        let mut regs = [0.0_f64; N];
        for (k, program) in self.programs.iter().enumerate() {
            let value = match &program.kind {
                ProgramKind::Bytecode(p) => p.run::<MASK>(x, theta, &mut regs),
                _ => program.eval_with(x, theta, &mut regs),
            };
            sink(k, value);
        }
    }

    /// Evaluates every program into `out` (one slot per rule).
    ///
    /// # Panics
    ///
    /// Panics if `out` is shorter than [`ProgramSet::len`].
    pub fn eval_into(&self, x: &StateVec, theta: &[f64], out: &mut [f64]) {
        assert!(out.len() >= self.programs.len(), "output slice too short");
        self.eval_each(x, theta, |k, r| out[k] = r);
    }

    /// Evaluates every program over a [`SoaBatch`] of `width` states in one
    /// pass per program, writing rule-major rows into `out`: the rate of
    /// rule `k` for lane `l` lands in `out[k · width + l]`. The shared
    /// `width`-strided register slab is this thread's, kept between calls
    /// and never cleared: every program writes a register before reading
    /// it. Debug builds fill it with NaN first, so a program that read a
    /// stale register would fail the bit-identity suites there.
    ///
    /// Each lane of each row is bit-identical to the scalar
    /// [`ProgramSet::eval_into`] on that lane's `(x, ϑ)` — see the
    /// [module docs](self).
    ///
    /// # Panics
    ///
    /// Panics if `out` is shorter than `len() · x.width()` or a per-lane
    /// `theta` batch does not cover every lane.
    pub fn eval_batch_into(&self, x: &SoaBatch, theta: BatchTheta<'_>, out: &mut [f64]) {
        let width = x.width();
        assert!(
            out.len() >= self.programs.len() * width,
            "output slice too short"
        );
        assert!(theta.covers(width), "per-lane theta width mismatch");
        with_batch_slab(self.registers * width, |regs| {
            self.eval_batch_all(x, &theta, regs, out, width);
        });
    }

    /// One batched pass over every program with a shared register slab.
    fn eval_batch_all(
        &self,
        x: &SoaBatch,
        theta: &BatchTheta<'_>,
        regs: &mut [f64],
        out: &mut [f64],
        width: usize,
    ) {
        for (k, program) in self.programs.iter().enumerate() {
            program.eval_batch_with(x, theta, regs, &mut out[k * width..(k + 1) * width]);
        }
    }

    /// Probes every program at `(x, theta)` and returns the first unhealthy
    /// one as `(program index, offending value)`; `None` when all rates are
    /// finite and non-negative. See [`RateProgram::probe_health`].
    pub fn first_unhealthy(&self, x: &StateVec, theta: &[f64]) -> Option<(usize, f64)> {
        self.programs
            .iter()
            .enumerate()
            .find_map(|(k, program)| program.probe_health(x, theta).map(|value| (k, value)))
    }
}

/// Stack-discipline register allocator: the result of lowering `expr` with
/// base register `b` lands in `r[b]`, using registers `b..` as scratch.
struct Lowering {
    ops: Vec<Op>,
    consts: Vec<f64>,
    max_register: u16,
}

impl Lowering {
    fn emit(&mut self, expr: &CompiledExpr, dst: u16) {
        self.max_register = self.max_register.max(dst);
        match expr {
            CompiledExpr::Const(v) => {
                let idx = self.intern_const(*v);
                self.ops.push(Op::Const { dst, idx });
            }
            CompiledExpr::Species(i) => self.ops.push(Op::Species {
                dst,
                idx: narrow(*i),
            }),
            CompiledExpr::Param(j) => self.ops.push(Op::Param {
                dst,
                idx: narrow(*j),
            }),
            CompiledExpr::Neg(a) => {
                self.emit(a, dst);
                self.ops.push(Op::Neg { dst, a: dst });
            }
            CompiledExpr::Add(a, b) => {
                self.emit_binary(a, b, dst, |dst, a, b| Op::Add { dst, a, b })
            }
            CompiledExpr::Sub(a, b) => {
                self.emit_binary(a, b, dst, |dst, a, b| Op::Sub { dst, a, b })
            }
            CompiledExpr::Mul(a, b) => {
                self.emit_binary(a, b, dst, |dst, a, b| Op::Mul { dst, a, b })
            }
            CompiledExpr::Div(a, b) => {
                self.emit_binary(a, b, dst, |dst, a, b| Op::Div { dst, a, b })
            }
            CompiledExpr::Pow(a, b) | CompiledExpr::Call2(Builtin::Pow, a, b) => {
                // x^n strength reduction: IEEE `pow` is exact for exponents 0
                // and 1; small integer exponents become straight multiplies.
                // The tree interpreter applies the *same* reduction (shared
                // `expr::unrolls`/`unrolled_pow`), so `^` stays inside the
                // bit-exact lowering contract.
                if let CompiledExpr::Const(n) = **b {
                    if n == 0.0 {
                        let idx = self.intern_const(1.0);
                        self.ops.push(Op::Const { dst, idx });
                        return;
                    }
                    if n == 1.0 {
                        self.emit(a, dst);
                        return;
                    }
                    if unrolls(n) {
                        self.emit(a, dst);
                        self.ops.push(Op::PowInt {
                            dst,
                            a: dst,
                            n: n as u16,
                        });
                        return;
                    }
                }
                self.emit_binary(a, b, dst, |dst, a, b| Op::Pow { dst, a, b });
            }
            CompiledExpr::Call1(f, a) => {
                self.emit(a, dst);
                self.ops.push(match f {
                    Builtin::Abs => Op::Abs { dst, a: dst },
                    Builtin::Exp => Op::Exp { dst, a: dst },
                    Builtin::Log => Op::Log { dst, a: dst },
                    Builtin::Sqrt => Op::Sqrt { dst, a: dst },
                    Builtin::Min | Builtin::Max | Builtin::Pow => {
                        unreachable!("binary builtin with one argument")
                    }
                });
            }
            CompiledExpr::Call2(f, a, b) => {
                let make = match f {
                    Builtin::Min => |dst, a, b| Op::Min { dst, a, b },
                    Builtin::Max => |dst, a, b| Op::Max { dst, a, b },
                    Builtin::Pow => unreachable!("pow handled above"),
                    Builtin::Abs | Builtin::Exp | Builtin::Log | Builtin::Sqrt => {
                        unreachable!("unary builtin with two arguments")
                    }
                };
                self.emit_binary(a, b, dst, make);
            }
            CompiledExpr::Cmp(op, a, b) => {
                let op = *op;
                self.emit(a, dst);
                self.emit(b, dst + 1);
                self.ops.push(Op::Cmp {
                    op,
                    dst,
                    a: dst,
                    b: dst + 1,
                });
            }
            CompiledExpr::Select(cond, then, els) => {
                // straight-line lowering: condition, then-branch and
                // else-branch all evaluate, the select picks branch-free
                self.emit(cond, dst);
                self.emit(then, dst + 1);
                self.emit(els, dst + 2);
                self.ops.push(Op::Select {
                    dst,
                    cond: dst,
                    a: dst + 1,
                    b: dst + 2,
                });
            }
        }
    }

    fn emit_binary(
        &mut self,
        a: &CompiledExpr,
        b: &CompiledExpr,
        dst: u16,
        make: fn(u16, u16, u16) -> Op,
    ) {
        self.emit(a, dst);
        self.emit(b, dst + 1);
        self.ops.push(make(dst, dst, dst + 1));
    }

    fn intern_const(&mut self, v: f64) -> u16 {
        let found = self.consts.iter().position(|c| c.to_bits() == v.to_bits());
        let idx = found.unwrap_or_else(|| {
            self.consts.push(v);
            self.consts.len() - 1
        });
        narrow(idx)
    }
}

/// The affine-product fast path: `(base + coeff · ϑ_p? · x_i) · x_j`, with
/// every operation in the tree's order.
#[inline(always)]
fn affine_product(
    x: &StateVec,
    theta: &[f64],
    base: f64,
    coeff: f64,
    param: Option<u16>,
    inner: u16,
    outer: u16,
) -> f64 {
    let mut m = coeff;
    if let Some(p) = param {
        m *= theta[p as usize];
    }
    m *= x[inner as usize];
    (base + m) * x[outer as usize]
}

/// The mass-action fast path: `coeff · ϑ_p? · x_i (· x_j)`, multiplied in
/// source order.
#[inline(always)]
fn mass_action(
    x: &StateVec,
    theta: &[f64],
    coeff: f64,
    param: Option<u16>,
    species: &[u16; 2],
    len: u8,
) -> f64 {
    let mut r = coeff;
    if let Some(p) = param {
        r *= theta[p as usize];
    }
    for &i in &species[..len as usize] {
        r *= x[i as usize];
    }
    r
}

/// Multiplies a parameter factor into every lane of `out` (broadcast for a
/// shared theta, row-wise for per-lane thetas).
#[inline(always)]
fn mul_param_row(out: &mut [f64], theta: &BatchTheta<'_>, p: u16) {
    match theta {
        BatchTheta::Shared(t) => {
            let v = t[p as usize];
            for o in out.iter_mut() {
                *o *= v;
            }
        }
        BatchTheta::PerLane(b) => {
            for (o, &v) in out.iter_mut().zip(b.row(p as usize)) {
                *o *= v;
            }
        }
    }
}

/// Batched mass-action fast path: per lane the exact factor order of
/// [`mass_action`] — `coeff`, then `ϑ_p?`, then the species in source
/// order — so every lane is bit-identical to the scalar fast path.
#[inline]
fn mass_action_batch(
    x: &SoaBatch,
    theta: &BatchTheta<'_>,
    coeff: f64,
    param: Option<u16>,
    species: &[u16; 2],
    len: u8,
    out: &mut [f64],
) {
    // A single lane skips the row-slice machinery: same factor order,
    // scalar arithmetic, so the width-1 batch costs what a scalar call
    // costs.
    if out.len() == 1 {
        let mut r = coeff;
        if let Some(p) = param {
            r *= theta.get(p as usize, 0);
        }
        for &i in &species[..len as usize] {
            r *= x.get(i as usize, 0);
        }
        out[0] = r;
        return;
    }
    out.fill(coeff);
    if let Some(p) = param {
        mul_param_row(out, theta, p);
    }
    for &i in &species[..len as usize] {
        for (o, &v) in out.iter_mut().zip(x.row(i as usize)) {
            *o *= v;
        }
    }
}

/// Batched affine-product fast path: per lane the exact operation order of
/// [`affine_product`] — `m = coeff · ϑ_p? · x_inner`, then
/// `(base + m) · x_outer`.
#[inline]
#[allow(clippy::too_many_arguments)]
fn affine_product_batch(
    x: &SoaBatch,
    theta: &BatchTheta<'_>,
    base: f64,
    coeff: f64,
    param: Option<u16>,
    inner: u16,
    outer: u16,
    out: &mut [f64],
) {
    // Width-1 scalar specialisation, same operation order (see
    // `mass_action_batch`).
    if out.len() == 1 {
        let mut m = coeff;
        if let Some(p) = param {
            m *= theta.get(p as usize, 0);
        }
        m *= x.get(inner as usize, 0);
        out[0] = (base + m) * x.get(outer as usize, 0);
        return;
    }
    out.fill(coeff);
    if let Some(p) = param {
        mul_param_row(out, theta, p);
    }
    for (o, &v) in out.iter_mut().zip(x.row(inner as usize)) {
        *o *= v;
    }
    for (o, &v) in out.iter_mut().zip(x.row(outer as usize)) {
        *o = (base + *o) * v;
    }
}

fn narrow(i: usize) -> u16 {
    u16::try_from(i).expect("rate expression exceeds 65535 distinct indices")
}

/// Peephole fusion of leaf loads into the arithmetic instruction consuming
/// them, halving dispatch count for the typical polynomial rate. The stack
/// lowering discipline guarantees the patterns: a binary op's right operand
/// is always computed immediately before it in register `dst + 1`, so
/// `Load(d+1); Arith{dst: d, a: d, b: d+1}` fuses to [`Op::BinLeaf`], and a
/// left leaf (`Load(d); BinLeaf{dst: d, a: d}`) then fuses to
/// [`Op::BinLeafLeaf`]. The arithmetic (operand values and operation) is
/// untouched, so fusion preserves results bit for bit.
fn fuse_leaf_operands(ops: Vec<Op>) -> Vec<Op> {
    fn as_load(op: &Op) -> Option<(LeafSource, u16, u16)> {
        match *op {
            Op::Const { dst, idx } => Some((LeafSource::Const, idx, dst)),
            Op::Species { dst, idx } => Some((LeafSource::Species, idx, dst)),
            Op::Param { dst, idx } => Some((LeafSource::Param, idx, dst)),
            _ => None,
        }
    }
    fn as_arith(op: &Op) -> Option<(ArithOp, u16, u16, u16)> {
        match *op {
            Op::Add { dst, a, b } => Some((ArithOp::Add, dst, a, b)),
            Op::Sub { dst, a, b } => Some((ArithOp::Sub, dst, a, b)),
            Op::Mul { dst, a, b } => Some((ArithOp::Mul, dst, a, b)),
            Op::Div { dst, a, b } => Some((ArithOp::Div, dst, a, b)),
            _ => None,
        }
    }

    /// Register sources an instruction reads (leaf loads read none).
    fn reads_register(op: &Op, r: u16) -> bool {
        match *op {
            Op::Const { .. } | Op::Species { .. } | Op::Param { .. } | Op::BinLeafLeaf { .. } => {
                false
            }
            Op::Neg { a, .. }
            | Op::PowInt { a, .. }
            | Op::Abs { a, .. }
            | Op::Exp { a, .. }
            | Op::Log { a, .. }
            | Op::Sqrt { a, .. }
            | Op::BinLeaf { a, .. } => a == r,
            Op::Add { a, b, .. }
            | Op::Sub { a, b, .. }
            | Op::Mul { a, b, .. }
            | Op::Div { a, b, .. }
            | Op::Pow { a, b, .. }
            | Op::Min { a, b, .. }
            | Op::Max { a, b, .. }
            | Op::Cmp { a, b, .. } => a == r || b == r,
            Op::Select { cond, a, b, .. } => cond == r || a == r || b == r,
        }
    }

    /// The register an instruction writes.
    fn writes_register(op: &Op) -> u16 {
        match *op {
            Op::Const { dst, .. }
            | Op::Species { dst, .. }
            | Op::Param { dst, .. }
            | Op::Neg { dst, .. }
            | Op::Add { dst, .. }
            | Op::Sub { dst, .. }
            | Op::Mul { dst, .. }
            | Op::Div { dst, .. }
            | Op::Pow { dst, .. }
            | Op::PowInt { dst, .. }
            | Op::Min { dst, .. }
            | Op::Max { dst, .. }
            | Op::Abs { dst, .. }
            | Op::Exp { dst, .. }
            | Op::Log { dst, .. }
            | Op::Sqrt { dst, .. }
            | Op::BinLeaf { dst, .. }
            | Op::BinLeafLeaf { dst, .. }
            | Op::Cmp { dst, .. }
            | Op::Select { dst, .. } => dst,
        }
    }

    let mut fused: Vec<Op> = Vec::with_capacity(ops.len());
    for op in ops {
        // round 1: right operand is a leaf load
        if let Some((arith, dst, a, b)) = as_arith(&op) {
            if let Some(&prev) = fused.last() {
                if let Some((leaf, idx, load_dst)) = as_load(&prev) {
                    if load_dst == b && a != b {
                        fused.pop();
                        let bin_leaf = Op::BinLeaf {
                            op: arith,
                            leaf,
                            dst,
                            a,
                            idx,
                        };
                        // round 2: left operand is a leaf load too
                        if let Some(&prev2) = fused.last() {
                            if let Some((leaf_a, a_idx, load2_dst)) = as_load(&prev2) {
                                if load2_dst == a && dst == a {
                                    fused.pop();
                                    fused.push(Op::BinLeafLeaf {
                                        op: arith,
                                        leaf_a,
                                        a_idx,
                                        leaf_b: leaf,
                                        b_idx: idx,
                                        dst,
                                    });
                                    continue;
                                }
                            }
                        }
                        fused.push(bin_leaf);
                        continue;
                    }
                }
            }
        }
        fused.push(op);
    }

    // round 3: commutative absorption of a *non-adjacent* left leaf — for
    // `r_d = r_a ⊕ r_b` with ⊕ ∈ {+, ·}, when register `a` was defined by a
    // leaf load untouched since (the stack discipline guarantees the ops in
    // between only work above `a`), rewrite to `r_d = r_b ⊕ leaf`. IEEE
    // addition and multiplication are exactly commutative, so the result is
    // unchanged bit for bit.
    let mut i = 0;
    while i < fused.len() {
        if let Some((arith, dst, a, b)) = as_arith(&fused[i]) {
            // `dst == a` (stack discipline) ensures the loaded value cannot
            // be read again after this op, so the load really is dead.
            if dst == a && matches!(arith, ArithOp::Add | ArithOp::Mul) {
                let defining = (0..i).rev().find(|&j| writes_register(&fused[j]) == a);
                if let Some(j) = defining {
                    let untouched = fused[j + 1..i].iter().all(|op| !reads_register(op, a));
                    if untouched {
                        if let Some((leaf, idx, _)) = as_load(&fused[j]) {
                            fused[i] = Op::BinLeaf {
                                op: arith,
                                leaf,
                                dst,
                                a: b,
                                idx,
                            };
                            fused.remove(j);
                            continue; // indices shifted; revisit position i-1
                        }
                    }
                }
            }
        }
        i += 1;
    }
    fused
}

fn collect_support(expr: &CompiledExpr, out: &mut Vec<usize>) {
    match expr {
        CompiledExpr::Species(i) => out.push(*i),
        CompiledExpr::Const(_) | CompiledExpr::Param(_) => {}
        CompiledExpr::Neg(a) | CompiledExpr::Call1(_, a) => collect_support(a, out),
        CompiledExpr::Add(a, b)
        | CompiledExpr::Sub(a, b)
        | CompiledExpr::Mul(a, b)
        | CompiledExpr::Div(a, b)
        | CompiledExpr::Pow(a, b)
        | CompiledExpr::Cmp(_, a, b)
        | CompiledExpr::Call2(_, a, b) => {
            collect_support(a, out);
            collect_support(b, out);
        }
        CompiledExpr::Select(c, t, e) => {
            // the VM evaluates both branches, and even the tree interpreter
            // can switch branches whenever a condition species changes —
            // so a guarded rate depends on every coordinate either side
            // (or the condition) reads
            collect_support(c, out);
            collect_support(t, out);
            collect_support(e, out);
        }
    }
}

/// Recognises left-leaning product spines of simple leaves:
/// `[Const]? · [Param]? · Species · [Species]?` in that factor order.
///
/// Only left-leaning spines (`((c·ϑ)·x)·y`) qualify because the fast path
/// multiplies left to right; accepting an arbitrarily shaped `Mul` tree
/// would reassociate the product and change the result by an ulp — enough to
/// desynchronise bit-exact trajectory comparisons against the tree
/// interpreter.
fn detect_mass_action(expr: &CompiledExpr) -> Option<ProgramKind> {
    let mut factors = Vec::new();
    flatten_left_spine(expr, &mut factors)?;

    let mut coeff = 1.0;
    let mut param: Option<u16> = None;
    let mut species = [0u16; 2];
    let mut len = 0u8;
    let mut stage = 0; // 0: const, 1: param, 2: species
    for factor in factors {
        match factor {
            CompiledExpr::Const(v) if stage == 0 => {
                coeff = *v;
                stage = 1;
            }
            CompiledExpr::Param(j) if stage <= 1 => {
                param = Some(narrow(*j));
                stage = 2;
            }
            CompiledExpr::Species(i) => {
                if len == 2 {
                    return None;
                }
                species[len as usize] = narrow(*i);
                len += 1;
                stage = 3;
            }
            _ => return None,
        }
    }
    if len == 0 && param.is_none() {
        return None; // pure constants are handled earlier
    }
    Some(ProgramKind::MassAction {
        coeff,
        param,
        species,
        len,
    })
}

/// Recognises `(base + <mass-action chain with one species>) · x_outer` —
/// the epidemic infection shape `(a + ϑ·I)·S` and its variants. Evaluation
/// order matches the tree exactly (inner product left to right, then the
/// addition, then the outer multiplication).
fn detect_affine_product(expr: &CompiledExpr) -> Option<ProgramKind> {
    let CompiledExpr::Mul(affine, outer) = expr else {
        return None;
    };
    let CompiledExpr::Species(outer) = **outer else {
        return None;
    };
    let CompiledExpr::Add(base, chain) = &**affine else {
        return None;
    };
    let CompiledExpr::Const(base) = **base else {
        return None;
    };
    match detect_mass_action(chain)? {
        ProgramKind::MassAction {
            coeff,
            param,
            species,
            len: 1,
        } => Some(ProgramKind::AffineProduct {
            base,
            coeff,
            param,
            inner: species[0],
            outer: narrow(outer),
        }),
        _ => None,
    }
}

/// Collects the factors of a left-leaning multiplication spine whose right
/// operands are all leaves; returns `None` for any other shape.
fn flatten_left_spine<'e>(expr: &'e CompiledExpr, out: &mut Vec<&'e CompiledExpr>) -> Option<()> {
    match expr {
        CompiledExpr::Mul(a, b) if is_leaf(b) => {
            flatten_left_spine(a, out)?;
            out.push(b);
            Some(())
        }
        leaf if is_leaf(leaf) => {
            out.push(leaf);
            Some(())
        }
        _ => None,
    }
}

fn is_leaf(expr: &CompiledExpr) -> bool {
    matches!(
        expr,
        CompiledExpr::Const(_) | CompiledExpr::Species(_) | CompiledExpr::Param(_)
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn c(v: f64) -> Box<CompiledExpr> {
        Box::new(CompiledExpr::Const(v))
    }
    fn s(i: usize) -> Box<CompiledExpr> {
        Box::new(CompiledExpr::Species(i))
    }
    fn p(j: usize) -> Box<CompiledExpr> {
        Box::new(CompiledExpr::Param(j))
    }
    fn mul(a: Box<CompiledExpr>, b: Box<CompiledExpr>) -> Box<CompiledExpr> {
        Box::new(CompiledExpr::Mul(a, b))
    }

    fn x() -> StateVec {
        StateVec::from([0.7, 0.3, 0.125])
    }

    #[test]
    fn constants_fold_to_const_programs() {
        let expr = CompiledExpr::Add(c(1.5), Box::new(CompiledExpr::Neg(c(0.5))));
        let program = RateProgram::compile(&expr);
        assert!(matches!(program.kind(), ProgramKind::Const(v) if *v == 1.0));
        assert!(program.species_support().is_empty());
        assert_eq!(program.eval(&x(), &[]), 1.0);
        assert_eq!(program.registers(), 0);
    }

    #[test]
    fn mass_action_shapes_are_detected_and_exact() {
        // b * I
        let e1 = mul(c(5.0), s(1));
        // contact * S * I  (left spine)
        let e2 = mul(mul(p(0), s(0)), s(1));
        // lambda * route * Idle
        let e3 = mul(mul(c(2.0), p(0)), s(2));
        // S * I
        let e4 = mul(s(0), s(1));
        for (expr, support) in [
            (&e1, vec![1]),
            (&e2, vec![0, 1]),
            (&e3, vec![2]),
            (&e4, vec![0, 1]),
        ] {
            let program = RateProgram::compile(expr);
            assert!(
                matches!(program.kind(), ProgramKind::MassAction { .. }),
                "{expr:?} should lower to mass action"
            );
            assert!(program.is_fast_path());
            assert_eq!(program.species_support(), &support[..]);
            for theta in [[1.0], [4.2], [10.0]] {
                let tree = expr.eval(&x(), &theta);
                let vm = program.eval(&x(), &theta);
                assert_eq!(tree.to_bits(), vm.to_bits(), "{expr:?} at ϑ={theta:?}");
            }
        }
    }

    #[test]
    fn non_left_spines_fall_back_to_bytecode() {
        // (S * I) * (contact * S): right operand is not a leaf
        let expr = mul(mul(s(0), s(1)), mul(p(0), s(0)));
        let program = RateProgram::compile(&expr);
        assert!(matches!(program.kind(), ProgramKind::Bytecode(_)));
        // bytecode still matches the tree bit for bit
        let tree = expr.eval(&x(), &[3.0]);
        assert_eq!(tree.to_bits(), program.eval(&x(), &[3.0]).to_bits());
    }

    #[test]
    fn three_species_products_fall_back_to_bytecode() {
        let expr = mul(mul(mul(c(2.0), s(0)), s(1)), s(2));
        let program = RateProgram::compile(&expr);
        assert!(matches!(program.kind(), ProgramKind::Bytecode(_)));
        assert_eq!(
            expr.eval(&x(), &[]).to_bits(),
            program.eval(&x(), &[]).to_bits()
        );
    }

    #[test]
    fn infection_shape_gets_the_affine_product_fast_path() {
        // (a + contact * I) * S — the SIR infection rate
        let expr = mul(Box::new(CompiledExpr::Add(c(0.1), mul(p(0), s(1)))), s(0));
        let program = RateProgram::compile(&expr);
        assert!(matches!(program.kind(), ProgramKind::AffineProduct { .. }));
        assert!(program.is_fast_path());
        assert_eq!(program.species_support(), &[0, 1]);
        for theta in [1.0, 2.5, 10.0] {
            let tree = expr.eval(&x(), &[theta]);
            let vm = program.eval(&x(), &[theta]);
            assert_eq!(tree.to_bits(), vm.to_bits());
        }
    }

    #[test]
    fn bytecode_matches_tree_bit_for_bit_without_pow() {
        // c · (total − (S + I)) — a reduced-coordinate conservation rate;
        // no fast-path shape applies.
        let expr = mul(
            c(0.8),
            Box::new(CompiledExpr::Sub(
                c(1.0),
                Box::new(CompiledExpr::Add(s(0), s(1))),
            )),
        );
        let program = RateProgram::compile(&expr);
        assert!(matches!(program.kind(), ProgramKind::Bytecode(_)));
        assert_eq!(program.species_support(), &[0, 1]);
        for theta in [1.0, 2.5, 10.0] {
            let tree = expr.eval(&x(), &[theta]);
            let vm = program.eval(&x(), &[theta]);
            assert_eq!(tree.to_bits(), vm.to_bits());
        }
    }

    #[test]
    fn builtins_lower_and_evaluate() {
        let expr = CompiledExpr::Call2(
            Builtin::Max,
            c(0.0),
            Box::new(CompiledExpr::Sub(
                Box::new(CompiledExpr::Call1(Builtin::Sqrt, s(0))),
                Box::new(CompiledExpr::Call1(
                    Builtin::Exp,
                    Box::new(CompiledExpr::Neg(s(1))),
                )),
            )),
        );
        let program = RateProgram::compile(&expr);
        let tree = expr.eval(&x(), &[]);
        assert_eq!(tree.to_bits(), program.eval(&x(), &[]).to_bits());
        // div + log + abs + min coverage
        let expr = CompiledExpr::Call2(
            Builtin::Min,
            Box::new(CompiledExpr::Div(
                Box::new(CompiledExpr::Call1(Builtin::Log, c(9.0))),
                Box::new(CompiledExpr::Call1(
                    Builtin::Abs,
                    Box::new(CompiledExpr::Neg(s(0))),
                )),
            )),
            p(0),
        );
        let program = RateProgram::compile(&expr);
        let tree = expr.eval(&x(), &[0.5]);
        assert_eq!(tree.to_bits(), program.eval(&x(), &[0.5]).to_bits());
    }

    #[test]
    fn power_strength_reduction() {
        // x^2 → x·x
        let sq = CompiledExpr::Pow(s(1), c(2.0));
        let program = RateProgram::compile(&sq);
        match program.kind() {
            ProgramKind::Bytecode(p) => {
                assert!(p
                    .ops()
                    .iter()
                    .any(|op| matches!(op, Op::PowInt { n: 2, .. })));
                assert!(!p.ops().iter().any(|op| matches!(op, Op::Pow { .. })));
            }
            other => panic!("expected bytecode, got {other:?}"),
        }
        let v = program.eval(&x(), &[]);
        assert!((v - 0.09).abs() < 1e-15);

        // x^1 is the identity, x^0 is one
        let one = RateProgram::compile(&CompiledExpr::Pow(s(0), c(1.0)));
        assert_eq!(one.eval(&x(), &[]), 0.7);
        let unit = RateProgram::compile(&CompiledExpr::Pow(s(0), c(0.0)));
        assert_eq!(unit.eval(&x(), &[]), 1.0);

        // fractional and large exponents keep powf
        let frac = RateProgram::compile(&CompiledExpr::Pow(s(0), c(0.5)));
        match frac.kind() {
            ProgramKind::Bytecode(p) => {
                assert!(p.ops().iter().any(|op| matches!(op, Op::Pow { .. })));
            }
            other => panic!("expected bytecode, got {other:?}"),
        }
        assert_eq!(frac.eval(&x(), &[]).to_bits(), 0.7f64.powf(0.5).to_bits());
    }

    #[test]
    fn guarded_rates_lower_to_branch_free_selects() {
        use crate::ast::CmpOp;
        // when (Q1 + Q2 > 1e-12) { 5 * Q1 / (Q1 + Q2) } else { 0 } — the
        // GPS service shape
        let load = || Box::new(CompiledExpr::Add(s(0), s(1)));
        let expr = CompiledExpr::Select(
            Box::new(CompiledExpr::Cmp(CmpOp::Gt, load(), c(1e-12))),
            Box::new(CompiledExpr::Div(mul(c(5.0), s(0)), load())),
            c(0.0),
        );
        let program = RateProgram::compile(&expr);
        let ProgramKind::Bytecode(p) = program.kind() else {
            panic!(
                "guarded rate should lower to bytecode, got {:?}",
                program.kind()
            );
        };
        assert!(p.ops().iter().any(|op| matches!(op, Op::Cmp { .. })));
        assert!(p.ops().iter().any(|op| matches!(op, Op::Select { .. })));
        assert_eq!(program.species_support(), &[0, 1]);

        // busy and idle states, bit-identical to the tree
        for state in [[0.7, 0.3, 0.0], [0.0, 0.0, 0.0], [0.0, 0.4, 0.0]] {
            let x = StateVec::from(state);
            let tree = expr.eval(&x, &[]);
            let vm = program.eval(&x, &[]);
            assert_eq!(tree.to_bits(), vm.to_bits(), "state {state:?}");
            assert!(vm.is_finite(), "guard must mask the 0/0 branch");
        }
    }

    #[test]
    fn comparison_programs_yield_indicators() {
        use crate::ast::CmpOp;
        for (op, expect) in [
            (CmpOp::Lt, 0.0),
            (CmpOp::Le, 0.0),
            (CmpOp::Gt, 1.0),
            (CmpOp::Ge, 1.0),
            (CmpOp::Eq, 0.0),
            (CmpOp::Ne, 1.0),
        ] {
            // S(0) = 0.7 vs 0.3
            let expr = CompiledExpr::Cmp(CmpOp::Eq, s(0), s(0));
            assert_eq!(RateProgram::compile(&expr).eval(&x(), &[]), 1.0);
            let expr = CompiledExpr::Cmp(op, s(0), s(1));
            let program = RateProgram::compile(&expr);
            assert_eq!(program.eval(&x(), &[]), expect, "{op:?}");
            assert_eq!(
                expr.eval(&x(), &[]).to_bits(),
                program.eval(&x(), &[]).to_bits()
            );
        }
    }

    #[test]
    fn constant_guard_conditions_fold_before_lowering() {
        use crate::ast::CmpOp;
        // when 1 > 2 { S/0 } else { 2 * S } — dead branch disappears
        let expr = CompiledExpr::Select(
            Box::new(CompiledExpr::Cmp(CmpOp::Gt, c(1.0), c(2.0))),
            Box::new(CompiledExpr::Div(s(0), c(0.0))),
            mul(c(2.0), s(0)),
        );
        let program = RateProgram::compile(&expr);
        assert!(
            matches!(program.kind(), ProgramKind::MassAction { .. }),
            "folded guard should reach the mass-action fast path, got {:?}",
            program.kind()
        );
        assert_eq!(program.eval(&x(), &[]), 1.4);
    }

    #[test]
    fn shared_register_file_reuses_between_programs() {
        let set = ProgramSet::new(vec![
            RateProgram::compile(&mul(c(5.0), s(1))),
            // c · (1 − (S + I)) forces a genuine bytecode program
            RateProgram::compile(&mul(
                c(0.1),
                Box::new(CompiledExpr::Sub(
                    c(1.0),
                    Box::new(CompiledExpr::Add(s(0), s(1))),
                )),
            )),
        ]);
        assert_eq!(set.len(), 2);
        assert!(!set.is_empty());
        assert!(set.registers() >= 2);
        let mut out = [0.0; 2];
        set.eval_into(&x(), &[2.0], &mut out);
        assert!((out[0] - 1.5).abs() < 1e-15);
        assert!((out[1] - 0.1 * (1.0 - (0.7 + 0.3))).abs() < 1e-15);
        assert_eq!(set.programs().len(), 2);
    }

    #[test]
    fn deep_programs_fall_back_to_heap_registers() {
        // right-leaning addition chain deeper than the stack register file
        let mut expr = CompiledExpr::Species(0);
        for _ in 0..(STACK_REGISTERS + 8) {
            expr = CompiledExpr::Add(s(0), Box::new(expr));
        }
        let program = RateProgram::compile(&expr);
        assert!(program.registers() > STACK_REGISTERS);
        let expected = expr.eval(&x(), &[]);
        assert_eq!(expected.to_bits(), program.eval(&x(), &[]).to_bits());
    }

    #[test]
    fn program_implements_compiled_rate() {
        use mfu_ctmc::transition::TransitionClass;
        use std::sync::Arc;
        let program = RateProgram::compile(&mul(mul(p(0), s(0)), s(1)));
        let class = TransitionClass::compiled("infect", [-1.0, 1.0, 0.0], Arc::new(program));
        assert!(class.rate_fn().is_compiled());
        assert_eq!(class.species_support(), Some(&[0, 1][..]));
        assert!((class.rate(&x(), &[2.0]) - 0.42).abs() < 1e-15);
    }

    #[test]
    fn health_probes_flag_nan_and_negative_rates() {
        // θ₀ · x₀ is healthy at positive inputs and negative at θ₀ < 0
        let program = RateProgram::compile(&mul(p(0), s(0)));
        assert_eq!(program.probe_health(&x(), &[2.0]), None);
        assert_eq!(program.probe_health(&x(), &[-2.0]), Some(-1.4));
        assert!(program
            .probe_health(&x(), &[f64::NAN])
            .is_some_and(f64::is_nan));

        let set = ProgramSet::new(vec![
            RateProgram::compile(&c(1.0)),
            RateProgram::compile(&mul(p(0), s(0))),
        ]);
        assert_eq!(set.first_unhealthy(&x(), &[1.0]), None);
        assert_eq!(set.first_unhealthy(&x(), &[-2.0]), Some((1, -1.4)));
    }
}
