//! Property tests: the bytecode VM is observationally equivalent to the
//! tree-walking interpreter.
//!
//! Two regimes are checked over randomly generated expressions:
//!
//! * expressions without `^` must evaluate **bit-identically** — the
//!   lowering preserves the tree's exact operation order, and the whole
//!   workspace relies on that for bit-exact DSL-vs-native trajectory
//!   comparisons; this regime includes the PR 3 comparison and guarded
//!   `Select` shapes (the VM evaluates both branches and selects
//!   branch-free, the tree only the taken branch — the selected value is
//!   identical);
//! * expressions with `^` may differ by an ulp where the power-by-constant
//!   strength reduction (`x^2 → x·x`) replaces `powf`, so they are compared
//!   with a tight relative tolerance.
//!
//! On top of the random sweep, every rule of every registry scenario must
//! lower to a program that matches its tree bit for bit across random
//! states and parameters, and the `DslDrift` one-pass VM evaluation must
//! reproduce the rule-by-rule tree evaluation of the drift exactly.

use mfu_core::drift::ImpreciseDrift;
use mfu_lang::ast::CmpOp;
use mfu_lang::expr::{Builtin, CompiledExpr};
use mfu_lang::scenarios::ScenarioRegistry;
use mfu_lang::vm::{ProgramSet, RateProgram};
use mfu_num::batch::{BatchTheta, SoaBatch};
use mfu_num::StateVec;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Batch widths exercised by the batched-vs-scalar property suite: 1 (the
/// overhead-gated degenerate batch), small odd widths that defeat any
/// accidental power-of-two assumptions, one slab-tier-crossing width, and
/// the chunk boundaries of the VM's 8-lane kernels: 7 runs only the
/// per-lane tail, 8 one full chunk, 9 and 17 full chunks then a tail.
const BATCH_WIDTHS: [usize; 8] = [1, 2, 3, 7, 8, 9, 17, 64];

const DIM: usize = 3;
const PARAMS: usize = 2;

/// Draws a random expression of the given depth budget. `allow_pow` gates
/// the `^` operator (whose strength reduction is allowed to differ from
/// `powf` by an ulp).
fn random_expr(rng: &mut StdRng, depth: usize, allow_pow: bool) -> CompiledExpr {
    let leaf = depth == 0 || rng.gen::<u32>() % 4 == 0;
    if leaf {
        match rng.gen::<u32>() % 3 {
            0 => CompiledExpr::Const(0.1 + 1.9 * rng.gen::<f64>()),
            1 => CompiledExpr::Species((rng.gen::<u32>() as usize) % DIM),
            _ => CompiledExpr::Param((rng.gen::<u32>() as usize) % PARAMS),
        }
    } else {
        let kind = rng.gen::<u32>() % if allow_pow { 11 } else { 10 };
        let a = Box::new(random_expr(rng, depth - 1, allow_pow));
        let b = Box::new(random_expr(rng, depth.saturating_sub(2), allow_pow));
        match kind {
            0 => CompiledExpr::Add(a, b),
            1 => CompiledExpr::Sub(a, b),
            2 => CompiledExpr::Mul(a, b),
            3 => CompiledExpr::Div(a, b),
            4 => CompiledExpr::Neg(a),
            5 => CompiledExpr::Call1(Builtin::Abs, a),
            6 => CompiledExpr::Call2(Builtin::Max, a, b),
            7 => CompiledExpr::Call2(Builtin::Min, a, b),
            8 => CompiledExpr::Cmp(random_cmp(rng), a, b),
            9 => {
                // a guarded selection whose condition is itself a random
                // comparison — the PR 3 `when … { } else { }` shape
                let cond = Box::new(CompiledExpr::Cmp(
                    random_cmp(rng),
                    Box::new(random_expr(rng, depth.saturating_sub(2), allow_pow)),
                    Box::new(random_expr(rng, depth.saturating_sub(2), allow_pow)),
                ));
                CompiledExpr::Select(cond, a, b)
            }
            _ => {
                // integer exponents hit the strength reduction, fractional
                // ones keep powf
                let exponent = if rng.gen::<bool>() {
                    CompiledExpr::Const((rng.gen::<u32>() % 5) as f64)
                } else {
                    CompiledExpr::Const(0.25 + rng.gen::<f64>())
                };
                CompiledExpr::Pow(a, Box::new(exponent))
            }
        }
    }
}

fn random_cmp(rng: &mut StdRng) -> CmpOp {
    match rng.gen::<u32>() % 6 {
        0 => CmpOp::Lt,
        1 => CmpOp::Le,
        2 => CmpOp::Gt,
        3 => CmpOp::Ge,
        4 => CmpOp::Eq,
        _ => CmpOp::Ne,
    }
}

fn random_point(rng: &mut StdRng) -> (StateVec, Vec<f64>) {
    let x: StateVec = (0..DIM).map(|_| 0.05 + rng.gen::<f64>()).collect();
    let theta: Vec<f64> = (0..PARAMS).map(|_| 0.1 + 2.0 * rng.gen::<f64>()).collect();
    (x, theta)
}

#[test]
fn vm_matches_tree_bit_for_bit_without_pow() {
    let mut rng = StdRng::seed_from_u64(0xB17C0DE);
    for case in 0..300 {
        let expr = random_expr(&mut rng, 6, false);
        let program = RateProgram::compile(&expr);
        for _ in 0..16 {
            let (x, theta) = random_point(&mut rng);
            let tree = expr.eval(&x, &theta);
            let vm = program.eval(&x, &theta);
            assert_eq!(
                tree.to_bits(),
                vm.to_bits(),
                "case {case}: tree {tree} != vm {vm} for {expr:?}"
            );
        }
    }
}

#[test]
fn vm_matches_tree_within_ulps_with_pow() {
    let mut rng = StdRng::seed_from_u64(0x9E37);
    for case in 0..300 {
        let expr = random_expr(&mut rng, 6, true);
        let program = RateProgram::compile(&expr);
        for _ in 0..16 {
            let (x, theta) = random_point(&mut rng);
            let tree = expr.eval(&x, &theta);
            let vm = program.eval(&x, &theta);
            if !tree.is_finite() {
                assert!(
                    !vm.is_finite(),
                    "case {case}: tree non-finite but vm = {vm}"
                );
                continue;
            }
            let tolerance = 1e-12 * tree.abs().max(1.0);
            assert!(
                (tree - vm).abs() <= tolerance,
                "case {case}: tree {tree} vs vm {vm} for {expr:?}"
            );
        }
    }
}

#[test]
fn vm_support_matches_tree_references() {
    let mut rng = StdRng::seed_from_u64(42);
    for _ in 0..200 {
        let expr = random_expr(&mut rng, 5, true);
        let program = RateProgram::compile(&expr);
        assert_eq!(
            !program.species_support().is_empty(),
            expr.references_species(),
            "support/references mismatch for {expr:?}"
        );
        for &i in program.species_support() {
            assert!(i < DIM);
        }
    }
}

#[test]
fn every_scenario_rule_lowers_to_an_exact_program() {
    let registry = ScenarioRegistry::with_builtins();
    let mut rng = StdRng::seed_from_u64(7);
    for scenario in registry.iter() {
        let model = scenario.compile().unwrap();
        let dim = model.dim();
        let box_dim = model.params().dim();
        for rule in model.rules() {
            let program = RateProgram::compile(&rule.rate);
            for _ in 0..64 {
                let x: StateVec = (0..dim).map(|_| rng.gen::<f64>()).collect();
                let theta: Vec<f64> = (0..box_dim).map(|_| 0.2 + 4.0 * rng.gen::<f64>()).collect();
                let tree = rule.rate.eval(&x, &theta);
                let vm = program.eval(&x, &theta);
                assert_eq!(
                    tree.to_bits(),
                    vm.to_bits(),
                    "scenario `{}`, rule `{}`",
                    scenario.name(),
                    rule.name
                );
            }
        }
    }
}

/// Draws `width` lane-varying points as SoA batches (states + per-lane
/// thetas), returning the AoS originals for the scalar reference.
#[allow(clippy::type_complexity)]
fn random_lanes(
    rng: &mut StdRng,
    width: usize,
) -> (Vec<StateVec>, Vec<Vec<f64>>, SoaBatch, SoaBatch) {
    let mut states = Vec::with_capacity(width);
    let mut thetas = Vec::with_capacity(width);
    for _ in 0..width {
        let (x, theta) = random_point(rng);
        states.push(x);
        thetas.push(theta);
    }
    let x_batch = SoaBatch::from_lanes(&states.iter().map(StateVec::as_slice).collect::<Vec<_>>());
    let theta_batch = SoaBatch::from_lanes(&thetas);
    (states, thetas, x_batch, theta_batch)
}

#[test]
fn batched_lanes_match_scalar_eval_bit_for_bit_per_lane_thetas() {
    // `allow_pow = true` is fine here: scalar and batched run the *same
    // lowered program*, so even the strength-reduced ops must agree bit for
    // bit — the ulp tolerance is only between program and tree.
    let mut rng = StdRng::seed_from_u64(0xBA7C4);
    for case in 0..200 {
        let expr = random_expr(&mut rng, 6, true);
        let program = RateProgram::compile(&expr);
        for width in BATCH_WIDTHS {
            let (states, thetas, x_batch, theta_batch) = random_lanes(&mut rng, width);
            let mut out = vec![0.0_f64; width];
            program.eval_batch_into(&x_batch, BatchTheta::PerLane(&theta_batch), &mut out);
            for l in 0..width {
                let scalar = program.eval(&states[l], &thetas[l]);
                assert_eq!(
                    scalar.to_bits(),
                    out[l].to_bits(),
                    "case {case}, width {width}, lane {l}: scalar {scalar} != batched {} for {expr:?}",
                    out[l]
                );
            }
        }
    }
}

#[test]
fn batched_lanes_match_scalar_eval_bit_for_bit_shared_theta() {
    let mut rng = StdRng::seed_from_u64(0x5AA5);
    for case in 0..200 {
        let expr = random_expr(&mut rng, 6, true);
        let program = RateProgram::compile(&expr);
        for width in BATCH_WIDTHS {
            let (states, _, x_batch, _) = random_lanes(&mut rng, width);
            let (_, shared_theta) = random_point(&mut rng);
            let mut out = vec![0.0_f64; width];
            program.eval_batch_into(&x_batch, BatchTheta::Shared(&shared_theta), &mut out);
            for l in 0..width {
                let scalar = program.eval(&states[l], &shared_theta);
                assert_eq!(
                    scalar.to_bits(),
                    out[l].to_bits(),
                    "case {case}, width {width}, lane {l} for {expr:?}"
                );
            }
        }
    }
}

#[test]
fn batched_select_propagates_nan_payloads_like_scalar() {
    // when x₀ > x₁ { x₀ } else { x₁ } — lowered to a branch-free Select.
    // Lanes feed distinct NaN payloads through both branches; the batched
    // conditional move must carry the exact bit pattern the scalar Select
    // picks, lane by lane.
    let expr = CompiledExpr::Select(
        Box::new(CompiledExpr::Cmp(
            CmpOp::Gt,
            Box::new(CompiledExpr::Species(0)),
            Box::new(CompiledExpr::Species(1)),
        )),
        Box::new(CompiledExpr::Species(0)),
        Box::new(CompiledExpr::Species(1)),
    );
    let program = RateProgram::compile(&expr);
    let payload = |tag: u64| f64::from_bits(f64::NAN.to_bits() ^ tag);
    // one NaN lane per operand side, one all-NaN lane, one finite control
    let states = [
        StateVec::from([payload(0x11), 2.0, 0.0]),
        StateVec::from([2.0, payload(0x22), 0.0]),
        StateVec::from([payload(0x33), payload(0x44), 0.0]),
        StateVec::from([1.0, 2.0, 0.0]),
    ];
    let x_batch = SoaBatch::from_lanes(&states.iter().map(StateVec::as_slice).collect::<Vec<_>>());
    let theta: Vec<f64> = vec![0.0, 0.0];
    let mut out = vec![0.0_f64; states.len()];
    program.eval_batch_into(&x_batch, BatchTheta::Shared(&theta), &mut out);
    for (l, x) in states.iter().enumerate() {
        let scalar = program.eval(x, &theta);
        assert_eq!(
            scalar.to_bits(),
            out[l].to_bits(),
            "lane {l}: scalar bits {:#x} != batched bits {:#x}",
            scalar.to_bits(),
            out[l].to_bits()
        );
    }
    // the comparison with a NaN operand is false, so the else-branch payload
    // must come through verbatim on the NaN lanes
    assert_eq!(out[1].to_bits(), payload(0x22).to_bits());
    assert_eq!(out[2].to_bits(), payload(0x44).to_bits());
    assert_eq!(out[3], 2.0);
}

#[test]
fn program_set_batch_rows_match_scalar_eval_into_across_registry() {
    let registry = ScenarioRegistry::with_builtins();
    let mut rng = StdRng::seed_from_u64(0x0B5E55ED);
    for scenario in registry.iter() {
        let model = scenario.compile().unwrap();
        let set = ProgramSet::new(
            model
                .rules()
                .iter()
                .map(|rule| RateProgram::compile(&rule.rate))
                .collect(),
        );
        let dim = model.dim();
        let box_dim = model.params().dim();
        for width in BATCH_WIDTHS {
            let states: Vec<StateVec> = (0..width)
                .map(|_| (0..dim).map(|_| rng.gen::<f64>()).collect())
                .collect();
            let thetas: Vec<Vec<f64>> = (0..width)
                .map(|_| (0..box_dim).map(|_| 0.2 + 4.0 * rng.gen::<f64>()).collect())
                .collect();
            let x_batch =
                SoaBatch::from_lanes(&states.iter().map(StateVec::as_slice).collect::<Vec<_>>());
            let theta_batch = SoaBatch::from_lanes(&thetas);
            let mut batched = vec![0.0_f64; set.len() * width];
            set.eval_batch_into(&x_batch, BatchTheta::PerLane(&theta_batch), &mut batched);
            let mut scalar = vec![0.0_f64; set.len()];
            for l in 0..width {
                set.eval_into(&states[l], &thetas[l], &mut scalar);
                for k in 0..set.len() {
                    assert_eq!(
                        scalar[k].to_bits(),
                        batched[k * width + l].to_bits(),
                        "scenario `{}`, rule {k}, width {width}, lane {l}",
                        scenario.name()
                    );
                }
            }
        }
    }
}

#[test]
fn dsl_drift_one_pass_vm_matches_rule_by_rule_trees() {
    let registry = ScenarioRegistry::with_builtins();
    let mut rng = StdRng::seed_from_u64(99);
    for scenario in registry.iter() {
        let model = scenario.compile().unwrap();
        for drift in [model.drift(), model.reduced_drift()] {
            let dim = drift.dim();
            let box_dim = model.params().dim();
            let mut out = StateVec::zeros(dim);
            for _ in 0..32 {
                let x: StateVec = (0..dim).map(|_| rng.gen::<f64>()).collect();
                let theta: Vec<f64> = (0..box_dim).map(|_| 0.2 + 4.0 * rng.gen::<f64>()).collect();
                drift.drift_into(&x, &theta, &mut out);
                // reference: accumulate rule-by-rule with the tree interpreter
                let mut expected = StateVec::zeros(dim);
                for rule in drift.rules() {
                    let r = rule.rate.eval(&x, &theta);
                    if r != 0.0 {
                        for (o, c) in expected.as_mut_slice().iter_mut().zip(rule.change.iter()) {
                            *o += r * c;
                        }
                    }
                }
                for k in 0..dim {
                    assert_eq!(
                        expected[k].to_bits(),
                        out[k].to_bits(),
                        "scenario `{}` (reduced: {}) coordinate {k}",
                        scenario.name(),
                        drift.is_reduced()
                    );
                }
            }
        }
    }
}
