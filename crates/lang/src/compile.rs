//! Backend compilation: from a [`ResolvedModel`] to the two synchronized
//! representations the rest of the workspace consumes.
//!
//! * [`CompiledModel::population_model`] — a finite-`N`
//!   [`PopulationModel`] for the
//!   Gillespie simulator (`mfu-sim`) and the explicit finite-chain
//!   expansion (`mfu_ctmc::finite`);
//! * [`CompiledModel::drift`] / [`CompiledModel::reduced_drift`] — an
//!   [`ImpreciseDrift`] for the hull/Pontryagin/Birkhoff analyses of
//!   `mfu-core`.
//!
//! The reduced drift eliminates the *last* declared species of a
//! mass-conserving model by substituting
//! `x_last = total − Σ_{i<last} x_i` — exactly the reduction the paper
//! applies to the SIR model (Equation 11). For non-conservative models no
//! coordinate can be eliminated and [`CompiledModel::reduced_drift`]
//! returns the full-dimensional drift unchanged.

use std::cell::Cell;
use std::sync::Arc;

use mfu_core::drift::ImpreciseDrift;
use mfu_ctmc::params::ParamSpace;
use mfu_ctmc::population::PopulationModel;
use mfu_ctmc::transition::TransitionClass;
use mfu_num::batch::{BatchTheta, SoaBatch};
use mfu_num::StateVec;

use crate::diagnostics::LangError;
use crate::expr::CompiledExpr;
use crate::validate::{ResolvedModel, ResolvedRule};
use crate::vm::{ProgramSet, RateProgram};

/// A validated model compiled into evaluable form.
///
/// Obtained from [`crate::compile()`] or [`crate::Scenario::compile`];
/// cheap to clone.
#[derive(Debug, Clone)]
pub struct CompiledModel {
    resolved: ResolvedModel,
    conservative: bool,
    total: f64,
}

impl CompiledModel {
    pub(crate) fn new(resolved: ResolvedModel) -> Self {
        let conservative = resolved.is_conservative();
        let total = resolved.init.iter().sum();
        CompiledModel {
            resolved,
            conservative,
            total,
        }
    }

    /// The model name from the `model <name>;` header.
    pub fn name(&self) -> &str {
        &self.resolved.name
    }

    /// Species names in declaration (= state-coordinate) order.
    pub fn species(&self) -> &[String] {
        &self.resolved.species
    }

    /// State dimension (number of species).
    pub fn dim(&self) -> usize {
        self.resolved.species.len()
    }

    /// The uncertainty set `Θ`.
    pub fn params(&self) -> &ParamSpace {
        &self.resolved.param_space
    }

    /// The same model over another parameter box, e.g. a query's narrowed
    /// or widened override: its drifts and population model evaluate the
    /// same rates, and the analyses' Θ scans enumerate `params`.
    ///
    /// # Errors
    ///
    /// Returns [`LangError::Backend`] unless `params` names the model's
    /// parameters in declaration order.
    pub fn with_params(&self, params: ParamSpace) -> Result<CompiledModel, LangError> {
        if params.names() != self.params().names() {
            return Err(LangError::Backend(format!(
                "parameter box names {:?}, the model declares {:?}",
                params.names(),
                self.params().names()
            )));
        }
        let mut model = self.clone();
        model.resolved.param_space = params;
        Ok(model)
    }

    /// Named constants with their folded values.
    pub fn consts(&self) -> &[(String, f64)] {
        &self.resolved.consts
    }

    /// `true` when every rule conserves the total population, enabling the
    /// reduced-coordinate drift.
    pub fn is_conservative(&self) -> bool {
        self.conservative
    }

    /// Total initial mass `Σ_i init_i` (the conserved quantity of a
    /// conservative model; `1` for fraction-normalised init blocks).
    pub fn total_mass(&self) -> f64 {
        self.total
    }

    /// Initial condition on the full state space.
    pub fn initial_state(&self) -> StateVec {
        StateVec::from(self.resolved.init.clone())
    }

    /// Initial condition in reduced coordinates (the last species dropped
    /// when the model is conservative; identical to
    /// [`CompiledModel::initial_state`] otherwise).
    pub fn reduced_initial_state(&self) -> StateVec {
        if self.conservative && self.dim() > 1 {
            StateVec::from(self.resolved.init[..self.dim() - 1].to_vec())
        } else {
            self.initial_state()
        }
    }

    /// Integer initial counts for a population of size `scale`: each
    /// fraction is rounded as `init_i · scale` (so `counts / scale`
    /// matches [`CompiledModel::initial_state`] as closely as possible);
    /// for conservative models the rounding remainder is absorbed by the
    /// last species so the counts sum to `total · scale`.
    pub fn initial_counts(&self, scale: usize) -> Vec<i64> {
        let mut counts: Vec<i64> = self
            .resolved
            .init
            .iter()
            .map(|f| (f * scale as f64).round() as i64)
            .collect();
        if self.conservative {
            let last = counts.len() - 1;
            let assigned: i64 = counts[..last].iter().sum();
            counts[last] = ((self.total * scale as f64).round() as i64 - assigned).max(0);
        }
        counts
    }

    /// The resolved rules (name, jump vector, compiled rate expression), in
    /// declaration order.
    pub fn rules(&self) -> &[ResolvedRule] {
        &self.resolved.rules
    }

    /// Builds the finite-`N` population backend.
    ///
    /// Every rule's rate expression is lowered to a flat
    /// [`RateProgram`], so the simulator evaluates
    /// bytecode (or a mass-action fast path) instead of walking the
    /// expression tree, and each transition reports its species support for
    /// the dependency-graph Gillespie path.
    ///
    /// # Errors
    ///
    /// Propagates builder failures from `mfu-ctmc` as
    /// [`LangError::Backend`] (none are expected for a validated model).
    pub fn population_model(&self) -> Result<PopulationModel, LangError> {
        let mut builder = PopulationModel::builder(self.dim(), self.resolved.param_space.clone())
            .variable_names(self.resolved.species.clone());
        for rule in &self.resolved.rules {
            builder = builder.transition(TransitionClass::compiled(
                rule.name.clone(),
                StateVec::from(rule.change.clone()),
                Arc::new(RateProgram::compile(&rule.rate)),
            ));
        }
        Ok(builder.build()?)
    }

    /// The drift and start state that bound `coordinate` of the full state:
    /// the reduced ones ([`CompiledModel::reduced_drift`]), unless the
    /// coordinate is a conservative model's eliminated last species, which
    /// only the full drift carries. The reduced drift serves every
    /// coordinate below its dimension, so bounding all coordinates needs
    /// at most two drifts.
    pub fn bounding_drift(&self, coordinate: usize) -> (DslDrift, StateVec) {
        let x0 = self.reduced_initial_state();
        if coordinate < x0.dim() {
            (self.reduced_drift(), x0)
        } else {
            (self.drift(), self.initial_state())
        }
    }

    /// The full-dimensional mean-field drift backend.
    pub fn drift(&self) -> DslDrift {
        DslDrift::assemble(self.resolved.rules.clone(), self.dim(), self.clone(), false)
    }

    /// The reduced mean-field drift: for conservative models the last
    /// species is eliminated via `x_last = total − Σ x_i`; otherwise the
    /// full drift is returned.
    ///
    /// The elimination happens at compile time: every rate expression has
    /// its `x_last` references rewritten to `total − Σ_{i<last} x_i` and
    /// the jump vectors are truncated, so reduced evaluation allocates
    /// nothing per call.
    pub fn reduced_drift(&self) -> DslDrift {
        let full_dim = self.dim();
        if !(self.conservative && full_dim > 1) {
            let mut drift = self.drift();
            drift.reduced = false;
            return drift;
        }
        let last = full_dim - 1;
        // total − (x_0 + x_1 + … + x_{last−1}), summed in declaration
        // order so the arithmetic matches the full-state evaluation bit
        // for bit.
        let mut leading_sum = CompiledExpr::Species(0);
        for i in 1..last {
            leading_sum =
                CompiledExpr::Add(Box::new(leading_sum), Box::new(CompiledExpr::Species(i)));
        }
        let replacement = CompiledExpr::Sub(
            Box::new(CompiledExpr::Const(self.total)),
            Box::new(leading_sum),
        );
        let rules = self
            .resolved
            .rules
            .iter()
            .map(|rule| ResolvedRule {
                name: rule.name.clone(),
                change: rule.change[..last].to_vec(),
                rate: rule.rate.substitute_species(last, &replacement),
            })
            .collect();
        DslDrift::assemble(rules, last, self.clone(), true)
    }
}

/// [`ImpreciseDrift`] implementation backed by compiled DSL rules.
///
/// Created by [`CompiledModel::drift`] or [`CompiledModel::reduced_drift`].
/// The rule rates are lowered once to a [`ProgramSet`]; every
/// [`ImpreciseDrift::drift_into`] call evaluates all of them in a single VM
/// pass over a shared scratch register file, with no per-call allocation.
#[derive(Debug, Clone)]
pub struct DslDrift {
    /// Rules specialised to this drift's coordinates (rates rewritten and
    /// jump vectors truncated when reduced).
    rules: Vec<ResolvedRule>,
    /// The rule rates lowered to flat programs, in rule order.
    programs: ProgramSet,
    dim: usize,
    model: CompiledModel,
    reduced: bool,
}

impl DslDrift {
    fn assemble(rules: Vec<ResolvedRule>, dim: usize, model: CompiledModel, reduced: bool) -> Self {
        let programs = ProgramSet::new(
            rules
                .iter()
                .map(|r| RateProgram::compile(&r.rate))
                .collect(),
        );
        DslDrift {
            rules,
            programs,
            dim,
            model,
            reduced,
        }
    }

    /// Whether this drift runs in reduced (last species eliminated)
    /// coordinates.
    pub fn is_reduced(&self) -> bool {
        self.reduced
    }

    /// The compiled model this drift evaluates.
    pub fn model(&self) -> &CompiledModel {
        &self.model
    }

    /// The lowered rate programs, in rule order.
    pub fn programs(&self) -> &ProgramSet {
        &self.programs
    }

    /// The rules this drift evaluates (rates rewritten and jump vectors
    /// truncated when reduced), in declaration order.
    pub fn rules(&self) -> &[ResolvedRule] {
        &self.rules
    }
}

impl ImpreciseDrift for DslDrift {
    fn dim(&self) -> usize {
        self.dim
    }

    fn params(&self) -> &ParamSpace {
        &self.model.resolved.param_space
    }

    fn drift_into(&self, x: &StateVec, theta: &[f64], out: &mut StateVec) {
        out.fill_zero();
        let rules = &self.rules;
        self.programs.eval_each(x, theta, |k, r| {
            if r != 0.0 {
                for (o, c) in out.as_mut_slice().iter_mut().zip(rules[k].change.iter()) {
                    *o += r * c;
                }
            }
        });
    }

    fn drift_batch_into(&self, x: &SoaBatch, theta: &BatchTheta<'_>, out: &mut SoaBatch) {
        assert_eq!(x.rows(), self.dim, "state batch dimension mismatch");
        let width = x.width();
        out.reset(self.dim, width);
        // One batched VM pass computes every rule rate for every lane
        // (rule-major rows), then the jump accumulation runs per lane in rule
        // order with the same `r != 0` guard as the scalar path, so each
        // output coordinate sees the identical sequence of `+= r * c`
        // additions as a scalar `drift_into` on that lane. The guard is a
        // select rather than a branch so the lane loop vectorises; zero
        // entries of `change` still add `r · 0`, which turns a non-finite
        // rate into NaN exactly as the scalar path does.
        let len = self.rules.len() * width;
        let mut buffer = RATE_ROWS.take();
        if buffer.len() < len {
            buffer.resize(len, 0.0);
        }
        let rates = &mut buffer[..len];
        self.programs.eval_batch_into(x, *theta, rates);
        for (k, rule) in self.rules.iter().enumerate() {
            let row = &rates[k * width..(k + 1) * width];
            for (i, &c) in rule.change.iter().enumerate() {
                let out_row = out.row_mut(i);
                for (o, &r) in out_row.iter_mut().zip(row.iter()) {
                    *o = if r != 0.0 { *o + r * c } else { *o };
                }
            }
        }
        RATE_ROWS.set(buffer);
    }
}

thread_local! {
    /// This thread's rule-rate rows of [`DslDrift::drift_batch_into`], kept
    /// between calls: the batched VM overwrites every row before it is
    /// read, so the buffer is only ever grown, never cleared. A nested call
    /// would find it taken and start an empty one.
    static RATE_ROWS: Cell<Vec<f64>> = const { Cell::new(Vec::new()) };
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile;

    const SIR: &str = "model sir;
species S, I, R;
param contact in [1, 10];
const a = 0.1;
const b = 5;
const c = 1;
rule infect: S -> I @ (a + contact * I) * S;
rule recover: I -> R @ b * I;
rule wane: R -> S @ c * R;
init S = 0.7, I = 0.3, R = 0;
";

    #[test]
    fn population_and_drift_backends_agree() {
        let model = compile(SIR).unwrap();
        let population = model.population_model().unwrap();
        let drift = model.drift();
        let x = StateVec::from([0.6, 0.3, 0.1]);
        for theta in [1.0, 4.2, 10.0] {
            let a = population.drift(&x, &[theta]).unwrap();
            let b = drift.drift(&x, &[theta]);
            for k in 0..3 {
                assert!((a[k] - b[k]).abs() < 1e-15, "coordinate {k} at ϑ = {theta}");
            }
        }
    }

    #[test]
    fn batched_dsl_drift_matches_scalar_bit_for_bit() {
        let model = compile(SIR).unwrap();
        for drift in [model.drift(), model.reduced_drift()] {
            let dim = drift.dim();
            let states: Vec<Vec<f64>> = (0..5)
                .map(|l| (0..dim).map(|i| 0.05 + 0.11 * (l + i) as f64).collect())
                .collect();
            let thetas: Vec<Vec<f64>> = (0..5).map(|l| vec![1.0 + 1.7 * l as f64]).collect();
            let x = SoaBatch::from_lanes(&states);
            let th = SoaBatch::from_lanes(&thetas);
            let mut out = SoaBatch::default();
            drift.drift_batch_into(&x, &BatchTheta::PerLane(&th), &mut out);
            for (l, state) in states.iter().enumerate() {
                let scalar = drift.drift(&StateVec::from(state.clone()), &thetas[l]);
                for i in 0..dim {
                    assert_eq!(
                        out.get(i, l).to_bits(),
                        scalar[i].to_bits(),
                        "coordinate {i} of lane {l}"
                    );
                }
            }
            let mut shared_out = SoaBatch::default();
            drift.drift_batch_into(&x, &BatchTheta::Shared(&[4.2]), &mut shared_out);
            for (l, state) in states.iter().enumerate() {
                let scalar = drift.drift(&StateVec::from(state.clone()), &[4.2]);
                for i in 0..dim {
                    assert_eq!(shared_out.get(i, l).to_bits(), scalar[i].to_bits());
                }
            }
        }
    }

    #[test]
    fn reduced_drift_eliminates_the_last_species() {
        let model = compile(SIR).unwrap();
        assert!(model.is_conservative());
        let full = model.drift();
        let reduced = model.reduced_drift();
        assert_eq!(full.dim(), 3);
        assert_eq!(reduced.dim(), 2);
        assert!(reduced.is_reduced());
        let xr = StateVec::from([0.6, 0.3]);
        let xf = StateVec::from([0.6, 0.3, 0.1]);
        for theta in [1.0, 5.5, 10.0] {
            let a = full.drift(&xf, &[theta]);
            let b = reduced.drift(&xr, &[theta]);
            assert!((a[0] - b[0]).abs() < 1e-15);
            assert!((a[1] - b[1]).abs() < 1e-15);
        }
    }

    #[test]
    fn bounding_drifts_switch_only_for_the_eliminated_species() {
        let model = compile(SIR).unwrap();
        for coordinate in 0..2 {
            let (drift, x0) = model.bounding_drift(coordinate);
            assert!(drift.is_reduced());
            assert_eq!(x0, model.reduced_initial_state());
        }
        let (drift, x0) = model.bounding_drift(2);
        assert!(!drift.is_reduced());
        assert_eq!(drift.dim(), 3);
        assert_eq!(x0, model.initial_state());
    }

    #[test]
    fn a_parameter_box_override_rides_on_the_model() {
        let model = compile(SIR).unwrap();
        let narrow = ParamSpace::single("contact", 2.0, 3.0).unwrap();
        let (drift, _) = model.with_params(narrow.clone()).unwrap().bounding_drift(0);
        assert_eq!(drift.params(), &narrow);
        // the rates are the model's own
        let x = StateVec::from([0.6, 0.3]);
        assert_eq!(
            drift.drift(&x, &[2.5]),
            model.reduced_drift().drift(&x, &[2.5])
        );
        let renamed = ParamSpace::single("beta", 2.0, 3.0).unwrap();
        assert!(matches!(
            model.with_params(renamed),
            Err(LangError::Backend(_))
        ));
    }

    #[test]
    fn nonconservative_models_keep_full_dimension() {
        let model = compile(
            "model open; species X; param r in [0.5, 2];
             rule birth: 0 -> X @ r; rule death: X -> 0 @ X;
             init X = 0.2;",
        )
        .unwrap();
        assert!(!model.is_conservative());
        let reduced = model.reduced_drift();
        assert_eq!(reduced.dim(), 1);
        assert!(!reduced.is_reduced());
    }

    #[test]
    fn initial_conditions_and_counts() {
        let model = compile(SIR).unwrap();
        assert_eq!(model.initial_state().as_slice(), &[0.7, 0.3, 0.0]);
        assert_eq!(model.reduced_initial_state().as_slice(), &[0.7, 0.3]);
        assert!((model.total_mass() - 1.0).abs() < 1e-12);
        for scale in [10usize, 100, 999] {
            let counts = model.initial_counts(scale);
            assert_eq!(counts.iter().sum::<i64>(), scale as i64, "scale {scale}");
            assert!(counts.iter().all(|&c| c >= 0));
        }
    }

    #[test]
    fn initial_counts_track_fractions_for_nonconservative_models() {
        // Regression: counts must normalise against `scale`, not against the
        // model's total mass — otherwise a non-conservative model starting at
        // x = 0.2 would be simulated from x = 1.0.
        let model = compile(
            "model open; species X; param r in [0.5, 2];
             rule birth: 0 -> X @ r; rule death: X -> 0 @ X;
             init X = 0.2;",
        )
        .unwrap();
        assert_eq!(model.initial_counts(1000), vec![200]);
    }

    #[test]
    fn initial_counts_respect_nonunit_total_mass() {
        // A conservative model whose init block sums to 2: the last species
        // absorbs the remainder against total · scale.
        let model = compile(
            "model pair; species X, Y; param r in [0.5, 2];
             rule swap: X -> Y @ r * X; rule back: Y -> X @ Y;
             init X = 0.5, Y = 1.5;",
        )
        .unwrap();
        let counts = model.initial_counts(100);
        assert_eq!(counts, vec![50, 150]);
        assert_eq!(counts.iter().sum::<i64>(), 200);
    }

    #[test]
    fn extremal_theta_matches_affine_structure() {
        // ẋ_I is increasing in the contact rate at interior states, so the
        // maximising vertex must be the upper bound.
        let model = compile(SIR).unwrap();
        let drift = model.reduced_drift();
        let x = StateVec::from([0.6, 0.2]);
        let (theta, _) = mfu_core::drift::extremal_theta(&drift, &x, &StateVec::from([0.0, 1.0]));
        assert_eq!(theta, vec![10.0]);
    }
}
