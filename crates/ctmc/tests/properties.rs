//! Property-based tests for the CTMC and population-process layer.

use mfu_ctmc::finite::{ExpansionOptions, FiniteChain};
use mfu_ctmc::generator::GeneratorMatrix;
use mfu_ctmc::imprecise::IntervalGenerator;
use mfu_ctmc::params::{Interval, ParamSpace};
use mfu_ctmc::population::PopulationModel;
use mfu_ctmc::transition::TransitionClass;
use mfu_num::StateVec;
use proptest::prelude::*;

/// A random birth–death generator on `n` states.
fn birth_death(n: usize, up: &[f64], down: &[f64]) -> GeneratorMatrix {
    let mut q = GeneratorMatrix::new(n);
    for i in 0..n - 1 {
        q.set_rate(i, i + 1, up[i]).unwrap();
        q.set_rate(i + 1, i, down[i]).unwrap();
    }
    q
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Rows of a generator always sum to zero, whatever rates are set.
    #[test]
    fn generator_rows_sum_to_zero(up in prop::collection::vec(0.01..5.0f64, 4), down in prop::collection::vec(0.01..5.0f64, 4)) {
        let q = birth_death(5, &up, &down);
        for i in 0..5 {
            let row_sum: f64 = (0..5).map(|j| q.rate(i, j)).sum();
            prop_assert!(row_sum.abs() < 1e-12);
        }
    }

    /// Uniformization preserves probability mass and non-negativity at any horizon.
    #[test]
    fn transient_distribution_is_a_distribution(
        up in prop::collection::vec(0.01..5.0f64, 4),
        down in prop::collection::vec(0.01..5.0f64, 4),
        t in 0.0..20.0f64,
    ) {
        let q = birth_death(5, &up, &down);
        let p = q.transient_distribution(&[1.0, 0.0, 0.0, 0.0, 0.0], t, 1e-10).unwrap();
        prop_assert!((p.iter().sum::<f64>() - 1.0).abs() < 1e-8);
        prop_assert!(p.iter().all(|&v| v >= -1e-12));
    }

    /// The stationary distribution is (numerically) invariant under a further
    /// transient step.
    #[test]
    fn stationary_distribution_is_invariant(
        up in prop::collection::vec(0.05..3.0f64, 3),
        down in prop::collection::vec(0.05..3.0f64, 3),
    ) {
        let q = birth_death(4, &up, &down);
        let pi = q.stationary_distribution(1e-12, 2_000_000).unwrap();
        let after = q.transient_distribution(&pi, 1.0, 1e-10).unwrap();
        for (a, b) in pi.iter().zip(after.iter()) {
            prop_assert!((a - b).abs() < 1e-6);
        }
    }

    /// Every vertex and the midpoint of a parameter box lie inside it.
    #[test]
    fn param_space_vertices_and_midpoint_stay_inside(
        lo1 in -5.0..5.0f64, w1 in 0.0..5.0f64,
        lo2 in -5.0..5.0f64, w2 in 0.0..5.0f64,
    ) {
        let space = ParamSpace::new(vec![
            ("a", Interval::new(lo1, lo1 + w1).unwrap()),
            ("b", Interval::new(lo2, lo2 + w2).unwrap()),
        ])
        .unwrap();
        for vertex in space.vertices() {
            prop_assert!(space.contains(&vertex));
        }
        prop_assert!(space.contains(&space.midpoint()));
    }

    /// The drift of a conservative population model sums to zero for every
    /// state and parameter (mass conservation).
    #[test]
    fn conservative_model_drift_sums_to_zero(s in 0.0..1.0f64, i in 0.0..1.0f64, theta in 1.0..10.0f64) {
        let i = i * (1.0 - s);
        let params = ParamSpace::single("contact", 1.0, 10.0).unwrap();
        let model = PopulationModel::builder(3, params)
            .transition(TransitionClass::new("infect", [-1.0, 1.0, 0.0], |x: &StateVec, th: &[f64]| {
                th[0] * x[0] * x[1]
            }))
            .transition(TransitionClass::new("recover", [0.0, -1.0, 1.0], |x: &StateVec, _| 5.0 * x[1]))
            .transition(TransitionClass::new("wane", [1.0, 0.0, -1.0], |x: &StateVec, _| x[2]))
            .build()
            .unwrap();
        let x = StateVec::from([s, i, 1.0 - s - i]);
        let drift = model.drift(&x, &[theta]).unwrap();
        prop_assert!(drift.sum().abs() < 1e-12);
    }

    /// The finite expansion of the bike station always yields exactly
    /// `capacity + 1` states with a stationary distribution that sums to one.
    #[test]
    fn bike_expansion_enumerates_all_levels(capacity in 2usize..25, start in 0usize..25, pickup in 0.2..2.0f64, ret in 0.2..2.0f64) {
        let start = start.min(capacity) as i64;
        let params = ParamSpace::new(vec![
            ("pickup", Interval::new(0.1, 2.0).unwrap()),
            ("return", Interval::new(0.1, 2.0).unwrap()),
        ])
        .unwrap();
        let model = PopulationModel::builder(1, params)
            .transition(TransitionClass::new("pickup", [-1.0], |x: &StateVec, th: &[f64]| {
                if x[0] > 0.0 { th[0] } else { 0.0 }
            }))
            .transition(TransitionClass::new("return", [1.0], |x: &StateVec, th: &[f64]| {
                if x[0] < 1.0 { th[1] } else { 0.0 }
            }))
            .build()
            .unwrap();
        let chain = FiniteChain::expand(&model, capacity, &[start], &[pickup, ret], &ExpansionOptions::default()).unwrap();
        prop_assert_eq!(chain.len(), capacity + 1);
        let pi = chain.generator().stationary_distribution(1e-10, 2_000_000).unwrap();
        prop_assert!((pi.iter().sum::<f64>() - 1.0).abs() < 1e-8);
    }

    /// Imprecise Kolmogorov bounds always bracket the midpoint chain's exact
    /// transient distribution.
    #[test]
    fn interval_generator_bounds_bracket_midpoint_chain(
        lo in 0.5..1.5f64,
        extra in 0.0..1.5f64,
        back in 0.5..2.0f64,
        t in 0.05..1.0f64,
    ) {
        let mut iq = IntervalGenerator::new(3);
        iq.set_rate_bounds(0, 1, lo, lo + extra).unwrap();
        iq.set_rate_bounds(1, 2, lo, lo + extra).unwrap();
        iq.set_rate_bounds(1, 0, back, back).unwrap();
        iq.set_rate_bounds(2, 1, back, back).unwrap();
        let exact = iq.midpoint_generator().transient_distribution(&[1.0, 0.0, 0.0], t, 1e-10).unwrap();
        let (lower, upper) = iq.transient_bounds(&[1.0, 0.0, 0.0], t, 1e-4).unwrap();
        for s in 0..3 {
            prop_assert!(lower[s] <= exact[s] + 2e-3);
            prop_assert!(upper[s] >= exact[s] - 2e-3);
        }
    }
}
