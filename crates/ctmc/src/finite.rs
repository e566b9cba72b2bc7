//! Explicit state-space expansion of population models.
//!
//! For a *finite* population size `N` and a *fixed* parameter `ϑ`, a
//! population model is an ordinary finite CTMC whose states are the count
//! vectors reachable from the initial counts. This module enumerates that
//! chain and produces a [`GeneratorMatrix`], which lets us compute exact
//! transient and stationary distributions on small instances and validate
//! the stochastic simulator and the mean-field approximation against them —
//! the same role the `N = 100 / 1000 / 10000` comparisons play in Figure 6 of
//! the paper, but with exact numerics instead of sampling.

use std::collections::{HashMap, VecDeque};

use mfu_num::StateVec;

use crate::generator::GeneratorMatrix;
use crate::population::PopulationModel;
use crate::{CtmcError, Result};

/// Transition rates at or below this threshold are treated as structurally
/// zero by the expansion.
const RATE_CUTOFF: f64 = 1e-12;

/// Options controlling the breadth-first state-space expansion.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ExpansionOptions {
    /// Hard cap on the number of enumerated states.
    pub max_states: usize,
}

impl Default for ExpansionOptions {
    fn default() -> Self {
        ExpansionOptions {
            max_states: 200_000,
        }
    }
}

/// A finite CTMC obtained by expanding a population model at scale `N`.
#[derive(Debug, Clone)]
pub struct FiniteChain {
    scale: usize,
    states: Vec<Vec<i64>>,
    index: HashMap<Vec<i64>, usize>,
    generator: GeneratorMatrix,
    initial: usize,
}

impl FiniteChain {
    /// Expands the chain reachable from `initial_counts` under parameter `theta`.
    ///
    /// `initial_counts` are integer counts (they sum to `N` for conservative
    /// models, but this is not required); `theta` is a fixed parameter value,
    /// i.e. the chain of the *uncertain* scenario for one candidate `ϑ`.
    ///
    /// # Errors
    ///
    /// Returns an error if dimensions are inconsistent, a rate evaluates to a
    /// negative or non-finite value, or the expansion exceeds
    /// [`ExpansionOptions::max_states`].
    pub fn expand(
        model: &PopulationModel,
        scale: usize,
        initial_counts: &[i64],
        theta: &[f64],
        options: &ExpansionOptions,
    ) -> Result<Self> {
        if scale == 0 {
            return Err(CtmcError::invalid_parameter(
                "population scale must be positive",
            ));
        }
        if initial_counts.len() != model.dim() {
            return Err(CtmcError::DimensionMismatch {
                expected: model.dim(),
                found: initial_counts.len(),
            });
        }
        if theta.len() != model.params().dim() {
            return Err(CtmcError::DimensionMismatch {
                expected: model.params().dim(),
                found: theta.len(),
            });
        }

        // Pre-convert the jump vectors to integers once.
        let jumps: Vec<Vec<i64>> = model
            .transitions()
            .iter()
            .map(|t| t.change().iter().map(|&v| v.round() as i64).collect())
            .collect();

        let mut states: Vec<Vec<i64>> = Vec::new();
        let mut index: HashMap<Vec<i64>, usize> = HashMap::new();
        let mut queue: VecDeque<usize> = VecDeque::new();
        // edges as (from, to, rate)
        let mut edges: Vec<(usize, usize, f64)> = Vec::new();

        let initial_vec = initial_counts.to_vec();
        index.insert(initial_vec.clone(), 0);
        states.push(initial_vec);
        queue.push_back(0);

        while let Some(current) = queue.pop_front() {
            let counts = states[current].clone();
            let x: StateVec = counts.iter().map(|&c| c as f64 / scale as f64).collect();
            for (class, jump) in model.transitions().iter().zip(jumps.iter()) {
                let density = class.rate(&x, theta);
                if !density.is_finite() || density < 0.0 {
                    return Err(CtmcError::InvalidRate {
                        transition: class.name().to_string(),
                        rate: density,
                    });
                }
                let rate = density * scale as f64;
                if rate <= RATE_CUTOFF {
                    continue;
                }
                let target: Vec<i64> = counts.iter().zip(jump.iter()).map(|(c, j)| c + j).collect();
                if target.iter().any(|&c| c < 0) {
                    // A structurally impossible jump whose rate did not vanish
                    // exactly (e.g. through floating-point noise at the
                    // boundary); skip it rather than creating negative counts.
                    continue;
                }
                let target_idx = match index.get(&target) {
                    Some(&i) => i,
                    None => {
                        if states.len() >= options.max_states {
                            return Err(CtmcError::StateSpaceTooLarge {
                                limit: options.max_states,
                            });
                        }
                        let i = states.len();
                        index.insert(target.clone(), i);
                        states.push(target);
                        queue.push_back(i);
                        i
                    }
                };
                edges.push((current, target_idx, rate));
            }
        }

        let mut generator = GeneratorMatrix::new(states.len());
        for (from, to, rate) in edges {
            if from != to {
                generator.add_rate(from, to, rate)?;
            }
        }

        Ok(FiniteChain {
            scale,
            states,
            index,
            generator,
            initial: 0,
        })
    }

    /// The population scale `N` used for the expansion.
    pub fn scale(&self) -> usize {
        self.scale
    }

    /// Number of enumerated states.
    pub fn len(&self) -> usize {
        self.states.len()
    }

    /// Always `false`: the initial state is always present.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// The enumerated count vectors.
    pub fn states(&self) -> &[Vec<i64>] {
        &self.states
    }

    /// The exact generator of the expanded chain.
    pub fn generator(&self) -> &GeneratorMatrix {
        &self.generator
    }

    /// Index of a count vector, if it was reached during the expansion.
    pub fn index_of(&self, counts: &[i64]) -> Option<usize> {
        self.index.get(counts).copied()
    }

    /// Normalised (density) state of the `i`-th enumerated state.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn normalized_state(&self, i: usize) -> StateVec {
        self.states[i]
            .iter()
            .map(|&c| c as f64 / self.scale as f64)
            .collect()
    }

    /// The Dirac initial distribution concentrated on the expansion's seed state.
    pub fn initial_distribution(&self) -> Vec<f64> {
        let mut p = vec![0.0; self.len()];
        p[self.initial] = 1.0;
        p
    }

    /// Mean of the normalised state under a distribution over the chain's states.
    ///
    /// # Errors
    ///
    /// Returns an error if the distribution length does not match the chain.
    pub fn mean_normalized(&self, distribution: &[f64]) -> Result<StateVec> {
        if distribution.len() != self.len() {
            return Err(CtmcError::DimensionMismatch {
                expected: self.len(),
                found: distribution.len(),
            });
        }
        let dim = self.states[0].len();
        let mut mean = StateVec::zeros(dim);
        for (p, counts) in distribution.iter().zip(self.states.iter()) {
            for (k, &c) in counts.iter().enumerate() {
                mean[k] += p * c as f64 / self.scale as f64;
            }
        }
        Ok(mean)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::{Interval, ParamSpace};
    use crate::transition::TransitionClass;

    /// Single-station bike-sharing model: one variable counting available bikes,
    /// capacity = scale N.
    fn bike_model() -> PopulationModel {
        let params = ParamSpace::new(vec![
            ("arrival", Interval::new(0.5, 1.5).unwrap()),
            ("return", Interval::new(0.5, 1.5).unwrap()),
        ])
        .unwrap();
        PopulationModel::builder(1, params)
            .variable_names(vec!["bikes"])
            .transition(TransitionClass::new(
                "pickup",
                [-1.0],
                |x: &StateVec, th: &[f64]| {
                    if x[0] > 0.0 {
                        th[0]
                    } else {
                        0.0
                    }
                },
            ))
            .transition(TransitionClass::new(
                "return",
                [1.0],
                |x: &StateVec, th: &[f64]| {
                    if x[0] < 1.0 {
                        th[1]
                    } else {
                        0.0
                    }
                },
            ))
            .build()
            .unwrap()
    }

    #[test]
    fn bike_station_expands_to_birth_death_chain() {
        let model = bike_model();
        let chain = FiniteChain::expand(&model, 5, &[2], &[1.0, 1.0], &ExpansionOptions::default())
            .unwrap();
        // all levels 0..=5 are reachable
        assert_eq!(chain.len(), 6);
        assert_eq!(chain.scale(), 5);
        assert!(chain.index_of(&[0]).is_some());
        assert!(chain.index_of(&[5]).is_some());
        assert!(chain.index_of(&[6]).is_none());
        // symmetric rates => uniform stationary distribution
        let pi = chain
            .generator()
            .stationary_distribution(1e-12, 1_000_000)
            .unwrap();
        for &p in &pi {
            assert!((p - 1.0 / 6.0).abs() < 1e-8, "{pi:?}");
        }
    }

    #[test]
    fn asymmetric_rates_give_geometric_occupancy() {
        let model = bike_model();
        // arrivals (pickups) twice as fast as returns => station drains
        let chain = FiniteChain::expand(&model, 4, &[2], &[2.0, 1.0], &ExpansionOptions::default())
            .unwrap();
        let pi = chain
            .generator()
            .stationary_distribution(1e-13, 1_000_000)
            .unwrap();
        // birth-death chain with down-rate 2 and up-rate 1: π_k ∝ (1/2)^k
        let idx0 = chain.index_of(&[0]).unwrap();
        let idx1 = chain.index_of(&[1]).unwrap();
        assert!(pi[idx0] > pi[idx1]);
        assert!((pi[idx1] / pi[idx0] - 0.5).abs() < 1e-6);
    }

    #[test]
    fn mean_normalized_matches_hand_computation() {
        let model = bike_model();
        let chain = FiniteChain::expand(&model, 2, &[1], &[1.0, 1.0], &ExpansionOptions::default())
            .unwrap();
        assert_eq!(chain.len(), 3);
        let uniform = vec![1.0 / 3.0; 3];
        let mean = chain.mean_normalized(&uniform).unwrap();
        // states are 0, 1, 2 bikes out of N = 2 → densities 0, 0.5, 1
        assert!((mean[0] - 0.5).abs() < 1e-12);
        assert!(chain.mean_normalized(&[1.0]).is_err());
    }

    #[test]
    fn initial_distribution_is_dirac() {
        let model = bike_model();
        let chain = FiniteChain::expand(&model, 3, &[1], &[1.0, 1.0], &ExpansionOptions::default())
            .unwrap();
        let p0 = chain.initial_distribution();
        assert_eq!(p0.iter().filter(|&&v| v > 0.0).count(), 1);
        assert_eq!(p0[chain.index_of(&[1]).unwrap()], 1.0);
    }

    #[test]
    fn expansion_respects_state_limit() {
        let model = bike_model();
        let options = ExpansionOptions { max_states: 3 };
        let res = FiniteChain::expand(&model, 100, &[50], &[1.0, 1.0], &options);
        assert!(matches!(res, Err(CtmcError::StateSpaceTooLarge { .. })));
    }

    #[test]
    fn expansion_validates_inputs() {
        let model = bike_model();
        let options = ExpansionOptions::default();
        assert!(FiniteChain::expand(&model, 0, &[1], &[1.0, 1.0], &options).is_err());
        assert!(FiniteChain::expand(&model, 3, &[1, 2], &[1.0, 1.0], &options).is_err());
        assert!(FiniteChain::expand(&model, 3, &[1], &[1.0], &options).is_err());
    }

    #[test]
    fn normalized_state_divides_by_scale() {
        let model = bike_model();
        let chain = FiniteChain::expand(&model, 4, &[2], &[1.0, 1.0], &ExpansionOptions::default())
            .unwrap();
        let idx = chain.index_of(&[3]).unwrap();
        assert!((chain.normalized_state(idx)[0] - 0.75).abs() < 1e-12);
    }
}
