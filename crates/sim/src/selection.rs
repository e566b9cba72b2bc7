//! Transition selection: which transition fires, given the roulette target.
//!
//! After the waiting time of an SSA event is drawn, the simulator must pick
//! the firing transition with probability proportional to its propensity.
//! The textbook *linear scan* walks the rate array subtracting rates from a
//! uniform target — `O(K)` per event, which dominates the per-event cost of
//! generated models with hundreds of rules once propensity *maintenance* is
//! already `O(affected)` (see the dependency graph in
//! [`gillespie`](crate::gillespie)). The transition count `K` fixes which
//! of two selectors a run uses ([`SelectorKind::for_transitions`]):
//!
//! * [`linear_select`] — the index-order scan, for `K ≤ 64`, where its
//!   cache-friendly pass beats tree pointer chasing;
//! * [`SumTree`] — a binary partial-sum tree over the rate array, for
//!   larger `K`: `O(log K)` per update and per sample (Gibson & Bruck's
//!   indexed next-reaction bookkeeping, specialised to the direct method).
//!
//! # Exactness and ulp policy
//!
//! Both selectors draw from the same discrete distribution `P(k) ∝ rate_k`
//! up to floating-point rounding of partial sums, and both consume exactly
//! one uniform draw per event; they differ only in *which* rounding they
//! commit to:
//!
//! * [`linear_select`] subtracts rates in index order.
//! * [`SumTree`] compares the target against subtree sums instead of index-
//!   order prefixes. Whenever every involved partial sum is exactly
//!   representable (e.g. integer or dyadic rates) the selected index equals
//!   the linear scan's; otherwise the two may disagree on targets falling
//!   inside an ulp-wide window around a prefix-sum boundary.
//!
//! Both share one boundary guarantee: a transition with rate exactly `0.0`
//! is never selected (the scan falls back to the last positive rate, the
//! tree never descends into an all-zero subtree).

use rand::Rng;
use rand::RngCore;

/// Largest transition count for which a run keeps the linear scan. Exact
/// runs on one core of a 2-vCPU x86-64 host: the scan leads at `K = 48`
/// (161 vs 179 ns/event) and still at `K = 120` (389 vs 433); the tree
/// leads from `K = 200` (326 vs 434).
const LINEAR_MAX: usize = 64;

/// Which selector a run uses: fixed by the transition count for the exact
/// engine, always [`SelectorKind::Linear`] for τ-leap fallback bursts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SelectorKind {
    /// The `O(K)` index-order roulette scan ([`linear_select`]).
    Linear,
    /// The `O(log K)` partial-sum tree ([`SumTree`]).
    Tree,
}

impl SelectorKind {
    /// The selector of a model with `n_transitions` transitions: the scan
    /// up to 64 transitions, the tree above.
    #[must_use]
    pub fn for_transitions(n_transitions: usize) -> SelectorKind {
        if n_transitions <= LINEAR_MAX {
            SelectorKind::Linear
        } else {
            SelectorKind::Tree
        }
    }
}

impl std::fmt::Display for SelectorKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            SelectorKind::Linear => "linear",
            SelectorKind::Tree => "tree",
        })
    }
}

/// Index-order roulette selection: returns the first `k` with
/// `target < Σ_{i≤k} rate_i` under sequential subtraction.
///
/// When `target` overshoots the reachable prefix sums (the rounding of the
/// sequential subtraction can leave it at or above the last rates), the
/// scan falls back to the **last positive-rate** transition instead of
/// blindly firing the final array entry — firing a rate-`0.0` (impossible)
/// transition was the historical fallthrough bug. Returns `None` only when
/// every rate is zero.
pub fn linear_select(rates: &[f64], mut target: f64) -> Option<usize> {
    let mut fallback = None;
    for (k, &r) in rates.iter().enumerate() {
        if target < r {
            return Some(k);
        }
        if r > 0.0 {
            fallback = Some(k);
        }
        target -= r;
    }
    fallback
}

/// A binary partial-sum tree over a fixed-length rate array.
///
/// Leaves hold the rates; every internal node holds the sum of its
/// children. Point updates and roulette sampling both walk one root-leaf
/// path, so they cost `O(log K)`. The tree never selects a zero-rate leaf:
/// the descent refuses to enter an all-zero subtree, which doubles as the
/// overshoot fallback (a drifted target ends at the rightmost positive
/// leaf).
#[derive(Debug, Clone)]
pub struct SumTree {
    /// Number of live leaves (the transition count).
    len: usize,
    /// Leaf capacity: `len` rounded up to a power of two.
    cap: usize,
    /// Heap-ordered nodes: root at `1`, leaf `k` at `cap + k`.
    node: Vec<f64>,
}

impl SumTree {
    /// Creates an all-zero tree over `len` rates.
    ///
    /// # Panics
    ///
    /// Panics if `len == 0`.
    pub fn new(len: usize) -> Self {
        assert!(len > 0, "a sum tree needs at least one leaf");
        let cap = len.next_power_of_two();
        SumTree {
            len,
            cap,
            node: vec![0.0; 2 * cap],
        }
    }

    /// Number of rates the tree indexes.
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` when the tree has no leaves (never, by construction).
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The root sum (the tree's own rounding of the total propensity).
    pub fn total(&self) -> f64 {
        self.node[1]
    }

    /// Reloads every leaf from `rates` and recomputes all internal sums in
    /// `O(K)`.
    ///
    /// # Panics
    ///
    /// Panics if `rates.len()` differs from the tree length.
    pub fn rebuild(&mut self, rates: &[f64]) {
        assert_eq!(rates.len(), self.len, "rate array length changed");
        self.node[self.cap..self.cap + self.len].copy_from_slice(rates);
        for i in (1..self.cap).rev() {
            self.node[i] = self.node[2 * i] + self.node[2 * i + 1];
        }
    }

    /// Sets leaf `k` to `rate` and refreshes the sums on its root path.
    ///
    /// # Panics
    ///
    /// Panics if `k` is out of range.
    pub fn update(&mut self, k: usize, rate: f64) {
        assert!(k < self.len, "leaf index out of range");
        let mut i = self.cap + k;
        self.node[i] = rate;
        while i > 1 {
            i /= 2;
            self.node[i] = self.node[2 * i] + self.node[2 * i + 1];
        }
    }

    /// Roulette-selects the leaf containing `target` (`0 ≤ target <
    /// total`, up to the caller's rounding). Returns `None` when the root
    /// sum is not positive.
    ///
    /// The descent goes right only when the right subtree has positive sum,
    /// so a target that overshoots (ulp drift of the caller's total) lands
    /// on the rightmost positive-rate leaf — never on a rate-`0.0` one.
    pub fn sample(&self, mut target: f64) -> Option<usize> {
        if self.node[1] <= 0.0 {
            return None;
        }
        let mut i = 1;
        while i < self.cap {
            let left = self.node[2 * i];
            if target < left || self.node[2 * i + 1] <= 0.0 {
                i *= 2;
            } else {
                target -= left;
                i = 2 * i + 1;
            }
        }
        Some(i - self.cap)
    }
}

/// The selector state a simulation run threads between events: the scan
/// is stateless, the tree is kept in lockstep with the rate array.
#[derive(Debug, Clone)]
pub(crate) enum Selector {
    /// Stateless index-order scan.
    Linear,
    /// Partial-sum tree kept in lockstep with the rate array.
    Tree(SumTree),
}

impl Selector {
    /// Builds the selector of a model with `len` transitions
    /// ([`SelectorKind::for_transitions`]).
    pub fn new(len: usize) -> Self {
        match SelectorKind::for_transitions(len) {
            SelectorKind::Linear => Selector::Linear,
            SelectorKind::Tree => Selector::Tree(SumTree::new(len)),
        }
    }

    /// Which selector this is.
    pub fn kind(&self) -> SelectorKind {
        match self {
            Selector::Linear => SelectorKind::Linear,
            Selector::Tree(_) => SelectorKind::Tree,
        }
    }

    /// Reloads the full rate array (after a propensity rescan).
    pub fn rebuild(&mut self, rates: &[f64]) {
        if let Selector::Tree(tree) = self {
            tree.rebuild(rates);
        }
    }

    /// Records a single-rate change (after a dependency-graph update).
    #[inline]
    pub fn update(&mut self, k: usize, rate: f64) {
        if let Selector::Tree(tree) = self {
            tree.update(k, rate);
        }
    }

    /// Chooses the firing transition with one uniform draw scaled by the
    /// caller's propensity `total`. Returns `None` when no positive-rate
    /// transition exists — the caller treats that as an absorbing state.
    #[inline]
    pub fn choose<R: RngCore + ?Sized>(
        &self,
        rates: &[f64],
        total: f64,
        rng: &mut R,
    ) -> Option<usize> {
        let target = rng.gen::<f64>() * total;
        match self {
            Selector::Linear => linear_select(rates, target),
            Selector::Tree(tree) => tree.sample(target),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn selector_kind_follows_the_transition_count() {
        assert_eq!(SelectorKind::for_transitions(1), SelectorKind::Linear);
        assert_eq!(SelectorKind::for_transitions(64), SelectorKind::Linear);
        assert_eq!(SelectorKind::for_transitions(65), SelectorKind::Tree);
        assert_eq!(SelectorKind::for_transitions(4096), SelectorKind::Tree);
        assert_eq!(Selector::new(64).kind(), SelectorKind::Linear);
        assert_eq!(Selector::new(65).kind(), SelectorKind::Tree);
        assert_eq!(SelectorKind::Linear.to_string(), "linear");
        assert_eq!(SelectorKind::Tree.to_string(), "tree");
    }

    /// Regression for the zero-rate fallthrough: a target beyond the rate
    /// sum must fall back to the last *positive* rate, never to a trailing
    /// zero entry.
    #[test]
    fn linear_overshoot_falls_back_to_last_positive_rate() {
        let rates = [0.5, 1.0, 0.0, 0.0];
        assert_eq!(linear_select(&rates, 0.2), Some(0));
        assert_eq!(linear_select(&rates, 0.9), Some(1));
        // pre-fix behaviour returned index 3 (rate exactly 0.0) here
        assert_eq!(linear_select(&rates, 1.6), Some(1));
        assert_eq!(linear_select(&[0.0, 0.0], 0.3), None);
        // zero-rate holes in the middle are skipped, not selected
        assert_eq!(linear_select(&[0.0, 2.0, 0.0], 1.9999), Some(1));
    }

    #[test]
    fn tree_matches_linear_scan_on_exactly_representable_rates() {
        // integer rates make every partial sum exact, so the tree must
        // reproduce the linear scan index for index-aligned targets
        let mut rng = StdRng::seed_from_u64(9);
        for len in [1usize, 2, 3, 7, 8, 33, 100] {
            let rates: Vec<f64> = (0..len).map(|_| f64::from(rng.gen::<u32>() % 8)).collect();
            let mut tree = SumTree::new(len);
            tree.rebuild(&rates);
            let total: f64 = rates.iter().sum();
            assert_eq!(tree.total(), total);
            if total == 0.0 {
                assert_eq!(tree.sample(0.0), None);
                continue;
            }
            for step in 0..200 {
                let target = total * (step as f64 + 0.5) / 200.0;
                assert_eq!(
                    tree.sample(target),
                    linear_select(&rates, target),
                    "len {len}, target {target}"
                );
            }
        }
    }

    #[test]
    fn tree_point_updates_track_a_full_rebuild() {
        let mut rng = StdRng::seed_from_u64(4);
        let len = 37;
        let mut rates: Vec<f64> = (0..len).map(|_| rng.gen::<f64>()).collect();
        let mut incremental = SumTree::new(len);
        incremental.rebuild(&rates);
        for _ in 0..500 {
            let k = (rng.gen::<u32>() as usize) % len;
            let value = if rng.gen::<bool>() {
                rng.gen::<f64>() * 3.0
            } else {
                0.0
            };
            rates[k] = value;
            incremental.update(k, value);
            let mut rebuilt = SumTree::new(len);
            rebuilt.rebuild(&rates);
            assert_eq!(incremental.total().to_bits(), rebuilt.total().to_bits());
            let target = rng.gen::<f64>() * incremental.total();
            assert_eq!(incremental.sample(target), rebuilt.sample(target));
        }
    }

    #[test]
    fn tree_never_selects_a_zero_rate_leaf() {
        let rates = [0.0, 3.0, 0.0, 0.0, 2.0, 0.0];
        let mut tree = SumTree::new(rates.len());
        tree.rebuild(&rates);
        // sweep targets across and beyond the total: only indices 1 and 4
        // may come back, and overshoot lands on the last positive leaf
        for step in 0..100 {
            let target = 5.5 * step as f64 / 99.0; // up to 10% beyond total
            let chosen = tree.sample(target).unwrap();
            assert!(chosen == 1 || chosen == 4, "target {target} chose {chosen}");
        }
        assert_eq!(tree.sample(7.0), Some(4));
        tree.rebuild(&[0.0; 6]);
        assert_eq!(tree.sample(0.0), None);
    }

    #[test]
    fn selector_facade_dispatches_both_kinds() {
        let mut rng = StdRng::seed_from_u64(5);
        for len in [4usize, 100] {
            let mut rates = vec![0.0; len];
            rates[0] = 0.5;
            rates[2] = 0.5;
            rates[len - 1] = 1.0;
            let mut selector = Selector::new(len);
            selector.rebuild(&rates);
            rates[2] = 1.5;
            selector.update(2, 1.5);
            let total: f64 = rates.iter().sum();
            for _ in 0..200 {
                let k = selector.choose(&rates, total, &mut rng).unwrap();
                assert!(
                    rates[k] > 0.0,
                    "{}: zero-rate transition selected",
                    selector.kind()
                );
            }
        }
    }
}
