//! One `PontryaginSolver::solve_all` call over many objectives answers
//! exactly what separate `solve` calls answer, with less forward work.
//!
//! Over every analysable registry scenario, at grid 40 and the declared
//! horizon, single start (with the Θ-vertex escalation ladder) and multi
//! start: each bounding drift's every coordinate minimum and maximum in
//! one `solve_all` call — the query service's solve — against one `solve`
//! call per extreme. Every extreme must match bit for bit, with its
//! convergence, sweep count, truncation and control signal, and every work
//! counter must match too, RK4 steps included (they count every step a
//! solve used), except that the shared call takes first passes from its
//! earlier objectives: more of its steps are reused, so it integrates
//! fewer.

use mean_field_uncertain::core::pontryagin::{
    ExtremalSolution, LinearObjective, PontryaginOptions, PontryaginSolver,
};
use mean_field_uncertain::lang::ScenarioRegistry;
use mean_field_uncertain::obs::{Counter, Gauge, MetricsSnapshot, Obs};

/// Scenarios past this dimension are left out: `ring_48` and `grid_6x6`
/// are too slow for a test sweep.
const MAX_DIM: usize = 8;

/// RK4 steps a single-start shared solve integrated (its RK4 steps less its
/// reused ones) over every extreme: the query service's solve of the
/// scenario at grid 40, whose cost block reports 3120, 4280, 3920 and
/// 12880 RK4 steps in all.
const INTEGRATED_PINS: [(&str, u64); 4] = [
    ("sir", 2224),
    ("botnet", 3362),
    ("gps", 2163),
    ("bike_city_4", 8328),
];

/// What must agree between a shared and a separate solve of one extreme.
fn fingerprint(solution: &ExtremalSolution) -> (u64, bool, usize, bool, Vec<Vec<u64>>) {
    let control = solution
        .control()
        .values()
        .iter()
        .map(|value| value.iter().map(|v| v.to_bits()).collect())
        .collect();
    (
        solution.objective_value().to_bits(),
        solution.converged(),
        solution.iterations(),
        solution.truncated(),
        control,
    )
}

fn solver(multi_start: bool, obs: &Obs) -> PontryaginSolver {
    PontryaginSolver::new(PontryaginOptions {
        grid_intervals: 40,
        multi_start,
        ..Default::default()
    })
    .with_obs(obs.clone())
}

fn snapshot(obs: &Obs) -> MetricsSnapshot {
    obs.metrics.snapshot().expect("metrics are enabled")
}

#[test]
fn solve_all_over_every_extreme_matches_separate_solves() {
    let registry = ScenarioRegistry::with_builtins();
    let (mut scenarios, mut pinned) = (0, 0);
    for scenario in registry.iter() {
        let name = scenario.name();
        let model = scenario
            .compile()
            .unwrap_or_else(|e| panic!("`{name}` fails to compile: {e}"));
        if model.dim() > MAX_DIM {
            continue;
        }
        scenarios += 1;
        let horizon = scenario.horizon();
        for multi_start in [false, true] {
            let (shared_obs, separate_obs) = (Obs::with_metrics(), Obs::with_metrics());
            let (shared, separate) = (
                solver(multi_start, &shared_obs),
                solver(multi_start, &separate_obs),
            );
            let mut coordinate = 0;
            while coordinate < model.dim() {
                let (drift, x0) = model.bounding_drift(coordinate);
                let dim = x0.dim();
                let objectives: Vec<LinearObjective> = (coordinate..dim)
                    .flat_map(|i| {
                        [
                            LinearObjective::minimize_coordinate(dim, i),
                            LinearObjective::maximize_coordinate(dim, i),
                        ]
                    })
                    .collect();
                let solutions = shared
                    .solve_all(&drift, &x0, horizon, &objectives)
                    .unwrap_or_else(|e| panic!("`{name}` solve_all: {e}"));
                assert_eq!(solutions.len(), objectives.len(), "`{name}`");
                for (objective, solution) in objectives.iter().zip(&solutions) {
                    let alone = separate
                        .solve(&drift, &x0, horizon, objective.clone())
                        .unwrap_or_else(|e| panic!("`{name}` solve: {e}"));
                    assert_eq!(solution.objective(), objective, "`{name}`");
                    assert_eq!(
                        fingerprint(solution),
                        fingerprint(&alone),
                        "`{name}` (multi-start {multi_start}) {objective:?}"
                    );
                }
                coordinate = dim;
            }

            let (shared, separate) = (snapshot(&shared_obs), snapshot(&separate_obs));
            let context = format!("`{name}` (multi-start {multi_start})");
            let reused = |snap: &MetricsSnapshot| snap.counter(Counter::CorePontryaginReusedSteps);
            // every call has two objectives or more, sharing the midpoint
            // start's first pass at least
            assert!(
                reused(&shared) > reused(&separate),
                "{context}: {} reused steps shared, {} separate",
                reused(&shared),
                reused(&separate)
            );
            let pin = INTEGRATED_PINS
                .iter()
                .find(|(pin_name, _)| *pin_name == name);
            if let (Some(&(_, pin)), false) = (pin, multi_start) {
                pinned += 1;
                assert_eq!(
                    shared.counter(Counter::CoreRk4Steps) - reused(&shared),
                    pin,
                    "{context}: integrated RK4 steps"
                );
            }
            for counter in Counter::ALL {
                if counter == Counter::CorePontryaginReusedSteps {
                    continue;
                }
                assert_eq!(
                    shared.counter(counter),
                    separate.counter(counter),
                    "{context}: {}",
                    counter.name()
                );
            }
            assert_eq!(
                shared.gauge(Gauge::CorePontryaginWinningRestart),
                separate.gauge(Gauge::CorePontryaginWinningRestart),
                "{context}: winning restart"
            );
        }
    }
    assert!(scenarios >= 15, "only {scenarios} analysable scenarios");
    assert_eq!(
        pinned,
        INTEGRATED_PINS.len(),
        "a pinned scenario is missing"
    );
}
