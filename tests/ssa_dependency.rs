//! Acceptance: the dependency-graph Gillespie hot path is bit-identical to
//! re-evaluating every rate after every event, for every registered DSL
//! scenario.
//!
//! Each scenario compiles to a population model whose rates are flat
//! bytecode programs with known species supports, so the simulator's
//! dependency graph is genuinely sparse. Its *dense twin* wraps the same
//! compiled rates in native closures that declare no support: every rate
//! then depends on every species, and each event re-evaluates all of them.
//! For the same RNG seed the two must produce the same run — every event
//! time and every recorded state, bit for bit — because they evaluate
//! identical programs on identical states and re-sum the propensity total
//! in index order. The twins share their selector (the transition count
//! fixes it), so the comparison covers the linear scan and the sum tree
//! (`grid_6x6` and the generated 200- and 1100-rule rings) alike. The
//! comparison is fully deterministic, so this cannot flake.

use mean_field_uncertain::ctmc::population::PopulationModel;
use mean_field_uncertain::ctmc::transition::TransitionClass;
use mean_field_uncertain::guard::RunBudget;
use mean_field_uncertain::lang::scenarios::ring_source;
use mean_field_uncertain::lang::ScenarioRegistry;
use mean_field_uncertain::num::StateVec;
use mean_field_uncertain::sim::gillespie::{SimulationOptions, SimulationRun, Simulator};
use mean_field_uncertain::sim::policy::ConstantPolicy;
use mean_field_uncertain::sim::selection::SelectorKind;

const SCALE: usize = 300;
const SEEDS: [u64; 3] = [1, 17, 2026];

/// `model` with every rate wrapped in a native closure that declares no
/// species support, so its dependency graph is dense.
fn dense_twin(model: &PopulationModel) -> PopulationModel {
    let mut builder = PopulationModel::builder(model.dim(), model.params().clone());
    for class in model.transitions() {
        let compiled = class.clone();
        builder = builder.transition(TransitionClass::new(
            class.name(),
            class.change().clone(),
            move |x: &StateVec, theta: &[f64]| compiled.rate(x, theta),
        ));
    }
    builder.build().expect("dense twin builds")
}

/// Simulators for `population` and for its dense twin, at `scale`.
fn twins(population: PopulationModel, scale: usize) -> (Simulator, Simulator) {
    let dense = Simulator::new(dense_twin(&population), scale).expect("simulator");
    assert!(!dense.has_sparse_dependencies());
    (Simulator::new(population, scale).expect("simulator"), dense)
}

fn run(
    simulator: &Simulator,
    counts: &[i64],
    theta: &[f64],
    t_end: f64,
    seed: u64,
) -> SimulationRun {
    let mut policy = ConstantPolicy::new(theta.to_vec());
    let options = SimulationOptions::new(t_end).budget(RunBudget::unlimited().max_events(400_000));
    simulator
        .simulate(counts, &mut policy, &options, seed)
        .expect("simulation failed")
}

/// States, final counts and event times must all match bit for bit.
fn assert_same_run(name: &str, seed: u64, reference: &SimulationRun, other: &SimulationRun) {
    assert_eq!(
        reference.events(),
        other.events(),
        "`{name}` seed {seed}: event counts diverged"
    );
    assert_eq!(
        reference.final_counts(),
        other.final_counts(),
        "`{name}` seed {seed}: final counts diverged"
    );
    assert_eq!(
        reference.trajectory().len(),
        other.trajectory().len(),
        "`{name}` seed {seed}: trajectory lengths diverged"
    );
    for (index, ((ta, sa), (tb, sb))) in reference
        .trajectory()
        .iter()
        .zip(other.trajectory().iter())
        .enumerate()
    {
        assert_eq!(
            ta.to_bits(),
            tb.to_bits(),
            "`{name}` seed {seed}: time diverged at point {index}"
        );
        for (i, (va, vb)) in sa.iter().zip(sb.iter()).enumerate() {
            assert_eq!(
                va.to_bits(),
                vb.to_bits(),
                "`{name}` seed {seed}: coordinate {i} diverged at point {index}"
            );
        }
    }
    assert_eq!(reference.selector(), other.selector(), "`{name}`");
}

#[test]
fn dependency_graph_ssa_is_bit_identical_across_the_registry() {
    let registry = ScenarioRegistry::with_builtins();
    assert_eq!(
        registry.names(),
        vec![
            "bike",
            "bike_city_4",
            "botnet",
            "csma",
            "gossip",
            "gps",
            "gps_poisson",
            "grid_6x6",
            "load_balancer",
            "pod_choices_d2",
            "pod_choices_d3",
            "ring_48",
            "seir",
            "sir",
            "sir_1e6",
            "sis",
            "ttl_cache"
        ]
    );
    for scenario in registry.iter() {
        let model = scenario.compile().expect("scenario compiles");
        let population = model.population_model().expect("population backend");
        // DSL rates are compiled programs, so supports are known…
        assert!(
            population
                .transitions()
                .iter()
                .all(|t| t.rate_fn().is_compiled()),
            "`{}`: expected compiled rates",
            scenario.name()
        );
        let (simulator, dense) = twins(population, SCALE);
        // …and the dependency graph actually prunes work wherever the
        // stoichiometry allows it (the 2-species SIS is legitimately dense:
        // both rules read and write both species). The guarded GPS rates
        // still report sparse supports — the guard condition and both
        // branches contribute, but e.g. `create1` only reads its own MAP
        // phase.
        if matches!(
            scenario.name(),
            "botnet"
                | "seir"
                | "load_balancer"
                | "sir"
                | "sir_1e6"
                | "gps"
                | "gps_poisson"
                | "ring_48"
                | "grid_6x6"
        ) {
            assert!(
                simulator.has_sparse_dependencies(),
                "`{}`: dependency graph is dense",
                scenario.name()
            );
        }

        let counts = model.initial_counts(SCALE);
        let theta = model.params().midpoint();
        for seed in SEEDS {
            let reference = run(&dense, &counts, &theta, 4.0, seed);
            assert!(
                reference.events() > 0,
                "`{}` seed {seed}: no events simulated",
                scenario.name()
            );
            let graph = run(&simulator, &counts, &theta, 4.0, seed);
            assert_same_run(scenario.name(), seed, &reference, &graph);
        }
    }
}

#[test]
fn dependency_graph_matches_under_vertex_parameters() {
    // The extreme parameter choices drive some scenarios toward rate
    // boundaries (dropped jumps, near-absorbing states) — the paths the
    // dependency bookkeeping must also handle identically.
    let registry = ScenarioRegistry::with_builtins();
    for scenario in registry.iter() {
        let model = scenario.compile().expect("scenario compiles");
        let population = model.population_model().expect("population backend");
        let (simulator, dense) = twins(population, SCALE);
        let counts = model.initial_counts(SCALE);
        for vertex in model.params().vertices() {
            let reference = run(&dense, &counts, &vertex, 4.0, 5);
            let graph = run(&simulator, &counts, &vertex, 4.0, 5);
            assert_same_run(scenario.name(), 5, &reference, &graph);
        }
    }
}

/// A 2-rule guarded model that walks to an absorbing boundary: once X is
/// exhausted both guards hold the rates at exactly 0.0 and the simulation
/// must stop without firing anything further.
const GUARDED_ABSORBING_SOURCE: &str = "\
model guarded_absorbing;
species X, Y;
param r in [1, 2];
rule decay:   X -> Y @ when X > 0 { r * X } else { 0 };
rule degrade: Y -> 0 @ when X > 0 { 0.5 * Y } else { 0 };
init X = 0.4, Y = 0.6;
";

#[test]
fn guarded_model_at_an_absorbing_boundary_stops_under_every_combination() {
    // Every combination of dependency graph (the compiled model's sparse
    // one, its dense twin's) and start (away from, and on, the boundary).
    let model = mean_field_uncertain::lang::compile(GUARDED_ABSORBING_SOURCE).unwrap();
    let (sparse, dense) = twins(model.population_model().unwrap(), 100);
    let theta = model.params().midpoint();
    // a horizon long enough for the decay chain to exhaust X almost surely
    let absorb = |simulator: &Simulator, counts: &[i64]| run(simulator, counts, &theta, 200.0, 7);
    for (graph, simulator) in [("sparse", &sparse), ("dense", &dense)] {
        // started away from the boundary: the run must absorb with X
        // exhausted and never fire a guarded-off rule afterwards
        let run = absorb(simulator, &[40, 60]);
        assert_eq!(run.final_counts()[0], 0, "{graph}: did not absorb");
        assert!(run.final_counts()[1] >= 0);
        assert!(run.events() >= 40, "{graph}: too few events");
        // started exactly on the boundary: all rates are exactly 0.0,
        // so nothing may ever fire
        let parked = absorb(simulator, &[0, 60]);
        assert_eq!(parked.events(), 0, "{graph}: fired at boundary");
        assert_eq!(parked.final_counts(), &[0, 60]);
    }
}

/// The generated `k`-site migration ring at 10 molecules per site (enough
/// for the uniform init to round exactly) over `[0, t_end]`: the sum tree
/// runs it, bit-identical to the dense twin, and conserves mass.
fn assert_ring_matches_its_dense_twin(k: usize, t_end: f64) {
    let scale = 10 * k;
    let model = mean_field_uncertain::lang::compile(&ring_source(k)).unwrap();
    let population = model.population_model().unwrap();
    assert_eq!(population.transitions().len(), k);
    let (simulator, dense) = twins(population, scale);
    assert!(simulator.has_sparse_dependencies());
    let counts = model.initial_counts(scale);
    assert_eq!(counts.iter().sum::<i64>(), scale as i64);
    let theta = model.params().midpoint();
    let name = format!("ring_{k}");
    for seed in [1, 2] {
        let reference = run(&dense, &counts, &theta, t_end, seed);
        let graph = run(&simulator, &counts, &theta, t_end, seed);
        assert!(graph.events() > 0);
        assert_eq!(graph.selector(), SelectorKind::Tree);
        assert_same_run(&name, seed, &reference, &graph);
        assert_eq!(
            graph.final_counts().iter().sum::<i64>(),
            scale as i64,
            "`{name}` seed {seed}: migration ring lost mass"
        );
        assert!(graph.final_counts().iter().all(|&c| c >= 0));
    }
}

#[test]
fn large_k_ring_parity_holds_at_200_rules() {
    assert_ring_matches_its_dense_twin(200, 4.0);
}

#[test]
fn large_k_ring_parity_holds_at_1100_rules() {
    // a short horizon: the dense twin re-evaluates 1100 rates per event
    assert_ring_matches_its_dense_twin(1100, 0.5);
}

#[test]
fn the_selector_follows_the_transition_count() {
    // up to 64 rules the linear scan, above it the sum tree — at any size
    for (k, expected) in [
        (64, SelectorKind::Linear),
        (65, SelectorKind::Tree),
        (1100, SelectorKind::Tree),
    ] {
        let scale = 10 * k;
        let model = mean_field_uncertain::lang::compile(&ring_source(k)).unwrap();
        let population = model.population_model().unwrap();
        assert_eq!(population.transitions().len(), k);
        let simulator = Simulator::new(population, scale).unwrap();
        let theta = model.params().midpoint();
        let run = run(&simulator, &model.initial_counts(scale), &theta, 0.01, 1);
        assert!(run.events() > 0);
        assert_eq!(run.selector(), expected, "{k} rules");
    }
}
