//! Cost of exact stochastic simulation of the SIR population process as a
//! function of the population size (the finite-`N` side of Figure 6), plus
//! exact SSA vs τ-leaping across population scales.

use criterion::{criterion_group, criterion_main, Criterion};
use mfu_lang::scenarios::ScenarioRegistry;
use mfu_models::sir::SirModel;
use mfu_sim::gillespie::{SimulationOptions, Simulator};
use mfu_sim::policy::{ConstantPolicy, HysteresisPolicy};
use mfu_sim::tauleap::TauLeapOptions;
use std::hint::black_box;

fn bench_ssa(c: &mut Criterion) {
    let mut group = c.benchmark_group("ssa_sir");
    group.sample_size(10);
    let sir = SirModel::paper();
    let model = sir.population_model().unwrap();

    for &scale in &[100usize, 1000, 10000] {
        group.bench_function(format!("constant_theta_N{scale}_T10"), |b| {
            let simulator = Simulator::new(model.clone(), scale).unwrap();
            let counts = sir.initial_counts(scale);
            let options = SimulationOptions::new(10.0).record_stride(64);
            b.iter(|| {
                let mut policy = ConstantPolicy::new(vec![5.0]);
                simulator
                    .simulate(black_box(&counts), &mut policy, &options, 7)
                    .unwrap()
            })
        });
    }

    group.bench_function("hysteresis_theta1_N1000_T10", |b| {
        let simulator = Simulator::new(model.clone(), 1000).unwrap();
        let counts = sir.initial_counts(1000);
        let options = SimulationOptions::new(10.0).record_stride(64);
        b.iter(|| {
            let mut policy = HysteresisPolicy::new(
                vec![sir.contact_max],
                0,
                sir.contact_min,
                sir.contact_max,
                0,
                0.5,
                0.85,
                true,
            );
            simulator
                .simulate(black_box(&counts), &mut policy, &options, 7)
                .unwrap()
        })
    });
    group.finish();
}

/// Exact SSA vs adaptive τ-leaping on the registry SIR scenario across
/// population scales. The exact engine's cost grows linearly with `N`
/// while the leap engine's stays near constant, so the ratio is the
/// large-`N` speedup the τ-leap subsystem exists for (the
/// `rate_engine_report` binary records the same comparison, including
/// `N = 10⁶` and the mean-trajectory error, in `BENCH_rate_engine.json`).
fn bench_tauleap(c: &mut Criterion) {
    let mut group = c.benchmark_group("ssa_tauleap");
    group.sample_size(10);

    let registry = ScenarioRegistry::with_builtins();
    let model = mfu_lang::compile(registry.get("sir").unwrap().source()).unwrap();
    let population = model.population_model().unwrap();
    let theta = model.params().midpoint();
    let horizon = 3.0;
    for &scale in &[1_000usize, 100_000] {
        let simulator = Simulator::new(population.clone(), scale).unwrap();
        let counts = model.initial_counts(scale);
        let exact = SimulationOptions::new(horizon).record_stride(4096);
        group.bench_function(format!("sir_exact_N{scale}"), |b| {
            b.iter(|| {
                let mut policy = ConstantPolicy::new(theta.clone());
                simulator
                    .simulate(black_box(&counts), &mut policy, &exact, 11)
                    .unwrap()
            })
        });
        let leap = SimulationOptions::new(horizon).tau_leap(TauLeapOptions::new(0.03));
        group.bench_function(format!("sir_tauleap_eps0.03_N{scale}"), |b| {
            b.iter(|| {
                let mut policy = ConstantPolicy::new(theta.clone());
                simulator
                    .simulate(black_box(&counts), &mut policy, &leap, 11)
                    .unwrap()
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_ssa, bench_tauleap);
criterion_main!(benches);
