//! Performance of the ODE integrators on the SIR mean field (the inner loop
//! of every analysis in the workspace).

use criterion::{criterion_group, criterion_main, Criterion};
use mfu_core::drift::ImpreciseDrift;
use mfu_models::sir::SirModel;
use mfu_num::ode::{Dopri45, FnSystem, Integrator, Rk4};
use mfu_num::StateVec;
use std::hint::black_box;

fn sir_system(theta: f64) -> FnSystem<impl Fn(f64, &StateVec, &mut StateVec)> {
    let sir = SirModel::paper();
    let drift = sir.reduced_drift();
    FnSystem::new(2, move |_t, x: &StateVec, dx: &mut StateVec| {
        drift.drift_into(x, &[theta], dx)
    })
}

fn bench_ode_solvers(c: &mut Criterion) {
    let x0 = SirModel::paper().reduced_initial_state();
    let mut group = c.benchmark_group("ode_solvers_sir_t10");
    group.sample_size(20);

    group.bench_function("rk4_h1e-2", |b| {
        let system = sir_system(5.0);
        b.iter(|| {
            Rk4::with_step(1e-2)
                .final_state(&system, 0.0, black_box(x0.clone()), 10.0)
                .unwrap()
        })
    });
    group.bench_function("dopri45_default", |b| {
        let system = sir_system(5.0);
        b.iter(|| {
            Dopri45::default()
                .final_state(&system, 0.0, black_box(x0.clone()), 10.0)
                .unwrap()
        })
    });
    group.finish();
}

criterion_group!(benches, bench_ode_solvers);
criterion_main!(benches);
