//! Cost of the Birkhoff-centre construction (the steady-state analysis behind
//! Figures 3, 5 and 6).

use criterion::{criterion_group, criterion_main, Criterion};
use mfu_core::birkhoff::{birkhoff_centre_2d, BirkhoffOptions};
use mfu_models::sir::SirModel;
use std::hint::black_box;

fn bench_birkhoff(c: &mut Criterion) {
    let mut group = c.benchmark_group("birkhoff_centre_sir");
    group.sample_size(10);

    for &theta_max in &[2.0, 5.0, 10.0] {
        group.bench_function(format!("theta_max_{theta_max}"), |b| {
            let sir = SirModel::paper_with_contact_max(theta_max);
            let drift = sir.reduced_drift();
            let x0 = sir.reduced_initial_state();
            let options = BirkhoffOptions {
                step: 2e-3,
                settle_time: 25.0,
                boundary_samples: 80,
            };
            b.iter(|| birkhoff_centre_2d(&drift, black_box(&x0), &options).unwrap())
        });
    }
    group.finish();
}

criterion_group!(benches, bench_birkhoff);
criterion_main!(benches);
