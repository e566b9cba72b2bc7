//! Figure 1: upper and lower bounds on the infected fraction of the SIR
//! model, for the uncertain (constant unknown ϑ) and imprecise (time-varying
//! ϑ) interpretations.
//!
//! Paper setting: a = 0.1, b = 5, c = 1, ϑ ∈ [1, 10], x0 = (0.7, 0.3, 0),
//! horizon T = 4. The figure shows that the imprecise bounds strictly contain
//! the uncertain ones and that the gap grows with time.
//!
//! Run with `cargo run --release -p mfu-bench --bin fig1_sir_transient_bounds`.

use mfu_bench::{print_header, print_row};
use mfu_core::pontryagin::PontryaginOptions;
use mfu_core::reachability::{reach_tube, ReachTubeOptions};
use mfu_core::uncertain::UncertainAnalysis;
use mfu_models::sir::SirModel;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let sir = SirModel::paper();
    let drift = sir.reduced_drift();
    let x0 = sir.reduced_initial_state();
    let horizon = 4.0;
    let time_points = 40;

    // Uncertain: envelope of the constant-ϑ trajectories.
    let uncertain = UncertainAnalysis {
        grid_per_axis: 40,
        time_intervals: time_points,
        step: 1e-3,
    };
    let envelope = uncertain.envelope(&drift, &x0, horizon)?;

    // Imprecise: Pontryagin reach tube.
    let options = ReachTubeOptions {
        time_points,
        pontryagin: PontryaginOptions {
            grid_intervals: 250,
            ..Default::default()
        },
    };
    let tube = reach_tube(&drift, &x0, horizon, 1, &options)?;

    println!("# Figure 1: bounds on the proportion of infected nodes (SIR, theta in [1, 10])");
    print_header(&[
        "t",
        "xI_min_uncertain",
        "xI_max_uncertain",
        "xI_min_imprecise",
        "xI_max_imprecise",
    ]);
    for (k, (t, lo, hi)) in tube.rows().enumerate() {
        // envelope index k + 1 because the envelope grid includes t = 0
        print_row(&[
            t,
            envelope.lower()[k + 1][1],
            envelope.upper()[k + 1][1],
            lo,
            hi,
        ]);
    }

    // Headline numbers (see the *Figures* section of `docs/ARCHITECTURE.md`).
    let last = tube.times().len() - 1;
    let gap_imprecise = tube.upper()[last] - tube.lower()[last];
    let gap_uncertain = envelope.upper()[time_points][1] - envelope.lower()[time_points][1];
    println!("# summary: at T = {horizon} the imprecise band is {:.3} wide, the uncertain band {:.3} wide", gap_imprecise, gap_uncertain);
    Ok(())
}
