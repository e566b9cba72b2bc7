//! End-to-end tests of the `mfu` binary: the acceptance criterion of the
//! CLI is that at least the `sir` and `gps` scenarios run from the command
//! line, plus `check` and `list-scenarios` round trips and the exit-code
//! contract (0 ok / 1 model or analysis error / 2 usage error).

use std::process::{Command, Output};

fn mfu(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_mfu"))
        .args(args)
        .output()
        .expect("mfu binary runs")
}

fn stdout(output: &Output) -> String {
    String::from_utf8_lossy(&output.stdout).into_owned()
}

fn stderr(output: &Output) -> String {
    String::from_utf8_lossy(&output.stderr).into_owned()
}

#[test]
fn run_sir_bounds_the_infected_fraction() {
    // small grid keeps the test quick; the bound itself is checked in the
    // analysis suites — here we check the CLI plumbing end to end
    let out = mfu(&["run", "sir", "--bound", "I@1", "--grid", "40"]);
    assert!(out.status.success(), "stderr: {}", stderr(&out));
    let text = stdout(&out);
    assert!(text.contains("model `sir`"), "{text}");
    // the line says how each extreme's sweep ended; sweep counts are a
    // pure function of the code, so they are pinned exactly
    assert!(
        text.contains(
            "imprecise bounds: I(1) in [0.020973, 0.142559] \
             (min converged in 3 sweeps, max converged in 5 sweeps)"
        ),
        "{text}"
    );
}

#[test]
fn run_gps_bounds_and_simulates_the_guarded_model() {
    let out = mfu(&[
        "run",
        "gps",
        "--bound",
        "Q1@1",
        "--grid",
        "40",
        "--simulate",
        "400",
        "--seed",
        "3",
    ]);
    assert!(out.status.success(), "stderr: {}", stderr(&out));
    let text = stdout(&out);
    assert!(text.contains("model `gps`"), "{text}");
    assert!(text.contains("imprecise bounds: Q1(1)"), "{text}");
    assert!(text.contains("Gillespie run"), "{text}");
    assert!(text.contains("events"), "{text}");
}

#[test]
fn check_compiles_a_model_file_from_disk() {
    let dir = std::env::temp_dir().join("mfu-cli-test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("decay.mfu");
    std::fs::write(
        &path,
        "model decay;\nspecies X;\nparam r in [0.5, 2];\n\
         rule die: X -> 0 @ when X > 0 { r * X } else { 0 };\ninit X = 1;\n",
    )
    .unwrap();
    let out = mfu(&["check", path.to_str().unwrap()]);
    assert!(out.status.success(), "stderr: {}", stderr(&out));
    let text = stdout(&out);
    assert!(text.contains("model `decay`"), "{text}");
    assert!(text.contains("ok"), "{text}");
}

#[test]
fn check_prints_caret_diagnostics_and_fails() {
    let dir = std::env::temp_dir().join("mfu-cli-test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("broken.mfu");
    std::fs::write(
        &path,
        "model broken;\nspecies X;\nparam r in [0.5, 2];\n\
         rule die: X -> 0 @ oops * X;\ninit X = 1;\n",
    )
    .unwrap();
    let out = mfu(&["check", path.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(1));
    let text = stderr(&out);
    assert!(text.contains("unknown identifier `oops`"), "{text}");
    assert!(text.contains('^'), "{text}");
}

#[test]
fn list_scenarios_prints_the_registry() {
    let out = mfu(&["list-scenarios"]);
    assert!(out.status.success());
    let text = stdout(&out);
    for name in [
        "sir",
        "gps",
        "gps_poisson",
        "botnet",
        "load_balancer",
        "pod_choices_d2",
        "pod_choices_d3",
        "csma",
        "ttl_cache",
        "gossip",
        "bike_city_4",
    ] {
        assert!(text.contains(name), "missing `{name}`:\n{text}");
    }
}

#[test]
fn list_scenarios_is_family_sorted_with_scale_column() {
    let out = mfu(&["list-scenarios"]);
    assert!(out.status.success());
    let text = stdout(&out);
    let mut lines = text.lines();
    let header = lines.next().expect("a header line");
    for column in ["FAMILY", "SCENARIO", "SPECIES", "RULES", "SCALE"] {
        assert!(header.contains(column), "missing `{column}`:\n{text}");
    }
    // family-then-name sorted: the epidemic block precedes queueing, and
    // names are sorted inside a family
    let families: Vec<&str> = lines
        .clone()
        .map(|l| l.split_whitespace().next().unwrap())
        .collect();
    let mut sorted = families.clone();
    sorted.sort();
    assert_eq!(families, sorted, "families out of order:\n{text}");
    // the fleet rows carry shape and scale columns
    let csma = lines.find(|l| l.contains(" csma ")).expect("csma row");
    let cells: Vec<&str> = csma.split_whitespace().collect();
    assert_eq!(&cells[..5], &["wireless", "csma", "3", "4", "500"]);
}

#[test]
fn usage_errors_exit_with_2() {
    assert_eq!(mfu(&[]).status.code(), Some(2));
    assert_eq!(mfu(&["run"]).status.code(), Some(2));
    assert_eq!(
        mfu(&["run", "sir", "--bound", "nope"]).status.code(),
        Some(2)
    );
    let out = mfu(&["run", "sir", "--sideways", "1"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(stderr(&out).contains("unknown option"), "{}", stderr(&out));
    let out = mfu(&["run", "no_such_model"]);
    assert_eq!(out.status.code(), Some(1));
    assert!(stderr(&out).contains("neither a file nor a known scenario"));
}

#[test]
fn simulate_zero_is_rejected_at_parse_time_with_exit_2() {
    // regression: used to exit 1 from deep inside Simulator::new
    let out = mfu(&["run", "sir", "--simulate", "0"]);
    assert_eq!(out.status.code(), Some(2));
    let text = stderr(&out);
    assert!(text.contains("--simulate"), "{text}");
    assert!(text.contains("at least 1"), "{text}");
}

#[test]
fn algorithm_parse_errors_exit_2_naming_the_flag() {
    for bad in ["warp", "tau-leap:0", "tau-leap:2", "tau-leap:x"] {
        let out = mfu(&["run", "sir", "--algorithm", bad, "--simulate", "50"]);
        assert_eq!(out.status.code(), Some(2), "`{bad}` accepted");
        let text = stderr(&out);
        assert!(text.contains("--algorithm"), "`{bad}`: {text}");
    }
    // missing value is also a usage error naming the flag
    let out = mfu(&["run", "sir", "--algorithm"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(stderr(&out).contains("--algorithm"));
}

#[test]
fn run_simulates_with_tau_leaping() {
    // the sir_1e6 scenario declares its scale; --simulate overrides it so
    // the debug-mode test stays fast, and τ-leaping is echoed in the run
    // line
    let out = mfu(&[
        "run",
        "sir_1e6",
        "--bound",
        "I@1",
        "--grid",
        "30",
        "--algorithm",
        "tau-leap:0.05",
        "--simulate",
        "5000",
    ]);
    assert!(out.status.success(), "stderr: {}", stderr(&out));
    let text = stdout(&out);
    assert!(text.contains("model `sir_1e6`"), "{text}");
    assert!(text.contains("tau-leap run"), "{text}");
    assert!(text.contains("algorithm tau-leap:0.05"), "{text}");
}

#[test]
fn scenario_declared_scale_defaults_to_tau_leaping() {
    // without --simulate, sir_1e6 simulates at its declared N = 10⁶ —
    // which must default to the τ-leap engine (an exact run at that scale
    // is exactly what the scenario exists to avoid)
    let out = mfu(&["run", "sir_1e6", "--bound", "I@1", "--grid", "30"]);
    assert!(out.status.success(), "stderr: {}", stderr(&out));
    let text = stdout(&out);
    assert!(text.contains("N = 1000000 tau-leap run"), "{text}");
    assert!(text.contains("algorithm tau-leap:0.03"), "{text}");
}

#[test]
fn run_line_names_the_selector_the_model_size_picks() {
    // the 3-transition SIR runs the linear scan, and the run line says so
    let out = mfu(&[
        "run",
        "sir",
        "--bound",
        "I@1",
        "--grid",
        "30",
        "--simulate",
        "200",
    ]);
    assert!(out.status.success(), "stderr: {}", stderr(&out));
    let text = stdout(&out);
    assert!(text.contains("selection linear"), "{text}");
    assert!(!text.contains("propensity"), "{text}");
}

#[test]
fn metrics_json_prints_a_machine_readable_last_line() {
    let out = mfu(&[
        "run",
        "sir",
        "--bound",
        "I@1",
        "--grid",
        "30",
        "--simulate",
        "200",
        "--metrics=json",
    ]);
    assert!(out.status.success(), "stderr: {}", stderr(&out));
    let text = stdout(&out);
    let last = text.lines().last().unwrap();
    assert!(last.starts_with("{\"counters\":"), "{last}");
    assert!(last.contains("\"sim_events_fired\":"), "{last}");
    assert!(last.contains("\"sim_runs\":1"), "{last}");
    assert!(last.contains("\"core_rk4_steps\":"), "{last}");
    assert!(last.contains("\"lang_rules_lowered\":3"), "{last}");
    assert!(last.contains("\"sim_simulate_ns\":"), "{last}");
    assert!(last.contains("\"selection\":\"linear\""), "{last}");
    assert!(last.contains("\"model\":\"sir\""), "{last}");
}

#[test]
fn metrics_pretty_reports_on_stderr_and_keeps_stdout_clean() {
    let out = mfu(&[
        "run",
        "sir",
        "--bound",
        "I@1",
        "--grid",
        "30",
        "--simulate",
        "100",
        "--metrics",
    ]);
    assert!(out.status.success(), "stderr: {}", stderr(&out));
    let err = stderr(&out);
    assert!(err.contains("sim_events_fired"), "{err}");
    assert!(err.contains("core_rk4_steps"), "{err}");
    let text = stdout(&out);
    assert!(!text.contains("sim_events_fired"), "{text}");
}

#[test]
fn trace_writes_structured_jsonl_events() {
    let dir = std::env::temp_dir().join("mfu-cli-test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("run-trace.jsonl");
    let out = mfu(&[
        "run",
        "sir",
        "--bound",
        "I@1",
        "--grid",
        "30",
        "--simulate",
        "200",
        "--trace",
        path.to_str().unwrap(),
    ]);
    assert!(out.status.success(), "stderr: {}", stderr(&out));
    let trace = std::fs::read_to_string(&path).unwrap();
    for line in trace.lines() {
        assert!(line.starts_with("{\"ev\":\""), "not an event line: {line}");
        assert!(line.ends_with('}'), "truncated line: {line}");
    }
    assert!(trace.contains("\"ev\":\"rule_lowered\""), "{trace}");
    assert!(trace.contains("\"ev\":\"model_compiled\""), "{trace}");
    assert!(trace.contains("\"ev\":\"pontryagin_solve\""), "{trace}");
    assert!(trace.contains("\"ev\":\"sim_run\""), "{trace}");
    assert!(trace.contains("\"algorithm\":\"exact\""), "{trace}");
}

#[test]
fn metrics_and_trace_usage_errors_exit_2_naming_the_flag() {
    let out = mfu(&["run", "sir", "--metrics=csv"]);
    assert_eq!(out.status.code(), Some(2));
    let text = stderr(&out);
    assert!(text.contains("--metrics"), "{text}");
    assert!(text.contains("pretty or json"), "{text}");

    let out = mfu(&["run", "sir", "--trace"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(stderr(&out).contains("--trace"));
}

#[test]
fn budget_flag_usage_errors_exit_2_naming_the_flag() {
    for bad in [
        ["--timeout", "0"],
        ["--timeout", "-2"],
        ["--timeout", "soon"],
        ["--timeout", "1e300"],
        ["--max-events", "0"],
        ["--max-events", "many"],
    ] {
        let out = mfu(&["run", "sir", bad[0], bad[1]]);
        assert_eq!(out.status.code(), Some(2), "`{bad:?}` accepted");
        assert!(stderr(&out).contains(bad[0]), "`{bad:?}`: {}", stderr(&out));
    }
}

#[test]
fn truncated_run_exits_0_and_echoes_the_reason_on_stderr() {
    let out = mfu(&[
        "run",
        "sir",
        "--bound",
        "I@1",
        "--grid",
        "30",
        "--simulate",
        "300",
        "--max-events",
        "50",
    ]);
    assert!(out.status.success(), "stderr: {}", stderr(&out));
    let text = stdout(&out);
    assert!(text.contains("50 events"), "{text}");
    let err = stderr(&out);
    assert!(err.contains("truncated"), "{err}");
    assert!(err.contains("event budget exhausted"), "{err}");
}

#[test]
fn expired_timeout_notes_the_sweep_truncation_and_exits_0() {
    // the deadline expires before the first sweep: the bound is the best
    // feasible value found without sweeping, and stderr says so
    let out = mfu(&[
        "run",
        "sir",
        "--bound",
        "I@1",
        "--grid",
        "30",
        "--timeout",
        "1e-9",
    ]);
    assert_eq!(out.status.code(), Some(0), "stderr: {}", stderr(&out));
    let text = stdout(&out);
    assert!(text.contains("imprecise bounds: I(1) in ["), "{text}");
    assert!(
        text.contains("(min truncated after 0 sweeps, max truncated after 0 sweeps)"),
        "{text}"
    );
    let err = stderr(&out);
    assert!(
        err.contains("Pontryagin sweep truncated (wall-clock budget exhausted)"),
        "{err}"
    );
}

#[test]
fn generous_budgets_leave_the_run_untouched() {
    let base = mfu(&[
        "run",
        "sir",
        "--bound",
        "I@1",
        "--grid",
        "30",
        "--simulate",
        "200",
    ]);
    let budgeted = mfu(&[
        "run",
        "sir",
        "--bound",
        "I@1",
        "--grid",
        "30",
        "--simulate",
        "200",
        "--timeout",
        "3600",
        "--max-events",
        "100000000",
    ]);
    assert!(base.status.success());
    assert!(budgeted.status.success(), "stderr: {}", stderr(&budgeted));
    assert_eq!(stdout(&base), stdout(&budgeted));
    assert!(
        !stderr(&budgeted).contains("truncated"),
        "{}",
        stderr(&budgeted)
    );
}

#[test]
fn huge_timeouts_never_panic() {
    // 1e19 s is a valid `Duration` whose deadline lies past the clock's
    // range: the budget can never trip, and the run completes normally
    let out = mfu(&[
        "run",
        "sir",
        "--bound",
        "I@1",
        "--grid",
        "30",
        "--simulate",
        "200",
        "--timeout",
        "1e19",
    ]);
    assert_eq!(out.status.code(), Some(0), "stderr: {}", stderr(&out));
    assert!(!stderr(&out).contains("truncated"), "{}", stderr(&out));
}

#[test]
fn large_models_simulate_with_the_sum_tree() {
    // 120 rules: above the linear scan's 64, so the run uses the tree
    let out = mfu(&[
        "run",
        "grid_6x6",
        "--bound",
        "0@0.1",
        "--grid",
        "4",
        "--single-start",
        "--simulate",
        "200",
    ]);
    assert!(out.status.success(), "stderr: {}", stderr(&out));
    let text = stdout(&out);
    assert!(text.contains("selection tree"), "{text}");
}
