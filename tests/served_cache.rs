//! The `mfu serve` artifact cache must be invisible: a cached answer has
//! to be bit-identical to the cold computation it replaced, for every
//! registry scenario and both bounding methods. These tests sweep the
//! registry through an in-process [`QueryService`] and compare, bit for
//! bit,
//!
//! * the hot (cache-hit) artifact against a cold recomputation on a
//!   *fresh* service — which simultaneously proves cold determinism,
//! * the responses a crowd of concurrent clients receive for the same
//!   query racing a single shared service,
//! * the response lines of hits against the cold line: the same rendered
//!   artifact, spliced in with no parse and no render.
//!
//! The cache-internal properties (LRU determinism, content-hash dedup,
//! eviction counting) live in `crates/serve`; this is the end-to-end
//! half over the real scenario registry.

use mean_field_uncertain::core::artifact::{BoundArtifact, BoundMethod};
use mean_field_uncertain::core::hull::HullOptions;
use mean_field_uncertain::core::json::{self, Json};
use mean_field_uncertain::core::pontryagin::PontryaginOptions;
use mean_field_uncertain::lang::scenarios::ScenarioRegistry;
use mean_field_uncertain::obs::{Counter, Metrics};
use mean_field_uncertain::serve::{BoundRequest, QueryService, Request, ServiceOptions};

/// The hull's rectangle grid is exponential in the dimension, so the sweep
/// keeps to the models both methods can bound in test time (same cap as
/// `tests/batch_invariance.rs`).
const MAX_DIM: usize = 6;

/// Fast-but-real analysis options: coarse enough for a full registry
/// sweep, fine enough that every computation exercises the real solvers.
fn fast_options() -> ServiceOptions {
    ServiceOptions {
        hull: HullOptions {
            step: 1e-2,
            time_intervals: 10,
            ..Default::default()
        },
        pontryagin: PontryaginOptions {
            grid_intervals: 40,
            ..Default::default()
        },
        ..Default::default()
    }
}

fn hull_request(model: &str) -> BoundRequest {
    BoundRequest {
        model: Some(model.to_string()),
        source: None,
        method: BoundMethod::Hull,
        horizon: Some(1.0),
        box_overrides: Vec::new(),
    }
}

fn pontryagin_request(model: &str) -> BoundRequest {
    BoundRequest {
        model: Some(model.to_string()),
        source: None,
        method: BoundMethod::Pontryagin,
        horizon: None,
        box_overrides: Vec::new(),
    }
}

fn assert_artifacts_bit_identical(a: &BoundArtifact, b: &BoundArtifact, what: &str) {
    assert_eq!(a.model, b.model, "{what}: model name");
    assert_eq!(a.model_hash, b.model_hash, "{what}: model hash");
    assert_eq!(a.method, b.method, "{what}: method");
    assert_eq!(a.horizon.to_bits(), b.horizon.to_bits(), "{what}: horizon");
    assert_eq!(a.species, b.species, "{what}: species");
    assert_eq!(a.truncated, b.truncated, "{what}: truncation flag");
    assert_eq!(a.param_box.len(), b.param_box.len(), "{what}: box size");
    for (ra, rb) in a.param_box.iter().zip(&b.param_box) {
        assert_eq!(ra.name, rb.name, "{what}: box param name");
        assert_eq!(ra.lo.to_bits(), rb.lo.to_bits(), "{what}: `{}` lo", ra.name);
        assert_eq!(ra.hi.to_bits(), rb.hi.to_bits(), "{what}: `{}` hi", ra.name);
    }
    assert_eq!(a.lower.len(), b.lower.len(), "{what}: lower length");
    for (i, (va, vb)) in a.lower.iter().zip(&b.lower).enumerate() {
        assert_eq!(
            va.to_bits(),
            vb.to_bits(),
            "{what}: lower bound differs at coordinate {i}: {va} vs {vb}"
        );
    }
    assert_eq!(a.upper.len(), b.upper.len(), "{what}: upper length");
    for (i, (va, vb)) in a.upper.iter().zip(&b.upper).enumerate() {
        assert_eq!(
            va.to_bits(),
            vb.to_bits(),
            "{what}: upper bound differs at coordinate {i}: {va} vs {vb}"
        );
    }
}

#[test]
fn cache_hits_are_bit_identical_to_cold_recomputation_across_the_registry() {
    let registry = ScenarioRegistry::with_builtins();
    let mut checked = 0usize;
    for scenario in registry.iter() {
        let model = scenario.compile().unwrap();
        if model.dim() > MAX_DIM {
            continue;
        }
        for method in [BoundMethod::Hull, BoundMethod::Pontryagin] {
            let request = BoundRequest {
                model: Some(scenario.name().to_string()),
                source: None,
                method,
                horizon: Some(scenario.horizon().min(1.0)),
                box_overrides: Vec::new(),
            };
            let what = format!("{} / {}", scenario.name(), method.name());

            let warm = QueryService::new(fast_options());
            let cold = warm.bound(&request).unwrap_or_else(|e| {
                panic!("{what}: cold query failed: {e}");
            });
            assert!(!cold.cache_hit, "{what}: fresh service reported a hit");
            let hot = warm.bound(&request).expect("hot query failed");
            assert!(hot.cache_hit, "{what}: replayed query missed the cache");
            // a hit shares the cached artifact outright…
            assert!(
                std::sync::Arc::ptr_eq(&cold.artifact, &hot.artifact),
                "{what}: hit did not return the cached artifact"
            );

            // …and that artifact matches an independent cold run bit for
            // bit, so caching can never change an answer — and the cold
            // computation itself is deterministic.
            let fresh = QueryService::new(fast_options());
            let recomputed = fresh.bound(&request).expect("recomputation failed");
            assert!(!recomputed.cache_hit, "{what}: fresh service hit");
            assert_artifacts_bit_identical(&hot.artifact, &recomputed.artifact, &what);
        }
        checked += 1;
    }
    assert!(checked >= 3, "only {checked} scenarios fit the sweep");
}

#[test]
fn concurrent_clients_racing_one_service_get_identical_answers() {
    // Eight clients fire the same cold query at one shared service. The
    // compute-outside-the-lock design may let several threads compute
    // redundantly, but every response must carry bit-identical bounds and
    // at least one response must be served from the cache once it warms.
    let service = QueryService::new(fast_options());
    let request = BoundRequest {
        model: Some("sir".to_string()),
        source: None,
        method: BoundMethod::Hull,
        horizon: Some(1.0),
        box_overrides: Vec::new(),
    };
    let outcomes: Vec<_> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..8)
            .map(|_| {
                scope.spawn(|| {
                    let first = service.bound(&request).expect("racing query failed");
                    // a second round per client is guaranteed warm
                    let second = service.bound(&request).expect("warm query failed");
                    (first, second)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    let reference = &outcomes[0].0.artifact;
    let mut hits = 0usize;
    for (i, (first, second)) in outcomes.iter().enumerate() {
        assert_artifacts_bit_identical(reference, &first.artifact, &format!("client {i} round 1"));
        assert_artifacts_bit_identical(reference, &second.artifact, &format!("client {i} round 2"));
        assert!(second.cache_hit, "client {i}: warm round missed the cache");
        hits += usize::from(first.cache_hit) + 1;
    }
    assert!(hits >= 8, "the cache never warmed across 16 queries");
}

/// Splits a bound response line into its artifact JSON and the fields the
/// splice writes after it (`cache`, `cache_hit`, `elapsed_ns`, `ok`).
fn split_response(line: &str) -> (&str, &str) {
    let artifact = line
        .strip_prefix(r#"{"artifact":"#)
        .unwrap_or_else(|| panic!("response does not open with its artifact: {line}"));
    let tail = artifact
        .rfind(r#","cache":"#)
        .unwrap_or_else(|| panic!("response has no cache field: {line}"));
    artifact.split_at(tail)
}

/// Checks the fields after the artifact, and that `elapsed_ns` is a plain
/// integer.
fn assert_tail(tail: &str, cache_hit: bool, what: &str) {
    let (cache, flag) = if cache_hit { ("hit", 1) } else { ("miss", 0) };
    let prefix = format!(r#","cache":"{cache}","cache_hit":{flag},"elapsed_ns":"#);
    let elapsed = tail
        .strip_prefix(&prefix)
        .and_then(|rest| rest.strip_suffix(r#","ok":true}"#))
        .unwrap_or_else(|| panic!("{what}: unexpected response tail `{tail}`"));
    assert!(
        !elapsed.is_empty() && elapsed.bytes().all(|b| b.is_ascii_digit()),
        "{what}: elapsed_ns `{elapsed}`"
    );
}

#[test]
fn served_hits_splice_the_cold_rendering_and_parse_nothing() {
    // By name, by inline source and with a box override: four cells over
    // two distinct source texts (`sir` thrice, `sis` inline).
    let registry = ScenarioRegistry::with_builtins();
    let inline = Json::object([
        ("op", Json::string("bound")),
        (
            "source",
            Json::string(registry.get("sis").unwrap().source()),
        ),
        ("method", Json::string("hull")),
        ("horizon", Json::Number(1.0)),
    ])
    .render();
    let lines = [
        r#"{"op":"bound","model":"sir","method":"hull","horizon":1.0}"#.to_string(),
        r#"{"op":"bound","model":"sir","method":"hull","horizon":1.0,"box":{"contact":[2,4]}}"#
            .to_string(),
        r#"{"op":"bound","model":"sir","method":"pontryagin","horizon":1.0}"#.to_string(),
        inline,
    ];
    let metrics = Metrics::enabled();
    let service = QueryService::new(fast_options()).with_metrics(metrics.clone());
    let counter = |c: Counter| metrics.snapshot().unwrap().counter(c);

    let cold: Vec<String> = lines.iter().map(|l| service.handle_line(l).0).collect();
    assert_eq!(
        counter(Counter::ServeSourceParses),
        2,
        "one parse per distinct source text"
    );
    assert_eq!(counter(Counter::ServeArtifactMisses), 4);

    for round in 0..3 {
        for (line, cold_line) in lines.iter().zip(&cold) {
            let what = format!("round {round}: {line}");
            let (hot_line, stop) = service.handle_line(line);
            assert!(!stop);
            let (cold_artifact, cold_tail) = split_response(cold_line);
            let (hot_artifact, hot_tail) = split_response(&hot_line);
            assert_eq!(hot_artifact, cold_artifact, "{what}: artifact bytes");
            assert_tail(cold_tail, false, &what);
            assert_tail(hot_tail, true, &what);
            let parsed = json::parse(&hot_line).expect("a hot line is JSON");
            assert_eq!(parsed.get("cache_hit").and_then(Json::as_f64), Some(1.0));

            // hits share the one rendering the cold computation stored
            let Ok(Request::Bound(request)) = Request::parse(line) else {
                panic!("{what}: not a bound request");
            };
            let first = service.bound(&request).expect("hit");
            let second = service.bound(&request).expect("hit");
            assert!(first.cache_hit && second.cache_hit, "{what}");
            assert!(
                std::sync::Arc::ptr_eq(&first.rendered, &second.rendered),
                "{what}: hits rendered afresh"
            );
            assert_eq!(&*first.rendered, cold_artifact, "{what}: stored rendering");
        }
    }
    assert_eq!(
        counter(Counter::ServeSourceParses),
        2,
        "hits must not parse their source"
    );
    assert_eq!(counter(Counter::ServeArtifactHits), 3 * 4 * 3);
    let (stats, _) = service.handle_line(r#"{"op":"stats"}"#);
    let stats = json::parse(&stats).expect("stats line is JSON");
    assert_eq!(
        stats
            .get("stats")
            .and_then(|s| s.get("source_parses"))
            .and_then(Json::as_f64),
        Some(2.0)
    );
}

#[test]
fn hull_vertex_evaluations_are_pinned() {
    // The counter is a pure function of the code: one count per grid point
    // evaluated per right-hand side (3^d − 1 once the box has opened up),
    // so any change to the enumeration shows here exactly.
    for (model, evals) in [("sir", 10_358), ("pod_choices_d2", 95_950)] {
        let outcome = QueryService::new(fast_options())
            .bound(&hull_request(model))
            .unwrap_or_else(|e| panic!("{model}: hull query failed: {e}"));
        assert_eq!(
            outcome.artifact.cost.hull_vertex_evals, evals,
            "{model}: hull vertex evaluations"
        );
    }
}

/// One served Pontryagin query's pinned work and answer: sweeps, RK4
/// steps, Jacobian evaluations, then every coordinate's lower and upper
/// extreme as `f64::to_bits`.
type SweepPin = (&'static str, [u64; 3], &'static [u64], &'static [u64]);

const SWEEP_PINS: [SweepPin; 4] = [
    (
        "sir",
        [29, 3120, 1160],
        &[0x3fd837ae5777b52e, 0x3f90b78ee1081aec, 0x3fbd8d54830054bb],
        &[0x3feba42593d43b9a, 0x3fc5c14d86cfabd5, 0x3fe045889b8c4c03],
    ),
    (
        "botnet",
        [28, 4280, 1120],
        &[
            0x3fd62d183070b1ff,
            0x3f454a10a8d3b8a5,
            0x3f5c9f5243bf3129,
            0x3fb15ed5b2f1dbd4,
        ],
        &[
            0x3fedc0831c55affe,
            0x3fc29bfe6ede8cf4,
            0x3fc7d7b0afe763f9,
            0x3fd656bf10ebe31e,
        ],
    ),
    // 4 Θ vertices per switch scan over 4 reduced coordinates; its
    // costate gate trips on three extremes
    (
        "gps",
        [28, 3920, 1120],
        &[
            0x3fbdf4e288a105b9,
            0x3f820058dde8e276,
            0x3fd14f93898d31a8,
            0x3fbab7db56aad501,
        ],
        &[
            0x3fdf9c7562ac9afc,
            0x3fc2a4733037a0aa,
            0x3fdc70544573ad6f,
            0x3fd4c4c32edda2f4,
        ],
    ),
    // six of its 16 extremes escalate to the vertex starts, and their
    // step searches reject trial passes
    (
        "bike_city_4",
        [80, 12880, 3200],
        &[
            0xbf995059fd8713b7,
            0xbfa7cd8a654bbc38,
            0xbf980fb88056ef5c,
            0xbf932dbb2c75cc71,
            0x3fc998fe474c0097,
            0x3fc998fe474c0097,
            0x3fc9f2fec7c041dd,
            0x3fca7ba131fdb3fe,
        ],
        &[
            0x3fa99c06e2cffd96,
            0x3f8b5f03859b1531,
            0x3f7597f5e10e4bc1,
            0x3fc15697fc28a9c9,
            0x3fd0b7e0d019dc98,
            0x3fd184f4e22a7da6,
            0x3fd36c69b0e5d6f0,
            0x3fd11787939c07a5,
        ],
    ),
];

#[test]
fn pontryagin_sweep_work_is_pinned() {
    // The sweep counters are pure functions of the code as well: one more
    // sweep (a backward pass with its Jacobians) or one more trial forward
    // pass anywhere in a served solve shows here exactly. Every query runs
    // at the scenario's declared horizon, every coordinate and both
    // extremes, single start with the escalation ladder, the extremes of
    // each bounding drift in one solve sharing their first passes. The
    // extremes are pinned bit for bit too, so a batched backward pass or
    // switch scan that drifted from the per-interval scalar sweep, or a
    // trial pass started late on a stale prefix, fails here.
    for (model, work, lower, upper) in SWEEP_PINS {
        let outcome = QueryService::new(fast_options())
            .bound(&pontryagin_request(model))
            .unwrap_or_else(|e| panic!("{model}: Pontryagin query failed: {e}"));
        let artifact = &outcome.artifact;
        let cost = &artifact.cost;
        assert_eq!(
            [cost.sweeps, cost.rk4_steps, cost.jacobian_evals],
            work,
            "{model}: (sweeps, RK4 steps, Jacobian evaluations)"
        );
        let bits = |values: &[f64]| values.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&artifact.lower), lower, "{model}: lower extremes");
        assert_eq!(bits(&artifact.upper), upper, "{model}: upper extremes");
    }
}

#[test]
fn hull_queries_past_the_lane_cap_are_refused_at_once() {
    // `grid_6x6` (36 species) needs 3^36 grid points per stage and
    // `ring_48`'s 3^48 overflows `usize`: both get a typed refusal before
    // any integration work instead of running out of memory.
    let service = QueryService::new(fast_options());
    for model in ["grid_6x6", "ring_48"] {
        let started = std::time::Instant::now();
        let err = service
            .bound(&hull_request(model))
            .expect_err("an oversized hull must be refused");
        let elapsed = started.elapsed();
        assert!(
            err.contains("differential hull refused") && err.contains("drift lanes"),
            "{model}: unexpected error `{err}`"
        );
        assert!(
            elapsed < std::time::Duration::from_secs(1),
            "{model}: refusal took {elapsed:?}"
        );
    }
}
