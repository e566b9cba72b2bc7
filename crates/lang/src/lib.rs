//! `mfu-lang`: a textual model language for imprecise population CTMCs.
//!
//! The rest of the workspace analyses models given as Rust values — a
//! [`PopulationModel`](mfu_ctmc::population::PopulationModel) for the
//! finite-`N` stochastic side and an
//! [`ImpreciseDrift`](mfu_core::drift::ImpreciseDrift) for the mean-field
//! side. This crate adds a compact, PRISM-flavoured *textual* front-end for
//! both: declare species, interval-valued parameters, constants, transition
//! rules and an initial condition, and [`compile()`] produces the two
//! synchronized backends ready for every analysis in `mfu-core`, the
//! Gillespie simulator in `mfu-sim` and the finite-chain expansion in
//! `mfu-ctmc`.
//!
//! # Example
//!
//! The SIR epidemic of Section V of Bortolussi & Gast (DSN 2016), declared
//! in nine lines and pushed through a Pontryagin transient bound:
//!
//! ```
//! use mfu_core::drift::ImpreciseDrift;
//! use mfu_core::pontryagin::{PontryaginOptions, PontryaginSolver};
//!
//! let model = mfu_lang::compile(
//!     "model sir;
//!      species S, I, R;
//!      param contact in [1, 10];
//!      const a = 0.1;
//!      rule infect:  S -> I @ (a + contact * I) * S;
//!      rule recover: I -> R @ 5 * I;
//!      rule wane:    R -> S @ 1 * R;
//!      init S = 0.7, I = 0.3, R = 0;",
//! )?;
//!
//! // Mean-field side: bound the infected fraction at T = 3.
//! let drift = model.reduced_drift();
//! let solver = PontryaginSolver::new(PontryaginOptions::default());
//! let (lo, hi) = solver.coordinate_extremes(&drift, &model.reduced_initial_state(), 3.0, 1)?;
//! assert!(0.0 <= lo && lo < hi && hi <= 1.0);
//!
//! // Stochastic side: the same source yields the finite-N population model.
//! let population = model.population_model()?;
//! assert_eq!(population.dim(), 3);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```
//!
//! Ready-made models — the paper's case studies plus new ones — live in the
//! [`scenarios`] registry:
//!
//! ```
//! let registry = mfu_lang::scenarios::ScenarioRegistry::with_builtins();
//! let botnet = registry.compile("botnet")?;
//! assert_eq!(botnet.species(), ["S", "D", "A", "P"]);
//! # Ok::<(), mfu_lang::LangError>(())
//! ```
//!
//! # Grammar
//!
//! Comments run from `//` or `#` to the end of the line. Whitespace is
//! insignificant. In EBNF:
//!
//! ```text
//! model      = "model" ident ";" { item } ;
//! item       = species | param | const | let | rule | init ;
//!
//! species    = "species" ident { "," ident } ";" ;
//! param      = "param" ident "in" "[" expr "," expr "]" ";" ;
//! const      = "const" ident "=" expr ";" ;
//! let        = "let" ident "=" expr ";" ;
//! rule       = "rule" ident ":" side "->" side "@" expr ";" ;
//! init       = "init" ident "=" expr { "," ident "=" expr } ";" ;
//!
//! side       = "0" | term { "+" term } ;
//! term       = [ integer ] ident ;
//!
//! expr       = when | cmp ;
//! when       = "when" expr "{" expr "}" "else" ( when | "{" expr "}" ) ;
//! cmp        = add [ ("<" | "<=" | ">" | ">=" | "==" | "!=") add ] ;
//! add        = mul { ("+" | "-") mul } ;
//! mul        = unary { ("*" | "/") unary } ;
//! unary      = "-" unary | power ;
//! power      = atom [ "^" unary ] ;            (* right-associative *)
//! atom       = number | ident | call | "(" expr ")" ;
//! call       = ident "(" [ expr { "," expr } ] ")" ;
//!
//! ident      = letter-or-underscore { letter-or-digit-or-underscore } ;
//! number     = unsigned decimal literal with optional fraction/exponent ;
//! ```
//!
//! Semantics:
//!
//! * **species** name the state coordinates; their values are *normalised
//!   fractions* (counts divided by the scale `N`).
//! * **param** declares an imprecise parameter ranging over a closed
//!   interval; a degenerate interval `[v, v]` declares a precisely known
//!   rate. The bounds must be constant expressions with `lo <= hi`.
//! * **const** names a scalar usable in any later expression; definitions
//!   may reference earlier constants.
//! * **let** names a *shared subexpression* usable in any rule rate.
//!   Unlike a constant it may reference species, parameters, earlier
//!   `let`s and comparisons; references are inlined during validation, so
//!   rules sharing a `let` evaluate the same expression tree (the GPS
//!   model shares its service-denominator `load` this way).
//! * **rule** gives a transition class: the two sides are stoichiometric
//!   sums (`S + I`, `2 I`, or `0` for nothing) and the rate is the density
//!   `β(x, ϑ)` of the scaled process — any expression over species,
//!   parameters, constants, `let`s and the builtins `min`, `max`, `abs`,
//!   `exp`, `log`, `sqrt`, `pow`, `indicator`. The builtin constant `N`
//!   equals `1` in these normalised units, so count-style rates such as
//!   `beta * S * I / N` stay valid verbatim.
//! * **guards** make rates piecewise: `when <cond> { e1 } else { e2 }`
//!   evaluates `e1` where the condition holds and `e2` elsewhere
//!   (`else when` chains give multi-piece definitions), e.g. the
//!   empty-queue guard of a processor-sharing service rate
//!   `when Q1 + Q2 > 0 { mu * Q1 / (Q1 + Q2) } else { 0 }`. Conditions
//!   are single comparisons (`<`, `<=`, `>`, `>=`, `==`, `!=`); they type
//!   as *booleans*, so using one as a number requires `indicator(cond)`
//!   (which is `1` where the condition holds, `0` elsewhere) and using a
//!   number as a condition is a type error with a source span.
//! * **init** assigns every species its initial fraction.
//!
//! Validation rejects — with caret diagnostics pointing into the source —
//! unknown identifiers, cross-namespace name clashes, non-integer or
//! non-positive stoichiometries, rules with zero net effect, inverted or
//! non-finite parameter intervals, constant expressions that reference
//! state, num/bool type errors around comparisons and guards, and
//! incomplete or duplicated `init` blocks.
//!
//! # Reduced coordinates
//!
//! When every rule conserves the total population (all jump vectors sum to
//! zero), [`CompiledModel::reduced_drift`] eliminates the *last* declared
//! species via `x_last = total − Σ_{i<last} x_i`, matching the paper's
//! treatment of the SIR model (Equation 11). Order the species so the
//! coordinate you care about least comes last.
//!
//! # Rate evaluation
//!
//! Validation produces [`expr::CompiledExpr`] trees, but nothing hot ever
//! interprets them: backend compilation lowers every rate through the
//! [`vm`] module to a flat [`RateProgram`] — a constant, a mass-action
//! fast path (`c · ϑ? · x_i (· x_j)`), or a register-based bytecode
//! program — preserving the tree's exact floating-point evaluation order.
//! Guarded rates lower to straight-line compare/select bytecode: both
//! branches evaluate and a branch-free select (a conditional move, not a
//! jump) picks the live one, so piecewise rates keep the linear dispatch
//! profile of the bytecode engine.
//! [`CompiledModel::population_model`] hands these programs to
//! `mfu_ctmc::transition::TransitionClass` (whose species supports drive
//! the dependency-graph Gillespie path in `mfu-sim`), and
//! [`DslDrift`] evaluates all rule rates in one VM pass
//! over a shared scratch register file. Measured speedup over the tree
//! interpreter: ≈4× per rate evaluation (see `BENCH_rate_engine.json` at
//! the repository root).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ast;
pub mod cache;
pub mod compile;
pub mod diagnostics;
pub mod expr;
pub mod hash;
pub mod lexer;
pub mod parser;
pub mod scenarios;
pub mod token;
pub mod validate;
pub mod vm;

pub use compile::{CompiledModel, DslDrift};
pub use diagnostics::{Diagnostic, LangError, Span};
pub use hash::{model_hash, source_hash, ModelHash, ModelInterner};
pub use scenarios::{Scenario, ScenarioRegistry};
pub use validate::ResolvedModel;
pub use vm::{ProgramSet, RateProgram};

/// Parses model source into a syntactic AST (no name resolution).
///
/// # Errors
///
/// Returns [`LangError::Lex`] or [`LangError::Parse`] with a span
/// diagnostic.
pub fn parse(source: &str) -> Result<ast::ModelAst, LangError> {
    parser::parse(source)
}

/// Parses, validates and compiles model source in one step.
///
/// # Errors
///
/// Returns the first [`LangError`] from any pipeline stage; semantic
/// errors carry a [`Diagnostic`] with the offending span.
pub fn compile(source: &str) -> Result<CompiledModel, LangError> {
    compile_observed(source, &mfu_obs::Obs::none())
}

/// [`compile()`] with an observability bundle attached.
///
/// With metrics enabled the three pipeline stages are timed
/// ([`Timer::LangParse`](mfu_obs::Timer::LangParse),
/// [`Timer::LangValidate`](mfu_obs::Timer::LangValidate),
/// [`Timer::LangLower`](mfu_obs::Timer::LangLower)), every rule rate is
/// lowered once to report its [`RateProgram`] shape (counted under
/// [`Counter::LangRulesLowered`](mfu_obs::Counter::LangRulesLowered)), and
/// the tracer receives one `rule_lowered` event per rule plus a
/// `model_compiled` summary. With the bundle disabled this is exactly
/// [`compile()`] — no clocks are read and no extra lowering runs.
///
/// # Errors
///
/// Same as [`compile()`].
pub fn compile_observed(source: &str, obs: &mfu_obs::Obs) -> Result<CompiledModel, LangError> {
    use mfu_obs::{Counter, Field, Timer};

    let metrics = &obs.metrics;
    let ast = metrics.time(Timer::LangParse, || parser::parse(source))?;
    let resolved = metrics.time(Timer::LangValidate, || validate::validate(&ast, source))?;
    let model = CompiledModel::new(resolved);

    // Backends lower rule rates lazily; with observability on, run the
    // lowering once here (compile-time cost only) so the per-rule program
    // shapes land in the metrics and trace.
    if obs.is_enabled() {
        metrics.time(Timer::LangLower, || {
            for rule in model.rules() {
                let program = vm::RateProgram::compile(&rule.rate);
                metrics.add(Counter::LangRulesLowered, 1);
                if obs.tracer.is_enabled() {
                    let kind = match program.kind() {
                        vm::ProgramKind::Const(_) => "const",
                        vm::ProgramKind::MassAction { .. } => "mass_action",
                        vm::ProgramKind::AffineProduct { .. } => "affine_product",
                        vm::ProgramKind::Bytecode(_) => "bytecode",
                    };
                    obs.tracer.event(
                        "rule_lowered",
                        &[
                            ("rule", Field::Str(&rule.name)),
                            ("kind", Field::Str(kind)),
                            ("registers", Field::U64(program.registers() as u64)),
                            ("fast_path", Field::Bool(program.is_fast_path())),
                        ],
                    );
                }
            }
        });
        if obs.tracer.is_enabled() {
            obs.tracer.event(
                "model_compiled",
                &[
                    ("model", Field::Str(model.name())),
                    ("species", Field::U64(model.dim() as u64)),
                    ("rules", Field::U64(model.rules().len() as u64)),
                    ("params", Field::U64(model.params().dim() as u64)),
                ],
            );
        }
    }
    Ok(model)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compile_pipeline_surfaces_each_stage() {
        // lex error
        assert!(matches!(compile("model m; ?"), Err(LangError::Lex(_))));
        // parse error
        assert!(matches!(
            compile("model m; species"),
            Err(LangError::Parse(_))
        ));
        // validation error
        assert!(matches!(
            compile("model m; species X; param r in [0,1]; rule g: X -> 0 @ y; init X = 1;"),
            Err(LangError::Validate(_))
        ));
        // success
        assert!(compile(
            "model m; species X; param r in [0,1]; rule g: X -> 0 @ r * X; init X = 1;"
        )
        .is_ok());
    }

    #[test]
    fn observed_compile_reports_stages_and_rule_shapes() {
        let source = "model sir;
             species S, I, R;
             param contact in [1, 10];
             const a = 0.1;
             rule infect:  S -> I @ (a + contact * I) * S;
             rule recover: I -> R @ 5 * I;
             rule wane:    R -> S @ 1 * R;
             init S = 0.7, I = 0.3, R = 0;";

        let obs = mfu_obs::Obs::with_metrics();
        let (tracer, sink) = mfu_obs::Tracer::to_buffer();
        let obs = mfu_obs::Obs {
            tracer,
            ..obs.clone()
        };
        let model = compile_observed(source, &obs).unwrap();
        assert_eq!(model.rules().len(), 3);

        let snapshot = obs.metrics.snapshot().unwrap();
        assert_eq!(snapshot.counter(mfu_obs::Counter::LangRulesLowered), 3);
        // stage timers tick (lowering three tiny rules may round to 0 ns,
        // but the parse of an eight-line model must not)
        assert!(snapshot.timer_ns(mfu_obs::Timer::LangParse) > 0);

        let trace = sink.contents();
        assert_eq!(trace.matches("\"ev\":\"rule_lowered\"").count(), 3);
        assert!(trace.contains("\"rule\":\"infect\""));
        assert!(trace.contains("\"kind\":\"affine_product\""));
        assert!(trace.contains("\"kind\":\"mass_action\""));
        assert!(trace.contains("\"ev\":\"model_compiled\""));

        // identical result through the plain entry point
        let plain = compile(source).unwrap();
        assert_eq!(plain.species(), model.species());
        assert_eq!(plain.rules().len(), model.rules().len());
    }

    #[test]
    fn errors_render_readably() {
        let err = compile("model m; species X; param r in [3, 1]; rule g: X -> 0 @ r; init X = 1;")
            .unwrap_err();
        let rendered = err.to_string();
        assert!(rendered.contains("inverted"));
        assert!(rendered.contains("^"));
        assert!(err.diagnostic().is_some());
    }
}
