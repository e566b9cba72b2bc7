//! Canonical model hashing and content-addressed interning.
//!
//! [`model_hash`] computes a stable structural hash over a
//! [`ResolvedModel`] — the post-validation form in which comments and
//! whitespace are gone and `const`/`let` bindings are already inlined and
//! folded. Two sources that resolve to the same species, parameter space,
//! rules and initial state therefore hash identically no matter how they
//! were formatted, commented, or how their constants were named and
//! ordered. Conversely everything semantically load-bearing is hashed:
//! species order (it indexes the state), parameter order and intervals,
//! rule order, jump vectors, the full rate-expression structure and the
//! initial fractions.
//!
//! The model *name* is deliberately excluded: it labels the model but does
//! not change its dynamics, so `sir` and its rescaled registry twin
//! `sir_1e6` (identical sources except the `model` header) intern to one
//! compiled model. Rule names *are* included — they surface in transition
//! diagnostics and trace events, so two models that differ only in rule
//! names are observably different.
//!
//! [`ModelInterner`] builds on the hash: it maps content hash → compiled
//! model (shared via [`Arc`]) so identical sources compile once, with an
//! optional capacity bound evicted in deterministic least-recently-used
//! order by an [`LruCache`]. In front of the hash sits a tier keyed by the
//! exact source text, so a text seen before skips parse, validate and hash
//! altogether; a reformatted or renamed text still finds its model through
//! the hash.
//!
//! ```
//! use mfu_lang::hash::source_hash;
//!
//! let (original, _) = source_hash(
//!     "model a; species S, I; param c in [1, 2]; \
//!      rule infect: S -> I @ c * S * I; init S = 0.9, I = 0.1;",
//! )?;
//! // renamed, reformatted, commented — same dynamics, same hash
//! let (reformatted, _) = source_hash(
//!     "model b; // a rename and a comment\n\
//!      species S, I;\n param c in [1, 2];\n\
//!      rule infect: S -> I @ c * S * I;\n init S = 0.9, I = 0.1;",
//! )?;
//! assert_eq!(original, reformatted);
//! // widening a parameter interval is semantically load-bearing
//! let (widened, _) = source_hash(
//!     "model a; species S, I; param c in [1, 3]; \
//!      rule infect: S -> I @ c * S * I; init S = 0.9, I = 0.1;",
//! )?;
//! assert_ne!(original, widened);
//! # Ok::<(), mfu_lang::LangError>(())
//! ```

use std::fmt;
use std::sync::Arc;

use crate::ast::CmpOp;
use crate::cache::LruCache;
use crate::compile::CompiledModel;
use crate::diagnostics::LangError;
use crate::expr::{Builtin, CompiledExpr};
use crate::validate::ResolvedModel;
use crate::{parser, validate};

/// A 128-bit content hash of a resolved model.
///
/// Displayed and parsed as 32 lowercase hex digits. The hash is FNV-1a
/// over a tagged byte stream of the model structure; it is stable across
/// processes and platforms (all floats are hashed via their IEEE-754 bit
/// patterns) but is *not* cryptographic — it addresses a cache, it does
/// not authenticate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ModelHash(pub u128);

impl ModelHash {
    /// Parses the 32-hex-digit form produced by `Display`.
    pub fn parse(text: &str) -> Option<ModelHash> {
        if text.len() != 32 {
            return None;
        }
        u128::from_str_radix(text, 16).ok().map(ModelHash)
    }
}

impl fmt::Display for ModelHash {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:032x}", self.0)
    }
}

/// FNV-1a, 128-bit variant: offset basis and prime from the FNV spec.
struct Fnv128(u128);

const FNV128_OFFSET: u128 = 0x6c62272e07bb014262b821756295c58d;
const FNV128_PRIME: u128 = 0x0000000001000000000000000000013b;

impl Fnv128 {
    fn new() -> Self {
        Fnv128(FNV128_OFFSET)
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u128::from(b);
            self.0 = self.0.wrapping_mul(FNV128_PRIME);
        }
    }

    /// A one-byte structural tag separating hashed fields, so adjacent
    /// variable-length fields cannot alias (e.g. species `["ab", "c"]`
    /// vs `["a", "bc"]`).
    fn tag(&mut self, t: u8) {
        self.write(&[t]);
    }

    fn write_usize(&mut self, v: usize) {
        self.write(&(v as u64).to_le_bytes());
    }

    fn write_f64(&mut self, v: f64) {
        self.write(&v.to_bits().to_le_bytes());
    }

    fn write_str(&mut self, s: &str) {
        self.write_usize(s.len());
        self.write(s.as_bytes());
    }
}

/// Explicit stable discriminants — never derived from source order via
/// `as`, so reordering an enum in a refactor cannot silently change every
/// model hash.
fn builtin_tag(b: Builtin) -> u8 {
    match b {
        Builtin::Min => 1,
        Builtin::Max => 2,
        Builtin::Abs => 3,
        Builtin::Exp => 4,
        Builtin::Log => 5,
        Builtin::Sqrt => 6,
        Builtin::Pow => 7,
    }
}

fn cmp_tag(op: CmpOp) -> u8 {
    match op {
        CmpOp::Lt => 1,
        CmpOp::Le => 2,
        CmpOp::Gt => 3,
        CmpOp::Ge => 4,
        CmpOp::Eq => 5,
        CmpOp::Ne => 6,
    }
}

fn hash_expr(h: &mut Fnv128, expr: &CompiledExpr) {
    match expr {
        CompiledExpr::Const(v) => {
            h.tag(1);
            h.write_f64(*v);
        }
        CompiledExpr::Species(i) => {
            h.tag(2);
            h.write_usize(*i);
        }
        CompiledExpr::Param(j) => {
            h.tag(3);
            h.write_usize(*j);
        }
        CompiledExpr::Neg(a) => {
            h.tag(4);
            hash_expr(h, a);
        }
        CompiledExpr::Add(a, b) => {
            h.tag(5);
            hash_expr(h, a);
            hash_expr(h, b);
        }
        CompiledExpr::Sub(a, b) => {
            h.tag(6);
            hash_expr(h, a);
            hash_expr(h, b);
        }
        CompiledExpr::Mul(a, b) => {
            h.tag(7);
            hash_expr(h, a);
            hash_expr(h, b);
        }
        CompiledExpr::Div(a, b) => {
            h.tag(8);
            hash_expr(h, a);
            hash_expr(h, b);
        }
        CompiledExpr::Pow(a, b) => {
            h.tag(9);
            hash_expr(h, a);
            hash_expr(h, b);
        }
        CompiledExpr::Call1(b, a) => {
            h.tag(10);
            h.tag(builtin_tag(*b));
            hash_expr(h, a);
        }
        CompiledExpr::Call2(bi, a, b) => {
            h.tag(11);
            h.tag(builtin_tag(*bi));
            hash_expr(h, a);
            hash_expr(h, b);
        }
        CompiledExpr::Cmp(op, a, b) => {
            h.tag(12);
            h.tag(cmp_tag(*op));
            hash_expr(h, a);
            hash_expr(h, b);
        }
        CompiledExpr::Select(c, t, e) => {
            h.tag(13);
            hash_expr(h, c);
            hash_expr(h, t);
            hash_expr(h, e);
        }
    }
}

/// Computes the canonical content hash of a resolved model.
///
/// Hashed: species names in order, parameter names and interval bounds in
/// order, every rule (name, jump vector, rate expression structure) in
/// order, and the initial fractions. Excluded: the model name (a label,
/// not dynamics) and the `consts` table (already inlined into the rates,
/// kept on the model only for introspection).
pub fn model_hash(model: &ResolvedModel) -> ModelHash {
    let mut h = Fnv128::new();

    h.tag(b'S');
    h.write_usize(model.species.len());
    for name in &model.species {
        h.write_str(name);
    }

    h.tag(b'P');
    let names = model.param_space.names();
    let intervals = model.param_space.intervals();
    h.write_usize(names.len());
    for (name, iv) in names.iter().zip(intervals) {
        h.write_str(name);
        h.write_f64(iv.lo());
        h.write_f64(iv.hi());
    }

    h.tag(b'R');
    h.write_usize(model.rules.len());
    for rule in &model.rules {
        h.write_str(&rule.name);
        h.write_usize(rule.change.len());
        for &c in &rule.change {
            h.write_f64(c);
        }
        hash_expr(&mut h, &rule.rate);
    }

    h.tag(b'I');
    h.write_usize(model.init.len());
    for &v in &model.init {
        h.write_f64(v);
    }

    ModelHash(h.0)
}

/// Parses and validates a source, returning its content hash alongside the
/// resolved model — the front half of compilation, without lowering.
pub fn source_hash(source: &str) -> Result<(ModelHash, ResolvedModel), LangError> {
    let ast = parser::parse(source)?;
    let resolved = validate::validate(&ast, source)?;
    let hash = model_hash(&resolved);
    Ok((hash, resolved))
}

/// A content-addressed cache of compiled models, with a source-text tier
/// in front.
///
/// The models live in an [`LruCache`] keyed by content hash; hits return
/// the same [`Arc`] so downstream engines share one compiled model. With a
/// capacity bound, insertion past the bound evicts the least recently used
/// entry — "use" meaning any lookup or insertion — deterministically.
///
/// A second [`LruCache`] of the same capacity maps each exact source text
/// that validated to its content hash. `intern_source` looks the text up
/// first: when it is known and its model is still held, the call returns
/// that model with no parse, validate or hash. Otherwise it parses and
/// validates (counted by [`parses`](Self::parses)), hashes, records the
/// text, and compiles only when the hash is new. The content hash stays
/// the model's identity: a reformatted or renamed source parses once and
/// then shares its model through the hash.
#[derive(Debug)]
pub struct ModelInterner {
    entries: LruCache<u128, Arc<CompiledModel>>,
    texts: LruCache<String, ModelHash>,
    hits: u64,
    misses: u64,
    parses: u64,
}

impl ModelInterner {
    /// An unbounded interner.
    pub fn new() -> Self {
        ModelInterner::with_capacity(usize::MAX)
    }

    /// An interner holding at most `capacity` compiled models, and as many
    /// source texts (LRU eviction past the bound). A capacity of zero
    /// caches nothing.
    pub fn with_capacity(capacity: usize) -> Self {
        ModelInterner {
            entries: LruCache::new(capacity),
            texts: LruCache::new(capacity),
            hits: 0,
            misses: 0,
            parses: 0,
        }
    }

    /// Number of compiled models currently held.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` when no models are held.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Number of source texts currently held.
    pub fn text_len(&self) -> usize {
        self.texts.len()
    }

    /// Calls of `intern_source` that returned a cached model.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Cache misses (each one compiled a model).
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Calls of `intern_source` that ran parse and validate, failures
    /// included: every call whose exact text was not known with its model
    /// still held.
    pub fn parses(&self) -> u64 {
        self.parses
    }

    /// Models evicted to stay within the capacity bound.
    pub fn evictions(&self) -> u64 {
        self.entries.evictions()
    }

    /// Looks a model up by content hash without compiling anything.
    pub fn get(&mut self, hash: ModelHash) -> Option<Arc<CompiledModel>> {
        self.entries.get(&hash.0).map(Arc::clone)
    }

    /// Interns a source: returns the cached compiled model of a known text
    /// or of a known hash, compiles and caches on a miss.
    pub fn intern_source(
        &mut self,
        source: &str,
    ) -> Result<(ModelHash, Arc<CompiledModel>), LangError> {
        // A known text whose model was evicted falls through to a parse.
        if let Some(&hash) = self.texts.get(source) {
            if let Some(model) = self.get(hash) {
                self.hits += 1;
                return Ok((hash, model));
            }
        }
        self.parses += 1;
        let (hash, resolved) = source_hash(source)?;
        self.texts.insert(source.to_string(), hash);
        if let Some(model) = self.get(hash) {
            self.hits += 1;
            return Ok((hash, model));
        }
        self.misses += 1;
        let model = Arc::new(CompiledModel::new(resolved));
        self.insert(hash, Arc::clone(&model));
        Ok((hash, model))
    }

    /// Inserts an already-compiled model under its content hash.
    pub fn insert(&mut self, hash: ModelHash, model: Arc<CompiledModel>) {
        self.entries.insert(hash.0, model);
    }
}

impl Default for ModelInterner {
    fn default() -> Self {
        ModelInterner::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenarios::ScenarioRegistry;

    const BASE: &str = "model decay;\n\
                        species X, Y;\n\
                        param k in [0.5, 2.0];\n\
                        const half = 0.5;\n\
                        rule fade: X -> Y @ k * half * X;\n\
                        init X = 0.7, Y = 0.3;\n";

    fn hash_of(source: &str) -> ModelHash {
        let (hash, _) = source_hash(source).expect("source should validate");
        hash
    }

    #[test]
    fn whitespace_and_comments_do_not_change_the_hash() {
        let reformatted = "model decay;\n\n\
                           // a comment the hash must not see\n\
                           species X , Y ;\n\
                           param k in [ 0.5 , 2.0 ];\n\
                           const half = 0.5; // trailing note\n\
                           rule fade: X -> Y @ k * half * X;\n\
                           init X = 0.7 , Y = 0.3 ;\n";
        assert_eq!(hash_of(BASE), hash_of(reformatted));
    }

    #[test]
    fn model_name_is_excluded_from_the_hash() {
        let renamed = BASE.replacen("model decay;", "model decay_v2;", 1);
        assert_eq!(hash_of(BASE), hash_of(&renamed));
    }

    #[test]
    fn const_renaming_and_reordering_do_not_change_the_hash() {
        // Constants are inlined during validation, so their names and
        // declaration position are invisible to the hash.
        let reordered = "model decay;\n\
                         const h2 = 0.5;\n\
                         species X, Y;\n\
                         param k in [0.5, 2.0];\n\
                         rule fade: X -> Y @ k * h2 * X;\n\
                         init X = 0.7, Y = 0.3;\n";
        assert_eq!(hash_of(BASE), hash_of(reordered));
    }

    #[test]
    fn semantic_changes_change_the_hash() {
        let base = hash_of(BASE);
        let cases = [
            // Different initial fraction.
            BASE.replacen("X = 0.7", "X = 0.6", 1)
                .replacen("Y = 0.3", "Y = 0.4", 1),
            // Different parameter interval.
            BASE.replacen("[0.5, 2.0]", "[0.5, 3.0]", 1),
            // Different rate expression.
            BASE.replacen("k * half * X", "k * X", 1),
            // Different rule name (rule names surface in diagnostics).
            BASE.replacen("rule fade:", "rule decay_step:", 1),
            // Different species name (species index the state).
            BASE.replace("X", "Z"),
        ];
        for changed in &cases {
            assert_ne!(base, hash_of(changed), "hash ignored change:\n{changed}");
        }
    }

    #[test]
    fn species_order_is_semantically_load_bearing() {
        let swapped = "model decay;\n\
                       species Y, X;\n\
                       param k in [0.5, 2.0];\n\
                       const half = 0.5;\n\
                       rule fade: X -> Y @ k * half * X;\n\
                       init X = 0.7, Y = 0.3;\n";
        assert_ne!(hash_of(BASE), hash_of(swapped));
    }

    #[test]
    fn hash_display_round_trips() {
        let hash = hash_of(BASE);
        let text = hash.to_string();
        assert_eq!(text.len(), 32);
        assert_eq!(ModelHash::parse(&text), Some(hash));
        assert_eq!(ModelHash::parse("not-a-hash"), None);
        assert_eq!(ModelHash::parse(""), None);
    }

    #[test]
    fn registry_models_are_pairwise_distinct_except_the_rescaled_twin() {
        // `sir` and `sir_1e6` share a source up to the model header, which
        // the hash deliberately ignores — that dedup is the point of
        // interning. Every other pair must be distinct.
        let registry = ScenarioRegistry::with_builtins();
        let hashed: Vec<(String, ModelHash)> = registry
            .iter()
            .map(|s| (s.name().to_string(), hash_of(s.source())))
            .collect();
        for (i, (name_a, hash_a)) in hashed.iter().enumerate() {
            for (name_b, hash_b) in &hashed[i + 1..] {
                let twins = (name_a == "sir" && name_b == "sir_1e6")
                    || (name_a == "sir_1e6" && name_b == "sir");
                if twins {
                    assert_eq!(hash_a, hash_b, "rescaled twins must intern together");
                } else {
                    assert_ne!(hash_a, hash_b, "{name_a} and {name_b} collided");
                }
            }
        }
    }

    #[test]
    fn interner_compiles_once_and_shares_the_model() {
        let mut interner = ModelInterner::new();
        let (h1, m1) = interner.intern_source(BASE).expect("first intern");
        assert_eq!(
            (interner.hits(), interner.misses(), interner.parses()),
            (0, 1, 1)
        );
        for round in 1..=3 {
            let (h, m) = interner.intern_source(BASE).expect("repeat intern");
            assert_eq!(h, h1);
            assert!(Arc::ptr_eq(&m, &m1), "hit must return the same Arc");
            assert_eq!(
                (interner.hits(), interner.misses(), interner.parses()),
                (round, 1, 1),
                "an identical text is neither parsed nor compiled again"
            );
        }
        assert_eq!(interner.len(), 1);
    }

    #[test]
    fn bounded_interner_evicts_least_recently_used() {
        let variant = |k: &str| BASE.replacen("[0.5, 2.0]", &format!("[0.5, {k}]"), 1);
        let (a, b, c) = (variant("2.0"), variant("3.0"), variant("4.0"));

        let mut interner = ModelInterner::with_capacity(2);
        let (ha, ma) = interner.intern_source(&a).expect("a");
        let (hb, _) = interner.intern_source(&b).expect("b");
        // A text hit on `a` touches its model, so `b` is now the least
        // recently used.
        interner.intern_source(&a).expect("a again");
        let (hc, _) = interner.intern_source(&c).expect("c");

        assert_eq!(interner.len(), 2);
        assert_eq!(interner.evictions(), 1);
        assert!(interner.get(hc).is_some(), "new entry present");
        assert!(interner.get(hb).is_none(), "LRU entry evicted");
        let (_, again) = interner.intern_source(&a).expect("a once more");
        assert!(Arc::ptr_eq(&again, &ma), "recently used entry survives");
        assert_eq!(interner.get(ha).map(|m| Arc::ptr_eq(&m, &ma)), Some(true));
        assert_eq!(interner.parses(), 3, "`a`'s text survived with its model");
    }

    #[test]
    fn zero_capacity_interner_caches_nothing() {
        let mut interner = ModelInterner::with_capacity(0);
        let (_, m1) = interner.intern_source(BASE).expect("first");
        let (_, m2) = interner.intern_source(BASE).expect("second");
        assert!(!Arc::ptr_eq(&m1, &m2));
        assert_eq!(interner.len(), 0);
        assert_eq!(
            (interner.hits(), interner.misses(), interner.parses()),
            (0, 2, 2),
            "no text and no model is kept, so every call parses and compiles"
        );
    }

    #[test]
    fn reformatted_text_parses_once_and_shares_the_model() {
        // The rescaled twin pattern: a renamed model is a hit, not a miss.
        let mut interner = ModelInterner::new();
        let (h1, m1) = interner.intern_source(BASE).expect("base");
        let renamed = BASE.replacen("model decay;", "model decay_xl;", 1);
        let spaced = BASE.replace(", ", " ,  ");
        for (i, variant) in [renamed, spaced].iter().enumerate() {
            let parses = 2 + i as u64;
            for repeat in 0..2 {
                let (h, m) = interner.intern_source(variant).expect("variant");
                assert_eq!(h, h1, "a new text of the same model keeps its hash");
                assert!(Arc::ptr_eq(&m, &m1), "the hash path shares the model");
                assert_eq!(
                    interner.parses(),
                    parses,
                    "a new text parses once, then hits by text (repeat {repeat})"
                );
            }
        }
        assert_eq!((interner.hits(), interner.misses()), (4, 1));
        assert_eq!(interner.len(), 1);
    }

    #[test]
    fn invalid_source_errors_every_call_and_is_never_cached() {
        let mut interner = ModelInterner::new();
        for call in 1..=3 {
            assert!(interner.intern_source("model broken;").is_err());
            assert_eq!(
                (interner.hits(), interner.misses(), interner.parses()),
                (0, 0, call),
                "an invalid text parses (and fails) on every call"
            );
        }
        assert!(interner.is_empty());
        interner
            .intern_source(BASE)
            .expect("a valid text still interns");
        assert_eq!(interner.parses(), 4);
    }

    #[test]
    fn an_evicted_models_text_falls_through_to_a_recompile() {
        let other = BASE.replacen("[0.5, 2.0]", "[0.5, 3.0]", 1);
        let mut interner = ModelInterner::with_capacity(1);
        let (h1, m1) = interner.intern_source(BASE).expect("base");
        // Evict the model alone: BASE's text stays known.
        let (h2, _) = source_hash(&other).expect("other validates");
        interner.insert(h2, Arc::new(crate::compile(&other).expect("compiles")));
        assert!(interner.get(h1).is_none(), "BASE's model was evicted");

        let (h, m) = interner.intern_source(BASE).expect("base again");
        assert_eq!(h, h1);
        assert!(!Arc::ptr_eq(&m, &m1), "an evicted model is compiled afresh");
        assert_eq!(
            (interner.hits(), interner.misses(), interner.parses()),
            (0, 2, 2),
            "a known text whose model is gone parses, misses and recompiles"
        );
        let (_, hot) = interner.intern_source(BASE).expect("base hot");
        assert!(Arc::ptr_eq(&hot, &m), "the text is stored again");
        assert_eq!((interner.hits(), interner.parses()), (1, 2));
    }
}
