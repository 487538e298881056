//! The IQL evaluator.
//!
//! # Comprehension planning
//!
//! Comprehensions are evaluated through a small per-comprehension plan rather than
//! textbook nested recursion. The planner recognises the **equi-join shape**
//! `…; p1 <- e1; p2 <- e2; x = y; …` that GAV unfolding and LAV reverse queries
//! produce when two source extents are joined on a key.
//!
//! When a generator is immediately followed by one or more `Filter(Eq(Var, Var))`
//! qualifiers whose two variables split across "bound by this generator's pattern"
//! and "bound earlier / outer", and the generator's source expression is
//! *independent* of all variables bound earlier in the comprehension (checked with
//! [`crate::rewrite::free_vars`]), the planner evaluates that source **once**,
//! hash-indexes its elements by the (composite) join key, and turns the generator +
//! filter run into a hash-join step: each outer row probes the index in O(1) expected
//! instead of scanning the whole inner extent. An n×m nested loop becomes
//! O(n + m + output). Multi-filter runs matter in practice: the GAV rewrites tag
//! every global extent with its source, so the paper's queries join on
//! `s2 = s; k2 = k` pairs, and a composite `{source, key}` hash key is what makes
//! those joins selective.
//!
//! # Parallel extent fetch
//!
//! The sources the planner decides to evaluate at plan time (join build sides, and
//! the leading generator of a reorderable chain) are independent of each other
//! by construction, so when there are two or more of them they are fetched on
//! scoped worker threads ([`std::thread::scope`]) rather than sequentially. This
//! is why [`ExtentProvider`] requires [`Sync`]: the evaluator shares the provider
//! across those worker threads. Worker threads are budgeted by the process-wide
//! [`crate::FetchPool`] semaphore — nested fan-outs (batched queries resolving
//! virtual extents that prefetch join sides) share one global bound instead of
//! multiplying per-call caps, and any share the pool cannot cover runs inline on
//! the caller. Results are stitched back in qualifier order, so evaluation
//! (including which error surfaces first) stays deterministic.
//! [`Evaluator::without_parallel_fetch`] forces sequential fetching.
//!
//! # Statistics-driven join ordering
//!
//! The planner reorders the **leading generator chain** — the first plain
//! generator plus the run of fused equi-join generators directly after it whose
//! join keys all resolve to chain generators. For a chain of exactly two, the
//! pair rule applies: both extent cardinalities are collected and, when the
//! *outer* extent is the smaller one, the hash index is built on it instead —
//! the textbook "smallest extent builds the hash side" rule. Key selectivity is
//! estimated from the hash-index bucket histogram (`probe rows × build rows /
//! distinct keys`); if the estimated join output is disproportionate to the
//! input sizes the reorder is abandoned (the final sort would dominate) and the
//! textual orientation is kept.
//!
//! Chains of three or more go through the **join graph**: each equi-filter pair
//! becomes an edge between the generator binding its probe variable and the
//! fused generator that owns the filter.
//!
//! # Bushy join enumeration
//!
//! Chains of three to [`crate::bushy::MAX_DP_RELATIONS`] generators are planned
//! by the exhaustive enumerator in [`crate::bushy`]: a DPsize/DPccp-style
//! dynamic program over the connected subsets of the join graph that considers
//! **every tree shape — bushy included**, scoring each join node by its hash
//! build side plus estimated output, with edge selectivities
//! (`1 / max(distinct keys)`) drawn from the **persisted per-extent key
//! histograms** (see [`PlanCache`]) so planning over memoised extents needs no
//! extra pass over the data. The winning tree executes as recursive hash joins
//! (the `BushyJoin` plan step): leaves are the matched extents, each internal node
//! hash-indexes its smaller input on the composite key of every equi-predicate
//! crossing the cut, and one final positional sort restores nested-loop output
//! order. [`Evaluator::explain`] reports the shape via
//! [`JoinStrategy::Bushy`], one entry per join node in execution (post-)order.
//!
//! Chains longer than the DP bound — or chains the enumerator refuses (an
//! estimated intermediate of the winning tree past the cap) — fall back to
//! the **greedy** reorder: start
//! from the smallest extent, repeatedly join in the smallest remaining
//! generator connected to the joined set, hash-indexing whichever side of each
//! edge join is smaller ([`JoinStrategy::Multiway`]). A greedy step estimate
//! past the cap, or a disconnected join graph, abandons the whole-chain
//! reorder and falls back to the pair rule. [`Evaluator::without_bushy`]
//! disables the enumerator (greedy only) — the differential harness and the
//! `table1_star_join` bench group compare the two.
//!
//! Every reordered shape **restores the nested-loop output order** with a final
//! sort on the original bag positions (in textual generator order) — planned,
//! reordered and naive evaluation produce identical bags in identical order.
//! [`Evaluator::without_reorder`] disables reordering; [`Evaluator::explain`]
//! exposes the per-join statistics ([`JoinStats`]) the decisions were based on.
//!
//! # Plan caching
//!
//! Planning (and in particular evaluating + hash-indexing the build sides) is
//! memoised per **expression identity** when a [`PlanCache`] is attached with
//! [`Evaluator::with_plan_cache`]. The cache key is the comprehension expression
//! itself ([`Expr`] implements `Hash`/`Eq`, so lookups never pretty-print); an
//! entry is only stored when every plan-time-evaluated source is a *closed*
//! expression (no free variables), so a cached plan can never smuggle
//! environment-dependent data between evaluations. Entries are guarded by
//! [`ExtentProvider::version`]: any provider mutation bumps the version and stale
//! plans are transparently rebuilt. The cache is **bounded** — least recently
//! used plans are evicted past [`PlanCache::capacity`] — so long-lived services
//! can keep one cache for the life of the process. Pay-as-you-go workloads that
//! re-run the same priority queries after every integration iteration therefore
//! skip planning and index building entirely on re-runs.
//!
//! # Query parameters
//!
//! `?name` placeholders ([`Expr::Param`]) make plans **shape-stable**: the
//! expression — and therefore the plan-cache key — is the same for every
//! binding, so one prepared query shares one plan (including its built hash
//! indexes, which key on join columns, never on parameter values) across all
//! executions. Parameters resolve at execution time through the
//! [`crate::env::Params`] set attached to the environment
//! ([`crate::env::Env::with_params`]); evaluating an unbound one fails with
//! [`EvalError::UnboundParam`]. To the planner a parameter is an opaque
//! non-constant: `x = ?p` filters never fuse into join keys, and a generator
//! *source* mentioning a parameter disqualifies its plan from the cache (and
//! its histogram from the persisted side-table), since plan-time evaluation
//! under one binding must not leak into executions under another.
//!
//! Everything that does not match the planned shapes — correlated generators (whose
//! source mentions earlier variables), non-equality filters, filters over
//! expressions rather than plain variables — falls back to exactly the nested-loop
//! semantics, and every planned step preserves nested-loop **output order** (outer
//! order first, inner source order within a key group), so planned and naive
//! evaluation produce identical bags, duplicates and all (`NaN` join keys
//! included: the filter's `=` and the hash probe both make `NaN` equal only to
//! `NaN`, see [`crate::value`]). [`Evaluator::with_nested_loops`] disables planning
//! entirely; the property-test suite uses it as the reference semantics, and the
//! benches use it to measure the planner's win.
//!
//! One deliberate strictness difference: a planned generator source is evaluated
//! when the plan is built, even if the rows that would reach it are filtered out
//! earlier (the naive evaluator only discovers errors — unknown scheme, `Any`
//! extent — in qualifiers it actually reaches). Queries over well-formed schemas
//! are unaffected.

use crate::ast::{BinOp, Expr, Pattern, Qualifier, SchemeRef, UnOp};
use crate::builtins;
use crate::bushy::{self, JoinTree};
use crate::env::{literal_value, match_pattern, Env};
use crate::error::EvalError;
use crate::fetch::FetchPool;
use crate::index::{IndexKey, IndexStore, PointIndex};
use crate::physical::{columnar, EngineStats, ExecEngine};
use crate::rewrite;
use crate::value::{Bag, Value};
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::sync::Arc;

/// The identifier of one consistent point in a provider's commit history.
///
/// [`ExtentProvider::version`] returns a `SnapshotId`: the storage layer
/// (`relational::storage`) assigns one per committed write batch, and every
/// version-guarded memo in the engine — the [`PlanCache`], the
/// [`crate::IndexStore`], key histograms, extent memos, subscription `synced`
/// stamps — pins to a snapshot id rather than an opaque counter. Kept as a
/// plain `u64` so pre-snapshot providers (and persisted stamps) remain
/// compatible.
pub type SnapshotId = u64;

/// A source of extents for scheme references.
///
/// The evaluator is agnostic about where extents come from: the `relational` crate
/// implements this for wrapped databases, the `automed` query processor implements it
/// for *virtual* global-schema objects by reformulating queries down to the sources,
/// and [`crate::MapExtents`] implements it for in-memory test fixtures.
///
/// Implementing the trait takes one method; a provider that computes extents on
/// the fly just returns a fresh bag per call:
///
/// ```
/// use iql::{Bag, Evaluator, ExtentProvider, SchemeRef, Value, parse};
/// use iql::error::EvalError;
/// use std::sync::Arc;
///
/// /// Serves `<<n>>` as the extent {0, 1, …, 9} for any scheme.
/// struct Tens;
///
/// impl ExtentProvider for Tens {
///     fn extent(&self, _scheme: &SchemeRef) -> Result<Arc<Bag>, EvalError> {
///         Ok(Arc::new(Bag::from_values((0..10).map(Value::Int).collect())))
///     }
/// }
///
/// let q = parse("count [k | k <- <<anything>>; k > 6]").unwrap();
/// assert_eq!(Evaluator::new(Tens).eval_closed(&q).unwrap(), Value::Int(3));
/// ```
///
/// Extents are returned as `Arc<Bag>` so providers can serve cached bags without deep
/// copies — the evaluator and all layered providers share one allocation per extent.
///
/// # The `Sync` contract
///
/// `ExtentProvider` requires [`Sync`]: the evaluator fetches independent generator
/// extents on scoped worker threads, and layered providers (the `automed` virtual
/// extent resolver) fan per-source contributions out the same way, so a provider
/// must tolerate concurrent `extent` calls from multiple threads. Providers that
/// memoise must use interior mutability that is safe under sharing (`RwLock`,
/// atomics — **not** `RefCell`). Two threads may race to compute the same extent;
/// that is allowed (both compute the same deterministic bag, last write wins) but a
/// provider must never hand out a torn or partially built bag.
pub trait ExtentProvider: Sync {
    /// Return the extent (a shared bag) of the schema object named by `scheme`.
    fn extent(&self, scheme: &SchemeRef) -> Result<Arc<Bag>, EvalError>;

    /// The snapshot the provider's data currently sits at, used to guard
    /// [`PlanCache`] entries (and every other version-stamped memo downstream).
    ///
    /// Since the storage layer grew MVCC snapshots, this stamp carries
    /// **snapshot-id semantics**: it identifies a consistent point in the
    /// provider's commit history, every committed write batch moves it to a new
    /// id, and a provider pinned to an immutable snapshot returns that
    /// snapshot's id for its whole lifetime. The original, weaker contract is
    /// unchanged and still sufficient for simple providers: any mutation that
    /// can change the result of *any* `extent` call must change the stamp
    /// (monotonically increasing counters are the easy way). Immutable
    /// providers can keep the default constant `0`. A [`PlanCache`] must only
    /// ever be shared between evaluators over the *same logical provider*: the
    /// stamp guards staleness within one provider's lifetime, not identity
    /// across different providers.
    fn version(&self) -> SnapshotId {
        0
    }

    /// Whether a plain scheme-reference `extent` call is expensive enough that the
    /// evaluator should overlap independent fetches on worker threads.
    ///
    /// Memoising in-memory providers (a wrapped database, a map of fixtures) answer
    /// in near-constant time, and a thread spawn would cost more than it saves —
    /// they keep the default `false`. Providers that *compute* extents by
    /// reformulating and evaluating queries (the `automed` virtual-extent resolver)
    /// return `true`. Sources that are compound expressions (not bare scheme
    /// references) are always fetched in parallel regardless of this hint.
    fn prefers_parallel_fetch(&self) -> bool {
        false
    }

    /// Whether every extent this provider serves only ever grows by appending
    /// at the tail: a mutation may push new elements onto the end of a bag but
    /// never reorders, removes, or rewrites existing positions.
    ///
    /// When `true`, version-stale derived structures (the point-lookup indexes
    /// of an [`crate::IndexStore`], the [`PlanCache`]'s key histograms) are
    /// refreshed copy-on-write from the appended tail instead of being rebuilt
    /// from scratch. The default `false` is always safe; answering `true` for
    /// a provider that ever mutates in place silently corrupts those
    /// structures. The relational store qualifies (inserts append to table and
    /// column extents); virtual extents do not (an insert into one member
    /// source lands mid-bag in the unioned global extent).
    fn extents_append_only(&self) -> bool {
        false
    }
}

/// Blanket implementation so `&P` can be used wherever a provider is expected.
impl<P: ExtentProvider + ?Sized> ExtentProvider for &P {
    fn extent(&self, scheme: &SchemeRef) -> Result<Arc<Bag>, EvalError> {
        (**self).extent(scheme)
    }

    fn version(&self) -> SnapshotId {
        (**self).version()
    }

    fn prefers_parallel_fetch(&self) -> bool {
        (**self).prefers_parallel_fetch()
    }

    fn extents_append_only(&self) -> bool {
        (**self).extents_append_only()
    }
}

/// An [`ExtentProvider`] with no extents at all; every scheme reference fails.
/// Useful for evaluating closed expressions (no scheme references).
#[derive(Debug, Clone, Copy, Default)]
pub struct NoExtents;

impl ExtentProvider for NoExtents {
    fn extent(&self, scheme: &SchemeRef) -> Result<Arc<Bag>, EvalError> {
        Err(EvalError::UnknownScheme(scheme.clone()))
    }
}

pub use crate::plan::{
    JoinStats, JoinStrategy, KeyHistogram, PlanCache, StandingPlan, StepKind, StepProbe,
    DEFAULT_PLAN_CACHE_BYTES, DEFAULT_PLAN_CAPACITY, DEFAULT_REOPT_FACTOR,
};

pub(crate) use crate::plan::{
    ObservedSelectivities, Plan, PlanFeedback, PlanLookup, Step, MIN_FEEDBACK_ROWS,
};

/// Evaluates IQL expressions against an [`ExtentProvider`].
///
/// A fresh evaluator has every optimisation on: comprehension planning with
/// hash-join fusion, statistics-driven join(-graph) reordering, and parallel
/// extent fetch. Each can be disabled individually — the differential test
/// harness runs all configurations against the nested-loop reference and
/// requires identical bags in identical order.
///
/// ```
/// use iql::{parse, Evaluator, MapExtents, Value};
///
/// let mut extents = MapExtents::new();
/// extents.insert_pairs("protein,organism", vec![(1, "human"), (2, "mouse")]);
///
/// let q = parse("[o | {k, o} <- <<protein, organism>>; k = 2]").unwrap();
/// let v = Evaluator::new(&extents).eval_closed(&q).unwrap();
/// assert_eq!(v.expect_bag().unwrap().items(), &[Value::str("mouse")]);
///
/// // The nested-loop reference semantics (used by property tests and benches):
/// let naive = Evaluator::new(&extents).with_nested_loops().eval_closed(&q).unwrap();
/// assert_eq!(v, naive);
/// ```
///
/// Chains of three or more joined generators are planned as cost-based
/// **bushy** join trees; [`Evaluator::explain`] reports the chosen shape:
///
/// ```
/// use iql::env::Env;
/// use iql::{parse, Evaluator, JoinStrategy, MapExtents};
///
/// let mut extents = MapExtents::new();
/// extents.insert_pairs("hub,v", (0..60).map(|i| (i % 6, "h")).collect());
/// extents.insert_pairs("left,v", vec![(0, "l"), (1, "l2"), (2, "l3")]);
/// extents.insert_pairs("right,v", (0..12).map(|i| (i % 6, "r")).collect());
///
/// let q = parse(
///     "[{x, y, z} | {k1, x} <- <<hub, v>>; {k2, y} <- <<left, v>>; k2 = k1; \
///      {k3, z} <- <<right, v>>; k3 = k1]",
/// )
/// .unwrap();
/// let stats = Evaluator::new(&extents).explain(&q, &Env::new()).unwrap();
/// // One entry per join node of the tree; the last spans the whole chain.
/// let JoinStrategy::Bushy { tree } = &stats.last().unwrap().strategy else {
///     panic!("expected a bushy plan");
/// };
/// assert_eq!(tree.leaves(), vec![0, 1, 2]);
/// // The hub joins its selective satellite before the unselective one.
/// assert_eq!(tree.to_string(), "((0 ⋈ 1) ⋈ 2)");
/// ```
pub struct Evaluator<P> {
    provider: P,
    use_planner: bool,
    reorder: bool,
    bushy: bool,
    parallel: bool,
    use_index: bool,
    columnar: bool,
    plan_cache: Option<Arc<PlanCache>>,
    index_store: Option<Arc<IndexStore>>,
    step_probe: Option<Arc<StepProbe>>,
    engine_stats: Option<Arc<EngineStats>>,
    reopt_factor: f64,
}

/// When the estimated join output exceeds this multiple of the combined input
/// cardinalities, a reorder is abandoned: the order-restoring sort would dominate.
const REORDER_OUTPUT_CAP: f64 = 16.0;

/// Marker for "this generator not joined yet" in intermediate chain-join rows
/// (each row is one index per chain position into that generator's matched rows).
const UNSET: usize = usize::MAX;

/// A pre-planning classification of one or two fused qualifiers.
enum Slot<'q> {
    Filter(&'q Expr),
    Bind {
        pattern: &'q Pattern,
        value: &'q Expr,
    },
    Gen {
        pattern: &'q Pattern,
        source: &'q Expr,
    },
    Fused {
        pattern: &'q Pattern,
        source: &'q Expr,
        probe_vars: Vec<&'q str>,
        build_vars: Vec<&'q str>,
    },
}

/// Classify the qualifier list without evaluating anything: find the maximal
/// generator + equi-filter runs that can fuse into hash joins (see module docs).
fn analyse(qualifiers: &[Qualifier]) -> Vec<Slot<'_>> {
    let mut slots = Vec::with_capacity(qualifiers.len());
    let mut bound: BTreeSet<&str> = BTreeSet::new();
    let mut i = 0;
    while i < qualifiers.len() {
        match &qualifiers[i] {
            Qualifier::Filter(cond) => {
                slots.push(Slot::Filter(cond));
                i += 1;
            }
            Qualifier::Binding { pattern, value } => {
                slots.push(Slot::Bind { pattern, value });
                bound.extend(pattern.bound_vars());
                i += 1;
            }
            Qualifier::Generator { pattern, source } => {
                // Collect the maximal run of `x = y` filters directly after the
                // generator whose sides split across pattern/earlier vars; they
                // jointly form a (composite) equi-join key.
                let mut probe_vars: Vec<&str> = Vec::new();
                let mut build_vars: Vec<&str> = Vec::new();
                let mut j = i + 1;
                while let Some(Qualifier::Filter(cond)) = qualifiers.get(j) {
                    let Some((probe, build)) = equi_join_key(cond, pattern) else {
                        break;
                    };
                    probe_vars.push(probe);
                    build_vars.push(build);
                    j += 1;
                }
                // Fuse only when the join key actually varies per incoming row
                // (some probe var is bound by an *earlier qualifier of this
                // comprehension*). When every probe var already has its one value
                // in the outer environment — e.g. a correlated nested
                // comprehension re-planned per outer row — the "join" is a
                // single-key selection, and building an index to probe it once
                // costs more than the plain filtered scan it replaces.
                let varies = probe_vars.iter().any(|v| bound.contains(v));
                let independent = varies
                    && rewrite::free_vars(source)
                        .iter()
                        .all(|v| !bound.contains(v.as_str()));
                if independent {
                    slots.push(Slot::Fused {
                        pattern,
                        source,
                        probe_vars,
                        build_vars,
                    });
                    bound.extend(pattern.bound_vars());
                    i = j;
                } else {
                    slots.push(Slot::Gen { pattern, source });
                    bound.extend(pattern.bound_vars());
                    i += 1;
                }
            }
        }
    }
    slots
}

/// A maximal reorderable generator chain: the leading plain generator plus the
/// run of fused generators directly after it whose probe variables all resolve to
/// chain generators. The chain is the unit the join-graph reorder permutes.
struct Chain {
    /// Slot index of the leading plain generator.
    start: usize,
    /// Number of consecutive slots in the chain (1 leading `Gen` + fused runs).
    len: usize,
    /// The join-graph edges: one per equi-filter pair, connecting a fused
    /// generator to the chain generator that binds its probe variable.
    preds: Vec<ChainPred>,
}

/// A successful chain plan: the (single `MultiJoin`/`BushyJoin`) step list,
/// the per-edge-join statistics, and — for enumerated trees — the
/// actual-vs-estimated cardinality feedback driving adaptive re-optimisation.
struct ChainPlan {
    steps: Vec<Step>,
    stats: Vec<JoinStats>,
    feedback: Option<PlanFeedback>,
}

/// One generator's matched extent rows: original bag position, element, and the
/// pattern-bound environment used for join-key extraction.
type MatchedRows = Vec<(usize, Value, Env)>;

/// One equality edge of the chain's join graph. Positions index into the chain
/// (0 = the leading generator, in textual order).
#[derive(Debug, Clone)]
struct ChainPred {
    /// Chain position of the fused generator the equi-filter followed.
    later: usize,
    /// Chain position of the generator binding the probe variable — resolved to
    /// the *most recent* earlier binder, mirroring environment shadowing.
    earlier: usize,
    /// The variable bound by the later generator's pattern.
    later_var: String,
    /// The variable bound by the earlier generator's pattern.
    earlier_var: String,
}

/// Find the leading reorderable chain: the first binding slot must be a plain
/// generator (filters may precede it; a `let` disqualifies, because hoisted
/// evaluation could not see its comp-local bindings), followed by one or more
/// fused generators whose probe variables all resolve to chain patterns. Chains
/// of length two are planned by the pair planner; longer chains go through the
/// full join-graph reorder.
fn chain_candidate(slots: &[Slot<'_>]) -> Option<Chain> {
    let mut first_gen = None;
    for (i, slot) in slots.iter().enumerate() {
        match slot {
            Slot::Filter(_) => continue,
            Slot::Gen { .. } => {
                first_gen = Some(i);
                break;
            }
            _ => return None,
        }
    }
    let start = first_gen?;
    let Slot::Gen { pattern: p0, .. } = &slots[start] else {
        return None;
    };
    // Patterns of the chain members so far, in textual order (position 0 = p0).
    let mut patterns: Vec<&Pattern> = vec![p0];
    let mut preds: Vec<ChainPred> = Vec::new();
    let mut len = 1;
    'extend: while let Some(Slot::Fused {
        pattern,
        probe_vars,
        build_vars,
        ..
    }) = slots.get(start + len)
    {
        let later = patterns.len();
        let mut new_preds = Vec::with_capacity(probe_vars.len());
        for (probe, build) in probe_vars.iter().zip(build_vars) {
            // Resolve the probe variable to its most recent earlier binder;
            // variables bound only by the enclosing environment end the chain.
            let Some(earlier) = patterns
                .iter()
                .rposition(|p| p.bound_vars().contains(probe))
            else {
                break 'extend;
            };
            new_preds.push(ChainPred {
                later,
                earlier,
                later_var: build.to_string(),
                earlier_var: probe.to_string(),
            });
        }
        preds.extend(new_preds);
        patterns.push(pattern);
        len += 1;
    }
    if len >= 2 {
        Some(Chain { start, len, preds })
    } else {
        None
    }
}

/// Extract the (composite) join key named by `vars` from a matched environment.
fn key_from(env: &Env, vars: &[&str]) -> Option<Value> {
    let mut parts = Vec::with_capacity(vars.len());
    for var in vars {
        parts.push(env.get(var)?.clone());
    }
    Some(composite_key(parts))
}

impl<P: ExtentProvider> Evaluator<P> {
    /// Create an evaluator over the given extent provider (hash-join planning,
    /// statistics-driven reordering and parallel extent fetch all on; no plan cache).
    pub fn new(provider: P) -> Self {
        Evaluator {
            provider,
            use_planner: true,
            reorder: true,
            bushy: true,
            parallel: true,
            use_index: true,
            columnar: true,
            plan_cache: None,
            index_store: None,
            step_probe: None,
            engine_stats: None,
            reopt_factor: DEFAULT_REOPT_FACTOR,
        }
    }

    /// Disable comprehension planning: evaluate every comprehension with the naive
    /// nested-loop semantics. This is the reference implementation the planner must
    /// agree with; used by property tests and benchmark baselines.
    pub fn with_nested_loops(mut self) -> Self {
        self.use_planner = false;
        self
    }

    /// Disable statistics-driven join reordering (keep textual join orientation).
    pub fn without_reorder(mut self) -> Self {
        self.reorder = false;
        self
    }

    /// Disable the bushy join enumerator: chains of three or more generators
    /// are reordered with the greedy smallest-extent-first rule only
    /// ([`JoinStrategy::Multiway`]). The differential harness runs this
    /// configuration as its own leg, and the `table1_star_join` bench group
    /// uses it as the baseline the enumerator is measured against.
    pub fn without_bushy(mut self) -> Self {
        self.bushy = false;
        self
    }

    /// Count the steps of every plan this evaluator executes in `probe`
    /// (see [`StepProbe`]).
    pub fn with_step_probe(mut self, probe: Arc<StepProbe>) -> Self {
        self.step_probe = Some(probe);
        self
    }

    /// Fetch plan-time generator sources sequentially instead of on scoped threads.
    pub fn without_parallel_fetch(mut self) -> Self {
        self.parallel = false;
        self
    }

    /// Memoise built plans in `cache` (see [`PlanCache`] for the sharing contract).
    pub fn with_plan_cache(mut self, cache: Arc<PlanCache>) -> Self {
        self.plan_cache = Some(cache);
        self
    }

    /// Persist point-lookup indexes in `store` (see [`IndexStore`]), so they
    /// survive plan-cache invalidation and are refreshed copy-on-write across
    /// inserts on append-only providers. The same logical-provider sharing
    /// contract as [`PlanCache`] applies.
    pub fn with_index_store(mut self, store: Arc<IndexStore>) -> Self {
        self.index_store = Some(store);
        self
    }

    /// Disable point-lookup index planning entirely: residual equality filters
    /// (`x = ?p`, `x = literal`) execute as plain filtered scans, exactly as
    /// they did before secondary indexes existed. The differential harness runs
    /// this configuration as its own leg.
    ///
    /// ```
    /// use iql::env::Env;
    /// use iql::{parse, Evaluator, JoinStrategy, MapExtents, IndexStore, StepKind};
    /// use std::sync::Arc;
    ///
    /// let mut extents = MapExtents::new();
    /// extents.insert_pairs("t,v", (0..50).map(|i| (i, "x")).collect());
    /// let q = parse("[v | {k, v} <- <<t, v>>; k = 7]").unwrap();
    ///
    /// let store = Arc::new(IndexStore::new());
    /// let indexed = Evaluator::new(&extents).with_index_store(Arc::clone(&store));
    /// let stats = indexed.explain(&q, &Env::new()).unwrap();
    /// assert!(matches!(stats[0].strategy, JoinStrategy::IndexLookup));
    ///
    /// let disabled = Evaluator::new(&extents)
    ///     .with_index_store(store)
    ///     .without_index();
    /// assert!(disabled.explain(&q, &Env::new()).unwrap().is_empty());
    /// // Both legs return identical bags, in identical order.
    /// assert_eq!(indexed.eval_closed(&q), disabled.eval_closed(&q));
    /// ```
    pub fn without_index(mut self) -> Self {
        self.use_index = false;
        self
    }

    /// Set the actual/estimated output divergence factor past which a cached
    /// plan re-optimises on its next execution (default
    /// [`DEFAULT_REOPT_FACTOR`]). Values below 1.0 are clamped to 1.0.
    pub fn with_reopt_factor(mut self, factor: f64) -> Self {
        self.reopt_factor = factor.max(1.0);
        self
    }

    /// Select the execution engine for planned comprehensions: `true` (the
    /// default) runs columnar-eligible plans through the vectorised columnar
    /// executor, `false` forces the recursive row engine — the differential
    /// oracle — for every plan. Eligibility is per plan: open or
    /// parameter-dependent generator sources always run on the row engine,
    /// and a columnar run that hits a runtime error re-runs on the row engine
    /// so error reporting is identical. Both engines produce identical bags,
    /// order and multiplicities included.
    ///
    /// ```
    /// use iql::env::Env;
    /// use iql::{parse, Evaluator, ExecEngine, MapExtents};
    ///
    /// let mut extents = MapExtents::new();
    /// extents.insert_pairs("t,v", vec![(1, "a"), (2, "b"), (3, "c")]);
    /// let q = parse("[x | {k, x} <- <<t, v>>; k > 1]").unwrap();
    ///
    /// let columnar = Evaluator::new(&extents);
    /// let row = Evaluator::new(&extents).with_columnar(false);
    /// assert_eq!(
    ///     columnar.execution_engine(&q, &Env::new()).unwrap(),
    ///     ExecEngine::Columnar,
    /// );
    /// assert_eq!(row.execution_engine(&q, &Env::new()).unwrap(), ExecEngine::Row);
    /// // Same bag, same order, from either engine.
    /// assert_eq!(columnar.eval_closed(&q), row.eval_closed(&q));
    /// ```
    pub fn with_columnar(mut self, on: bool) -> Self {
        self.columnar = on;
        self
    }

    /// Record engine selection (columnar executions, row fallbacks) in
    /// `stats`, shared across evaluators the way a [`StepProbe`] is.
    pub fn with_engine_stats(mut self, stats: Arc<EngineStats>) -> Self {
        self.engine_stats = Some(stats);
        self
    }

    /// The engine [`Evaluator::eval`] would execute `expr`'s top-level
    /// comprehension plan on, without executing it — the explain-style
    /// counterpart to [`StepProbe::engine_count`]. Non-comprehensions, naive
    /// (planner-off) evaluation and disabled-columnar evaluators report
    /// [`ExecEngine::Row`]. This predicts engine *selection*; a columnar run
    /// that aborts on a runtime error still re-runs on the row engine.
    pub fn execution_engine(&self, expr: &Expr, env: &Env) -> Result<ExecEngine, EvalError> {
        match expr {
            Expr::Comp { head, qualifiers } if self.use_planner => {
                let plan = self.plan_for(expr, qualifiers, env)?;
                Ok(if self.columnar && plan.columnar(head).is_some() {
                    ExecEngine::Columnar
                } else {
                    ExecEngine::Row
                })
            }
            _ => Ok(ExecEngine::Row),
        }
    }

    /// Count one planned execution against the engine that produced its
    /// result. Row executions are fallbacks only while the columnar engine
    /// is enabled (with it off, running the row engine is the configuration,
    /// not a fallback).
    fn record_engine(&self, engine: ExecEngine) {
        if let Some(probe) = &self.step_probe {
            probe.record_engine(engine);
        }
        if let Some(stats) = &self.engine_stats {
            match engine {
                ExecEngine::Columnar => stats.record_columnar(),
                ExecEngine::Row => {
                    if self.columnar {
                        stats.record_fallback();
                    }
                }
            }
        }
    }

    /// Evaluate an expression in an empty environment.
    pub fn eval_closed(&self, expr: &Expr) -> Result<Value, EvalError> {
        self.eval(expr, &Env::new())
    }

    /// Plan the top-level comprehension of `expr` (without executing it) and return
    /// the per-join statistics the planner's ordering decisions were based on.
    /// Non-comprehension expressions report no joins. With a [`PlanCache`]
    /// attached, this reports the plan an execution would actually use —
    /// including one adopted by a re-optimisation round.
    pub fn explain(&self, expr: &Expr, env: &Env) -> Result<Vec<JoinStats>, EvalError> {
        match expr {
            Expr::Comp { qualifiers, .. } => {
                Ok(self.plan_for(expr, qualifiers, env)?.join_stats.clone())
            }
            _ => Ok(Vec::new()),
        }
    }

    /// Evaluate an expression in the given environment.
    pub fn eval(&self, expr: &Expr, env: &Env) -> Result<Value, EvalError> {
        match expr {
            Expr::Lit(lit) => Ok(literal_value(lit)),
            Expr::Var(name) => env
                .get(name)
                .cloned()
                .ok_or_else(|| EvalError::UnboundVariable(name.clone())),
            Expr::Param(name) => env
                .param(name)
                .cloned()
                .ok_or_else(|| EvalError::UnboundParam(name.clone())),
            Expr::Scheme(scheme) => Ok(Value::Bag((*self.provider.extent(scheme)?).clone())),
            Expr::Tuple(items) => {
                let mut vals = Vec::with_capacity(items.len());
                for item in items {
                    vals.push(self.eval(item, env)?);
                }
                Ok(Value::tuple(vals))
            }
            Expr::Bag(items) => {
                let mut vals = Vec::with_capacity(items.len());
                for item in items {
                    vals.push(self.eval(item, env)?);
                }
                Ok(Value::Bag(Bag::from_values(vals)))
            }
            Expr::Comp { head, qualifiers } => {
                let mut out = Bag::empty();
                if self.use_planner {
                    let plan = self.plan_for(expr, qualifiers, env)?;
                    if let Some(probe) = &self.step_probe {
                        for step in &plan.steps {
                            probe.record(step.kind());
                        }
                    }
                    let compiled = if self.columnar {
                        plan.columnar(head)
                    } else {
                        None
                    };
                    match compiled {
                        Some(cplan) => match columnar::exec(self, &cplan, env) {
                            Ok(bag) => {
                                self.record_engine(ExecEngine::Columnar);
                                out = bag;
                            }
                            // A runtime error inside the columnar engine:
                            // discard the partial result and re-run the whole
                            // plan on the row engine, so the surfaced error
                            // (and the depth-first order it is raised in) is
                            // exactly the row engine's.
                            Err(_) => {
                                self.record_engine(ExecEngine::Row);
                                self.exec_plan(head, &plan.steps, env, &mut out)?;
                            }
                        },
                        None => {
                            self.record_engine(ExecEngine::Row);
                            self.exec_plan(head, &plan.steps, env, &mut out)?;
                        }
                    }
                } else {
                    self.eval_comprehension(head, qualifiers, env, &mut out)?;
                }
                Ok(Value::Bag(out))
            }
            Expr::Apply { function, args } => {
                let mut vals = Vec::with_capacity(args.len());
                for a in args {
                    vals.push(self.eval(a, env)?);
                }
                builtins::apply(function, &vals)
            }
            Expr::BinOp { op, lhs, rhs } => self.eval_binop(*op, lhs, rhs, env),
            Expr::UnOp { op, expr } => {
                let v = self.eval(expr, env)?;
                match op {
                    UnOp::Neg => match v {
                        Value::Int(i) => Ok(Value::Int(-i)),
                        Value::Float(f) => Ok(Value::Float(-f)),
                        other => Err(EvalError::TypeError {
                            context: "negation".into(),
                            found: other.type_name().into(),
                        }),
                    },
                    UnOp::Not => Ok(Value::Bool(!v.as_bool()?)),
                }
            }
            Expr::If {
                cond,
                then,
                otherwise,
            } => {
                if self.eval(cond, env)?.as_bool()? {
                    self.eval(then, env)
                } else {
                    self.eval(otherwise, env)
                }
            }
            Expr::Let {
                pattern,
                value,
                body,
            } => {
                let v = self.eval(value, env)?;
                let mut inner = env.clone();
                if !match_pattern(pattern, &v, &mut inner)? {
                    return Err(EvalError::PatternMismatch {
                        pattern: pattern.to_string(),
                        value: v.to_string(),
                    });
                }
                self.eval(body, &inner)
            }
            Expr::Void => Ok(Value::Void),
            Expr::Any => Ok(Value::Any),
            // Evaluating a Range materialises its *lower bound*: this is the sound
            // choice for query answering over extents that are not fully derivable
            // (certain-answer semantics). The upper bound is only consulted by the
            // query processor when reasoning about containment.
            Expr::Range { lower, .. } => self.eval(lower, env),
        }
    }

    /// Fetch a comprehension's plan: from the attached [`PlanCache`] when current,
    /// otherwise by planning now (storing the result when it is cacheable).
    ///
    /// A hit whose recorded cardinality feedback diverged past
    /// [`Evaluator::with_reopt_factor`] triggers one **re-optimisation round**:
    /// replan with the observed selectivities fed back into the bushy cost
    /// model, keep whichever plan actually materialised fewer intermediate
    /// rows, and pin the winner for the rest of this provider version.
    fn plan_for(
        &self,
        comp: &Expr,
        qualifiers: &[Qualifier],
        env: &Env,
    ) -> Result<Arc<Plan>, EvalError> {
        let Some(cache) = &self.plan_cache else {
            return Ok(Arc::new(self.plan_comprehension(qualifiers, env, None)?));
        };
        let version = self.provider.version();
        match cache.lookup(comp, version) {
            PlanLookup::Hit(plan) => Ok(plan),
            PlanLookup::Reoptimize {
                plan: previous,
                observed,
            } => {
                let replanned =
                    Arc::new(self.plan_comprehension(qualifiers, env, Some(&observed))?);
                let chosen = if replanned.cacheable
                    && plan_actual_cost(&replanned) < plan_actual_cost(&previous)
                {
                    replanned
                } else {
                    previous
                };
                cache.store_reoptimized(comp.clone(), version, Arc::clone(&chosen));
                Ok(chosen)
            }
            PlanLookup::Miss => {
                let plan = Arc::new(self.plan_comprehension(qualifiers, env, None)?);
                if plan.cacheable {
                    let pending = plan
                        .feedback
                        .as_ref()
                        .filter(|fb| fb.max_divergence > self.reopt_factor)
                        .map(|fb| Arc::new(fb.observed.clone()));
                    cache.store(comp.clone(), version, Arc::clone(&plan), pending);
                }
                Ok(plan)
            }
        }
    }

    /// Evaluate the plan-time sources, in parallel on scoped threads when there are
    /// at least two (they are independent by construction). Results and errors are
    /// reassembled in qualifier order so evaluation stays deterministic.
    ///
    /// Worker threads come out of the process-wide [`FetchPool`] budget: the
    /// fan-out asks for up to `len - 1` permits (the calling thread works too) and
    /// runs whatever share the pool cannot cover inline, so nested fan-outs across
    /// the whole process never oversubscribe the machine.
    fn eval_sources(
        &self,
        wanted: &[(usize, &Expr)],
        env: &Env,
    ) -> Result<BTreeMap<usize, Bag>, EvalError> {
        let mut out = BTreeMap::new();
        // Worker threads only pay off when fetching actually computes something:
        // either the provider says scheme resolution is expensive, or a source is a
        // compound expression evaluated right here.
        let worthwhile = self.provider.prefers_parallel_fetch()
            || wanted
                .iter()
                .any(|(_, source)| !matches!(source, Expr::Scheme(_)));
        // A single-core machine (pool capacity 1) gains nothing from running a
        // worker alongside the caller — skip the fan-out entirely there.
        let pool = FetchPool::global();
        let mut permits =
            if self.parallel && worthwhile && wanted.len() >= 2 && pool.capacity() >= 2 {
                pool.acquire_up_to(wanted.len() - 1)
            } else {
                pool.acquire_up_to(0)
            };
        if permits.count() > 0 {
            let workers = permits.count() + 1; // the caller takes a share too
            let chunk = wanted.len().div_ceil(workers);
            // Ceil-division may need fewer chunks than workers: return the
            // surplus permits instead of stranding them for the fan-out.
            permits.truncate(wanted.len().div_ceil(chunk) - 1);
            let results: Vec<Result<Bag, EvalError>> = std::thread::scope(|scope| {
                let mut chunks = wanted.chunks(chunk);
                let caller_share = chunks.next().unwrap_or(&[]);
                let handles: Vec<_> = chunks
                    .map(|slice| {
                        scope.spawn(move || {
                            slice
                                .iter()
                                .map(|(_, source)| {
                                    self.eval(source, env).and_then(|v| v.expect_bag())
                                })
                                .collect::<Vec<_>>()
                        })
                    })
                    .collect();
                let mut results: Vec<Result<Bag, EvalError>> = caller_share
                    .iter()
                    .map(|(_, source)| self.eval(source, env).and_then(|v| v.expect_bag()))
                    .collect();
                for handle in handles {
                    results.extend(handle.join().expect("extent fetch thread panicked"));
                }
                results
            });
            for ((i, _), result) in wanted.iter().zip(results) {
                out.insert(*i, result?);
            }
        } else {
            for (i, source) in wanted {
                out.insert(*i, self.eval(source, env)?.expect_bag()?);
            }
        }
        Ok(out)
    }

    /// Build the step list for a comprehension: classify qualifiers, prefetch every
    /// plan-time source (in parallel), reorder the leading generator chain via its
    /// join graph when profitable (pairs through the pair planner, longer chains
    /// through the greedy multiway planner), and fuse the remaining equi-join runs
    /// into hash joins (see module docs).
    ///
    /// `overrides` carries observed per-edge selectivities from a cached plan's
    /// execution feedback; when present they replace the histogram estimates in
    /// the bushy enumerator (the adaptive re-optimisation round).
    fn plan_comprehension(
        &self,
        qualifiers: &[Qualifier],
        env: &Env,
        overrides: Option<&ObservedSelectivities>,
    ) -> Result<Plan, EvalError> {
        let slots = analyse(qualifiers);
        let chain = if self.reorder {
            chain_candidate(&slots)
        } else {
            None
        };
        let chain_start = chain.as_ref().map(|c| c.start);
        let mut wanted: Vec<(usize, &Expr)> = Vec::new();
        for (i, slot) in slots.iter().enumerate() {
            match slot {
                Slot::Fused { source, .. } => wanted.push((i, source)),
                Slot::Gen { source, .. } if Some(i) == chain_start => wanted.push((i, source)),
                _ => {}
            }
        }
        let mut bags = self.eval_sources(&wanted, env)?;
        // A plan may only be cached when everything evaluated at plan time is a
        // *closed* expression: no free variables, and no `?name` parameters —
        // a source evaluated under one parameter binding must not be baked into
        // a plan that other bindings would share. Parameters in *filters* are
        // fine (and the whole point of prepared queries): filters stay in the
        // plan as expressions and re-resolve per execution.
        let cacheable = wanted.iter().all(|(_, source)| {
            rewrite::free_vars(source).is_empty() && rewrite::collect_params(source).is_empty()
        });

        let mut steps = Vec::with_capacity(slots.len());
        let mut join_stats = Vec::new();
        let mut feedback = None;
        let mut i = 0;
        while i < slots.len() {
            if Some(i) == chain_start {
                let c = chain.as_ref().expect("chain start implies a chain");
                if c.len >= 3 {
                    // Whole-chain reorder: the bushy enumerator first (exhaustive
                    // for small chains), the greedy order as fallback; on a full
                    // bail-out (cross-product estimate, disconnected graph) fall
                    // through to the pair planner below.
                    let (patterns, sources) = chain_parts(c, &slots);
                    let matched = match_chain_rows(&patterns, c.start, &bags, env)?;
                    let mut planned = if self.bushy {
                        self.plan_bushy_join(c, &patterns, &sources, &matched, overrides)?
                    } else {
                        None
                    };
                    if planned.is_none() {
                        planned = self.plan_chain_join(c, &patterns, &sources, &matched)?;
                    }
                    if let Some(chain_plan) = planned {
                        for pos in 0..c.len {
                            bags.remove(&(c.start + pos));
                        }
                        steps.extend(chain_plan.steps);
                        join_stats.extend(chain_plan.stats);
                        feedback = chain_plan.feedback;
                        i += c.len;
                        continue;
                    }
                }
                let Slot::Gen { pattern: p1, .. } = &slots[i] else {
                    unreachable!("chain starts with a plain generator");
                };
                let Slot::Fused {
                    pattern: p2,
                    probe_vars,
                    build_vars,
                    ..
                } = &slots[i + 1]
                else {
                    unreachable!("chain continues with a fused generator");
                };
                let bag1 = bags.remove(&i).expect("prefetched outer source");
                let bag2 = bags.remove(&(i + 1)).expect("prefetched inner source");
                let (pair_steps, stats) =
                    plan_join_pair(p1, p2, probe_vars, build_vars, bag1, bag2, env)?;
                steps.extend(pair_steps);
                join_stats.push(stats);
                i += 2;
                continue;
            }
            match &slots[i] {
                Slot::Filter(cond) => steps.push(Step::Filter((*cond).clone())),
                Slot::Bind { pattern, value } => steps.push(Step::Bind {
                    pattern: (*pattern).clone(),
                    value: (*value).clone(),
                }),
                Slot::Gen { pattern, source } => {
                    // A generator directly followed by point-equality filters
                    // (`var = ?param` / `var = literal`) over its own pattern
                    // variables becomes one index probe per execution instead
                    // of a per-execution scan.
                    if let Some((step, stats, consumed)) =
                        self.plan_point_lookup(&slots, i, pattern, source, env)?
                    {
                        steps.push(step);
                        join_stats.push(stats);
                        i += 1 + consumed;
                        continue;
                    }
                    steps.push(Step::Iterate {
                        pattern: (*pattern).clone(),
                        source: (*source).clone(),
                    });
                }
                Slot::Fused {
                    pattern,
                    probe_vars,
                    build_vars,
                    ..
                } => {
                    let bag = bags.remove(&i).expect("prefetched build source");
                    let (index, stats) = build_index(pattern, &bag, build_vars, env, None)?;
                    join_stats.push(stats);
                    steps.push(Step::HashJoin {
                        pattern: (*pattern).clone(),
                        probe_vars: probe_vars.iter().map(|v| v.to_string()).collect(),
                        index: Arc::new(index),
                    });
                }
            }
            i += 1;
        }
        Ok(Plan::assemble(steps, join_stats, cacheable, feedback))
    }

    /// Detect a point-lookup run: the maximal sequence of filters directly
    /// after a plain generator whose shape is `var = ?param` / `var = literal`
    /// (either side order) with `var` bound by the generator's pattern. Returns
    /// the [`Step::IndexLookup`] replacing the generator and those filters,
    /// its stats, and how many filter slots were consumed.
    ///
    /// Requires a closed source (the index is baked into the plan) and either
    /// an [`IndexStore`] or a [`PlanCache`] attached — without any persistence
    /// the index would be rebuilt per evaluation, costing more than the scan it
    /// replaces.
    fn plan_point_lookup(
        &self,
        slots: &[Slot<'_>],
        at: usize,
        pattern: &Pattern,
        source: &Expr,
        env: &Env,
    ) -> Result<Option<(Step, JoinStats, usize)>, EvalError> {
        if !self.use_index || (self.index_store.is_none() && self.plan_cache.is_none()) {
            return Ok(None);
        }
        if !rewrite::free_vars(source).is_empty() || !rewrite::collect_params(source).is_empty() {
            return Ok(None);
        }
        let bound: BTreeSet<&str> = pattern.bound_vars().into_iter().collect();
        let mut vars: Vec<&str> = Vec::new();
        let mut key_exprs: Vec<Expr> = Vec::new();
        let mut j = at + 1;
        while let Some(Slot::Filter(cond)) = slots.get(j) {
            let Some((var, key_expr)) = point_filter_key(cond, &bound) else {
                break;
            };
            vars.push(var);
            key_exprs.push(key_expr.clone());
            j += 1;
        }
        if vars.is_empty() {
            return Ok(None);
        }
        let (index, stats) = self.point_index(source, pattern, &vars, env)?;
        Ok(Some((
            Step::IndexLookup {
                pattern: pattern.clone(),
                key_exprs,
                index,
            },
            stats,
            j - at - 1,
        )))
    }

    /// Fetch or build the point-lookup index over `source` keyed by the values
    /// `pattern` binds to `vars`. Serves from the attached [`IndexStore`] when
    /// current; on a stale entry over an append-only provider, refreshes
    /// copy-on-write by indexing only the appended tail; otherwise builds from
    /// a full scan (persisting when a store is attached).
    fn point_index(
        &self,
        source: &Expr,
        pattern: &Pattern,
        vars: &[&str],
        env: &Env,
    ) -> Result<(Arc<PointIndex>, JoinStats), EvalError> {
        let version = self.provider.version();
        let key: IndexKey = (
            source.clone(),
            pattern.clone(),
            vars.iter().map(|v| v.to_string()).collect(),
        );
        if let Some(store) = &self.index_store {
            if let Some(index) = store.lookup(&key, version) {
                let stats = point_stats(&index);
                return Ok((index, stats));
            }
        }
        let bag = self.eval(source, env)?.expect_bag()?;
        if let Some(store) = &self.index_store {
            if self.provider.extents_append_only() {
                if let Some((scanned, stale)) = store.stale(&key) {
                    if scanned <= bag.len() {
                        let mut refreshed = stale;
                        let map = Arc::make_mut(&mut refreshed);
                        for element in &bag.items()[scanned..] {
                            let mut scratch = env.clone();
                            if match_pattern(pattern, element, &mut scratch)? {
                                if let Some(k) = key_from(&scratch, vars) {
                                    map.push(k, element.clone());
                                }
                            }
                        }
                        store.store(key, version, bag.len(), Arc::clone(&refreshed), true);
                        let stats = point_stats(&refreshed);
                        return Ok((refreshed, stats));
                    }
                }
            }
        }
        let mut index = PointIndex::default();
        for element in bag.iter() {
            let mut scratch = env.clone();
            if match_pattern(pattern, element, &mut scratch)? {
                if let Some(k) = key_from(&scratch, vars) {
                    index.push(k, element.clone());
                }
            }
        }
        let index = Arc::new(index);
        if let Some(store) = &self.index_store {
            store.store(key, version, bag.len(), Arc::clone(&index), false);
        }
        let stats = point_stats(&index);
        Ok((index, stats))
    }

    /// Plan a generator chain of three or more via its join graph, **greedily**:
    /// always the smallest not-yet-joined connected generator next,
    /// hash-indexing whichever side of each edge join is smaller, and restore
    /// the nested-loop output order with one final sort on the original bag
    /// positions in textual generator order. This is the fallback for chains
    /// the bushy enumerator does not cover (too long, or bailed out).
    ///
    /// Per-step output estimates come from the per-extent key histograms persisted
    /// in the attached [`PlanCache`] (computed and stored on first use), so
    /// planning over memoised extents needs no extra pass over the data. Returns
    /// `Ok(None)` to bail out — join graph disconnected (a cross product the
    /// greedy order cannot reach) or an estimate past [`REORDER_OUTPUT_CAP`] —
    /// in which case the caller falls back to pair planning.
    fn plan_chain_join(
        &self,
        chain: &Chain,
        patterns: &[&Pattern],
        sources: &[&Expr],
        matched: &[MatchedRows],
    ) -> Result<Option<ChainPlan>, EvalError> {
        let m = chain.len;
        let mut in_set = vec![false; m];
        let mut remaining: BTreeSet<usize> = (0..m).collect();
        let seed = (0..m)
            .min_by_key(|&g| matched[g].len())
            .expect("chain is nonempty");
        in_set[seed] = true;
        remaining.remove(&seed);
        // Intermediate rows: per chain position, an index into `matched[pos]`.
        let mut rows: Vec<Vec<usize>> = (0..matched[seed].len())
            .map(|idx| {
                let mut row = vec![UNSET; m];
                row[seed] = idx;
                row
            })
            .collect();
        let mut stats_out = Vec::new();
        let mut used = vec![false; chain.preds.len()];
        while !remaining.is_empty() {
            let connected = |g: usize| {
                chain.preds.iter().any(|p| {
                    (p.later == g && in_set[p.earlier]) || (p.earlier == g && in_set[p.later])
                })
            };
            let Some(n) = remaining
                .iter()
                .copied()
                .filter(|&g| connected(g))
                .min_by_key(|&g| matched[g].len())
            else {
                return Ok(None); // disconnected join graph: joining on would cross-product
            };
            // Every predicate between `n` and the joined set becomes one component
            // of this edge join's composite key; predicates whose other endpoint
            // is still unjoined stay deferred until that endpoint joins.
            let mut n_vars: Vec<&str> = Vec::new();
            let mut other: Vec<(usize, &str)> = Vec::new();
            for (pi, p) in chain.preds.iter().enumerate() {
                if used[pi] {
                    continue;
                }
                if p.later == n && in_set[p.earlier] {
                    n_vars.push(&p.later_var);
                    other.push((p.earlier, &p.earlier_var));
                    used[pi] = true;
                } else if p.earlier == n && in_set[p.later] {
                    n_vars.push(&p.earlier_var);
                    other.push((p.later, &p.later_var));
                    used[pi] = true;
                }
            }
            let n_rows = matched[n].len();
            let inter_rows = rows.len();
            let histogram = self.chain_histogram(sources[n], patterns[n], &n_vars, &matched[n]);
            let estimated = inter_rows as f64 * n_rows as f64 / histogram.distinct.max(1) as f64;
            if estimated > REORDER_OUTPUT_CAP * (inter_rows + n_rows + 1) as f64 {
                return Ok(None);
            }
            // Hash the smaller side of the edge join, probe from the bigger one;
            // the final positional sort makes the probe order irrelevant.
            let mut joined: Vec<Vec<usize>> = Vec::new();
            if n_rows <= inter_rows {
                let mut index: HashMap<Value, Vec<usize>> = HashMap::new();
                for (idx, (_, _, scratch)) in matched[n].iter().enumerate() {
                    if let Some(key) = key_from(scratch, &n_vars) {
                        index.entry(key).or_default().push(idx);
                    }
                }
                for row in &rows {
                    let Some(key) = chain_row_key(matched, row, &other) else {
                        continue;
                    };
                    if let Some(idxs) = index.get(&key) {
                        for &idx in idxs {
                            let mut r = row.clone();
                            r[n] = idx;
                            joined.push(r);
                        }
                    }
                }
            } else {
                let mut index: HashMap<Value, Vec<usize>> = HashMap::new();
                for (ri, row) in rows.iter().enumerate() {
                    if let Some(key) = chain_row_key(matched, row, &other) {
                        index.entry(key).or_default().push(ri);
                    }
                }
                for (idx, (_, _, scratch)) in matched[n].iter().enumerate() {
                    if let Some(key) = key_from(scratch, &n_vars) {
                        if let Some(ris) = index.get(&key) {
                            for &ri in ris {
                                let mut r = rows[ri].clone();
                                r[n] = idx;
                                joined.push(r);
                            }
                        }
                    }
                }
            }
            stats_out.push(JoinStats {
                strategy: JoinStrategy::Multiway,
                build_rows: n_rows.min(inter_rows),
                probe_rows: Some(n_rows.max(inter_rows)),
                distinct_keys: histogram.distinct,
                max_bucket: histogram.max_bucket,
                estimated_output: Some(estimated),
                actual_output: Some(joined.len()),
            });
            rows = joined;
            in_set[n] = true;
            remaining.remove(&n);
        }
        if used.iter().any(|u| !u) {
            return Ok(None); // defensive: a predicate never became joinable
        }
        Ok(Some(ChainPlan {
            steps: vec![Step::MultiJoin {
                patterns: patterns.iter().map(|p| (*p).clone()).collect(),
                rows: Arc::new(materialise_chain_rows(matched, rows)),
            }],
            stats: stats_out,
            feedback: None,
        }))
    }

    /// Plan a generator chain of three to [`bushy::MAX_DP_RELATIONS`] via the
    /// exhaustive bushy enumerator (see [`crate::bushy`]): build the join
    /// graph's edge selectivities from the persisted per-extent key histograms
    /// (one histogram per predicate endpoint, computed — and cached in the
    /// attached [`PlanCache`] — on first use), let the dynamic program pick the
    /// cheapest tree over every connected shape, then execute the tree with
    /// recursive hash joins and restore the nested-loop output order with one
    /// positional sort.
    ///
    /// Returns `Ok(None)` to bail out — chain too long for the DP, join graph
    /// disconnected, or any estimated intermediate of the winning tree past
    /// [`REORDER_OUTPUT_CAP`] — in which case the caller falls back to the
    /// greedy chain reorder.
    fn plan_bushy_join(
        &self,
        chain: &Chain,
        patterns: &[&Pattern],
        sources: &[&Expr],
        matched: &[MatchedRows],
        overrides: Option<&ObservedSelectivities>,
    ) -> Result<Option<ChainPlan>, EvalError> {
        if chain.len > bushy::MAX_DP_RELATIONS || chain.preds.is_empty() {
            return Ok(None);
        }
        // Local memo over (chain position, key var): a star hub shares one
        // endpoint across every predicate, and without an attached PlanCache
        // each chain_histogram call would rescan that generator's matched rows.
        let mut histograms: HashMap<(usize, &str), KeyHistogram> = HashMap::new();
        let mut edges: Vec<bushy::EdgeSel> = Vec::with_capacity(chain.preds.len());
        for p in &chain.preds {
            let earlier = *histograms
                .entry((p.earlier, p.earlier_var.as_str()))
                .or_insert_with(|| {
                    self.chain_histogram(
                        sources[p.earlier],
                        patterns[p.earlier],
                        &[p.earlier_var.as_str()],
                        &matched[p.earlier],
                    )
                });
            let later = *histograms
                .entry((p.later, p.later_var.as_str()))
                .or_insert_with(|| {
                    self.chain_histogram(
                        sources[p.later],
                        patterns[p.later],
                        &[p.later_var.as_str()],
                        &matched[p.later],
                    )
                });
            let distinct = earlier.distinct.max(later.distinct).max(1);
            edges.push(bushy::EdgeSel {
                a: p.earlier,
                b: p.later,
                selectivity: 1.0 / distinct as f64,
            });
        }
        // Adaptive re-optimisation: when a previous execution of this plan
        // recorded observed per-edge selectivities (because an estimate
        // diverged past the configured factor), they replace the histogram
        // estimates before enumeration — so the DP reconsiders trees with the
        // cardinalities the workload actually produced.
        if let Some(observed) = overrides {
            for edge in &mut edges {
                let pair = (edge.a.min(edge.b), edge.a.max(edge.b));
                if let Some((_, sel)) = observed.iter().find(|(p, _)| *p == pair) {
                    edge.selectivity = *sel;
                }
            }
        }
        let cards: Vec<usize> = matched.iter().map(Vec::len).collect();
        let Some(best) = bushy::enumerate(&cards, &edges) else {
            return Ok(None); // disconnected join graph (or out of DP range)
        };
        // Cap every intermediate the winning tree would materialise, not just
        // its root output — mirroring the greedy planner's per-step cap, so a
        // chain whose cheapest tree still passes through an explosive
        // intermediate bails out instead of building it at plan time.
        let total: usize = cards.iter().sum();
        let row_cap = REORDER_OUTPUT_CAP * (total + 1) as f64;
        if best.max_intermediate > row_cap {
            return Ok(None);
        }
        // The estimate trusts `1/max(distinct)`, which key skew betrays (one
        // heavy bucket in a high-distinct column); the executor therefore
        // re-checks **actual** intermediate row counts against the same cap
        // and aborts mid-join, falling back to the greedy planner — whose own
        // per-step estimates feed on observed intermediate sizes.
        let mut stats_out = Vec::new();
        let Some(rows) = exec_join_tree(&best.tree, matched, &chain.preds, row_cap, &mut stats_out)
        else {
            return Ok(None);
        };
        // Joins materialise at plan time, so actual node cardinalities are in
        // hand right here: compare them against what the (possibly overridden)
        // edge selectivities predicted, and carry the divergence + observed
        // selectivities out as feedback for the plan cache.
        let feedback = bushy_feedback(&stats_out, &cards, &edges);
        Ok(Some(ChainPlan {
            steps: vec![Step::BushyJoin {
                patterns: patterns.iter().map(|p| (*p).clone()).collect(),
                rows: Arc::new(materialise_chain_rows(matched, rows)),
            }],
            stats: stats_out,
            feedback,
        }))
    }

    /// The key histogram for one side of a chain edge join: served from the
    /// [`PlanCache`]'s persisted per-extent histograms when the source is a closed
    /// expression (so the histogram is extent-intrinsic), computed — and persisted
    /// for the next plan — otherwise.
    fn chain_histogram(
        &self,
        source: &Expr,
        pattern: &Pattern,
        key_vars: &[&str],
        matched: &[(usize, Value, Env)],
    ) -> KeyHistogram {
        let stats_key = match &self.plan_cache {
            // Closed means no free variables *and* no parameters: a histogram
            // computed under one parameter binding is not extent-intrinsic.
            Some(_)
                if rewrite::free_vars(source).is_empty()
                    && rewrite::collect_params(source).is_empty() =>
            {
                Some((
                    source.clone(),
                    pattern.clone(),
                    key_vars.iter().map(|v| v.to_string()).collect::<Vec<_>>(),
                ))
            }
            _ => None,
        };
        let version = self.provider.version();
        if let (Some(cache), Some(key)) = (&self.plan_cache, &stats_key) {
            if let Some(histogram) = cache.histogram(key, version) {
                return histogram;
            }
            // Incremental refresh: an append-only provider's extents only grow
            // at the tail, so a stale histogram whose counts covered the first
            // `scanned` matched rows is completed by counting just the tail —
            // not recounted from scratch on every version bump.
            if self.provider.extents_append_only() {
                if let Some((scanned, counts)) = cache.stale_histogram(key) {
                    if scanned <= matched.len() {
                        let mut counts = counts;
                        let fresh = Arc::make_mut(&mut counts);
                        let mut rows: usize = fresh.values().sum();
                        for (_, _, scratch) in &matched[scanned..] {
                            if let Some(k) = key_from(scratch, key_vars) {
                                *fresh.entry(k).or_insert(0) += 1;
                                rows += 1;
                            }
                        }
                        let histogram = KeyHistogram {
                            rows,
                            distinct: fresh.len(),
                            max_bucket: fresh.values().copied().max().unwrap_or(0),
                        };
                        cache.store_histogram(
                            key.clone(),
                            version,
                            histogram,
                            matched.len(),
                            counts,
                            true,
                        );
                        return histogram;
                    }
                }
            }
        }
        let mut counts: HashMap<Value, usize> = HashMap::new();
        let mut rows = 0usize;
        for (_, _, scratch) in matched {
            if let Some(key) = key_from(scratch, key_vars) {
                *counts.entry(key).or_insert(0) += 1;
                rows += 1;
            }
        }
        let histogram = KeyHistogram {
            rows,
            distinct: counts.len(),
            max_bucket: counts.values().copied().max().unwrap_or(0),
        };
        if let (Some(cache), Some(key)) = (&self.plan_cache, stats_key) {
            cache.store_histogram(
                key,
                version,
                histogram,
                matched.len(),
                Arc::new(counts),
                false,
            );
        }
        histogram
    }

    /// Build a [`StandingPlan`] for `expr`, or `None` when the shape is not
    /// incrementally maintainable.
    ///
    /// The plan is built with reordering, bushy enumeration and point-lookup
    /// indexes all disabled, so the step list is exactly the textual qualifier
    /// order (`Iterate`/`HashJoin`/`Filter`/`Bind` steps only) and output
    /// order is structural rather than restored by a plan-time sort. Hash-join
    /// build sides are evaluated **now** and retained behind `Arc`s; deltas
    /// probe those retained indexes instead of rebuilding them — which is
    /// sound precisely while the non-lead extents stay unchanged (the
    /// [`StandingPlan`] contract).
    ///
    /// Returns `None` when:
    /// - `expr` is not a comprehension (aggregations like `count(…)`,
    ///   `distinct(…)` wrap the comprehension in an `Apply` and must observe
    ///   the whole bag — the caller falls back to re-execution);
    /// - the first generator does not iterate a scheme extent directly;
    /// - the lead scheme is referenced more than once in the whole expression
    ///   (a self-join: appended rows would also need to join against
    ///   themselves and the old rows, which a single tail pass cannot produce
    ///   in nested-loop order).
    pub fn standing_plan(&self, expr: &Expr, env: &Env) -> Result<Option<StandingPlan>, EvalError> {
        let Expr::Comp { head, qualifiers } = expr else {
            return Ok(None);
        };
        let planner = Evaluator {
            provider: &self.provider,
            use_planner: true,
            reorder: false,
            bushy: false,
            parallel: self.parallel,
            use_index: false,
            columnar: false,
            plan_cache: None,
            index_store: None,
            step_probe: None,
            engine_stats: None,
            reopt_factor: self.reopt_factor,
        };
        let plan = planner.plan_comprehension(qualifiers, env, None)?;
        let mut lead = None;
        for (i, step) in plan.steps.iter().enumerate() {
            match step {
                Step::Filter(_) | Step::Bind { .. } => continue,
                Step::Iterate {
                    source: Expr::Scheme(s),
                    ..
                } => {
                    lead = Some((i, s.clone()));
                    break;
                }
                // First generator is a computed source or was fused into a
                // hash join (its probe key comes from a preceding `let`):
                // appends to an underlying scheme do not surface as a tail
                // append of the iterated bag, so no delta contract holds.
                _ => break,
            }
        }
        let Some((lead, lead_scheme)) = lead else {
            return Ok(None);
        };
        let mut occurrences = 0usize;
        rewrite::visit(expr, &mut |e| {
            if matches!(e, Expr::Scheme(s) if *s == lead_scheme) {
                occurrences += 1;
            }
        });
        if occurrences != 1 {
            return Ok(None);
        }
        Ok(Some(StandingPlan {
            head: (**head).clone(),
            steps: plan.steps,
            lead,
            lead_scheme,
            touched: rewrite::collect_schemes(expr),
        }))
    }

    /// Execute a standing plan in full (the subscription's initial answer, and
    /// the re-synchronisation path after a non-incrementalisable change).
    pub fn execute_standing(&self, plan: &StandingPlan, env: &Env) -> Result<Bag, EvalError> {
        let mut out = Bag::empty();
        self.exec_plan(&plan.head, &plan.steps, env, &mut out)?;
        Ok(out)
    }

    /// Delta-evaluate a standing plan against rows newly **appended to the
    /// lead scheme's extent**: run the prefix filters/binds once, then drive
    /// each appended element through the steps after the lead — probing the
    /// retained hash-join indexes rather than rebuilding them. The returned
    /// bag is exactly what a full re-execution would append at the tail of the
    /// previous result (same order, same multiplicities), **provided** no
    /// other touched extent changed since the plan was built or last verified
    /// (the [`StandingPlan`] contract — the caller's version bookkeeping
    /// enforces it and falls back to re-execution otherwise).
    pub fn delta_standing(
        &self,
        plan: &StandingPlan,
        appended: &[Value],
        env: &Env,
    ) -> Result<Bag, EvalError> {
        let mut out = Bag::empty();
        let mut env = env.clone();
        for step in &plan.steps[..plan.lead] {
            match step {
                Step::Filter(cond) => {
                    if !self.eval(cond, &env)?.as_bool()? {
                        return Ok(out);
                    }
                }
                Step::Bind { pattern, value } => {
                    let v = self.eval(value, &env)?;
                    let mut inner = env.clone();
                    if !match_pattern(pattern, &v, &mut inner)? {
                        return Ok(out);
                    }
                    env = inner;
                }
                _ => unreachable!("steps before the lead are filters and binds"),
            }
        }
        let Step::Iterate { pattern, .. } = &plan.steps[plan.lead] else {
            unreachable!("the lead step is a scheme iteration by construction");
        };
        let rest = &plan.steps[plan.lead + 1..];
        for element in appended {
            let mut inner = env.clone();
            if match_pattern(pattern, element, &mut inner)? {
                self.exec_plan(&plan.head, rest, &inner, &mut out)?;
            }
        }
        Ok(out)
    }

    fn eval_binop(&self, op: BinOp, lhs: &Expr, rhs: &Expr, env: &Env) -> Result<Value, EvalError> {
        // Short-circuiting boolean operators.
        if op == BinOp::And {
            return Ok(Value::Bool(
                self.eval(lhs, env)?.as_bool()? && self.eval(rhs, env)?.as_bool()?,
            ));
        }
        if op == BinOp::Or {
            return Ok(Value::Bool(
                self.eval(lhs, env)?.as_bool()? || self.eval(rhs, env)?.as_bool()?,
            ));
        }
        let l = self.eval(lhs, env)?;
        let r = self.eval(rhs, env)?;
        match op {
            BinOp::Eq => Ok(Value::Bool(l == r)),
            BinOp::Neq => Ok(Value::Bool(l != r)),
            BinOp::Lt => Ok(Value::Bool(l < r)),
            BinOp::Le => Ok(Value::Bool(l <= r)),
            BinOp::Gt => Ok(Value::Bool(l > r)),
            BinOp::Ge => Ok(Value::Bool(l >= r)),
            BinOp::BagUnion => Ok(Value::Bag(l.expect_bag()?.union(&r.expect_bag()?))),
            BinOp::BagDiff => Ok(Value::Bag(l.expect_bag()?.difference(&r.expect_bag()?))),
            BinOp::Add | BinOp::Sub | BinOp::Mul | BinOp::Div => self.eval_arith(op, &l, &r),
            BinOp::And | BinOp::Or => unreachable!("handled above"),
        }
    }

    fn eval_arith(&self, op: BinOp, l: &Value, r: &Value) -> Result<Value, EvalError> {
        // String concatenation with `+`.
        if op == BinOp::Add {
            if let (Value::Str(a), Value::Str(b)) = (l, r) {
                return Ok(Value::str(format!("{a}{b}")));
            }
        }
        match (l, r) {
            (Value::Int(a), Value::Int(b)) => match op {
                BinOp::Add => Ok(Value::Int(a + b)),
                BinOp::Sub => Ok(Value::Int(a - b)),
                BinOp::Mul => Ok(Value::Int(a * b)),
                BinOp::Div => {
                    if *b == 0 {
                        Err(EvalError::DivisionByZero)
                    } else {
                        Ok(Value::Int(a / b))
                    }
                }
                _ => unreachable!(),
            },
            _ => {
                let (a, b) = match (l.as_f64(), r.as_f64()) {
                    (Some(a), Some(b)) => (a, b),
                    _ => {
                        return Err(EvalError::TypeError {
                            context: format!("arithmetic `{}`", op.symbol()),
                            found: format!("{} and {}", l.type_name(), r.type_name()),
                        })
                    }
                };
                match op {
                    BinOp::Add => Ok(Value::Float(a + b)),
                    BinOp::Sub => Ok(Value::Float(a - b)),
                    BinOp::Mul => Ok(Value::Float(a * b)),
                    BinOp::Div => {
                        if b == 0.0 {
                            Err(EvalError::DivisionByZero)
                        } else {
                            Ok(Value::Float(a / b))
                        }
                    }
                    _ => unreachable!(),
                }
            }
        }
    }
}

/// Plan the leading join pair `p1 <- bag1; p2 <- bag2; <equi-run>` using the two
/// cardinalities: when the outer extent is smaller, hash *it*, iterate the bigger
/// inner extent, and restore the nested-loop output order with a stable positional
/// sort; otherwise keep the textual orientation (scan outer, hash inner). The
/// reorder is abandoned when the bucket-histogram output estimate says the sort
/// would dominate.
fn plan_join_pair(
    p1: &Pattern,
    p2: &Pattern,
    probe_vars: &[&str],
    build_vars: &[&str],
    bag1: Bag,
    bag2: Bag,
    env: &Env,
) -> Result<(Vec<Step>, JoinStats), EvalError> {
    let (n1, n2) = (bag1.len(), bag2.len());
    if n1 < n2 {
        // Index the smaller outer side, remembering each element's position so the
        // output order can be restored after probing in inner-extent order.
        let mut index1: HashMap<Value, Vec<(usize, Value)>> = HashMap::new();
        let mut indexed = 0usize;
        for (pos, element) in bag1.iter().enumerate() {
            let mut scratch = env.clone();
            if match_pattern(p1, element, &mut scratch)? {
                // Probe vars are all bound by p1 (reorder_candidate guarantees it).
                if let Some(key) = key_from(&scratch, probe_vars) {
                    index1.entry(key).or_default().push((pos, element.clone()));
                    indexed += 1;
                }
            }
        }
        let distinct = index1.len();
        let max_bucket = index1.values().map(Vec::len).max().unwrap_or(0);
        let estimated = n2 as f64 * indexed as f64 / distinct.max(1) as f64;
        if estimated <= REORDER_OUTPUT_CAP * (n1 + n2 + 1) as f64 {
            let mut tagged: Vec<(usize, Value, Value)> = Vec::new();
            for element in bag2.iter() {
                let mut scratch = env.clone();
                if match_pattern(p2, element, &mut scratch)? {
                    if let Some(key) = key_from(&scratch, build_vars) {
                        if let Some(matches) = index1.get(&key) {
                            for (pos, outer_el) in matches {
                                tagged.push((*pos, outer_el.clone(), element.clone()));
                            }
                        }
                    }
                }
            }
            // Stable sort on the outer position: rows for one outer element keep
            // their inner-extent order, restoring the nested-loop output order.
            tagged.sort_by_key(|(pos, _, _)| *pos);
            let rows: Vec<(Value, Value)> = tagged.into_iter().map(|(_, a, b)| (a, b)).collect();
            let actual = rows.len();
            return Ok((
                vec![Step::OrderedJoin {
                    outer: p1.clone(),
                    inner: p2.clone(),
                    rows: Arc::new(rows),
                }],
                JoinStats {
                    strategy: JoinStrategy::Reordered,
                    build_rows: indexed,
                    probe_rows: Some(n2),
                    distinct_keys: distinct,
                    max_bucket,
                    estimated_output: Some(estimated),
                    actual_output: Some(actual),
                },
            ));
        }
    }
    // Textual orientation: the outer side scans (already evaluated — reuse the
    // bag), the inner side is hashed.
    let (index, stats) = build_index(p2, &bag2, build_vars, env, Some(n1))?;
    Ok((
        vec![
            Step::Scan {
                pattern: p1.clone(),
                bag: bag1,
            },
            Step::HashJoin {
                pattern: p2.clone(),
                probe_vars: probe_vars.iter().map(|v| v.to_string()).collect(),
                index: Arc::new(index),
            },
        ],
        stats,
    ))
}

/// Group a build-side bag's elements by the values the pattern binds to
/// `build_vars` (a composite key when there are several), collecting the bucket
/// histogram as statistics. Elements the pattern rejects are dropped, exactly as
/// the nested loop would skip them.
fn build_index(
    pattern: &Pattern,
    bag: &Bag,
    build_vars: &[&str],
    env: &Env,
    probe_rows: Option<usize>,
) -> Result<(HashMap<Value, Vec<Value>>, JoinStats), EvalError> {
    let mut index: HashMap<Value, Vec<Value>> = HashMap::new();
    let mut indexed = 0usize;
    for element in bag.iter() {
        let mut scratch = env.clone();
        if match_pattern(pattern, element, &mut scratch)? {
            if let Some(key) = key_from(&scratch, build_vars) {
                index.entry(key).or_default().push(element.clone());
                indexed += 1;
            }
        }
    }
    let distinct = index.len();
    let max_bucket = index.values().map(Vec::len).max().unwrap_or(0);
    let stats = JoinStats {
        strategy: JoinStrategy::Hash,
        build_rows: indexed,
        probe_rows,
        distinct_keys: distinct,
        max_bucket,
        estimated_output: probe_rows.map(|n| n as f64 * indexed as f64 / distinct.max(1) as f64),
        actual_output: None,
    };
    Ok((index, stats))
}

/// The patterns and sources of a chain's generator slots, in textual order.
fn chain_parts<'q>(chain: &Chain, slots: &[Slot<'q>]) -> (Vec<&'q Pattern>, Vec<&'q Expr>) {
    let mut patterns = Vec::with_capacity(chain.len);
    let mut sources = Vec::with_capacity(chain.len);
    for pos in 0..chain.len {
        match &slots[chain.start + pos] {
            Slot::Gen { pattern, source }
            | Slot::Fused {
                pattern, source, ..
            } => {
                patterns.push(*pattern);
                sources.push(*source);
            }
            _ => unreachable!("chain covers only generator slots"),
        }
    }
    (patterns, sources)
}

/// Match each chain generator's prefetched extent once, keeping the original
/// bag position, the element, and the pattern-bound environment for join-key
/// extraction. Both chain planners (bushy and greedy) work off these rows.
fn match_chain_rows(
    patterns: &[&Pattern],
    start: usize,
    bags: &BTreeMap<usize, Bag>,
    env: &Env,
) -> Result<Vec<MatchedRows>, EvalError> {
    let mut matched = Vec::with_capacity(patterns.len());
    for (pos, pattern) in patterns.iter().enumerate() {
        let bag = bags.get(&(start + pos)).expect("prefetched chain source");
        let mut rows = Vec::new();
        for (p, element) in bag.iter().enumerate() {
            let mut scratch = env.clone();
            if match_pattern(pattern, element, &mut scratch)? {
                rows.push((p, element.clone(), scratch));
            }
        }
        matched.push(rows);
    }
    Ok(matched)
}

/// Restore the nested-loop output order — lexicographic on the original bag
/// positions in textual generator order, exactly the order the nested loop
/// enumerates accepted combinations in — and clone out the element values.
fn materialise_chain_rows(matched: &[MatchedRows], mut rows: Vec<Vec<usize>>) -> Vec<Vec<Value>> {
    let m = matched.len();
    rows.sort_by(|a, b| {
        for g in 0..m {
            match matched[g][a[g]].0.cmp(&matched[g][b[g]].0) {
                std::cmp::Ordering::Equal => continue,
                ord => return ord,
            }
        }
        std::cmp::Ordering::Equal
    });
    rows.into_iter()
        .map(|row| (0..m).map(|g| matched[g][row[g]].1.clone()).collect())
        .collect()
}

/// Execute a bushy join tree bottom-up over the matched chain extents: a leaf
/// yields one intermediate row per matched element, an internal node hash-joins
/// its two subtrees' rows on the composite key of every predicate crossing the
/// cut (each predicate's endpoints land in different subtrees exactly at their
/// lowest common ancestor, so every predicate is applied exactly once). The
/// smaller input builds the hash index; the final positional sort makes probe
/// order irrelevant. One [`JoinStats`] entry is pushed per internal node, in
/// execution (post-)order.
///
/// Returns `None` as soon as any node's **actual** output exceeds `row_cap`:
/// the enumerator admitted the tree on estimates alone, and key skew can make
/// an estimate arbitrarily optimistic — aborting here keeps plan-time
/// materialisation bounded and lets the caller fall back to the greedy
/// planner.
fn exec_join_tree(
    tree: &JoinTree,
    matched: &[MatchedRows],
    preds: &[ChainPred],
    row_cap: f64,
    stats: &mut Vec<JoinStats>,
) -> Option<Vec<Vec<usize>>> {
    let m = matched.len();
    match tree {
        JoinTree::Leaf(g) => Some(
            (0..matched[*g].len())
                .map(|idx| {
                    let mut row = vec![UNSET; m];
                    row[*g] = idx;
                    row
                })
                .collect(),
        ),
        JoinTree::Join { left, right } => {
            let lrows = exec_join_tree(left, matched, preds, row_cap, stats)?;
            let rrows = exec_join_tree(right, matched, preds, row_cap, stats)?;
            let (lmask, rmask) = (left.leaf_mask(), right.leaf_mask());
            let mut lparts: Vec<(usize, &str)> = Vec::new();
            let mut rparts: Vec<(usize, &str)> = Vec::new();
            for p in preds {
                if lmask & (1 << p.earlier) != 0 && rmask & (1 << p.later) != 0 {
                    lparts.push((p.earlier, &p.earlier_var));
                    rparts.push((p.later, &p.later_var));
                } else if lmask & (1 << p.later) != 0 && rmask & (1 << p.earlier) != 0 {
                    lparts.push((p.later, &p.later_var));
                    rparts.push((p.earlier, &p.earlier_var));
                }
            }
            debug_assert!(!lparts.is_empty(), "enumerated trees never cross-product");
            let (build, bparts, probe, pparts) = if lrows.len() <= rrows.len() {
                (&lrows, &lparts, &rrows, &rparts)
            } else {
                (&rrows, &rparts, &lrows, &lparts)
            };
            let mut index: HashMap<Value, Vec<usize>> = HashMap::new();
            for (i, row) in build.iter().enumerate() {
                if let Some(key) = chain_row_key(matched, row, bparts) {
                    index.entry(key).or_default().push(i);
                }
            }
            let distinct = index.len();
            let max_bucket = index.values().map(Vec::len).max().unwrap_or(0);
            let mut joined = Vec::new();
            for prow in probe {
                let Some(key) = chain_row_key(matched, prow, pparts) else {
                    continue;
                };
                if let Some(matches) = index.get(&key) {
                    for &bi in matches {
                        let mut merged = prow.clone();
                        for (g, idx) in build[bi].iter().enumerate() {
                            if *idx != UNSET {
                                merged[g] = *idx;
                            }
                        }
                        joined.push(merged);
                    }
                }
                if joined.len() as f64 > row_cap {
                    return None; // the estimate was skew-fooled: abort mid-join
                }
            }
            stats.push(JoinStats {
                strategy: JoinStrategy::Bushy {
                    tree: Arc::new(tree.clone()),
                },
                build_rows: build.len(),
                probe_rows: Some(probe.len()),
                distinct_keys: distinct,
                max_bucket,
                estimated_output: Some(
                    probe.len() as f64 * build.len() as f64 / distinct.max(1) as f64,
                ),
                actual_output: Some(joined.len()),
            });
            Some(joined)
        }
    }
}

/// Extract the (composite) join key of an intermediate chain row: each component
/// names a chain position and a variable bound by that position's pattern, looked
/// up in the pattern-bound environment captured when the extent was matched.
fn chain_row_key(matched: &[MatchedRows], row: &[usize], parts: &[(usize, &str)]) -> Option<Value> {
    let mut vals = Vec::with_capacity(parts.len());
    for (g, var) in parts {
        let (_, _, scratch) = &matched[*g][row[*g]];
        vals.push(scratch.get(var)?.clone());
    }
    Some(composite_key(vals))
}

/// Assemble a join key from its component values (single components stay bare so a
/// one-column join key compares exactly like the filter would).
pub(crate) fn composite_key(mut parts: Vec<Value>) -> Value {
    if parts.len() == 1 {
        parts.pop().expect("one component")
    } else {
        Value::tuple(parts)
    }
}

/// If `cond` is `Var(a) = Var(b)` with exactly one side bound by `pattern`, return
/// `(probe_var, build_var)`: the side *not* bound by the pattern probes an index
/// keyed by the side the pattern binds.
fn equi_join_key<'q>(cond: &'q Expr, pattern: &Pattern) -> Option<(&'q str, &'q str)> {
    let Expr::BinOp {
        op: BinOp::Eq,
        lhs,
        rhs,
    } = cond
    else {
        return None;
    };
    let (Expr::Var(a), Expr::Var(b)) = (lhs.as_ref(), rhs.as_ref()) else {
        return None;
    };
    let pattern_vars: BTreeSet<&str> = pattern.bound_vars().into_iter().collect();
    match (
        pattern_vars.contains(a.as_str()),
        pattern_vars.contains(b.as_str()),
    ) {
        (true, false) => Some((b.as_str(), a.as_str())),
        (false, true) => Some((a.as_str(), b.as_str())),
        _ => None,
    }
}

/// If `cond` is a point-equality filter — `Var(v) = ?param` or `Var(v) = literal`
/// (either side order) with `v` in `bound` (the generator's pattern variables) —
/// return `(v, key_expr)`: the indexed variable and the expression whose
/// per-execution value probes the index.
fn point_filter_key<'q>(cond: &'q Expr, bound: &BTreeSet<&str>) -> Option<(&'q str, &'q Expr)> {
    let Expr::BinOp {
        op: BinOp::Eq,
        lhs,
        rhs,
    } = cond
    else {
        return None;
    };
    match (lhs.as_ref(), rhs.as_ref()) {
        (Expr::Var(v), key @ (Expr::Param(_) | Expr::Lit(_))) if bound.contains(v.as_str()) => {
            Some((v.as_str(), key))
        }
        (key @ (Expr::Param(_) | Expr::Lit(_)), Expr::Var(v)) if bound.contains(v.as_str()) => {
            Some((v.as_str(), key))
        }
        _ => None,
    }
}

/// The [`JoinStats`] entry a point-lookup index reports: build-side figures are
/// the index itself; the probe side is unknowable at plan time (one probe per
/// execution, under bindings the plan never sees).
fn point_stats(index: &PointIndex) -> JoinStats {
    JoinStats {
        strategy: JoinStrategy::IndexLookup,
        build_rows: index.rows,
        probe_rows: None,
        distinct_keys: index.buckets.len(),
        max_bucket: index.max_bucket,
        estimated_output: None,
        actual_output: None,
    }
}

/// The summed per-node cardinality a plan *actually* materialised (falling back
/// to the estimate for nodes that do not execute at plan time). Used to pick
/// the winner of a re-optimisation round: joins materialise at plan time, so
/// both candidates' true intermediate work is known.
fn plan_actual_cost(plan: &Plan) -> f64 {
    plan.join_stats
        .iter()
        .map(|s| {
            s.actual_output
                .map(|a| a as f64)
                .or(s.estimated_output)
                .unwrap_or(0.0)
        })
        .sum()
}

/// The cost model's output estimate for a join subtree: the product of its leaf
/// cardinalities and the selectivities of every edge both of whose endpoints lie
/// inside the subtree (the independence assumption the DP enumerates under).
fn tree_est(tree: &JoinTree, cards: &[usize], edges: &[bushy::EdgeSel]) -> f64 {
    let mask = tree.leaf_mask();
    let mut est: f64 = tree.leaves().iter().map(|&g| cards[g] as f64).product();
    for e in edges {
        if mask & (1 << e.a) != 0 && mask & (1 << e.b) != 0 {
            est *= e.selectivity;
        }
    }
    est
}

/// Compare each bushy node's materialised cardinality against what the edge
/// selectivities predicted, producing the observed per-edge selectivities and
/// the worst underestimate ratio. `edges` must be the selectivities the
/// enumeration actually used (including any re-optimisation overrides), so a
/// replanned plan whose estimates now match reality reports low divergence and
/// the feedback loop converges.
///
/// Each internal node's combined crossing-edge selectivity is
/// `actual / (build × probe)`; with `k` edges crossing the node it is
/// distributed as the k-th root per edge (the DP multiplies crossing-edge
/// selectivities independently). Nodes below [`MIN_FEEDBACK_ROWS`] actual rows
/// do not count towards divergence: tiny results make ratios noisy and
/// replanning them saves nothing.
fn bushy_feedback(
    stats: &[JoinStats],
    cards: &[usize],
    edges: &[bushy::EdgeSel],
) -> Option<PlanFeedback> {
    let mut observed: ObservedSelectivities = Vec::new();
    let mut max_divergence = 0.0f64;
    for stat in stats {
        let JoinStrategy::Bushy { tree } = &stat.strategy else {
            continue;
        };
        let Some(actual) = stat.actual_output else {
            continue;
        };
        let est = tree_est(tree, cards, edges).max(f64::MIN_POSITIVE);
        let divergence = actual as f64 / est;
        if actual as f64 >= MIN_FEEDBACK_ROWS {
            max_divergence = max_divergence.max(divergence);
        }
        let JoinTree::Join { left, right } = tree.as_ref() else {
            continue;
        };
        let (lmask, rmask) = (left.leaf_mask(), right.leaf_mask());
        let crossing: Vec<(usize, usize)> = edges
            .iter()
            .filter(|e| {
                (lmask & (1 << e.a) != 0 && rmask & (1 << e.b) != 0)
                    || (lmask & (1 << e.b) != 0 && rmask & (1 << e.a) != 0)
            })
            .map(|e| (e.a.min(e.b), e.a.max(e.b)))
            .collect();
        if crossing.is_empty() {
            continue;
        }
        let inputs = stat.build_rows as f64 * stat.probe_rows.unwrap_or(0) as f64;
        if inputs <= 0.0 {
            continue;
        }
        let combined = (actual as f64 / inputs).min(1.0);
        let per_edge = combined.powf(1.0 / crossing.len() as f64);
        for pair in crossing {
            // Each edge crosses exactly one node (where its endpoints first
            // meet), so this is an insert in practice; replace defensively.
            if let Some(slot) = observed.iter_mut().find(|(p, _)| *p == pair) {
                slot.1 = per_edge;
            } else {
                observed.push((pair, per_edge));
            }
        }
    }
    if observed.is_empty() {
        return None;
    }
    Some(PlanFeedback {
        observed,
        max_divergence,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{parse, MapExtents};
    use std::sync::atomic::{AtomicU64, Ordering as AtomicOrdering};
    use std::sync::RwLock;

    fn fixture() -> MapExtents {
        let mut m = MapExtents::new();
        m.insert_keys("protein", vec![1, 2, 3]);
        m.insert_pairs(
            "protein,accession_num",
            vec![(1, "P100"), (2, "P200"), (3, "P300")],
        );
        m.insert_pairs("protein,organism", vec![(1, "human"), (2, "mouse")]);
        m.insert_pairs("peptidehit,score", vec![(10, "55"), (11, "70"), (12, "70")]);
        m
    }

    fn run(query: &str) -> Value {
        let q = parse(query).unwrap();
        Evaluator::new(fixture()).eval_closed(&q).unwrap()
    }

    /// Evaluate with the planner (all optimisations), with reordering disabled,
    /// with sequential fetch, and with nested loops; all four must agree exactly
    /// (including element order).
    fn run_both_ways(query: &str) -> Value {
        let q = parse(query).unwrap();
        let planned = Evaluator::new(fixture()).eval_closed(&q).unwrap();
        let unordered = Evaluator::new(fixture())
            .without_reorder()
            .eval_closed(&q)
            .unwrap();
        let sequential = Evaluator::new(fixture())
            .without_parallel_fetch()
            .eval_closed(&q)
            .unwrap();
        let naive = Evaluator::new(fixture())
            .with_nested_loops()
            .eval_closed(&q)
            .unwrap();
        if let (Value::Bag(p), Value::Bag(n)) = (&planned, &naive) {
            assert_eq!(p.items(), n.items(), "planned vs naive order for {query}");
        } else {
            assert_eq!(planned, naive, "planned vs naive for {query}");
        }
        assert_eq!(planned, unordered, "reorder changed answers for {query}");
        assert_eq!(planned, sequential, "parallel changed answers for {query}");
        planned
    }

    #[test]
    fn params_bind_at_execution_time() {
        let q = parse("[x | {k, x} <- <<protein, accession_num>>; k = ?key]").unwrap();
        let ev = Evaluator::new(fixture());
        for (key, expected) in [(1, "P100"), (2, "P200")] {
            let env = Env::new().with_params(crate::Params::new().with("key", key));
            let v = ev.eval(&q, &env).unwrap();
            assert_eq!(v.expect_bag().unwrap().items(), &[Value::str(expected)]);
        }
        // Unbound parameter: typed error, not a silent empty answer.
        assert_eq!(
            ev.eval(&q, &Env::new()),
            Err(EvalError::UnboundParam("key".into()))
        );
    }

    #[test]
    fn one_plan_serves_every_binding() {
        let extents = fixture();
        let cache = Arc::new(PlanCache::new());
        let ev = Evaluator::new(&extents).with_plan_cache(Arc::clone(&cache));
        // A parameterised join: the filter re-resolves ?org per execution, but
        // the join (and its hash index) is planned once.
        let q = parse(
            "[{a, o} | {k, a} <- <<protein, accession_num>>; {k2, o} <- <<protein, organism>>; \
             k = k2; o = ?org]",
        )
        .unwrap();
        for org in ["human", "mouse", "human", "axolotl"] {
            let env = Env::new().with_params(crate::Params::new().with("org", org));
            ev.eval(&q, &env).unwrap();
        }
        assert_eq!(cache.len(), 1, "one plan per query shape");
        assert_eq!(cache.miss_count(), 1);
        assert_eq!(cache.hit_count(), 3, "every re-binding is a cache hit");
        // And the answers still track the binding.
        let env = Env::new().with_params(crate::Params::new().with("org", "mouse"));
        let bag = ev.eval(&q, &env).unwrap().expect_bag().unwrap();
        assert_eq!(
            bag.items(),
            &[Value::pair(Value::str("P200"), Value::str("mouse"))]
        );
    }

    #[test]
    fn parameterised_sources_are_not_cached() {
        // A parameter inside a *generator source* is evaluated at plan time, so
        // the plan is binding-specific and must bypass the cache.
        let extents = fixture();
        let cache = Arc::new(PlanCache::new());
        let ev = Evaluator::new(&extents).with_plan_cache(Arc::clone(&cache));
        let q = parse("[x | x <- ?bag; y <- <<protein>>; y = x]").unwrap();
        for keys in [vec![1i64, 2], vec![3]] {
            let bag = Bag::from_values(keys.iter().copied().map(Value::Int).collect());
            let env = Env::new().with_params(crate::Params::new().with("bag", Value::Bag(bag)));
            let v = ev.eval(&q, &env).unwrap();
            assert_eq!(v.expect_bag().unwrap().len(), keys.len());
        }
        assert_eq!(cache.len(), 0, "parameterised sources must not be cached");
    }

    #[test]
    fn simple_projection() {
        let v = run("[x | {k, x} <- <<protein, accession_num>>]");
        assert_eq!(
            v,
            Value::Bag(Bag::from_values(vec![
                Value::str("P100"),
                Value::str("P200"),
                Value::str("P300"),
            ]))
        );
    }

    #[test]
    fn paper_style_provenance_tagging() {
        let v = run("[{'PEDRO', k} | k <- <<protein>>]");
        let bag = v.expect_bag().unwrap();
        assert_eq!(bag.len(), 3);
        assert!(bag.contains(&Value::pair(Value::str("PEDRO"), Value::Int(1))));
    }

    #[test]
    fn selection_with_filter() {
        let v = run("[x | {k, x} <- <<protein, accession_num>>; k = 2]");
        assert_eq!(v.expect_bag().unwrap().items(), &[Value::str("P200")]);
    }

    #[test]
    fn join_across_schemes() {
        let v = run_both_ways(
            "[{a, o} | {k, a} <- <<protein, accession_num>>; {k2, o} <- <<protein, organism>>; k = k2]",
        );
        let bag = v.expect_bag().unwrap();
        assert_eq!(bag.len(), 2);
        assert!(bag.contains(&Value::pair(Value::str("P100"), Value::str("human"))));
    }

    #[test]
    fn composite_key_join_matches_naive() {
        // The paper's GAV-rewritten queries join on {source, key} pairs: a run of
        // two equality filters after the generator forms one composite hash key.
        let mut m = MapExtents::new();
        m.insert(
            "acc",
            Bag::from_values(vec![
                Value::tuple(vec![Value::str("PEDRO"), Value::Int(1), Value::str("A")]),
                Value::tuple(vec![Value::str("gpmDB"), Value::Int(1), Value::str("B")]),
                Value::tuple(vec![Value::str("PEDRO"), Value::Int(2), Value::str("C")]),
            ]),
        );
        m.insert(
            "descr",
            Bag::from_values(vec![
                Value::tuple(vec![Value::str("PEDRO"), Value::Int(1), Value::str("d1")]),
                Value::tuple(vec![Value::str("gpmDB"), Value::Int(2), Value::str("d2")]),
                Value::tuple(vec![Value::str("PEDRO"), Value::Int(2), Value::str("d3")]),
            ]),
        );
        let q = parse("[{x, d} | {s, k, x} <- <<acc>>; {s2, k2, d} <- <<descr>>; s2 = s; k2 = k]")
            .unwrap();
        let planned = Evaluator::new(&m).eval_closed(&q).unwrap();
        let naive = Evaluator::new(&m)
            .with_nested_loops()
            .eval_closed(&q)
            .unwrap();
        let planned_bag = planned.expect_bag().unwrap();
        assert_eq!(planned_bag.items(), naive.expect_bag().unwrap().items());
        assert_eq!(
            planned_bag.items(),
            &[
                Value::pair(Value::str("A"), Value::str("d1")),
                Value::pair(Value::str("C"), Value::str("d3")),
            ]
        );
    }

    #[test]
    fn join_with_flipped_equality_sides() {
        let v = run_both_ways(
            "[{a, o} | {k, a} <- <<protein, accession_num>>; {k2, o} <- <<protein, organism>>; k2 = k]",
        );
        assert_eq!(v.expect_bag().unwrap().len(), 2);
    }

    #[test]
    fn join_preserves_duplicate_multiplicities() {
        let mut m = MapExtents::new();
        m.insert_pairs("l,v", vec![(1, "a"), (1, "b"), (2, "c")]);
        m.insert_pairs("r,v", vec![(1, "x"), (1, "x"), (3, "y")]);
        let q = parse("[{x, y} | {k1, x} <- <<l, v>>; {k2, y} <- <<r, v>>; k1 = k2]").unwrap();
        let planned = Evaluator::new(&m).eval_closed(&q).unwrap();
        let naive = Evaluator::new(&m)
            .with_nested_loops()
            .eval_closed(&q)
            .unwrap();
        let planned_bag = planned.expect_bag().unwrap();
        assert_eq!(planned_bag.items(), naive.expect_bag().unwrap().items());
        // (1,a)x2 + (1,b)x2: key 1 matches both duplicate right rows.
        assert_eq!(planned_bag.len(), 4);
        assert_eq!(
            planned_bag.multiplicity(&Value::pair(Value::str("a"), Value::str("x"))),
            2
        );
    }

    #[test]
    fn three_way_chain_join_agrees_with_naive() {
        let v = run_both_ways(
            "[{a, o, s} | {k, a} <- <<protein, accession_num>>; {k2, o} <- <<protein, organism>>; k = k2; {k3, s} <- <<peptidehit, score>>; k3 = k3]",
        );
        // Every (accession, organism) pair crosses with all three peptide hits.
        assert_eq!(v.expect_bag().unwrap().len(), 6);
    }

    #[test]
    fn correlated_generator_falls_back_to_nested_loops() {
        // The inner generator's source mentions `k` from the outer generator, so the
        // planner must not hoist it.
        let v = run_both_ways("[{k, n} | k <- <<protein>>; n <- [k, k]; n = k]");
        assert_eq!(v.expect_bag().unwrap().len(), 6);
    }

    #[test]
    fn join_key_matches_across_int_and_float() {
        let mut m = MapExtents::new();
        m.insert(
            "l,v",
            Bag::from_values(vec![Value::pair(Value::Int(1), Value::str("a"))]),
        );
        m.insert(
            "r,v",
            Bag::from_values(vec![Value::pair(Value::Float(1.0), Value::str("b"))]),
        );
        let q = parse("[{x, y} | {k1, x} <- <<l, v>>; {k2, y} <- <<r, v>>; k1 = k2]").unwrap();
        let planned = Evaluator::new(&m).eval_closed(&q).unwrap();
        let naive = Evaluator::new(&m)
            .with_nested_loops()
            .eval_closed(&q)
            .unwrap();
        assert_eq!(planned, naive);
        assert_eq!(planned.expect_bag().unwrap().len(), 1);
    }

    #[test]
    fn aggregates_over_comprehensions() {
        assert_eq!(run("count [k | k <- <<protein>>]"), Value::Int(3));
        assert_eq!(run("count <<protein>>"), Value::Int(3));
        assert_eq!(run("max [k | k <- <<protein>>]"), Value::Int(3));
    }

    #[test]
    fn bag_union_duplicates_preserved() {
        let v = run("<<protein>> ++ <<protein>>");
        assert_eq!(v.expect_bag().unwrap().len(), 6);
    }

    #[test]
    fn bag_difference() {
        let v = run("<<protein>> -- [k | k <- <<protein>>; k = 1]");
        assert_eq!(v.expect_bag().unwrap().len(), 2);
    }

    #[test]
    fn nested_comprehension_with_correlation() {
        let v = run_both_ways(
            "[{k, count [s | {k2, s} <- <<peptidehit, score>>; k2 = k]} | k <- [10, 11, 99]]",
        );
        let bag = v.expect_bag().unwrap();
        assert!(bag.contains(&Value::pair(Value::Int(10), Value::Int(1))));
        assert!(bag.contains(&Value::pair(Value::Int(99), Value::Int(0))));
    }

    #[test]
    fn let_and_if() {
        assert_eq!(
            run("let n = count <<protein>> in if n > 2 then 'many' else 'few'"),
            Value::str("many")
        );
    }

    #[test]
    fn binding_qualifier() {
        let v = run("[{k, n} | k <- <<protein>>; let n = k * 10; n > 10]");
        let bag = v.expect_bag().unwrap();
        assert_eq!(bag.len(), 2);
        assert!(bag.contains(&Value::pair(Value::Int(3), Value::Int(30))));
    }

    #[test]
    fn literal_pattern_in_generator_filters() {
        let mut m = MapExtents::new();
        m.insert(
            "uprotein",
            Bag::from_values(vec![
                Value::pair(Value::str("PEDRO"), Value::Int(1)),
                Value::pair(Value::str("gpmDB"), Value::Int(2)),
            ]),
        );
        let q = parse("[k | {'PEDRO', k} <- <<uprotein>>]").unwrap();
        let v = Evaluator::new(m).eval_closed(&q).unwrap();
        assert_eq!(v.expect_bag().unwrap().items(), &[Value::Int(1)]);
    }

    #[test]
    fn literal_pattern_in_hash_joined_generator_filters() {
        let mut m = MapExtents::new();
        m.insert_keys("keys", vec![1, 2]);
        m.insert(
            "uprotein,acc",
            Bag::from_values(vec![
                Value::tuple(vec![Value::str("PEDRO"), Value::Int(1), Value::str("A")]),
                Value::tuple(vec![Value::str("gpmDB"), Value::Int(1), Value::str("B")]),
                Value::tuple(vec![Value::str("PEDRO"), Value::Int(2), Value::str("C")]),
            ]),
        );
        let q =
            parse("[x | k <- <<keys>>; {'PEDRO', k2, x} <- <<uprotein, acc>>; k2 = k]").unwrap();
        let planned = Evaluator::new(&m).eval_closed(&q).unwrap();
        let naive = Evaluator::new(&m)
            .with_nested_loops()
            .eval_closed(&q)
            .unwrap();
        assert_eq!(planned, naive);
        assert_eq!(
            planned.expect_bag().unwrap().items(),
            &[Value::str("A"), Value::str("C")]
        );
    }

    #[test]
    fn range_evaluates_to_lower_bound() {
        assert_eq!(run("Range Void Any"), Value::Void);
        let v = run("Range [k | k <- <<protein>>] Any");
        assert_eq!(v.expect_bag().unwrap().len(), 3);
    }

    #[test]
    fn arithmetic_and_strings() {
        assert_eq!(run("1 + 2 * 3"), Value::Int(7));
        assert_eq!(run("7 / 2"), Value::Int(3));
        assert_eq!(run("7.0 / 2"), Value::Float(3.5));
        assert_eq!(run("'a' + 'b'"), Value::str("ab"));
        assert_eq!(run("-(3)"), Value::Int(-3));
    }

    #[test]
    fn division_by_zero_reported() {
        let q = parse("1 / 0").unwrap();
        assert_eq!(
            Evaluator::new(NoExtents).eval_closed(&q),
            Err(EvalError::DivisionByZero)
        );
    }

    #[test]
    fn unbound_variable_reported() {
        let q = parse("missing + 1").unwrap();
        assert!(matches!(
            Evaluator::new(NoExtents).eval_closed(&q),
            Err(EvalError::UnboundVariable(_))
        ));
    }

    #[test]
    fn boolean_short_circuit() {
        // The right operand would divide by zero; `and` must not evaluate it.
        assert_eq!(run("false and (1 / 0 = 1)"), Value::Bool(false));
        assert_eq!(run("true or (1 / 0 = 1)"), Value::Bool(true));
        assert_eq!(run("not false"), Value::Bool(true));
    }

    #[test]
    fn comparisons() {
        assert_eq!(run("2 < 3"), Value::Bool(true));
        assert_eq!(run("'abc' <> 'abd'"), Value::Bool(true));
        assert_eq!(run("3 >= 3"), Value::Bool(true));
    }

    // ---------- statistics-driven reordering ----------

    /// A fixture where the textual join order is wrong: the outer extent is tiny
    /// and the inner extent is large, so the planner should hash the outer side.
    fn skewed_fixture() -> MapExtents {
        let mut m = MapExtents::new();
        m.insert_pairs("small,v", vec![(1, "a"), (2, "b"), (2, "b2")]);
        m.insert(
            "big,v",
            Bag::from_values(
                (0..200)
                    .map(|i| Value::pair(Value::Int(i % 5), Value::str(format!("x{i}"))))
                    .collect(),
            ),
        );
        m
    }

    #[test]
    fn reordered_join_picks_smaller_build_side_and_preserves_order() {
        let m = skewed_fixture();
        let q =
            parse("[{x, y} | {k1, x} <- <<small, v>>; {k2, y} <- <<big, v>>; k2 = k1]").unwrap();
        let planned = Evaluator::new(&m).eval_closed(&q).unwrap();
        let naive = Evaluator::new(&m)
            .with_nested_loops()
            .eval_closed(&q)
            .unwrap();
        assert_eq!(
            planned.expect_bag().unwrap().items(),
            naive.expect_bag().unwrap().items(),
            "reordered join must preserve nested-loop output order"
        );
        let stats = Evaluator::new(&m).explain(&q, &Env::new()).unwrap();
        assert_eq!(stats.len(), 1);
        assert_eq!(stats[0].strategy, JoinStrategy::Reordered);
        assert_eq!(stats[0].build_rows, 3, "small side builds the hash index");
        assert_eq!(stats[0].probe_rows, Some(200));
        assert_eq!(stats[0].distinct_keys, 2);
        assert_eq!(stats[0].max_bucket, 2);
    }

    #[test]
    fn textual_order_kept_when_outer_is_bigger() {
        let m = skewed_fixture();
        let q =
            parse("[{x, y} | {k1, x} <- <<big, v>>; {k2, y} <- <<small, v>>; k2 = k1]").unwrap();
        let stats = Evaluator::new(&m).explain(&q, &Env::new()).unwrap();
        assert_eq!(stats.len(), 1);
        assert_eq!(stats[0].strategy, JoinStrategy::Hash);
        assert_eq!(stats[0].build_rows, 3, "small side still builds the index");
        let planned = Evaluator::new(&m).eval_closed(&q).unwrap();
        let naive = Evaluator::new(&m)
            .with_nested_loops()
            .eval_closed(&q)
            .unwrap();
        assert_eq!(
            planned.expect_bag().unwrap().items(),
            naive.expect_bag().unwrap().items()
        );
    }

    #[test]
    fn reorder_abandoned_when_output_estimate_explodes() {
        // Every key is identical: the join is a near-cross-product, the output
        // estimate blows past the cap and the planner must keep textual order.
        let mut m = MapExtents::new();
        m.insert(
            "l,v",
            Bag::from_values(
                (0..40)
                    .map(|i| Value::pair(Value::Int(1), Value::str(format!("l{i}"))))
                    .collect(),
            ),
        );
        m.insert(
            "r,v",
            Bag::from_values(
                (0..90)
                    .map(|i| Value::pair(Value::Int(1), Value::str(format!("r{i}"))))
                    .collect(),
            ),
        );
        let q = parse("[{x, y} | {k1, x} <- <<l, v>>; {k2, y} <- <<r, v>>; k2 = k1]").unwrap();
        let stats = Evaluator::new(&m).explain(&q, &Env::new()).unwrap();
        assert_eq!(stats[0].strategy, JoinStrategy::Hash);
        assert!(stats[0].estimated_output.unwrap() > 3600.0 - 1.0);
        let planned = Evaluator::new(&m).eval_closed(&q).unwrap();
        let naive = Evaluator::new(&m)
            .with_nested_loops()
            .eval_closed(&q)
            .unwrap();
        assert_eq!(
            planned.expect_bag().unwrap().items(),
            naive.expect_bag().unwrap().items()
        );
    }

    #[test]
    fn reordered_composite_key_join_agrees_with_naive() {
        let mut m = MapExtents::new();
        m.insert(
            "acc",
            Bag::from_values(vec![
                Value::tuple(vec![Value::str("PEDRO"), Value::Int(1), Value::str("A")]),
                Value::tuple(vec![Value::str("gpmDB"), Value::Int(2), Value::str("B")]),
            ]),
        );
        m.insert(
            "descr",
            Bag::from_values(
                (0..50)
                    .map(|i| {
                        Value::tuple(vec![
                            Value::str(if i % 2 == 0 { "PEDRO" } else { "gpmDB" }),
                            Value::Int(i % 4),
                            Value::str(format!("d{i}")),
                        ])
                    })
                    .collect(),
            ),
        );
        let q = parse("[{x, d} | {s, k, x} <- <<acc>>; {s2, k2, d} <- <<descr>>; s2 = s; k2 = k]")
            .unwrap();
        let stats = Evaluator::new(&m).explain(&q, &Env::new()).unwrap();
        assert_eq!(stats[0].strategy, JoinStrategy::Reordered);
        let planned = Evaluator::new(&m).eval_closed(&q).unwrap();
        let naive = Evaluator::new(&m)
            .with_nested_loops()
            .eval_closed(&q)
            .unwrap();
        assert_eq!(
            planned.expect_bag().unwrap().items(),
            naive.expect_bag().unwrap().items()
        );
    }

    // ---------- whole-chain (join graph) reordering ----------

    /// A fixture whose textual generator order is maximally wrong for a 3-chain:
    /// the biggest extent leads and the smallest comes last.
    fn chain_fixture() -> MapExtents {
        let mut m = MapExtents::new();
        m.insert(
            "big,v",
            Bag::from_values(
                (0..120)
                    .map(|i| Value::pair(Value::Int(i % 6), Value::str(format!("b{i}"))))
                    .collect(),
            ),
        );
        m.insert(
            "mid,v",
            Bag::from_values(
                (0..30)
                    .map(|i| Value::pair(Value::Int(i % 6), Value::str(format!("m{i}"))))
                    .collect(),
            ),
        );
        m.insert_pairs("small,v", vec![(0, "s0"), (1, "s1"), (2, "s2")]);
        m
    }

    const CHAIN_Q: &str = "[{x, y, z} | {k1, x} <- <<big, v>>; {k2, y} <- <<mid, v>>; k2 = k1; {k3, z} <- <<small, v>>; k3 = k2]";

    #[test]
    fn three_chain_reorders_bushy_and_preserves_order() {
        let m = chain_fixture();
        let q = parse(CHAIN_Q).unwrap();
        let stats = Evaluator::new(&m).explain(&q, &Env::new()).unwrap();
        assert_eq!(stats.len(), 2, "a 3-chain joins two tree nodes");
        assert!(
            stats
                .iter()
                .all(|s| matches!(s.strategy, JoinStrategy::Bushy { .. })),
            "whole chain must go through the bushy enumerator: {stats:?}"
        );
        // The enumerator joins the small and mid extents before touching big:
        // the 3-row extent builds the first hash index.
        assert_eq!(stats[0].build_rows, 3);
        let JoinStrategy::Bushy { tree } = &stats[1].strategy else {
            unreachable!("checked above");
        };
        assert_eq!(tree.leaves(), vec![0, 1, 2], "root spans the whole chain");
        let planned = Evaluator::new(&m).eval_closed(&q).unwrap();
        let naive = Evaluator::new(&m)
            .with_nested_loops()
            .eval_closed(&q)
            .unwrap();
        assert_eq!(
            planned.expect_bag().unwrap().items(),
            naive.expect_bag().unwrap().items(),
            "multiway join must preserve nested-loop output order"
        );
        assert!(!planned.expect_bag().unwrap().is_empty());
    }

    #[test]
    fn chain_joining_back_to_first_generator_agrees_with_naive() {
        // The third generator joins to the FIRST, not its predecessor: the join
        // graph is a star, which the old leading-pair reorder could not see.
        let m = chain_fixture();
        let q = parse(
            "[{x, y, z} | {k1, x} <- <<big, v>>; {k2, y} <- <<mid, v>>; k2 = k1; {k3, z} <- <<small, v>>; k3 = k1]",
        )
        .unwrap();
        let stats = Evaluator::new(&m).explain(&q, &Env::new()).unwrap();
        assert!(stats
            .iter()
            .all(|s| matches!(s.strategy, JoinStrategy::Bushy { .. })));
        let planned = Evaluator::new(&m).eval_closed(&q).unwrap();
        let naive = Evaluator::new(&m)
            .with_nested_loops()
            .eval_closed(&q)
            .unwrap();
        assert_eq!(
            planned.expect_bag().unwrap().items(),
            naive.expect_bag().unwrap().items()
        );
    }

    #[test]
    fn chain_bails_to_pair_planning_when_estimate_explodes() {
        // Single-key extents: every chain estimate is a near-cross-product, so
        // the multiway planner bails and the pair planner (which also bails to
        // textual orientation) takes over. Answers must still match naive.
        let mut m = MapExtents::new();
        for (name, n) in [("a,v", 25usize), ("b,v", 30), ("c,v", 35)] {
            m.insert(
                name,
                Bag::from_values(
                    (0..n)
                        .map(|i| Value::pair(Value::Int(1), Value::str(format!("{name}{i}"))))
                        .collect(),
                ),
            );
        }
        let q = parse(
            "[{x, y, z} | {k1, x} <- <<a, v>>; {k2, y} <- <<b, v>>; k2 = k1; {k3, z} <- <<c, v>>; k3 = k2]",
        )
        .unwrap();
        let stats = Evaluator::new(&m).explain(&q, &Env::new()).unwrap();
        assert!(
            stats.iter().all(|s| s.strategy != JoinStrategy::Multiway
                && !matches!(s.strategy, JoinStrategy::Bushy { .. })),
            "exploding estimates must abandon the chain reorder: {stats:?}"
        );
        let planned = Evaluator::new(&m).eval_closed(&q).unwrap();
        let naive = Evaluator::new(&m)
            .with_nested_loops()
            .eval_closed(&q)
            .unwrap();
        assert_eq!(
            planned.expect_bag().unwrap().items(),
            naive.expect_bag().unwrap().items()
        );
    }

    #[test]
    fn chain_with_composite_keys_agrees_with_naive() {
        let mut m = MapExtents::new();
        m.insert(
            "acc",
            Bag::from_values(
                (0..40)
                    .map(|i| {
                        Value::tuple(vec![
                            Value::str(if i % 2 == 0 { "PEDRO" } else { "gpmDB" }),
                            Value::Int(i % 5),
                            Value::str(format!("a{i}")),
                        ])
                    })
                    .collect(),
            ),
        );
        m.insert(
            "descr",
            Bag::from_values(
                (0..12)
                    .map(|i| {
                        Value::tuple(vec![
                            Value::str(if i % 2 == 0 { "PEDRO" } else { "gpmDB" }),
                            Value::Int(i % 5),
                            Value::str(format!("d{i}")),
                        ])
                    })
                    .collect(),
            ),
        );
        m.insert_pairs("org,v", vec![(0, "human"), (1, "mouse"), (2, "yeast")]);
        let q = parse(
            "[{x, d, o} | {s, k, x} <- <<acc>>; {s2, k2, d} <- <<descr>>; s2 = s; k2 = k; {k3, o} <- <<org, v>>; k3 = k]",
        )
        .unwrap();
        let planned = Evaluator::new(&m).eval_closed(&q).unwrap();
        let naive = Evaluator::new(&m)
            .with_nested_loops()
            .eval_closed(&q)
            .unwrap();
        assert_eq!(
            planned.expect_bag().unwrap().items(),
            naive.expect_bag().unwrap().items()
        );
    }

    #[test]
    fn four_chain_agrees_with_naive() {
        let m = chain_fixture();
        let q = parse(
            "[{x, y, z, w} | {k1, x} <- <<big, v>>; {k2, y} <- <<mid, v>>; k2 = k1; {k3, z} <- <<small, v>>; k3 = k2; {k4, w} <- <<small, v>>; k4 = k1]",
        )
        .unwrap();
        let planned = Evaluator::new(&m).eval_closed(&q).unwrap();
        let naive = Evaluator::new(&m)
            .with_nested_loops()
            .eval_closed(&q)
            .unwrap();
        assert_eq!(
            planned.expect_bag().unwrap().items(),
            naive.expect_bag().unwrap().items()
        );
    }

    #[test]
    fn chain_histograms_are_persisted_and_reused() {
        let m = chain_fixture();
        let cache = Arc::new(PlanCache::new());
        let ev = Evaluator::new(&m).with_plan_cache(Arc::clone(&cache));
        let q = parse(CHAIN_Q).unwrap();
        ev.eval_closed(&q).unwrap();
        let after_first = cache.histogram_count();
        assert!(
            after_first > 0,
            "chain planning must persist per-extent key histograms"
        );
        // A *different* query over the same extents and keys replans but reuses
        // the persisted histograms rather than recomputing them.
        let q2 = parse(
            "[{y, x, z} | {k1, x} <- <<big, v>>; {k2, y} <- <<mid, v>>; k2 = k1; {k3, z} <- <<small, v>>; k3 = k2]",
        )
        .unwrap();
        let planned = ev.eval_closed(&q2).unwrap();
        let naive = Evaluator::new(&m)
            .with_nested_loops()
            .eval_closed(&q2)
            .unwrap();
        assert_eq!(planned, naive);
        assert_eq!(
            cache.histogram_count(),
            after_first,
            "same extents and keys: no new histograms needed"
        );
    }

    // ---------- bushy join enumeration ----------

    #[test]
    fn without_bushy_falls_back_to_greedy_multiway() {
        let m = chain_fixture();
        let q = parse(CHAIN_Q).unwrap();
        let stats = Evaluator::new(&m)
            .without_bushy()
            .explain(&q, &Env::new())
            .unwrap();
        assert!(
            stats.iter().all(|s| s.strategy == JoinStrategy::Multiway),
            "bushy disabled: the greedy join-graph reorder must run: {stats:?}"
        );
        let planned = Evaluator::new(&m).without_bushy().eval_closed(&q).unwrap();
        let naive = Evaluator::new(&m)
            .with_nested_loops()
            .eval_closed(&q)
            .unwrap();
        assert_eq!(
            planned.expect_bag().unwrap().items(),
            naive.expect_bag().unwrap().items()
        );
    }

    /// A 4-chain whose middle join keeps everything while the two outer joins
    /// are selective: the cheapest plan joins the two ends separately and
    /// combines them last — a genuinely bushy shape no linear order matches.
    fn bushy_fixture() -> (MapExtents, Expr) {
        let mut m = MapExtents::new();
        m.insert(
            "a,v",
            Bag::from_values(
                (0..30)
                    .map(|i| Value::pair(Value::Int(i), Value::str(format!("a{i}"))))
                    .collect(),
            ),
        );
        m.insert(
            "b,v",
            Bag::from_values(
                (0..4)
                    .map(|i| {
                        Value::tuple(vec![
                            Value::Int(i * 7 % 30),
                            Value::Int(1),
                            Value::str(format!("b{i}")),
                        ])
                    })
                    .collect(),
            ),
        );
        m.insert(
            "c,v",
            Bag::from_values(
                (0..4)
                    .map(|i| {
                        Value::tuple(vec![
                            Value::Int(1),
                            Value::Int(10 + i),
                            Value::str(format!("c{i}")),
                        ])
                    })
                    .collect(),
            ),
        );
        m.insert(
            "d,v",
            Bag::from_values(
                (0..30)
                    .map(|i| Value::pair(Value::Int(i), Value::str(format!("d{i}"))))
                    .collect(),
            ),
        );
        let q = parse(
            "[{x, y, z, w} | {k1, x} <- <<a, v>>; {k2, m1, y} <- <<b, v>>; k2 = k1; \
             {m2, k3, z} <- <<c, v>>; m2 = m1; {k4, w} <- <<d, v>>; k4 = k3]",
        )
        .unwrap();
        (m, q)
    }

    #[test]
    fn genuinely_bushy_tree_executes_and_matches_naive() {
        let (m, q) = bushy_fixture();
        let stats = Evaluator::new(&m).explain(&q, &Env::new()).unwrap();
        assert_eq!(stats.len(), 3, "a 4-chain tree has three join nodes");
        let JoinStrategy::Bushy { tree } = &stats.last().unwrap().strategy else {
            panic!("expected a bushy plan: {stats:?}");
        };
        assert!(
            !tree.is_linear(),
            "outer-selective chain must produce a genuinely bushy tree, got {tree}"
        );
        assert_eq!(tree.leaves(), vec![0, 1, 2, 3]);
        let planned = Evaluator::new(&m).eval_closed(&q).unwrap();
        let naive = Evaluator::new(&m)
            .with_nested_loops()
            .eval_closed(&q)
            .unwrap();
        assert_eq!(
            planned.expect_bag().unwrap().items(),
            naive.expect_bag().unwrap().items(),
            "bushy execution must preserve nested-loop output order"
        );
        assert_eq!(planned.expect_bag().unwrap().len(), 16);
    }

    #[test]
    fn bushy_plans_are_cached_and_version_guarded() {
        let (mut m, q) = bushy_fixture();
        let cache = Arc::new(PlanCache::new());
        let before = Evaluator::new(&m)
            .with_plan_cache(Arc::clone(&cache))
            .eval_closed(&q)
            .unwrap();
        assert_eq!(cache.len(), 1, "the bushy plan must be stored");
        let again = Evaluator::new(&m)
            .with_plan_cache(Arc::clone(&cache))
            .eval_closed(&q)
            .unwrap();
        assert_eq!(before, again);
        assert!(
            cache.hit_count() >= 1,
            "the re-run must be served from the cache"
        );
        // Mutating the provider bumps its version; the stale bushy plan (with
        // its baked-in materialised rows) must be rebuilt, not served.
        m.insert(
            "d,v",
            Bag::from_values(
                (0..30)
                    .map(|i| Value::pair(Value::Int(i / 2), Value::str(format!("d{i}"))))
                    .collect(),
            ),
        );
        let after = Evaluator::new(&m)
            .with_plan_cache(Arc::clone(&cache))
            .eval_closed(&q)
            .unwrap();
        let naive = Evaluator::new(&m)
            .with_nested_loops()
            .eval_closed(&q)
            .unwrap();
        assert_eq!(
            after.expect_bag().unwrap().items(),
            naive.expect_bag().unwrap().items(),
            "rebuilt plan must reflect the mutated provider"
        );
        assert_ne!(before, after, "the mutation changes the answer");
    }

    #[test]
    fn bushy_bails_when_skew_betrays_the_estimate() {
        // Three extents whose join column has 21 distinct keys — but one heavy
        // bucket holds 80 of the 100 rows. The `1/max(distinct)` estimate
        // admits the tree (every node estimate is under the cap), while the
        // actual first join materialises 80·80 + 20 rows, well past it. The
        // executor's actual-count guard must abort and fall back to the
        // greedy planner; answers still match the nested-loop oracle.
        let mut m = MapExtents::new();
        for name in ["a,v", "b,v", "c,v"] {
            m.insert(
                name,
                Bag::from_values(
                    (0..100)
                        .map(|i| {
                            let key = if i < 80 { 0 } else { i - 79 };
                            Value::pair(Value::Int(key), Value::str(format!("{name}{i}")))
                        })
                        .collect(),
                ),
            );
        }
        let q = parse(
            "[{x, y, z} | {k1, x} <- <<a, v>>; {k2, y} <- <<b, v>>; k2 = k1; {k3, z} <- <<c, v>>; k3 = k2]",
        )
        .unwrap();
        let stats = Evaluator::new(&m).explain(&q, &Env::new()).unwrap();
        assert!(
            stats
                .iter()
                .all(|s| !matches!(s.strategy, JoinStrategy::Bushy { .. })),
            "skew-blown actual cardinalities must abort the bushy plan: {stats:?}"
        );
        let planned = Evaluator::new(&m).eval_closed(&q).unwrap();
        let naive = Evaluator::new(&m)
            .with_nested_loops()
            .eval_closed(&q)
            .unwrap();
        assert_eq!(
            planned.expect_bag().unwrap().items(),
            naive.expect_bag().unwrap().items()
        );
    }

    #[test]
    fn chains_past_the_dp_bound_use_the_greedy_reorder() {
        let mut m = MapExtents::new();
        for i in 0..7 {
            m.insert_pairs(
                format!("s{i},v"),
                (0..3).map(|k| (k, "w")).collect::<Vec<_>>(),
            );
        }
        let mut quals = vec!["{k0, v0} <- <<s0, v>>".to_string()];
        for i in 1..7 {
            quals.push(format!("{{k{i}, v{i}}} <- <<s{i}, v>>"));
            quals.push(format!("k{i} = k{}", i - 1));
        }
        let text = format!("[{{v0, v6}} | {}]", quals.join("; "));
        let q = parse(&text).unwrap();
        let stats = Evaluator::new(&m).explain(&q, &Env::new()).unwrap();
        assert_eq!(stats.len(), 6, "seven generators join six edges");
        assert!(
            stats.iter().all(|s| s.strategy == JoinStrategy::Multiway),
            "chains past MAX_DP_RELATIONS must use the greedy reorder: {stats:?}"
        );
        let planned = Evaluator::new(&m).eval_closed(&q).unwrap();
        let naive = Evaluator::new(&m)
            .with_nested_loops()
            .eval_closed(&q)
            .unwrap();
        assert_eq!(
            planned.expect_bag().unwrap().items(),
            naive.expect_bag().unwrap().items()
        );
    }

    #[test]
    fn step_probe_counts_match_explained_strategies() {
        let (m, q) = bushy_fixture();
        let probe = Arc::new(StepProbe::new());
        Evaluator::new(&m)
            .with_step_probe(Arc::clone(&probe))
            .eval_closed(&q)
            .unwrap();
        assert_eq!(probe.count(StepKind::BushyJoin), 1);
        assert_eq!(probe.count(StepKind::MultiJoin), 0);
        assert_eq!(probe.count(StepKind::OrderedJoin), 0);
        // Greedy leg: the same query without bushy runs a MultiJoin instead.
        let probe2 = Arc::new(StepProbe::new());
        Evaluator::new(&m)
            .without_bushy()
            .with_step_probe(Arc::clone(&probe2))
            .eval_closed(&q)
            .unwrap();
        assert_eq!(probe2.count(StepKind::BushyJoin), 0);
        assert_eq!(probe2.count(StepKind::MultiJoin), 1);
    }

    // ---------- plan caching ----------

    #[test]
    fn plan_cache_hits_on_rerun_and_skips_replanning() {
        let m = fixture();
        let cache = Arc::new(PlanCache::new());
        let ev = Evaluator::new(&m).with_plan_cache(Arc::clone(&cache));
        let q = parse(
            "[{a, o} | {k, a} <- <<protein, accession_num>>; {k2, o} <- <<protein, organism>>; k = k2]",
        )
        .unwrap();
        let first = ev.eval_closed(&q).unwrap();
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.hit_count(), 0);
        let second = ev.eval_closed(&q).unwrap();
        assert_eq!(first, second);
        assert_eq!(cache.hit_count(), 1);
        // A fresh evaluator over the same provider shares the cached plan.
        let ev2 = Evaluator::new(&m).with_plan_cache(Arc::clone(&cache));
        assert_eq!(ev2.eval_closed(&q).unwrap(), first);
        assert_eq!(cache.hit_count(), 2);
    }

    #[test]
    fn plan_cache_invalidated_by_provider_version_change() {
        let mut m = fixture();
        let cache = Arc::new(PlanCache::new());
        let q = parse(
            "[{a, o} | {k, a} <- <<protein, accession_num>>; {k2, o} <- <<protein, organism>>; k = k2]",
        )
        .unwrap();
        let before = Evaluator::new(&m)
            .with_plan_cache(Arc::clone(&cache))
            .eval_closed(&q)
            .unwrap();
        assert_eq!(before.expect_bag().unwrap().len(), 2);
        // Mutating the provider bumps its version; the stale plan must not serve.
        m.insert_pairs(
            "protein,organism",
            vec![(1, "human"), (2, "mouse"), (3, "yeast")],
        );
        let after = Evaluator::new(&m)
            .with_plan_cache(Arc::clone(&cache))
            .eval_closed(&q)
            .unwrap();
        assert_eq!(after.expect_bag().unwrap().len(), 3);
    }

    #[test]
    fn correlated_nested_comprehensions_are_cacheable_only_when_closed() {
        let m = fixture();
        let cache = Arc::new(PlanCache::new());
        let ev = Evaluator::new(&m).with_plan_cache(Arc::clone(&cache));
        // The inner comprehension's generator source mentions the outer variable k:
        // its plan bakes in no data (plain iterate + filter), so it may cache, and
        // re-running per outer row must keep per-row answers correct.
        let q = parse(
            "[{k, count [s | {k2, s} <- <<peptidehit, score>>; k2 = k]} | k <- [10, 11, 99]]",
        )
        .unwrap();
        let v = ev.eval_closed(&q).unwrap();
        let naive = Evaluator::new(&m)
            .with_nested_loops()
            .eval_closed(&q)
            .unwrap();
        assert_eq!(v, naive);
        // An env-dependent *fused* source must never be stored: craft one where the
        // join build side mentions an outer variable.
        let q2 = parse("[{k, x} | k <- <<protein>>; x <- [n | n <- [k]]; x = k]").unwrap();
        let v2 = ev.eval_closed(&q2).unwrap();
        let naive2 = Evaluator::new(&m)
            .with_nested_loops()
            .eval_closed(&q2)
            .unwrap();
        assert_eq!(v2, naive2);
    }

    #[test]
    fn plan_cache_explicit_invalidation_hook() {
        let m = fixture();
        let cache = Arc::new(PlanCache::new());
        let ev = Evaluator::new(&m).with_plan_cache(Arc::clone(&cache));
        let q = parse(
            "[{a, o} | {k, a} <- <<protein, accession_num>>; {k2, o} <- <<protein, organism>>; k = k2]",
        )
        .unwrap();
        ev.eval_closed(&q).unwrap();
        assert!(!cache.is_empty());
        cache.invalidate_all();
        assert!(cache.is_empty());
        ev.eval_closed(&q).unwrap();
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn plan_cache_respects_lru_capacity_and_never_serves_wrong_plans() {
        let m = fixture();
        let cache = Arc::new(PlanCache::with_capacity(2));
        let ev = Evaluator::new(&m).with_plan_cache(Arc::clone(&cache));
        let queries: Vec<Expr> = (1..=4)
            .map(|k| {
                parse(&format!(
                    "[x | {{k, x}} <- <<protein, accession_num>>; k = {k}]"
                ))
                .unwrap()
            })
            .collect();
        for q in &queries {
            ev.eval_closed(q).unwrap();
            assert!(cache.len() <= 2, "cache must never exceed its capacity");
        }
        assert_eq!(cache.capacity(), 2);
        assert!(cache.eviction_count() >= 2);
        // Every query still answers correctly after (and despite) evictions.
        for (i, q) in queries.iter().enumerate() {
            let v = ev.eval_closed(q).unwrap();
            let expected = if i < 3 { 1 } else { 0 }; // keys 1..3 exist, 4 doesn't
            assert_eq!(v.expect_bag().unwrap().len(), expected, "query {i}");
        }
    }

    #[test]
    fn evicted_then_refetched_plans_respect_provider_version() {
        // Fill a tiny cache so the join plan is evicted, mutate the provider,
        // then re-run: the rebuilt plan must see the new data.
        let mut m = fixture();
        let cache = Arc::new(PlanCache::with_capacity(1));
        let join = parse(
            "[{a, o} | {k, a} <- <<protein, accession_num>>; {k2, o} <- <<protein, organism>>; k = k2]",
        )
        .unwrap();
        let filler = parse("[x | {k, x} <- <<protein, accession_num>>; k = 1]").unwrap();
        let ev = Evaluator::new(&m).with_plan_cache(Arc::clone(&cache));
        assert_eq!(
            ev.eval_closed(&join).unwrap().expect_bag().unwrap().len(),
            2
        );
        ev.eval_closed(&filler).unwrap(); // evicts the join plan (capacity 1)
        assert_eq!(cache.len(), 1);
        m.insert_pairs(
            "protein,organism",
            vec![(1, "human"), (2, "mouse"), (3, "yeast")],
        );
        let ev = Evaluator::new(&m).with_plan_cache(Arc::clone(&cache));
        assert_eq!(
            ev.eval_closed(&join).unwrap().expect_bag().unwrap().len(),
            3,
            "rebuilt plan must reflect the mutated provider"
        );
    }

    #[test]
    fn explain_reports_no_joins_for_selections() {
        let m = fixture();
        let q = parse("[x | {k, x} <- <<protein, accession_num>>; k = 2]").unwrap();
        assert!(Evaluator::new(&m)
            .explain(&q, &Env::new())
            .unwrap()
            .is_empty());
    }

    #[test]
    fn parallel_fetch_reports_first_error_in_qualifier_order() {
        // Two fused sources, both unknown: the error must deterministically be the
        // textually first one, with or without parallel fetch.
        let mut fixture_one = MapExtents::new();
        fixture_one.insert_keys("keys", vec![1]);
        let q = parse(
            "[{a, b} | k <- <<keys>>; {k2, a} <- <<missing1>>; k2 = k; {k3, b} <- <<missing2>>; k3 = k]",
        )
        .unwrap();
        let parallel_err = Evaluator::new(&fixture_one).eval_closed(&q).unwrap_err();
        let sequential_err = Evaluator::new(&fixture_one)
            .without_parallel_fetch()
            .eval_closed(&q)
            .unwrap_err();
        assert_eq!(parallel_err, sequential_err);
        assert!(
            matches!(&parallel_err, EvalError::UnknownScheme(s) if s.key() == "missing1"),
            "expected missing1 first, got {parallel_err:?}"
        );
    }

    /// An append-only provider: bags only ever grow at the tail, mirroring the
    /// relational store's memoised extents. Exercises the copy-on-write
    /// maintenance paths (index refresh, histogram refresh) that
    /// [`MapExtents`] — whose inserts replace whole bags — never takes.
    struct AppendOnly {
        extents: RwLock<BTreeMap<String, Arc<Bag>>>,
        version: AtomicU64,
    }

    impl AppendOnly {
        fn new() -> Self {
            AppendOnly {
                extents: RwLock::new(BTreeMap::new()),
                version: AtomicU64::new(0),
            }
        }

        fn append_pairs(&self, key: &str, pairs: Vec<(i64, &str)>) {
            let mut guard = self.extents.write().unwrap();
            let entry = guard
                .entry(key.to_string())
                .or_insert_with(|| Arc::new(Bag::empty()));
            let bag = Arc::make_mut(entry);
            for (k, v) in pairs {
                bag.push(Value::pair(Value::Int(k), Value::str(v)));
            }
            self.version.fetch_add(1, AtomicOrdering::Relaxed);
        }
    }

    impl ExtentProvider for AppendOnly {
        fn extent(&self, scheme: &SchemeRef) -> Result<Arc<Bag>, EvalError> {
            self.extents
                .read()
                .unwrap()
                .get(&scheme.key())
                .cloned()
                .ok_or(EvalError::UnknownScheme(scheme.clone()))
        }

        fn version(&self) -> u64 {
            self.version.load(AtomicOrdering::Relaxed)
        }

        fn extents_append_only(&self) -> bool {
            true
        }
    }

    #[test]
    fn point_lookup_serves_params_and_literals_from_one_index() {
        let extents = fixture();
        let store = Arc::new(IndexStore::new());
        let ev = Evaluator::new(&extents).with_index_store(Arc::clone(&store));
        let naive = Evaluator::new(&extents).with_nested_loops();
        // Parameterised point lookup: one index, probed per binding.
        let q = parse("[x | {k, x} <- <<protein, accession_num>>; k = ?key]").unwrap();
        for key in [1, 2, 3, 7, 2] {
            let env = Env::new().with_params(crate::Params::new().with("key", key));
            let got = ev.eval(&q, &env).unwrap();
            let want = naive.eval(&q, &env).unwrap();
            assert_eq!(
                got.expect_bag().unwrap().items(),
                want.expect_bag().unwrap().items(),
                "indexed vs naive for key {key}"
            );
        }
        assert_eq!(store.build_count(), 1, "one index build for the shape");
        assert_eq!(store.hit_count(), 4, "later executions probe the index");
        // A literal filter over the same (source, pattern, var) shares the index.
        let q_lit = parse("[x | {k, x} <- <<protein, accession_num>>; 2 = k]").unwrap();
        let got = ev.eval_closed(&q_lit).unwrap();
        assert_eq!(
            got.expect_bag().unwrap().items(),
            naive
                .eval_closed(&q_lit)
                .unwrap()
                .expect_bag()
                .unwrap()
                .items()
        );
        assert_eq!(store.build_count(), 1, "literal probe reuses the index");
    }

    #[test]
    fn composite_point_lookup_preserves_order_and_multiplicity() {
        let mut m = MapExtents::new();
        // Duplicate (k, v) rows: bucket order must reproduce source order and
        // keep both copies.
        m.insert(
            "mm",
            Bag::from_values(vec![
                Value::tuple(vec![Value::Int(1), Value::str("a"), Value::str("x")]),
                Value::tuple(vec![Value::Int(2), Value::str("b"), Value::str("y")]),
                Value::tuple(vec![Value::Int(1), Value::str("a"), Value::str("z")]),
                Value::tuple(vec![Value::Int(1), Value::str("c"), Value::str("w")]),
            ]),
        );
        let q = parse("[t | {k, s, t} <- <<mm>>; k = ?k; s = 'a']").unwrap();
        let env = Env::new().with_params(crate::Params::new().with("k", 1));
        let store = Arc::new(IndexStore::new());
        let indexed = Evaluator::new(&m)
            .with_index_store(Arc::clone(&store))
            .eval(&q, &env)
            .unwrap();
        let naive = Evaluator::new(&m)
            .with_nested_loops()
            .eval(&q, &env)
            .unwrap();
        assert_eq!(
            indexed.expect_bag().unwrap().items(),
            naive.expect_bag().unwrap().items()
        );
        assert_eq!(
            indexed.expect_bag().unwrap().items(),
            &[Value::str("x"), Value::str("z")]
        );
        assert_eq!(store.build_count(), 1, "both filters fold into one index");
    }

    #[test]
    fn trailing_non_point_filters_stay_filters() {
        // Only the leading run of point filters is consumed; the `x <> 'P100'`
        // filter must still execute (and the answers must match naive).
        let extents = fixture();
        let store = Arc::new(IndexStore::new());
        let ev = Evaluator::new(&extents).with_index_store(Arc::clone(&store));
        let q = parse("[x | {k, x} <- <<protein, accession_num>>; k = ?key; x <> 'P100']").unwrap();
        for (key, expect) in [(1, 0usize), (2, 1)] {
            let env = Env::new().with_params(crate::Params::new().with("key", key));
            let got = ev.eval(&q, &env).unwrap().expect_bag().unwrap().len();
            assert_eq!(got, expect, "key {key}");
        }
        assert_eq!(store.build_count(), 1);
    }

    #[test]
    fn empty_extent_point_lookup_skips_key_evaluation() {
        // Naive evaluation never reaches the filter when the extent is empty, so
        // an unbound parameter raises no error; the index probe must agree.
        let mut m = MapExtents::new();
        m.insert("empty", Bag::empty());
        let q = parse("[x | {k, x} <- <<empty>>; k = ?missing]").unwrap();
        let store = Arc::new(IndexStore::new());
        let indexed = Evaluator::new(&m)
            .with_index_store(Arc::clone(&store))
            .eval_closed(&q)
            .unwrap();
        let naive = Evaluator::new(&m)
            .with_nested_loops()
            .eval_closed(&q)
            .unwrap();
        assert_eq!(indexed, naive);
        assert!(indexed.expect_bag().unwrap().is_empty());
        // A non-empty extent must still surface the unbound parameter.
        let q2 = parse("[x | {k, x} <- <<protein, accession_num>>; k = ?missing]").unwrap();
        let extents = fixture();
        let ev = Evaluator::new(&extents).with_index_store(Arc::new(IndexStore::new()));
        assert_eq!(
            ev.eval_closed(&q2),
            Err(EvalError::UnboundParam("missing".into()))
        );
    }

    #[test]
    fn point_lookup_requires_persistence_to_pay_off() {
        // No index store and no plan cache: building an index per evaluation
        // costs more than the scan it replaces, so the planner must not emit
        // IndexLookup steps.
        let extents = fixture();
        let q = parse("[x | {k, x} <- <<protein, accession_num>>; k = 2]").unwrap();
        let stats = Evaluator::new(&extents).explain(&q, &Env::new()).unwrap();
        assert!(stats.is_empty(), "no persistence, no index: {stats:?}");
        let stats = Evaluator::new(&extents)
            .with_index_store(Arc::new(IndexStore::new()))
            .explain(&q, &Env::new())
            .unwrap();
        assert!(
            matches!(stats.as_slice(), [s] if s.strategy == JoinStrategy::IndexLookup),
            "store attached: index lookup expected, got {stats:?}"
        );
    }

    #[test]
    fn index_refreshes_copy_on_write_on_append() {
        let provider = AppendOnly::new();
        provider.append_pairs("t,v", vec![(1, "a"), (2, "b"), (1, "c")]);
        let store = Arc::new(IndexStore::new());
        let ev = Evaluator::new(&provider).with_index_store(Arc::clone(&store));
        let q = parse("[x | {k, x} <- <<t, v>>; k = ?k]").unwrap();
        let env1 = Env::new().with_params(crate::Params::new().with("k", 1));
        let bag = ev.eval(&q, &env1).unwrap().expect_bag().unwrap();
        assert_eq!(bag.items(), &[Value::str("a"), Value::str("c")]);
        assert_eq!(store.build_count(), 1);
        // Append at the tail: the stale index must refresh from the appended
        // rows only, not rebuild — and serve the new row in source order.
        provider.append_pairs("t,v", vec![(1, "d"), (3, "e")]);
        let bag = ev.eval(&q, &env1).unwrap().expect_bag().unwrap();
        assert_eq!(
            bag.items(),
            &[Value::str("a"), Value::str("c"), Value::str("d")]
        );
        assert_eq!(store.build_count(), 1, "no full rebuild");
        assert_eq!(store.refresh_count(), 1, "one copy-on-write refresh");
        // The refreshed index serves the next version-current probe as a hit.
        let env3 = Env::new().with_params(crate::Params::new().with("k", 3));
        let bag = ev.eval(&q, &env3).unwrap().expect_bag().unwrap();
        assert_eq!(bag.items(), &[Value::str("e")]);
        assert_eq!(store.hit_count(), 1);
    }

    #[test]
    fn standing_delta_matches_full_reexecution_tail() {
        let provider = AppendOnly::new();
        provider.append_pairs("t,v", vec![(1, "a"), (2, "b"), (3, "c"), (2, "b")]);
        let ev = Evaluator::new(&provider);
        let q = parse("[x | {k, x} <- <<t, v>>; k >= 2]").unwrap();
        let env = Env::new();
        let plan = ev.standing_plan(&q, &env).unwrap().expect("maintainable");
        assert_eq!(plan.lead_scheme().key(), "t,v");
        assert_eq!(plan.touched().len(), 1);
        let initial = ev.execute_standing(&plan, &env).unwrap();
        assert_eq!(
            initial.items(),
            &[Value::str("b"), Value::str("c"), Value::str("b")]
        );
        // Append (with a duplicate and a filtered-out row), delta-evaluate just
        // the appended elements, and check against a full re-execution: the
        // delta is exactly the tail, order and multiplicity included.
        let appended = vec![
            Value::pair(Value::Int(5), Value::str("d")),
            Value::pair(Value::Int(0), Value::str("x")),
            Value::pair(Value::Int(5), Value::str("d")),
        ];
        provider.append_pairs("t,v", vec![(5, "d"), (0, "x"), (5, "d")]);
        let delta = ev.delta_standing(&plan, &appended, &env).unwrap();
        assert_eq!(delta.items(), &[Value::str("d"), Value::str("d")]);
        let full = ev.eval(&q, &env).unwrap().expect_bag().unwrap();
        let mut incremental = initial.clone();
        for v in delta.iter() {
            incremental.push(v.clone());
        }
        assert_eq!(incremental.items(), full.items());
    }

    #[test]
    fn standing_delta_probes_the_retained_hash_join_index() {
        let provider = AppendOnly::new();
        provider.append_pairs("t,v", vec![(1, "a"), (2, "b")]);
        provider.append_pairs("u,w", vec![(1, "X"), (2, "Y"), (1, "Z")]);
        let ev = Evaluator::new(&provider);
        let q = parse("[{x, y} | {k, x} <- <<t, v>>; {k2, y} <- <<u, w>>; k2 = k]").unwrap();
        let env = Env::new();
        let plan = ev.standing_plan(&q, &env).unwrap().expect("maintainable");
        assert_eq!(plan.lead_scheme().key(), "t,v");
        assert_eq!(plan.touched().len(), 2, "lead + hash-join build side");
        let initial = ev.execute_standing(&plan, &env).unwrap();
        let full0 = ev.eval(&q, &env).unwrap().expect_bag().unwrap();
        assert_eq!(initial.items(), full0.items());
        // Appending to the *lead* extent only keeps the retained build-side
        // index current: the delta probes it without rebuilding, and matches
        // the nested-loop tail (both u-matches for key 1, in extent order).
        let appended = vec![Value::pair(Value::Int(1), Value::str("c"))];
        provider.append_pairs("t,v", vec![(1, "c")]);
        let delta = ev.delta_standing(&plan, &appended, &env).unwrap();
        assert_eq!(
            delta.items(),
            &[
                Value::tuple(vec![Value::str("c"), Value::str("X")]),
                Value::tuple(vec![Value::str("c"), Value::str("Z")]),
            ]
        );
        let full = ev.eval(&q, &env).unwrap().expect_bag().unwrap();
        let mut incremental = initial.clone();
        for v in delta.iter() {
            incremental.push(v.clone());
        }
        assert_eq!(incremental.items(), full.items());
    }

    #[test]
    fn standing_delta_reruns_prefix_binds_and_filters() {
        let provider = AppendOnly::new();
        provider.append_pairs("t,v", vec![(1, "a"), (4, "b")]);
        let ev = Evaluator::new(&provider);
        let q = parse("[{c, x} | let c = 3; {k, x} <- <<t, v>>; k > c]").unwrap();
        let env = Env::new();
        let plan = ev.standing_plan(&q, &env).unwrap().expect("maintainable");
        let initial = ev.execute_standing(&plan, &env).unwrap();
        assert_eq!(
            initial.items(),
            &[Value::tuple(vec![Value::Int(3), Value::str("b")])]
        );
        let appended = vec![Value::pair(Value::Int(9), Value::str("z"))];
        provider.append_pairs("t,v", vec![(9, "z")]);
        let delta = ev.delta_standing(&plan, &appended, &env).unwrap();
        assert_eq!(
            delta.items(),
            &[Value::tuple(vec![Value::Int(3), Value::str("z")])]
        );
    }

    #[test]
    fn non_incrementalisable_shapes_get_no_standing_plan() {
        let provider = AppendOnly::new();
        provider.append_pairs("t,v", vec![(1, "a"), (2, "b")]);
        let ev = Evaluator::new(&provider);
        let env = Env::new();
        // Self-join: the lead scheme is referenced twice — appended rows would
        // have to join against themselves too, which one tail pass cannot do.
        let q = parse("[{x, y} | {k, x} <- <<t, v>>; {k2, y} <- <<t, v>>; k2 = k]").unwrap();
        assert!(ev.standing_plan(&q, &env).unwrap().is_none());
        // Aggregation wraps the comprehension in an `Apply`: must observe the
        // whole bag, not a delta.
        let q = parse("count([x | {k, x} <- <<t, v>>])").unwrap();
        assert!(ev.standing_plan(&q, &env).unwrap().is_none());
        // Computed lead source: appends to underlying schemes are not a tail
        // append of the iterated bag.
        let q = parse("[x | x <- [1, 2, 3]]").unwrap();
        assert!(ev.standing_plan(&q, &env).unwrap().is_none());
    }

    #[test]
    fn non_append_only_providers_rebuild_instead_of_refreshing() {
        // MapExtents inserts replace whole bags (prefixes are not stable), so a
        // version bump must trigger a full rebuild, never a tail refresh.
        let mut m = MapExtents::new();
        m.insert_pairs("t,v", vec![(1, "a"), (2, "b")]);
        let store = Arc::new(IndexStore::new());
        let q = parse("[x | {k, x} <- <<t, v>>; k = ?k]").unwrap();
        let env = Env::new().with_params(crate::Params::new().with("k", 1));
        {
            let ev = Evaluator::new(&m).with_index_store(Arc::clone(&store));
            ev.eval(&q, &env).unwrap();
        }
        m.insert_pairs("t,v", vec![(1, "z"), (2, "b"), (1, "a")]);
        let ev = Evaluator::new(&m).with_index_store(Arc::clone(&store));
        let bag = ev.eval(&q, &env).unwrap().expect_bag().unwrap();
        assert_eq!(bag.items(), &[Value::str("z"), Value::str("a")]);
        assert_eq!(store.build_count(), 2, "replaced bag forces a full rebuild");
        assert_eq!(store.refresh_count(), 0);
    }

    #[test]
    fn explain_and_step_probe_agree_on_index_lookup() {
        let extents = fixture();
        let store = Arc::new(IndexStore::new());
        let probe = Arc::new(StepProbe::new());
        let ev = Evaluator::new(&extents)
            .with_index_store(Arc::clone(&store))
            .with_step_probe(Arc::clone(&probe));
        let q = parse("[x | {k, x} <- <<protein, accession_num>>; k = ?key]").unwrap();
        let stats = ev.explain(&q, &Env::new()).unwrap();
        assert!(
            matches!(stats.as_slice(), [s] if s.strategy == JoinStrategy::IndexLookup),
            "explain must report the index lookup: {stats:?}"
        );
        let env = Env::new().with_params(crate::Params::new().with("key", 2));
        ev.eval(&q, &env).unwrap();
        assert_eq!(
            probe.count(StepKind::IndexLookup),
            1,
            "the explained strategy is the executed step"
        );
        assert_eq!(probe.count(StepKind::Iterate), 0);
        assert_eq!(probe.count(StepKind::Filter), 0, "filters were consumed");
    }

    /// The skewed star workload for the re-optimisation tests: `hub` has 60
    /// rows over 20 distinct keys but 41 of them share key 0 (skew the
    /// `1/max(distinct)` estimate cannot see); `probe` has 12 rows, all key 0;
    /// `wide` has 40 rows spread uniformly over the 20 keys.
    fn reopt_fixture() -> (MapExtents, Expr) {
        let mut m = MapExtents::new();
        let mut hub = Vec::new();
        for i in 0..41 {
            hub.push((0i64, if i % 2 == 0 { "h" } else { "h2" }));
        }
        for k in 1..20 {
            hub.push((k as i64, "h3"));
        }
        m.insert_pairs("hub,v", hub);
        m.insert_pairs("probe,v", (0..12).map(|_| (0i64, "p")).collect());
        m.insert_pairs("wide,v", (0..40).map(|i| (i as i64 % 20, "w")).collect());
        let q = parse(
            "[{x, y, z} | {k1, x} <- <<hub, v>>; {k2, y} <- <<probe, v>>; k2 = k1; \
             {k3, z} <- <<wide, v>>; k3 = k1]",
        )
        .unwrap();
        (m, q)
    }

    /// The positions a stats list's bushy join nodes cover, innermost first —
    /// the shape fingerprint the re-optimisation test pins.
    fn bushy_shapes(stats: &[JoinStats]) -> Vec<Vec<usize>> {
        stats
            .iter()
            .filter_map(|s| match &s.strategy {
                JoinStrategy::Bushy { tree } => Some(tree.leaves()),
                _ => None,
            })
            .collect()
    }

    fn total_actual_rows(stats: &[JoinStats]) -> usize {
        stats.iter().filter_map(|s| s.actual_output).sum()
    }

    #[test]
    fn skewed_workload_reoptimises_to_a_cheaper_tree() {
        let (m, q) = reopt_fixture();
        // The plan a fresh (cache-free) evaluator picks: the estimate trusts
        // sel(hub, probe) = 1/20, so (hub ⋈ probe) looks tiny (est 36) and is
        // joined first — but key skew makes it 492 rows.
        let initial = Evaluator::new(&m).explain(&q, &Env::new()).unwrap();
        assert_eq!(
            bushy_shapes(&initial),
            vec![vec![0, 1], vec![0, 1, 2]],
            "estimate-driven tree joins hub⋈probe first: {initial:?}"
        );

        let cache = Arc::new(PlanCache::new());
        let ev = Evaluator::new(&m).with_plan_cache(Arc::clone(&cache));
        let naive = Evaluator::new(&m).with_nested_loops();
        let want = naive.eval_closed(&q).unwrap();

        // First execution: a miss; the 13.7× underestimate on hub⋈probe is
        // recorded with the cached plan.
        let first = ev.eval_closed(&q).unwrap();
        assert_eq!(first, want);
        assert_eq!(cache.reopt_count(), 0);

        // Second execution: the feedback triggers re-enumeration with observed
        // selectivities; the cheaper (hub ⋈ wide) ⋈ probe tree wins.
        let second = ev.eval_closed(&q).unwrap();
        assert_eq!(second, want, "re-optimised plan answers identically");
        assert_eq!(cache.reopt_count(), 1, "one re-optimisation round");
        assert_eq!(cache.hit_count(), 1, "the re-opt lookup still counts a hit");
        let reopted = ev.explain(&q, &Env::new()).unwrap();
        assert_eq!(
            bushy_shapes(&reopted),
            vec![vec![0, 2], vec![0, 1, 2]],
            "observed selectivities flip the join order: {reopted:?}"
        );
        assert!(
            total_actual_rows(&reopted) < total_actual_rows(&initial),
            "new tree materialises fewer rows: {} vs {}",
            total_actual_rows(&reopted),
            total_actual_rows(&initial)
        );

        // Third execution: a plain hit — one feedback round per version, no
        // oscillation.
        ev.eval_closed(&q).unwrap();
        assert_eq!(cache.reopt_count(), 1);
    }

    #[test]
    fn reopt_keeps_the_previous_plan_when_replanning_is_not_cheaper() {
        // Uniform data: estimates are accurate, divergence stays under the
        // factor, and no re-optimisation round ever triggers.
        let m = chain_fixture();
        let q = parse(
            "[{x, y, z} | {k1, x} <- <<big, v>>; {k2, y} <- <<mid, v>>; k2 = k1; \
             {k3, z} <- <<small, v>>; k3 = k1]",
        )
        .unwrap();
        let cache = Arc::new(PlanCache::new());
        let ev = Evaluator::new(&m).with_plan_cache(Arc::clone(&cache));
        let first = ev.eval_closed(&q).unwrap();
        let second = ev.eval_closed(&q).unwrap();
        assert_eq!(first, second);
        assert_eq!(cache.reopt_count(), 0, "accurate estimates never replan");
        assert_eq!(cache.hit_count(), 1);
    }

    #[test]
    fn histograms_refresh_incrementally_on_append_only_providers() {
        let provider = AppendOnly::new();
        provider.append_pairs("l,v", (0..8).map(|i| (i as i64 % 4, "l")).collect());
        provider.append_pairs("r,v", (0..6).map(|i| (i as i64 % 3, "r")).collect());
        provider.append_pairs("m,v", (0..4).map(|i| (i as i64 % 2, "m")).collect());
        let cache = Arc::new(PlanCache::new());
        let ev = Evaluator::new(&provider).with_plan_cache(Arc::clone(&cache));
        let q = parse(
            "[{x, y, z} | {k1, x} <- <<l, v>>; {k2, y} <- <<r, v>>; k2 = k1; \
             {k3, z} <- <<m, v>>; k3 = k1]",
        )
        .unwrap();
        let naive = Evaluator::new(&provider).with_nested_loops();
        assert_eq!(ev.eval_closed(&q).unwrap(), naive.eval_closed(&q).unwrap());
        assert_eq!(cache.histogram_refresh_count(), 0);
        assert!(cache.histogram_count() > 0, "histograms persisted");
        // Append: replanning must *refresh* the stale histograms from the tail
        // rather than recount, and answers must stay correct.
        provider.append_pairs("l,v", vec![(0, "l9"), (5, "l10")]);
        assert_eq!(ev.eval_closed(&q).unwrap(), naive.eval_closed(&q).unwrap());
        assert!(
            cache.histogram_refresh_count() > 0,
            "stale histograms refreshed copy-on-write"
        );
    }
}
