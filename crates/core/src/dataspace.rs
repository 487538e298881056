//! The `Dataspace` facade.
//!
//! A [`Dataspace`] ties together everything an application needs to run the paper's
//! methodology end-to-end: the wrapped data sources, the schemas-and-transformations
//! repository, the current federated and global schemas, the view definitions that
//! make them queryable, and the effort bookkeeping. The typical lifecycle mirrors the
//! workflow of §2.3:
//!
//! 1. [`Dataspace::add_source`] for each data source (wrapping, step 1);
//! 2. [`Dataspace::federate`] — the zero-effort federated schema (step 2), which also
//!    becomes the first global schema;
//! 3. repeatedly [`Dataspace::integrate`] with an [`IntersectionSpec`] (steps 3–5),
//!    each call re-deriving the global schema;
//! 4. [`Dataspace::prepare`] + [`PreparedQuery::execute`] at any point (step 6 /
//!    data services) — or the [`Dataspace::query`] convenience wrapper for
//!    one-off, placeholder-free texts.

use crate::error::CoreError;
use crate::federated::{federate, Federation};
use crate::global::{derive_global, GlobalDerivation};
use crate::intersection::{build_intersection, IntersectionResult};
use crate::mapping::IntersectionSpec;
use crate::metrics::{EffortReport, IterationEffort};
use crate::subscriptions::{
    global_scheme_delta, DepContext, SubState, Subscription, SubscriptionRegistry,
    SubscriptionUpdate,
};
use automed::qp::evaluator::{ExtentMemo, SharedExtentCache, VirtualExtents};
use automed::wrapper::SourceRegistry;
use automed::{Repository, Schema};
use iql::eval::ExtentProvider;
use iql::lru::LruMap;
use iql::value::{Bag, Value};
use iql::{IndexStore, Params, PlanCache};
use relational::storage::{BatchCommit, StorageEngine};
use relational::store::TableDelta;
use relational::wal::{CommitLog, CompactionReport, LogRecord};
use relational::Database;
use std::collections::BTreeSet;
use std::path::Path;
use std::sync::atomic::Ordering;
use std::sync::{Arc, PoisonError, RwLock};

/// Configuration of a dataspace.
#[derive(Debug, Clone)]
pub struct DataspaceConfig {
    /// Whether redundant (covered) source objects are dropped from the global schema
    /// after each iteration — the optional step 5 choice in the paper's workflow.
    pub drop_redundant: bool,
    /// Name given to the federated schema.
    pub federated_name: String,
    /// Prefix for the global schema names (`G0`, `G1`, … per iteration).
    pub global_prefix: String,
    /// Maximum number of query plans the persistent [`PlanCache`] holds; the
    /// least recently used plan is evicted past this bound. The query-text
    /// parse memo (and, inside the plan cache, the histogram side-table) are
    /// sized from this knob too — one capacity for all per-query memos.
    pub plan_cache_capacity: usize,
    /// Maximum number of global-schema extents the shared memo holds; the least
    /// recently used extent is evicted past this bound (and recomputed on next
    /// use — eviction never affects answers).
    pub extent_cache_capacity: usize,
    /// Byte budget for the extent memo's materialised bags: eviction also
    /// weighs each memoised extent by its estimated resident bytes
    /// ([`iql::value::Bag::approx_bytes`]), so one million-row extent can't
    /// hide behind a generous entry count.
    pub extent_cache_bytes: u64,
    /// Whether residual point-equality filters (`x = ?p` / `x = literal`) in
    /// prepared queries are served by secondary hash indexes from the shared
    /// [`iql::IndexStore`] instead of per-execution extent scans. On by
    /// default; disable for the index-free differential/benchmark leg.
    pub point_lookup_indexes: bool,
    /// Maximum number of point-lookup indexes the shared [`iql::IndexStore`]
    /// holds (LRU eviction past this bound).
    pub index_cache_capacity: usize,
    /// Byte budget for the [`PlanCache`]'s materialised plan state: eviction
    /// weighs each cached plan by its estimated footprint besides counting it.
    pub plan_cache_bytes: u64,
    /// Byte budget for the [`iql::IndexStore`]'s indexes.
    pub index_cache_bytes: u64,
    /// Actual/estimated cardinality divergence factor past which a cached plan
    /// re-optimises on its next execution (see
    /// [`iql::eval::Evaluator::with_reopt_factor`]).
    pub reopt_divergence_factor: f64,
    /// Whether eligible planned comprehensions run on the vectorised columnar
    /// executor (see [`iql::eval::Evaluator::with_columnar`]). On by default;
    /// disable to force every execution onto the row-at-a-time engine — the
    /// differential oracle leg. Either way results are identical; standing
    /// subscriptions always stay on the row path.
    pub columnar: bool,
    /// Whether every append to an attached commit log ([`Dataspace::open`]) is
    /// `fsync`'d before the insert returns. Off by default: the OS page cache
    /// decides when bytes hit disk, so a crash may lose the newest batches but
    /// recovery still replays a consistent prefix (the log's checksummed
    /// framing truncates any torn tail). Turn it on when an acknowledged
    /// insert must survive power loss; `table1_durability` benches the cost.
    pub wal_fsync: bool,
}

impl Default for DataspaceConfig {
    fn default() -> Self {
        DataspaceConfig {
            drop_redundant: true,
            federated_name: "F".into(),
            global_prefix: "G".into(),
            plan_cache_capacity: iql::eval::DEFAULT_PLAN_CAPACITY,
            extent_cache_capacity: automed::qp::evaluator::DEFAULT_EXTENT_CAPACITY,
            extent_cache_bytes: automed::qp::evaluator::DEFAULT_EXTENT_BYTES,
            point_lookup_indexes: true,
            index_cache_capacity: iql::index::DEFAULT_INDEX_CAPACITY,
            plan_cache_bytes: iql::eval::DEFAULT_PLAN_CACHE_BYTES,
            index_cache_bytes: iql::index::DEFAULT_INDEX_BYTES,
            reopt_divergence_factor: iql::eval::DEFAULT_REOPT_FACTOR,
            columnar: true,
            wal_fsync: false,
        }
    }
}

/// The dataspace: sources, repository, current schemas and effort history.
///
/// Query answering keeps caches that persist **across** [`Dataspace::query`] /
/// [`Dataspace::query_all`] calls (each call hands out a fresh [`VirtualExtents`]
/// view, but the views share this state): a scheme-extent memo, so re-running
/// priority queries never recomputes a global extent; an [`iql::PlanCache`], so
/// re-runs skip comprehension planning and hash-index building entirely; and a
/// parse memo for batched re-runs. All are **bounded** — least-recently-used
/// entries are evicted past the capacities set in [`DataspaceConfig`], so a
/// long-lived dataspace serving an unbounded query stream keeps bounded memory
/// (an evicted entry is recomputed on next use, never served stale). The memos
/// invalidate when the schemas change — [`Dataspace::federate`] /
/// [`Dataspace::integrate`] bump an internal generation that clears the extent
/// memo and (folded into the provider's version stamp) retires every cached
/// plan — and when source data mutates (version stamps).
#[derive(Debug)]
pub struct Dataspace {
    registry: SourceRegistry,
    repository: Repository,
    member_names: Vec<String>,
    federation: Option<Federation>,
    intersections: Vec<IntersectionResult>,
    global: Option<GlobalDerivation>,
    effort: EffortReport,
    config: DataspaceConfig,
    /// Scheme-extent memo shared by every provider this dataspace hands out.
    extent_cache: SharedExtentCache,
    /// Plan memo shared by every provider this dataspace hands out.
    plan_cache: Arc<PlanCache>,
    /// Secondary point-lookup indexes shared by every provider this dataspace
    /// hands out (see [`iql::IndexStore`]).
    index_store: Arc<IndexStore>,
    /// Bounded query-text → parsed-query memo: pay-as-you-go workloads re-run
    /// the same priority-query set after every iteration, so re-issued texts —
    /// through [`Dataspace::prepare`], [`Dataspace::query`],
    /// [`Dataspace::query_all`] and friends — skip the parser *and* the
    /// placeholder-set walk. Pure syntax, so entries never go stale.
    parse_cache: RwLock<LruMap<String, ParsedQuery>>,
    /// Bumped whenever the queryable definitions change; folded into the provider
    /// version so stale plans can never serve.
    generation: u64,
    /// Standing subscriptions maintained across [`Dataspace::insert`] /
    /// [`Dataspace::insert_many`] (see [`crate::subscriptions`]).
    subscriptions: SubscriptionRegistry,
    /// Execution-engine counters shared by every provider this dataspace hands
    /// out (columnar completions and row-engine fallbacks; see
    /// [`iql::EngineStats`]).
    engine_stats: Arc<iql::EngineStats>,
    /// The attached durable commit log, if any (see [`Dataspace::open`]):
    /// every committed batch is appended as one [`LogRecord`].
    wal: Option<CommitLog>,
    /// Committed batches appended to the attached log over this dataspace's
    /// lifetime (recovery replays excluded).
    wal_appends: u64,
    /// Batches replayed from the log by [`Dataspace::open`].
    recovery_replays: u64,
}

impl Default for Dataspace {
    fn default() -> Self {
        Self::new()
    }
}

impl Dataspace {
    /// A dataspace with the default configuration.
    pub fn new() -> Self {
        Dataspace::with_config(DataspaceConfig::default())
    }

    /// A dataspace with a custom configuration.
    pub fn with_config(config: DataspaceConfig) -> Self {
        let extent_cache = Arc::new(ExtentMemo::with_capacity_and_bytes(
            config.extent_cache_capacity,
            config.extent_cache_bytes,
        ));
        let plan_cache = Arc::new(PlanCache::with_capacity_and_bytes(
            config.plan_cache_capacity,
            config.plan_cache_bytes,
        ));
        let index_store = Arc::new(IndexStore::with_capacity_and_bytes(
            config.index_cache_capacity,
            config.index_cache_bytes,
        ));
        let parse_cache = RwLock::new(LruMap::new(config.plan_cache_capacity));
        Dataspace {
            registry: SourceRegistry::new(),
            repository: Repository::new(),
            member_names: Vec::new(),
            federation: None,
            intersections: Vec::new(),
            global: None,
            effort: EffortReport::default(),
            config,
            extent_cache,
            plan_cache,
            index_store,
            parse_cache,
            generation: 0,
            subscriptions: SubscriptionRegistry::default(),
            engine_stats: Arc::new(iql::EngineStats::new()),
            wal: None,
            wal_appends: 0,
            recovery_replays: 0,
        }
    }

    /// Parse through the bounded parse memo: batch re-runs of the same query
    /// text skip the parser and the placeholder-set walk (syntax only — never
    /// invalidated by schema changes). Re-preparing a memoised text is three
    /// `Arc` bumps, no allocation or AST traversal.
    fn parse_cached(&self, query: &str) -> Result<ParsedQuery, CoreError> {
        if let Some(parsed) = self
            .parse_cache
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .get(query)
        {
            return Ok(parsed.clone());
        }
        let expr = Arc::new(iql::parse(query)?);
        let parsed = ParsedQuery {
            text: Arc::from(query),
            params: Arc::new(iql::rewrite::collect_params(&expr)),
            expr,
        };
        self.parse_cache
            .write()
            .unwrap_or_else(PoisonError::into_inner)
            .insert(query.to_string(), parsed.clone());
        Ok(parsed)
    }

    /// The queryable definitions changed: advance the generation so every cached
    /// plan goes stale (the provider version moves, which also makes the
    /// version-stamped extent memo clear itself) and clear the memo eagerly.
    fn bump_generation(&mut self) {
        self.generation += 1;
        self.extent_cache.clear();
    }

    /// The shared plan cache backing [`Dataspace::query`] (hit/miss counters and the
    /// explicit invalidation hook live on it).
    pub fn plan_cache(&self) -> &Arc<PlanCache> {
        &self.plan_cache
    }

    /// The shared secondary point-lookup index store backing prepared
    /// point-query execution (hit/miss/build counters and the explicit
    /// invalidation hook live on it).
    pub fn index_store(&self) -> &Arc<IndexStore> {
        &self.index_store
    }

    /// Number of global-schema extents currently memoised across queries.
    pub fn cached_extent_count(&self) -> usize {
        self.extent_cache.len()
    }

    /// Wrap and register a data source (workflow step 1). Must be called before
    /// [`Dataspace::federate`].
    pub fn add_source(&mut self, database: Database) -> Result<&Schema, CoreError> {
        if self.federation.is_some() {
            return Err(CoreError::WorkflowOrder(
                "sources must be added before federating".into(),
            ));
        }
        let schema = self.registry.add_source(database)?;
        let name = schema.name.clone();
        self.repository.add_source_schema(schema)?;
        self.member_names.push(name.clone());
        self.repository.schema(&name).map_err(CoreError::from)
    }

    /// Build the federated schema over all registered sources (workflow step 2). The
    /// federated schema doubles as the first version of the global schema and costs no
    /// manual effort.
    pub fn federate(&mut self) -> Result<&Schema, CoreError> {
        if self.member_names.is_empty() {
            return Err(CoreError::WorkflowOrder("no sources to federate".into()));
        }
        if self.federation.is_some() {
            return Err(CoreError::WorkflowOrder("already federated".into()));
        }
        let members: Vec<&Schema> = self
            .member_names
            .iter()
            .map(|n| self.repository.schema(n))
            .collect::<Result<_, _>>()?;
        let federation = federate(&self.config.federated_name, members)?;
        self.repository.put_schema(federation.schema.clone());
        self.federation = Some(federation);
        self.rederive_global()?;
        self.bump_generation();
        self.refresh_subscriptions();
        let size = self.global_schema()?.len();
        self.effort.iterations.push(IterationEffort {
            iteration: 0,
            label: "federation".into(),
            manual_transformations: 0,
            auto_transformations: 0,
            cumulative_manual: 0,
            global_schema_size: size,
        });
        self.federated_schema()
    }

    /// Run one iteration of the integration workflow (steps 3–5): build the
    /// intersection schema described by `spec`, register its pathways, and re-derive
    /// the global schema.
    pub fn integrate(&mut self, spec: IntersectionSpec) -> Result<IterationEffort, CoreError> {
        if self.federation.is_none() {
            return Err(CoreError::WorkflowOrder(
                "federate() must be called before integrate()".into(),
            ));
        }
        let result = build_intersection(&spec, &self.repository)?;
        // Register the intersection schema and its pathways in the repository.
        self.repository.put_schema(result.schema.clone());
        for pathway in &result.pathways {
            self.repository.add_pathway_unchecked(pathway.clone());
        }
        self.intersections.push(result);
        self.rederive_global()?;
        self.bump_generation();
        self.refresh_subscriptions();

        let latest = self.intersections.last().expect("just pushed");
        let cumulative = self.effort.total_manual() + latest.manual_transformations;
        let record = IterationEffort {
            iteration: self.effort.iterations.len(),
            label: spec.name.clone(),
            manual_transformations: latest.manual_transformations,
            auto_transformations: latest.auto_transformations,
            cumulative_manual: cumulative,
            global_schema_size: self.global_schema()?.len(),
        };
        self.effort.iterations.push(record.clone());
        Ok(record)
    }

    fn rederive_global(&mut self) -> Result<(), CoreError> {
        let members: Vec<&Schema> = self
            .member_names
            .iter()
            .map(|n| self.repository.schema(n))
            .collect::<Result<_, _>>()?;
        let intersections: Vec<&IntersectionResult> = self.intersections.iter().collect();
        let name = format!("{}{}", self.config.global_prefix, self.intersections.len());
        let derivation =
            derive_global(&name, &members, &intersections, self.config.drop_redundant)?;
        self.repository.put_schema(derivation.schema.clone());
        self.global = Some(derivation);
        Ok(())
    }

    /// The current federated schema.
    pub fn federated_schema(&self) -> Result<&Schema, CoreError> {
        self.federation
            .as_ref()
            .map(|f| &f.schema)
            .ok_or_else(|| CoreError::WorkflowOrder("not federated yet".into()))
    }

    /// The current global schema.
    pub fn global_schema(&self) -> Result<&Schema, CoreError> {
        self.global
            .as_ref()
            .map(|g| &g.schema)
            .ok_or_else(|| CoreError::WorkflowOrder("no global schema yet".into()))
    }

    /// An extent provider answering queries over the current global schema. All
    /// providers handed out share the dataspace's persistent extent memo and plan
    /// cache, so repeated queries skip both extent computation and planning.
    pub fn provider(&self) -> Result<VirtualExtents<'_>, CoreError> {
        let global = self
            .global
            .as_ref()
            .ok_or_else(|| CoreError::WorkflowOrder("no global schema yet".into()))?;
        let mut provider = VirtualExtents::new(&self.registry, &global.definitions)
            .with_shared_cache(Arc::clone(&self.extent_cache))
            .with_plan_cache(Arc::clone(&self.plan_cache))
            .with_reopt_factor(self.config.reopt_divergence_factor)
            .with_version_salt(self.generation)
            .with_engine_stats(Arc::clone(&self.engine_stats));
        if !self.config.columnar {
            provider = provider.without_columnar();
        }
        Ok(if self.config.point_lookup_indexes {
            provider.with_index_store(Arc::clone(&self.index_store))
        } else {
            provider.without_index()
        })
    }

    /// Prepare a query for repeated execution: parse it once (through the same
    /// bounded memo every string entry point shares) and record its `?name`
    /// placeholder set. The returned [`PreparedQuery`] executes under
    /// [`Params`] binding sets — **one plan per query shape**: because the
    /// parameterised expression is identical across bindings, every execution
    /// after the first is a [`PlanCache`] hit, where literal-splicing query
    /// text replans per value (and breaks outright on values containing `'`).
    ///
    /// ```
    /// use dataspace_core::dataspace::Dataspace;
    /// use iql::Params;
    /// use relational::schema::{DataType, RelColumn, RelSchema, RelTable};
    /// use relational::Database;
    ///
    /// let mut schema = RelSchema::new("pedro");
    /// schema
    ///     .add_table(
    ///         RelTable::new("protein")
    ///             .with_column(RelColumn::new("id", DataType::Int))
    ///             .with_column(RelColumn::new("accession_num", DataType::Text))
    ///             .with_primary_key(["id"]),
    ///     )
    ///     .unwrap();
    /// let mut db = Database::new(schema);
    /// db.insert("protein", vec![1.into(), "ACC1".into()]).unwrap();
    /// db.insert("protein", vec![2.into(), "ACC2".into()]).unwrap();
    ///
    /// let mut ds = Dataspace::new();
    /// ds.add_source(db).unwrap();
    /// ds.federate().unwrap();
    ///
    /// let q = ds
    ///     .prepare("[k | {k, x} <- <<PEDRO_protein, PEDRO_accession_num>>; x = ?acc]")
    ///     .unwrap();
    /// let hit = q.execute(&Params::new().with("acc", "ACC2")).unwrap();
    /// assert_eq!(hit.len(), 1);
    /// let miss = q.execute(&Params::new().with("acc", "it's-not-there")).unwrap();
    /// assert_eq!(miss.len(), 0); // quotes in values are safe: no text splicing
    /// ```
    pub fn prepare(&self, query: &str) -> Result<PreparedQuery<'_>, CoreError> {
        Ok(PreparedQuery {
            dataspace: self,
            parsed: self.parse_cached(query)?,
        })
    }

    /// Parse and answer an IQL query over the current global schema, expecting a bag
    /// result. A thin convenience wrapper over [`Dataspace::prepare`] +
    /// [`PreparedQuery::execute`] with no parameter bindings; queries that
    /// contain `?name` placeholders must go through [`Dataspace::prepare`].
    pub fn query(&self, query: &str) -> Result<Bag, CoreError> {
        self.prepare(query)?.execute(&Params::new())
    }

    /// Answer a batch of independent IQL queries concurrently, returning one
    /// result per query **in input order**.
    ///
    /// This is the pay-as-you-go fast path: the paper's workload re-runs a set of
    /// priority queries after every integration iteration, and those queries are
    /// independent of each other. Each query gets its own provider view, but all
    /// views share the dataspace's persistent extent memo and plan cache, so
    /// concurrent queries touching the same global extents compute them once.
    /// Worker threads come out of the process-wide [`iql::FetchPool`] budget —
    /// batching never oversubscribes the machine, and with no permits available
    /// the batch degrades gracefully to a sequential loop.
    ///
    /// Equivalence with the sequential loop (`queries.iter().map(|q|
    /// ds.query(q))`), per item and in order, is locked in by the differential
    /// test suite.
    ///
    /// ```
    /// use dataspace_core::dataspace::Dataspace;
    /// use relational::schema::{DataType, RelColumn, RelSchema, RelTable};
    /// use relational::Database;
    ///
    /// let mut schema = RelSchema::new("pedro");
    /// schema
    ///     .add_table(
    ///         RelTable::new("protein")
    ///             .with_column(RelColumn::new("id", DataType::Int))
    ///             .with_column(RelColumn::new("accession_num", DataType::Text))
    ///             .with_primary_key(["id"]),
    ///     )
    ///     .unwrap();
    /// let mut db = Database::new(schema);
    /// db.insert("protein", vec![1.into(), "ACC1".into()]).unwrap();
    /// db.insert("protein", vec![2.into(), "ACC2".into()]).unwrap();
    ///
    /// let mut ds = Dataspace::new();
    /// ds.add_source(db).unwrap();
    /// ds.federate().unwrap();
    ///
    /// let results = ds.query_all(&[
    ///     "[k | k <- <<PEDRO_protein>>]",
    ///     "[x | {k, x} <- <<PEDRO_protein, PEDRO_accession_num>>; k = 2]",
    /// ]);
    /// assert_eq!(results.len(), 2);
    /// assert_eq!(results[0].as_ref().unwrap().len(), 2);
    /// assert_eq!(results[1].as_ref().unwrap().len(), 1);
    /// ```
    pub fn query_all(&self, queries: &[&str]) -> Vec<Result<Bag, CoreError>> {
        // Validate against the empty binding set, so a placeholder-bearing
        // text reports the same typed `UnboundParam` error here as it does
        // through `query` or `execute`.
        let no_params = Params::new();
        let items = queries.iter().map(|q| (*q, &no_params)).collect::<Vec<_>>();
        self.query_all_bound(&items)
    }

    /// Answer a batch of (query text, parameter binding) pairs concurrently,
    /// one result per pair **in input order** — the batched entry point for
    /// workloads whose queries carry bindings (e.g. re-running the case
    /// study's seven parameterised priority queries after an integration
    /// iteration). Rides the same [`iql::FetchPool`] fan-out as
    /// [`Dataspace::query_all`]; per-item preparation or validation errors
    /// surface in that item's slot without failing the batch.
    pub fn query_all_bound(&self, queries: &[(&str, &Params)]) -> Vec<Result<Bag, CoreError>> {
        let items = queries
            .iter()
            .map(
                |(q, params)| -> Result<(Arc<iql::Expr>, Params), CoreError> {
                    let prepared = self.prepare(q)?;
                    prepared.validate(params)?;
                    Ok((prepared.parsed.expr, (*params).clone()))
                },
            )
            .collect();
        self.answer_bound_batch(items)
    }

    /// The shared batch executor behind [`Dataspace::query_all`],
    /// [`Dataspace::query_all_bound`] and [`PreparedQuery::execute_all`]: each
    /// item is an already-parsed expression plus the parameter bindings to
    /// execute it under (or the per-item error to report). Worker threads come
    /// out of the process-wide [`iql::FetchPool`] budget — batching never
    /// oversubscribes the machine, and with no permits available the batch
    /// degrades gracefully to a sequential loop.
    #[allow(clippy::type_complexity)]
    fn answer_bound_batch(
        &self,
        items: Vec<Result<(Arc<iql::Expr>, Params), CoreError>>,
    ) -> Vec<Result<Bag, CoreError>> {
        if items.is_empty() {
            return Vec::new();
        }
        let provider = match self.provider() {
            Ok(p) => p,
            Err(e) => return items.iter().map(|_| Err(e.clone())).collect(),
        };
        type Item = Result<(Arc<iql::Expr>, Params), CoreError>;
        let answer = |provider: &VirtualExtents<'_>, item: &Item| match item {
            Ok((expr, params)) => Ok(provider.answer_bag_with(expr, params)?),
            Err(e) => Err(e.clone()),
        };
        // Fan out only when the machine can actually run workers alongside the
        // caller; a single-core host answers the whole batch inline (still
        // amortising parse + provider setup over the batch).
        let mut permits = if items.len() >= 2 && iql::FetchPool::global().capacity() >= 2 {
            iql::FetchPool::global().acquire_up_to(items.len() - 1)
        } else {
            iql::FetchPool::global().acquire_up_to(0)
        };
        if permits.count() == 0 {
            return items.iter().map(|e| answer(&provider, e)).collect();
        }
        let workers = permits.count() + 1; // the calling thread takes a share too
        let chunk = items.len().div_ceil(workers);
        // Ceil-division may need fewer chunks than workers: return the surplus
        // permits instead of stranding them for the fan-out.
        permits.truncate(items.len().div_ceil(chunk) - 1);
        std::thread::scope(|scope| {
            let mut chunks = items.chunks(chunk);
            let caller_share = chunks.next().unwrap_or(&[]);
            let handles: Vec<_> = chunks
                .map(|slice| {
                    scope.spawn(|| {
                        // One provider per worker: all of them share the
                        // dataspace's extent memo and plan cache.
                        let p = match self.provider() {
                            Ok(p) => p,
                            Err(e) => return slice.iter().map(|_| Err(e.clone())).collect(),
                        };
                        slice.iter().map(|e| answer(&p, e)).collect::<Vec<_>>()
                    })
                })
                .collect();
            let mut results: Vec<Result<Bag, CoreError>> =
                caller_share.iter().map(|e| answer(&provider, e)).collect();
            for handle in handles {
                results.extend(handle.join().expect("batched query worker panicked"));
            }
            results
        })
    }

    /// Parse and answer an IQL query over the current global schema, returning any
    /// value (useful for aggregates). A thin wrapper over [`Dataspace::prepare`] +
    /// [`PreparedQuery::execute_value`] with no parameter bindings.
    pub fn query_value(&self, query: &str) -> Result<Value, CoreError> {
        self.prepare(query)?.execute_value(&Params::new())
    }

    /// Answer an already-parsed query.
    pub fn query_expr(&self, query: &iql::Expr) -> Result<Value, CoreError> {
        Ok(self.provider()?.answer(query)?)
    }

    /// Whether a query can currently be answered (parses, reformulates and evaluates
    /// without error). Used to build pay-as-you-go curves. Queries with `?name`
    /// placeholders need bindings — use [`Dataspace::can_answer_with`].
    pub fn can_answer(&self, query: &str) -> bool {
        self.can_answer_with(query, &Params::new())
    }

    /// Whether a parameterised query can currently be answered under the given
    /// bindings (prepares, validates, reformulates and evaluates without error).
    pub fn can_answer_with(&self, query: &str, params: &Params) -> bool {
        self.prepare(query)
            .and_then(|q| q.execute_value(params))
            .is_ok()
    }

    /// Names of the registered member (source) schemas.
    pub fn source_names(&self) -> &[String] {
        &self.member_names
    }

    /// The intersections built so far.
    pub fn intersections(&self) -> &[IntersectionResult] {
        &self.intersections
    }

    /// The effort history.
    pub fn effort_report(&self) -> &EffortReport {
        &self.effort
    }

    /// The schemas-and-transformations repository.
    pub fn repository(&self) -> &Repository {
        &self.repository
    }

    /// The source registry.
    pub fn registry(&self) -> &SourceRegistry {
        &self.registry
    }

    /// The federated schemes dropped as redundant in the latest global derivation.
    pub fn dropped_redundant(&self) -> &[iql::ast::SchemeRef] {
        self.global
            .as_ref()
            .map(|g| g.dropped_redundant.as_slice())
            .unwrap_or(&[])
    }

    /// A point-in-time snapshot of the dataspace's caching and concurrency
    /// machinery — the observability hook for asserting (in tests) and
    /// monitoring (in services) that the pay-as-you-go workload actually hits
    /// its caches: re-executing a prepared query under a *different* binding
    /// must be a plan-cache hit, not a replan.
    pub fn stats(&self) -> DataspaceStats {
        DataspaceStats {
            plan_cache_hits: self.plan_cache.hit_count(),
            plan_cache_misses: self.plan_cache.miss_count(),
            plan_cache_evictions: self.plan_cache.eviction_count(),
            plan_cache_len: self.plan_cache.len(),
            plan_cache_capacity: self.plan_cache.capacity(),
            plan_reopts: self.plan_cache.reopt_count(),
            histogram_refreshes: self.plan_cache.histogram_refresh_count(),
            index_hits: self.index_store.hit_count(),
            index_misses: self.index_store.miss_count(),
            index_builds: self.index_store.build_count(),
            index_refreshes: self.index_store.refresh_count(),
            index_evictions: self.index_store.eviction_count(),
            index_len: self.index_store.len(),
            extent_memo_len: self.extent_cache.len(),
            extent_memo_evictions: self.extent_cache.eviction_count(),
            parse_memo_len: self
                .parse_cache
                .read()
                .unwrap_or_else(PoisonError::into_inner)
                .len(),
            fetch_pool_capacity: iql::FetchPool::global().capacity(),
            subscriptions: self.subscriptions.live_count(),
            delta_evals: self.subscriptions.delta_eval_count(),
            fallback_reexecs: self.subscriptions.fallback_reexec_count(),
            columnar_execs: self.engine_stats.columnar_execs(),
            row_fallbacks: self.engine_stats.row_fallbacks(),
            snapshots_active: self
                .member_names
                .iter()
                .filter_map(|n| self.registry.database(n).ok())
                .map(StorageEngine::snapshots_active)
                .sum(),
            wal_appends: self.wal_appends,
            recovery_replays: self.recovery_replays,
        }
    }

    /// Pin the latest committed MVCC snapshot of every member source for
    /// reading. Holding the returned pins keeps each source's snapshot
    /// reference counted — [`DataspaceStats::snapshots_active`] counts them —
    /// which is how a service layer marks "a request/stream is reading right
    /// now" without holding any dataspace lock across its lifetime. The pins
    /// release on drop.
    pub fn pin_snapshots(&self) -> Vec<relational::Snapshot> {
        self.member_names
            .iter()
            .filter_map(|n| self.registry.database(n).ok())
            .map(StorageEngine::begin_snapshot)
            .collect()
    }

    /// Register a standing subscription on a prepared query: the query is
    /// executed once to seed [`Subscription::result`], and from then on every
    /// [`Dataspace::insert`] / [`Dataspace::insert_many`] that can affect it
    /// keeps the result current — incrementally, by evaluating just the new
    /// rows' contribution against the cached standing plan, whenever the
    /// query's shape and the insert's footprint allow it (see
    /// [`crate::subscriptions`] for the exact conditions), and by transparent
    /// re-execution otherwise.
    ///
    /// The returned handle is independent of the dataspace borrow: it can be
    /// cloned, sent to another thread, and read while the dataspace itself is
    /// behind a lock. Dropping every handle unregisters the subscription (the
    /// registry prunes dead entries lazily).
    pub fn subscribe(
        &self,
        query: &PreparedQuery<'_>,
        params: &Params,
    ) -> Result<Subscription, CoreError> {
        query.validate(params)?;
        let state = Arc::new(SubState::new(
            Arc::clone(&query.parsed.expr),
            params.clone(),
        ));
        self.resync_subscription(&state, false)?;
        let deps = SubState::flat_deps(&state.lock());
        self.subscriptions.register(&state, deps.as_ref());
        Ok(Subscription::from_state(state))
    }

    /// Insert one row into a wrapped source table, keeping every affected
    /// subscription current. Equivalent to a one-row
    /// [`Dataspace::insert_many`].
    pub fn insert(&mut self, source: &str, table: &str, row: Vec<Value>) -> Result<(), CoreError> {
        self.insert_many(source, table, vec![row])
    }

    /// Insert a batch of rows into a wrapped source table (atomically, with
    /// one version bump — see [`Database::insert_many`]), then bring every
    /// affected subscription up to date. Subscriptions whose standing plan is
    /// led by the inserted table's (sole changed) global extent are maintained
    /// incrementally from the appended rows alone; the rest transparently
    /// re-execute. Subscription maintenance never fails the insert itself.
    pub fn insert_many(
        &mut self,
        source: &str,
        table: &str,
        rows: Vec<Vec<Value>>,
    ) -> Result<(), CoreError> {
        self.apply_batch(source, table, rows, true)
    }

    /// The shared commit path: validate and apply the batch as one storage
    /// commit, append it to the attached commit log (unless this *is* a replay
    /// — `log: false`), and fan the delta out to subscriptions. The pre/post
    /// stamps subscriptions sync on derive from the [`BatchCommit`] — i.e.
    /// from inside the storage engine's critical section — not from a provider
    /// snapshot taken before the write (see [`Dataspace::notify_subscriptions`]).
    fn apply_batch(
        &mut self,
        source: &str,
        table: &str,
        rows: Vec<Vec<Value>>,
        log: bool,
    ) -> Result<(), CoreError> {
        // Clone the raw rows for the log record up front (cheap: values are
        // `Arc`-backed scalars); the commit consumes the originals.
        let logged = (log && self.wal.is_some()).then(|| rows.clone());
        let commit = self
            .registry
            .database_mut(source)?
            .commit_batch(table, rows)?;
        if !commit.appended() {
            // Empty batch: the snapshot did not move, nothing to log, and no
            // subscription may be touched (no update pushed, no
            // delta-eligibility stamp burned).
            return Ok(());
        }
        if let (Some(rows), Some(wal)) = (logged, self.wal.as_mut()) {
            wal.append(&LogRecord {
                snapshot: commit.post_snapshot,
                source: source.to_string(),
                table: table.to_string(),
                rows,
            })
            .map_err(|e| CoreError::Storage(format!("commit-log append failed: {e}")))?;
            self.wal_appends += 1;
        }
        self.notify_subscriptions(source, &commit);
        Ok(())
    }

    /// Attach the durable commit log at `path`, replaying any existing records
    /// first: each logged batch re-runs through the normal validated insert
    /// path ([`Dataspace::insert_many`] semantics — same checks, same extent
    /// and cache maintenance, same subscription fan-out), so after `open`
    /// returns the dataspace answers exactly as the one that wrote the log,
    /// and standing subscriptions registered before the call are re-armed at
    /// the recovered snapshot. From then on every committed batch is appended
    /// to the log (`fsync` per [`DataspaceConfig::wal_fsync`]).
    ///
    /// Call it after registering the same sources (and deriving the same
    /// schemas) as the dataspace that wrote the log — the log records data,
    /// not schema. A torn or corrupt tail (crash mid-append) is truncated
    /// away and reported, never replayed.
    ///
    /// ```
    /// use dataspace_core::dataspace::Dataspace;
    /// use relational::schema::{DataType, RelColumn, RelSchema, RelTable};
    /// use relational::Database;
    ///
    /// let path = std::env::temp_dir().join(format!("dataspace-doc-{}.wal", std::process::id()));
    /// # std::fs::remove_file(&path).ok();
    /// let schema = {
    ///     let mut s = RelSchema::new("pedro");
    ///     s.add_table(
    ///         RelTable::new("protein")
    ///             .with_column(RelColumn::new("id", DataType::Int))
    ///             .with_column(RelColumn::new("accession_num", DataType::Text))
    ///             .with_primary_key(["id"]),
    ///     )
    ///     .unwrap();
    ///     s
    /// };
    ///
    /// // First life: attach an empty log, write through it, then "crash".
    /// let mut ds = Dataspace::new();
    /// ds.add_source(Database::new(schema.clone())).unwrap();
    /// ds.federate().unwrap();
    /// ds.open(&path).unwrap();
    /// ds.insert("pedro", "protein", vec![1.into(), "ACC1".into()]).unwrap();
    /// ds.insert("pedro", "protein", vec![2.into(), "ACC2".into()]).unwrap();
    /// drop(ds);
    ///
    /// // Second life: same source and schemas, then replay the log.
    /// let mut ds = Dataspace::new();
    /// ds.add_source(Database::new(schema)).unwrap();
    /// ds.federate().unwrap();
    /// let report = ds.open(&path).unwrap();
    /// assert_eq!((report.batches_replayed, report.rows_replayed), (2, 2));
    /// let n = ds.query_value("count <<PEDRO_protein>>").unwrap();
    /// assert_eq!(n, iql::Value::Int(2));
    /// # std::fs::remove_file(&path).ok();
    /// ```
    pub fn open(&mut self, path: impl AsRef<Path>) -> Result<RecoveryReport, CoreError> {
        if self.wal.is_some() {
            return Err(CoreError::WorkflowOrder(
                "a commit log is already attached to this dataspace".into(),
            ));
        }
        let recovered = CommitLog::open(path.as_ref(), self.config.wal_fsync)
            .map_err(|e| CoreError::Storage(format!("commit-log open failed: {e}")))?;
        let mut report = RecoveryReport {
            batches_replayed: 0,
            rows_replayed: 0,
            truncated_bytes: recovered.truncated_bytes,
        };
        for record in recovered.records {
            let rows = record.rows.len() as u64;
            self.apply_batch(&record.source, &record.table, record.rows, false)
                .map_err(|e| {
                    CoreError::Storage(format!(
                        "commit-log replay failed for `{}.{}` (was the dataspace \
                         rebuilt with the same sources and schemas?): {e}",
                        record.source, record.table
                    ))
                })?;
            self.recovery_replays += 1;
            report.batches_replayed += 1;
            report.rows_replayed += rows;
        }
        self.wal = Some(recovered.log);
        Ok(report)
    }

    /// Compact the attached commit log: merge its records into one batch per
    /// (source, table) — replaying the compacted log rebuilds the same
    /// dataspace, the file just stops growing with history — and fsync the
    /// result (a durability point even with [`DataspaceConfig::wal_fsync`]
    /// off). Errors if no log is attached.
    pub fn checkpoint(&mut self) -> Result<CompactionReport, CoreError> {
        let Some(wal) = self.wal.as_mut() else {
            return Err(CoreError::WorkflowOrder(
                "no commit log attached; call Dataspace::open first".into(),
            ));
        };
        wal.compact()
            .map_err(|e| CoreError::Storage(format!("commit-log compaction failed: {e}")))
    }

    /// (Re-)execute a subscription's query from scratch and reset its
    /// incremental state: standing plan, synced version stamp and per-scheme
    /// source dependencies. With `push_refresh`, the new result is also pushed
    /// as a [`SubscriptionUpdate::Refreshed`] (initial seeding skips the push:
    /// the first result is a baseline, not an update).
    fn resync_subscription(&self, state: &SubState, push_refresh: bool) -> Result<(), CoreError> {
        let provider = self.provider()?;
        let version = ExtentProvider::version(&provider);
        let standing = provider.standing_plan(&state.expr, &state.params)?;
        let global = self
            .global
            .as_ref()
            .expect("provider() implies a global schema");
        let ctx = DepContext {
            definitions: &global.definitions,
            registry: &self.registry,
        };
        let (result, touched) = match &standing {
            Some(plan) => (
                Value::Bag(provider.execute_standing(plan, &state.params)?),
                plan.touched().clone(),
            ),
            None => (
                provider.answer_with(&state.expr, &state.params)?,
                iql::rewrite::collect_schemes(&state.expr),
            ),
        };
        let scheme_deps = touched
            .iter()
            .map(|s| (s.key(), ctx.scheme_deps(s)))
            .collect();
        let mut inner = state.lock();
        inner.result = result.clone();
        inner.standing = standing;
        inner.synced = Some(version);
        inner.scheme_deps = scheme_deps;
        if push_refresh {
            inner.queue(SubscriptionUpdate::Refreshed(result));
        }
        Ok(())
    }

    /// Fan a commit's [`TableDelta`] out to the subscriptions indexed under
    /// `(source, table)`: each either takes the incremental path
    /// ([`Dataspace::apply_insert`]) or falls back to re-execution. A
    /// subscription whose fallback re-execution itself fails is marked stale
    /// (`synced = None`) and retried on the next affecting insert.
    ///
    /// The pre-commit provider stamp subscriptions compare their `synced`
    /// stamp against is **derived from the commit itself**, not read from a
    /// provider before the write: the provider version is the sum of the
    /// source snapshot ids (plus a constant generation salt), and this commit
    /// moved exactly one source by `post_snapshot - pre_snapshot`, so
    /// subtracting that distance from the post-commit provider version
    /// reconstructs the exact pre-commit stamp. A writer that raced its way
    /// between a pre-read and the apply can therefore never make
    /// `synced == pre_version` misjudge delta-eligibility (the old
    /// read-then-apply order could — see the regression test in
    /// `tests/subscriptions.rs`).
    fn notify_subscriptions(&self, source: &str, commit: &BatchCommit) {
        let delta = &commit.delta;
        let live = self.subscriptions.all_live();
        if live.is_empty() {
            return;
        }
        let affected = self.subscriptions.affected(source, &delta.table);
        let Ok(provider) = self.provider() else {
            return;
        };
        let post_version = ExtentProvider::version(&provider);
        let pre_version =
            post_version.wrapping_sub(commit.post_snapshot.wrapping_sub(commit.pre_snapshot));
        let global = self
            .global
            .as_ref()
            .expect("provider() implies a global schema");
        let ctx = DepContext {
            definitions: &global.definitions,
            registry: &self.registry,
        };
        for state in live {
            if !affected.iter().any(|a| Arc::ptr_eq(a, &state)) {
                // The dependency index proves this insert cannot change any
                // extent the query touches: just advance the version stamp so
                // the standing plan survives for the next affecting insert.
                let mut inner = state.lock();
                if inner.synced == Some(pre_version) {
                    inner.synced = Some(post_version);
                }
                continue;
            }
            if !self.apply_insert(
                &provider,
                &ctx,
                &state,
                source,
                delta,
                pre_version,
                post_version,
            ) {
                self.subscriptions
                    .fallback_reexecs
                    .fetch_add(1, Ordering::Relaxed);
                if self.resync_subscription(&state, true).is_err() {
                    state.lock().synced = None;
                }
            }
        }
    }

    /// Try the O(delta) incremental path for one subscription and one insert.
    /// Returns `false` (without mutating the result) when any gate fails and
    /// the caller must fall back to re-execution: the subscription is stale,
    /// has no standing plan, the insert changed a global extent other than the
    /// plan's lead, or the appended rows' contribution to the lead extent
    /// cannot be isolated.
    #[allow(clippy::too_many_arguments)]
    fn apply_insert(
        &self,
        provider: &VirtualExtents<'_>,
        ctx: &DepContext<'_>,
        state: &SubState,
        source: &str,
        delta: &TableDelta,
        pre_version: u64,
        post_version: u64,
    ) -> bool {
        let mut inner = state.lock();
        if inner.synced != Some(pre_version) {
            return false;
        }
        let Some(plan) = &inner.standing else {
            return false;
        };
        let dep = (source.to_string(), delta.table.clone());
        // Which of the query's global schemes can this insert have changed? An
        // unresolved dependency set (`None`) means "assume changed".
        let changed: Vec<&String> = inner
            .scheme_deps
            .iter()
            .filter(|(_, deps)| deps.as_ref().is_none_or(|d| d.contains(&dep)))
            .map(|(k, _)| k)
            .collect();
        if changed.is_empty() {
            // The insert is a proven no-op for this query (e.g. another table
            // of a shared source): just advance the version stamp.
            inner.synced = Some(post_version);
            return true;
        }
        let lead_key = plan.lead_scheme().key();
        if changed.len() != 1 || *changed[0] != lead_key {
            return false;
        }
        let Some(appended) = global_scheme_delta(ctx, provider, plan.lead_scheme(), source, delta)
        else {
            return false;
        };
        let delta_bag = if appended.is_empty() {
            Bag::empty()
        } else {
            let Ok(bag) = provider.delta_standing(plan, &appended, &state.params) else {
                return false;
            };
            bag
        };
        let Value::Bag(result) = &mut inner.result else {
            return false;
        };
        for v in delta_bag.iter() {
            result.push(v.clone());
        }
        inner.synced = Some(post_version);
        if !delta_bag.is_empty() {
            inner.queue(SubscriptionUpdate::Delta(delta_bag));
        }
        self.subscriptions
            .delta_evals
            .fetch_add(1, Ordering::Relaxed);
        true
    }

    /// Re-execute every live subscription after a schema change
    /// ([`Dataspace::federate`] / [`Dataspace::integrate`]): the global schema
    /// the query was planned against has been re-derived, so standing plans
    /// and dependency indexes are rebuilt from scratch. A subscription whose
    /// query no longer evaluates is marked stale rather than failing the
    /// schema operation.
    fn refresh_subscriptions(&self) {
        for state in self.subscriptions.all_live() {
            self.subscriptions
                .fallback_reexecs
                .fetch_add(1, Ordering::Relaxed);
            match self.resync_subscription(&state, true) {
                Ok(()) => {
                    let deps = SubState::flat_deps(&state.lock());
                    self.subscriptions.reindex(&state, deps.as_ref());
                }
                Err(_) => state.lock().synced = None,
            }
        }
    }
}

/// A snapshot of the dataspace's cache and pool state (see
/// [`Dataspace::stats`]). Counters are cumulative over the dataspace's
/// lifetime; lengths are current.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DataspaceStats {
    /// Plan-cache lookups served from a current cached plan.
    pub plan_cache_hits: u64,
    /// Plan-cache lookups that found nothing (or only a stale plan).
    pub plan_cache_misses: u64,
    /// Plans evicted from the plan cache for capacity.
    pub plan_cache_evictions: u64,
    /// Plans currently cached.
    pub plan_cache_len: usize,
    /// Maximum number of plans held before LRU eviction.
    pub plan_cache_capacity: usize,
    /// Cached plans re-optimised after observed/estimated cardinality
    /// divergence (the adaptive feedback loop).
    pub plan_reopts: u64,
    /// Stale key histograms refreshed copy-on-write from an appended tail.
    pub histogram_refreshes: u64,
    /// Point-lookup index probes served from a current index.
    pub index_hits: u64,
    /// Point-lookup index probes that found no usable index.
    pub index_misses: u64,
    /// Point-lookup indexes built from a full extent scan.
    pub index_builds: u64,
    /// Stale point-lookup indexes refreshed copy-on-write on insert.
    pub index_refreshes: u64,
    /// Point-lookup indexes evicted for capacity or byte budget.
    pub index_evictions: u64,
    /// Point-lookup indexes currently held.
    pub index_len: usize,
    /// Global-schema extents currently memoised.
    pub extent_memo_len: usize,
    /// Extents evicted from the memo for capacity.
    pub extent_memo_evictions: u64,
    /// Query texts currently held in the parse memo.
    pub parse_memo_len: usize,
    /// Worker budget of the process-wide [`iql::FetchPool`].
    pub fetch_pool_capacity: usize,
    /// Standing subscriptions currently live (with at least one handle).
    pub subscriptions: usize,
    /// Inserts absorbed by a subscription through the O(delta) incremental
    /// path (including proven no-ops that only advanced the version stamp).
    pub delta_evals: u64,
    /// Subscription refreshes that fell back to full re-execution (inserts
    /// outside the incremental gate, and schema changes).
    pub fallback_reexecs: u64,
    /// Planned comprehension executions the vectorised columnar engine
    /// completed (see [`iql::EngineStats::columnar_execs`]). Standing
    /// subscriptions never contribute: delta maintenance stays on the row
    /// engine.
    pub columnar_execs: u64,
    /// Executions that fell back to the row engine while the columnar engine
    /// was enabled — ineligible plans (open or parameter-dependent generator
    /// sources) or aborted columnar runs (see
    /// [`iql::EngineStats::row_fallbacks`]).
    pub row_fallbacks: u64,
    /// Live MVCC [`relational::Snapshot`] pins across every member source
    /// (readers currently holding a pinned snapshot view).
    pub snapshots_active: usize,
    /// Committed batches appended to the attached commit log (0 when no log
    /// is attached; recovery replays are not re-appended and don't count).
    pub wal_appends: u64,
    /// Batches replayed from the commit log by [`Dataspace::open`].
    pub recovery_replays: u64,
}

/// What [`Dataspace::open`] recovered from the commit log.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Whole log records replayed through the insert path.
    pub batches_replayed: u64,
    /// Rows those batches carried.
    pub rows_replayed: u64,
    /// Bytes truncated from a torn or corrupt tail (crash mid-append); 0 for
    /// a cleanly closed log.
    pub truncated_bytes: u64,
}

/// A query parsed and validated once, executable many times under different
/// [`Params`] bindings — the dataspace's prepared-statement API (see
/// [`Dataspace::prepare`]).
///
/// Borrowing the dataspace keeps executions anchored to the caches the plan
/// economy depends on: every [`PreparedQuery::execute`] call answers through a
/// provider sharing the dataspace's extent memo and [`PlanCache`], so the
/// first execution plans (and builds join hash indexes) and every later
/// execution — under *any* binding — reuses that plan. Values bind as runtime
/// values, never as spliced text, so parameter strings containing `'` or `\`
/// round-trip exactly.
///
/// ```
/// use dataspace_core::dataspace::Dataspace;
/// use iql::Params;
/// use relational::schema::{DataType, RelColumn, RelSchema, RelTable};
/// use relational::Database;
///
/// let mut schema = RelSchema::new("pedro");
/// schema
///     .add_table(
///         RelTable::new("protein")
///             .with_column(RelColumn::new("id", DataType::Int))
///             .with_column(RelColumn::new("accession_num", DataType::Text))
///             .with_primary_key(["id"]),
///     )
///     .unwrap();
/// let mut db = Database::new(schema);
/// db.insert("protein", vec![1.into(), "ACC1".into()]).unwrap();
/// db.insert("protein", vec![2.into(), "ACC2".into()]).unwrap();
///
/// let mut ds = Dataspace::new();
/// ds.add_source(db).unwrap();
/// ds.federate().unwrap();
///
/// let q = ds
///     .prepare("[k | {k, x} <- <<PEDRO_protein, PEDRO_accession_num>>; x = ?acc]")
///     .unwrap();
/// assert_eq!(q.param_names().collect::<Vec<_>>(), vec!["acc"]);
///
/// // One prepared query, many bindings — including a whole batch at once.
/// let bindings: Vec<Params> = ["ACC1", "ACC2", "ACC3"]
///     .iter()
///     .map(|acc| Params::new().with("acc", *acc))
///     .collect();
/// let results = q.execute_all(&bindings);
/// let sizes: Vec<usize> = results.into_iter().map(|r| r.unwrap().len()).collect();
/// assert_eq!(sizes, vec![1, 1, 0]);
/// ```
#[derive(Debug, Clone)]
pub struct PreparedQuery<'ds> {
    dataspace: &'ds Dataspace,
    parsed: ParsedQuery,
}

/// A memoised parsed query: the text, its AST and its placeholder set, all
/// shared behind `Arc`s so re-preparing a known text allocates nothing.
#[derive(Debug, Clone)]
struct ParsedQuery {
    text: Arc<str>,
    expr: Arc<iql::Expr>,
    params: Arc<BTreeSet<String>>,
}

impl PreparedQuery<'_> {
    /// The query text this prepared query was built from.
    pub fn text(&self) -> &str {
        &self.parsed.text
    }

    /// The parsed expression (shared with the dataspace's parse memo).
    pub fn expr(&self) -> &iql::Expr {
        &self.parsed.expr
    }

    /// The names of the query's `?name` placeholders, in sorted order.
    pub fn param_names(&self) -> impl Iterator<Item = &str> {
        self.parsed.params.iter().map(String::as_str)
    }

    /// Check a binding set against the placeholder set: every placeholder must
    /// be bound ([`CoreError::UnboundParam`] otherwise) and every binding must
    /// name a placeholder ([`CoreError::UnknownParam`] — catching typos before
    /// they silently bind nothing).
    fn validate(&self, params: &Params) -> Result<(), CoreError> {
        for name in self.parsed.params.iter() {
            if params.get(name).is_none() {
                return Err(CoreError::UnboundParam(name.clone()));
            }
        }
        for name in params.names() {
            if !self.parsed.params.contains(name) {
                return Err(CoreError::UnknownParam(name.to_string()));
            }
        }
        Ok(())
    }

    /// Execute under the given bindings, expecting a bag result.
    pub fn execute(&self, params: &Params) -> Result<Bag, CoreError> {
        self.validate(params)?;
        Ok(self
            .dataspace
            .provider()?
            .answer_bag_with(&self.parsed.expr, params)?)
    }

    /// Execute under the given bindings, returning any value (useful for
    /// aggregates like `count`).
    pub fn execute_value(&self, params: &Params) -> Result<Value, CoreError> {
        self.validate(params)?;
        Ok(self
            .dataspace
            .provider()?
            .answer_with(&self.parsed.expr, params)?)
    }

    /// Execute the query once per binding set, concurrently, returning one
    /// result per binding **in input order** — the pay-as-you-go fan-out for
    /// one query shape across many parameter values. All executions share the
    /// dataspace's plan cache (one plan serves the whole batch) and worker
    /// threads come out of the process-wide [`iql::FetchPool`] budget, exactly
    /// like [`Dataspace::query_all`]; a binding that fails validation reports
    /// its error in its own slot without failing the batch.
    pub fn execute_all(&self, bindings: &[Params]) -> Vec<Result<Bag, CoreError>> {
        let items = bindings
            .iter()
            .map(|params| {
                self.validate(params)
                    .map(|()| (Arc::clone(&self.parsed.expr), params.clone()))
            })
            .collect();
        self.dataspace.answer_bound_batch(items)
    }

    /// Register a standing subscription on this query under the given
    /// bindings — a convenience for [`Dataspace::subscribe`].
    pub fn subscribe(&self, params: &Params) -> Result<Subscription, CoreError> {
        self.dataspace.subscribe(self, params)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mapping::{ObjectMapping, SourceContribution};
    use iql::ast::SchemeRef;
    use relational::schema::{DataType, RelColumn, RelSchema, RelTable};

    fn pedro() -> Database {
        let mut s = RelSchema::new("pedro");
        s.add_table(
            RelTable::new("protein")
                .with_column(RelColumn::new("id", DataType::Int))
                .with_column(RelColumn::new("accession_num", DataType::Text))
                .with_column(RelColumn::nullable("organism", DataType::Text))
                .with_primary_key(["id"]),
        )
        .unwrap();
        let mut db = Database::new(s);
        db.insert(
            "protein",
            vec![1.into(), "ACC1".into(), "Homo sapiens".into()],
        )
        .unwrap();
        db.insert(
            "protein",
            vec![2.into(), "ACC2".into(), "Mus musculus".into()],
        )
        .unwrap();
        db
    }

    fn gpmdb() -> Database {
        let mut s = RelSchema::new("gpmdb");
        s.add_table(
            RelTable::new("proseq")
                .with_column(RelColumn::new("proseqid", DataType::Int))
                .with_column(RelColumn::new("label", DataType::Text))
                .with_primary_key(["proseqid"]),
        )
        .unwrap();
        let mut db = Database::new(s);
        db.insert("proseq", vec![10.into(), "ACC2".into()]).unwrap();
        db.insert("proseq", vec![11.into(), "ACC3".into()]).unwrap();
        db
    }

    fn uprotein_spec() -> IntersectionSpec {
        IntersectionSpec::new("I1")
            .with_mapping(
                ObjectMapping::table("UProtein")
                    .with_contribution(
                        SourceContribution::parsed(
                            "pedro",
                            "[{'PEDRO', k} | k <- <<protein>>]",
                            ["protein"],
                        )
                        .unwrap(),
                    )
                    .with_contribution(
                        SourceContribution::parsed(
                            "gpmdb",
                            "[{'gpmDB', k} | k <- <<proseq>>]",
                            ["proseq"],
                        )
                        .unwrap(),
                    ),
            )
            .with_mapping(
                ObjectMapping::column("UProtein", "accession_num")
                    .with_contribution(
                        SourceContribution::parsed(
                            "pedro",
                            "[{'PEDRO', k, x} | {k, x} <- <<protein, accession_num>>]",
                            ["protein,accession_num"],
                        )
                        .unwrap(),
                    )
                    .with_contribution(
                        SourceContribution::parsed(
                            "gpmdb",
                            "[{'gpmDB', k, x} | {k, x} <- <<proseq, label>>]",
                            ["proseq,label"],
                        )
                        .unwrap(),
                    ),
            )
    }

    fn dataspace() -> Dataspace {
        let mut ds = Dataspace::new();
        ds.add_source(pedro()).unwrap();
        ds.add_source(gpmdb()).unwrap();
        ds.federate().unwrap();
        ds
    }

    #[test]
    fn workflow_order_enforced() {
        let mut ds = Dataspace::new();
        assert!(ds.federate().is_err());
        assert!(ds.integrate(uprotein_spec()).is_err());
        ds.add_source(pedro()).unwrap();
        ds.federate().unwrap();
        assert!(ds.add_source(gpmdb()).is_err());
        assert!(ds.federate().is_err());
    }

    #[test]
    fn federated_schema_is_queryable_without_effort() {
        let ds = dataspace();
        assert_eq!(ds.effort_report().total_manual(), 0);
        let n = ds.query_value("count <<PEDRO_protein>>").unwrap();
        assert_eq!(n, Value::Int(2));
        assert!(ds.can_answer("count <<GPMDB_proseq, GPMDB_label>>"));
        // Integrated concepts do not exist yet.
        assert!(!ds.can_answer("count <<UProtein>>"));
    }

    #[test]
    fn integration_iteration_produces_queryable_global_schema() {
        let mut ds = dataspace();
        let record = ds.integrate(uprotein_spec()).unwrap();
        assert_eq!(record.manual_transformations, 4);
        assert_eq!(record.cumulative_manual, 4);
        // 2 (pedro) + 2 (gpmdb) = 4 UProtein entries.
        assert_eq!(ds.query_value("count <<UProtein>>").unwrap(), Value::Int(4));
        // Cross-source join through the integrated concept: ACC2 appears in both.
        let shared = ds
            .query(
                "[x | {s1, k1, x} <- <<UProtein, accession_num>>; {s2, k2, y} <- <<UProtein, accession_num>>; x = y; s1 = 'PEDRO'; s2 = 'gpmDB']",
            )
            .unwrap();
        assert_eq!(shared.len(), 1);
    }

    #[test]
    fn redundant_objects_dropped_but_uncovered_ones_remain() {
        let mut ds = dataspace();
        ds.integrate(uprotein_spec()).unwrap();
        let global = ds.global_schema().unwrap();
        assert!(global.contains(&SchemeRef::table("UProtein")));
        assert!(!global.contains(&SchemeRef::table("PEDRO_protein")));
        // organism was not covered, so it remains (prefixed) and stays queryable.
        assert!(global.contains(&SchemeRef::column("PEDRO_protein", "PEDRO_organism")));
        assert_eq!(
            ds.query_value("count <<PEDRO_protein, PEDRO_organism>>")
                .unwrap(),
            Value::Int(2)
        );
        assert_eq!(ds.dropped_redundant().len(), 4);
    }

    #[test]
    fn keep_redundant_configuration() {
        let mut ds = Dataspace::with_config(DataspaceConfig {
            drop_redundant: false,
            ..DataspaceConfig::default()
        });
        ds.add_source(pedro()).unwrap();
        ds.add_source(gpmdb()).unwrap();
        ds.federate().unwrap();
        ds.integrate(uprotein_spec()).unwrap();
        let global = ds.global_schema().unwrap();
        assert!(global.contains(&SchemeRef::table("PEDRO_protein")));
        assert!(global.contains(&SchemeRef::table("UProtein")));
        assert!(ds.dropped_redundant().is_empty());
        // Redundant object still answers, and its extent matches the source.
        assert_eq!(
            ds.query_value("count <<PEDRO_protein>>").unwrap(),
            Value::Int(2)
        );
    }

    #[test]
    fn effort_report_accumulates_over_iterations() {
        let mut ds = dataspace();
        ds.integrate(uprotein_spec()).unwrap();
        let spec2 = IntersectionSpec::new("I2").with_mapping(
            ObjectMapping::column("UProtein", "organism").with_contribution(
                SourceContribution::parsed(
                    "pedro",
                    "[{'PEDRO', k, x} | {k, x} <- <<protein, organism>>]",
                    ["protein,organism"],
                )
                .unwrap(),
            ),
        );
        let record2 = ds.integrate(spec2).unwrap();
        assert_eq!(record2.manual_transformations, 1);
        assert_eq!(record2.cumulative_manual, 5);
        assert_eq!(ds.effort_report().iterations.len(), 3); // federation + 2
        assert_eq!(ds.effort_report().total_manual(), 5);
        assert_eq!(
            ds.query_value("count <<UProtein, organism>>").unwrap(),
            Value::Int(2)
        );
    }

    #[test]
    fn repository_records_schemas_and_pathways() {
        let mut ds = dataspace();
        ds.integrate(uprotein_spec()).unwrap();
        let repo = ds.repository();
        assert!(repo.has_schema("pedro"));
        assert!(repo.has_schema("F"));
        assert!(repo.has_schema("I1"));
        assert!(repo.has_schema("G1"));
        // A pathway exists from each source to the intersection schema.
        assert!(repo.pathway_between("pedro", "I1").is_ok());
        assert!(repo.pathway_between("gpmdb", "I1").is_ok());
        // And therefore (via reversal/composition) between the two sources.
        assert!(repo.pathway_between("pedro", "gpmdb").is_ok());
    }

    #[test]
    fn repeated_queries_hit_the_persistent_plan_and_extent_caches() {
        let mut ds = dataspace();
        ds.integrate(uprotein_spec()).unwrap();
        let q = "[x | {s1, k1, x} <- <<UProtein, accession_num>>; {s2, k2, y} <- <<UProtein, accession_num>>; x = y; s1 = 'PEDRO'; s2 = 'gpmDB']";
        let first = ds.query(q).unwrap();
        assert!(
            ds.cached_extent_count() > 0,
            "extents memoised across calls"
        );
        let misses = ds.plan_cache().miss_count();
        let hits = ds.plan_cache().hit_count();
        let second = ds.query(q).unwrap();
        assert_eq!(first, second);
        assert!(ds.plan_cache().hit_count() > hits, "re-run hits plan cache");
        assert_eq!(
            ds.plan_cache().miss_count(),
            misses,
            "no replanning on re-run"
        );
    }

    #[test]
    fn integrate_invalidates_caches_so_new_concepts_answer() {
        let mut ds = dataspace();
        assert!(!ds.can_answer("count <<UProtein>>"));
        // Warm the caches on the federated schema...
        assert_eq!(
            ds.query_value("count <<PEDRO_protein>>").unwrap(),
            Value::Int(2)
        );
        let cached = ds.cached_extent_count();
        assert!(cached > 0);
        // ...then integrate: the generation bump clears the extent memo and
        // retires cached plans, and the new concept answers correctly.
        ds.integrate(uprotein_spec()).unwrap();
        assert!(ds.cached_extent_count() < cached || ds.cached_extent_count() == 0);
        assert_eq!(ds.query_value("count <<UProtein>>").unwrap(), Value::Int(4));
        // An uncovered federated object survives redundancy dropping and still
        // answers through the rebuilt caches.
        assert_eq!(
            ds.query_value("count <<PEDRO_protein, PEDRO_organism>>")
                .unwrap(),
            Value::Int(2)
        );
    }

    #[test]
    fn query_errors_are_reported() {
        let ds = dataspace();
        assert!(matches!(ds.query("[oops"), Err(CoreError::Parse(_))));
        assert!(ds.query("count <<NoSuchThing>>").is_err());
        assert!(!ds.can_answer("count <<NoSuchThing>>"));
    }

    #[test]
    fn subscriptions_absorb_federated_inserts_incrementally() {
        let mut ds = dataspace();
        let q = "[x | {k, x} <- <<PEDRO_protein, PEDRO_accession_num>>]";
        let sub = ds.prepare(q).unwrap().subscribe(&Params::new()).unwrap();
        assert!(sub.is_incremental());
        assert_eq!(
            sub.result_bag().unwrap(),
            Bag::from_values(vec![Value::str("ACC1"), Value::str("ACC2")])
        );
        assert!(sub.drain_updates().is_empty(), "seeding is not an update");
        let before = ds.stats();
        assert_eq!(before.subscriptions, 1);
        ds.insert(
            "pedro",
            "protein",
            vec![3.into(), "ACC3".into(), "Rattus norvegicus".into()],
        )
        .unwrap();
        let after = ds.stats();
        assert_eq!(after.delta_evals, before.delta_evals + 1);
        assert_eq!(after.fallback_reexecs, before.fallback_reexecs);
        assert_eq!(sub.result_bag().unwrap(), ds.query(q).unwrap());
        assert_eq!(
            sub.drain_updates(),
            vec![SubscriptionUpdate::Delta(Bag::from_values(vec![
                Value::str("ACC3")
            ]))]
        );
    }

    #[test]
    fn parameterised_subscriptions_filter_the_delta() {
        let mut ds = dataspace();
        let sub = ds
            .prepare("[k | {k, x} <- <<PEDRO_protein, PEDRO_accession_num>>; x = ?acc]")
            .unwrap()
            .subscribe(&Params::new().with("acc", "ACC9"))
            .unwrap();
        assert!(sub.is_incremental());
        assert!(sub.result_bag().unwrap().is_empty());
        ds.insert(
            "pedro",
            "protein",
            vec![8.into(), "ACC8".into(), "Rat".into()],
        )
        .unwrap();
        ds.insert(
            "pedro",
            "protein",
            vec![9.into(), "ACC9".into(), "Rat".into()],
        )
        .unwrap();
        assert_eq!(
            sub.result_bag().unwrap(),
            Bag::from_values(vec![Value::Int(9)])
        );
        // The non-matching insert was absorbed silently; only the match pushed.
        assert_eq!(
            sub.drain_updates(),
            vec![SubscriptionUpdate::Delta(Bag::from_values(vec![
                Value::Int(9)
            ]))]
        );
        assert_eq!(ds.stats().delta_evals, 2);
    }

    #[test]
    fn inserts_into_the_last_contribution_take_the_delta_path() {
        let mut ds = dataspace();
        ds.integrate(uprotein_spec()).unwrap();
        let q = "[s | {s, k} <- <<UProtein>>]";
        let sub = ds.prepare(q).unwrap().subscribe(&Params::new()).unwrap();
        assert!(sub.is_incremental());
        let before = ds.stats();
        // gpmdb contributes the *last* (tail) slice of UProtein's extent, so
        // its inserts append at the global tail: O(delta) maintenance.
        ds.insert("gpmdb", "proseq", vec![12.into(), "ACC4".into()])
            .unwrap();
        let after = ds.stats();
        assert_eq!(after.delta_evals, before.delta_evals + 1);
        assert_eq!(after.fallback_reexecs, before.fallback_reexecs);
        assert_eq!(sub.result_bag().unwrap(), ds.query(q).unwrap());
        assert_eq!(
            sub.drain_updates(),
            vec![SubscriptionUpdate::Delta(Bag::from_values(vec![
                Value::str("gpmDB")
            ]))]
        );
    }

    #[test]
    fn inserts_into_an_earlier_contribution_fall_back_to_reexecution() {
        let mut ds = dataspace();
        ds.integrate(uprotein_spec()).unwrap();
        let q = "[s | {s, k} <- <<UProtein>>]";
        let sub = ds.prepare(q).unwrap().subscribe(&Params::new()).unwrap();
        let before = ds.stats();
        // pedro's slice sits *before* gpmdb's in UProtein's extent, so its
        // inserts are mid-bag, not tail appends: transparent re-execution.
        ds.insert(
            "pedro",
            "protein",
            vec![3.into(), "ACC3".into(), "Rattus norvegicus".into()],
        )
        .unwrap();
        let after = ds.stats();
        assert_eq!(after.fallback_reexecs, before.fallback_reexecs + 1);
        assert_eq!(after.delta_evals, before.delta_evals);
        assert_eq!(sub.result_bag().unwrap(), ds.query(q).unwrap());
        let updates = sub.drain_updates();
        assert_eq!(updates.len(), 1);
        assert!(matches!(&updates[0], SubscriptionUpdate::Refreshed(_)));
    }

    #[test]
    fn aggregate_subscriptions_fall_back_transparently() {
        let mut ds = dataspace();
        let sub = ds
            .prepare("count <<PEDRO_protein>>")
            .unwrap()
            .subscribe(&Params::new())
            .unwrap();
        assert!(!sub.is_incremental());
        assert_eq!(sub.result(), Value::Int(2));
        ds.insert(
            "pedro",
            "protein",
            vec![3.into(), "ACC3".into(), "Rattus norvegicus".into()],
        )
        .unwrap();
        assert_eq!(sub.result(), Value::Int(3));
        assert_eq!(
            sub.drain_updates(),
            vec![SubscriptionUpdate::Refreshed(Value::Int(3))]
        );
        assert_eq!(ds.stats().fallback_reexecs, 1);
    }

    #[test]
    fn queued_updates_ring_the_push_signal() {
        use crate::subscriptions::PushSignal;
        let mut ds = dataspace();
        let signal = Arc::new(PushSignal::default());
        // One signal shared by an O(delta) subscription and a re-executed one.
        let feed = ds
            .prepare("[x | {k, x} <- <<PEDRO_protein, PEDRO_accession_num>>]")
            .unwrap()
            .subscribe(&Params::new())
            .unwrap();
        let count = ds
            .prepare("count <<PEDRO_protein>>")
            .unwrap()
            .subscribe(&Params::new())
            .unwrap();
        feed.wake_on(Arc::clone(&signal));
        count.wake_on(Arc::clone(&signal));
        let waiter = {
            let signal = Arc::clone(&signal);
            std::thread::spawn(move || {
                // Rings coalesce and may land between the two subscriptions'
                // updates: wait again until both have arrived.
                let (mut deltas, mut refreshes) = (Vec::new(), Vec::new());
                while deltas.is_empty() || refreshes.is_empty() {
                    signal.wait();
                    deltas.extend(feed.drain_updates());
                    refreshes.extend(count.drain_updates());
                }
                (deltas, refreshes)
            })
        };
        ds.insert(
            "pedro",
            "protein",
            vec![3.into(), "ACC3".into(), "Rattus norvegicus".into()],
        )
        .unwrap();
        // A ring before the waiter arrives is not lost: the flag stays set.
        let (deltas, refreshes) = waiter.join().unwrap();
        assert_eq!(
            deltas,
            vec![SubscriptionUpdate::Delta(Bag::from_values(vec![
                Value::str("ACC3")
            ]))]
        );
        assert_eq!(
            refreshes,
            vec![SubscriptionUpdate::Refreshed(Value::Int(3))]
        );
    }

    #[test]
    fn unrelated_inserts_do_not_desync_the_standing_plan() {
        let mut ds = dataspace();
        let q = "[x | {k, x} <- <<PEDRO_protein, PEDRO_accession_num>>]";
        let sub = ds.prepare(q).unwrap().subscribe(&Params::new()).unwrap();
        // An insert into a table the query provably does not depend on...
        ds.insert("gpmdb", "proseq", vec![12.into(), "ACC4".into()])
            .unwrap();
        assert!(sub.drain_updates().is_empty());
        // ...must not force the next relevant insert off the O(delta) path.
        let before = ds.stats();
        ds.insert(
            "pedro",
            "protein",
            vec![3.into(), "ACC3".into(), "Rattus norvegicus".into()],
        )
        .unwrap();
        let after = ds.stats();
        assert_eq!(after.delta_evals, before.delta_evals + 1);
        assert_eq!(after.fallback_reexecs, before.fallback_reexecs);
        assert_eq!(sub.result_bag().unwrap(), ds.query(q).unwrap());
    }

    #[test]
    fn dropped_subscription_handles_are_pruned() {
        let mut ds = dataspace();
        let sub = ds
            .prepare("[k | k <- <<PEDRO_protein>>]")
            .unwrap()
            .subscribe(&Params::new())
            .unwrap();
        assert_eq!(ds.stats().subscriptions, 1);
        drop(sub);
        assert_eq!(ds.stats().subscriptions, 0);
        // Inserting after every handle is gone must not maintain (or panic).
        let before = ds.stats();
        ds.insert(
            "pedro",
            "protein",
            vec![3.into(), "ACC3".into(), "Rattus norvegicus".into()],
        )
        .unwrap();
        let after = ds.stats();
        assert_eq!(after.delta_evals, before.delta_evals);
        assert_eq!(after.fallback_reexecs, before.fallback_reexecs);
    }

    #[test]
    fn integrate_refreshes_surviving_subscriptions_and_strands_dropped_ones() {
        let mut ds = dataspace();
        let organism_q = "[x | {k, x} <- <<PEDRO_protein, PEDRO_organism>>]";
        // organism is not covered by the intersection, so its scheme survives
        // integration; accession_num is covered and gets dropped as redundant.
        let survivor = ds
            .prepare(organism_q)
            .unwrap()
            .subscribe(&Params::new())
            .unwrap();
        let stranded = ds
            .prepare("[x | {k, x} <- <<PEDRO_protein, PEDRO_accession_num>>]")
            .unwrap()
            .subscribe(&Params::new())
            .unwrap();
        let stranded_before = stranded.result();
        ds.integrate(uprotein_spec()).unwrap();
        // The survivor was re-executed against the new global schema...
        let updates = survivor.drain_updates();
        assert_eq!(updates.len(), 1);
        assert!(matches!(&updates[0], SubscriptionUpdate::Refreshed(_)));
        assert_eq!(
            survivor.result_bag().unwrap(),
            ds.query(organism_q).unwrap()
        );
        // ...and is still maintained on later inserts.
        ds.insert(
            "pedro",
            "protein",
            vec![3.into(), "ACC3".into(), "Rattus norvegicus".into()],
        )
        .unwrap();
        assert_eq!(
            survivor.result_bag().unwrap(),
            ds.query(organism_q).unwrap()
        );
        // The stranded subscription keeps serving its last good result.
        assert_eq!(stranded.result(), stranded_before);
    }
}
