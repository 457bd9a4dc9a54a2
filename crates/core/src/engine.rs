//! The end-to-end engine facade: register tables → (optionally) select and
//! materialise AVs → optimise → execute.
//!
//! This is the "system that integrates all of the above" the paper's
//! long-term vision calls for, able to *"make a smooth transition from SQO
//! to DQO"*: the [`OptimizerMode`] is a per-query knob.

use crate::av::AvCatalog;
use crate::av_build::{AvBuildHandle, AvBuilder};
use crate::av_delta::{MaintenanceReport, ViewMaintainer};
use crate::avsp::{self, AvspSolution, Solver, WorkloadQuery};
use crate::catalog::{Catalog, RowDelta};
use crate::executor::{execute_with, ExecContext, ExecOutput};
use crate::feedback::FeedbackStore;
use crate::memo::{Memo, MemoOptimizer, MemoStamp, MemoStats};
use crate::optimizer::{OptimizerMode, PlannedQuery, PropertyModel, SearchContext};
use crate::plan_cache::{
    self, plan_shape, text_hash, Knobs, Lookup, PlanCache, StoreKey, Validity,
};
use crate::profile::{render_annotated, PlanRuntime};
use crate::Result;
use dqo_obs::{
    names, Counter, Gauge, Histogram, MetricsRegistry, MetricsSnapshot, Phase, QueryProfile,
    TraceBuilder, DURATION_BUCKETS,
};
use dqo_parallel::{PersistentPool, ThreadPool};
use dqo_plan::{LogicalPlan, PhysicalPlan};
use dqo_storage::{PartitionedRelation, Relation, Value};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// A planned, executed query with its measurements.
#[derive(Debug, Clone)]
pub struct QueryResult {
    /// The optimiser's decision.
    pub planned: PlannedQuery,
    /// The execution result.
    pub output: ExecOutput,
    /// End-to-end wall time under the engine's control: admission
    /// queueing plus execution (`queue_wait + exec_wall`). Earlier
    /// versions reported execution only, hiding time spent in the FIFO
    /// admission queue under load.
    pub wall: Duration,
    /// Time spent waiting in the pool's admission queue (zero outside
    /// shared-pool serving mode).
    pub queue_wait: Duration,
    /// Pure execution wall time, post-admission and post-planning.
    pub exec_wall: Duration,
    /// Phase-timed trace of the whole query (empty when tracing is off).
    pub profile: QueryProfile,
    /// Per-operator runtime metrics in plan pre-order (empty when
    /// tracing is off).
    pub ops: PlanRuntime,
}

/// The end-to-end engine.
///
/// One engine is one *session*. Every session executes its parallel
/// batches on a persistent [`PersistentPool`] (by default the
/// process-wide shared pool); [`Engine::with_shared_pool`] additionally
/// turns on **shared-pool serving mode**, where N sessions multiplex one
/// explicitly sized pool and every [`Engine::query`] passes the pool's
/// [admission controller](dqo_parallel::AdmissionController): at most
/// `max_inflight` queries run concurrently (FIFO beyond that) and each
/// admitted query's DOP is clamped to its fair share of the workers
/// under load. Results are unaffected — the morsel runtime is
/// deterministic across DOPs — only latency trades.
#[derive(Debug)]
pub struct Engine {
    catalog: Arc<Catalog>,
    avs: Arc<AvCatalog>,
    mode: OptimizerMode,
    /// Degree of parallelism offered to the optimiser; 1 disables the
    /// morsel-driven parallel runtime entirely.
    threads: usize,
    /// `Some` = shared-pool serving mode: parallel batches dispatch onto
    /// this explicit pool and queries pass its admission controller.
    /// `None` = the process-global pool, resolved lazily at the first
    /// Exchange node so serial sessions never spawn pool workers.
    pool: Option<Arc<PersistentPool>>,
    /// Phase traces + per-operator metrics on every `query` when true
    /// (default from `DQO_OBS`, on unless `off`/`0`/`false`).
    tracing: bool,
    /// Engine-level metric handles and the registry they live in.
    obs: EngineObs,
    /// The plan store: the only optimiser state that outlives a
    /// statement. Prepared statements are keyed on their masked shape and
    /// valid per DDL generation; ad-hoc ones on their logical plan,
    /// compared structurally, and valid while the [`MemoStamp`] they were
    /// planned under is current.
    /// Every search builds and drops its own [`Memo`].
    plan_cache: PlanCache,
    /// What the searches so far did, for [`Engine::memo_stats`].
    searches: SearchTotals,
    /// Learned selectivity corrections, mined from traced executions and
    /// fed to the coster on every search.
    feedback: Arc<FeedbackStore>,
    /// Incremental AV maintenance for the write path ([`Engine::insert`]).
    maintainer: ViewMaintainer,
}

/// What one [`Engine::insert`] did: rows appended plus how every
/// materialised AV on the table was maintained.
#[derive(Debug)]
pub struct InsertReport {
    /// Rows appended to the base table.
    pub rows_inserted: u64,
    /// Per-AV maintenance outcomes (empty when the table has no
    /// materialised views).
    pub maintenance: MaintenanceReport,
    /// Bytes the insert wrote into new buffers: base columns that had to
    /// move (the snapshot was not its buffers' tip, or they were full)
    /// plus every maintained view's ([`MaintenanceOutcome::bytes_copied`]).
    /// Rows written in place past a buffer's length are not copies.
    ///
    /// [`MaintenanceOutcome::bytes_copied`]: crate::av_delta::MaintenanceOutcome::bytes_copied
    pub bytes_copied: usize,
}

impl InsertReport {
    /// Block until any background AV rebuilds this insert triggered have
    /// published — tests and benchmarks use this to make insert → query
    /// sequences deterministic.
    pub fn wait_for_rebuilds(&mut self) -> Result<()> {
        self.maintenance.wait_for_rebuilds()
    }
}

/// A prepared statement handle from [`Engine::prepare`]: the normalised
/// plan shape the plan store keys on, hashed once here so an execution
/// never renders or re-hashes it. Cheap to clone and independent of any
/// parameter values.
#[derive(Debug, Clone)]
pub struct PreparedPlan {
    shape: Arc<str>,
    shape_hash: u64,
}

impl PreparedPlan {
    /// The normalised shape (constants masked out).
    pub fn shape(&self) -> &str {
        &self.shape
    }
}

/// Engine-level observability: query counter and phase histograms,
/// registered in one [`MetricsRegistry`] (the process-global one by
/// default; [`Engine::with_metrics_registry`] isolates a session).
#[derive(Debug)]
struct EngineObs {
    registry: Arc<MetricsRegistry>,
    queries: Counter,
    optimise: Histogram,
    exec: Histogram,
    exec_bytes: Counter,
    join_index_builds: Counter,
    join_carried_columns: Counter,
    insert_bytes: Counter,
    opt_groups: Gauge,
    opt_group_exprs: Gauge,
    opt_rules_fired: Counter,
    opt_candidates_built: Counter,
    opt_winner_hits: Counter,
    opt_feedback_applied: Counter,
    opt_feedback_corrections: Counter,
    part_pruned: Counter,
    part_scanned: Counter,
    part_total: Counter,
}

/// Engine-level totals over every search so far, plus the size of the
/// most recent search's memo. Plain statistics: each field is its own
/// relaxed atomic and nothing is published through them.
#[derive(Debug, Default)]
struct SearchTotals {
    rules_fired: AtomicU64,
    candidates_built: AtomicU64,
    winner_hits: AtomicU64,
    feedback_applied: AtomicU64,
    last_groups: AtomicUsize,
    last_candidates: AtomicUsize,
}

impl SearchTotals {
    /// Fold in one finished search.
    fn record(&self, memo: &Memo) {
        let stats = memo.stats();
        self.rules_fired
            .fetch_add(stats.rules_fired, Ordering::Relaxed);
        self.candidates_built
            .fetch_add(stats.candidates_built, Ordering::Relaxed);
        self.winner_hits
            .fetch_add(stats.winner_hits, Ordering::Relaxed);
        self.feedback_applied
            .fetch_add(stats.feedback_applied, Ordering::Relaxed);
        self.last_groups
            .store(memo.group_count(), Ordering::Relaxed);
        self.last_candidates
            .store(memo.candidate_count(), Ordering::Relaxed);
    }
}

impl EngineObs {
    fn new(registry: Arc<MetricsRegistry>) -> Self {
        EngineObs {
            queries: registry.counter(names::ENGINE_QUERIES),
            optimise: registry.histogram(names::OPTIMISE_SECONDS, &DURATION_BUCKETS),
            exec: registry.histogram(names::EXEC_SECONDS, &DURATION_BUCKETS),
            exec_bytes: registry.counter(names::EXEC_BYTES_MATERIALISED),
            join_index_builds: registry.counter(names::JOIN_INDEX_BUILDS),
            join_carried_columns: registry.counter(names::JOIN_CARRIED_COLUMNS),
            insert_bytes: registry.counter(names::INSERT_BYTES_COPIED),
            opt_groups: registry.gauge(names::OPT_GROUPS),
            opt_group_exprs: registry.gauge(names::OPT_GROUP_EXPRS),
            opt_rules_fired: registry.counter(names::OPT_RULES_FIRED),
            opt_candidates_built: registry.counter(names::OPT_CANDIDATES_BUILT),
            opt_winner_hits: registry.counter(names::OPT_WINNER_HITS),
            opt_feedback_applied: registry.counter(names::OPT_FEEDBACK_APPLIED),
            opt_feedback_corrections: registry.counter(names::OPT_FEEDBACK_CORRECTIONS),
            part_pruned: registry.counter(names::PART_PRUNED),
            part_scanned: registry.counter(names::PART_SCANNED),
            part_total: registry.counter(names::PART_TOTAL),
            registry,
        }
    }

    /// Push one finished search into the `dqo_opt_*` metrics: gauges show
    /// its memo's group/candidate population, counters absorb its stats.
    fn record_search(&self, memo: &Memo) {
        let stats = memo.stats();
        self.opt_groups.set(memo.group_count() as u64);
        self.opt_group_exprs.set(memo.candidate_count() as u64);
        self.opt_rules_fired.add(stats.rules_fired);
        self.opt_candidates_built.add(stats.candidates_built);
        self.opt_winner_hits.add(stats.winner_hits);
        self.opt_feedback_applied.add(stats.feedback_applied);
    }

    /// Record the per-query partition accounting: for every
    /// `PartitionedScan` in the executed plan, how many partitions were
    /// scanned versus pruned away at plan time.
    fn record_partitions(&self, plan: &PhysicalPlan) {
        let mut stack = vec![plan];
        while let Some(node) = stack.pop() {
            if let PhysicalPlan::PartitionedScan { parts, total, .. } = node {
                self.part_scanned.add(parts.len() as u64);
                self.part_pruned.add((total - parts.len()) as u64);
                self.part_total.add(*total as u64);
            }
            stack.extend(node.children());
        }
    }
}

/// The `DQO_OBS` default: tracing is on unless explicitly disabled.
fn tracing_default() -> bool {
    !matches!(
        std::env::var("DQO_OBS").as_deref(),
        Ok("off") | Ok("0") | Ok("false")
    )
}

impl Default for Engine {
    /// DQO mode at the default parallelism (`DQO_THREADS` env override,
    /// else the machine's available parallelism). No pool workers are
    /// spawned until a plan actually carries an Exchange node.
    fn default() -> Self {
        let registry = MetricsRegistry::global();
        Engine {
            catalog: Arc::new(Catalog::default()),
            avs: Arc::new(AvCatalog::default()),
            mode: OptimizerMode::default(),
            threads: dqo_parallel::default_threads(),
            pool: None,
            tracing: tracing_default(),
            plan_cache: PlanCache::new(crate::plan_cache::DEFAULT_CAPACITY, &registry),
            searches: SearchTotals::default(),
            feedback: Arc::new(FeedbackStore::new()),
            maintainer: ViewMaintainer::new(&registry),
            obs: EngineObs::new(registry),
        }
    }
}

impl Engine {
    /// A fresh engine in DQO mode, parallelism at the default
    /// (`DQO_THREADS` env override, else available hardware).
    pub fn new() -> Self {
        Engine::default()
    }

    /// A session multiplexing a shared pool in serving mode: parallelism
    /// defaults to the pool's worker count and every `query` passes the
    /// pool's admission controller (bounded in-flight queries, FIFO
    /// overflow, per-query DOP clamp under load).
    pub fn with_shared_pool(pool: Arc<PersistentPool>) -> Self {
        Engine {
            threads: pool.threads(),
            pool: Some(pool),
            ..Engine::default()
        }
    }

    /// The persistent pool this engine's parallel batches run on (the
    /// process-global pool unless in shared-pool mode). Calling this
    /// forces the global pool into existence for a default engine.
    pub fn pool(&self) -> Arc<PersistentPool> {
        self.pool.clone().unwrap_or_else(PersistentPool::global)
    }

    /// Builder: cap the degree of parallelism (1 = serial execution).
    /// The optimiser still only emits parallel plans where the DOP-aware
    /// cost model says the startup + merge overhead pays.
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.set_threads(threads);
        self
    }

    /// Set the degree of parallelism (clamped to at least 1).
    pub fn set_threads(&mut self, threads: usize) {
        self.threads = threads.max(1);
    }

    /// Builder: enable or disable per-query tracing (phase spans and
    /// per-operator metrics). The initial value comes from `DQO_OBS`
    /// (on unless `off`/`0`/`false`); this knob overrides it
    /// programmatically — tests use it instead of racing on the process
    /// environment.
    pub fn with_tracing(mut self, tracing: bool) -> Self {
        self.set_tracing(tracing);
        self
    }

    /// Enable or disable per-query tracing (see [`Engine::with_tracing`]).
    pub fn set_tracing(&mut self, tracing: bool) {
        self.tracing = tracing;
    }

    /// Whether `query` records phase traces and per-operator metrics.
    pub fn tracing(&self) -> bool {
        self.tracing
    }

    /// Builder: register this engine's metrics (queries, optimise/exec
    /// histograms, AV builds) in an isolated registry instead of the
    /// process-global one — for tests and benches that assert on exact
    /// counts.
    pub fn with_metrics_registry(mut self, registry: Arc<MetricsRegistry>) -> Self {
        self.plan_cache.rebind_metrics(&registry);
        self.maintainer = ViewMaintainer::new(&registry);
        self.obs = EngineObs::new(registry);
        self
    }

    /// A combined metrics snapshot: the engine's registry (queries,
    /// phase histograms, AV builds) merged with the session pool's
    /// (workers, jobs, parks, batch steals, admission). Note this
    /// resolves the pool, forcing the process-global pool into existence
    /// for a default engine.
    pub fn metrics(&self) -> MetricsSnapshot {
        let mut snap = self.obs.registry.snapshot();
        snap.merge(&self.pool().metrics_snapshot());
        snap
    }

    /// The configured degree of parallelism.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Switch between shallow and deep optimisation (the SQO↔DQO knob).
    pub fn set_mode(&mut self, mode: OptimizerMode) {
        self.mode = mode;
    }

    /// Current optimiser mode.
    pub fn mode(&self) -> OptimizerMode {
        self.mode
    }

    /// The table catalog.
    pub fn catalog(&self) -> &Catalog {
        &self.catalog
    }

    /// The AV catalog.
    pub fn avs(&self) -> &AvCatalog {
        &self.avs
    }

    /// Register (or replace) a table. Replacing a table **invalidates
    /// every AV built from it** — the artifacts are snapshots of the old
    /// data, and serving them (or their hidden `__av::` relations) after
    /// the base table moved would answer queries from stale data.
    ///
    /// Ordering matters for in-flight background builds: the new entry
    /// is registered **first** (bumping the table's generation), *then*
    /// the AVs are invalidated. A build still running against the old
    /// data either publishes before the invalidation (and is removed by
    /// it) or fails its generation check and discards the artifact — in
    /// no interleaving does a stale AV survive.
    pub fn register_table(&self, name: impl Into<String>, relation: Relation) {
        let name = name.into();
        self.catalog.register(name.clone(), relation);
        self.avs.invalidate_table(&self.catalog, &name);
    }

    /// Register (or replace) a **partitioned** table: the catalog keeps
    /// the partition spec and per-partition placement alongside the flat
    /// relation, queries against it plan `PartitionedScan` nodes (pruned
    /// at plan time when a predicate binds the partition column) and
    /// parallel operators seed partition-native morsels. Same AV
    /// invalidation contract as [`Engine::register_table`].
    pub fn register_table_partitioned(
        &self,
        name: impl Into<String>,
        partitioned: PartitionedRelation,
    ) {
        let name = name.into();
        self.catalog.register_partitioned(name.clone(), partitioned);
        self.avs.invalidate_table(&self.catalog, &name);
    }

    /// Drop a table, invalidating its AVs; returns
    /// whether the table existed. Like [`Engine::register_table`], the
    /// catalog entry goes first so racing background builds fail their
    /// generation check.
    pub fn drop_table(&self, name: &str) -> bool {
        let existed = self.catalog.drop_table(name);
        self.avs.invalidate_table(&self.catalog, name);
        existed
    }

    /// Append `rows` to `table` (schema-ordered values per row),
    /// incrementally maintaining every materialised AV built from it.
    ///
    /// The whole read-modify-publish cycle holds the table's
    /// [mutation lock](Catalog::mutation_lock), so concurrent inserts
    /// into one table serialise; readers never block. The base table
    /// publishes **first** through [`Catalog::replace_data`] — the data
    /// clock bumps but the DDL clock does not, so prepared plans stay
    /// cached and simply observe the new rows — and only then is each
    /// view maintained and published against the entry that replacement
    /// returned (see [`crate::av_delta`]). Between the two steps a
    /// concurrent query may observe new base rows with a
    /// not-yet-maintained view; the window is bounded by this call.
    ///
    /// The table's statistics fold the appended rows in (O(delta), see
    /// [`Catalog::replace_data`]). DDL takes no mutation lock: a
    /// re-registration that lands between this call's snapshot and its
    /// publish wins, and the insert fails with
    /// [`CoreError::TableChanged`](crate::CoreError::TableChanged) instead
    /// of writing the old rows back over the new table.
    pub fn insert(&self, table: &str, rows: &[Vec<Value>]) -> Result<InsertReport> {
        let lock = self.catalog.mutation_lock(table);
        let guard = lock.lock();
        let base = self.catalog.stored(table)?;
        let appended = base.relation.append_rows(rows)?;
        let delta = RowDelta {
            base: &base.relation,
            rows: &appended.delta,
            at: None,
        };
        let moved = appended.combined.bytes_not_shared_with(&base.relation);
        let combined = self
            .catalog
            .replace_data(table, &base, appended.combined, Some(delta))?;
        // The new snapshot extends the old one's buffers in place where it
        // could, and the old snapshot still reads its own prefix of them.
        // Buffers the append had to move are garbage once no reader holds
        // the old snapshot: let go of it before view maintenance
        // allocates.
        drop(base);
        // An inline rebuild sorts through the session pool only when this
        // session is parallel at all.
        let tp = (self.threads > 1).then(|| ThreadPool::with_pool(self.threads, self.pool()));
        let maintenance = self.maintainer.maintain_table(
            &self.av_builder(),
            table,
            &combined,
            &appended.delta,
            tp.as_ref(),
        )?;
        drop(guard);
        let bytes_copied = moved
            + maintenance
                .outcomes
                .iter()
                .map(|o| o.bytes_copied)
                .sum::<usize>();
        self.obs.insert_bytes.add(bytes_copied as u64);
        Ok(InsertReport {
            rows_inserted: rows.len() as u64,
            maintenance,
            bytes_copied,
        })
    }

    /// Optimise a logical plan (no execution). Plans at the session's
    /// full configured DOP; in shared-pool mode the DOP actually granted
    /// to a `query` may be lower under load. Consults the plan store as
    /// an ad-hoc `query` does.
    pub fn plan(&self, logical: &LogicalPlan) -> Result<PlannedQuery> {
        self.planned(logical, self.threads, None)
    }

    /// The one way a statement gets its plan: from the store when it
    /// holds one that is still valid, else from a search whose result the
    /// store may keep. `prepared` selects the key kind (see
    /// [`crate::plan_cache`]): a prepared statement reuses across
    /// constants and DDL-stable appends; an ad-hoc one only while the
    /// stamp read here — *before* the search — is current, so a stored
    /// plan never outlives the facts it was costed from.
    fn planned(
        &self,
        logical: &LogicalPlan,
        dop: usize,
        prepared: Option<&PreparedPlan>,
    ) -> Result<PlannedQuery> {
        let knobs = Knobs {
            mode: self.mode,
            dop,
        };
        let (key, valid) = match prepared {
            Some(p) => (
                StoreKey::prepared(&p.shape, p.shape_hash, knobs),
                Validity::Generation(self.catalog.current_generation()),
            ),
            None => (
                StoreKey::adhoc(logical, knobs),
                Validity::Stamp(MemoStamp::current(
                    &self.catalog,
                    Some(&self.avs),
                    Some(&self.feedback),
                )),
            ),
        };
        match self.plan_cache.lookup(&key, valid, logical, &self.catalog) {
            Lookup::Hit(planned) => Ok(planned),
            Lookup::Miss { admit } => {
                let orders = match prepared {
                    Some(_) => plan_cache::orders(logical, &self.catalog),
                    None => Arc::from([]),
                };
                let planned = self.search(logical, dop)?;
                if admit {
                    self.plan_cache.insert(key, valid, &planned, orders);
                }
                Ok(planned)
            }
        }
    }

    /// One cold search in a memo of its own — no engine-wide lock, so
    /// sessions sharing this engine search concurrently.
    fn search(&self, logical: &LogicalPlan, dop: usize) -> Result<PlannedQuery> {
        let ctx = SearchContext {
            avs: Some(&self.avs),
            pmodel: PropertyModel::AttributeStrict,
            dop,
            feedback: Some(&self.feedback),
            ..SearchContext::new(self.mode)
        };
        let mut search = MemoOptimizer::new(&self.catalog, &ctx);
        let planned = search.optimize(logical);
        self.searches.record(search.memo());
        self.obs.record_search(search.memo());
        planned
    }

    /// The optimiser's operational counters, cumulative over every search
    /// this engine ran (rules fired, candidates built, winner-table hits
    /// within a search, feedback applications), plus the group / candidate
    /// population of the **most recent** search's memo — the numbers behind the
    /// `dqo_opt_*` metrics. A statement served from the plan store moves
    /// none of them.
    pub fn memo_stats(&self) -> (MemoStats, usize, usize) {
        let totals = &self.searches;
        (
            MemoStats {
                rules_fired: totals.rules_fired.load(Ordering::Relaxed),
                candidates_built: totals.candidates_built.load(Ordering::Relaxed),
                winner_hits: totals.winner_hits.load(Ordering::Relaxed),
                feedback_applied: totals.feedback_applied.load(Ordering::Relaxed),
            },
            totals.last_groups.load(Ordering::Relaxed),
            totals.last_candidates.load(Ordering::Relaxed),
        )
    }

    /// The session's adaptive-feedback store: selectivity corrections
    /// learned from traced executions, consumed by the optimiser on
    /// every subsequent plan.
    pub fn feedback(&self) -> &FeedbackStore {
        &self.feedback
    }

    /// Optimise and execute. In shared-pool mode this blocks in the
    /// pool's FIFO admission queue while `max_inflight` queries are
    /// already running, and plans at the admission-granted DOP.
    pub fn query(&self, logical: &LogicalPlan) -> Result<QueryResult> {
        self.run(logical, None, self.new_trace())
    }

    /// [`Engine::query`] continuing an existing trace — the SQL facade
    /// times parse/bind into the same trace before handing over, so the
    /// final [`QueryProfile`] covers the full statement lifecycle.
    pub fn query_traced(&self, logical: &LogicalPlan, trace: TraceBuilder) -> Result<QueryResult> {
        self.run(logical, None, trace)
    }

    fn new_trace(&self) -> TraceBuilder {
        if self.tracing {
            TraceBuilder::start()
        } else {
            TraceBuilder::disabled()
        }
    }

    /// The one statement driver: admission → plan → execute. Admission
    /// waiting, planning and execution are each timed separately:
    /// `queue_wait` is measured around `admit()` itself, so time spent
    /// queued behind other sessions is neither folded into nor hidden
    /// from the execution wall time.
    fn run(
        &self,
        logical: &LogicalPlan,
        prepared: Option<&PreparedPlan>,
        mut trace: TraceBuilder,
    ) -> Result<QueryResult> {
        let began = trace.begin();
        let permit = self
            .pool
            .as_ref()
            .map(|pool| pool.admission().admit(self.threads));
        let queue_wait = trace.end(Phase::AdmissionWait, began);
        let dop = permit.as_ref().map_or(self.threads, |p| p.dop());

        let began = trace.begin();
        let planned = self.planned(logical, dop, prepared)?;
        let optimise = trace.end(Phase::Optimise, began);
        self.obs.optimise.observe_duration(optimise);

        let result = self.execute_planned(planned, trace, queue_wait);
        drop(permit);
        result
    }

    /// Run an already-optimised plan, record the execute phase and
    /// assemble the [`QueryResult`]. The caller holds the admission
    /// permit across this call.
    fn execute_planned(
        &self,
        planned: PlannedQuery,
        mut trace: TraceBuilder,
        queue_wait: Duration,
    ) -> Result<QueryResult> {
        let began = trace.begin();
        let ctx = ExecContext {
            avs: Some(&self.avs),
            pool: self.pool.as_ref(),
            collect_metrics: trace.is_enabled(),
        };
        let (output, nodes) = execute_with(&planned.plan, &self.catalog, &ctx)?;
        let ops = PlanRuntime { nodes };
        let exec_wall = trace.end(Phase::Execute, began);
        self.obs.exec.observe_duration(exec_wall);
        self.obs.exec_bytes.add(output.bytes_materialised);
        self.obs.join_index_builds.add(output.join_builds.indexes);
        self.obs
            .join_carried_columns
            .add(output.join_builds.carried);
        self.obs.queries.inc();
        self.obs.record_partitions(&planned.plan);
        // Close the adaptive loop: mine the traced per-operator actuals
        // for mis-estimated filters. Recording bumps the feedback epoch,
        // which outdates every stored ad-hoc plan, so the next search
        // re-costs with corrected selectivities.
        if !ops.is_empty() {
            let corrections = self
                .feedback
                .observe_runtime(&planned.plan, &ops, &self.catalog);
            if corrections > 0 {
                self.obs.opt_feedback_corrections.add(corrections as u64);
            }
        }
        Ok(QueryResult {
            planned,
            output,
            wall: queue_wait + exec_wall,
            queue_wait,
            exec_wall,
            profile: trace.finish(),
            ops,
        })
    }

    /// Prepare a logical plan for repeated execution: computes and hashes
    /// the normalised shape the plan store keys on. The statement's
    /// physical plan is optimised lazily — on the first `execute_prepared`
    /// at each (catalog generation, granted DOP) — so preparation itself
    /// is cheap and never blocks on admission.
    pub fn prepare(&self, template: &LogicalPlan) -> PreparedPlan {
        let shape = plan_shape(template);
        PreparedPlan {
            shape_hash: text_hash(&shape),
            shape: shape.into(),
        }
    }

    /// Execute a prepared statement. `logical` is the template with the
    /// current parameter values spliced in (same shape, different
    /// constants). On a store hit the stored physical plan is rebound to
    /// the fresh constants and optimisation is skipped entirely; on a
    /// miss the query plans cold and the result is stored. Results are
    /// bit-identical either way: the runtime is deterministic across
    /// plan choices, DOPs and steal orders.
    pub fn execute_prepared(
        &self,
        prepared: &PreparedPlan,
        logical: &LogicalPlan,
    ) -> Result<QueryResult> {
        self.run(logical, Some(prepared), self.new_trace())
    }

    /// The session's plan store (prepared and ad-hoc statements).
    pub fn plan_cache(&self) -> &PlanCache {
        &self.plan_cache
    }

    /// EXPLAIN: the chosen plan, annotated, without executing.
    pub fn explain(&self, logical: &LogicalPlan) -> Result<String> {
        let planned = self.plan(logical)?;
        Ok(format!(
            "mode: {}\nestimated cost: {:.0}\noutput props: {}\n{}",
            planned.mode,
            planned.est_cost,
            planned.props,
            planned.plan.explain()
        ))
    }

    /// EXPLAIN ANALYZE: plan, execute, and annotate with measurements —
    /// a phase-timed header plus the plan tree with per-operator actual
    /// rows, wall time and est-vs-actual cardinality delta on every node
    /// (and DOP/morsels/steals on `Exchange` nodes). With tracing
    /// disabled the tree degrades to the plain EXPLAIN rendering.
    pub fn explain_analyze(&self, logical: &LogicalPlan) -> Result<String> {
        let result = self.query(logical)?;
        self.render_analyzed(&result)
    }

    /// Render an already-executed [`QueryResult`] in the
    /// [`Engine::explain_analyze`] format (the SQL facade reuses this
    /// with its own parse/bind-timed trace).
    pub fn render_analyzed(&self, result: &QueryResult) -> Result<String> {
        let phases = if result.profile.spans.is_empty() {
            String::new()
        } else {
            format!("phases: {}\n", result.profile)
        };
        Ok(format!(
            "mode: {}
estimated cost: {:.0}
actual rows: {}
wall time: {:?} (queue {:?} + exec {:?})
{}pipeline: {}
materialised: {} bytes
{}",
            result.planned.mode,
            result.planned.est_cost,
            result.output.relation.rows(),
            result.wall,
            result.queue_wait,
            result.exec_wall,
            phases,
            result.output.pipeline,
            result.output.bytes_materialised,
            render_annotated(
                &result.planned.plan,
                &self.catalog,
                &result.ops,
                Some(&self.feedback)
            )
        ))
    }

    /// An [`AvBuilder`] wired to this session's catalog, AV catalog and
    /// pool: every build passes the pool's admission controller and runs
    /// its sort or grouping at the granted DOP.
    pub fn av_builder(&self) -> AvBuilder {
        AvBuilder::new(
            Arc::clone(&self.catalog),
            Arc::clone(&self.avs),
            self.pool(),
        )
        .with_requested_dop(self.threads)
    }

    /// Solve AVSP for a workload and materialise the chosen views on the
    /// session's pool (each build admission-controlled; see
    /// [`Engine::av_builder`]).
    pub fn select_and_materialise_avs(
        &self,
        workload: &[WorkloadQuery],
        budget_bytes: usize,
        solver: Solver,
    ) -> Result<AvspSolution> {
        let solution = avsp::solve(workload, &self.catalog, budget_bytes, solver)?;
        self.av_builder().build_solution(&solution)?;
        Ok(solution)
    }

    /// Materialise an AVSP solution **in the background**: the returned
    /// handle's batch trickles through the pool's admission queue (one
    /// in-flight slot at a time, DOP-clamped under load) while this
    /// session keeps serving queries. [`AvBuildHandle::wait`] returns
    /// the per-build [`crate::av_build::AvBuildStats`]. A build thread the
    /// OS refuses is a [`CoreError::Av`](crate::CoreError::Av).
    pub fn materialise_avs_background(&self, solution: &AvspSolution) -> Result<AvBuildHandle> {
        let sigs = solution
            .selected
            .iter()
            .map(|av| av.signature.clone())
            .collect();
        self.av_builder().spawn(sigs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CoreError;
    use dqo_plan::expr::AggExpr;
    use dqo_storage::datagen::DatasetSpec;
    use dqo_storage::DataProps;

    fn engine_with_table(sorted: bool, dense: bool) -> Engine {
        let engine = Engine::new();
        engine.register_table(
            "t",
            DatasetSpec::new(5_000, 64)
                .sorted(sorted)
                .dense(dense)
                .relation()
                .unwrap(),
        );
        engine
    }

    fn count_sum_query() -> std::sync::Arc<LogicalPlan> {
        LogicalPlan::group_by(
            LogicalPlan::scan("t"),
            "key",
            vec![
                AggExpr::count_star("count"),
                AggExpr::on(dqo_plan::AggFunc::Sum, "key", "sum"),
            ],
        )
    }

    #[test]
    fn end_to_end_query() {
        let engine = engine_with_table(false, true);
        let result = engine.query(&count_sum_query()).unwrap();
        assert_eq!(result.output.relation.rows(), 64);
        assert_eq!(result.planned.plan.algo_signature(), vec!["SPHG"]);
        let counts = result
            .output
            .relation
            .column("count")
            .unwrap()
            .as_u64()
            .unwrap();
        assert_eq!(counts.iter().sum::<u64>(), 5_000);
    }

    #[test]
    fn mode_knob_changes_plans() {
        let mut engine = engine_with_table(false, true);
        engine.set_mode(OptimizerMode::Shallow);
        let sqo = engine.plan(&count_sum_query()).unwrap();
        engine.set_mode(OptimizerMode::Deep);
        let dqo = engine.plan(&count_sum_query()).unwrap();
        assert_eq!(sqo.plan.algo_signature(), vec!["HG"]);
        assert_eq!(dqo.plan.algo_signature(), vec!["SPHG"]);
        assert!(dqo.est_cost < sqo.est_cost);
    }

    #[test]
    fn explain_renders() {
        let engine = engine_with_table(true, true);
        let text = engine.explain(&count_sum_query()).unwrap();
        assert!(text.contains("mode: DQO"));
        assert!(text.contains("estimated cost"));
        assert!(text.contains("γ[key]"));
    }

    #[test]
    fn explain_analyze_annotates_every_node_with_est_act_delta() {
        let engine = Engine::new().with_threads(4).with_tracing(true);
        engine.register_table(
            "t",
            DatasetSpec::new(300_000, 512)
                .sorted(false)
                .dense(true)
                .relation()
                .unwrap(),
        );
        let text = engine.explain_analyze(&count_sum_query()).unwrap();
        assert!(text.contains("phases: "), "{text}");
        assert!(
            text.contains("admission-wait=") || text.contains("execute="),
            "{text}"
        );
        // Every plan line carries the runtime annotation.
        let plan_lines: Vec<&str> = text
            .lines()
            .filter(|l| l.contains("Scan") || l.contains("Exchange") || l.contains("γ["))
            .collect();
        assert!(plan_lines.len() >= 3, "{text}");
        for line in &plan_lines {
            assert!(line.contains("est="), "missing est: {line}");
            assert!(line.contains("act="), "missing act: {line}");
            assert!(line.contains("Δ="), "missing delta: {line}");
            assert!(line.contains("wall="), "missing wall: {line}");
        }
        // The Exchange node additionally reports its parallel runtime.
        let exchange = plan_lines
            .iter()
            .find(|l| l.contains("Exchange"))
            .expect("300k rows at dop 4 must parallelise");
        assert!(exchange.contains("dop=4"), "{exchange}");
        assert!(exchange.contains("morsels="), "{exchange}");
        assert!(exchange.contains("steals="), "{exchange}");
    }

    #[test]
    fn tracing_off_matches_traced_results_bitwise() {
        let make = |tracing: bool| {
            let engine = Engine::new().with_threads(4).with_tracing(tracing);
            engine.register_table(
                "t",
                DatasetSpec::new(300_000, 512)
                    .sorted(false)
                    .dense(true)
                    .relation()
                    .unwrap(),
            );
            engine.query(&count_sum_query()).unwrap()
        };
        let traced = make(true);
        let plain = make(false);
        assert_eq!(
            crate::executor::sorted_rows(&traced.output.relation),
            crate::executor::sorted_rows(&plain.output.relation),
            "instrumentation must not change results"
        );
        assert_eq!(traced.output.pipeline, plain.output.pipeline);
        assert!(!traced.profile.spans.is_empty());
        assert!(!traced.ops.is_empty());
        assert!(plain.profile.spans.is_empty());
        assert!(plain.ops.is_empty());
        // The admission-wait satellite: both report the split either way.
        assert_eq!(traced.wall, traced.queue_wait + traced.exec_wall);
    }

    #[test]
    fn metrics_registry_counts_queries_and_phases() {
        let registry = Arc::new(MetricsRegistry::new());
        let pool = Arc::new(PersistentPool::with_admission(2, 4));
        let engine = Engine::with_shared_pool(Arc::clone(&pool))
            .with_metrics_registry(Arc::clone(&registry))
            .with_tracing(true);
        engine.register_table(
            "t",
            DatasetSpec::new(5_000, 64).dense(true).relation().unwrap(),
        );
        for _ in 0..3 {
            engine.query(&count_sum_query()).unwrap();
        }
        let snap = engine.metrics();
        assert_eq!(snap.counter(names::ENGINE_QUERIES), Some(3));
        let (opt_count, opt_sum) = snap.histogram_count_sum(names::OPTIMISE_SECONDS).unwrap();
        assert_eq!(opt_count, 3);
        assert!(opt_sum > 0.0);
        let (exec_count, _) = snap.histogram_count_sum(names::EXEC_SECONDS).unwrap();
        assert_eq!(exec_count, 3);
        // Merged pool side: every query passed admission, and the wait
        // histogram agrees with the admitted count.
        assert_eq!(snap.counter(names::ADMISSION_ADMITTED), Some(3));
        let (wait_count, _) = snap
            .histogram_count_sum(names::ADMISSION_WAIT_SECONDS)
            .unwrap();
        assert_eq!(wait_count, 3);
    }

    #[test]
    fn plan_store_serves_repeats_and_every_clock_forces_a_search() {
        let registry = Arc::new(MetricsRegistry::new());
        let engine = engine_with_table(false, true)
            .with_metrics_registry(Arc::clone(&registry))
            .with_tracing(false);
        let q = count_sum_query();
        let fired = || engine.memo_stats().0.rules_fired;

        // First sighting searches; the second searches and is admitted;
        // from the third on the store answers and no rule fires.
        let p1 = engine.plan(&q).unwrap();
        let (stats, groups, candidates) = engine.memo_stats();
        assert!(groups > 0 && candidates > 0);
        let per_search = stats.rules_fired;
        assert!(per_search > 0);
        assert!(engine.plan_cache().is_empty());
        engine.plan(&q).unwrap();
        assert_eq!(fired(), 2 * per_search);
        assert_eq!(engine.plan_cache().len(), 1);
        let p3 = engine.plan(&q).unwrap();
        assert_eq!(p1.plan.explain(), p3.plan.explain());
        assert_eq!(p1.est_cost.to_bits(), p3.est_cost.to_bits());
        assert_eq!(fired(), 2 * per_search, "a stored plan fires no rule");
        // `query` and `plan` share the store.
        engine.query(&q).unwrap();
        assert_eq!(fired(), 2 * per_search);
        // The memo is one search's: its size is the plan's, not history's.
        assert_eq!(engine.memo_stats().1, groups);

        // The dqo_opt_* metrics mirror the totals.
        let snap = registry.snapshot();
        assert_eq!(snap.gauge(names::OPT_GROUPS), Some(groups as u64));
        assert_eq!(snap.counter(names::OPT_RULES_FIRED), Some(2 * per_search));
        let built = engine.memo_stats().0.candidates_built;
        assert!(built > 0);
        assert_eq!(snap.counter(names::OPT_CANDIDATES_BUILT), Some(built));
        assert_eq!(snap.counter(names::PLAN_CACHE_HITS), Some(2));

        // Each of the stamp's three clocks outdates the stored plan, and
        // the statement is re-admitted by the search that follows.
        let mut expected = 2 * per_search;
        let mut assert_researched = |what: &str| {
            engine.plan(&q).unwrap();
            assert!(fired() > expected, "{what} must force a search");
            expected = fired();
            engine.plan(&q).unwrap();
            assert_eq!(fired(), expected, "{what}: re-admitted at once");
        };
        engine.register_table(
            "t",
            DatasetSpec::new(5_000, 64).dense(true).relation().unwrap(),
        );
        assert_researched("DDL");
        engine.insert("t", &[vec![Value::U32(0)]]).unwrap();
        assert_researched("an INSERT's statistics bump");
        assert!(engine.feedback().record("t", "key = ?", 25.0, (0, 0)));
        assert_researched("a recorded correction");
        let workload = vec![WorkloadQuery::new(q.clone(), 100.0)];
        engine
            .select_and_materialise_avs(&workload, usize::MAX, Solver::Greedy)
            .unwrap();
        assert_researched("AV materialisation");
        assert_eq!(engine.plan_cache().len(), 1, "one statement, one entry");
    }

    #[test]
    fn thread_knob_defaults_and_clamps() {
        let engine = Engine::new();
        assert!(engine.threads() >= 1);
        let engine = Engine::new().with_threads(0);
        assert_eq!(engine.threads(), 1);
        let mut engine = Engine::new();
        engine.set_threads(8);
        assert_eq!(engine.threads(), 8);
    }

    #[test]
    fn small_inputs_stay_serial_even_with_many_threads() {
        // 5k rows: the startup term dominates, so the optimiser must not
        // emit an Exchange no matter how many workers are offered.
        let mut engine = engine_with_table(false, true);
        engine.set_threads(16);
        let planned = engine.plan(&count_sum_query()).unwrap();
        assert!(
            !planned.plan.explain().contains("Exchange"),
            "plan: {}",
            planned.plan.explain()
        );
    }

    #[test]
    fn large_inputs_parallelise_and_agree_with_serial() {
        let make = |threads: usize| {
            let engine = Engine::new().with_threads(threads);
            engine.register_table(
                "t",
                DatasetSpec::new(300_000, 512)
                    .sorted(false)
                    .dense(true)
                    .relation()
                    .unwrap(),
            );
            engine
        };
        let serial_engine = make(1);
        let serial = serial_engine.query(&count_sum_query()).unwrap();
        assert!(!serial.planned.plan.explain().contains("Exchange"));
        let par_engine = make(4);
        let par = par_engine.query(&count_sum_query()).unwrap();
        assert!(
            par.planned.plan.explain().contains("Exchange dop=4"),
            "plan: {}",
            par.planned.plan.explain()
        );
        // Parallel grouping output is sorted by key; serial SPHG output
        // is too, so the relations must match row for row.
        assert_eq!(
            crate::executor::sorted_rows(&par.output.relation),
            crate::executor::sorted_rows(&serial.output.relation)
        );
        assert!(par.planned.est_cost < serial.planned.est_cost);
    }

    #[test]
    fn shared_pool_mode_admits_and_matches_serial() {
        let pool = Arc::new(PersistentPool::with_admission(2, 2));
        let register = |engine: &Engine| {
            engine.register_table(
                "t",
                DatasetSpec::new(200_000, 256)
                    .sorted(false)
                    .dense(true)
                    .relation()
                    .unwrap(),
            );
        };
        let serial = Engine::new().with_threads(1);
        register(&serial);
        let reference = serial.query(&count_sum_query()).unwrap();

        let session = Engine::with_shared_pool(Arc::clone(&pool));
        assert_eq!(session.threads(), 2);
        register(&session);
        let result = session.query(&count_sum_query()).unwrap();
        assert!(
            result.planned.plan.explain().contains("Exchange"),
            "200k rows at dop 2 must parallelise: {}",
            result.planned.plan.explain()
        );
        assert_eq!(
            crate::executor::sorted_rows(&result.output.relation),
            crate::executor::sorted_rows(&reference.output.relation)
        );
        // The admission controller saw the query through.
        assert_eq!(pool.admission().inflight(), 0);
        assert!(pool.admission().peak_inflight() >= 1);
    }

    #[test]
    fn reregistering_a_table_never_serves_stale_avs() {
        // Regression: AVs are snapshots; replacing the base table must
        // invalidate them (and their hidden `__av::` relations), or the
        // engine answers queries from the old data.
        let engine = engine_with_table(false, true);
        let q = count_sum_query();
        let workload = vec![WorkloadQuery::new(q.clone(), 100.0)];
        engine
            .select_and_materialise_avs(&workload, usize::MAX, crate::avsp::Solver::Greedy)
            .unwrap();
        assert!(!engine.avs().signatures().is_empty());
        let grouped_via_av = engine.query(&q).unwrap();
        assert_eq!(grouped_via_av.output.relation.rows(), 64);

        // Replace the table with 16 groups over half the rows: every
        // answer derived from the old 64-group snapshot is now wrong.
        engine.register_table(
            "t",
            DatasetSpec::new(2_500, 16)
                .sorted(false)
                .dense(true)
                .relation()
                .unwrap(),
        );
        assert!(
            engine.avs().signatures().is_empty(),
            "AVs built from the old data must be invalidated"
        );
        assert!(
            engine
                .catalog()
                .table_names()
                .iter()
                .all(|n| !n.starts_with("__av::")),
            "hidden AV relations must be deregistered"
        );
        let fresh = engine.query(&q).unwrap();
        assert_eq!(fresh.output.relation.rows(), 16);
        let counts = fresh
            .output
            .relation
            .column("count")
            .unwrap()
            .as_u64()
            .unwrap();
        assert_eq!(counts.iter().sum::<u64>(), 2_500);
    }

    #[test]
    fn drop_table_invalidates_avs_too() {
        let engine = engine_with_table(false, true);
        let q = count_sum_query();
        let workload = vec![WorkloadQuery::new(q, 1.0)];
        engine
            .select_and_materialise_avs(&workload, usize::MAX, crate::avsp::Solver::Greedy)
            .unwrap();
        assert!(engine.drop_table("t"));
        assert!(engine.avs().signatures().is_empty());
        assert!(engine
            .catalog()
            .table_names()
            .iter()
            .all(|n| !n.starts_with("__av::")));
        assert!(!engine.drop_table("t"));
    }

    #[test]
    fn background_av_builds_respect_admission_while_queries_run() {
        let pool = Arc::new(PersistentPool::with_admission(2, 2));
        let engine = Engine::with_shared_pool(Arc::clone(&pool));
        engine.register_table(
            "t",
            DatasetSpec::new(150_000, 128)
                .sorted(false)
                .dense(true)
                .relation()
                .unwrap(),
        );
        let q = count_sum_query();
        let workload = vec![WorkloadQuery::new(q.clone(), 10.0)];
        let solution =
            avsp::solve(&workload, engine.catalog(), usize::MAX, Solver::Greedy).unwrap();
        assert!(!solution.selected.is_empty());
        let handle = engine.materialise_avs_background(&solution).unwrap();
        // Queries keep flowing while the batch trickles through
        // admission behind them.
        for _ in 0..4 {
            let r = engine.query(&q).unwrap();
            assert_eq!(r.output.relation.rows(), 128);
        }
        let stats = handle.wait().unwrap();
        assert_eq!(stats.len(), solution.selected.len());
        assert!(stats.iter().all(|s| s.granted_dop >= 1));
        // The admission bound held across builds + queries combined.
        assert!(pool.admission().peak_inflight() <= 2);
        assert_eq!(pool.admission().inflight(), 0);
        // The built AVs serve subsequent queries.
        for sig in engine.avs().signatures() {
            assert!(engine.avs().get(&sig).unwrap().is_materialised());
        }
    }

    #[test]
    fn background_build_racing_table_replacement_never_leaves_stale_avs() {
        // Regression for the build-vs-DDL race: a background build whose
        // base table is replaced mid-flight must fail its generation
        // check and discard the artifact (superseded), never publish a
        // stale one. Run several rounds so both interleavings (build
        // finishes before / after the replacement) occur.
        let q = count_sum_query();
        for round in 0..8u64 {
            let pool = Arc::new(PersistentPool::new(2));
            let engine = Engine::with_shared_pool(Arc::clone(&pool));
            engine.register_table(
                "t",
                DatasetSpec::new(200_000, 64)
                    .sorted(false)
                    .dense(true)
                    .seed(round)
                    .relation()
                    .unwrap(),
            );
            let workload = vec![WorkloadQuery::new(q.clone(), 10.0)];
            let solution =
                avsp::solve(&workload, engine.catalog(), usize::MAX, Solver::Greedy).unwrap();
            let handle = engine.materialise_avs_background(&solution).unwrap();
            // Replace the table while the batch may be mid-build.
            engine.register_table(
                "t",
                DatasetSpec::new(1_000, 16)
                    .sorted(false)
                    .dense(true)
                    .relation()
                    .unwrap(),
            );
            let stats = handle.wait().unwrap();
            assert_eq!(stats.len(), solution.selected.len(), "round={round}");
            // Whatever interleaving happened: queries answer from the
            // new data, never a stale artifact.
            let result = engine.query(&q).unwrap();
            assert_eq!(result.output.relation.rows(), 16, "round={round}");
            let counts = result
                .output
                .relation
                .column("count")
                .unwrap()
                .as_u64()
                .unwrap();
            assert_eq!(counts.iter().sum::<u64>(), 1_000, "round={round}");
            // Hidden `__av::` relations only exist for registered AVs
            // (no leaked stale snapshots).
            let sigs = engine.avs().signatures();
            for name in engine.catalog().table_names() {
                if name.starts_with("__av::") {
                    assert!(
                        sigs.iter().any(|s| s.av_table_name() == name),
                        "round={round}: orphaned hidden relation {name}"
                    );
                }
            }
        }
    }

    #[test]
    fn publish_racing_reregistration_keeps_every_av_paired_with_its_relation() {
        // A build from the *new* snapshot publishes the moment the
        // re-registration is visible, i.e. while that registration is
        // invalidating the old views. Whatever the interleaving, every
        // registered view must keep its hidden relation and no hidden
        // relation may outlive its view.
        use crate::av::{materialise_av, AvKind, AvSignature};
        let sig = AvSignature::new("t", "key", AvKind::SortedProjection);
        let rel = Relation::single_u32("key", vec![3, 1, 2]);
        for round in 0..500 {
            let engine = Engine::new().with_threads(1);
            engine.register_table("t", rel.clone());
            let old = engine.catalog().get("t").unwrap();
            let av = materialise_av(&old, &sig, None).unwrap();
            engine
                .avs()
                .publish(engine.catalog(), av.clone(), &old, None)
                .unwrap();
            let start = std::sync::Barrier::new(2);
            std::thread::scope(|scope| {
                scope.spawn(|| {
                    start.wait();
                    engine.register_table("t", rel.clone());
                });
                start.wait();
                let fresh = loop {
                    match engine.catalog().get("t") {
                        Ok(e) if e.generation != old.generation => break e,
                        _ => std::hint::spin_loop(),
                    }
                };
                engine.avs().publish(engine.catalog(), av, &fresh, None);
            });
            let sigs = engine.avs().signatures();
            let hidden: Vec<String> = engine
                .catalog()
                .table_names()
                .into_iter()
                .filter(|n| n.starts_with("__av::"))
                .collect();
            for s in &sigs {
                assert!(
                    hidden.contains(&s.av_table_name()),
                    "round={round}: view {s} lost its hidden relation"
                );
            }
            for name in &hidden {
                assert!(
                    sigs.iter().any(|s| &s.av_table_name() == name),
                    "round={round}: orphaned hidden relation {name}"
                );
            }
        }
    }

    #[test]
    fn insert_racing_reregistration_never_undoes_the_ddl() {
        // `register_table` takes no mutation lock, so it can publish E1
        // between an insert's snapshot of E0 and its swap. The swap must
        // then be refused: writing E0's rows plus the delta back under
        // E1's generation would silently undo the re-registration.
        let e0 = Relation::single_u32("key", vec![3, 1, 2]);
        let e1 = Relation::single_u32("key", vec![7, 7, 7, 7]);
        for round in 0..500 {
            let engine = Engine::new().with_threads(1);
            engine.register_table("t", e0.clone());
            let start = std::sync::Barrier::new(2);
            let inserted = std::thread::scope(|scope| {
                scope.spawn(|| {
                    start.wait();
                    engine.register_table("t", e1.clone());
                });
                start.wait();
                engine.insert("t", &[vec![Value::U32(9)]])
            });
            let entry = engine.catalog().get("t").unwrap();
            let keys = entry.relation.column("key").unwrap().as_u32().unwrap();
            match inserted {
                // Before the DDL (which then replaced it) or after it.
                Ok(_) => assert!(
                    keys == [7, 7, 7, 7] || keys == [7, 7, 7, 7, 9],
                    "round={round}: {keys:?}"
                ),
                Err(e) => {
                    assert!(
                        matches!(e, CoreError::TableChanged(_)),
                        "round={round}: {e}"
                    );
                    assert_eq!(keys, [7, 7, 7, 7], "round={round}");
                }
            }
            assert_eq!(
                entry.column_props["key"],
                DataProps::compute(keys),
                "round={round}"
            );
        }
    }

    #[test]
    fn insert_maintains_grouping_av_and_keeps_plans_cached() {
        let registry = Arc::new(MetricsRegistry::new());
        let engine = engine_with_table(false, true).with_metrics_registry(Arc::clone(&registry));
        let q = count_sum_query();
        let workload = vec![WorkloadQuery::new(q.clone(), 100.0)];
        engine
            .select_and_materialise_avs(&workload, usize::MAX, Solver::Greedy)
            .unwrap();
        let prepared = engine.prepare(&q);
        let before = engine.execute_prepared(&prepared, &q).unwrap();
        assert_eq!(before.output.relation.rows(), 64);

        // Append rows for key 0 and a plan-cache-visible re-execution.
        let report = engine
            .insert("t", &[vec![Value::U32(0)], vec![Value::U32(0)]])
            .unwrap();
        assert_eq!(report.rows_inserted, 2);
        assert!(!report.maintenance.outcomes.is_empty());
        let after = engine.execute_prepared(&prepared, &q).unwrap();
        let counts = after
            .output
            .relation
            .column("count")
            .unwrap()
            .as_u64()
            .unwrap();
        assert_eq!(counts.iter().sum::<u64>(), 5_002);

        // The data clock is not the DDL clock: the second execution hit
        // the cached plan even though the table's rows changed.
        let snap = registry.snapshot();
        assert_eq!(snap.counter(names::PLAN_CACHE_HITS), Some(1));
        assert_eq!(snap.counter(names::PLAN_CACHE_MISSES), Some(1));
        assert!(snap.counter(names::AV_DELTA_MERGES).unwrap_or(0) >= 1);
    }

    #[test]
    fn insert_into_unknown_table_errors() {
        let engine = Engine::new();
        assert!(engine.insert("missing", &[vec![Value::U32(1)]]).is_err());
    }

    #[test]
    fn avsp_materialisation_speeds_up_workload() {
        let engine = engine_with_table(false, true);
        let q = count_sum_query();
        let workload = vec![WorkloadQuery::new(q.clone(), 100.0)];
        let before = engine.plan(&q).unwrap().est_cost;
        let solution = engine
            .select_and_materialise_avs(&workload, usize::MAX, Solver::Greedy)
            .unwrap();
        assert!(solution.benefit > 0.0);
        let after = engine.plan(&q).unwrap().est_cost;
        assert!(
            after < before,
            "AV must reduce planned cost: {after} vs {before}"
        );
        // And the query still returns correct results through the AV.
        let result = engine.query(&q).unwrap();
        assert_eq!(result.output.relation.rows(), 64);
        let counts = result
            .output
            .relation
            .column("count")
            .unwrap()
            .as_u64()
            .unwrap();
        assert_eq!(counts.iter().sum::<u64>(), 5_000);
    }
}
