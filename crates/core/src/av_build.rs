//! The offline AV build service: batch-materialise an AVSP solution on
//! the shared persistent pool, under admission control.
//!
//! §3's trade-off is "how much time do I want to spend on DQO offline?"
//! — and on a serving system that offline time competes with live
//! queries for the same workers. [`AvBuilder`] makes the competition
//! explicit and bounded:
//!
//! * every AV build passes the pool's
//!   [`AdmissionController`](dqo_parallel::AdmissionController) exactly
//!   like a query — it occupies one in-flight slot, waits FIFO behind
//!   earlier arrivals, and its DOP is clamped to the fair share while
//!   other queries run, so the admission bound holds with builds and
//!   queries multiplexed on one pool;
//! * builds are **low priority by construction**: a batch admits one
//!   build at a time (never more than a single in-flight slot for the
//!   whole batch) and [`AvBuilder::spawn`] runs the batch on a
//!   background thread so the session thread keeps serving;
//! * each build reports [`AvBuildStats`]: granted DOP, bytes, the
//!   measured wall time and, beside it, the Table 2 cost
//!   [`plan_av`](crate::av::plan_av) prices the build at — the one
//!   formula for an AV build.
//!
//! A build is the first two steps of the AV lifecycle: the pure
//! [`materialise_av`] over one table snapshot at the granted DOP (the
//! same artifact at any DOP, no pool included), then
//! [`AvCatalog::publish`], which refuses the artifact if the table moved
//! meanwhile. A refused build leaves no trace.

use crate::av::{materialise_av, AvCatalog, AvSignature};
use crate::avsp::AvspSolution;
use crate::catalog::{Catalog, TableEntry};
use crate::error::CoreError;
use crate::Result;
use dqo_obs::{names, Counter, Histogram, DURATION_BUCKETS};
use dqo_parallel::{PersistentPool, ThreadPool};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Measurements and estimates for one completed AV build.
#[derive(Debug, Clone)]
pub struct AvBuildStats {
    /// What was built.
    pub signature: AvSignature,
    /// DOP the builder asked admission for.
    pub requested_dop: usize,
    /// DOP admission actually granted (clamped under load).
    pub granted_dop: usize,
    /// Build wall time, admission wait excluded.
    pub wall: Duration,
    /// Artifact footprint in bytes.
    pub bytes: usize,
    /// Table 2's price of the build in tuple operations — the
    /// `build_cost` [`plan_av`](crate::av::plan_av) gives the view.
    pub est_cost: f64,
    /// True when the base table was replaced (or dropped) while this
    /// build ran: the stale artifact was **discarded**, not registered.
    pub superseded: bool,
}

/// Batch-materialises AVs on a shared pool through its admission
/// controller. Cheap to clone; see the module docs for the policy.
#[derive(Debug, Clone)]
pub struct AvBuilder {
    pub(crate) catalog: Arc<Catalog>,
    pub(crate) avs: Arc<AvCatalog>,
    pool: Arc<PersistentPool>,
    requested_dop: usize,
    builds: Counter,
    bytes: Counter,
    wall: Histogram,
}

impl AvBuilder {
    /// A builder materialising into `avs` from `catalog`, dispatching on
    /// `pool` and requesting the pool's full worker count per build
    /// (admission clamps it under load). Build counters/bytes/wall land
    /// in the pool's metrics registry (where the admission metrics for
    /// these builds already live).
    pub fn new(catalog: Arc<Catalog>, avs: Arc<AvCatalog>, pool: Arc<PersistentPool>) -> Self {
        let requested_dop = pool.threads();
        let registry = Arc::clone(pool.metrics_registry());
        AvBuilder {
            catalog,
            avs,
            pool,
            requested_dop,
            builds: registry.counter(names::AV_BUILDS),
            bytes: registry.counter(names::AV_BUILD_BYTES),
            wall: registry.histogram(names::AV_BUILD_SECONDS, &DURATION_BUCKETS),
        }
    }

    /// Override the DOP requested from admission (clamped to ≥ 1).
    pub fn with_requested_dop(mut self, dop: usize) -> Self {
        self.requested_dop = dop.max(1);
        self
    }

    /// Build one AV: admit, materialise the current table snapshot at the
    /// granted DOP, publish, release the slot.
    ///
    /// The build holds the table's [mutation lock](Catalog::mutation_lock)
    /// from its snapshot to its publish, so an append can never supersede
    /// it: an INSERT waits, then maintains what the build published, and a
    /// background rebuild an INSERT spawned snapshots only after that
    /// INSERT finished. The lock is taken *after* admission (a writer
    /// never waits behind the admission queue's view of this build). DDL
    /// takes no lock — a build races table replacement by design — and is
    /// caught by the publish step instead.
    pub fn build(&self, sig: &AvSignature) -> Result<AvBuildStats> {
        let permit = self.pool.admission().admit(self.requested_dop);
        let table_lock = self.catalog.mutation_lock(&sig.table);
        let _write_guard = table_lock.lock();
        let entry = self.catalog.stored(&sig.table)?;
        self.build_from(&entry, sig, permit.dop())
    }

    /// Materialise `sig` from the snapshot `entry` and publish it. When
    /// the table was replaced or dropped since `entry` was read, the
    /// artifact is discarded — no relation registered, no clock moved —
    /// and the stats report [`AvBuildStats::superseded`].
    fn build_from(
        &self,
        entry: &TableEntry,
        sig: &AvSignature,
        granted_dop: usize,
    ) -> Result<AvBuildStats> {
        let tp = ThreadPool::with_pool(granted_dop, Arc::clone(&self.pool));
        let start = Instant::now();
        let av = materialise_av(entry, sig, Some(&tp))?;
        let wall = start.elapsed();
        let (bytes, est_cost) = (av.byte_size, av.build_cost);
        let published = self.avs.publish(&self.catalog, av, entry, None).is_some();
        self.builds.inc();
        self.bytes.add(bytes as u64);
        self.wall.observe_duration(wall);
        Ok(AvBuildStats {
            signature: sig.clone(),
            requested_dop: self.requested_dop,
            granted_dop,
            wall,
            bytes,
            est_cost,
            superseded: !published,
        })
    }

    /// Build a batch in order, one admission slot at a time.
    pub fn build_batch(&self, sigs: &[AvSignature]) -> Result<Vec<AvBuildStats>> {
        sigs.iter().map(|sig| self.build(sig)).collect()
    }

    /// Build every view an AVSP solver selected.
    pub fn build_solution(&self, solution: &AvspSolution) -> Result<Vec<AvBuildStats>> {
        let sigs: Vec<AvSignature> = solution
            .selected
            .iter()
            .map(|av| av.signature.clone())
            .collect();
        self.build_batch(&sigs)
    }

    /// Run `build_batch` on a background thread — the offline-build mode:
    /// queries keep flowing on the session thread while the builds
    /// trickle through admission behind them. A thread the OS refuses is
    /// a [`CoreError::Av`].
    pub fn spawn(&self, sigs: Vec<AvSignature>) -> Result<AvBuildHandle> {
        let builder = self.clone();
        let thread = std::thread::Builder::new()
            .name("dqo-av-build".into())
            .spawn(move || builder.build_batch(&sigs))
            .map_err(|e| CoreError::Av(format!("cannot spawn the AV build thread: {e}")))?;
        Ok(AvBuildHandle { thread })
    }
}

/// Join handle for a background AV build batch.
#[derive(Debug)]
pub struct AvBuildHandle {
    thread: std::thread::JoinHandle<Result<Vec<AvBuildStats>>>,
}

impl AvBuildHandle {
    /// Block until the batch finished; surfaces the first build error,
    /// or an [`CoreError::Av`] if the build thread itself panicked.
    pub fn wait(self) -> Result<Vec<AvBuildStats>> {
        self.thread
            .join()
            .map_err(|_| CoreError::Av("background AV build thread panicked".into()))?
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::av::{plan_av, AvArtifact, AvKind};
    use dqo_exec::join::JoinIndex;
    use dqo_storage::datagen::DatasetSpec;

    fn setup(rows: usize, groups: usize) -> (Arc<Catalog>, Arc<AvCatalog>) {
        let catalog = Arc::new(Catalog::new());
        catalog.register(
            "t",
            DatasetSpec::new(rows, groups)
                .sorted(false)
                .dense(true)
                .relation()
                .unwrap(),
        );
        (catalog, Arc::new(AvCatalog::new()))
    }

    #[test]
    fn builds_register_artifacts_and_report_stats() {
        let (catalog, avs) = setup(50_000, 128);
        let pool = Arc::new(PersistentPool::new(2));
        let builder = AvBuilder::new(Arc::clone(&catalog), Arc::clone(&avs), pool);
        let sigs = vec![
            AvSignature::new("t", "key", AvKind::SortedProjection),
            AvSignature::new("t", "key", AvKind::SphIndex),
            AvSignature::new("t", "key", AvKind::MaterialisedGrouping),
        ];
        let stats = builder.build_batch(&sigs).unwrap();
        assert_eq!(stats.len(), 3);
        for s in &stats {
            assert!(s.granted_dop >= 1);
            assert!(s.bytes > 0);
            let planned = plan_av(&catalog.get("t").unwrap(), &s.signature).unwrap();
            assert_eq!(s.est_cost, planned.build_cost, "{s:?}");
            assert!(s.est_cost > 0.0, "{s:?}");
            assert!(avs.get(&s.signature).unwrap().is_materialised());
        }
        // Relation-shaped artifacts are scannable through the catalog.
        assert!(catalog.get(&sigs[0].av_table_name()).is_ok());
        assert!(catalog.get(&sigs[2].av_table_name()).is_ok());
    }

    #[test]
    fn built_artifacts_match_the_serial_reference() {
        let (catalog, avs) = setup(30_000, 64);
        let pool = Arc::new(PersistentPool::new(4));
        let builder = AvBuilder::new(Arc::clone(&catalog), Arc::clone(&avs), pool);
        let sig = AvSignature::new("t", "key", AvKind::SphIndex);
        builder.build(&sig).unwrap();
        let entry = catalog.get("t").unwrap();
        let keys = entry.relation.column("key").unwrap().as_u32().unwrap();
        let props = entry.column_props["key"];
        let expect = JoinIndex::identity(keys, props.min, props.max).unwrap();
        match avs.get(&sig).unwrap().artifact.as_ref() {
            Some(AvArtifact::SphIndex(built)) => assert_eq!(**built, expect),
            other => panic!("expected an SPH artifact, got {other:?}"),
        }
    }

    /// A build whose table moved before it publishes — re-registered
    /// (DDL) or appended to (data clock) — must not move the DDL,
    /// statistics or AV clock (which would flush every stored plan), must
    /// not leave a hidden relation behind, and must say so.
    #[test]
    fn superseded_build_leaves_no_trace() {
        let (catalog, avs) = setup(5_000, 32);
        let pool = Arc::new(PersistentPool::new(2));
        let builder = AvBuilder::new(Arc::clone(&catalog), Arc::clone(&avs), pool);
        for (kind, append) in [
            (AvKind::SortedProjection, false),
            (AvKind::MaterialisedGrouping, true),
        ] {
            let sig = AvSignature::new("t", "key", kind);
            let snapshot = catalog.get("t").unwrap();
            let same_rows = (*snapshot.relation).clone();
            if append {
                catalog
                    .replace_data("t", &snapshot, same_rows, None)
                    .unwrap();
            } else {
                catalog.register("t", same_rows);
            }
            let clocks = (
                catalog.current_generation(),
                catalog.stats_generation(),
                avs.generation(),
            );
            let stats = builder.build_from(&snapshot, &sig, 2).unwrap();
            assert!(stats.superseded, "{sig}");
            assert_eq!(
                (
                    catalog.current_generation(),
                    catalog.stats_generation(),
                    avs.generation()
                ),
                clocks,
                "{sig}: a superseded build moved a clock"
            );
            assert!(catalog.get(&sig.av_table_name()).is_err(), "{sig}");
            assert!(avs.get(&sig).is_none(), "{sig}");
        }
    }

    #[test]
    fn background_batch_respects_the_admission_bound() {
        let (catalog, avs) = setup(120_000, 256);
        let pool = Arc::new(PersistentPool::with_admission(2, 1));
        let builder = AvBuilder::new(catalog, avs, Arc::clone(&pool));
        let handle = builder
            .spawn(vec![
                AvSignature::new("t", "key", AvKind::SortedProjection),
                AvSignature::new("t", "key", AvKind::SphIndex),
                AvSignature::new("t", "key", AvKind::MaterialisedGrouping),
            ])
            .unwrap();
        let stats = handle.wait().unwrap();
        assert_eq!(stats.len(), 3);
        // One build at a time through a max_inflight=1 controller: the
        // peak can never exceed the bound.
        assert!(pool.admission().peak_inflight() <= 1);
        assert_eq!(pool.admission().inflight(), 0);
    }

    #[test]
    fn build_errors_surface_not_panic() {
        let catalog = Arc::new(Catalog::new());
        let avs = Arc::new(AvCatalog::new());
        let pool = Arc::new(PersistentPool::new(1));
        let builder = AvBuilder::new(catalog, avs, pool);
        let missing = AvSignature::new("nope", "key", AvKind::SphIndex);
        assert!(builder.build(&missing).is_err());
        let handle = builder.spawn(vec![missing]).unwrap();
        assert!(handle.wait().is_err());
    }
}
