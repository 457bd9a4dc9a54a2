//! Algorithmic Views (AVs) — §3 of the paper.
//!
//! *"In DQO … it makes sense to precompute certain granules offline
//! (before a query comes in). We coin these precomputed components
//! **Algorithmic Views**. AVs can be precomputed for any level, not only
//! 'physical' operators. Like that, AVs can be used as building blocks for
//! DQO at query time to speed-up plan enumeration."*
//!
//! Three AV kinds ship here, one per granularity of interest:
//!
//! * [`AvKind::SortedProjection`] — a sorted copy of a table by one key: a
//!   *property-establishing* AV (provides the `sorted` plan property at
//!   zero query-time cost; subsumes a clustered index);
//! * [`AvKind::SphIndex`] — a prebuilt static-perfect-hash join index (a
//!   *synthesised data structure* in the sense of Idreos et al., which the
//!   paper calls "one particular type of an AV");
//! * [`AvKind::MaterialisedGrouping`] — a fully precomputed grouping
//!   result: the boundary case where an AV degenerates into a classic
//!   materialised view.
//!
//! AVs can be **planned** (signature + size/cost metadata only — what the
//! AVSP solvers reason over) or **materialised** (artifact built). The
//! optimiser treats an applicable AV as a zero-build-cost alternative.
//!
//! A materialised AV has **one lifecycle**, and each step has one home:
//!
//! 1. **build** — [`materialise_av`]: a pure function from a table
//!    snapshot to the [`Av`]; no catalog is touched;
//! 2. **publish** — [`AvCatalog::publish`]: the only function that
//!    registers or swaps a hidden `__av::` relation and the only one that
//!    inserts a built or maintained artifact, after checking under the
//!    catalog's write lock that the snapshot is still the table;
//! 3. **maintain** — [`crate::av_delta`]: per kind, a pure function from
//!    (published artifact, combined snapshot, delta) to the next artifact,
//!    published the same way.

use crate::av_delta::tail_limit;
use crate::catalog::{Catalog, RowDelta, SortedPrefix, TableEntry};
use crate::cost::{CostModel, TupleCostModel};
use crate::error::CoreError;
use crate::Result;
use dqo_exec::aggregate::{CountSum, CountSumState};
use dqo_exec::composite::{rowwise_group, unpack_grouped, KeyPacker};
use dqo_exec::join::JoinIndex;
use dqo_parallel::{
    parallel_argsort, parallel_grouping, GroupingStrategy, ThreadPool, DEFAULT_MORSEL_ROWS,
};
use dqo_plan::{AggExpr, AggFunc, GroupingAlgorithm, PlanProps, SortMolecule};
use dqo_storage::{Column, DataProps, DataType, Field, Relation, Schema, Sortedness};
use parking_lot::RwLock;
use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

/// The kind of precomputed granule.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AvKind {
    /// Sorted copy of the table by the key column.
    SortedProjection,
    /// Prebuilt SPH join index on the key column (dense domains only).
    SphIndex,
    /// Precomputed `GROUP BY key` (one column or several) with the
    /// aggregates of [`grouping_aggs`].
    MaterialisedGrouping,
}

impl fmt::Display for AvKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            AvKind::SortedProjection => "sorted-projection",
            AvKind::SphIndex => "sph-index",
            AvKind::MaterialisedGrouping => "materialised-grouping",
        })
    }
}

/// Identity of an AV: (table, key column, kind).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct AvSignature {
    /// Base table.
    pub table: String,
    /// Key column.
    pub column: String,
    /// Kind of granule.
    pub kind: AvKind,
}

/// The canonical key-column name of a **composite** AV: component columns
/// joined with `+` (`"a+b"`). Composite signatures reuse the ordinary
/// [`AvSignature`] plumbing; the builders split the name back apart.
pub fn composite_column_name(keys: &[String]) -> String {
    keys.join("+")
}

impl AvSignature {
    /// Construct a signature.
    pub fn new(table: impl Into<String>, column: impl Into<String>, kind: AvKind) -> Self {
        AvSignature {
            table: table.into(),
            column: column.into(),
            kind,
        }
    }

    /// Construct a composite-key signature over `keys` (in order).
    pub fn composite(table: impl Into<String>, keys: &[String], kind: AvKind) -> Self {
        AvSignature::new(table, composite_column_name(keys), kind)
    }

    /// Whether this signature's key is a composite (multi-column) key.
    pub fn is_composite(&self) -> bool {
        self.column.contains('+')
    }

    /// The key column names (one for plain signatures, several for
    /// composites), in key order.
    pub fn key_columns(&self) -> Vec<&str> {
        self.column.split('+').collect()
    }

    /// The hidden catalog name a relation-shaped artifact registers under.
    pub fn av_table_name(&self) -> String {
        format!("__av::{}::{}::{}", self.kind, self.table, self.column)
    }
}

/// The base table whose rows a scan of catalog relation `name` reads:
/// `name` itself, or, for a sorted projection's hidden relation (a
/// reordered copy of its table), that table. `None` for a materialised
/// grouping's hidden relation, whose rows are groups.
pub(crate) fn rows_source(name: &str) -> Option<&str> {
    match name.strip_prefix("__av::") {
        None => Some(name),
        Some(hidden) => hidden
            .strip_prefix("sorted-projection::")?
            .rsplit_once("::")
            .map(|(table, _)| table),
    }
}

impl fmt::Display for AvSignature {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "AV[{} on {}.{}]", self.kind, self.table, self.column)
    }
}

/// A materialised artifact.
#[derive(Debug, Clone)]
pub enum AvArtifact {
    /// Rows of the base table: the first `.1` of them sorted by the key
    /// column, then a tail in append order that INSERTs extended (see
    /// [`crate::av_delta`]). Readers see the rows in key order — the
    /// prefix merged with the stably sorted tail, what a rebuild holds
    /// (`SortedPrefix::key_order`).
    SortedProjection(Arc<Relation>, usize),
    /// Prebuilt SPH join index (an identity slot map) over the key column.
    SphIndex(Arc<JoinIndex>),
    /// `(keys…, count, sum)` relation, in ascending key-tuple order.
    MaterialisedGrouping(Arc<Relation>),
}

/// One algorithmic view: identity, metadata, optionally the artifact.
#[derive(Debug, Clone)]
pub struct Av {
    /// Identity.
    pub signature: AvSignature,
    /// Built artifact (`None` while merely *planned* by an AVSP solver).
    pub artifact: Option<AvArtifact>,
    /// One-off build cost in cost-model units (charged offline).
    pub build_cost: f64,
    /// Storage footprint in bytes.
    pub byte_size: usize,
    /// The plan properties the AV provides to consumers.
    pub provides: PlanProps,
}

impl Av {
    /// Whether the artifact is built.
    pub fn is_materialised(&self) -> bool {
        self.artifact.is_some()
    }
}

/// Derive a composite key's statistics from its per-column `DataProps`
/// (through `key_props`, the one helper AV planning and the optimiser's
/// grouping rule read a key's statistics with): the distinct count
/// multiplies (capped by the row count), the packed range spans the mixed-radix
/// product, and the packed domain counts as dense only when every
/// component is dense, the product fits `u32` **and** the resulting SPH
/// array stays proportional to the data (`sph_slots_bounded`: at most
/// max(4·rows, 2¹⁶) slots).
pub fn combine_composite_props(cols: &[DataProps]) -> DataProps {
    let mut rows = 0u64;
    let mut distinct: u128 = 1;
    let mut all_dense = true;
    for p in cols {
        rows = rows.max(p.rows);
        distinct *= u128::from(p.distinct.max(1));
        all_dense &= p.density.is_dense() && p.rows > 0;
    }
    let span = composite_span(cols);
    let packable = composite_packs(cols);
    let bounded = sph_slots_bounded(span, rows);
    let distinct = u64::try_from(distinct).unwrap_or(u64::MAX).min(rows.max(1));
    DataProps {
        sortedness: Sortedness::Unsorted,
        density: if all_dense && packable && bounded {
            dqo_storage::Density::Dense
        } else {
            dqo_storage::Density::Unknown
        },
        distinct,
        min: 0,
        max: u32::try_from(span.max(1) - 1).unwrap_or(u32::MAX),
        rows,
    }
}

/// Whether an SPH array of `slots` slots stays proportional to `rows`
/// rows: at most max(4·rows, 2¹⁶) slots. The bound under which a packed
/// composite domain counts as dense, and under which [`plan_av`] admits
/// an SPH index — beyond it the array would cost memory out of all
/// proportion to the data.
pub(crate) fn sph_slots_bounded(slots: u128, rows: u64) -> bool {
    slots <= u128::from(rows.max(1)).saturating_mul(4).max(1 << 16)
}

/// The size of a composite key's packed code domain: the product of its
/// columns' value spans.
fn composite_span(cols: &[DataProps]) -> u128 {
    cols.iter()
        .map(|p| u128::from(p.sph_domain().unwrap_or(1).max(1)))
        .product()
}

/// Whether composite keys within these columns' ranges pack into the
/// `u32` code domain, as [`KeyPacker::fit`] requires — else the executor
/// groups them with the serial row-wise kernel.
pub(crate) fn composite_packs(cols: &[DataProps]) -> bool {
    composite_span(cols) <= u128::from(u32::MAX) + 1
}

/// A key's statistics from its columns' `DataProps`: one column's own, a
/// composite's [`combine_composite_props`].
pub(crate) fn key_props(cols: &[DataProps]) -> DataProps {
    match cols {
        [one] => *one,
        _ => combine_composite_props(cols),
    }
}

/// Statistics backing a signature, read from one table snapshot: its key
/// columns' `key_props`. Taking the **entry** rather than the catalog is
/// what keeps a build racing DDL coherent: a second
/// catalog lookup could return a table registered in between, and the
/// build would then run old keys against the new table's domain (an SPH
/// kernel error instead of a superseded build).
pub fn signature_props(entry: &TableEntry, sig: &AvSignature) -> Result<DataProps> {
    let cols: Vec<DataProps> = sig
        .key_columns()
        .iter()
        .map(|col| {
            entry
                .column_props
                .get(*col)
                .copied()
                .ok_or_else(|| CoreError::UnknownColumn(format!("{}.{col}", sig.table)))
        })
        .collect::<Result<_>>()?;
    Ok(key_props(&cols))
}

/// Plan an AV (metadata only) from a table snapshot's statistics.
/// Composite keys admit sorted projections and materialised groupings; a
/// composite SPH *join* index has no composite join to serve and is
/// rejected, and so is an SPH index whose key domain exceeds
/// `sph_slots_bounded` (one wide key would otherwise allocate an array
/// of billions of slots).
///
/// `build_cost` is Table 2's price of the kernels [`materialise_av`]
/// runs: a sort for a sorted projection, one scan for an SPH index, a
/// hash grouping (plus the pack pass per extra composite key column) for
/// a materialised grouping.
pub fn plan_av(entry: &TableEntry, sig: &AvSignature) -> Result<Av> {
    if sig.is_composite() && sig.kind == AvKind::SphIndex {
        return Err(CoreError::Unsupported(format!(
            "composite-key SPH index {sig} (joins are single-key)"
        )));
    }
    let props = signature_props(entry, sig)?;
    let rows = props.rows as f64;
    let cost = TupleCostModel;
    let mut provides = PlanProps::from_data(&props);
    let (build_cost, byte_size) = match sig.kind {
        AvKind::SortedProjection => {
            provides.sortedness = Sortedness::Ascending;
            provides.partitioned = true;
            (cost.sort(rows), entry.relation.byte_size())
        }
        AvKind::SphIndex => {
            let domain = props.sph_domain().unwrap_or(0);
            if !sph_slots_bounded(u128::from(domain), props.rows) {
                return Err(CoreError::Av(format!(
                    "{sig}: a key domain of {domain} slots over {} rows is too sparse \
                     for an SPH index",
                    props.rows
                )));
            }
            (
                cost.scan(rows),
                (domain as usize + 1 + props.rows as usize) * 4,
            )
        }
        AvKind::MaterialisedGrouping => {
            provides.rows = props.distinct;
            provides.sortedness = Sortedness::Ascending;
            provides.partitioned = true;
            let key_width = sig.key_columns().len();
            let groups = props.distinct as f64;
            (
                cost.grouping(GroupingAlgorithm::HashBased, rows, groups)
                    + cost.composite_key_pack(rows, key_width),
                grouping_bytes(props.distinct, key_width),
            )
        }
    };
    Ok(Av {
        signature: sig.clone(),
        artifact: None,
        build_cost,
        byte_size,
        provides,
    })
}

/// The key columns of `sig` in `rel`, in key order.
pub(crate) fn key_columns<'r>(rel: &'r Relation, sig: &AvSignature) -> Result<Vec<&'r [u32]>> {
    let column = |k: &&str| Ok(rel.column(k)?.as_u32()?);
    sig.key_columns().iter().map(column).collect()
}

/// The stable ascending order of the rows of `key_cols` (lexicographic
/// for composites): row ids sorted by `(key tuple, row id)` — the order
/// every sorted projection is in, whether built here or maintained by
/// [`crate::av_delta`]. A composite whose tuples pack into the `u32` code
/// domain sorts its packed codes (packing preserves lexicographic order)
/// with the single-key kernels; one that does not falls back to a
/// comparison sort over the raw tuples, identically with or without a
/// pool.
pub(crate) fn key_order(key_cols: &[&[u32]], pool: Option<&ThreadPool>) -> Result<Vec<u32>> {
    let sort = |keys: &[u32]| Ok(parallel_argsort(pool, keys, SortMolecule::Comparison, &[])?.0);
    if let [keys] = key_cols {
        return sort(keys);
    }
    match KeyPacker::fit(key_cols) {
        Some(packer) => sort(&packer.pack(key_cols)),
        None => {
            let mut idx: Vec<u32> = (0..key_cols[0].len() as u32).collect();
            idx.sort_by(|&a, &b| {
                let tuple = |row: u32| key_cols.iter().map(move |c| c[row as usize]);
                tuple(a).cmp(tuple(b))
            });
            Ok(idx)
        }
    }
}

/// **Build**: materialise `sig`'s artifact from one table snapshot. Pure
/// — it reads `entry` and returns the [`Av`]; nothing becomes visible
/// until [`AvCatalog::publish`] accepts it.
///
/// Each kind is built by the kernels a query already runs: a sorted
/// projection is `key_order`'s sort followed by a gather into buffers
/// with room for the tail INSERTs append ([`Relation::gather_with_room`]), an
/// SPH index is [`JoinIndex::identity`] — what a fresh SPHJ builds at
/// query time — and a materialised grouping is `group_tuples`'s
/// SPHG/HG. The sort and the grouping run on `pool`, or with `None` on
/// the caller thread; the other two are single passes on the caller
/// thread. The artifact is the same at any DOP or steal order:
/// `tests/parallel_oracle.rs` checks every kind with no pool and at DOP
/// 1, 2 and 8 against a reference built from `dqo-exec`'s kernels.
/// Offline batch builds go through [`crate::av_build::AvBuilder`], which
/// adds admission control and the publish step.
pub fn materialise_av(
    entry: &TableEntry,
    sig: &AvSignature,
    pool: Option<&ThreadPool>,
) -> Result<Av> {
    let mut av = plan_av(entry, sig)?;
    let base = &entry.relation;
    let key_cols = key_columns(base, sig)?;
    let props = signature_props(entry, sig)?;
    av.artifact = Some(match sig.kind {
        AvKind::SortedProjection => {
            let order = key_order(&key_cols, pool)?;
            // Room for the tail, so INSERTs extend the projection in place
            // from the first. (Twice the rows, the room an append's copy
            // gives, made scans of the projection ~30 % slower on a 2-core
            // x86-64 box.)
            let room = 2 * tail_limit(order.len());
            let sorted = base.gather_with_room(&order, room);
            AvArtifact::SortedProjection(Arc::new(sorted), order.len())
        }
        AvKind::SphIndex => {
            let keys = key_cols[0]; // plan_av rejected composite indexes
            let index = JoinIndex::identity(keys, props.min, props.max)?;
            av.byte_size = index.byte_size();
            AvArtifact::SphIndex(Arc::new(index))
        }
        AvKind::MaterialisedGrouping => {
            let dense = props.rows > 0 && props.density.is_dense();
            let (cols, states) = group_tuples(&key_cols, dense, pool)?;
            let rel = grouping_relation(base, &sig.key_columns(), cols, &states)?;
            AvArtifact::MaterialisedGrouping(Arc::new(rel))
        }
    });
    Ok(av)
}

/// The aggregates a materialised grouping on keys `first_key, …` stores,
/// in column order after its key columns: `COUNT(*) AS count, SUM(first_key)
/// AS sum`. This list is the grouping AV's definition — the optimiser's
/// rule answers a `GROUP BY` with the view only when its aggregate list is
/// exactly this one, and the artifact's columns are named by it — so the
/// view answers the query it stores and no other.
pub fn grouping_aggs(first_key: &str) -> [AggExpr; 2] {
    [
        AggExpr::count_star("count"),
        AggExpr::on(AggFunc::Sum, first_key, "sum"),
    ]
}

/// A materialised grouping's storage: one `u32` per key column plus the
/// `u64` count and sum, per group.
pub(crate) fn grouping_bytes(groups: u64, key_width: usize) -> usize {
    groups as usize * (4 * key_width + 16)
}

/// Group the rows of `key_cols` by key tuple into COUNT(*) and
/// SUM(first key column) states, returned as per-key-column vectors in
/// ascending tuple order. One path for any arity: the tuple packs into
/// `u32` codes ([`KeyPacker`]; a single column only subtracts its
/// minimum), SPHG groups them when `dense` (the key's statistics admit an
/// SPH array) and HG otherwise, and the codes unpack. A tuple that does
/// not pack runs the deterministic row-wise kernel. The result does not
/// depend on the strategy or on `pool`: every path emits exactly-merged
/// decomposable states in tuple order.
pub(crate) fn group_tuples(
    key_cols: &[&[u32]],
    dense: bool,
    pool: Option<&ThreadPool>,
) -> Result<(Vec<Vec<u32>>, Vec<CountSumState>)> {
    let Some(packer) = KeyPacker::fit(key_cols) else {
        return Ok(rowwise_group(key_cols, key_cols[0], CountSum));
    };
    let codes = packer.pack(key_cols);
    let strategy = match dense {
        true => GroupingStrategy::StaticPerfectHash {
            min: 0,
            max: u32::try_from(packer.domain() - 1).expect("a packed domain fits u32"),
        },
        false => GroupingStrategy::Hash(Default::default()),
    };
    let bounds = [0, codes.len()];
    let (grouped, _) = parallel_grouping(
        pool,
        &codes,
        key_cols[0],
        CountSum,
        strategy,
        &bounds,
        DEFAULT_MORSEL_ROWS,
    )?;
    Ok(unpack_grouped(&packer, grouped))
}

/// Assemble the relation a materialised grouping stores — one column per
/// key (its base-table type and dictionary kept), then the
/// [`grouping_aggs`] columns — from key-tuple-sorted groups. The one
/// assembler for a build and for the incremental maintainer
/// ([`crate::av_delta`]), so both emit the exact same schema.
pub(crate) fn grouping_relation(
    base: &Relation,
    key_names: &[&str],
    key_cols: Vec<Vec<u32>>,
    states: &[CountSumState],
) -> Result<Relation> {
    let mut fields = Vec::with_capacity(key_names.len() + 2);
    let mut columns = Vec::with_capacity(key_names.len() + 2);
    for (name, data) in key_names.iter().zip(key_cols) {
        let dtype = base.schema().field(name)?.data_type;
        fields.push(Field::new(*name, dtype));
        columns.push(match dtype {
            DataType::Str => Column::Str(data),
            _ => Column::U32(data),
        });
    }
    let [count, sum] = grouping_aggs(key_names[0]);
    fields.push(Field::new(count.alias, DataType::U64));
    fields.push(Field::new(sum.alias, DataType::U64));
    columns.push(Column::U64(states.iter().map(|s| s.count).collect()));
    columns.push(Column::U64(states.iter().map(|s| s.sum).collect()));
    let mut rel = Relation::new(Schema::new(fields)?, columns)?;
    for (idx, name) in key_names.iter().enumerate() {
        if let Some(dict) = base.dictionary(name)? {
            rel = rel.with_dictionary_at(idx, Arc::clone(dict))?;
        }
    }
    Ok(rel)
}

/// The AV catalog: the set of views the optimiser may assume.
#[derive(Debug, Default)]
pub struct AvCatalog {
    views: RwLock<HashMap<AvSignature, Arc<Av>>>,
    /// Bumps on every registration, removal or invalidation — the AV
    /// half of the optimiser memo's staleness stamp (the set of scan/
    /// grouping alternatives a memoised group enumerated depends on
    /// which AVs existed at the time).
    generation: std::sync::atomic::AtomicU64,
}

impl AvCatalog {
    /// An empty catalog.
    pub fn new() -> Self {
        AvCatalog::default()
    }

    fn bump(&self) {
        self.generation
            .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    }

    /// The AV catalog's change clock: two reads returning the same value
    /// guarantee the set of registered AVs did not change in
    /// between — the optimiser memo's invalidation signal.
    pub fn generation(&self) -> u64 {
        self.generation.load(std::sync::atomic::Ordering::Relaxed)
    }

    /// Register a *planned* AV (or, in tests, a hand-made one) without any
    /// currency check. Artifacts built or maintained from table data go
    /// through [`AvCatalog::publish`].
    pub fn register(&self, av: Av) -> Arc<Av> {
        let av = Arc::new(av);
        self.views
            .write()
            .insert(av.signature.clone(), Arc::clone(&av));
        self.bump();
        av
    }

    /// **Publish**: the one way a built or maintained artifact becomes
    /// visible. Under this catalog's write lock it (1) checks that
    /// `table`'s registration *and* data generation are still those of
    /// `built_from` — the snapshot the artifact was computed from — and
    /// refuses otherwise (`None`; nothing was touched, no clock moved);
    /// (2) for a relation-shaped artifact, makes the artifact itself the
    /// hidden [`AvSignature::av_table_name`] relation plans scan — swapped
    /// through [`Catalog::replace_data`] when it exists (data clock only:
    /// stored plans survive and observe the new rows), first-registered
    /// otherwise (DDL clock: stored plans re-plan and may now use the
    /// view) — with a sorted projection's prefix length in the entry
    /// ([`TableEntry::sorted_prefix`]) while its tail is not empty; (3)
    /// inserts the entry. A maintained artifact passes `delta`, the rows it
    /// gained over the artifact it replaces, so the hidden relation's
    /// statistics fold instead of being recomputed.
    ///
    /// The check cannot interleave with [`AvCatalog::invalidate_table`],
    /// which takes the same lock *after* the DDL that calls it has moved
    /// the table's generation: a build that lost a race with DDL or an
    /// append is either refused here or removed by that invalidation.
    ///
    /// **Lock order: AV views → catalog tables.** This function holds the
    /// views lock across its catalog calls; nothing may take the views
    /// lock while holding the table catalog's.
    pub fn publish(
        &self,
        catalog: &Catalog,
        av: Av,
        built_from: &TableEntry,
        delta: Option<RowDelta<'_>>,
    ) -> Option<Arc<Av>> {
        let mut views = self.views.write();
        let snapshot = (built_from.generation, built_from.data_generation);
        if catalog.table_stats_version(&av.signature.table) != Some(snapshot) {
            return None;
        }
        let relation = match &av.artifact {
            Some(AvArtifact::SortedProjection(rel, prefix)) => {
                let key = av.signature.key_columns().into_iter().map(String::from);
                let tail = *prefix < rel.rows();
                Some((
                    rel,
                    tail.then(|| SortedPrefix {
                        rows: *prefix,
                        key: key.collect(),
                    }),
                ))
            }
            Some(AvArtifact::MaterialisedGrouping(rel)) => Some((rel, None)),
            _ => None,
        };
        if let Some((rel, prefix)) = relation {
            let hidden = av.signature.av_table_name();
            // Only publish writes hidden relations, under this lock, so
            // the swap fails only when the relation is not registered yet.
            let swapped = catalog.stored(&hidden).and_then(|current| {
                let rows = Arc::clone(rel);
                catalog.replace_sorted(&hidden, &current, rows, delta, prefix.clone())
            });
            if swapped.is_err() {
                catalog.register_sorted(hidden, Arc::clone(rel), prefix);
            }
        }
        let av = Arc::new(av);
        views.insert(av.signature.clone(), Arc::clone(&av));
        self.bump();
        Some(av)
    }

    /// Remove an AV; returns whether it existed.
    pub fn remove(&self, sig: &AvSignature) -> bool {
        let existed = self.views.write().remove(sig).is_some();
        if existed {
            self.bump();
        }
        existed
    }

    /// Drop every AV built from `table` and deregister
    /// their hidden `__av::` relations from `catalog`, returning the
    /// removed signatures.
    ///
    /// Must be called whenever the base table's data changes (re-register
    /// or drop): artifacts are snapshots, and a catalog that keeps
    /// serving them after the data moved would answer queries from stale
    /// data — the bug `Engine::register_table` guards against.
    ///
    /// The hidden relations are dropped under the views write lock (lock
    /// order views → tables, as in [`AvCatalog::publish`]): a publish
    /// from the new snapshot therefore lands either before the removal
    /// (and is removed with it) or after the drop (and registers its own
    /// relation) — never in between, where the drop would take the
    /// relation its entry scans.
    pub fn invalidate_table(&self, catalog: &Catalog, table: &str) -> Vec<AvSignature> {
        let mut views = self.views.write();
        let mut removed = Vec::new();
        views.retain(|sig, _| {
            if sig.table == table {
                removed.push(sig.clone());
                false
            } else {
                true
            }
        });
        for sig in &removed {
            catalog.drop_table(&sig.av_table_name());
        }
        self.bump();
        removed
    }

    /// Look up an AV by signature.
    pub fn get(&self, sig: &AvSignature) -> Option<Arc<Av>> {
        self.views.read().get(sig).cloned()
    }

    /// Look up by (table, column, kind) parts.
    pub fn lookup(&self, table: &str, column: &str, kind: AvKind) -> Option<Arc<Av>> {
        self.get(&AvSignature::new(table, column, kind))
    }

    /// All registered signatures.
    pub fn signatures(&self) -> Vec<AvSignature> {
        self.views.read().keys().cloned().collect()
    }

    /// Total bytes across registered AVs.
    pub fn total_bytes(&self) -> usize {
        self.views.read().values().map(|v| v.byte_size).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dqo_exec::grouping::hg::hash_grouping_chaining;
    use dqo_exec::sort::argsort;
    use dqo_storage::datagen::DatasetSpec;

    fn catalog_with_t(sorted: bool, dense: bool) -> Catalog {
        let cat = Catalog::new();
        cat.register(
            "t",
            DatasetSpec::new(2_000, 40)
                .sorted(sorted)
                .dense(dense)
                .relation()
                .unwrap(),
        );
        cat
    }

    #[test]
    fn plan_av_metadata() {
        let cat = catalog_with_t(false, true);
        let sig = AvSignature::new("t", "key", AvKind::SortedProjection);
        let av = plan_av(&cat.get("t").unwrap(), &sig).unwrap();
        assert!(!av.is_materialised());
        assert!(av.build_cost > 0.0);
        assert!(av.byte_size >= 2_000 * 4);
        assert!(av.provides.sortedness.is_sorted());
    }

    #[test]
    fn materialise_is_pure_and_publish_registers_the_hidden_relation() {
        let cat = catalog_with_t(false, true);
        let avs = AvCatalog::new();
        let entry = cat.get("t").unwrap();
        let (ddl, stats) = (cat.current_generation(), cat.stats_generation());
        let sig = AvSignature::new("t", "key", AvKind::SortedProjection);
        let av = materialise_av(&entry, &sig, None).unwrap();
        assert!(av.is_materialised());
        assert!(cat.get(&sig.av_table_name()).is_err(), "build is pure");
        assert_eq!(
            (cat.current_generation(), cat.stats_generation()),
            (ddl, stats)
        );

        assert!(avs.publish(&cat, av.clone(), &entry, None).is_some());
        // Registered as a hidden table with sorted stats.
        let props = cat.column_props(&sig.av_table_name(), "key").unwrap();
        assert!(props.sortedness.is_sorted());
        assert_eq!(props.rows, 2_000);
        assert!(cat.current_generation() > ddl, "first registration is DDL");

        // Republishing swaps the hidden relation on the data clock only.
        let ddl = cat.current_generation();
        assert!(avs.publish(&cat, av, &entry, None).is_some());
        assert_eq!(cat.current_generation(), ddl);
        assert_eq!(cat.data_generation_of(&sig.av_table_name()), Some(1));
    }

    #[test]
    fn materialise_sph_index() {
        let cat = catalog_with_t(false, true);
        let sig = AvSignature::new("t", "key", AvKind::SphIndex);
        let av = materialise_av(&cat.get("t").unwrap(), &sig, None).unwrap();
        match av.artifact {
            Some(AvArtifact::SphIndex(idx)) => {
                let probe = idx.probe(&[0, 39]);
                assert!(!probe.is_empty());
            }
            other => panic!("expected SPH index, got {other:?}"),
        }
    }

    #[test]
    fn materialise_grouping_matches_data() {
        let cat = catalog_with_t(false, true);
        let sig = AvSignature::new("t", "key", AvKind::MaterialisedGrouping);
        let av = materialise_av(&cat.get("t").unwrap(), &sig, None).unwrap();
        let Some(AvArtifact::MaterialisedGrouping(grouped)) = av.artifact else {
            panic!("expected a grouping artifact");
        };
        assert_eq!(grouped.rows(), 40);
        let counts = grouped.column("count").unwrap().as_u64().unwrap();
        assert_eq!(counts.iter().sum::<u64>(), 2_000);
    }

    /// The one tuple argsort: `(key tuple, row id)` order, whether the
    /// tuples pack into `u32` codes or need the comparison fallback.
    #[test]
    fn key_order_is_stable_and_lexicographic() {
        let a = [1u32, 0, 1, 0, 1];
        let b = [2u32, 9, 1, 9, 1];
        assert_eq!(key_order(&[&a, &b], None).unwrap(), [1, 3, 2, 4, 0]);
        // Spans whose product leaves the u32 code domain cannot pack.
        let wide = [u32::MAX, 0, u32::MAX, 0, u32::MAX];
        assert!(KeyPacker::fit(&[&wide, &wide]).is_none());
        assert_eq!(key_order(&[&wide, &b], None).unwrap(), [1, 3, 2, 4, 0]);
        assert_eq!(key_order(&[&b], None).unwrap(), [2, 4, 0, 1, 3]);
    }

    #[test]
    fn av_catalog_register_lookup_remove() {
        let cat = catalog_with_t(true, true);
        let avs = AvCatalog::new();
        let sig = AvSignature::new("t", "key", AvKind::SphIndex);
        avs.register(plan_av(&cat.get("t").unwrap(), &sig).unwrap());
        assert!(avs.lookup("t", "key", AvKind::SphIndex).is_some());
        assert!(avs.lookup("t", "key", AvKind::SortedProjection).is_none());
        assert_eq!(avs.signatures().len(), 1);
        assert!(avs.total_bytes() > 0);
        assert!(avs.remove(&sig));
        assert!(!avs.remove(&sig));
    }

    #[test]
    fn sph_av_on_sparse_domain_fails_to_materialise() {
        let cat = catalog_with_t(false, false);
        let entry = cat.get("t").unwrap();
        let sig = AvSignature::new("t", "key", AvKind::SphIndex);
        // The sparse domain would need an array far larger than the data
        // (past max(4·rows, 2¹⁶) slots): planning refuses it with a typed
        // error, and so does a build, before allocating anything.
        let domain = entry.column_props["key"].sph_domain().unwrap();
        assert!(!sph_slots_bounded(u128::from(domain), 2_000), "{domain}");
        assert!(matches!(plan_av(&entry, &sig), Err(CoreError::Av(_))));
        assert!(matches!(
            materialise_av(&entry, &sig, None),
            Err(CoreError::Av(_))
        ));
    }

    /// `sig`'s artifact over `entry` and its byte size, from `dqo-exec`'s
    /// kernels alone: `argsort` then `Relation::gather`,
    /// `JoinIndex::identity`, or `hash_grouping_chaining` then
    /// `sort_by_key`.
    fn reference(entry: &TableEntry, sig: &AvSignature) -> (AvArtifact, usize) {
        let keys = entry
            .relation
            .column(&sig.column)
            .unwrap()
            .as_u32()
            .unwrap();
        let planned = plan_av(entry, sig).unwrap().byte_size;
        match sig.kind {
            AvKind::SortedProjection => {
                let sorted = entry.relation.gather(&argsort(keys));
                let rows = sorted.rows();
                (
                    AvArtifact::SortedProjection(Arc::new(sorted), rows),
                    planned,
                )
            }
            AvKind::SphIndex => {
                let props = entry.column_props[&sig.column];
                let index = JoinIndex::identity(keys, props.min, props.max).unwrap();
                let bytes = index.byte_size();
                (AvArtifact::SphIndex(Arc::new(index)), bytes)
            }
            AvKind::MaterialisedGrouping => {
                let mut g = hash_grouping_chaining(keys, keys, CountSum, keys.len().min(1 << 20));
                g.sort_by_key();
                let key = [sig.column.as_str()];
                let rel =
                    grouping_relation(&entry.relation, &key, vec![g.keys], &g.states).unwrap();
                (AvArtifact::MaterialisedGrouping(Arc::new(rel)), planned)
            }
        }
    }

    /// Fast unit smoke for the build (the exhaustive seed × skew × DOP
    /// matrix lives in `tests/parallel_oracle.rs`): one realistic table
    /// plus the degenerate empty/single-row bases, all three kinds, with
    /// no pool and at DOP 4, against the `dqo-exec` reference.
    #[test]
    fn pooled_build_matches_serial_smoke() {
        let pool = ThreadPool::new(4);
        for data in [
            None, // the 2k-row datagen table
            Some(vec![]),
            Some(vec![42u32]),
        ] {
            let cat = match &data {
                None => catalog_with_t(false, true),
                Some(rows) => {
                    let cat = Catalog::new();
                    cat.register("t", Relation::single_u32("key", rows.clone()));
                    cat
                }
            };
            for kind in [
                AvKind::SortedProjection,
                AvKind::SphIndex,
                AvKind::MaterialisedGrouping,
            ] {
                let sig = AvSignature::new("t", "key", kind);
                let entry = cat.get("t").unwrap();
                let (expect, bytes) = reference(&entry, &sig);
                for leg in [None, Some(&pool)] {
                    let par = materialise_av(&entry, &sig, leg).unwrap();
                    let ctx = format!(
                        "{kind} rows={:?} pool={}",
                        data.as_ref().map(Vec::len),
                        leg.is_some()
                    );
                    assert_eq!(par.byte_size, bytes, "{ctx}");
                    match (par.artifact.unwrap(), expect.clone()) {
                        (
                            AvArtifact::SortedProjection(p, _),
                            AvArtifact::SortedProjection(s, _),
                        )
                        | (
                            AvArtifact::MaterialisedGrouping(p),
                            AvArtifact::MaterialisedGrouping(s),
                        ) => {
                            assert_eq!(p.rows(), s.rows(), "{ctx}");
                            for c in 0..s.schema().width() {
                                assert_eq!(
                                    format!("{:?}", p.column_at(c).unwrap()),
                                    format!("{:?}", s.column_at(c).unwrap()),
                                    "{ctx} column={c}"
                                );
                            }
                        }
                        (AvArtifact::SphIndex(p), AvArtifact::SphIndex(s)) => {
                            assert_eq!(p, s, "{ctx}")
                        }
                        other => panic!("{ctx}: artifact kinds diverged: {other:?}"),
                    }
                }
            }
        }
    }

    #[test]
    fn invalidate_table_drops_its_views_only() {
        let cat = catalog_with_t(false, true);
        let avs = AvCatalog::new();
        let t = cat.get("t").unwrap();
        avs.register(plan_av(&t, &AvSignature::new("t", "key", AvKind::SphIndex)).unwrap());
        avs.register(plan_av(&t, &AvSignature::new("t", "key", AvKind::SortedProjection)).unwrap());
        // A view on another table must survive.
        let u = cat.register("u", Relation::single_u32("key", vec![1, 2, 3]));
        avs.register(plan_av(&u, &AvSignature::new("u", "key", AvKind::SortedProjection)).unwrap());

        let removed = avs.invalidate_table(&cat, "t");
        assert_eq!(removed.len(), 2);
        assert!(removed.iter().all(|sig| sig.table == "t"));
        assert!(avs.lookup("t", "key", AvKind::SphIndex).is_none());
        assert!(avs.lookup("u", "key", AvKind::SortedProjection).is_some());
        assert!(avs.invalidate_table(&cat, "t").is_empty(), "idempotent");
    }

    #[test]
    fn av_table_name_is_unique_per_signature() {
        let a = AvSignature::new("t", "k", AvKind::SphIndex).av_table_name();
        let b = AvSignature::new("t", "k", AvKind::SortedProjection).av_table_name();
        let c = AvSignature::new("u", "k", AvKind::SphIndex).av_table_name();
        assert_ne!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn only_sorted_projections_read_their_base_tables_rows() {
        let keys = ["a".to_owned(), "b".to_owned()];
        let sorted = AvSignature::composite("t", &keys, AvKind::SortedProjection);
        assert_eq!(rows_source(&sorted.av_table_name()), Some("t"));
        let grouped = AvSignature::new("t", "k", AvKind::MaterialisedGrouping);
        assert_eq!(rows_source(&grouped.av_table_name()), None);
        assert_eq!(rows_source("t"), Some("t"));
    }
}
