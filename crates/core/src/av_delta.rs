//! Incremental AV maintenance — the write-path twin of [`crate::av_build`].
//!
//! An INSERT appends rows to a base table; every materialised AV built
//! from that table is a snapshot and would go stale. Rebuilding each view
//! from scratch on every append is the offline build cost charged online,
//! so this module maintains artifacts **incrementally**, one strategy per
//! [`AvKind`]:
//!
//! * [`AvKind::MaterialisedGrouping`] — **delta-merge**: group the delta
//!   keys alone, then merge the two key-sorted `(key, count, sum)` lists.
//!   `u64` additions are exact and commutative, so the merged relation is
//!   bit-identical to grouping the combined column from scratch.
//! * [`AvKind::SortedProjection`] — **staged run-merge**, LSM level-0
//!   style: the maintainer keeps a private `base` run (large, sorted) and
//!   a `tail` run (small, absorbing recent appends). Each delta is
//!   stable-sorted and merged into the tail, and the *published* artifact
//!   is the full `merge(base, tail)` — consumers scan the hidden
//!   `__av::` relation directly, so it must always be completely sorted.
//!   When the tail outgrows [`DeltaPolicy::compact_ratio`], the merged
//!   output is promoted to be the new base (compaction). Because the
//!   serial `argsort` is stable and every run holds a contiguous range of
//!   original row ids, left-first tie-breaking reproduces the
//!   `(key, original row index)` order of a from-scratch rebuild exactly.
//! * [`AvKind::SphIndex`] — **patch-or-rebuild**: when the delta keys fit
//!   the existing dense domain, [`SphIndex::patch`](dqo_exec::join::sphj::SphIndex::patch) widens the CSR in two
//!   passes (bit-identical to a rebuild, since appended row ids follow
//!   all existing ones in scan order). When the domain grew, the stale
//!   index is removed immediately — queries fall back to building the
//!   join index at execution time — and a **background rebuild** is
//!   spawned through the [`AvBuilder`] (admission-controlled, publishing
//!   under the both-clocks generation check).
//!
//! The [`DeltaPolicy`] picks between merge, compact and rebuild using
//! cost-model reasoning: an incremental merge is `O(base + delta)` tuple
//! operations against a rebuild's `O(n log n)` sort, so merging wins
//! until the delta stops being small relative to the base — past
//! [`DeltaPolicy::rebuild_ratio`] a fresh sort costs about the same and
//! resets the run structure. Composite-key groupings always rebuild:
//! their artifact ordering flows through `KeyPacker`/row-wise kernels
//! whose merge semantics are not worth the risk for a multi-column view.
//!
//! Writes serialise per table on [`Catalog::mutation_lock`]; artifacts
//! publish through [`AvCatalog::register_if`] under the same
//! `(generation, data_generation)` two-clock check the background
//! builder uses, so a racing DDL can never resurrect a stale view. The
//! base table is replaced (data clock bump) **before** maintenance runs,
//! which is what makes a concurrent [`AvBuilder`] build started before
//! the insert fail its clock check instead of overwriting a freshly
//! maintained artifact with a pre-insert one.

use crate::av::{
    grouping_relation, materialise_av, materialise_av_on, Av, AvArtifact, AvCatalog, AvKind,
    AvSignature,
};
use crate::av_build::{AvBuildHandle, AvBuilder};
use crate::catalog::Catalog;
use crate::error::CoreError;
use crate::Result;
use dqo_exec::aggregate::{CountSum, CountSumState};
use dqo_exec::grouping::hg::hash_grouping_chaining;
use dqo_exec::grouping::GroupedResult;
use dqo_exec::sort::argsort;
use dqo_obs::{names, Counter, Gauge, Histogram, MetricsRegistry, DURATION_BUCKETS};
use dqo_parallel::ThreadPool;
use dqo_storage::{Relation, Selection};
use parking_lot::RwLock;
use std::cmp::Ordering;
use std::collections::HashMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// How one AV was maintained for one append.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeltaAction {
    /// Folded incrementally (delta-merge, run-merge, or CSR patch).
    Merge,
    /// Run-merge plus promotion of the tail into the base run.
    Compact,
    /// Fell back to a from-scratch rebuild (inline for relation-shaped
    /// artifacts, background via [`AvBuilder`] for SPH indexes).
    Rebuild,
}

/// Cost-model-driven thresholds deciding merge vs compact vs rebuild.
///
/// The underlying comparison is tuple operations (the Table 2 currency):
/// an incremental maintenance step costs `O(base + delta)` (one linear
/// merge) while a rebuild costs `O(n log n)` (sort) or `O(n)` with a
/// constant ≥ the merge's (grouping, CSR fill). Merging therefore wins
/// whenever the delta is small relative to the base, which appends
/// almost always are; the ratios below mark where that stops holding.
#[derive(Debug, Clone, Copy)]
pub struct DeltaPolicy {
    /// Compact the sorted projection's tail into its base once
    /// `tail > compact_ratio · base`: the tail-merge step costs
    /// `O(tail + delta)`, so an unbounded tail would degrade every
    /// append towards `O(n)` twice over.
    pub compact_ratio: f64,
    /// Rebuild instead of merging once `delta > rebuild_ratio · total`:
    /// at that size the merge reads nearly everything a fresh
    /// `n log n` sort would, and rebuilding resets the run structure.
    pub rebuild_ratio: f64,
}

impl Default for DeltaPolicy {
    fn default() -> Self {
        DeltaPolicy {
            compact_ratio: 0.25,
            rebuild_ratio: 0.5,
        }
    }
}

impl DeltaPolicy {
    /// Merge or rebuild a sorted projection, given current run sizes.
    fn sorted_action(&self, total_rows: usize, delta_rows: usize) -> DeltaAction {
        if total_rows > 0 && (delta_rows as f64) > self.rebuild_ratio * total_rows as f64 {
            DeltaAction::Rebuild
        } else {
            DeltaAction::Merge
        }
    }

    /// Whether the tail run should be promoted after this merge.
    fn should_compact(&self, base_rows: usize, tail_rows: usize) -> bool {
        (tail_rows as f64) > self.compact_ratio * base_rows as f64
    }
}

/// One AV's maintenance outcome for one append.
#[derive(Debug)]
pub struct MaintenanceOutcome {
    /// Which view.
    pub signature: AvSignature,
    /// What the policy did.
    pub action: DeltaAction,
    /// Wall time of the inline step (background rebuilds report only
    /// their spawn overhead here; their build time lands in the
    /// `dqo_av_build_*` metrics).
    pub wall: Duration,
    /// Join handle of a background rebuild, when one was spawned.
    pub rebuild: Option<AvBuildHandle>,
}

/// Everything maintained for one append to one table.
#[derive(Debug, Default)]
pub struct MaintenanceReport {
    /// One entry per materialised AV on the table.
    pub outcomes: Vec<MaintenanceOutcome>,
}

impl MaintenanceReport {
    /// Block until every background rebuild spawned by this maintenance
    /// round has published (or been superseded). Tests and benchmarks
    /// use this to make the append → query sequence deterministic.
    pub fn wait_for_rebuilds(&mut self) -> Result<()> {
        for outcome in &mut self.outcomes {
            if let Some(handle) = outcome.rebuild.take() {
                handle.wait()?;
            }
        }
        Ok(())
    }
}

/// The sorted projection's private run structure (LSM level 0).
///
/// `visible` is the artifact last published — checked by pointer against
/// the AV catalog on every append, so state left over from an AV that
/// was invalidated and rebuilt elsewhere self-heals by resetting to
/// `base = current artifact, tail = none`.
#[derive(Debug)]
struct SortedRuns {
    visible: Arc<Relation>,
    base: Arc<Relation>,
    tail: Option<Arc<Relation>>,
}

/// Metric handles for the `dqo_av_delta_*` family.
#[derive(Debug)]
struct DeltaMetrics {
    merges: Counter,
    compactions: Counter,
    rebuilds: Counter,
    rows: Counter,
    backlog: Gauge,
    seconds: Histogram,
}

impl DeltaMetrics {
    fn new(registry: &MetricsRegistry) -> Self {
        DeltaMetrics {
            merges: registry.counter(names::AV_DELTA_MERGES),
            compactions: registry.counter(names::AV_DELTA_COMPACTIONS),
            rebuilds: registry.counter(names::AV_DELTA_REBUILDS),
            rows: registry.counter(names::AV_DELTA_ROWS),
            backlog: registry.gauge(names::AV_DELTA_BACKLOG_ROWS),
            seconds: registry.histogram(names::AV_DELTA_SECONDS, &DURATION_BUCKETS),
        }
    }
}

/// Maintains every materialised AV of a table across appends. One per
/// [`crate::Engine`]; all methods take `&self` (interior mutability for
/// the run structures).
#[derive(Debug)]
pub struct ViewMaintainer {
    policy: DeltaPolicy,
    runs: RwLock<HashMap<AvSignature, SortedRuns>>,
    metrics: DeltaMetrics,
}

impl ViewMaintainer {
    /// A maintainer with the default policy, metrics in `registry`.
    pub fn new(registry: &MetricsRegistry) -> Self {
        ViewMaintainer {
            policy: DeltaPolicy::default(),
            runs: RwLock::new(HashMap::new()),
            metrics: DeltaMetrics::new(registry),
        }
    }

    /// Replace the maintenance policy.
    pub fn set_policy(&mut self, policy: DeltaPolicy) {
        self.policy = policy;
    }

    /// The active policy.
    pub fn policy(&self) -> DeltaPolicy {
        self.policy
    }

    /// Re-register the `dqo_av_delta_*` handles in `registry` (the
    /// engine's isolated-registry builder path).
    pub fn rebind_metrics(&mut self, registry: &MetricsRegistry) {
        self.metrics = DeltaMetrics::new(registry);
    }

    /// Drop run state for every view of `table` (DDL invalidated them).
    pub fn forget_table(&self, table: &str) {
        self.runs.write().retain(|sig, _| sig.table != table);
    }

    /// Maintain every materialised AV of `table` after an append.
    ///
    /// Caller contract (upheld by `Engine::insert`): the table's
    /// [`Catalog::mutation_lock`] is held, and `combined` (base + delta)
    /// has already been published via [`Catalog::replace_data`] — the
    /// data clock moved *before* this runs. `first_row` is the row id of
    /// the first delta row in the combined relation.
    #[allow(clippy::too_many_arguments)]
    pub fn maintain_table(
        &self,
        catalog: &Catalog,
        avs: &AvCatalog,
        builder: &AvBuilder,
        table: &str,
        combined: &Arc<Relation>,
        delta: &Relation,
        first_row: usize,
        pool: Option<&ThreadPool>,
    ) -> Result<MaintenanceReport> {
        // Publish-time clock snapshot: both clocks as of the base's
        // replacement. A DDL racing this maintenance moves `generation`
        // and makes every register_if below a no-op (the DDL's
        // invalidation owns the views from then on).
        let generation = catalog.generation_of(table);
        let data_generation = catalog.data_generation_of(table);
        let still_current = || {
            catalog.generation_of(table) == generation
                && catalog.data_generation_of(table) == data_generation
        };

        let mut report = MaintenanceReport::default();
        let mut sigs: Vec<AvSignature> = avs
            .signatures()
            .into_iter()
            .filter(|sig| sig.table == table)
            .collect();
        // Deterministic maintenance order (signature maps are unordered).
        sigs.sort_by_key(|sig| sig.av_table_name());
        for sig in sigs {
            let Some(av) = avs.get(&sig) else { continue };
            if av.artifact.is_none() {
                // Planned-only views carry no artifact to maintain.
                continue;
            }
            let start = Instant::now();
            let (action, rebuild) = match sig.kind {
                AvKind::MaterialisedGrouping => self.maintain_grouping(
                    catalog,
                    avs,
                    &sig,
                    &av,
                    combined,
                    delta,
                    pool,
                    &still_current,
                )?,
                AvKind::SortedProjection => self.maintain_sorted(
                    catalog,
                    avs,
                    &sig,
                    &av,
                    combined,
                    delta,
                    pool,
                    &still_current,
                )?,
                AvKind::SphIndex => self.maintain_sph(avs, builder, &sig, &av, delta, first_row)?,
            };
            let wall = start.elapsed();
            match action {
                DeltaAction::Merge => self.metrics.merges.inc(),
                DeltaAction::Compact => {
                    self.metrics.merges.inc();
                    self.metrics.compactions.inc();
                }
                DeltaAction::Rebuild => self.metrics.rebuilds.inc(),
            }
            self.metrics.rows.add(delta.rows() as u64);
            self.metrics.seconds.observe_duration(wall);
            report.outcomes.push(MaintenanceOutcome {
                signature: sig,
                action,
                wall,
                rebuild,
            });
        }
        let backlog: usize = self
            .runs
            .read()
            .values()
            .map(|r| r.tail.as_ref().map_or(0, |t| t.rows()))
            .sum();
        self.metrics.backlog.set(backlog as u64);
        Ok(report)
    }

    /// Delta-merge for `(key, count, sum)` groupings. Composite keys
    /// rebuild instead (see the module docs).
    #[allow(clippy::too_many_arguments)]
    fn maintain_grouping(
        &self,
        catalog: &Catalog,
        avs: &AvCatalog,
        sig: &AvSignature,
        av: &Av,
        combined: &Arc<Relation>,
        delta: &Relation,
        pool: Option<&ThreadPool>,
        still_current: &impl Fn() -> bool,
    ) -> Result<(DeltaAction, Option<AvBuildHandle>)> {
        if sig.is_composite() {
            let rebuilt = rebuild_from(sig, combined, pool)?;
            publish(catalog, avs, sig, rebuilt, still_current)?;
            return Ok((DeltaAction::Rebuild, None));
        }
        let stored = match &av.artifact {
            Some(AvArtifact::MaterialisedGrouping(rel)) => Arc::clone(rel),
            other => {
                return Err(CoreError::Av(format!(
                    "grouping AV {sig} holds a foreign artifact: {other:?}"
                )))
            }
        };
        let dk = delta.column(&sig.column)?.as_u32()?;
        let mut grouped = hash_grouping_chaining(dk, dk, CountSum, dk.len().min(1 << 20));
        grouped.sort_by_key();

        let sk = stored.column(&sig.column)?.as_u32()?;
        let sc = stored.column("count")?.as_u64()?;
        let ss = stored.column("sum")?.as_u64()?;
        let (mut i, mut j) = (0usize, 0usize);
        let mut keys = Vec::with_capacity(sk.len() + grouped.keys.len());
        let mut states = Vec::with_capacity(keys.capacity());
        while i < sk.len() || j < grouped.keys.len() {
            let take_stored = j >= grouped.keys.len() || (i < sk.len() && sk[i] <= grouped.keys[j]);
            if take_stored {
                let mut state = CountSumState {
                    count: sc[i],
                    sum: ss[i],
                };
                if j < grouped.keys.len() && grouped.keys[j] == sk[i] {
                    state.count += grouped.states[j].count;
                    state.sum += grouped.states[j].sum;
                    j += 1;
                }
                keys.push(sk[i]);
                states.push(state);
                i += 1;
            } else {
                keys.push(grouped.keys[j]);
                states.push(grouped.states[j]);
                j += 1;
            }
        }
        let merged = grouping_relation(
            sig,
            GroupedResult {
                keys,
                states,
                sorted_by_key: true,
            },
        )?;
        let mut updated = av.clone();
        updated.provides.rows = merged.rows() as u64;
        updated.byte_size = merged.rows() * 20;
        updated.artifact = Some(AvArtifact::MaterialisedGrouping(Arc::new(merged.clone())));
        publish_with_hidden(catalog, avs, sig, updated, merged, still_current)?;
        Ok((DeltaAction::Merge, None))
    }

    /// Staged run-merge for sorted projections.
    #[allow(clippy::too_many_arguments)]
    fn maintain_sorted(
        &self,
        catalog: &Catalog,
        avs: &AvCatalog,
        sig: &AvSignature,
        av: &Av,
        combined: &Arc<Relation>,
        delta: &Relation,
        pool: Option<&ThreadPool>,
        still_current: &impl Fn() -> bool,
    ) -> Result<(DeltaAction, Option<AvBuildHandle>)> {
        let current = match &av.artifact {
            Some(AvArtifact::SortedProjection(rel)) => Arc::clone(rel),
            other => {
                return Err(CoreError::Av(format!(
                    "sorted-projection AV {sig} holds a foreign artifact: {other:?}"
                )))
            }
        };
        if self.policy.sorted_action(combined.rows(), delta.rows()) == DeltaAction::Rebuild {
            self.runs.write().remove(sig);
            let rebuilt = rebuild_from(sig, combined, pool)?;
            if let Some(AvArtifact::SortedProjection(rel)) = &rebuilt.av.artifact {
                let rel = Arc::clone(rel);
                self.runs.write().insert(
                    sig.clone(),
                    SortedRuns {
                        visible: Arc::clone(&rel),
                        base: rel,
                        tail: None,
                    },
                );
            }
            publish(catalog, avs, sig, rebuilt, still_current)?;
            return Ok((DeltaAction::Rebuild, None));
        }

        let key_names = sig.key_columns();
        let mut runs = self.runs.write();
        let state = runs.entry(sig.clone()).or_insert_with(|| SortedRuns {
            visible: Arc::clone(&current),
            base: Arc::clone(&current),
            tail: None,
        });
        if !Arc::ptr_eq(&state.visible, &current) {
            // The view was rebuilt or re-materialised behind our back;
            // the published artifact is the source of truth.
            *state = SortedRuns {
                visible: Arc::clone(&current),
                base: current,
                tail: None,
            };
        }
        let delta_sorted = sort_by_keys(delta, &key_names)?;
        let tail = match &state.tail {
            Some(tail) => Arc::new(merge_sorted(tail, &delta_sorted, &key_names)?),
            None => Arc::new(delta_sorted),
        };
        let visible = Arc::new(merge_sorted(&state.base, &tail, &key_names)?);
        let action = if self.policy.should_compact(state.base.rows(), tail.rows()) {
            *state = SortedRuns {
                visible: Arc::clone(&visible),
                base: Arc::clone(&visible),
                tail: None,
            };
            DeltaAction::Compact
        } else {
            *state = SortedRuns {
                visible: Arc::clone(&visible),
                base: Arc::clone(&state.base),
                tail: Some(tail),
            };
            DeltaAction::Merge
        };
        drop(runs);

        let width: usize = visible
            .schema()
            .fields()
            .iter()
            .map(|f| f.data_type.byte_width())
            .sum();
        let mut updated = av.clone();
        updated.provides.rows = visible.rows() as u64;
        updated.byte_size = visible.rows() * width;
        updated.artifact = Some(AvArtifact::SortedProjection(Arc::clone(&visible)));
        publish_with_hidden(
            catalog,
            avs,
            sig,
            updated,
            (*visible).clone(),
            still_current,
        )?;
        Ok((action, None))
    }

    /// Patch-or-rebuild for SPH join indexes.
    fn maintain_sph(
        &self,
        avs: &AvCatalog,
        builder: &AvBuilder,
        sig: &AvSignature,
        av: &Av,
        delta: &Relation,
        first_row: usize,
    ) -> Result<(DeltaAction, Option<AvBuildHandle>)> {
        let index = match &av.artifact {
            Some(AvArtifact::SphIndex(idx)) => Arc::clone(idx),
            other => {
                return Err(CoreError::Av(format!(
                    "SPH AV {sig} holds a foreign artifact: {other:?}"
                )))
            }
        };
        let dk = delta.column(&sig.column)?.as_u32()?;
        match index.patch(dk, first_row as u32) {
            Ok(patched) => {
                let mut updated = av.clone();
                updated.byte_size = patched.byte_size();
                updated.provides.rows += delta.rows() as u64;
                updated.artifact = Some(AvArtifact::SphIndex(Arc::new(patched)));
                // No hidden relation and no clock check needed beyond
                // register: the mutation lock is held, and a racing DDL's
                // invalidation strictly follows its generation bump, so
                // it removes whatever is registered — including this.
                avs.register(updated);
                Ok((DeltaAction::Merge, None))
            }
            Err(_) => {
                // The append widened the dense domain: the old CSR cannot
                // describe it. Remove the stale index *now* (queries fall
                // back to building the join index at execution time) and
                // rebuild in the background through the builder, which
                // serialises on the table's mutation lock and publishes
                // under the two-clock check.
                avs.remove(sig);
                let handle = builder.spawn(vec![sig.clone()]);
                Ok((DeltaAction::Rebuild, Some(handle)))
            }
        }
    }
}

/// A rebuilt artifact plus the hidden relation it wants published.
struct Rebuilt {
    av: Av,
    hidden: Option<Relation>,
}

/// Rebuild `sig` from `combined` without touching the real catalog: the
/// materialiser runs against a scratch catalog (so its internal
/// `register` of the hidden `__av::` relation cannot bump the real DDL
/// clock and flush the plan cache), and the caller publishes the result
/// through [`Catalog::replace_data`] + [`AvCatalog::register_if`].
fn rebuild_from(
    sig: &AvSignature,
    combined: &Arc<Relation>,
    pool: Option<&ThreadPool>,
) -> Result<Rebuilt> {
    let scratch = Catalog::new();
    scratch.register(sig.table.clone(), (**combined).clone());
    let av = match pool {
        Some(tp) => materialise_av_on(&scratch, sig, tp)?,
        None => materialise_av(&scratch, sig)?,
    };
    let hidden = scratch
        .get(&sig.av_table_name())
        .ok()
        .map(|entry| (*entry.relation).clone());
    Ok(Rebuilt { av, hidden })
}

/// Publish a rebuilt artifact: hidden relation via the data clock, AV
/// entry under the generation check.
fn publish(
    catalog: &Catalog,
    avs: &AvCatalog,
    sig: &AvSignature,
    rebuilt: Rebuilt,
    still_current: &impl Fn() -> bool,
) -> Result<()> {
    match rebuilt.hidden {
        Some(rel) => publish_with_hidden(catalog, avs, sig, rebuilt.av, rel, still_current),
        None => {
            avs.register_if(rebuilt.av, still_current);
            Ok(())
        }
    }
}

/// Publish a maintained artifact whose hidden `__av::` relation must be
/// swapped in the same step. The hidden relation moves through
/// [`Catalog::replace_data`] — the data clock, not the DDL clock — so
/// cached plans scanning it survive the append and simply observe the
/// new rows. A missing hidden relation means a racing DDL already tore
/// the view down; the publish quietly yields to it.
fn publish_with_hidden(
    catalog: &Catalog,
    avs: &AvCatalog,
    sig: &AvSignature,
    av: Av,
    hidden: Relation,
    still_current: &impl Fn() -> bool,
) -> Result<()> {
    match catalog.replace_data(&sig.av_table_name(), hidden) {
        Ok(_) => {
            avs.register_if(av, still_current);
            Ok(())
        }
        Err(CoreError::UnknownTable(_)) => Ok(()),
        Err(e) => Err(e),
    }
}

/// Stable sort of `rel` by the key columns (lexicographic for
/// composites) — exactly the order the from-scratch builders produce.
fn sort_by_keys(rel: &Relation, key_names: &[&str]) -> Result<Relation> {
    let order: Vec<usize> = if key_names.len() == 1 {
        argsort(rel.column(key_names[0])?.as_u32()?)
            .into_iter()
            .map(|i| i as usize)
            .collect()
    } else {
        let cols: Vec<&[u32]> = key_names
            .iter()
            .map(|k| -> Result<&[u32]> { Ok(rel.column(k)?.as_u32()?) })
            .collect::<Result<_>>()?;
        let mut idx: Vec<usize> = (0..rel.rows()).collect();
        idx.sort_by(|&a, &b| {
            cols.iter()
                .map(|c| c[a].cmp(&c[b]))
                .find(|o| *o != Ordering::Equal)
                .unwrap_or(Ordering::Equal)
        });
        idx
    };
    Ok(rel.gather(&order))
}

/// Two-way merge of two key-sorted relations, `a` winning ties — the
/// stability that makes run-merges reproduce a stable rebuild. `b` is the
/// small side (a tail run, a sorted delta): each of its rows is placed by
/// binary search after every row of `a` that is not greater, and the
/// merged order is a list of row *ranges* of the concatenation `a ++ b` —
/// runs of `a` between insertion points, rows of `b` at them — so the
/// output columns are built by slice copies, not row by row. Dictionaries
/// prefer `b`'s, which on every maintenance path carries the newest
/// (superset) dictionary.
fn merge_sorted(a: &Relation, b: &Relation, key_names: &[&str]) -> Result<Relation> {
    let keys_of = |rel| -> Result<Vec<&[u32]>> {
        let column = |k| -> Result<&[u32]> { Ok(Relation::column(rel, k)?.as_u32()?) };
        key_names.iter().copied().map(column).collect()
    };
    let (ka, kb) = (keys_of(a)?, keys_of(b)?);
    let (n, m) = (a.rows(), b.rows());
    let a_le_b = |i: usize, j: usize| {
        let mut order = ka.iter().zip(&kb).map(|(x, y)| x[i].cmp(&y[j]));
        order
            .find(|o| *o != Ordering::Equal)
            .unwrap_or(Ordering::Equal)
            != Ordering::Greater
    };
    let mut ranges = Vec::with_capacity(2 * m + 1);
    let mut at = 0usize;
    for j in 0..m {
        // First row of `a[at..]` that is greater than `b[j]`.
        let (mut lo, mut hi) = (at, n);
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            if a_le_b(mid, j) {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        ranges.push(at..lo);
        ranges.push(n + j..n + j + 1);
        at = lo;
    }
    ranges.push(at..n);

    let mut cols = Vec::with_capacity(a.schema().width());
    for idx in 0..a.schema().width() {
        let mut col = a.column_at(idx)?.clone();
        col.append(b.column_at(idx)?)?;
        cols.push(col);
    }
    let mut concat = Relation::new(a.schema().clone(), cols)?;
    for idx in 0..a.schema().width() {
        if let Some(dict) = b.dictionary_at(idx)?.or(a.dictionary_at(idx)?) {
            concat = concat.with_dictionary_at(idx, Arc::clone(dict))?;
        }
    }
    Ok(concat.select(&Selection::Ranges(ranges)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use dqo_storage::{Column, DataType, Field, Schema, Value};

    fn rel2(keys: Vec<u32>, vals: Vec<u32>) -> Relation {
        Relation::new(
            Schema::new(vec![
                Field::new("k", DataType::U32),
                Field::new("v", DataType::U32),
            ])
            .unwrap(),
            vec![Column::U32(keys), Column::U32(vals)],
        )
        .unwrap()
    }

    #[test]
    fn merge_sorted_is_stable_left_first() {
        let a = rel2(vec![1, 3, 3, 7], vec![0, 1, 2, 3]);
        let b = rel2(vec![0, 3, 7, 9], vec![10, 11, 12, 13]);
        let merged = merge_sorted(&a, &b, &["k"]).unwrap();
        assert_eq!(
            merged.column("k").unwrap().as_u32().unwrap(),
            &[0, 1, 3, 3, 3, 7, 7, 9]
        );
        // Ties: every a-row precedes every b-row with the same key.
        assert_eq!(
            merged.column("v").unwrap().as_u32().unwrap(),
            &[10, 0, 1, 2, 11, 3, 12, 13]
        );
    }

    #[test]
    fn merge_sorted_handles_empty_sides() {
        let a = rel2(vec![], vec![]);
        let b = rel2(vec![2, 5], vec![1, 2]);
        let m = merge_sorted(&a, &b, &["k"]).unwrap();
        assert_eq!(m.column("k").unwrap().as_u32().unwrap(), &[2, 5]);
        let m = merge_sorted(&b, &a, &["k"]).unwrap();
        assert_eq!(m.rows(), 2);
    }

    #[test]
    fn sort_by_keys_matches_stable_argsort_on_composites() {
        let rel = Relation::new(
            Schema::new(vec![
                Field::new("a", DataType::U32),
                Field::new("b", DataType::U32),
            ])
            .unwrap(),
            vec![
                Column::U32(vec![1, 0, 1, 0, 1]),
                Column::U32(vec![2, 9, 1, 9, 1]),
            ],
        )
        .unwrap();
        let sorted = sort_by_keys(&rel, &["a", "b"]).unwrap();
        assert_eq!(
            sorted.column("a").unwrap().as_u32().unwrap(),
            &[0, 0, 1, 1, 1]
        );
        assert_eq!(
            sorted.column("b").unwrap().as_u32().unwrap(),
            &[9, 9, 1, 1, 2]
        );
    }

    #[test]
    fn policy_thresholds() {
        let p = DeltaPolicy::default();
        assert_eq!(p.sorted_action(1_000, 10), DeltaAction::Merge);
        assert_eq!(p.sorted_action(1_000, 900), DeltaAction::Rebuild);
        assert!(!p.should_compact(1_000, 10));
        assert!(p.should_compact(1_000, 400));
        // An empty base always merges (nothing to rebuild from).
        assert_eq!(p.sorted_action(0, 0), DeltaAction::Merge);
    }

    #[test]
    fn append_rows_value_roundtrip() {
        // Smoke that the storage append plumbing the maintainer rides on
        // produces a delta whose codes are comparable with the combined.
        let rel = Relation::single_u32("k", vec![4, 1]);
        let appended = rel
            .append_rows(&[vec![Value::U32(3)], vec![Value::U32(1)]])
            .unwrap();
        assert_eq!(appended.combined.rows(), 4);
        assert_eq!(appended.delta.rows(), 2);
        assert_eq!(
            appended.delta.column("k").unwrap().as_u32().unwrap(),
            &[3, 1]
        );
    }
}
