//! Incremental AV maintenance — the third step of the AV lifecycle
//! (build → publish → **maintain**), and the write-path twin of
//! [`crate::av_build`].
//!
//! An INSERT appends rows to a base table; every materialised AV built
//! from that table is a snapshot and would go stale. Rebuilding each view
//! from scratch on every append is the offline build cost charged online,
//! so each [`AvKind`](crate::av::AvKind) has a strategy that folds the
//! delta into the published artifact. A strategy is a pure function of
//! (published artifact, combined table snapshot, delta): it returns the
//! artifact to publish, or asks for a background rebuild.
//!
//! * **Materialised grouping — delta-merge**: group the delta's key
//!   tuples alone with the function a build groups with, then merge the
//!   two `(keys…, count, sum)` lists by lexicographic key tuple — the
//!   order every build emits, for one key column or several, packed or
//!   row-wise. `u64` additions are exact and commutative, so the merged
//!   relation is bit-identical to grouping the combined table from
//!   scratch.
//! * **Sorted projection — tail append, then prefix merge**: the
//!   projection is a sorted prefix followed by a tail of at most
//!   [`tail_limit`] (⌈√rows⌉) rows in append order. A delta is appended to
//!   the tail in place, extending the projection's buffers as the base
//!   table's are extended — O(delta), nothing copied. Once the tail would
//!   outgrow its bound, the prefix and the stably sorted tail are merged
//!   into a new prefix (`merge_sorted`: `O(tail · log n)` searches, then
//!   each output column is copied range by range straight out of the
//!   prefix and the sorted tail, into buffers with room for the next
//!   tail): one O(n) copy per ⌈√rows⌉ appended rows. The executor shows
//!   every consumer the rows in key order — the prefix merged with the
//!   stably sorted tail, a prefix row first on equal keys (see
//!   [`SortedPrefix`](crate::catalog::SortedPrefix)) — and the hidden
//!   relation's statistics describe that order and fold the delta either
//!   way, their sortedness decided from the pairs of rows the delta made
//!   neighbours in key order. The argsorts are stable, the prefix holds
//!   original row ids in `(key, row id)` order and every tail row was
//!   appended after all of them, so left-first tie-breaking reproduces
//!   the `(key, original row id)` order of a from-scratch rebuild exactly.
//!   A delta larger than `REBUILD_RATIO` of the combined table rebuilds
//!   inline: the merge would read nearly everything a fresh sort does.
//!   A delta onto an empty tail whose keys all follow the prefix's (keys
//!   that never decrease, e.g. timestamps) just lengthens the prefix, in
//!   place. [`Catalog::get`](crate::Catalog::get) hands a projection with
//!   a tail out in key order too, copied: what a rebuild would hold.
//! * **SPH index — patch-or-rebuild**: when the delta keys fit the
//!   existing dense domain, [`JoinIndex::patch`](dqo_exec::join::JoinIndex::patch)
//!   keeps the published CSR as its main part, shared, and puts the
//!   appended rows in a small tail CSR over the same slots, rebuilt in
//!   O(domain + tail) per append and merged into the main CSR once it
//!   outgrows √rows (equal to a rebuild slot for slot, since appended
//!   row ids follow all existing ones in scan order). When the domain
//!   grew, the stale index is removed immediately — queries fall back to
//!   building the join index at execution time — and a **background
//!   rebuild** is spawned through the [`AvBuilder`].
//!
//! Writes serialise per table on [`Catalog::mutation_lock`](crate::Catalog::mutation_lock),
//! and every maintained artifact becomes visible through the same
//! [`AvCatalog::publish`](crate::av::AvCatalog::publish) a build uses, so
//! a racing DDL can never resurrect a stale view. The base table is
//! replaced (data clock bump) **before** maintenance runs, and the
//! snapshot handed to publish is the entry that replacement returned.

use crate::av::{
    group_tuples, grouping_aggs, grouping_bytes, grouping_relation, key_columns, key_order,
    materialise_av, Av, AvArtifact, AvSignature,
};
use crate::av_build::{AvBuildHandle, AvBuilder};
use crate::catalog::{RowDelta, TableEntry};
use crate::Result;
use dqo_exec::aggregate::CountSumState;
use dqo_exec::join::JoinIndex;
use dqo_obs::{names, Counter, Histogram, MetricsRegistry, DURATION_BUCKETS};
use dqo_parallel::ThreadPool;
use dqo_storage::Relation;
use std::cmp::Ordering;
use std::ops::Range;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Rebuild a sorted projection instead of merging once the delta is more
/// than this share of the combined table. In tuple operations (the
/// Table 2 currency) a merge is one pass over base + delta against a
/// rebuild's `n log n` sort, so merging wins while the delta is small
/// relative to the base — which appends almost always are.
const REBUILD_RATIO: f64 = 0.5;

/// How one AV was maintained for one append.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeltaAction {
    /// Folded incrementally (delta-merge, run-merge, or CSR patch).
    Merge,
    /// Fell back to a from-scratch rebuild (inline for relation-shaped
    /// artifacts, background via [`AvBuilder`] for SPH indexes).
    Rebuild,
}

/// One AV's maintenance outcome for one append.
#[derive(Debug)]
pub struct MaintenanceOutcome {
    /// Which view.
    pub signature: AvSignature,
    /// What maintenance did.
    pub action: DeltaAction,
    /// Wall time of the inline step (background rebuilds report only
    /// their spawn overhead here; their build time lands in the
    /// `dqo_av_build_*` metrics).
    pub wall: Duration,
    /// Join handle of a background rebuild, when one was spawned.
    pub rebuild: Option<AvBuildHandle>,
    /// Bytes the inline step wrote into new buffers: all of a merged
    /// grouping or a rebuilt view, a sorted projection's merged prefix
    /// (none when a delta was appended to its tail or prefix in place),
    /// an SPH index's tail or merged main CSR; 0 for a background rebuild.
    pub bytes_copied: usize,
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

/// Maintains every materialised AV of a table across appends: the
/// `dqo_av_delta_*` metric handles around the stateless strategies
/// below. One per [`crate::Engine`].
#[derive(Debug)]
pub struct ViewMaintainer {
    merges: Counter,
    rebuilds: Counter,
    rows: Counter,
    seconds: Histogram,
}

impl ViewMaintainer {
    /// A maintainer with its metrics in `registry`.
    pub fn new(registry: &MetricsRegistry) -> Self {
        ViewMaintainer {
            merges: registry.counter(names::AV_DELTA_MERGES),
            rebuilds: registry.counter(names::AV_DELTA_REBUILDS),
            rows: registry.counter(names::AV_DELTA_ROWS),
            seconds: registry.histogram(names::AV_DELTA_SECONDS, &DURATION_BUCKETS),
        }
    }

    /// Maintain every materialised AV of `table` after an append.
    ///
    /// Caller contract (upheld by `Engine::insert`): the table's
    /// mutation lock is held, and `combined` is the entry
    /// [`Catalog::replace_data`](crate::Catalog::replace_data) returned
    /// when it published base + `delta` — the data clock moved *before*
    /// this runs. `builder` is the engine's: its catalogs are published
    /// into, and it runs the background rebuilds.
    pub fn maintain_table(
        &self,
        builder: &AvBuilder,
        table: &str,
        combined: &TableEntry,
        delta: &Relation,
        pool: Option<&ThreadPool>,
    ) -> Result<MaintenanceReport> {
        let first_row = combined.relation.rows() - delta.rows();
        let mut report = MaintenanceReport::default();
        let mut sigs = builder.avs.signatures();
        sigs.retain(|sig| sig.table == table);
        // Deterministic maintenance order (signature maps are unordered).
        sigs.sort_by_key(|sig| sig.av_table_name());
        for sig in sigs {
            let Some(av) = builder.avs.get(&sig) else {
                continue;
            };
            // Planned-only views carry no artifact to maintain.
            let Some(artifact) = &av.artifact else {
                continue;
            };
            let start = Instant::now();
            let mut gained = None;
            let maintained = match artifact {
                AvArtifact::MaterialisedGrouping(stored) => {
                    Some(maintain_grouping(&av, stored, combined, delta)?)
                }
                AvArtifact::SortedProjection(current, prefix) => {
                    let (updated, action, merged) =
                        maintain_sorted(&av, (current, *prefix), combined, delta, pool)?;
                    gained = merged.map(|(rows, at)| (&**current, rows, at));
                    Some((updated, action))
                }
                AvArtifact::SphIndex(index) => patch_sph(&av, index, delta, first_row)?
                    .map(|patched| (patched, DeltaAction::Merge)),
            };
            let (action, rebuild, bytes_copied) = match maintained {
                Some((updated, action)) => {
                    let bytes_copied = updated
                        .artifact
                        .as_ref()
                        .map_or(0, |new| bytes_written(new, artifact));
                    let delta = gained.as_ref().map(|(base, rows, at)| RowDelta {
                        base,
                        rows,
                        at: at.as_deref(),
                    });
                    // Refused only when DDL replaced the table under this
                    // insert; that DDL's invalidation owns the views now.
                    builder
                        .avs
                        .publish(&builder.catalog, updated, combined, delta);
                    (action, None, bytes_copied)
                }
                None => {
                    // The append widened the dense domain: the old CSR
                    // cannot describe it. Remove the stale index *now*
                    // (queries fall back to building the join index at
                    // execution time) and rebuild in the background; the
                    // build waits for this insert's mutation lock.
                    builder.avs.remove(&sig);
                    let handle = builder.spawn(vec![sig.clone()])?;
                    (DeltaAction::Rebuild, Some(handle), 0)
                }
            };
            let wall = start.elapsed();
            match action {
                DeltaAction::Merge => self.merges.inc(),
                DeltaAction::Rebuild => self.rebuilds.inc(),
            }
            self.rows.add(delta.rows() as u64);
            self.seconds.observe_duration(wall);
            report.outcomes.push(MaintenanceOutcome {
                signature: sig,
                action,
                wall,
                rebuild,
                bytes_copied,
            });
        }
        Ok(report)
    }
}

/// Bytes `new` holds that `old`, the artifact it was maintained from,
/// does not share with it — what the maintenance step wrote.
fn bytes_written(new: &AvArtifact, old: &AvArtifact) -> usize {
    match (new, old) {
        (AvArtifact::SphIndex(new), AvArtifact::SphIndex(old)) => new.bytes_not_shared_with(old),
        (AvArtifact::SortedProjection(new, _), AvArtifact::SortedProjection(old, _))
        | (AvArtifact::MaterialisedGrouping(new), AvArtifact::MaterialisedGrouping(old)) => {
            new.bytes_not_shared_with(old)
        }
        _ => unreachable!("maintenance keeps a view's kind"),
    }
}

/// Delta-merge for materialised groupings of any key arity: group the
/// delta with the build's [`group_tuples`], then merge the two
/// key-tuple-sorted group lists, adding the states of a tuple both hold.
fn maintain_grouping(
    av: &Av,
    stored: &Relation,
    combined: &TableEntry,
    delta: &Relation,
) -> Result<(Av, DeltaAction)> {
    let sig = &av.signature;
    let (dk, ds) = group_tuples(&key_columns(delta, sig)?, false, None)?;
    let sk = key_columns(stored, sig)?;
    let names = sig.key_columns();
    let [count, sum] = grouping_aggs(names[0]);
    let sc = stored.column(&count.alias)?.as_u64()?;
    let ss = stored.column(&sum.alias)?.as_u64()?;
    // Lexicographic order of stored group `i` against delta group `j`.
    let order = |i: usize, j: usize| {
        let mut by_column = sk.iter().zip(&dk).map(|(s, d)| s[i].cmp(&d[j]));
        by_column.find(|o| o.is_ne()).unwrap_or(Ordering::Equal)
    };
    let (mut i, mut j) = (0usize, 0usize);
    let groups = sc.len() + ds.len();
    let mut keys = vec![Vec::with_capacity(groups); sk.len()];
    let mut states = Vec::with_capacity(groups);
    while i < sc.len() || j < ds.len() {
        let o = match (i < sc.len(), j < ds.len()) {
            (true, true) => order(i, j),
            (true, false) => Ordering::Less,
            _ => Ordering::Greater,
        };
        if o.is_gt() {
            keys.iter_mut().zip(&dk).for_each(|(out, d)| out.push(d[j]));
            states.push(ds[j]);
        } else {
            keys.iter_mut().zip(&sk).for_each(|(out, s)| out.push(s[i]));
            let mut state = CountSumState {
                count: sc[i],
                sum: ss[i],
            };
            if o.is_eq() {
                state.count += ds[j].count;
                state.sum += ds[j].sum;
            }
            states.push(state);
        }
        i += usize::from(o.is_le());
        j += usize::from(o.is_ge());
    }
    let merged = grouping_relation(&combined.relation, &names, keys, &states)?;
    let mut updated = av.clone();
    updated.provides.rows = merged.rows() as u64;
    updated.byte_size = grouping_bytes(updated.provides.rows, sk.len());
    updated.artifact = Some(AvArtifact::MaterialisedGrouping(Arc::new(merged)));
    Ok((updated, DeltaAction::Merge))
}

/// The most rows a sorted projection of `rows` rows keeps in its tail:
/// ⌈√rows⌉. Readers pay one extra fold or sort of that many rows; the
/// O(rows) merge that empties the tail comes once per that many
/// appended rows.
pub fn tail_limit(rows: usize) -> usize {
    let root = rows.isqrt();
    root + usize::from(root * root < rows)
}

/// The delta rows a maintenance step put into a sorted projection and,
/// when it sorted them in, how many old rows precede each in key order
/// (`None`: appended after every row) — what the hidden relation's
/// statistics fold.
type Merged = (Relation, Option<Vec<usize>>);

/// Maintain a sorted projection whose first `prefix` rows of `current`
/// are sorted: append the delta to the tail, or — onto an empty tail,
/// keys all following the prefix's — to the prefix; merge the prefix with
/// the stably sorted tail and delta once they would outgrow
/// [`tail_limit`]; past [`REBUILD_RATIO`], rebuild from the combined
/// table. Returns the delta rows it put in and where, in key order among
/// the old rows, except after a rebuild, whose statistics are computed
/// afresh.
fn maintain_sorted(
    av: &Av,
    (current, prefix): (&Relation, usize),
    combined: &TableEntry,
    delta: &Relation,
    pool: Option<&ThreadPool>,
) -> Result<(Av, DeltaAction, Option<Merged>)> {
    let sig = &av.signature;
    let rows = combined.relation.rows();
    if delta.rows() as f64 > REBUILD_RATIO * rows as f64 {
        let rebuilt = materialise_av(combined, sig, pool)?;
        return Ok((rebuilt, DeltaAction::Rebuild, None));
    }
    let (key_names, old) = (sig.key_columns(), current.rows());
    let room = 2 * tail_limit(rows);
    let (next, prefix, gained) = if old == prefix && follows(current, delta, &key_names)? {
        let sorted = delta.gather(&key_order(&key_columns(delta, sig)?, None)?);
        let (next, at) = merge_sorted((current, prefix), &sorted, &key_names, room)?;
        (next, rows, Some((sorted, Some(at))))
    } else if old - prefix + delta.rows() <= tail_limit(rows) {
        let all = 0..old + delta.rows();
        let next = concat_rows(current, delta, std::slice::from_ref(&all), room)?;
        (next, prefix, Some((delta.clone(), None)))
    } else {
        let (next, landed) = merge_tail(av, (current, prefix), delta, room)?;
        (next, rows, Some(landed))
    };
    let mut updated = av.clone();
    updated.provides.rows = next.rows() as u64;
    updated.byte_size = next.byte_size();
    updated.artifact = Some(AvArtifact::SortedProjection(Arc::new(next), prefix));
    Ok((updated, DeltaAction::Merge, gained))
}

/// `current`'s first `prefix` rows merged with its tail and `delta`, stably
/// sorted, into a relation all in key order with room for `room` more
/// rows; and the delta's rows, sorted, with how many old rows precede each
/// in key order — the prefix's, and the tail's sorted before it.
fn merge_tail(
    av: &Av,
    (current, prefix): (&Relation, usize),
    delta: &Relation,
    room: usize,
) -> Result<(Relation, Merged)> {
    let old = current.rows();
    // The tail and the delta, in append order, then stably sorted.
    let rows = prefix..old + delta.rows();
    let tail = concat_rows(current, delta, std::slice::from_ref(&rows), 0)?;
    let order = key_order(&key_columns(&tail, &av.signature)?, None)?;
    let key_names = av.signature.key_columns();
    let (next, at) = merge_sorted((current, prefix), &tail.gather(&order), &key_names, room)?;
    let (t, mut before) = ((old - prefix) as u32, 0);
    let mut landed = (Vec::new(), Vec::new());
    for (&row, at) in order.iter().zip(at) {
        match row.checked_sub(t) {
            Some(j) => {
                landed.0.push(j);
                landed.1.push(at + before);
            }
            None => before += 1,
        }
    }
    Ok((next, (delta.gather(&landed.0), Some(landed.1))))
}

/// Whether every row of `b` sorts at or after the last row of `a` — or
/// `a` has none.
fn follows(a: &Relation, b: &Relation, key_names: &[&str]) -> Result<bool> {
    let Some(last) = a.rows().checked_sub(1) else {
        return Ok(true);
    };
    let keys = |rel| -> Result<Vec<&[u32]>> {
        let column = |k| -> Result<&[u32]> { Ok(Relation::column(rel, k)?.as_u32()?) };
        key_names.iter().copied().map(column).collect()
    };
    let (ka, kb) = (keys(a)?, keys(b)?);
    let top = || ka.iter().map(|k| k[last]);
    Ok((0..b.rows()).all(|j| kb.iter().map(|k| k[j]).ge(top())))
}

/// Patch an SPH join index with the appended keys; `None` when they fall
/// outside the index's dense domain and only a rebuild can describe them.
fn patch_sph(av: &Av, index: &JoinIndex, delta: &Relation, first_row: usize) -> Result<Option<Av>> {
    let dk = delta.column(&av.signature.column)?.as_u32()?;
    let Ok(patched) = index.patch(dk, first_row as u32) else {
        return Ok(None);
    };
    let mut updated = av.clone();
    updated.byte_size = patched.byte_size();
    updated.provides.rows += delta.rows() as u64;
    updated.artifact = Some(AvArtifact::SphIndex(Arc::new(patched)));
    Ok(Some(updated))
}

/// Two-way merge of `a`'s first `n` rows and `b`, both key-sorted, `a`
/// winning ties — the stability that makes a merge reproduce a stable
/// rebuild. `b` is the small side (a sorted tail or delta): each of its
/// rows is placed by binary search after every row of `a` that is not
/// greater, and the merged order is a list of row *ranges* of `a ++ b` —
/// runs of `a` between insertion points, rows of `b` at them — copied
/// straight out of `a` and `b` into each output column (see
/// [`concat_rows`]), with room for `room` more rows — or, when every
/// insertion point is `a`'s end, `a`'s columns extended by `b`'s, in
/// place when `a` is its buffers' tip.
///
/// Returns the merged relation and each `b` row's insertion point (the
/// number of `a` rows before it) — the seam its statistics fold at.
fn merge_sorted(
    (a, n): (&Relation, usize),
    b: &Relation,
    key_names: &[&str],
    room: usize,
) -> Result<(Relation, Vec<usize>)> {
    let keys_of = |rel| -> Result<Vec<&[u32]>> {
        let column = |k| -> Result<&[u32]> { Ok(Relation::column(rel, k)?.as_u32()?) };
        key_names.iter().copied().map(column).collect()
    };
    let (ka, kb) = (keys_of(a)?, keys_of(b)?);
    let (off, m) = (a.rows(), b.rows());
    let a_le_b = |i: usize, j: usize| {
        let mut order = ka.iter().zip(&kb).map(|(x, y)| x[i].cmp(&y[j]));
        order
            .find(|o| *o != Ordering::Equal)
            .unwrap_or(Ordering::Equal)
            != Ordering::Greater
    };
    let mut ranges = Vec::with_capacity(2 * m + 1);
    let mut at = Vec::with_capacity(m);
    let mut start = 0usize;
    for j in 0..m {
        // First row of `a[start..n]` that is greater than `b[j]`.
        let (mut lo, mut hi) = (start, n);
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            if a_le_b(mid, j) {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        ranges.push(start..lo);
        ranges.push(off + j..off + j + 1);
        at.push(lo);
        start = lo;
    }
    ranges.push(start..n);
    Ok((concat_rows(a, b, &ranges, room)?, at))
}

/// The rows `ranges` select from `a ++ b`, in order, each column copied
/// straight out of the two ([`Column::concat_select`]) into buffers with
/// room for `room` more rows — or extended in place, when the ranges are
/// all of `a` then all of `b`. Dictionaries prefer `b`'s, which on every
/// maintenance path carries the newest (superset) dictionary.
///
/// [`Column::concat_select`]: dqo_storage::Column::concat_select
fn concat_rows(
    a: &Relation,
    b: &Relation,
    ranges: &[Range<usize>],
    room: usize,
) -> Result<Relation> {
    let width = a.schema().width();
    let mut cols = Vec::with_capacity(width);
    for idx in 0..width {
        let column = a.column_at(idx)?;
        cols.push(column.concat_select(b.column_at(idx)?, ranges, room)?);
    }
    let mut merged = Relation::new(a.schema().clone(), cols)?;
    for idx in 0..width {
        if let Some(dict) = b.dictionary_at(idx)?.or(a.dictionary_at(idx)?) {
            merged = merged.with_dictionary_at(idx, Arc::clone(dict))?;
        }
    }
    Ok(merged)
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
        let (merged, at) = merge_sorted((&a, 4), &b, &["k"], 0).unwrap();
        assert_eq!(
            merged.column("k").unwrap().as_u32().unwrap(),
            &[0, 1, 3, 3, 3, 7, 7, 9]
        );
        // Each b-row's insertion point: the number of a-rows before it.
        assert_eq!(at, [0, 3, 4, 4]);
        // Ties: every a-row precedes every b-row with the same key.
        assert_eq!(
            merged.column("v").unwrap().as_u32().unwrap(),
            &[10, 0, 1, 2, 11, 3, 12, 13]
        );
        // A delta entirely before, entirely after, and entirely equal to
        // the base's keys: one insertion point each, base rows first.
        let base = rel2(vec![5, 5, 5], vec![0, 1, 2]);
        for (delta_key, want) in [
            (4, [10, 11, 0, 1, 2]),
            (6, [0, 1, 2, 10, 11]),
            (5, [0, 1, 2, 10, 11]),
        ] {
            let delta = rel2(vec![delta_key; 2], vec![10, 11]);
            let (merged, _) = merge_sorted((&base, 3), &delta, &["k"], 0).unwrap();
            assert_eq!(merged.column("v").unwrap().as_u32().unwrap(), &want);
        }
    }

    #[test]
    fn merge_sorted_handles_empty_sides() {
        let a = rel2(vec![], vec![]);
        let b = rel2(vec![2, 5], vec![1, 2]);
        let (m, at) = merge_sorted((&a, 0), &b, &["k"], 0).unwrap();
        assert_eq!(m.column("k").unwrap().as_u32().unwrap(), &[2, 5]);
        assert_eq!(at, [0, 0]);
        let (m, at) = merge_sorted((&b, 2), &a, &["k"], 0).unwrap();
        assert_eq!(m.rows(), 2);
        assert!(at.is_empty());
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
