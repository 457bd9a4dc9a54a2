//! HG/SPHG as a fold of loaded pieces: thread-local aggregation over
//! morsels and a deterministic merge — or, with no pool, serial HG/SPHG.
//!
//! Every worker folds the pieces it executes into a thread-local
//! structure — the same *molecule* the plan chose (the HG table/hash pair,
//! or the dense SPH array for SPHG) — and the partial states are merged
//! once at the end. Correctness rests on the aggregate being decomposable
//! ([`Aggregator::IS_DECOMPOSABLE`]): per-key partial states over a
//! disjoint row partition merge to the same final state regardless of how
//! work stealing split the morsels, so the output is **deterministic**
//! (and emitted in ascending key order) for any thread count. Without a
//! pool the caller folds every piece in order into one partial, which is
//! what the serial kernels do, row for row.
//!
//! A task's rows come from a caller-supplied loader, and the fold reads
//! the key and value columns *at* them ([`Rows`]): a dense range in
//! place, the row ids a fused filter kept, or a fused join's pairs of
//! build and probe rows. Nothing is gathered — the loader's only buffers
//! are the row ids in the worker's [`Scratch`] — and each shape has one
//! monomorphic update loop. The dense entry points are loaders that hand
//! out ranges. The state is whatever [`Aggregator`] the caller folds:
//! COUNT/SUM's 16 bytes unless the query reads MIN or MAX.
//!
//! When the caller knows every range's keys ascend, a worker folds each
//! run of equal keys into a register and merges it into the key's slot
//! once per run, instead of updating the slot row after row (each update
//! waiting on the previous one's store). The states are the same: the
//! aggregate is decomposable, and every key is first met at the same row.
//! It adds a comparison per row and saves an update per repeated row, so
//! the caller asks for it only where runs are long.

use crate::morsel::morsels_within;
use crate::pool::ThreadPool;
use dqo_exec::aggregate::Aggregator;
use dqo_exec::grouping::hg::{HgTable, WithTable};
use dqo_exec::grouping::GroupedResult;
use dqo_exec::pipeline::{Blocking, PipelineStats};
use dqo_exec::ExecError;
use dqo_hashtable::GroupTable;
use dqo_storage::Piece;

/// Which thread-local structure each worker aggregates into.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GroupingStrategy {
    /// One hash table of the plan's molecule per worker (parallel HG).
    Hash(HgTable),
    /// Dense array indexed by `key - min` per worker (parallel SPHG);
    /// requires the dense domain `[min, max]`.
    StaticPerfectHash {
        /// Smallest key of the dense domain.
        min: u32,
        /// Largest key of the dense domain.
        max: u32,
    },
}

/// Morsel-local row ids a loader may fill; one set per worker, reused
/// across the morsels that worker runs.
#[derive(Debug, Default)]
pub struct Scratch {
    /// Row ids surviving a fused filter.
    pub ids: Vec<u32>,
    /// A fused join's matches: one list of rows per table the loader
    /// reads, match by match.
    pub rows: Vec<Vec<u32>>,
}

/// The rows of one task, at which the fold reads its key and value
/// columns.
#[derive(Debug, Clone)]
pub enum Rows<'a> {
    /// The same rows of both columns: a dense range, read in place, or
    /// listed row ids.
    Piece(Piece<'a>),
    /// A fused join's matches: match `i` reads its key at row `keys[i]` of
    /// the key column and its value at row `values[i]` of the value
    /// column — the pair's build or probe row, by the side each column is
    /// on.
    Pairs {
        /// The key column's row of each match.
        keys: &'a [u32],
        /// The value column's row of each match.
        values: &'a [u32],
    },
}

impl Rows<'_> {
    fn len(&self) -> usize {
        match self {
            Rows::Piece(piece) => piece.len(),
            Rows::Pairs { keys, values } => {
                assert_eq!(keys.len(), values.len(), "loader delivers aligned pairs");
                keys.len()
            }
        }
    }
}

/// Where a loader delivers the rows of a task.
pub type Sink<'a> = &'a mut dyn FnMut(Rows<'_>);

/// HG/SPHG of `keys`/`values` under `agg`, on `pool` or, with none, on
/// the caller thread (see [`parallel_grouping_tasks`]).
///
/// Morsels are generated within the segment `bounds` — offsets from `0`
/// to `keys.len()`, one segment per surviving base-table partition range
/// (`&[0, keys.len()]` for an unpartitioned input; see
/// [`crate::morsel::morsels_within`]) — so no work unit mixes rows from
/// two partitions. Because the aggregate is decomposable and the merge is
/// key-ordered, the result is bit-identical for any bounds: the
/// segmentation only changes which rows travel together.
///
/// Returns the grouped result plus the pipeline accounting: the input
/// pass is a full breaker. On a pool the keys ascend
/// ([`GroupedResult::sorted_by_key`] set) and the merge of per-worker
/// partials is a second breaker, accounted at the merged group count.
pub fn parallel_grouping<A: Aggregator>(
    pool: Option<&ThreadPool>,
    keys: &[u32],
    values: &[u32],
    agg: A,
    strategy: GroupingStrategy,
    bounds: &[usize],
    morsel_rows: usize,
) -> Result<(GroupedResult<A::State>, PipelineStats), ExecError> {
    if keys.len() != values.len() {
        return Err(ExecError::LengthMismatch {
            keys: keys.len(),
            values: values.len(),
        });
    }
    let ms = morsels_within(bounds, morsel_rows);
    let columns = (keys, values);
    parallel_grouping_tasks(
        pool,
        ms.len(),
        agg,
        strategy,
        false,
        columns,
        |t, _, sink| {
            sink(Rows::Piece(Piece::Range(ms[t].start..ms[t].end)));
            Ok(())
        },
    )
}

/// [`parallel_grouping`] over `tasks` work units whose rows `load`
/// supplies: `load(t, scratch, sink)` hands task `t`'s [`Rows`] — a range,
/// or row ids kept in the worker's scratch — to `sink`, and the fold reads
/// the `(keys, values)` columns at them. The breaker accounting counts the
/// rows the loader actually delivered. With `ascending`, the caller
/// promises that the keys of every delivered range ascend, and each run of
/// equal keys is folded once (the result is the same for any keys; only
/// its speed rests on the promise; listed rows and pairs fold row by row).
///
/// With no `pool` the caller folds the tasks in order into one partial:
/// the serial kernel's result over the concatenated rows, row for row
/// (HG's table drained unsorted, SPHG's one array), and no merge breaker.
pub fn parallel_grouping_tasks<A, L>(
    pool: Option<&ThreadPool>,
    tasks: usize,
    agg: A,
    strategy: GroupingStrategy,
    ascending: bool,
    columns: (&[u32], &[u32]),
    load: L,
) -> Result<(GroupedResult<A::State>, PipelineStats), ExecError>
where
    A: Aggregator,
    L: Fn(usize, &mut Scratch, Sink<'_>) -> Result<(), ExecError> + Sync,
{
    assert!(
        A::IS_DECOMPOSABLE,
        "parallel grouping requires a decomposable aggregate"
    );
    let fold = Fold {
        pool,
        tasks,
        load: &load,
        columns,
        ascending,
    };
    let (result, rows) = match strategy {
        GroupingStrategy::Hash(table) => table.run(HashStrategy { fold, agg })?,
        GroupingStrategy::StaticPerfectHash { min, max } => sph_strategy(fold, agg, min, max)?,
    };
    let mut stats = PipelineStats::default();
    stats.record(Blocking::FullBreaker, rows);
    // The merge pass is a second breaker. It is accounted at the merged
    // group count (not the per-worker partial count, which depends on
    // the nondeterministic work-stealing split) so the stats honour the
    // same determinism contract as the results.
    if pool.is_some() {
        stats.record(Blocking::FullBreaker, result.len() as u64);
    }
    Ok((result, stats))
}

/// One worker's share of a fold: its partial aggregate, its scratch, the
/// rows it has consumed and the first loader error it met.
struct Worker<P> {
    partial: P,
    scratch: Scratch,
    rows: u64,
    failed: Option<ExecError>,
}

/// The task list of one grouping batch, how to load each task, and the
/// columns its rows are read from.
struct Fold<'a, L> {
    pool: Option<&'a ThreadPool>,
    tasks: usize,
    load: &'a L,
    columns: (&'a [u32], &'a [u32]),
    /// Every delivered range's keys ascend: fold runs, not rows.
    ascending: bool,
}

/// A worker's partial aggregate: the plan's hash table, or SPHG's array.
trait Partial<A: Aggregator> {
    /// Fold one row into its key's group.
    fn row(&mut self, agg: A, key: u32, value: u32);
    /// Merge a run's state, folded in a register, into its key's group.
    fn run(&mut self, agg: A, key: u32, run: &A::State);
}

/// HG's partial: one table of the plan's molecule.
struct Table<T>(T);

impl<A: Aggregator, T: GroupTable<A::State>> Partial<A> for Table<T> {
    #[inline]
    fn row(&mut self, agg: A, key: u32, value: u32) {
        agg.update(self.0.upsert_with(key, A::State::default), value);
    }

    #[inline]
    fn run(&mut self, agg: A, key: u32, run: &A::State) {
        agg.merge(self.0.upsert_with(key, A::State::default), run);
    }
}

/// The runs of equal adjacent keys in `keys`, each with its key and the
/// values of its rows.
fn runs<'k>(keys: &'k [u32], values: &'k [u32]) -> impl Iterator<Item = (u32, &'k [u32])> {
    let mut at = 0;
    keys.chunk_by(|a, b| a == b).map(move |run| {
        let rows = at..at + run.len();
        at = rows.end;
        (run[0], &values[rows])
    })
}

/// One run's values aggregated in a register, to be merged into its slot.
fn register<A: Aggregator>(agg: A, values: &[u32]) -> A::State {
    let mut state = A::State::default();
    values.iter().for_each(|&v| agg.update(&mut state, v));
    state
}

impl<L: Fn(usize, &mut Scratch, Sink<'_>) -> Result<(), ExecError> + Sync> Fold<'_, L> {
    /// Fold every task into per-worker partials (the caller is the one
    /// worker without a pool): returns the partials of the workers that
    /// ran at least one task, and the rows consumed.
    fn run<A: Aggregator, P: Partial<A> + Send>(
        &self,
        agg: A,
        init: impl Fn() -> P + Sync,
    ) -> Result<(Vec<P>, u64), ExecError> {
        let init = || Worker {
            partial: init(),
            scratch: Scratch::default(),
            rows: 0,
            failed: None,
        };
        let fold = |w: &mut Worker<P>, t| {
            let (partial, rows) = (&mut w.partial, &mut w.rows);
            let loaded = (self.load)(t, &mut w.scratch, &mut |at| {
                *rows += at.len() as u64;
                self.step(agg, partial, at);
            });
            w.failed = w.failed.take().or(loaded.err());
        };
        let workers = match self.pool {
            Some(pool) => pool.fold_tasks(self.tasks, init, fold)?,
            None => {
                let mut workers = Vec::from_iter((self.tasks > 0).then(init));
                (0..self.tasks).for_each(|t| fold(&mut workers[0], t));
                workers
            }
        };
        let mut rows = 0;
        let mut partials = Vec::with_capacity(workers.len());
        for w in workers {
            if let Some(e) = w.failed {
                return Err(e);
            }
            rows += w.rows;
            partials.push(w.partial);
        }
        Ok((partials, rows))
    }

    /// Fold the columns at `at` into `partial`, one monomorphic loop per
    /// shape: a range in place (run by run when its keys ascend), listed
    /// rows and a join's pairs by row id.
    fn step<A: Aggregator>(&self, agg: A, partial: &mut impl Partial<A>, at: Rows<'_>) {
        let (keys, values) = self.columns;
        match at {
            Rows::Piece(Piece::Range(r)) if self.ascending => {
                for (k, run) in runs(&keys[r.clone()], &values[r]) {
                    partial.run(agg, k, &register(agg, run));
                }
            }
            Rows::Piece(Piece::Range(r)) => {
                for (&k, &v) in keys[r.clone()].iter().zip(&values[r]) {
                    partial.row(agg, k, v);
                }
            }
            Rows::Piece(Piece::Rows(ids)) => {
                for &i in ids {
                    partial.row(agg, keys[i as usize], values[i as usize]);
                }
            }
            Rows::Pairs {
                keys: key_at,
                values: value_at,
            } => {
                for (&k, &v) in key_at.iter().zip(value_at) {
                    partial.row(agg, keys[k as usize], values[v as usize]);
                }
            }
        }
    }
}

/// HG: every worker upserts its morsels straight into one table of the
/// plan's molecule; worker tables merge into a key-sorted result, so the
/// output does not depend on the molecule or on the split. The caller's
/// one table drains as it is, in the table's own order.
struct HashStrategy<'a, A, L> {
    fold: Fold<'a, L>,
    agg: A,
}

impl<A, L> WithTable<A::State> for HashStrategy<'_, A, L>
where
    A: Aggregator,
    L: Fn(usize, &mut Scratch, Sink<'_>) -> Result<(), ExecError> + Sync,
{
    type Out = Result<(GroupedResult<A::State>, u64), ExecError>;

    fn run<T: GroupTable<A::State> + Send>(self, make: impl Fn() -> T + Sync) -> Self::Out {
        let agg = self.agg;
        let (tables, rows) = self.fold.run(agg, || Table(make()))?;
        let tables = tables.into_iter().map(|Table(table)| table);
        if self.fold.pool.is_none() {
            let (keys, states) = tables.flat_map(GroupTable::drain).unzip();
            let result = GroupedResult {
                keys,
                states,
                sorted_by_key: false,
            };
            return Ok((result, rows));
        }
        // Equal keys from different workers become neighbours; the
        // aggregate is decomposable, so folding them in any order gives
        // the same state.
        let mut partials: Vec<(u32, A::State)> = tables.flat_map(GroupTable::drain).collect();
        partials.sort_unstable_by_key(|&(k, _)| k);
        let (mut keys, mut states) = (Vec::new(), Vec::<A::State>::new());
        for (k, s) in partials {
            match states.last_mut() {
                Some(last) if keys.last() == Some(&k) => agg.merge(last, &s),
                _ => {
                    keys.push(k);
                    states.push(s);
                }
            }
        }
        Ok((
            GroupedResult {
                keys,
                states,
                sorted_by_key: true,
            },
            rows,
        ))
    }
}

/// Per-worker SPH state: the dense aggregate array over `[min, min +
/// slots.len())`, whose occupied slots are those with a non-zero count
/// ([`Aggregator::count`]), and the first key met outside it.
struct SphPartial<S> {
    min: u32,
    slots: Vec<S>,
    out_of_domain: Option<u32>,
}

impl<S> SphPartial<S> {
    /// `key`'s slot, or `None` for a key outside the domain, which is
    /// remembered.
    #[inline]
    fn slot(&mut self, key: u32) -> Option<&mut S> {
        let off = key.checked_sub(self.min).map(|off| off as usize);
        match off.filter(|&off| off < self.slots.len()) {
            Some(off) => Some(&mut self.slots[off]),
            None => {
                self.out_of_domain.get_or_insert(key);
                None
            }
        }
    }
}

impl<A: Aggregator> Partial<A> for SphPartial<A::State> {
    #[inline]
    fn row(&mut self, agg: A, key: u32, value: u32) {
        if let Some(slot) = self.slot(key) {
            agg.update(slot, value);
        }
    }

    #[inline]
    fn run(&mut self, agg: A, key: u32, run: &A::State) {
        if let Some(slot) = self.slot(key) {
            agg.merge(slot, run);
        }
    }
}

/// SPHG: each worker owns a dense `[min, max]` array — the same
/// static-perfect-hash molecule as serial SPHG — and the other workers'
/// arrays merge element-wise into the first one's. Output order is the
/// array order: ascending keys.
fn sph_strategy<A, L>(
    fold: Fold<'_, L>,
    agg: A,
    min: u32,
    max: u32,
) -> Result<(GroupedResult<A::State>, u64), ExecError>
where
    A: Aggregator,
    L: Fn(usize, &mut Scratch, Sink<'_>) -> Result<(), ExecError> + Sync,
{
    if max < min {
        return Err(ExecError::PreconditionViolated {
            algorithm: "SPHG",
            detail: format!("empty domain: max ({max}) < min ({min})"),
        });
    }
    let domain = (u64::from(max) - u64::from(min) + 1) as usize;
    let (partials, rows) = fold.run(agg, || SphPartial {
        min,
        slots: vec![A::State::default(); domain],
        out_of_domain: None,
    })?;
    if let Some(k) = partials.iter().find_map(|p| p.out_of_domain) {
        return Err(ExecError::PreconditionViolated {
            algorithm: "SPHG",
            detail: format!("key {k} outside dense domain [{min}, {max}]"),
        });
    }
    let (mut keys, mut states) = (Vec::new(), Vec::new());
    let mut partials = partials.into_iter();
    if let Some(mut all) = partials.next() {
        for p in partials {
            for (into, from) in all.slots.iter_mut().zip(&p.slots) {
                if agg.count(from) > 0 {
                    agg.merge(into, from);
                }
            }
        }
        for (off, state) in all.slots.into_iter().enumerate() {
            if agg.count(&state) > 0 {
                keys.push(min + off as u32);
                states.push(state);
            }
        }
    }
    Ok((
        GroupedResult {
            keys,
            states,
            sorted_by_key: true,
        },
        rows,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::morsel::DEFAULT_MORSEL_ROWS;
    use dqo_exec::aggregate::{CountSum, CountSumState, FullAgg};
    use dqo_exec::grouping::hg::hash_grouping_with;
    use dqo_exec::grouping::sphg::sph_grouping;
    use dqo_exec::grouping::{execute_grouping, GroupingAlgorithm, GroupingHints};

    fn dataset(n: usize, groups: u32) -> (Vec<u32>, Vec<u32>) {
        let keys: Vec<u32> = (0..n)
            .map(|i| (i as u32).wrapping_mul(2_654_435_761) % groups)
            .collect();
        let vals: Vec<u32> = (0..n).map(|i| (i % 1000) as u32).collect();
        (keys, vals)
    }

    fn serial_sorted(
        keys: &[u32],
        vals: &[u32],
    ) -> GroupedResult<dqo_exec::aggregate::CountSumState> {
        let mut r = execute_grouping(
            GroupingAlgorithm::HashBased,
            keys,
            vals,
            CountSum,
            &GroupingHints::default(),
        )
        .unwrap();
        r.sort_by_key();
        r
    }

    /// The fold with no pool, over `keys` cut into 1 000-row pieces.
    fn fold_on_caller(
        keys: &[u32],
        vals: &[u32],
        strategy: GroupingStrategy,
    ) -> Result<(GroupedResult<CountSumState>, PipelineStats), ExecError> {
        fold_with(None, CountSum, keys, vals, strategy, false)
    }

    /// The fold of `agg` on `pool` (or the caller) over 1 000-row pieces,
    /// folding runs when `ascending`.
    fn fold_with<A: Aggregator>(
        pool: Option<&ThreadPool>,
        agg: A,
        keys: &[u32],
        vals: &[u32],
        strategy: GroupingStrategy,
        ascending: bool,
    ) -> Result<(GroupedResult<A::State>, PipelineStats), ExecError> {
        let ms = morsels_within(&[0, keys.len()], 1_000);
        let columns = (keys, vals);
        parallel_grouping_tasks(
            pool,
            ms.len(),
            agg,
            strategy,
            ascending,
            columns,
            |t, _, sink| {
                sink(Rows::Piece(Piece::Range(ms[t].start..ms[t].end)));
                Ok(())
            },
        )
    }

    #[test]
    fn listed_rows_and_pairs_fold_as_the_rows_they_name() {
        let (keys, vals) = dataset(30_000, 64);
        // Every third row, listed; and pairs that read the key of row `i`
        // beside the value of row `i / 2`, in 1 000-match pieces.
        let ids: Vec<u32> = (0..keys.len() as u32).step_by(3).collect();
        let half: Vec<u32> = (0..keys.len() as u32).map(|i| i / 2).collect();
        let all: Vec<u32> = (0..keys.len() as u32).collect();
        let gathered =
            |at: &[u32], col: &[u32]| -> Vec<u32> { at.iter().map(|&i| col[i as usize]).collect() };
        let pool = ThreadPool::new(2);
        for strategy in [
            GroupingStrategy::Hash(HgTable::default()),
            GroupingStrategy::StaticPerfectHash { min: 0, max: 63 },
        ] {
            for pool in [None, Some(&pool)] {
                let listed = parallel_grouping_tasks(
                    pool,
                    ids.chunks(1_000).len(),
                    FullAgg,
                    strategy,
                    true,
                    (&keys, &vals),
                    |t, _, sink| {
                        sink(Rows::Piece(Piece::Rows(ids.chunks(1_000).nth(t).unwrap())));
                        Ok(())
                    },
                )
                .unwrap();
                let (k, v) = (gathered(&ids, &keys), gathered(&ids, &vals));
                let expect = fold_with(pool, FullAgg, &k, &v, strategy, false).unwrap();
                assert_eq!(listed, expect, "{strategy:?} pool={}", pool.is_some());

                let pairs = parallel_grouping_tasks(
                    pool,
                    all.chunks(1_000).len(),
                    FullAgg,
                    strategy,
                    false,
                    (&keys, &vals),
                    |t, _, sink| {
                        let at = t * 1_000..(t * 1_000 + 1_000).min(all.len());
                        let (keys, values) = (&all[at.clone()], &half[at]);
                        sink(Rows::Pairs { keys, values });
                        Ok(())
                    },
                )
                .unwrap();
                let v = gathered(&half, &vals);
                let expect = fold_with(pool, FullAgg, &keys, &v, strategy, false).unwrap();
                assert_eq!(pairs, expect, "{strategy:?} pool={}", pool.is_some());
            }
        }
    }

    #[test]
    fn hash_matches_serial_across_thread_counts() {
        let (mut keys, vals) = dataset(50_000, 97);
        // The open-addressing tables' empty-slot marker, as a real key.
        keys[4_321] = u32::MAX;
        let serial = serial_sorted(&keys, &vals);
        for threads in [1, 2, 8] {
            let pool = ThreadPool::new(threads);
            let (r, stats) = parallel_grouping(
                Some(&pool),
                &keys,
                &vals,
                CountSum,
                GroupingStrategy::Hash(HgTable::default()),
                &[0, keys.len()],
                1024,
            )
            .unwrap();
            assert_eq!(r, serial, "threads={threads}");
            assert!(stats.breakers >= 2);
        }
        // No pool: the caller folds every piece, in order, into one table,
        // which drains as the serial kernel's does — row for row, unsorted,
        // one breaker, under every table × hash pair and on empty input.
        for table in HgTable::ALL {
            for (keys, vals) in [(&keys[..], &vals[..]), (&[], &[])] {
                let (r, stats) = fold_on_caller(keys, vals, GroupingStrategy::Hash(table)).unwrap();
                assert_eq!(
                    r,
                    hash_grouping_with(keys, vals, CountSum, table),
                    "{table:?}"
                );
                assert_eq!(stats.breakers, 1, "{table:?}");
                assert_eq!(stats.materialised_rows, keys.len() as u64, "{table:?}");
            }
        }
    }

    #[test]
    fn segmented_grouping_is_bit_identical_to_plain() {
        let (keys, vals) = dataset(40_000, 53);
        let pool = ThreadPool::new(4);
        let (plain, _) = parallel_grouping(
            Some(&pool),
            &keys,
            &vals,
            CountSum,
            GroupingStrategy::Hash(HgTable::default()),
            &[0, keys.len()],
            512,
        )
        .unwrap();
        // Uneven partition-style segments, including an empty one.
        let bounds = [0usize, 1, 1, 7_000, 19_999, 40_000];
        let (seg, _) = parallel_grouping(
            Some(&pool),
            &keys,
            &vals,
            CountSum,
            GroupingStrategy::Hash(HgTable::default()),
            &bounds,
            512,
        )
        .unwrap();
        assert_eq!(seg, plain);
        let (seg_sph, _) = parallel_grouping(
            Some(&pool),
            &keys,
            &vals,
            CountSum,
            GroupingStrategy::StaticPerfectHash { min: 0, max: 52 },
            &bounds,
            512,
        )
        .unwrap();
        assert_eq!(seg_sph, plain);
    }

    #[test]
    fn sph_matches_serial_and_is_sorted() {
        let (keys, vals) = dataset(30_000, 64);
        let serial = serial_sorted(&keys, &vals);
        let pool = ThreadPool::new(4);
        let (r, _) = parallel_grouping(
            Some(&pool),
            &keys,
            &vals,
            CountSum,
            GroupingStrategy::StaticPerfectHash { min: 0, max: 63 },
            &[0, keys.len()],
            512,
        )
        .unwrap();
        assert!(r.sorted_by_key);
        assert_eq!(r, serial);
        // No pool: SPHG's one dense array, as the serial kernel fills it —
        // also on empty input and on a domain that ends at `u32::MAX`.
        let top = u32::MAX - 3;
        let high: Vec<u32> = keys.iter().map(|&k| top + k % 4).collect();
        for (keys, vals, min, max) in [
            (&keys[..], &vals[..], 0, 63),
            (&[][..], &[][..], 0, 63),
            (&high[..], &vals[..], top, u32::MAX),
        ] {
            let strategy = GroupingStrategy::StaticPerfectHash { min, max };
            let (r, stats) = fold_on_caller(keys, vals, strategy).unwrap();
            assert_eq!(r, sph_grouping(keys, vals, CountSum, min, max).unwrap());
            assert_eq!(stats.breakers, 1);
        }
    }

    #[test]
    fn sph_rejects_out_of_domain_keys() {
        let pool = ThreadPool::new(2);
        let r = parallel_grouping(
            Some(&pool),
            &[1, 2, 99],
            &[0, 0, 0],
            CountSum,
            GroupingStrategy::StaticPerfectHash { min: 0, max: 7 },
            &[0, 3],
            DEFAULT_MORSEL_ROWS,
        );
        let sphg = |r: &Result<_, ExecError>| {
            matches!(
                r,
                Err(ExecError::PreconditionViolated {
                    algorithm: "SPHG",
                    ..
                })
            )
        };
        assert!(sphg(&r));
        // On the caller thread too, with the key in a later piece.
        let mut keys = vec![3; 2_500];
        keys[2_100] = 99;
        let strategy = GroupingStrategy::StaticPerfectHash { min: 0, max: 7 };
        let r = fold_on_caller(&keys, &vec![0; keys.len()], strategy);
        assert!(sphg(&r));
    }

    /// Ascending keys in runs of 1 to 37 rows, runs crossing piece
    /// boundaries, ending in a run of `u32::MAX` — the open-addressing
    /// tables' empty-slot marker — and the values they carry.
    fn ascending_runs(n: usize) -> (Vec<u32>, Vec<u32>) {
        let mut keys = Vec::with_capacity(n);
        let mut key = 0u32;
        while keys.len() < n - 50 {
            let run = 1 + (key as usize * 7) % 37;
            keys.extend(std::iter::repeat_n(key, run));
            key += 1 + key % 3;
        }
        keys.truncate(n - 50);
        keys.resize(n, u32::MAX);
        let vals = (0..n)
            .map(|i| (i as u32).wrapping_mul(40_503) % 1_000)
            .collect();
        (keys, vals)
    }

    #[test]
    fn run_fold_equals_row_fold() {
        let (keys, vals) = ascending_runs(20_000);
        // 64 keys in runs of 3: the last key fills a grown chaining
        // table's 64 buckets, and only lookups follow it.
        let full: Vec<u32> = (0..192).map(|i| i / 3).collect();
        let pool = ThreadPool::new(2);
        for keys in [&keys[..], &full] {
            let vals = &vals[..keys.len()];
            for table in HgTable::ALL {
                let strategy = GroupingStrategy::Hash(table);
                for pool in [None, Some(&pool)] {
                    let rows = fold_with(pool, FullAgg, keys, vals, strategy, false).unwrap();
                    let runs = fold_with(pool, FullAgg, keys, vals, strategy, true).unwrap();
                    assert_eq!(runs, rows, "{table:?} pool={}", pool.is_some());
                }
            }
        }
        // SPHG over the keys below the marker run, and over a domain that
        // ends at `u32::MAX`, in runs of 47 with the last run the marker.
        let low = &keys[..keys.len() - 50];
        let top = u32::MAX - 63;
        let high: Vec<u32> = (0..3_000).map(|i| top + i / 47).collect();
        for (keys, min, max) in [(low, 0, low[low.len() - 1]), (&high[..], top, u32::MAX)] {
            let strategy = GroupingStrategy::StaticPerfectHash { min, max };
            let vals = &vals[..keys.len()];
            for pool in [None, Some(&pool)] {
                let rows = fold_with(pool, FullAgg, keys, vals, strategy, false).unwrap();
                let runs = fold_with(pool, FullAgg, keys, vals, strategy, true).unwrap();
                assert_eq!(runs, rows, "SPHG [{min}, {max}] pool={}", pool.is_some());
            }
        }
    }

    #[test]
    fn run_fold_rejects_an_out_of_domain_run() {
        // Key 99 sits inside a run of its own, three rows long, in the
        // third piece.
        let mut keys: Vec<u32> = (0..2_500).map(|i| i / 400).collect();
        keys.extend([99, 99, 99]);
        let vals = vec![1; keys.len()];
        let strategy = GroupingStrategy::StaticPerfectHash { min: 0, max: 7 };
        let pool = ThreadPool::new(2);
        for pool in [None, Some(&pool)] {
            let r = fold_with(pool, FullAgg, &keys, &vals, strategy, true);
            assert!(
                matches!(
                    r,
                    Err(ExecError::PreconditionViolated {
                        algorithm: "SPHG",
                        ref detail,
                    }) if detail.contains("key 99")
                ),
                "pool={}: {r:?}",
                pool.is_some()
            );
        }
    }

    #[test]
    fn empty_input() {
        let pool = ThreadPool::new(4);
        let (r, stats) = parallel_grouping(
            Some(&pool),
            &[],
            &[],
            CountSum,
            GroupingStrategy::Hash(HgTable::default()),
            &[0, 0],
            64,
        )
        .unwrap();
        assert!(r.is_empty());
        assert!(r.sorted_by_key);
        assert_eq!(stats.materialised_rows, 0);
    }

    #[test]
    fn length_mismatch_is_an_error() {
        let pool = ThreadPool::new(2);
        assert!(matches!(
            parallel_grouping(
                Some(&pool),
                &[1, 2],
                &[1],
                CountSum,
                GroupingStrategy::Hash(HgTable::default()),
                &[0, 2],
                64
            ),
            Err(ExecError::LengthMismatch { .. })
        ));
    }

    #[test]
    fn repeated_runs_are_identical() {
        let (keys, vals) = dataset(20_000, 31);
        let pool = ThreadPool::new(8);
        let (first, _) = parallel_grouping(
            Some(&pool),
            &keys,
            &vals,
            CountSum,
            GroupingStrategy::Hash(HgTable::default()),
            &[0, keys.len()],
            256,
        )
        .unwrap();
        for _ in 0..5 {
            let (again, _) = parallel_grouping(
                Some(&pool),
                &keys,
                &vals,
                CountSum,
                GroupingStrategy::Hash(HgTable::default()),
                &[0, keys.len()],
                256,
            )
            .unwrap();
            assert_eq!(again, first);
        }
    }
}
