//! Every grouping organelle as a fold of loaded pieces: thread-local
//! partials over morsels and a deterministic merge — or, with no pool, one
//! partial on the caller thread.
//!
//! Every worker folds the pieces it executes into a thread-local
//! structure — the same *molecule* the plan chose: the HG table/hash pair,
//! SPHG's dense array, BSG's sorted key array, or OG's runs — and the
//! partial states are merged once at the end. Correctness rests on the
//! aggregate being decomposable ([`Aggregator::IS_DECOMPOSABLE`]): per-key
//! partial states over a disjoint row partition merge to the same final
//! state regardless of how work stealing split the morsels, so the output
//! is **deterministic** for any thread count. HG, SPHG and BSG emit
//! ascending keys on a pool; OG emits its groups in input order, stitched
//! task by task. Without a pool the caller folds every piece in order into
//! one partial, which is what the serial kernels do, row for row.
//!
//! A task's rows come from a caller-supplied loader, and the fold reads
//! the key and value columns *at* them ([`Rows`]): a dense range in
//! place; the block masks a fused filter left over a range, one 64-row
//! block at a time — an empty block skipped, a stretch of full blocks
//! folded in place as a range, a mixed block by walking its set bits;
//! listed row ids (a filter over listed rows, a sort's order); a fused
//! join's pairs of build and probe rows; or, for SPHG under a unique join
//! index, the probe rows themselves ([`Probed`]), each folded at its one
//! match where the probe finds it. Nothing is gathered — the loader's only
//! buffers are the masks, ids and pair lists in the worker's [`Scratch`],
//! and a filter over a range or a probe that folds in place writes no row
//! id at all — and each shape has one monomorphic update loop, which
//! keeps the partial's array or table in locals. The dense entry points
//! are loaders that hand out ranges.
//! The state is whatever [`Aggregator`] the caller folds: COUNT/SUM's 16
//! bytes unless the query reads MIN or MAX.
//!
//! When the caller knows every range's keys ascend, a worker folds each
//! run of equal keys into a register and merges it into the key's slot
//! once per run, instead of updating the slot row after row (each update
//! waiting on the previous one's store). The states are the same: the
//! aggregate is decomposable, and every key is first met at the same row.
//! It adds a comparison per row and saves an update per repeated row, so
//! the caller asks for it only where runs are long. OG's partial folds
//! runs in a register for every shape of rows: its input is partitioned
//! by key, so its rows come in runs.

use crate::morsel::morsels_within;
use crate::pool::ThreadPool;
use dqo_exec::aggregate::Aggregator;
use dqo_exec::grouping::hg::{HgTable, WithTable};
use dqo_exec::grouping::GroupedResult;
use dqo_exec::join::{JoinIndex, WithPosting};
use dqo_exec::pipeline::{Blocking, PipelineStats};
use dqo_exec::ExecError;
use dqo_hashtable::GroupTable;
use dqo_storage::{Masked, Piece, SetBits, BLOCK_ROWS};
use std::cell::Cell;
use std::collections::HashSet;
use std::ops::Range;

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
    /// One list of runs per task, stitched in task order (parallel OG);
    /// the input must be partitioned by key.
    Order,
    /// A sorted key array per worker, searched by binary search; the keys
    /// it has not met are sorted in once they are as many as it holds
    /// (parallel BSG).
    BinarySearch,
}

/// Morsel-local buffers a loader may fill; one set per worker, reused
/// across the morsels that worker runs.
#[derive(Debug, Default)]
pub struct Scratch {
    /// A fused filter's block masks over a range (see [`Masked`]).
    pub masks: Vec<u64>,
    /// Row ids surviving a fused filter over listed rows.
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
    /// The same rows of both columns: the rows a fused filter kept of a
    /// range, as block masks.
    Masked(Masked<'a>),
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
    /// A fused join's probe rows under a unique index, each folded at its
    /// one match, if any. Only SPHG folds them; a loader hands them to no
    /// other grouping, which would panic.
    Probed(Probed<'a>),
}

/// A fused join's probe rows under a unique join index, folded in place:
/// probe row `j` matches at most the one posting of `on[j]`, and the fold
/// reads a build column at that posting — the column is carried in
/// posting order — and a probe column at `j`. No pair is written.
#[derive(Debug, Clone)]
pub struct Probed<'a> {
    /// The probe rows the loader kept of one piece.
    pub rows: Kept<'a>,
    /// The probe key column, read at each kept row.
    pub on: &'a [u32],
    /// The unique index the keys probe (a CSR index never comes here).
    pub index: &'a JoinIndex,
    /// Whether the key column, and the value column, are build columns.
    pub build: [bool; 2],
}

/// The rows a loader kept of one piece: the piece itself, or the block
/// masks its conjuncts left over a range.
#[derive(Debug, Clone)]
pub enum Kept<'a> {
    /// Every row of the piece.
    Piece(Piece<'a>),
    /// The rows the masks name.
    Masked(Masked<'a>),
}

/// Where a loader delivers the rows of a task; it returns the rows it
/// folded — a unique probe's matches, which only the fold counts.
pub type Sink<'a> = &'a mut dyn FnMut(Rows<'_>) -> usize;

/// A grouping of `keys`/`values` under `agg`, on `pool` or, with none, on
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
/// pass is a full breaker, except OG's, which streams. On a pool the merge
/// of per-worker partials is one more breaker, accounted at the merged
/// group count.
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
    let load = |t: usize, _: &mut Scratch, sink: Sink<'_>| {
        sink(Rows::Piece(Piece::Range(ms[t].start..ms[t].end)));
        Ok(())
    };
    let (tasks, columns, ascending) = (ms.len(), (keys, values), false);
    let fold = Fold {
        pool,
        tasks,
        load: &load,
        columns,
        ascending,
    };
    parallel_grouping_tasks(&fold, agg, strategy)
}

/// [`parallel_grouping`] over the tasks of `fold` (see [`Fold`]) under
/// `agg`, into `strategy`'s partials. The breaker accounting counts the
/// rows the loader actually delivered.
///
/// With no pool the caller folds the tasks in order into one partial:
/// the serial kernel's result over the concatenated rows, row for row
/// (HG's table drained unsorted, SPHG's one array, BSG's one sorted array,
/// OG's runs), and no merge breaker. OG checks at the stitch that no key
/// opens two groups, and fails with the serial kernel's typed error.
pub fn parallel_grouping_tasks<A: Aggregator>(
    fold: &Fold<'_>,
    agg: A,
    strategy: GroupingStrategy,
) -> Result<(GroupedResult<A::State>, PipelineStats), ExecError> {
    assert!(
        A::IS_DECOMPOSABLE,
        "parallel grouping requires a decomposable aggregate"
    );
    let (result, rows) = match strategy {
        GroupingStrategy::Hash(table) => table.run(HashStrategy { fold, agg })?,
        GroupingStrategy::StaticPerfectHash { min, max } => sph_strategy(fold, agg, min, max)?,
        GroupingStrategy::Order => order_strategy(fold, agg)?,
        GroupingStrategy::BinarySearch => bsg_strategy(fold, agg)?,
    };
    let mut stats = PipelineStats::default();
    match strategy {
        GroupingStrategy::Order => stats.record(Blocking::Pipelined, rows),
        _ => stats.record(Blocking::FullBreaker, rows),
    }
    // The merge pass is a second breaker. It is accounted at the merged
    // group count (not the per-worker partial count, which depends on
    // the nondeterministic work-stealing split) so the stats honour the
    // same determinism contract as the results.
    if fold.pool.is_some() {
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

/// What one grouping batch folds: `tasks` work units, run on `pool` or,
/// with none, on the caller thread, whose rows `load` supplies —
/// `load(t, scratch, sink)` hands task `t`'s [`Rows`] (a range, or row ids
/// kept in the worker's scratch) to `sink` — and the `(keys, values)`
/// columns the fold reads at them.
///
/// The loader is a trait object, called once per task, so each partial's
/// update loops are compiled once per aggregate whatever loader feeds
/// them, not once per loader.
pub struct Fold<'a> {
    /// The pool the tasks run on; `None` for the caller thread.
    pub pool: Option<&'a ThreadPool>,
    /// How many tasks `load` supplies.
    pub tasks: usize,
    /// The loader.
    pub load: &'a (dyn Fn(usize, &mut Scratch, Sink<'_>) -> Result<(), ExecError> + Sync),
    /// The key and value columns, read at the rows loaded.
    pub columns: (&'a [u32], &'a [u32]),
    /// The caller promises that the keys of every delivered range ascend,
    /// and each run of equal keys is folded once (the result is the same
    /// for any keys; only its speed rests on the promise; listed rows and
    /// pairs fold row by row).
    pub ascending: bool,
}

/// A worker's partial aggregate: the plan's hash table, SPHG's array,
/// BSG's sorted array or OG's runs.
trait Partial<A: Aggregator> {
    /// Task `t`'s rows come next.
    fn begin(&mut self, _t: usize) {}
    /// Fold `(key, value)` rows, in order, into their keys' groups.
    fn rows(&mut self, agg: A, rows: impl Iterator<Item = (u32, u32)>);
    /// Merge a run's state, folded in a register, into its key's group.
    fn run(&mut self, agg: A, key: u32, run: &A::State);
    /// Fold a unique probe's kept rows at their matches (see [`Probed`]);
    /// returns the matches. Only SPHG's array folds a probe in place — the
    /// caller hands [`Rows::Probed`] to no other grouping — so the loop is
    /// compiled for its partial alone.
    fn probed(&mut self, _agg: A, _columns: (&[u32], &[u32]), _probed: &Probed<'_>) -> usize {
        unreachable!("only SPHG folds a unique probe's rows in place")
    }
}

/// HG's partial: one table of the plan's molecule.
struct Table<T>(T);

impl<A: Aggregator, T: GroupTable<A::State>> Partial<A> for Table<T> {
    #[inline]
    fn rows(&mut self, agg: A, rows: impl Iterator<Item = (u32, u32)>) {
        let table = &mut self.0;
        rows.for_each(|(k, v)| agg.update(table.upsert_with(k, A::State::default), v));
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

impl Fold<'_> {
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
            partial.begin(t);
            let loaded = (self.load)(t, &mut w.scratch, &mut |at| {
                let n = self.step(agg, partial, at);
                *rows += n as u64;
                n
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
    /// shape: a range in place; masks block by block (see [`blocks`]), a
    /// stretch of full blocks in place as a range, a mixed block at its
    /// set bits; listed rows and a join's pairs by row id; a unique
    /// probe's rows at their matches (see [`fold_probed`]). Returns the
    /// rows folded.
    fn step<A: Aggregator>(&self, agg: A, partial: &mut impl Partial<A>, at: Rows<'_>) -> usize {
        let (keys, values) = self.columns;
        let at_rows = |(k, v): (&u32, &u32)| (keys[*k as usize], values[*v as usize]);
        match at {
            Rows::Piece(Piece::Range(r)) => {
                let n = r.len();
                self.range(agg, partial, r);
                n
            }
            Rows::Masked(masked) => blocks(
                masked,
                partial,
                |partial, r| {
                    let n = r.len();
                    self.range(agg, partial, r);
                    n
                },
                |partial, at, mask| {
                    let (k, v) = (&keys[at..], &values[at..]);
                    partial.rows(agg, SetBits(mask).map(|j| (k[j], v[j])));
                    mask.count_ones() as usize
                },
            ),
            Rows::Piece(Piece::Rows(ids)) => {
                partial.rows(agg, ids.iter().map(|i| at_rows((i, i))));
                ids.len()
            }
            Rows::Pairs { keys: k, values: v } => {
                assert_eq!(k.len(), v.len(), "loader delivers aligned pairs");
                partial.rows(agg, k.iter().zip(v).map(at_rows));
                k.len()
            }
            Rows::Probed(probed) => partial.probed(agg, self.columns, &probed),
        }
    }

    /// Fold the rows `r` of the columns into `partial` in place: run by
    /// run when their keys ascend, else row by row.
    #[inline]
    fn range<A: Aggregator>(&self, agg: A, partial: &mut impl Partial<A>, r: Range<usize>) {
        let (keys, values) = (&self.columns.0[r.clone()], &self.columns.1[r]);
        match self.ascending {
            true => {
                for (k, run) in runs(keys, values) {
                    partial.run(agg, k, &register(agg, run));
                }
            }
            false => partial.rows(agg, keys.iter().zip(values).map(|(k, v)| (*k, *v))),
        }
    }
}

/// A unique probe's fold into SPHG's `partial` over the columns, run with
/// the index's posting map (see [`JoinIndex::with_posting`]).
struct InPlace<'p, 'a, A: Aggregator> {
    agg: A,
    partial: &'p mut SphPartial<A::State>,
    columns: (&'a [u32], &'a [u32]),
    probed: &'p Probed<'a>,
}

impl<A: Aggregator> WithPosting for InPlace<'_, '_, A> {
    type Out = usize;

    /// One loop per side the key and the value are on, so no row picks
    /// the row it reads: a build column at the posting `p`, a probe column
    /// at the probe row `j`.
    fn run(self, posting: impl Fn(u32) -> Option<u32> + Copy) -> usize {
        let InPlace {
            agg,
            partial,
            columns: (k, v),
            probed,
        } = self;
        match probed.build {
            [true, true] => fold_probed(agg, partial, probed, posting, |p, _| (k[p], v[p])),
            [true, false] => fold_probed(agg, partial, probed, posting, |p, j| (k[p], v[j])),
            [false, true] => fold_probed(agg, partial, probed, posting, |p, j| (k[j], v[p])),
            [false, false] => fold_probed(agg, partial, probed, posting, |_, j| (k[j], v[j])),
        }
    }
}

/// Fold the `(key, value)` that `read` takes at each kept probe row `j`
/// of `probed` that `posting` matches, and at its posting `p`, into
/// `partial`; returns the matches. One loop per aggregate, slot map and
/// pair of sides, called once per piece and kept out of line so the
/// loaders' other shapes compile as they would without it: a range or
/// listed rows row by row, masks block by block (see [`blocks`]).
#[inline(never)]
fn fold_probed<A: Aggregator>(
    agg: A,
    partial: &mut SphPartial<A::State>,
    probed: &Probed<'_>,
    posting: impl Fn(u32) -> Option<u32> + Copy,
    read: impl Fn(usize, usize) -> (u32, u32) + Copy,
) -> usize {
    let fold = |partial: &mut SphPartial<A::State>, rows: Range<usize>| {
        let len = rows.len();
        fold_matched(agg, partial, (rows, len), probed, posting, read)
    };
    match &probed.rows {
        Kept::Piece(Piece::Range(r)) => fold(partial, r.clone()),
        Kept::Piece(Piece::Rows(ids)) => {
            let rows = ids.iter().map(|&i| i as usize);
            fold_matched(agg, partial, (rows, ids.len()), probed, posting, read)
        }
        &Kept::Masked(masked) => blocks(masked, partial, fold, |partial, at, mask| {
            let rows = SetBits(mask).map(|j| at + j);
            let len = mask.count_ones() as usize;
            fold_matched(agg, partial, (rows, len), probed, posting, read)
        }),
    }
}

/// Walk `masked` block by block, `state` handed to each step: an empty
/// block skipped, a stretch of full blocks to `range` as one range, a
/// mixed block to `bits` with its first row and its mask. Each step
/// returns the rows it folded; returns their sum.
#[inline(always)]
fn blocks<S: ?Sized>(
    Masked { start, masks }: Masked<'_>,
    state: &mut S,
    mut range: impl FnMut(&mut S, Range<usize>) -> usize,
    mut bits: impl FnMut(&mut S, usize, u64) -> usize,
) -> usize {
    let (mut b, mut n) = (0, 0);
    while let Some(&mask) = masks.get(b) {
        let at = start + b * BLOCK_ROWS;
        match mask {
            0 => b += 1,
            u64::MAX => {
                let full = masks[b..].iter().take_while(|&&m| m == mask).count();
                n += range(state, at..at + full * BLOCK_ROWS);
                b += full;
            }
            _ => {
                n += bits(state, at, mask);
                b += 1;
            }
        }
    }
    n
}

/// Fold the matches of `rows`, `len` rows, into `partial` (see
/// [`Matched`]); returns how many there were.
#[inline(always)]
fn fold_matched<A: Aggregator>(
    agg: A,
    partial: &mut SphPartial<A::State>,
    (rows, len): (impl Iterator<Item = usize>, usize),
    probed: &Probed<'_>,
    posting: impl Fn(u32) -> Option<u32>,
    read: impl Fn(usize, usize) -> (u32, u32),
) -> usize {
    let missed = &Cell::new(0);
    let matched = Matched {
        rows,
        on: probed.on,
        posting,
        read,
        missed,
    };
    partial.rows(agg, matched);
    len - missed.get()
}

/// The `(key, value)` that `read` takes at each of `rows` that `posting`
/// matches, and at its posting, counting in `missed` the rows it does
/// not. The fold takes it by value, so its cursor stays in a register,
/// and a probe key most often matches, so the count costs nothing on the
/// common path.
struct Matched<'a, I, F, R> {
    rows: I,
    on: &'a [u32],
    posting: F,
    read: R,
    missed: &'a Cell<usize>,
}

impl<I, F, R> Iterator for Matched<'_, I, F, R>
where
    I: Iterator<Item = usize>,
    F: Fn(u32) -> Option<u32>,
    R: Fn(usize, usize) -> (u32, u32),
{
    type Item = (u32, u32);

    #[inline(always)]
    fn next(&mut self) -> Option<(u32, u32)> {
        for j in self.rows.by_ref() {
            let Some(p) = (self.posting)(self.on[j]) else {
                self.missed.set(self.missed.get() + 1);
                continue;
            };
            return Some((self.read)(p as usize, j));
        }
        None
    }
}

/// HG: every worker upserts its morsels straight into one table of the
/// plan's molecule; worker tables merge into a key-sorted result, so the
/// output does not depend on the molecule or on the split. The caller's
/// one table drains as it is, in the table's own order.
struct HashStrategy<'a, A> {
    fold: &'a Fold<'a>,
    agg: A,
}

impl<A: Aggregator> WithTable<A::State> for HashStrategy<'_, A> {
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
        Ok((
            merge_by_key(agg, tables.flat_map(GroupTable::drain).collect()),
            rows,
        ))
    }
}

/// The workers' partial groups merged into ascending keys: equal keys from
/// different workers become neighbours, and the aggregate is decomposable,
/// so folding them in any order gives the same state.
fn merge_by_key<A: Aggregator>(
    agg: A,
    mut partials: Vec<(u32, A::State)>,
) -> GroupedResult<A::State> {
    partials.sort_unstable_by_key(|&(k, _)| k);
    stitch(agg, partials)
}

/// `groups` in order, each merged into the one before it when their keys
/// are equal.
fn stitch<A: Aggregator>(
    agg: A,
    groups: impl IntoIterator<Item = (u32, A::State)>,
) -> GroupedResult<A::State> {
    let (mut keys, mut states) = (Vec::new(), Vec::<A::State>::new());
    for (k, s) in groups {
        match states.last_mut() {
            Some(last) if keys.last() == Some(&k) => agg.merge(last, &s),
            _ => {
                keys.push(k);
                states.push(s);
            }
        }
    }
    GroupedResult {
        keys,
        states,
        sorted_by_key: true,
    }
}

/// Two groupings whose keys ascend, each key once, as one: a key both
/// hold has its states merged, the groups of `a` first — how OG over a
/// sorted projection joins the groups of its sorted prefix, folded in
/// runs, and of its tail, which comes in append order and so folds into
/// BSG's sorted array. Both are folds of one decomposable aggregate over
/// disjoint rows, so the result is the grouping of all the rows.
///
/// An index loop, not `stitch` over a merged iterator: served behind
/// OG on spine's `mixed.insert_read` (2-core x86-64), that version made
/// the `filter.key` class p50 478 µs against this loop's 367.
pub fn merge_ascending<A: Aggregator>(
    agg: A,
    a: GroupedResult<A::State>,
    b: GroupedResult<A::State>,
) -> GroupedResult<A::State> {
    let (n, m) = (a.keys.len(), b.keys.len());
    let (mut keys, mut states) = (Vec::with_capacity(n + m), Vec::with_capacity(n + m));
    let (mut i, mut j) = (0, 0);
    while i < n && j < m {
        let (x, y) = (a.keys[i], b.keys[j]);
        if y < x {
            keys.push(y);
            states.push(b.states[j].clone());
            j += 1;
            continue;
        }
        let mut state = a.states[i].clone();
        if y == x {
            agg.merge(&mut state, &b.states[j]);
            j += 1;
        }
        keys.push(x);
        states.push(state);
        i += 1;
    }
    keys.extend_from_slice(&a.keys[i..]);
    states.extend_from_slice(&a.states[i..]);
    keys.extend_from_slice(&b.keys[j..]);
    states.extend_from_slice(&b.states[j..]);
    GroupedResult {
        keys,
        states,
        sorted_by_key: true,
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
    /// The array's base and slots held in locals for the loop: a key below
    /// the base wraps past every slot.
    #[inline]
    fn rows(&mut self, agg: A, rows: impl Iterator<Item = (u32, u32)>) {
        let (min, slots) = (self.min, &mut self.slots[..]);
        let mut outside = None;
        for (key, value) in rows {
            match slots.get_mut(key.wrapping_sub(min) as usize) {
                Some(slot) => agg.update(slot, value),
                None => {
                    outside.get_or_insert(key);
                }
            }
        }
        if let Some(key) = outside {
            self.out_of_domain.get_or_insert(key);
        }
    }

    #[inline]
    fn run(&mut self, agg: A, key: u32, run: &A::State) {
        if let Some(slot) = self.slot(key) {
            agg.merge(slot, run);
        }
    }

    fn probed(&mut self, agg: A, columns: (&[u32], &[u32]), probed: &Probed<'_>) -> usize {
        let in_place = InPlace {
            agg,
            partial: self,
            columns,
            probed,
        };
        (probed.index.with_posting(in_place)).expect("a probe folds in place over a unique index")
    }
}

/// SPHG: each worker owns a dense `[min, max]` array — the same
/// static-perfect-hash molecule as serial SPHG — and the other workers'
/// arrays merge element-wise into the first one's. Output order is the
/// array order: ascending keys.
fn sph_strategy<A: Aggregator>(
    fold: &Fold<'_>,
    agg: A,
    min: u32,
    max: u32,
) -> Result<(GroupedResult<A::State>, u64), ExecError> {
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

/// OG's partial: per task it folded, the groups of its rows in the order
/// their keys were met, one group per run of equal keys.
struct Runs<S> {
    tasks: Vec<(usize, Vec<u32>, Vec<S>)>,
}

impl<S: Default> Runs<S> {
    /// The current run's state: the last group of the current task when
    /// it has `key`, else a new group.
    fn group(&mut self, key: u32) -> &mut S {
        let (_, keys, states) = self.tasks.last_mut().expect("a task began");
        if keys.last() != Some(&key) {
            keys.push(key);
            states.push(S::default());
        }
        states.last_mut().expect("a group")
    }
}

impl<A: Aggregator> Partial<A> for Runs<A::State> {
    fn begin(&mut self, t: usize) {
        self.tasks.push((t, Vec::new(), Vec::new()));
    }

    fn run(&mut self, agg: A, key: u32, run: &A::State) {
        agg.merge(self.group(key), run);
    }

    /// Each run of equal keys folds in a register, merged into its group
    /// once.
    #[inline]
    fn rows(&mut self, agg: A, rows: impl Iterator<Item = (u32, u32)>) {
        let mut rows = rows.peekable();
        while let Some((k, v)) = rows.next() {
            let mut run = register(agg, &[v]);
            while let Some((_, v)) = rows.next_if(|r| r.0 == k) {
                agg.update(&mut run, v);
            }
            agg.merge(self.group(k), &run);
        }
    }
}

/// OG: every task folds its rows into runs; the tasks' lists are stitched
/// in task order, a group a task boundary cut merged into one. The input
/// is partitioned by key exactly when no key then opens two groups — a
/// check that costs nothing when the keys ascend, and one hash-set insert
/// per group when they do not.
fn order_strategy<A: Aggregator>(
    fold: &Fold<'_>,
    agg: A,
) -> Result<(GroupedResult<A::State>, u64), ExecError> {
    let (partials, rows) = fold.run(agg, || Runs { tasks: Vec::new() })?;
    let mut lists: Vec<_> = partials.into_iter().flat_map(|p| p.tasks).collect();
    lists.sort_unstable_by_key(|&(t, ..)| t);
    // A run a task boundary cut is the one pair of equal neighbours.
    let mut result = stitch(
        agg,
        lists.into_iter().flat_map(|(_, k, s)| k.into_iter().zip(s)),
    );
    result.sorted_by_key = result.keys.windows(2).all(|w| w[0] < w[1]);
    if !result.sorted_by_key {
        let mut seen = HashSet::with_capacity(result.len());
        if let Some(k) = result.keys.iter().find(|&&k| !seen.insert(k)) {
            return Err(ExecError::PreconditionViolated {
                algorithm: "OG",
                detail: format!("input not partitioned by grouping key: key {k} reappears"),
            });
        }
    }
    Ok((result, rows))
}

/// BSG's partial: the groups met so far, ascending by key, and a group
/// for each row or run whose key the array did not hold when it came —
/// the misses, in arrival order. The misses are sorted into the array once
/// there are as many of them as the array has groups (at least [`MISSES`]),
/// so each miss is moved into place O(1) times amortised, and a worker
/// that meets `G` keys in `n` rows costs O(n log n) at any `G`.
struct SortedArray<S> {
    groups: Vec<(u32, S)>,
    misses: Vec<(u32, S)>,
}

/// The fewest misses BSG's partial holds before it sorts them in: below
/// this many rows one sort of all of them costs less than searching (a
/// worker meeting 227 keys in 600 rows took 14 µs this way against 24 µs
/// sorting in every 32, on a 2-core x86-64 box).
const MISSES: usize = 1_024;

impl<S> SortedArray<S> {
    /// `key`'s group in the array, found by binary search.
    fn hit(&mut self, key: u32) -> Option<&mut S> {
        let at = self.groups.binary_search_by_key(&key, |g| g.0).ok()?;
        Some(&mut self.groups[at].1)
    }

    /// Hold `state` as a miss of `key`; once the misses are as many as
    /// the groups, sort them in and merge each key's states into one.
    fn miss<A: Aggregator<State = S>>(&mut self, agg: A, key: u32, state: S) {
        self.misses.push((key, state));
        if self.misses.len() >= self.groups.len().max(MISSES) {
            self.misses.sort_unstable_by_key(|g| g.0);
            self.groups.append(&mut self.misses);
            // Two sorted runs: the stable sort merges them.
            self.groups.sort_by_key(|g| g.0);
            self.groups.dedup_by(|next, kept| {
                next.0 == kept.0 && {
                    agg.merge(&mut kept.1, &next.1);
                    true
                }
            });
        }
    }
}

impl<A: Aggregator> Partial<A> for SortedArray<A::State> {
    fn rows(&mut self, agg: A, rows: impl Iterator<Item = (u32, u32)>) {
        for (key, value) in rows {
            match self.hit(key) {
                Some(group) => agg.update(group, value),
                None => self.miss(agg, key, register(agg, &[value])),
            }
        }
    }

    fn run(&mut self, agg: A, key: u32, run: &A::State) {
        match self.hit(key) {
            Some(group) => agg.merge(group, run),
            None => self.miss(agg, key, run.clone()),
        }
    }
}

/// BSG: each worker searches its own sorted array, and the arrays merge by
/// key as HG's tables do.
fn bsg_strategy<A: Aggregator>(
    fold: &Fold<'_>,
    agg: A,
) -> Result<(GroupedResult<A::State>, u64), ExecError> {
    let (partials, rows) = fold.run(agg, || SortedArray {
        groups: Vec::new(),
        misses: Vec::new(),
    })?;
    let groups = partials
        .into_iter()
        .flat_map(|p| p.groups.into_iter().chain(p.misses));
    Ok((merge_by_key(agg, groups.collect()), rows))
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
        let load = |t: usize, _: &mut Scratch, sink: Sink<'_>| {
            sink(Rows::Piece(Piece::Range(ms[t].start..ms[t].end)));
            Ok(())
        };
        fold_tasks(
            pool,
            ms.len(),
            &load,
            (keys, vals),
            ascending,
            agg,
            strategy,
        )
    }

    /// [`parallel_grouping_tasks`] over the `tasks` that `load` supplies.
    fn fold_tasks<A: Aggregator>(
        pool: Option<&ThreadPool>,
        tasks: usize,
        load: &(dyn Fn(usize, &mut Scratch, Sink<'_>) -> Result<(), ExecError> + Sync),
        columns: (&[u32], &[u32]),
        ascending: bool,
        agg: A,
        strategy: GroupingStrategy,
    ) -> Result<(GroupedResult<A::State>, PipelineStats), ExecError> {
        let fold = Fold {
            pool,
            tasks,
            load,
            columns,
            ascending,
        };
        parallel_grouping_tasks(&fold, agg, strategy)
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
        let listed = |t: usize, _: &mut Scratch, sink: Sink<'_>| {
            sink(Rows::Piece(Piece::Rows(ids.chunks(1_000).nth(t).unwrap())));
            Ok(())
        };
        let pairs = |t: usize, _: &mut Scratch, sink: Sink<'_>| {
            let at = t * 1_000..(t * 1_000 + 1_000).min(all.len());
            let (keys, values) = (&all[at.clone()], &half[at]);
            sink(Rows::Pairs { keys, values });
            Ok(())
        };
        for strategy in [
            GroupingStrategy::Hash(HgTable::default()),
            GroupingStrategy::StaticPerfectHash { min: 0, max: 63 },
            GroupingStrategy::BinarySearch,
        ] {
            for pool in [None, Some(&pool)] {
                let tasks = ids.chunks(1_000).len();
                let columns = (&keys[..], &vals[..]);
                let listed =
                    fold_tasks(pool, tasks, &listed, columns, true, FullAgg, strategy).unwrap();
                let (k, v) = (gathered(&ids, &keys), gathered(&ids, &vals));
                let expect = fold_with(pool, FullAgg, &k, &v, strategy, false).unwrap();
                assert_eq!(listed, expect, "{strategy:?} pool={}", pool.is_some());

                let tasks = all.chunks(1_000).len();
                let pairs =
                    fold_tasks(pool, tasks, &pairs, columns, false, FullAgg, strategy).unwrap();
                let v = gathered(&half, &vals);
                let expect = fold_with(pool, FullAgg, &keys, &v, strategy, false).unwrap();
                assert_eq!(pairs, expect, "{strategy:?} pool={}", pool.is_some());
            }
        }
    }

    /// Masks over ranges fold as the rows they keep: empty, full and
    /// mixed blocks, pieces that start mid-block and end short, folded row
    /// by row and — for full blocks — run by run, by every partial.
    #[test]
    fn masked_rows_fold_as_the_rows_they_keep() {
        let (runs, vals) = ascending_runs(30_000);
        let kept =
            |i: usize| (i / 700).is_multiple_of(3) || (i.is_multiple_of(5) && (i / 700) % 3 == 1);
        let ids: Vec<u32> = (0..runs.len() as u32)
            .filter(|&i| kept(i as usize))
            .collect();
        // Pieces of 1 000 rows from row 40: none starts on a block edge.
        let starts: Vec<usize> = (40..runs.len()).step_by(1_000).collect();
        let masks: Vec<Vec<u64>> = starts
            .iter()
            .map(|&s| {
                let end = (s + 1_000).min(runs.len());
                (s..end)
                    .step_by(BLOCK_ROWS)
                    .map(|b| {
                        (b..end.min(b + BLOCK_ROWS))
                            .filter(|&i| kept(i))
                            .fold(0u64, |m, i| m | 1 << (i - b))
                    })
                    .collect()
            })
            .collect();
        let masked = |t: usize, _: &mut Scratch, sink: Sink<'_>| {
            let (start, masks) = (starts[t], &masks[t][..]);
            sink(Rows::Masked(Masked { start, masks }));
            Ok(())
        };
        let ids: Vec<u32> = ids.into_iter().filter(|&i| i >= 40).collect();
        let gathered = |col: &[u32]| -> Vec<u32> { ids.iter().map(|&i| col[i as usize]).collect() };
        let (k, v) = (gathered(&runs), gathered(&vals));
        let pool = ThreadPool::new(2);
        let low = &runs[..runs.len() - 50];
        for strategy in [
            GroupingStrategy::Hash(HgTable::default()),
            GroupingStrategy::BinarySearch,
            GroupingStrategy::Order,
        ] {
            for pool in [None, Some(&pool)] {
                for ascending in [false, true] {
                    let columns = (&runs[..], &vals[..]);
                    let got = fold_tasks(
                        pool,
                        starts.len(),
                        &masked,
                        columns,
                        ascending,
                        FullAgg,
                        strategy,
                    )
                    .unwrap();
                    let want = fold_with(pool, FullAgg, &k, &v, strategy, false).unwrap();
                    assert_eq!(
                        got.0,
                        want.0,
                        "{strategy:?} pool={} ascending={ascending}",
                        pool.is_some()
                    );
                    assert_eq!(
                        got.1.materialised_rows + got.1.streamed_rows,
                        want.1.materialised_rows + want.1.streamed_rows
                    );
                }
            }
        }
        // SPHG over the keys below the marker run.
        let strategy = GroupingStrategy::StaticPerfectHash {
            min: 0,
            max: low[low.len() - 1],
        };
        let starts_low = starts.iter().filter(|&&s| s + 1_000 <= low.len()).count();
        let ids_low: Vec<u32> = ids
            .iter()
            .copied()
            .filter(|&i| (i as usize) < 40 + starts_low * 1_000)
            .collect();
        let (k, v): (Vec<u32>, Vec<u32>) = ids_low
            .iter()
            .map(|&i| (runs[i as usize], vals[i as usize]))
            .unzip();
        for pool in [None, Some(&pool)] {
            let got = fold_tasks(
                pool,
                starts_low,
                &masked,
                (&runs[..], &vals[..]),
                false,
                FullAgg,
                strategy,
            )
            .unwrap();
            let want = fold_with(pool, FullAgg, &k, &v, strategy, false).unwrap();
            assert_eq!(got.0, want.0, "SPHG pool={}", pool.is_some());
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
    fn og_stitches_runs_across_pieces_and_bsg_merges_sorted_arrays() {
        use dqo_exec::grouping::bsg::binary_search_grouping_discover;
        use dqo_exec::grouping::og::order_grouping;
        // Runs crossing the 1 000-row piece bounds, one group over every
        // piece, and runs of keys that descend: OG's output is its input's
        // order, stitched; BSG's is ascending.
        let (runs, vals) = ascending_runs(20_000);
        let one = vec![5; 4_321];
        let descending: Vec<u32> = (0..9_000).map(|i| 90 - i / 100).collect();
        let pools = [ThreadPool::new(2), ThreadPool::new(8)];
        for keys in [&runs[..], &one, &descending, &[]] {
            let vals = &vals[..keys.len()];
            let og = order_grouping(keys, vals, FullAgg).unwrap();
            let bsg = binary_search_grouping_discover(keys, vals, FullAgg);
            for pool in [None, Some(&pools[0]), Some(&pools[1])] {
                for ascending in [false, true] {
                    let fold = |strategy| {
                        let r = fold_with(pool, FullAgg, keys, vals, strategy, ascending);
                        r.unwrap().0
                    };
                    let what = format!("{} rows pool={}", keys.len(), pool.is_some());
                    assert_eq!(fold(GroupingStrategy::Order), og, "OG {what}");
                    assert_eq!(fold(GroupingStrategy::BinarySearch), bsg, "BSG {what}");
                }
            }
        }
        // A key that reappears after other keys, only in a later piece.
        let mut keys: Vec<u32> = (0..5_000).map(|i| i / 10).collect();
        keys[4_999] = 3;
        for pool in [None, Some(&pools[0]), Some(&pools[1])] {
            let r = fold_with(pool, CountSum, &keys, &keys, GroupingStrategy::Order, false);
            assert!(
                matches!(
                    r,
                    Err(ExecError::PreconditionViolated {
                        algorithm: "OG",
                        ..
                    })
                ),
                "pool={}",
                pool.is_some()
            );
        }
    }

    /// BSG meeting far more keys than a plan for few groups expects —
    /// 100 000 distinct keys, each twice, scattered or ascending and then
    /// folded run by run — equals the discover kernel at every pool size.
    #[test]
    fn bsg_meeting_many_keys_equals_the_discover_kernel() {
        use dqo_exec::grouping::bsg::binary_search_grouping_discover;
        let scattered: Vec<u32> = (0..200_000u32)
            .map(|i| (i % 100_000).wrapping_mul(2_654_435_761))
            .collect();
        let ascending: Vec<u32> = (0..200_000).map(|i| i / 2).collect();
        let vals: Vec<u32> = (0..200_000).collect();
        let pools = [ThreadPool::new(2), ThreadPool::new(8)];
        for (keys, runs) in [(&scattered, false), (&ascending, true)] {
            let expect = binary_search_grouping_discover(keys, &vals, FullAgg);
            assert_eq!(expect.len(), 100_000);
            for pool in [None, Some(&pools[0]), Some(&pools[1])] {
                let strategy = GroupingStrategy::BinarySearch;
                let (r, _) = fold_with(pool, FullAgg, keys, &vals, strategy, runs).unwrap();
                assert_eq!(r, expect, "runs={runs} pool={}", pool.is_some());
            }
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
