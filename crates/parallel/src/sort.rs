//! The sort granule and the sort-based operators built on it: argsort and
//! top-n, each one loop that runs on a pool or, with none, on the caller
//! thread, and SOG and SOJ, the sort feeding OG's fold or OJ's loop.
//!
//! The paper treats the sort as an unnestable granule and *which* sort to
//! run as a molecule-level decision (the E9 ablation); this module keeps
//! that decision ([`SortMolecule`]: pdqsort vs LSB radix). How many
//! workers run it is a parameter of the granule's loop, not a second
//! operator:
//!
//! 1. **Run formation** — the input splits into one contiguous block per
//!    worker (one block with no pool); each block becomes a sorted run of
//!    `(key, row)` pairs under the canonical **total order** (key, then
//!    original row index). Both molecules produce the identical run: the
//!    comparison sort orders the tuples directly and the radix sort is
//!    stable over pairs built in row order.
//! 2. **Merge Path merge** — with more than one run, [`crate::merge_path`]
//!    cuts every run so each worker emits one contiguous, disjoint range
//!    of the final output. Because the order is total and row indices are
//!    unique, the merged output is *the* sorted permutation — bit-identical
//!    for any DOP, worker count, or steal order, and equal to the stable
//!    [`dqo_exec::sort::argsort`].
//!
//! [`parallel_sog`] is the sort feeding OG's fold, and
//! [`parallel_sort_merge_join`] the sorts of both sides feeding OJ's loop;
//! neither has a loop of its own. Both equal `dqo-exec`'s
//! `sog::sort_order_grouping` and `soj::sort_merge_join` bit for bit at
//! every DOP.

use crate::grouping::{parallel_grouping_tasks, Fold, GroupingStrategy, Rows, Scratch, Sink};
use crate::join::parallel_order_join;
use crate::morsel::{morsels, DEFAULT_MORSEL_ROWS};
use crate::pool::{map_tasks, PoolError, ThreadPool};
use dqo_exec::aggregate::Aggregator;
use dqo_exec::grouping::GroupedResult;
use dqo_exec::join::JoinResult;
use dqo_exec::pipeline::{Blocking, PipelineStats};
use dqo_exec::sort::{keep_smallest, radix_sort_pairs_by_key};
use dqo_exec::ExecError;
use dqo_plan::SortMolecule;
use dqo_storage::Piece;

use crate::merge_path::{kway_merge_to, partition_merge};

/// Smallest block worth a dedicated sort run: below this, splitting costs
/// more in merge overhead than the run sort saves.
pub const MIN_RUN_ROWS: usize = 1 << 12;

/// Sort `keys` into the canonical `(key, original_row)` order: ascending
/// by key, ties in input order. Returns the sorted pairs — the payload
/// column is the stable argsort permutation — plus pipeline accounting:
/// run formation is a full breaker; the merge, when it happens, is a
/// second one.
///
/// With no `pool` the caller sorts one run and nothing is merged. On a
/// pool, `bounds` are segment offsets from `0` to `keys.len()` — one per
/// surviving base-table partition range. With several segments, run
/// formation is partition-native: one sorted run per segment, so no run
/// crosses a partition boundary. One segment (`&[0, n]`, an unpartitioned
/// input) or bounds that do not span the input split evenly, one run per
/// worker. The Merge Path merge is correct and deterministic for **any**
/// run bounds, so the output is bit-identical (and equal to argsort)
/// however the input was segmented.
pub fn parallel_sort_index(
    pool: Option<&ThreadPool>,
    keys: &[u32],
    molecule: SortMolecule,
    bounds: &[usize],
) -> Result<(Vec<(u32, u32)>, PipelineStats), PoolError> {
    let n = keys.len();
    // Drop empty segments; they would become empty runs in the merge.
    let mut b: Vec<usize> = Vec::with_capacity(bounds.len());
    for &x in bounds {
        if b.last() != Some(&x) {
            b.push(x);
        }
    }
    if pool.is_none() || b.len() <= 2 || b.first() != Some(&0) || b.last() != Some(&n) {
        let threads = pool.map_or(1, ThreadPool::threads);
        let runs_n = threads.min(n.div_ceil(MIN_RUN_ROWS)).max(1);
        // Block boundaries depend only on (n, runs_n), never on scheduling.
        b = (0..=runs_n).map(|r| r * n / runs_n).collect();
    }
    let bounds = b;
    let mut stats = PipelineStats::default();
    stats.record(Blocking::FullBreaker, n as u64);
    let runs_n = bounds.len() - 1;

    // Phase 1 — run formation: one contiguous block per run, sorted
    // locally with the chosen molecule.
    let mut runs: Vec<Vec<(u32, u32)>> = map_tasks(pool, runs_n, |r| {
        let (start, end) = (bounds[r], bounds[r + 1]);
        let mut pairs: Vec<(u32, u32)> = keys[start..end]
            .iter()
            .enumerate()
            .map(|(i, &k)| (k, (start + i) as u32))
            .collect();
        match molecule {
            SortMolecule::Comparison => pairs.sort_unstable(),
            SortMolecule::Radix => radix_sort_pairs_by_key(&mut pairs),
        }
        pairs
    })?;
    let Some(pool) = pool.filter(|_| runs_n > 1) else {
        return Ok((runs.pop().unwrap_or_default(), stats));
    };

    // Phase 2 — Merge Path merge: each worker fills one contiguous,
    // disjoint range of a single preallocated output directly (no
    // per-worker chunk Vecs, no second concatenation pass — the rows
    // re-materialise exactly once, which is what the cost model's
    // `parallel_sort` charges).
    let run_views: Vec<&[(u32, u32)]> = runs.iter().map(|r| r.as_slice()).collect();
    let parts = pool.threads().min(n.max(1));
    let splits = partition_merge(&run_views, parts);
    // Worker w's output range starts at the number of elements its cut
    // vector selects — consistent even if duplicate pairs made the cuts
    // snap to value boundaries.
    let offsets: Vec<usize> = splits.iter().map(|cut| cut.iter().sum()).collect();
    let mut sorted: Vec<(u32, u32)> = vec![(0, 0); n];
    {
        /// A raw base pointer shareable across runner slots; sound
        /// because every task writes only its own disjoint range. The
        /// accessor keeps closure capture on the Sync wrapper, not the
        /// raw pointer field.
        struct OutPtr(*mut (u32, u32));
        unsafe impl Sync for OutPtr {}
        impl OutPtr {
            fn get(&self) -> *mut (u32, u32) {
                self.0
            }
        }
        let base = OutPtr(sorted.as_mut_ptr());
        pool.map_tasks(parts, |w| {
            let slices: Vec<&[(u32, u32)]> = run_views
                .iter()
                .enumerate()
                .map(|(r, run)| &run[splits[w][r]..splits[w + 1][r]])
                .collect();
            // SAFETY: the ranges `[offsets[w], offsets[w + 1])` are
            // disjoint across tasks (offsets is non-decreasing and each
            // task owns exactly one), they lie inside `sorted`
            // (offsets[parts] = n), and `map_tasks` blocks until every
            // task finished before `sorted` is touched again.
            let out = unsafe {
                std::slice::from_raw_parts_mut(
                    base.get().add(offsets[w]),
                    offsets[w + 1] - offsets[w],
                )
            };
            kway_merge_to(&slices, out);
        })?;
    }
    stats.record(Blocking::FullBreaker, n as u64);
    Ok((sorted, stats))
}

/// Indices that would sort `keys` ascending, equal keys in input order —
/// bit-identical to [`dqo_exec::sort::argsort`] with or without a pool and
/// for any segment `bounds` (see [`parallel_sort_index`]).
pub fn parallel_argsort(
    pool: Option<&ThreadPool>,
    keys: &[u32],
    molecule: SortMolecule,
    bounds: &[usize],
) -> Result<(Vec<u32>, PipelineStats), PoolError> {
    let (pairs, stats) = parallel_sort_index(pool, keys, molecule, bounds)?;
    Ok((pairs.into_iter().map(|(_, row)| row).collect(), stats))
}

/// The first `n` entries of [`parallel_argsort`]: every piece keeps its
/// own `n` smallest `(key, row)` pairs, sorted. With no `pool` the caller
/// cuts one piece, all of `keys`; on a pool each morsel of `morsel_rows`
/// is a piece, and their union is cut to `n` once more. Because
/// `(key, row)` is a total order, the result is the same at every DOP and
/// morsel size. The cut over the input is a breaker; on a pool the second
/// cut is one more.
pub fn parallel_top_n(
    pool: Option<&ThreadPool>,
    keys: &[u32],
    n: usize,
    morsel_rows: usize,
) -> Result<(Vec<u32>, PipelineStats), PoolError> {
    let pieces = morsels(keys.len(), pool.map_or(usize::MAX, |_| morsel_rows));
    let mut kept = map_tasks(pool, pieces.len(), |t| {
        let m = pieces[t];
        let mut pairs: Vec<(u32, u32)> = m.of(keys).iter().copied().zip(m.start as u32..).collect();
        keep_smallest(&mut pairs, n);
        pairs
    })?;
    let mut stats = PipelineStats::default();
    stats.record(Blocking::FullBreaker, keys.len() as u64);
    let pairs = match pool {
        None => kept.pop().unwrap_or_default(),
        Some(_) => {
            let mut pairs = kept.concat();
            stats.record(Blocking::FullBreaker, pairs.len() as u64);
            keep_smallest(&mut pairs, n);
            pairs
        }
    };
    Ok((pairs.into_iter().map(|(_, row)| row).collect(), stats))
}

/// SOG: the sort granule (see [`parallel_argsort`]) feeding OG's fold
/// ([`GroupingStrategy::Order`]), which reads the keys and values at the
/// sorted order, piece by piece, and stitches the pieces' boundary groups.
/// Requires a decomposable aggregate — true for COUNT/SUM/MIN/MAX/AVG,
/// which is all the engine plans. Output keys ascend; the result equals
/// [`dqo_exec::grouping::sog::sort_order_grouping`] bit for bit.
pub fn parallel_sog<A: Aggregator>(
    pool: Option<&ThreadPool>,
    keys: &[u32],
    values: &[u32],
    agg: A,
    molecule: SortMolecule,
    bounds: &[usize],
) -> Result<(GroupedResult<A::State>, PipelineStats), ExecError> {
    if keys.len() != values.len() {
        return Err(ExecError::LengthMismatch {
            keys: keys.len(),
            values: values.len(),
        });
    }
    let (order, mut stats) = parallel_argsort(pool, keys, molecule, bounds)?;
    let pieces: Vec<&[u32]> = order.chunks(DEFAULT_MORSEL_ROWS).collect();
    let load = |t: usize, _: &mut Scratch, sink: Sink<'_>| {
        sink(Rows::Piece(Piece::Rows(pieces[t])));
        Ok(())
    };
    let (tasks, columns, ascending) = (pieces.len(), (keys, values), false);
    let fold = Fold {
        pool,
        tasks,
        load: &load,
        columns,
        ascending,
    };
    let (result, fold) = parallel_grouping_tasks(&fold, agg, GroupingStrategy::Order)?;
    stats.merge(&fold);
    Ok((result, stats))
}

/// SOJ: the sort granule on both inputs — the **left (build) side** with
/// one run per segment of `left_bounds` (see [`parallel_sort_index`]) —
/// then OJ's loop over the two sorted `(key, row)` views (see
/// [`crate::join`]). With no `pool` the join over both sides is the only
/// breaker (on a pool each side's sort records its own). Output pairs
/// equal [`dqo_exec::join::soj::sort_merge_join`] bit for bit at every
/// DOP.
pub fn parallel_sort_merge_join(
    pool: Option<&ThreadPool>,
    left: &[u32],
    right: &[u32],
    molecule: SortMolecule,
    left_bounds: &[usize],
) -> Result<(JoinResult, PipelineStats), ExecError> {
    let (ls, left_stats) = parallel_sort_index(pool, left, molecule, left_bounds)?;
    let (rs, right_stats) = parallel_sort_index(pool, right, molecule, &[])?;
    let mut stats = PipelineStats::default();
    if pool.is_some() {
        stats.merge(&left_stats);
        stats.merge(&right_stats);
    }
    let (result, _) = parallel_order_join(pool, &ls[..], &rs[..])?;
    stats.record(Blocking::FullBreaker, (left.len() + right.len()) as u64);
    Ok((result, stats))
}

#[cfg(test)]
mod tests {
    use super::*;
    use dqo_exec::aggregate::CountSum;
    use dqo_exec::grouping::sog::sort_order_grouping;
    use dqo_exec::join::soj::sort_merge_join;
    use dqo_exec::sort::argsort;

    const MOLECULES: [SortMolecule; 2] = [SortMolecule::Comparison, SortMolecule::Radix];

    #[test]
    fn top_n_is_the_serial_head_at_every_dop_and_morsel_size() {
        // 37 distinct keys over 20 000 rows: every cut falls inside a run
        // of equal keys, so positions must break the ties.
        let keys = dataset(20_000, 37, 5);
        let full = argsort(&keys);
        for threads in [1, 2, 8] {
            let pool = ThreadPool::new(threads);
            for morsel in [64, 1_000, 1 << 16] {
                for n in [0, 1, 100, 541, 19_999] {
                    let (top, _) = parallel_top_n(Some(&pool), &keys, n, morsel).unwrap();
                    assert_eq!(top, full[..n], "threads={threads} morsel={morsel} n={n}");
                }
            }
        }
    }

    /// The inputs every caller-thread leg runs over: empty, one row,
    /// heavily tied keys spanning several morsels, and wide keys.
    fn inputs() -> Vec<Vec<u32>> {
        vec![
            vec![],
            vec![42],
            dataset(20_000, 37, 5),
            dataset(9_000, u32::MAX, 3),
        ]
    }

    #[test]
    fn caller_thread_sort_and_top_n_match_the_stable_argsort() {
        for keys in inputs() {
            let full = argsort(&keys);
            let len = keys.len();
            // Partition bounds are ignored without a pool: one run.
            let segments = [0, len / 3, len / 3, len];
            for molecule in MOLECULES {
                for bounds in [&[][..], &segments[..]] {
                    let (order, stats) = parallel_argsort(None, &keys, molecule, bounds).unwrap();
                    assert_eq!(order, full, "len={len} {molecule:?} bounds={bounds:?}");
                    assert_eq!((stats.breakers, stats.materialised_rows), (1, len as u64));
                }
            }
            for n in [0, 1, 100, len.saturating_sub(1), len, len + 5] {
                let (top, stats) = parallel_top_n(None, &keys, n, 64).unwrap();
                assert_eq!(top, full[..n.min(len)], "len={len} n={n}");
                assert_eq!((stats.breakers, stats.materialised_rows), (1, len as u64));
            }
        }
    }

    #[test]
    fn caller_thread_sog_and_soj_match_the_dqo_exec_kernels() {
        for keys in inputs() {
            let len = keys.len();
            let vals: Vec<u32> = keys.iter().map(|k| k.wrapping_mul(7) % 1000).collect();
            for molecule in MOLECULES {
                let (sog, stats) =
                    parallel_sog(None, &keys, &vals, CountSum, molecule, &[0, len]).unwrap();
                assert_eq!(sog, sort_order_grouping(&keys, &vals, CountSum, molecule));
                assert_eq!((stats.breakers, stats.materialised_rows), (1, len as u64));
            }
            for right in [vec![], vec![42], dataset(3_000, 40, 2)] {
                let expect = sort_merge_join(&keys, &right);
                for molecule in MOLECULES {
                    let (soj, stats) =
                        parallel_sort_merge_join(None, &keys, &right, molecule, &[0, len]).unwrap();
                    let ctx = format!("left={len} right={} {molecule:?}", right.len());
                    assert_eq!(soj.left_rows, expect.left_rows, "{ctx}");
                    assert_eq!(soj.right_rows, expect.right_rows, "{ctx}");
                    assert!(soj.sorted_by_key);
                    let both = (len + right.len()) as u64;
                    assert_eq!((stats.breakers, stats.materialised_rows), (1, both));
                }
            }
        }
    }

    fn dataset(n: usize, domain: u32, seed: u32) -> Vec<u32> {
        (0..n)
            .map(|i| (i as u32).wrapping_mul(2_654_435_761).wrapping_add(seed) % domain)
            .collect()
    }

    #[test]
    fn sort_index_matches_serial_argsort_bit_for_bit() {
        // Heavy duplication: the tie-break (input order) is where a
        // non-stable merge would diverge from the serial oracle.
        let keys = dataset(100_000, 37, 5);
        let serial = argsort(&keys);
        for molecule in MOLECULES {
            for threads in [1, 2, 8] {
                let pool = ThreadPool::new(threads);
                let (par, stats) = parallel_argsort(Some(&pool), &keys, molecule, &[]).unwrap();
                assert_eq!(par, serial, "threads={threads} {molecule:?}");
                assert!(stats.breakers >= 1);
            }
        }
    }

    #[test]
    fn sorted_pairs_are_fully_ordered_and_a_permutation() {
        let keys = dataset(50_000, 1 << 20, 9);
        let pool = ThreadPool::new(4);
        let (pairs, _) =
            parallel_sort_index(Some(&pool), &keys, SortMolecule::Comparison, &[]).unwrap();
        assert_eq!(pairs.len(), keys.len());
        assert!(pairs.windows(2).all(|w| w[0] < w[1]), "total order");
        let mut rows: Vec<u32> = pairs.iter().map(|p| p.1).collect();
        rows.sort_unstable();
        assert!(rows.iter().enumerate().all(|(i, &r)| i as u32 == r));
    }

    #[test]
    fn segmented_runs_are_bit_identical_to_plain() {
        let keys = dataset(60_000, 37, 5);
        let serial = argsort(&keys);
        let pool = ThreadPool::new(8);
        // Partition-style run bounds: uneven, with an empty segment.
        let bounds = [0usize, 9_001, 9_001, 17_432, 60_000];
        for molecule in MOLECULES {
            let (par, _) = parallel_argsort(Some(&pool), &keys, molecule, &bounds).unwrap();
            assert_eq!(par, serial, "{molecule:?}");
        }
        // Degenerate bounds fall back to the even split.
        let (par, _) =
            parallel_argsort(Some(&pool), &keys, SortMolecule::Comparison, &[3, 7]).unwrap();
        assert_eq!(par, serial);

        let vals = dataset(60_000, 900, 8);
        let serial_sog = sort_order_grouping(&keys, &vals, CountSum, SortMolecule::Comparison);
        let (sog, _) = parallel_sog(
            Some(&pool),
            &keys,
            &vals,
            CountSum,
            SortMolecule::Comparison,
            &bounds,
        )
        .unwrap();
        assert_eq!(sog, serial_sog);

        let right = dataset(10_000, 40, 2);
        let serial_soj = sort_merge_join(&keys, &right);
        let (soj, _) = parallel_sort_merge_join(
            Some(&pool),
            &keys,
            &right,
            SortMolecule::Comparison,
            &bounds,
        )
        .unwrap();
        assert_eq!(soj.left_rows, serial_soj.left_rows);
        assert_eq!(soj.right_rows, serial_soj.right_rows);
    }

    #[test]
    fn molecules_agree() {
        let keys = dataset(30_000, 1000, 1);
        let pool = ThreadPool::new(8);
        let (a, _) =
            parallel_sort_index(Some(&pool), &keys, SortMolecule::Comparison, &[]).unwrap();
        let (b, _) = parallel_sort_index(Some(&pool), &keys, SortMolecule::Radix, &[]).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn sog_matches_serial_across_threads() {
        let keys = dataset(80_000, 501, 3);
        let vals = dataset(80_000, 1000, 8);
        for molecule in MOLECULES {
            let serial = sort_order_grouping(&keys, &vals, CountSum, molecule);
            for threads in [1, 2, 8] {
                let pool = ThreadPool::new(threads);
                let (par, stats) =
                    parallel_sog(Some(&pool), &keys, &vals, CountSum, molecule, &[]).unwrap();
                assert_eq!(par, serial, "threads={threads} {molecule:?}");
                assert!(par.sorted_by_key);
                assert!(stats.breakers >= 2, "sort + group breakers");
            }
        }
    }

    #[test]
    fn sog_boundary_stitching_single_giant_group() {
        // One key spanning every range boundary: stitching must collapse
        // all partial states into one group.
        let keys = vec![7u32; 50_000];
        let vals: Vec<u32> = (0..50_000).map(|i| (i % 100) as u32).collect();
        let pool = ThreadPool::new(8);
        let (r, _) = parallel_sog(
            Some(&pool),
            &keys,
            &vals,
            CountSum,
            SortMolecule::Comparison,
            &[],
        )
        .unwrap();
        assert_eq!(r.keys, vec![7]);
        assert_eq!(r.states[0].count, 50_000);
        assert_eq!(
            r.states[0].sum,
            vals.iter().map(|&v| u64::from(v)).sum::<u64>()
        );
    }

    #[test]
    fn soj_matches_serial_bit_for_bit() {
        let left = dataset(20_000, 300, 2);
        let right = dataset(60_000, 400, 6);
        let serial = sort_merge_join(&left, &right);
        for molecule in MOLECULES {
            for threads in [1, 2, 8] {
                let pool = ThreadPool::new(threads);
                let (par, _) =
                    parallel_sort_merge_join(Some(&pool), &left, &right, molecule, &[]).unwrap();
                // Bit-identical: same pairs in the same emission order.
                assert_eq!(par.left_rows, serial.left_rows, "threads={threads}");
                assert_eq!(par.right_rows, serial.right_rows, "threads={threads}");
                assert!(par.sorted_by_key);
            }
        }
    }

    #[test]
    fn soj_duplicate_heavy_keys_never_split_across_partitions() {
        // A handful of huge key runs: boundary alignment must keep each
        // run in one partition or the cross products fracture.
        let left: Vec<u32> = (0..40_000).map(|i| (i / 10_000) as u32).collect();
        let right: Vec<u32> = (0..4_000).map(|i| (i % 8) as u32).collect();
        let serial = sort_merge_join(&left, &right);
        let pool = ThreadPool::new(8);
        let (par, _) =
            parallel_sort_merge_join(Some(&pool), &left, &right, SortMolecule::Comparison, &[])
                .unwrap();
        assert_eq!(par.left_rows, serial.left_rows);
        assert_eq!(par.right_rows, serial.right_rows);
    }

    #[test]
    fn empty_and_tiny_inputs() {
        let pool = ThreadPool::new(4);
        let (pairs, _) =
            parallel_sort_index(Some(&pool), &[], SortMolecule::Comparison, &[]).unwrap();
        assert!(pairs.is_empty());
        let (r, _) =
            parallel_sog(Some(&pool), &[], &[], CountSum, SortMolecule::Radix, &[]).unwrap();
        assert!(r.is_empty());
        assert!(r.sorted_by_key);
        let (j, _) =
            parallel_sort_merge_join(Some(&pool), &[], &[1, 2], SortMolecule::Comparison, &[])
                .unwrap();
        assert!(j.is_empty());
        let (j, _) =
            parallel_sort_merge_join(Some(&pool), &[1], &[1], SortMolecule::Comparison, &[])
                .unwrap();
        assert_eq!(j.len(), 1);
        let (one, _) = parallel_sort_index(Some(&pool), &[42], SortMolecule::Radix, &[]).unwrap();
        assert_eq!(one, vec![(42, 0)]);
    }

    #[test]
    fn length_mismatch_is_an_error() {
        let pool = ThreadPool::new(2);
        assert!(matches!(
            parallel_sog(
                Some(&pool),
                &[1, 2],
                &[1],
                CountSum,
                SortMolecule::Comparison,
                &[]
            ),
            Err(ExecError::LengthMismatch { .. })
        ));
    }

    #[test]
    fn repeated_runs_are_identical() {
        let keys = dataset(120_000, 64, 77);
        let pool = ThreadPool::new(8);
        let (first, _) =
            parallel_sort_index(Some(&pool), &keys, SortMolecule::Comparison, &[]).unwrap();
        for _ in 0..3 {
            let (again, _) =
                parallel_sort_index(Some(&pool), &keys, SortMolecule::Comparison, &[]).unwrap();
            assert_eq!(again, first);
        }
    }
}
