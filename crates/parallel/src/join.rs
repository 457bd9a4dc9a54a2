//! OJ and BSJ, each one loop that runs on a pool or, with none, on the
//! caller thread; SOJ ([`crate::sort::parallel_sort_merge_join`]) is the
//! sort granule on both sides followed by OJ's loop.
//!
//! OJ's loop cuts the left input into one partition per worker, each cut
//! advanced past the key run it falls in, so that partitions own disjoint
//! key ranges; the right input is cut where each left partition's first
//! key would sit. The two cuttings tile both sides, every task merges its
//! two slices with `dqo-exec`'s merge and checks that both ascend, and the
//! chunks concatenate in partition order: the pairs of one merge over the
//! whole inputs, in its order. BSJ sorts its build side once and probes
//! the morsels of its probe side with `dqo-exec`'s probe, whose chunks
//! concatenate in morsel order.

use crate::morsel::morsels;
use crate::pool::{map_tasks, ThreadPool};
use crate::sort::parallel_sort_index;
use dqo_exec::join::bsj::probe;
use dqo_exec::join::oj::{ascends, merge, Side};
use dqo_exec::join::JoinResult;
use dqo_exec::pipeline::{Blocking, PipelineStats};
use dqo_exec::ExecError;
use dqo_plan::SortMolecule;

/// OJ's loop (see the module docs) over two sides whose keys must ascend
/// — key columns, or the sorted views of SOJ — on `pool` or the caller
/// thread: equal to [`dqo_exec::join::oj::merge_join`] pair for pair, and
/// failing as it does, `PreconditionViolated { algorithm: "OJ" }`, when a
/// side does not ascend. The merge streams both inputs.
pub fn parallel_order_join<S: Side + ?Sized>(
    pool: Option<&ThreadPool>,
    left: &S,
    right: &S,
) -> Result<(JoinResult, PipelineStats), ExecError> {
    let (n, m) = (left.positions(), right.positions());
    let parts = pool.map_or(1, ThreadPool::threads).min(n.max(1));
    let (mut cuts, mut right_cuts) = (vec![0], vec![0]);
    for w in 1..parts {
        let mut at = (w * n / parts).max(cuts[w - 1]);
        while at > 0 && at < n && left.key(at) == left.key(at - 1) {
            at += 1;
        }
        cuts.push(at);
        // The first right position whose key reaches the partition's
        // first; all of them when the partition is empty.
        let first = (at < n).then(|| left.key(at));
        let (mut lo, mut hi) = (right_cuts[w - 1], m);
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            match first.is_none_or(|k| right.key(mid) < k) {
                true => lo = mid + 1,
                false => hi = mid,
            }
        }
        right_cuts.push(lo);
    }
    cuts.push(n);
    right_cuts.push(m);
    let chunks = map_tasks(pool, parts, |w| {
        let (l, r) = (cuts[w]..cuts[w + 1], right_cuts[w]..right_cuts[w + 1]);
        ascends(left, l.clone(), "left")?;
        ascends(right, r.clone(), "right")?;
        Ok::<_, ExecError>(merge(left, l, right, r))
    })?;
    let result = concat(chunks.into_iter().collect::<Result<_, _>>()?, true);
    let mut stats = PipelineStats::default();
    stats.record(Blocking::Pipelined, (n + m) as u64);
    Ok((result, stats))
}

/// BSJ on `pool` or the caller thread: the build side `left` sorted once
/// into `(key, row)` order, then the probes of `right` — by morsels of
/// `morsel_rows` on a pool, all of them at once without — each find their
/// key's run by binary search. Equal to
/// [`dqo_exec::join::bsj::binary_search_join`] pair for pair; a breaker
/// over both sides.
pub fn parallel_binary_search_join(
    pool: Option<&ThreadPool>,
    left: &[u32],
    right: &[u32],
    morsel_rows: usize,
) -> Result<(JoinResult, PipelineStats), ExecError> {
    let (build, _) = parallel_sort_index(pool, left, SortMolecule::Comparison, &[])?;
    let pieces = morsels(right.len(), pool.map_or(usize::MAX, |_| morsel_rows));
    let chunks = map_tasks(pool, pieces.len(), |t| {
        probe(&build, right, pieces[t].start..pieces[t].end)
    })?;
    let mut stats = PipelineStats::default();
    stats.record(Blocking::FullBreaker, (left.len() + right.len()) as u64);
    Ok((concat(chunks, false), stats))
}

/// Chunks of pairs concatenated in order; one chunk is taken as it is.
fn concat(chunks: Vec<JoinResult>, sorted_by_key: bool) -> JoinResult {
    let mut result = chunks
        .into_iter()
        .reduce(|mut all, chunk| {
            all.left_rows.extend_from_slice(&chunk.left_rows);
            all.right_rows.extend_from_slice(&chunk.right_rows);
            all
        })
        .unwrap_or_default();
    result.sorted_by_key = sorted_by_key;
    result
}
