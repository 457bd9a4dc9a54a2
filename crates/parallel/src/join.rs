//! Parallel equi-joins over `u32` key columns.
//!
//! The parallel twins of two serial organelles:
//!
//! * [`parallel_hash_join`] — the partitioned parallel HJ: a parallel
//!   **partition** pass fans the build side out into `P` hash partitions
//!   (morsel-parallel, concatenated in morsel order so partition contents
//!   are deterministic), per-partition **build** of the same chaining
//!   tables serial HJ uses, then a morsel-parallel **probe** where each
//!   probe key touches exactly its partition's table — the
//!   distributed/partitioned-table pattern DiCuPIT applies to cuckoo
//!   filters, here applied to DQO's chaining molecule.
//! * [`parallel_sph_probe`] — the SPHJ probe of a given SPH index, one
//!   task per probe morsel through the serial probe kernel. The index
//!   itself (built fresh, or a prebuilt Algorithmic View) comes from the
//!   caller, who takes it in one place for serial and parallel probes
//!   alike.
//!
//! Output pairs are concatenated in probe-morsel order, so results are
//! byte-identical across runs and thread counts.

use crate::morsel::morsels_within;
use crate::pool::{PoolError, ThreadPool};
use dqo_exec::join::sphj::SphIndex;
use dqo_exec::join::JoinResult;
use dqo_exec::pipeline::{Blocking, PipelineStats};
use dqo_exec::ExecError;
use dqo_hashtable::{ChainingTable, GroupTable};

/// Number of build partitions for a pool: the thread count rounded up to
/// a power of two, so a partition is selected by masking the hash.
fn partition_count(pool: &ThreadPool) -> usize {
    pool.threads().next_power_of_two()
}

/// Fibonacci multiplicative spread of a key onto a partition index —
/// cheap, and independent from the in-table hash so partition skew does
/// not correlate with bucket skew.
#[inline]
fn partition_of(key: u32, mask: usize) -> usize {
    (key.wrapping_mul(2_654_435_769) >> 16) as usize & mask
}

/// Partitioned parallel hash join: build on `left`, probe with `right`.
///
/// The **build side** is scattered morsel-by-morsel within the segment
/// `build_bounds` — offsets from `0` to `left.len()`, one segment per
/// surviving base-table partition range (`&[0, left.len()]` for an
/// unpartitioned input) — so no build work unit mixes rows from two
/// partitions. Probe-side morsels and the output do not depend on them:
/// morsel-order concatenation keeps the result bit-identical for any
/// bounds.
///
/// Stats mirror serial HJ's full-breaker accounting (`|L| + |R|` rows at
/// the build/probe breaker) plus one extra breaker for the partition pass
/// materialising the build side.
pub fn parallel_hash_join(
    pool: &ThreadPool,
    left: &[u32],
    right: &[u32],
    build_bounds: &[usize],
    morsel_rows: usize,
) -> Result<(JoinResult, PipelineStats), ExecError> {
    let build_ms = morsels_within(build_bounds, morsel_rows);
    let mut stats = PipelineStats::default();
    let p = partition_count(pool);
    let mask = p - 1;

    // Phase 1 — parallel partition: each morsel scatters its (key, row)
    // pairs into P local buckets; morsel order keeps the concatenation
    // deterministic.
    let morsel_buckets = pool.map_morsel_list(&build_ms, |m| {
        let mut buckets: Vec<Vec<(u32, u32)>> = vec![Vec::new(); p];
        for (i, &k) in m.of(left).iter().enumerate() {
            buckets[partition_of(k, mask)].push((k, (m.start + i) as u32));
        }
        buckets
    })?;
    stats.record(Blocking::FullBreaker, left.len() as u64);

    // Phase 2 — per-partition build, one chaining table per partition
    // (the serial HJ molecule), partitions built in parallel.
    let tables: Vec<ChainingTable<Vec<u32>>> = pool.map_tasks(p, |part| {
        let mut table: ChainingTable<Vec<u32>> = ChainingTable::with_capacity(16);
        for buckets in &morsel_buckets {
            for &(k, row) in &buckets[part] {
                table.upsert_with(k, Vec::new).push(row);
            }
        }
        table
    })?;

    // Phase 3 — parallel probe: each probe morsel reads only its keys'
    // partitions; matches emit in build-insertion order, morsels
    // concatenate in probe order.
    let chunks = pool.map_morsels(right.len(), morsel_rows, |m| {
        let mut left_rows = Vec::new();
        let mut right_rows = Vec::new();
        for (j, &k) in m.of(right).iter().enumerate() {
            if let Some(matches) = tables[partition_of(k, mask)].get(k) {
                for &i in matches {
                    left_rows.push(i);
                    right_rows.push((m.start + j) as u32);
                }
            }
        }
        (left_rows, right_rows)
    })?;
    stats.record(Blocking::FullBreaker, (left.len() + right.len()) as u64);

    let mut result = JoinResult {
        left_rows: Vec::new(),
        right_rows: Vec::new(),
        sorted_by_key: false,
    };
    for (l, r) in chunks {
        result.left_rows.extend_from_slice(&l);
        result.right_rows.extend_from_slice(&r);
    }
    Ok((result, stats))
}

/// Probe `index` with `right`, one task per probe morsel through
/// [`SphIndex::probe`]: the pairs of the serial probe, in its order.
pub fn parallel_sph_probe(
    pool: &ThreadPool,
    index: &SphIndex,
    right: &[u32],
    morsel_rows: usize,
) -> Result<JoinResult, PoolError> {
    let chunks = pool.map_morsels(right.len(), morsel_rows, |m| {
        // The probe's right-row indices are morsel-local; rebase them.
        let mut local = index.probe(m.of(right));
        for r in &mut local.right_rows {
            *r += m.start as u32;
        }
        local
    })?;
    let mut result = JoinResult {
        left_rows: Vec::new(),
        right_rows: Vec::new(),
        sorted_by_key: false,
    };
    for local in chunks {
        result.left_rows.extend_from_slice(&local.left_rows);
        result.right_rows.extend_from_slice(&local.right_rows);
    }
    Ok(result)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dqo_exec::join::nested_loop_oracle;

    fn dataset(n: usize, domain: u32) -> Vec<u32> {
        (0..n)
            .map(|i| (i as u32).wrapping_mul(2_654_435_761) % domain)
            .collect()
    }

    #[test]
    fn hash_join_matches_oracle_across_thread_counts() {
        let left = dataset(700, 50);
        let right = dataset(900, 60);
        let oracle = nested_loop_oracle(&left, &right);
        for threads in [1, 2, 8] {
            let pool = ThreadPool::new(threads);
            let (r, stats) =
                parallel_hash_join(&pool, &left, &right, &[0, left.len()], 64).unwrap();
            assert_eq!(r.normalised_pairs(), oracle, "threads={threads}");
            assert_eq!(stats.breakers, 2);
        }
    }

    /// Build an SPH index over `left` and probe it in parallel.
    fn sph_join(
        pool: &ThreadPool,
        left: &[u32],
        right: &[u32],
        (min, max): (u32, u32),
        morsel_rows: usize,
    ) -> Result<JoinResult, ExecError> {
        let index = SphIndex::build(left, min, max)?;
        Ok(parallel_sph_probe(pool, &index, right, morsel_rows)?)
    }

    #[test]
    fn sph_join_matches_oracle_across_thread_counts() {
        let left = dataset(500, 32);
        let right = dataset(800, 64); // probe keys outside domain: no match
        let oracle = nested_loop_oracle(&left, &right);
        let serial = SphIndex::build(&left, 0, 31).unwrap().probe(&right);
        for threads in [1, 2, 8] {
            let pool = ThreadPool::new(threads);
            let r = sph_join(&pool, &left, &right, (0, 31), 64).unwrap();
            assert_eq!(r.normalised_pairs(), oracle, "threads={threads}");
            assert_eq!(
                r, serial,
                "threads={threads}: the serial probe's pairs, in order"
            );
        }
    }

    #[test]
    fn segmented_build_is_bit_identical_to_plain() {
        let left = dataset(5_000, 40);
        let right = dataset(7_000, 40);
        let pool = ThreadPool::new(8);
        let (plain, _) = parallel_hash_join(&pool, &left, &right, &[0, left.len()], 128).unwrap();
        // Partition-style build segments, uneven and with an empty one.
        let bounds = [0usize, 613, 613, 1_999, 5_000];
        let (seg, _) = parallel_hash_join(&pool, &left, &right, &bounds, 128).unwrap();
        assert_eq!(seg.left_rows, plain.left_rows);
        assert_eq!(seg.right_rows, plain.right_rows);
    }

    #[test]
    fn hash_join_is_deterministic_repeatedly() {
        let left = dataset(5_000, 40);
        let right = dataset(5_000, 40);
        let pool = ThreadPool::new(8);
        let (first, _) = parallel_hash_join(&pool, &left, &right, &[0, left.len()], 128).unwrap();
        for _ in 0..3 {
            let (again, _) =
                parallel_hash_join(&pool, &left, &right, &[0, left.len()], 128).unwrap();
            assert_eq!(again.left_rows, first.left_rows);
            assert_eq!(again.right_rows, first.right_rows);
        }
    }

    #[test]
    fn empty_sides() {
        let pool = ThreadPool::new(4);
        let (r, _) = parallel_hash_join(&pool, &[], &[1, 2], &[0, 0], 64).unwrap();
        assert!(r.is_empty());
        let (r, _) = parallel_hash_join(&pool, &[1, 2], &[], &[0, 2], 64).unwrap();
        assert!(r.is_empty());
        let r = sph_join(&pool, &[], &[1], (0, 0), 64).unwrap();
        assert!(r.is_empty());
        let r = sph_join(&pool, &[1], &[], (0, 3), 64).unwrap();
        assert!(r.is_empty());
    }

    #[test]
    fn sph_join_rejects_inverted_domain() {
        let pool = ThreadPool::new(2);
        assert!(sph_join(&pool, &[1], &[1], (5, 2), 64).is_err());
    }

    #[test]
    fn fk_join_cardinality() {
        let left: Vec<u32> = (0..100).collect();
        let right: Vec<u32> = (0..5_000).map(|i| (i * 7) % 100).collect();
        let pool = ThreadPool::new(4);
        let (hj, _) = parallel_hash_join(&pool, &left, &right, &[0, left.len()], 256).unwrap();
        assert_eq!(hj.len(), 5_000);
        let sphj = sph_join(&pool, &left, &right, (0, 99), 256).unwrap();
        assert_eq!(sphj.len(), 5_000);
    }
}
