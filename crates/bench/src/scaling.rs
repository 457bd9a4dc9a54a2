//! Parallel scaling study: morsel-driven HJ and SPHG versus the serial
//! kernels, across thread counts — the measurement the `scaling` binary
//! and criterion bench share, so future PRs can track the trajectory.

use dqo_exec::aggregate::CountSum;
use dqo_exec::composite::KeyPacker;
use dqo_exec::grouping::{execute_grouping, GroupingAlgorithm, GroupingHints};
use dqo_exec::join::hj::hash_join;
use dqo_parallel::{
    parallel_grouping, parallel_hash_join, GroupingStrategy, PersistentPool, ThreadPool,
    DEFAULT_MORSEL_ROWS,
};
use dqo_storage::datagen::{DatasetSpec, ForeignKeySpec};
use dqo_storage::{PartitionSpec, PartitionedRelation, Relation};
use std::time::Instant;

/// One measured configuration.
#[derive(Debug, Clone)]
pub struct ScalingPoint {
    /// Workload name (`SPHG` or `HJ`).
    pub workload: &'static str,
    /// Worker count (0 encodes the serial kernel baseline).
    pub threads: usize,
    /// Best-of-reps wall time in milliseconds.
    pub millis: f64,
    /// Serial kernel time / this configuration's time.
    pub speedup: f64,
}

fn best_of<F: FnMut() -> u64>(reps: usize, mut f: F) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..reps.max(1) {
        let start = Instant::now();
        let sink = f();
        let elapsed = start.elapsed().as_secs_f64() * 1e3;
        std::hint::black_box(sink);
        best = best.min(elapsed);
    }
    best
}

/// Measure SPHG and HJ at each thread count over `rows`-row datagen
/// inputs. `threads` entries are parallel configurations; a serial-kernel
/// baseline point (threads = 0) is always included first per workload.
pub fn run(rows: usize, groups: usize, threads: &[usize], reps: usize) -> Vec<ScalingPoint> {
    let mut out = Vec::new();

    // --- SPHG: grouping a dense-domain key column ---
    let keys = DatasetSpec::new(rows, groups)
        .sorted(false)
        .dense(true)
        .generate()
        .expect("datagen");
    let max = groups.saturating_sub(1) as u32;
    let hints = GroupingHints {
        min: Some(0),
        max: Some(max),
        distinct: Some(groups as u64),
        known_keys: None,
    };
    let serial_ms = best_of(reps, || {
        execute_grouping(
            GroupingAlgorithm::StaticPerfectHash,
            &keys,
            &keys,
            CountSum,
            &hints,
        )
        .expect("serial SPHG")
        .len() as u64
    });
    out.push(ScalingPoint {
        workload: "SPHG",
        threads: 0,
        millis: serial_ms,
        speedup: 1.0,
    });
    for &t in threads {
        // A dedicated pool sized to this configuration, so the measured
        // thread count is physical regardless of the global pool's size.
        let pool = ThreadPool::with_pool(t, std::sync::Arc::new(PersistentPool::new(t)));
        let ms = best_of(reps, || {
            parallel_grouping(
                &pool,
                &keys,
                &keys,
                CountSum,
                GroupingStrategy::StaticPerfectHash { min: 0, max },
                &[0, keys.len()],
                DEFAULT_MORSEL_ROWS,
            )
            .expect("parallel SPHG")
            .0
            .len() as u64
        });
        out.push(ScalingPoint {
            workload: "SPHG",
            threads: t,
            millis: ms,
            speedup: serial_ms / ms,
        });
    }

    // --- SPHG-2COL: multi-column grouping on the packed composite key ---
    // Two dense key columns packed into one u32 code column — the
    // executor's composite GROUP BY path. The serial baseline includes
    // the pack pass (it is part of the composite kernel's real cost).
    let g1 = groups.max(1);
    let g2 = 8usize;
    let second: Vec<u32> = DatasetSpec::new(rows, g2)
        .sorted(false)
        .dense(true)
        .seed(0xC0)
        .generate()
        .expect("datagen");
    let packer = KeyPacker::fit(&[&keys, &second]).expect("small domains pack");
    let packed_max = (g1 * g2 - 1) as u32;
    let serial_ms = best_of(reps, || {
        let packed = packer.pack(&[&keys, &second]);
        execute_grouping(
            GroupingAlgorithm::StaticPerfectHash,
            &packed,
            &packed,
            CountSum,
            &GroupingHints {
                min: Some(0),
                max: Some(packed_max),
                distinct: Some((g1 * g2) as u64),
                known_keys: None,
            },
        )
        .expect("serial composite SPHG")
        .len() as u64
    });
    out.push(ScalingPoint {
        workload: "SPHG-2COL",
        threads: 0,
        millis: serial_ms,
        speedup: 1.0,
    });
    for &t in threads {
        let pool = ThreadPool::with_pool(t, std::sync::Arc::new(PersistentPool::new(t)));
        let ms = best_of(reps, || {
            let packed = packer.pack(&[&keys, &second]);
            parallel_grouping(
                &pool,
                &packed,
                &packed,
                CountSum,
                GroupingStrategy::StaticPerfectHash {
                    min: 0,
                    max: packed_max,
                },
                &[0, packed.len()],
                DEFAULT_MORSEL_ROWS,
            )
            .expect("parallel composite SPHG")
            .0
            .len() as u64
        });
        out.push(ScalingPoint {
            workload: "SPHG-2COL",
            threads: t,
            millis: ms,
            speedup: serial_ms / ms,
        });
    }

    // --- PART-SPHG: the same dense grouping over a range-partitioned
    // base, seeded partition-natively (one segment per partition, no
    // morsel crossing a partition boundary). Measures the cost of
    // partition-respecting seeding against the serial kernel over the
    // identical partition-major row layout. ---
    let part_count = 8usize.min(groups.max(1));
    let bounds_vals: Vec<u32> = (1..part_count)
        .map(|i| (groups as u64 * i as u64 / part_count as u64) as u32)
        .collect();
    let pr = PartitionedRelation::new(
        Relation::single_u32("key", keys.clone()),
        PartitionSpec::range("key", bounds_vals),
    )
    .expect("partitioned relation");
    let part_keys = pr
        .flat()
        .column("key")
        .expect("key")
        .as_u32()
        .expect("u32")
        .to_vec();
    let all_parts: Vec<usize> = (0..pr.partitioning().part_count()).collect();
    let segments = pr.partitioning().flat_order_segments(&all_parts);
    let mut seg_bounds: Vec<usize> = Vec::with_capacity(segments.len() + 1);
    seg_bounds.push(0);
    for (_, end) in &segments {
        seg_bounds.push(*end);
    }
    let serial_ms = best_of(reps, || {
        execute_grouping(
            GroupingAlgorithm::StaticPerfectHash,
            &part_keys,
            &part_keys,
            CountSum,
            &hints,
        )
        .expect("serial SPHG over partitioned layout")
        .len() as u64
    });
    out.push(ScalingPoint {
        workload: "PART-SPHG",
        threads: 0,
        millis: serial_ms,
        speedup: 1.0,
    });
    for &t in threads {
        let pool = ThreadPool::with_pool(t, std::sync::Arc::new(PersistentPool::new(t)));
        let ms = best_of(reps, || {
            parallel_grouping(
                &pool,
                &part_keys,
                &part_keys,
                CountSum,
                GroupingStrategy::StaticPerfectHash { min: 0, max },
                &seg_bounds,
                DEFAULT_MORSEL_ROWS,
            )
            .expect("partition-native SPHG")
            .0
            .len() as u64
        });
        out.push(ScalingPoint {
            workload: "PART-SPHG",
            threads: t,
            millis: ms,
            speedup: serial_ms / ms,
        });
    }

    // --- HJ: FK join, |S| = rows, |R| = rows / 4 ---
    let (r, s) = ForeignKeySpec {
        r_rows: (rows / 4).max(1),
        s_rows: rows,
        groups: groups.min(rows / 4).max(1),
        r_sorted: false,
        s_sorted: false,
        dense: true,
        seed: 0x5CA1E,
    }
    .generate()
    .expect("datagen");
    let lk = r.column("id").expect("id").as_u32().expect("u32").to_vec();
    let rk = s
        .column("r_id")
        .expect("r_id")
        .as_u32()
        .expect("u32")
        .to_vec();
    let serial_ms = best_of(reps, || hash_join(&lk, &rk, lk.len()).len() as u64);
    out.push(ScalingPoint {
        workload: "HJ",
        threads: 0,
        millis: serial_ms,
        speedup: 1.0,
    });
    for &t in threads {
        let pool = ThreadPool::with_pool(t, std::sync::Arc::new(PersistentPool::new(t)));
        let ms = best_of(reps, || {
            parallel_hash_join(&pool, &lk, &rk, &[0, lk.len()], DEFAULT_MORSEL_ROWS)
                .expect("parallel HJ")
                .0
                .len() as u64
        });
        out.push(ScalingPoint {
            workload: "HJ",
            threads: t,
            millis: ms,
            speedup: serial_ms / ms,
        });
    }

    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn produces_points_for_every_configuration() {
        let points = run(20_000, 64, &[1, 2], 1);
        // Per workload (SPHG, SPHG-2COL, PART-SPHG, HJ): serial baseline
        // + 2 thread counts.
        assert_eq!(points.len(), 12);
        assert!(points
            .iter()
            .all(|p| p.millis.is_finite() && p.millis >= 0.0));
        assert!(points
            .iter()
            .any(|p| p.workload == "SPHG" && p.threads == 0));
        assert!(points
            .iter()
            .any(|p| p.workload == "SPHG-2COL" && p.threads == 2));
        assert!(points
            .iter()
            .any(|p| p.workload == "PART-SPHG" && p.threads == 2));
        assert!(points.iter().any(|p| p.workload == "HJ" && p.threads == 2));
    }
}
