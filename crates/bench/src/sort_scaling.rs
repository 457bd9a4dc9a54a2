//! Parallel sort subsystem scaling study: the parallel sort (run
//! formation + Merge Path merge), parallel SOG and parallel SOJ versus
//! their serial kernels, across thread counts — the measurement the
//! `sort_scaling` binary emits in the same JSON shape as `scaling`, so
//! both trajectories live side by side in the CI artifacts.
//!
//! Each parallel configuration also samples the persistent pool's
//! [`PersistentPool::queued_now`] counter while the workload runs and
//! reports the peak — the scheduler-pressure signal the adaptive
//! admission roadmap item will feed on.

use dqo_exec::aggregate::CountSum;
use dqo_exec::grouping::sog::sort_order_grouping;
use dqo_exec::join::soj::sort_merge_join;
use dqo_exec::sort::argsort;
use dqo_parallel::{
    parallel_argsort, parallel_sog, parallel_sort_merge_join, PersistentPool, RunSortMolecule,
    ThreadPool,
};
use dqo_storage::datagen::{DatasetSpec, ForeignKeySpec};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// One measured configuration.
#[derive(Debug, Clone)]
pub struct SortScalingPoint {
    /// Workload name (`SORT`, `SOG` or `SOJ`).
    pub workload: &'static str,
    /// Worker count (0 encodes the serial kernel baseline).
    pub threads: usize,
    /// Best-of-reps wall time in milliseconds.
    pub millis: f64,
    /// Serial kernel time / this configuration's time.
    pub speedup: f64,
    /// Peak queued runner jobs observed on the pool while this
    /// configuration ran (scheduler pressure; 0 for serial baselines).
    pub queued_peak: usize,
}

pub(crate) fn best_of<F: FnMut() -> u64>(reps: usize, f: F) -> f64 {
    samples_of(reps, f)
        .into_iter()
        .fold(f64::INFINITY, f64::min)
}

/// Per-rep wall times in milliseconds (for percentile reporting; min of
/// the samples is the classic best-of measurement).
pub(crate) fn samples_of<F: FnMut() -> u64>(reps: usize, mut f: F) -> Vec<f64> {
    (0..reps.max(1))
        .map(|_| {
            let start = Instant::now();
            let sink = f();
            let elapsed = start.elapsed().as_secs_f64() * 1e3;
            std::hint::black_box(sink);
            elapsed
        })
        .collect()
}

/// Run `f` while a sampler thread polls the pool's queue depth; returns
/// `f`'s result and the peak `queued_now` observed.
pub(crate) fn with_pressure_sampler<T>(
    pool: &Arc<PersistentPool>,
    f: impl FnOnce() -> T,
) -> (T, usize) {
    let stop = Arc::new(AtomicBool::new(false));
    let peak = Arc::new(AtomicUsize::new(0));
    let sampler = {
        let pool = Arc::clone(pool);
        let stop = Arc::clone(&stop);
        let peak = Arc::clone(&peak);
        std::thread::spawn(move || {
            while !stop.load(Ordering::Relaxed) {
                peak.fetch_max(pool.queued_now(), Ordering::Relaxed);
                // Sleep between samples: queued_now takes every queue
                // lock, so a busy-spinning sampler would contend with
                // the workload being timed and bias the speedup numbers.
                std::thread::sleep(std::time::Duration::from_micros(100));
            }
        })
    };
    let out = f();
    stop.store(true, Ordering::Relaxed);
    sampler.join().expect("pressure sampler");
    (out, peak.load(Ordering::Relaxed))
}

/// Measure SORT, SOG and SOJ at each thread count over `rows`-row datagen
/// inputs. `threads` entries are parallel configurations; a serial-kernel
/// baseline point (threads = 0) is always included first per workload.
pub fn run(rows: usize, groups: usize, threads: &[usize], reps: usize) -> Vec<SortScalingPoint> {
    let mut out = Vec::new();
    let molecule = RunSortMolecule::Comparison;

    // Shared inputs: an unsorted key column for SORT/SOG, an FK pair for
    // SOJ (|R| = rows / 4, |S| = rows).
    let keys = DatasetSpec::new(rows, groups)
        .sorted(false)
        .dense(true)
        .generate()
        .expect("datagen");
    let (r, s) = ForeignKeySpec {
        r_rows: (rows / 4).max(1),
        s_rows: rows,
        groups: groups.min(rows / 4).max(1),
        r_sorted: false,
        s_sorted: false,
        dense: true,
        seed: 0x0005_0127,
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

    // Per workload: serial baseline, then each parallel configuration on
    // a dedicated pool sized to the configuration (so the measured
    // thread count is physical regardless of the global pool's size).
    let workload = |name: &'static str,
                    serial: &mut dyn FnMut() -> u64,
                    parallel: &mut dyn FnMut(&ThreadPool) -> u64,
                    out: &mut Vec<SortScalingPoint>| {
        let serial_ms = best_of(reps, &mut *serial);
        out.push(SortScalingPoint {
            workload: name,
            threads: 0,
            millis: serial_ms,
            speedup: 1.0,
            queued_peak: 0,
        });
        for &t in threads {
            let pool = Arc::new(PersistentPool::new(t));
            let tp = ThreadPool::with_pool(t, Arc::clone(&pool));
            let (ms, queued_peak) =
                with_pressure_sampler(&pool, || best_of(reps, || parallel(&tp)));
            out.push(SortScalingPoint {
                workload: name,
                threads: t,
                millis: ms,
                speedup: serial_ms / ms,
                queued_peak,
            });
        }
    };

    workload(
        "SORT",
        &mut || argsort(&keys).len() as u64,
        &mut |tp| {
            parallel_argsort(tp, &keys, molecule, &[])
                .expect("parallel sort")
                .0
                .len() as u64
        },
        &mut out,
    );
    workload(
        "SOG",
        &mut || sort_order_grouping(&keys, &keys, CountSum).len() as u64,
        &mut |tp| {
            parallel_sog(tp, &keys, &keys, CountSum, molecule, &[])
                .expect("parallel SOG")
                .0
                .len() as u64
        },
        &mut out,
    );
    workload(
        "SOJ",
        &mut || sort_merge_join(&lk, &rk).len() as u64,
        &mut |tp| {
            parallel_sort_merge_join(tp, &lk, &rk, molecule, &[])
                .expect("parallel SOJ")
                .0
                .len() as u64
        },
        &mut out,
    );

    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn produces_points_for_every_configuration() {
        let points = run(20_000, 64, &[1, 2], 1);
        // Per workload: serial baseline + 2 thread counts.
        assert_eq!(points.len(), 9);
        assert!(points
            .iter()
            .all(|p| p.millis.is_finite() && p.millis >= 0.0));
        for w in ["SORT", "SOG", "SOJ"] {
            assert!(points.iter().any(|p| p.workload == w && p.threads == 0));
            assert!(points.iter().any(|p| p.workload == w && p.threads == 2));
        }
    }
}
