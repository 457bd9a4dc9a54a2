//! Criterion bench for the **parallel scaling** study: morsel-driven HJ
//! and SPHG at thread counts 1/2/4/8 versus the serial kernels, on 1M-row
//! datagen inputs. The `scaling` binary covers larger sweeps and emits
//! the JSON report.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use dqo_exec::aggregate::CountSum;
use dqo_exec::grouping::{execute_grouping, GroupingAlgorithm, GroupingHints};
use dqo_exec::join::hj::hash_join;
use dqo_parallel::{
    parallel_grouping, parallel_hash_join, GroupingStrategy, PersistentPool, ThreadPool,
    DEFAULT_MORSEL_ROWS,
};
use dqo_storage::datagen::{DatasetSpec, ForeignKeySpec};
use std::hint::black_box;

const ROWS: usize = 1_000_000;
const GROUPS: usize = 20_000;
const THREADS: [usize; 4] = [1, 2, 4, 8];

fn sphg_scaling(c: &mut Criterion) {
    let keys = DatasetSpec::new(ROWS, GROUPS)
        .sorted(false)
        .dense(true)
        .generate()
        .expect("datagen");
    let max = (GROUPS - 1) as u32;
    let mut group = c.benchmark_group("scaling/sphg");
    group.throughput(Throughput::Elements(ROWS as u64));
    group.sample_size(10);
    let hints = GroupingHints {
        min: Some(0),
        max: Some(max),
        distinct: Some(GROUPS as u64),
        known_keys: None,
    };
    group.bench_function("serial", |b| {
        b.iter(|| {
            execute_grouping(
                GroupingAlgorithm::StaticPerfectHash,
                black_box(&keys),
                black_box(&keys),
                CountSum,
                &hints,
            )
            .expect("serial")
            .len()
        })
    });
    for threads in THREADS {
        let pool =
            ThreadPool::with_pool(threads, std::sync::Arc::new(PersistentPool::new(threads)));
        group.bench_with_input(BenchmarkId::new("parallel", threads), &threads, |b, _| {
            b.iter(|| {
                parallel_grouping(
                    &pool,
                    black_box(&keys),
                    black_box(&keys),
                    CountSum,
                    GroupingStrategy::StaticPerfectHash { min: 0, max },
                    &[0, keys.len()],
                    DEFAULT_MORSEL_ROWS,
                )
                .expect("parallel")
                .0
                .len()
            })
        });
    }
    group.finish();
}

fn hj_scaling(c: &mut Criterion) {
    let (r, s) = ForeignKeySpec {
        r_rows: ROWS / 4,
        s_rows: ROWS,
        groups: GROUPS,
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
    let mut group = c.benchmark_group("scaling/hj");
    group.throughput(Throughput::Elements((lk.len() + rk.len()) as u64));
    group.sample_size(10);
    group.bench_function("serial", |b| {
        b.iter(|| hash_join(black_box(&lk), black_box(&rk), lk.len()).len())
    });
    for threads in THREADS {
        let pool =
            ThreadPool::with_pool(threads, std::sync::Arc::new(PersistentPool::new(threads)));
        group.bench_with_input(BenchmarkId::new("parallel", threads), &threads, |b, _| {
            b.iter(|| {
                parallel_hash_join(
                    &pool,
                    black_box(&lk),
                    black_box(&rk),
                    &[0, lk.len()],
                    DEFAULT_MORSEL_ROWS,
                )
                .expect("parallel HJ")
                .0
                .len()
            })
        });
    }
    group.finish();
}

criterion_group!(benches, sphg_scaling, hj_scaling);
criterion_main!(benches);
