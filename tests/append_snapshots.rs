//! Snapshots stay fixed while INSERTs extend their buffers in place.
//!
//! A column's buffer is append-only: an INSERT writes the new rows past
//! the current snapshot's length, in the same allocation, and the
//! snapshot a reader already holds keeps reading its own prefix. These
//! tests drive that with real threads — one writer inserting fixed-seed
//! batches through `Engine::insert` into a table that carries all three
//! AV kinds, readers holding catalog snapshots taken at different lengths
//! and re-checking them while the writer keeps going — and check that two
//! appends to one snapshot give two correct children, the second by
//! copying, and that an INSERT copies O(delta) amortised, not the table.
//! The sorted projection's hidden relation is held the same way, across
//! INSERTs that append to its tail in place and ones that merge the tail
//! into a new prefix.

use dqo::core::av::{AvArtifact, AvKind, AvSignature};
use dqo::core::av_delta::tail_limit;
use dqo::core::catalog::TableEntry;
use dqo::core::Engine;
use dqo::obs::{names, MetricsRegistry};
use dqo::storage::{Column, DataType, Dictionary, Field, Relation, Schema, Value};
use std::any::Any;
use std::panic::{self, AssertUnwindSafe};
use std::sync::{Arc, Barrier};

const BATCH: usize = 16;
const KEYS: u32 = 64;
const CITIES: [&str; 5] = ["Oslo", "Lima", "Pune", "Kobe", "Graz"];

/// xorshift64 — deterministic, seedable, no external crates.
fn next(state: &mut u64) -> u64 {
    let mut x = *state;
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    *state = x;
    x
}

/// The rows of `t(key, city)`: every key in `0..KEYS` first (a dense
/// domain, so the SPH index is patched, not rebuilt), then fixed-seed
/// random rows. The last city first shows up in the appended batches, so
/// one of them extends the dictionary.
fn rows(n: usize, state: &mut u64) -> Vec<(u32, &'static str)> {
    (0..n)
        .map(|i| {
            let key = if i < KEYS as usize {
                i as u32
            } else {
                next(state) as u32 % KEYS
            };
            (key, CITIES[next(state) as usize % (CITIES.len() - 1)])
        })
        .collect()
}

fn table(rows: &[(u32, &str)]) -> Relation {
    let cities: Vec<&str> = rows.iter().map(|&(_, c)| c).collect();
    let (dict, codes) = Dictionary::encode_all(&cities);
    let schema = Schema::new(vec![
        Field::new("key", DataType::U32),
        Field::new("city", DataType::Str),
    ])
    .unwrap();
    let keys = rows.iter().map(|&(k, _)| k).collect();
    Relation::new(schema, vec![Column::U32(keys), Column::Str(codes)])
        .unwrap()
        .with_dictionary("city", Arc::new(dict))
        .unwrap()
}

fn values(rows: &[(u32, &str)]) -> Vec<Vec<Value>> {
    rows.iter()
        .map(|&(k, c)| vec![Value::U32(k), Value::Str(c.into())])
        .collect()
}

/// `t` holds exactly `expected`'s rows, decoded through its own
/// dictionary.
fn assert_holds(t: &Relation, expected: &[(u32, &str)], ctx: &str) {
    assert_eq!(t.rows(), expected.len(), "{ctx}: rows");
    let keys = t.column("key").unwrap().as_u32().unwrap();
    let codes = t.column("city").unwrap().as_u32().unwrap();
    let dict = t.dictionary("city").unwrap().expect("city dictionary");
    assert_eq!(
        (keys.len(), codes.len()),
        (t.rows(), t.rows()),
        "{ctx}: lengths"
    );
    for (i, &(key, city)) in expected.iter().enumerate() {
        assert_eq!(keys[i], key, "{ctx}: key of row {i}");
        assert_eq!(
            dict.decode(codes[i]).unwrap(),
            city,
            "{ctx}: city of row {i}"
        );
    }
}

/// A sorted projection's snapshot holds exactly `expected`'s rows: its
/// prefix ascends by key, and its rows in key order — every row by `(key,
/// row id)`, the prefix merged with the tail it appended — are
/// `expected` stably sorted by key.
fn assert_projection_holds(projection: &TableEntry, expected: &[(u32, &str)], ctx: &str) {
    let rel = &projection.relation;
    let keys = rel.column("key").unwrap().as_u32().unwrap();
    let prefix = projection.sorted_prefix.as_ref();
    let prefix = prefix.map_or(rel.rows(), |p| p.rows);
    assert!(
        keys[..prefix].windows(2).all(|w| w[0] <= w[1]),
        "{ctx}: prefix order"
    );
    let mut order: Vec<u32> = (0..rel.rows() as u32).collect();
    order.sort_by_key(|&row| (keys[row as usize], row));
    let mut want = expected.to_vec();
    want.sort_by_key(|&(key, _)| key);
    assert_holds(&rel.gather(&order), &want, ctx);
}

fn engine_with_avs(rows: &[(u32, &str)]) -> Engine {
    let engine = Engine::new();
    engine.register_table("t", table(rows));
    let sigs = [
        AvKind::SortedProjection,
        AvKind::SphIndex,
        AvKind::MaterialisedGrouping,
    ]
    .map(|kind| AvSignature::new("t", "key", kind));
    engine.av_builder().build_batch(&sigs).expect("AV build");
    engine
}

/// Run `step` unless an earlier step of this thread failed, and keep the
/// failure: a thread that left a loop of barrier checkpoints early would
/// leave the others waiting at the barrier.
fn unless_failed(failed: &mut Option<Box<dyn Any + Send>>, step: impl FnOnce()) {
    if failed.is_none() {
        *failed = panic::catch_unwind(AssertUnwindSafe(step)).err();
    }
}

/// Raise the failure [`unless_failed`] kept, once the checkpoints are past.
fn raise(failed: Option<Box<dyn Any + Send>>) {
    if let Some(failure) = failed {
        panic::resume_unwind(failure);
    }
}

#[test]
fn readers_snapshots_stay_fixed_while_a_writer_appends() {
    const BASE: usize = 400;
    const BATCHES: usize = 60;
    /// Batches between two checkpoints.
    const STRIDE: usize = 6;
    const READERS: usize = 3;
    let mut state = 0x5eed;
    let mut all = rows(BASE + BATCHES * BATCH, &mut state);
    // The batches bring the one city the base does not hold.
    all[BASE + 5 * BATCH + 3].1 = CITIES[CITIES.len() - 1];
    let engine = engine_with_avs(&all[..BASE]);
    let hidden = AvSignature::new("t", "key", AvKind::SortedProjection).av_table_name();
    // At each checkpoint the writer has had `STRIDE` more batches
    // acknowledged; it goes on appending while the readers check. Between
    // two, the projection's tail both took batches in place and merged.
    let checkpoint = Barrier::new(READERS + 1);
    std::thread::scope(|scope| {
        scope.spawn(|| {
            let mut failed = None;
            for b in 0..BATCHES {
                unless_failed(&mut failed, || {
                    let batch = &all[BASE + b * BATCH..BASE + (b + 1) * BATCH];
                    let mut report = engine.insert("t", &values(batch)).expect("insert");
                    report.wait_for_rebuilds().expect("no rebuild expected");
                });
                if (b + 1) % STRIDE == 0 {
                    checkpoint.wait();
                }
            }
            raise(failed);
        });
        for reader in 0..READERS {
            let (engine, checkpoint, all, hidden) = (&engine, &checkpoint, &all, &hidden);
            scope.spawn(move || {
                let (mut held, mut projections) = (Vec::new(), Vec::new());
                let mut failed = None;
                for cp in 1..=BATCHES / STRIDE {
                    checkpoint.wait();
                    unless_failed(&mut failed, || {
                        let snapshot = engine.catalog().get("t").expect("t");
                        let rows = snapshot.relation.rows();
                        let acked = BASE + cp * STRIDE * BATCH;
                        assert!(
                            rows >= acked,
                            "reader {reader}: {rows} rows, {acked} acknowledged"
                        );
                        assert_eq!((rows - BASE) % BATCH, 0, "reader {reader}: a torn append");
                        held.push((rows, snapshot));
                        // Every snapshot held, the older ones taken before
                        // the appends since, still reads exactly its own
                        // rows — checked while the writer appends behind
                        // them.
                        for (n, old) in &held {
                            let ctx = format!("reader {reader}, checkpoint {cp}, snapshot of {n}");
                            assert_holds(&old.relation, &all[..*n], &ctx);
                        }
                        let projection = engine.catalog().stored(hidden).expect("projection");
                        let rows = projection.relation.rows();
                        assert!(rows >= acked, "reader {reader}: projection of {rows} rows");
                        projections.push(projection);
                        for old in &projections {
                            let n = old.relation.rows();
                            let ctx =
                                format!("reader {reader}, checkpoint {cp}, projection of {n}");
                            assert_projection_holds(old, &all[..n], &ctx);
                        }
                    });
                }
                raise(failed);
            });
        }
    });
    let t = engine.catalog().get("t").expect("t");
    assert_holds(&t.relation, &all, "after the writer");
    let projection = engine.catalog().stored(&hidden).expect("projection");
    assert_projection_holds(&projection, &all, "the projection after the writer");
}

#[test]
fn two_appends_to_one_snapshot_give_two_correct_children() {
    let mut state = 77;
    let all = rows(300, &mut state);
    let engine = engine_with_avs(&all[..200]);
    // The first INSERT moves `t`'s full buffers into ones with room.
    engine.insert("t", &values(&all[200..216])).expect("insert");
    let tip = engine.catalog().get("t").expect("t");
    assert_holds(&tip.relation, &all[..216], "tip");
    // An append from outside the engine extends the tip in place...
    let outside = tip.relation.append_rows(&values(&all[216..232])).unwrap();
    assert_eq!(outside.combined.bytes_not_shared_with(&tip.relation), 0);
    // ...so the engine's next INSERT, from the same snapshot, copies.
    let report = engine.insert("t", &values(&all[232..248])).expect("insert");
    let moved = tip.relation.byte_size() + BATCH * 8;
    assert!(
        report.bytes_copied >= moved,
        "{} bytes copied, the table is {moved}",
        report.bytes_copied
    );
    let inserted = engine.catalog().get("t").expect("t");
    assert!(!inserted
        .relation
        .column("key")
        .unwrap()
        .shares_buffer(tip.relation.column("key").unwrap()));
    let mut expected = all[..216].to_vec();
    expected.extend_from_slice(&all[232..248]);
    assert_holds(&inserted.relation, &expected, "engine child");
    assert_holds(&outside.combined, &all[..232], "outside child");
    assert_holds(&tip.relation, &all[..216], "parent");
    // The copy has room: the INSERT after it writes in place again.
    engine.insert("t", &values(&all[248..264])).expect("insert");
    let next = engine.catalog().get("t").expect("t");
    assert!(next
        .relation
        .column("key")
        .unwrap()
        .shares_buffer(inserted.relation.column("key").unwrap()));
    expected.extend_from_slice(&all[248..264]);
    assert_holds(&next.relation, &expected, "after the copy");
}

/// 1 000 16-row INSERTs into a 100 000-row table. Without views, the base
/// columns move once (the registered table's buffers are full) into
/// buffers with room for the rest, so the inserts copy less than the
/// final table once over; copying the table per INSERT, as a
/// copy-on-append table does, is ~1 000 times it. With an SPH index over
/// 1 000 keys, each patch also writes its tail (~4 KiB of slot offsets
/// plus the tail's rows) and the main CSR is rewritten once per
/// √rows ≈ 320 appended rows — about 30 times the table in all, against
/// ~1 400 times when the table and the CSR are copied per INSERT.
#[test]
fn inserts_copy_amortised_o_delta_bytes() {
    const ROWS: u32 = 100_000;
    const INSERTS: usize = 1_000;
    let key = |i: u32| i.wrapping_mul(2_654_435_761) % 1_000;
    for with_index in [false, true] {
        let registry = Arc::new(MetricsRegistry::new());
        let engine = Engine::new().with_metrics_registry(Arc::clone(&registry));
        let schema = Schema::new(vec![
            Field::new("key", DataType::U32),
            Field::new("v", DataType::U32),
        ])
        .unwrap();
        let base = Relation::new(
            schema,
            vec![
                Column::U32((0..ROWS).map(key).collect()),
                Column::U32((0..ROWS).collect()),
            ],
        )
        .unwrap();
        engine.register_table("t", base);
        if with_index {
            let sig = AvSignature::new("t", "key", AvKind::SphIndex);
            engine.av_builder().build_batch(&[sig]).expect("AV build");
        }
        let mut total = 0usize;
        let mut next_row = ROWS;
        for _ in 0..INSERTS {
            let batch: Vec<Vec<Value>> = (next_row..next_row + BATCH as u32)
                .map(|i| vec![Value::U32(key(i)), Value::U32(i)])
                .collect();
            next_row += BATCH as u32;
            let report = engine.insert("t", &batch).expect("insert");
            total += report.bytes_copied;
        }
        let table = engine.catalog().get("t").expect("t").relation.byte_size();
        assert_eq!(table, 8 * (ROWS as usize + INSERTS * BATCH));
        let bound = if with_index { 50 * table } else { table };
        assert!(
            total <= bound,
            "index={with_index}: {total} bytes copied, table {table}"
        );
        assert!(total > 0, "the first INSERT moves the full buffers");
        let counted = registry.snapshot().counter(names::INSERT_BYTES_COPIED);
        assert_eq!(counted, Some(total as u64), "index={with_index}");
    }
}

/// 16-row INSERTs into a 100 000-row table with all three AVs. An INSERT
/// that leaves the sorted projection's tail within ⌈√rows⌉ appends to it
/// in place, and the projection copies no more than the delta; the one
/// that would take the tail past it merges prefix and tail into a new
/// prefix, copying the projection once — so a merge comes exactly once
/// per ⌈√rows⌉ tail rows.
#[test]
fn the_sorted_projection_copies_only_when_its_tail_merges() {
    const ROWS: u32 = 100_000;
    let key = |i: u32| i.wrapping_mul(2_654_435_761) % 1_000;
    let engine = Engine::new();
    let schema = Schema::new(vec![
        Field::new("key", DataType::U32),
        Field::new("v", DataType::U32),
    ])
    .unwrap();
    let columns = vec![
        Column::U32((0..ROWS).map(key).collect()),
        Column::U32((0..ROWS).collect()),
    ];
    engine.register_table("t", Relation::new(schema, columns).unwrap());
    let sigs = [
        AvKind::SortedProjection,
        AvKind::SphIndex,
        AvKind::MaterialisedGrouping,
    ]
    .map(|kind| AvSignature::new("t", "key", kind));
    engine.av_builder().build_batch(&sigs).expect("AV build");
    let (mut tail, mut merges) = (0usize, 0);
    for step in 0..60u32 {
        let first = ROWS + step * BATCH as u32;
        let batch: Vec<Vec<Value>> = (first..first + BATCH as u32)
            .map(|i| vec![Value::U32(key(i)), Value::U32(i)])
            .collect();
        let report = engine.insert("t", &batch).expect("insert");
        let outcome = (report.maintenance.outcomes.iter())
            .find(|o| o.signature == sigs[0])
            .expect("projection maintained");
        let av = engine.avs().get(&sigs[0]).expect("projection");
        let Some(AvArtifact::SortedProjection(rel, prefix)) = av.artifact.as_ref() else {
            panic!("step {step}: {:?}", av.artifact);
        };
        let rows = (first as usize) + BATCH;
        assert_eq!(rel.rows(), rows, "step {step}");
        if tail + BATCH > tail_limit(rows) {
            assert_eq!(*prefix, rows, "step {step}: the tail merged");
            assert!(outcome.bytes_copied >= rel.byte_size(), "step {step}");
            (tail, merges) = (0, merges + 1);
        } else {
            tail += BATCH;
            assert_eq!(rows - prefix, tail, "step {step}: the tail took the batch");
            assert!(
                outcome.bytes_copied <= BATCH * 8,
                "step {step}: an append to the tail copied {} bytes",
                outcome.bytes_copied
            );
        }
    }
    assert_eq!(merges, 3, "one merge per ⌈√rows⌉ ≈ 317 tail rows");
}

/// Reader threads run a join whose build side scans `b` whole while a
/// writer appends to `b`. Each run probes the index memoised on the entry
/// its scan took, which the writer's INSERTs leave behind — several
/// readers may race to build one entry's index — and must answer for
/// exactly that entry's rows: its result equals the oracle's over some
/// acknowledged prefix of `b`, no older than the last one the reader saw.
#[test]
fn readers_probe_the_memo_of_the_snapshot_they_read_while_a_writer_appends() {
    use dqo::core::executor::{execute_with, naive_eval, sorted_rows, ExecContext};
    use dqo::plan::physical::GroupingMolecules;
    use dqo::plan::{
        AggExpr, AggFunc, CmpOp, GroupingAlgorithm, JoinAlgorithm, LogicalPlan, PhysicalPlan,
        Predicate,
    };
    const BASE: usize = 1_000;
    const BATCHES: usize = 24;
    const READERS: usize = 3;
    let mut state = 0x3e3e;
    // `b(id, g)`: ids 0..BASE, then batches of new ids and repeats, so the
    // index goes from unique to CSR and its domain grows.
    let b: Vec<(u32, u32)> = (0..BASE + BATCHES * BATCH)
        .map(|i| {
            let id = match i < BASE || i % 3 == 0 {
                true => i as u32,
                false => next(&mut state) as u32 % BASE as u32,
            };
            (id, next(&mut state) as u32 % 40)
        })
        .collect();
    let relation = |names: [&str; 2], rows: &[(u32, u32)]| {
        let fields = names
            .iter()
            .map(|n| Field::new(*n, DataType::U32))
            .collect();
        let (x, y): (Vec<u32>, Vec<u32>) = rows.iter().copied().unzip();
        Relation::new(
            Schema::new(fields).unwrap(),
            vec![Column::U32(x), Column::U32(y)],
        )
        .unwrap()
    };
    let p: Vec<(u32, u32)> = (0..4_000)
        .map(|_| {
            let fk = next(&mut state) as u32 % b.len() as u32;
            (fk, next(&mut state) as u32 % 100)
        })
        .collect();
    let engine = Engine::new();
    engine.register_table("b", relation(["id", "g"], &b[..BASE]));
    engine.register_table("p", relation(["fk", "y"], &p));
    let aggs = vec![
        AggExpr::count_star("n"),
        AggExpr::on(AggFunc::Sum, "y", "s"),
    ];
    let below = Predicate::cmp("y", CmpOp::Lt, 70u32);
    let join = PhysicalPlan::Join {
        left: Box::new(PhysicalPlan::Scan { table: "b".into() }),
        right: Box::new(PhysicalPlan::Scan { table: "p".into() }),
        left_key: "id".into(),
        right_key: "fk".into(),
        algo: JoinAlgorithm::HashBased,
    };
    let plan = PhysicalPlan::GroupBy {
        input: Box::new(PhysicalPlan::Filter {
            input: Box::new(join),
            predicate: below.clone(),
        }),
        keys: vec!["g".into()],
        aggs: aggs.clone(),
        algo: GroupingAlgorithm::HashBased,
        molecules: GroupingMolecules::defaults_for(GroupingAlgorithm::HashBased),
    };
    let logical = LogicalPlan::join(LogicalPlan::scan("b"), LogicalPlan::scan("p"), "id", "fk");
    let logical = LogicalPlan::group_by(LogicalPlan::filter(logical, below), "g", aggs);
    // The oracle's answer over every prefix the writer acknowledges.
    let expected: Vec<_> = (0..=BATCHES)
        .map(|k| {
            let oracle = dqo::core::Catalog::new();
            oracle.register("b", relation(["id", "g"], &b[..BASE + k * BATCH]));
            oracle.register("p", relation(["fk", "y"], &p));
            sorted_rows(&naive_eval(&logical, &oracle).expect("naive"))
        })
        .collect();
    for k in 1..=BATCHES {
        assert_ne!(expected[k], expected[k - 1], "batch {k} moves the answer");
    }
    let acked = std::sync::atomic::AtomicUsize::new(0);
    std::thread::scope(|scope| {
        scope.spawn(|| {
            for k in 0..BATCHES {
                let batch: Vec<Vec<Value>> = b[BASE + k * BATCH..BASE + (k + 1) * BATCH]
                    .iter()
                    .map(|&(id, g)| vec![Value::U32(id), Value::U32(g)])
                    .collect();
                engine.insert("b", &batch).expect("insert");
                acked.store(k + 1, std::sync::atomic::Ordering::SeqCst);
            }
        });
        for reader in 0..READERS {
            let (engine, plan, expected, acked) = (&engine, &plan, &expected, &acked);
            scope.spawn(move || {
                let mut seen = 0;
                let ctx = ExecContext::default();
                loop {
                    let done = acked.load(std::sync::atomic::Ordering::SeqCst) == BATCHES;
                    let (out, _) = execute_with(plan, engine.catalog(), &ctx).expect("execute");
                    let upto = acked.load(std::sync::atomic::Ordering::SeqCst);
                    let rows = sorted_rows(&out.relation);
                    let at = (seen..=upto).find(|&k| expected[k] == rows);
                    let at = at.unwrap_or_else(|| {
                        panic!("reader {reader}: no prefix of {seen}..={upto} batches answers so")
                    });
                    seen = at;
                    if done {
                        assert_eq!(at, BATCHES, "reader {reader}: the last answer");
                        break;
                    }
                }
            });
        }
    });
}
