//! Mutation oracle: every incrementally maintained AV must be
//! **identical** to a from-scratch rebuild over the same combined
//! data — at DOP 1, 2 and 8, under randomised append/query
//! interleavings, and across every [`DeltaAction`] maintenance can take
//! (delta-merge, run-merge, CSR patch, inline rebuild, background SPH
//! rebuild after a domain widening).
//!
//! The oracle is the serial [`materialise_av`] over the current combined
//! table: whatever the maintainer published must match what a cold
//! build would have produced, column for column (relations), or for an
//! `SphIndex` slot map, layout kind and every slot's rows in order
//! (`JoinIndex`'s `PartialEq`, which looks through a patched CSR's split
//! into a shared main part and a tail). A sorted projection is compared
//! by its rows in key order — its sorted prefix merged with its tail,
//! which INSERTs append in append order — bit for bit, after checking that
//! the prefix ascends and the tail holds at most ⌈√rows⌉ rows. The hidden
//! `__av::` relation registered for plan scans is checked against the
//! artifact too, so a publish that updates one but not the other fails.
//! So are the catalog's statistics: every `column_props` entry of `t` and
//! of each hidden relation must equal `DataProps::compute` over its
//! column (a sorted projection's read in key order), and every
//! `key_codes` entry `KeyCodes::build` over it, so a fold on the write
//! path can never drift from the oracle.
//!
//! Interleaved queries run through **prepared executions** so the run
//! doubles as the plan-cache acceptance check: appends move the data
//! clock, not the DDL clock, so across the whole interleaving exactly
//! one plan-cache miss is allowed.

use dqo::core::av::{materialise_av, AvArtifact, AvKind, AvSignature};
use dqo::core::av_delta::tail_limit;
use dqo::core::executor::{execute_with, naive_eval, sorted_rows, ExecContext};
use dqo::core::optimizer::{optimize_in, OptimizerMode, SearchContext};
use dqo::core::{CoreError, DeltaAction, Engine};
use dqo::obs::{names, MetricsRegistry};
use dqo::parallel::PersistentPool;
use dqo::plan::expr::{AggExpr, CmpOp, Predicate};
use dqo::plan::physical::GroupingMolecules;
use dqo::plan::{
    AggFunc, GroupingAlgorithm, JoinAlgorithm, LogicalPlan, PhysicalPlan, SortMolecule,
};
use dqo::storage::{
    Column, DataProps, DataType, Field, KeyCodes, PartitionSpec, PartitionedRelation, Relation,
    Schema, Sortedness, Value,
};
use std::collections::BTreeMap;
use std::sync::Arc;

const ALL_KINDS: [AvKind; 3] = [
    AvKind::SortedProjection,
    AvKind::SphIndex,
    AvKind::MaterialisedGrouping,
];

/// t(key dense u32 in 0..=max_key, v u32) with every key present — the
/// shape all three AV kinds (including the dense-domain SPH index)
/// materialise on.
fn dense_table(rows: &[(u32, u32)]) -> Relation {
    Relation::new(
        Schema::new(vec![
            Field::new("key", DataType::U32),
            Field::new("v", DataType::U32),
        ])
        .unwrap(),
        vec![
            Column::U32(rows.iter().map(|(k, _)| *k).collect()),
            Column::U32(rows.iter().map(|(_, v)| *v).collect()),
        ],
    )
    .unwrap()
}

fn seed_rows(n: usize, domain: u32, state: &mut u64) -> Vec<(u32, u32)> {
    // Every key in 0..domain occurs at least once (dense), the rest random.
    let mut rows: Vec<(u32, u32)> = (0..domain).map(|k| (k, k * 7)).collect();
    while rows.len() < n {
        rows.push((next(state) as u32 % domain, next(state) as u32 % 1_000));
    }
    rows
}

/// xorshift64 — deterministic, seedable, no external crates.
fn next(state: &mut u64) -> u64 {
    let mut x = *state;
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    *state = x;
    x
}

/// Engine with `t` registered and all three AV kinds materialised.
fn engine_with_avs(rows: &[(u32, u32)], dop: usize) -> (Engine, Arc<MetricsRegistry>) {
    let registry = Arc::new(MetricsRegistry::new());
    let engine = Engine::new()
        .with_threads(dop)
        .with_metrics_registry(Arc::clone(&registry));
    materialise_all(engine, rows, registry)
}

/// `engine` with `t` registered and all three AV kinds materialised.
fn materialise_all(
    engine: Engine,
    rows: &[(u32, u32)],
    registry: Arc<MetricsRegistry>,
) -> (Engine, Arc<MetricsRegistry>) {
    engine.register_table("t", dense_table(rows));
    let sigs: Vec<AvSignature> = ALL_KINDS
        .iter()
        .map(|&kind| AvSignature::new("t", "key", kind))
        .collect();
    engine.av_builder().build_batch(&sigs).expect("AV build");
    (engine, registry)
}

/// The oracle: every maintained artifact equals a from-scratch rebuild
/// over the current combined table, and the hidden `__av::` relation
/// agrees with the published artifact.
fn assert_matches_rebuild(engine: &Engine, ctx: &str) {
    let sigs = ALL_KINDS.map(|kind| AvSignature::new("t", "key", kind));
    assert_sigs_match_rebuild(engine, &sigs, ctx);
}

fn assert_sigs_match_rebuild(engine: &Engine, sigs: &[AvSignature], ctx: &str) {
    assert_stats_exact(engine, ctx);
    let combined = engine.catalog().get("t").expect("t");
    for sig in sigs {
        let maintained = engine
            .avs()
            .get(sig)
            .unwrap_or_else(|| panic!("{ctx}: {sig} missing from catalog"));
        let fresh = materialise_av(&combined, sig, None).expect("rebuild");
        // The hidden relation plans scan must be the artifact.
        let hidden = || engine.catalog().stored(&sig.av_table_name());
        match (
            maintained.artifact.as_ref().expect("materialised"),
            fresh.artifact.as_ref().expect("materialised"),
        ) {
            (AvArtifact::SortedProjection(m, prefix), AvArtifact::SortedProjection(f, _)) => {
                let ctx = format!("{ctx}: {sig}");
                let key = sig.key_columns();
                assert_split(m, *prefix, &key, &ctx);
                assert_relations_eq(&keyed(m, &key), f, &ctx);
                let hidden = hidden().expect("hidden relation");
                assert_relations_eq(&hidden.relation, m, &format!("{ctx} hidden relation"));
                let tail = (*prefix < m.rows()).then_some(*prefix);
                let split = hidden.sorted_prefix.as_ref().map(|p| p.rows);
                assert_eq!(split, tail, "{ctx}: the catalog's prefix");
                // A catalog read shows the rows in key order: a rebuild's.
                let read = engine.catalog().get(&sig.av_table_name()).expect("read");
                assert!(read.sorted_prefix.is_none(), "{ctx}: a read has no tail");
                assert_relations_eq(&read.relation, f, &format!("{ctx} catalog read"));
            }
            (AvArtifact::MaterialisedGrouping(m), AvArtifact::MaterialisedGrouping(f)) => {
                assert_relations_eq(m, f, &format!("{ctx}: {sig}"));
                let hidden = Arc::clone(&hidden().expect("hidden relation").relation);
                assert_relations_eq(&hidden, m, &format!("{ctx}: {sig} hidden relation"));
            }
            (AvArtifact::SphIndex(m), AvArtifact::SphIndex(f)) => {
                assert_eq!(m, f, "{ctx}: {sig} CSR diverged from rebuild");
            }
            other => panic!("{ctx}: {sig} artifact kinds diverged: {other:?}"),
        }
    }
}

/// The rows of a sorted projection in key order, found without the
/// engine's merge: every row ordered by `(key tuple, row id)`. The prefix
/// ascends, and every tail row was appended after all of its rows, in
/// append order — so this is the prefix merged with the stably sorted
/// tail, a prefix row first on equal keys.
fn keyed(rel: &Relation, key: &[&str]) -> Relation {
    let cols: Vec<&[u32]> = key
        .iter()
        .map(|k| rel.column(k).unwrap().as_u32().unwrap())
        .collect();
    let tuple = |row: u32| cols.iter().map(|c| c[row as usize]).collect::<Vec<u32>>();
    let mut order: Vec<u32> = (0..rel.rows() as u32).collect();
    order.sort_by_key(|&row| (tuple(row), row));
    rel.gather(&order)
}

/// A sorted projection's split: its first `prefix` rows ascend by `key`,
/// and the rest — its tail — are at most ⌈√rows⌉.
fn assert_split(rel: &Relation, prefix: usize, key: &[&str], ctx: &str) {
    let cols: Vec<&[u32]> = key
        .iter()
        .map(|k| rel.column(k).unwrap().as_u32().unwrap())
        .collect();
    let tuple = |row: usize| cols.iter().map(|c| c[row]).collect::<Vec<u32>>();
    assert!(
        (1..prefix).all(|row| tuple(row - 1) <= tuple(row)),
        "{ctx}: the prefix of {prefix} rows does not ascend"
    );
    let tail = rel.rows() - prefix;
    let limit = tail_limit(rel.rows());
    assert!(tail <= limit, "{ctx}: a tail of {tail} rows, over {limit}");
}

/// Every statistic the catalog holds — for `t` and for each hidden
/// `__av::` relation — equals `DataProps::compute` over its column (a
/// sorted projection's read in key order), and every column's key codes
/// equal `KeyCodes::build` over it.
fn assert_stats_exact(engine: &Engine, ctx: &str) {
    let catalog = engine.catalog();
    for name in catalog.table_names() {
        let entry = catalog.stored(&name).expect("listed table");
        let in_key_order = entry.sorted_prefix.as_ref().map(|prefix| {
            let key: Vec<&str> = prefix.key.iter().map(String::as_str).collect();
            keyed(&entry.relation, &key)
        });
        for field in entry.relation.schema().fields() {
            let Ok(data) = entry.relation.column(&field.name).unwrap().as_u32() else {
                continue;
            };
            let rows = in_key_order.as_ref().unwrap_or(&entry.relation);
            let ordered = rows.column(&field.name).unwrap().as_u32().unwrap();
            assert_eq!(
                entry.column_props.get(&field.name),
                Some(&DataProps::compute(ordered)),
                "{ctx}: statistics of {name}.{}",
                field.name
            );
            if let Some(codes) = entry.key_codes.get(&field.name) {
                assert_eq!(
                    **codes,
                    KeyCodes::build(data),
                    "{ctx}: key codes of {name}.{}",
                    field.name
                );
            }
        }
    }
}

fn assert_relations_eq(a: &Relation, b: &Relation, ctx: &str) {
    assert_eq!(a.rows(), b.rows(), "{ctx}: row counts");
    assert_eq!(a.schema().width(), b.schema().width(), "{ctx}: widths");
    for c in 0..a.schema().width() {
        assert_eq!(
            format!("{:?}", a.column_at(c).unwrap()),
            format!("{:?}", b.column_at(c).unwrap()),
            "{ctx}: column {c}"
        );
    }
}

fn count_sum_query() -> Arc<LogicalPlan> {
    LogicalPlan::group_by(
        LogicalPlan::scan("t"),
        "key",
        vec![
            AggExpr::count_star("count"),
            AggExpr::on(AggFunc::Sum, "key", "sum"),
        ],
    )
}

/// Aggregate the mirror exactly as the query would.
fn mirror_groups(mirror: &[(u32, u32)]) -> BTreeMap<u32, (u64, u64)> {
    let mut groups: BTreeMap<u32, (u64, u64)> = BTreeMap::new();
    for (k, _) in mirror {
        let e = groups.entry(*k).or_insert((0, 0));
        e.0 += 1;
        e.1 += u64::from(*k);
    }
    groups
}

fn result_groups(rel: &Relation) -> BTreeMap<u32, (u64, u64)> {
    let keys = rel.column("key").unwrap().as_u32().unwrap();
    let counts = rel.column("count").unwrap().as_u64().unwrap();
    let sums = rel.column("sum").unwrap().as_u64().unwrap();
    keys.iter()
        .zip(counts.iter().zip(sums))
        .map(|(k, (c, s))| (*k, (*c, *s)))
        .collect()
}

/// The headline test: randomised append/query interleavings at DOP
/// {1, 2, 8}. After every append (including domain widenings that force
/// the SPH background rebuild) all three artifacts must equal a cold
/// rebuild; every interleaved prepared query must agree with the mirror;
/// and the whole run is allowed exactly one plan-cache miss.
#[test]
fn randomized_interleavings_stay_bit_identical_at_all_dops() {
    for dop in [1usize, 2, 8] {
        for round in 0..2u64 {
            let mut state = 0x9e3779b97f4a7c15 ^ (dop as u64) << 32 ^ (round + 1);
            let mut domain = 32u32;
            let mut mirror = seed_rows(800, domain, &mut state);
            let (engine, registry) = engine_with_avs(&mirror, dop);
            // The same table and appends, without views.
            let plain = Engine::new().with_threads(dop);
            plain.register_table("t", dense_table(&mirror));
            let ctx = |op: usize| format!("dop={dop} round={round} op={op}");

            let q = count_sum_query();
            let prepared = engine.prepare(&q);
            let mut queries = 0u64;
            let mut run_query = |engine: &Engine, mirror: &[(u32, u32)], ctx: &str| {
                let out = engine.execute_prepared(&prepared, &q).expect("query");
                assert_eq!(
                    result_groups(&out.output.relation),
                    mirror_groups(mirror),
                    "{ctx}: prepared query diverged from mirror"
                );
                queries += 1;
            };

            run_query(&engine, &mirror, &ctx(0));
            // Reads alone never maintain a view.
            let snap = registry.snapshot();
            for delta in [names::AV_DELTA_MERGES, names::AV_DELTA_ROWS] {
                assert_eq!(snap.counter(delta).unwrap_or(0), 0, "{delta}");
            }
            for op in 1..=14usize {
                match next(&mut state) % 4 {
                    0 | 1 => {
                        // Plain append inside the current dense domain.
                        let batch = 1 + (next(&mut state) as usize % 48);
                        let rows: Vec<(u32, u32)> = (0..batch)
                            .map(|_| {
                                (
                                    next(&mut state) as u32 % domain,
                                    next(&mut state) as u32 % 1_000,
                                )
                            })
                            .collect();
                        insert(&engine, &mut mirror, &rows);
                        append(&plain, &rows);
                        assert_matches_rebuild(&engine, &ctx(op));
                        assert_projection_searches_agree(&engine, &plain, &mut state, &ctx(op));
                    }
                    2 => {
                        // Widening append: key = old max + 1 breaks the
                        // CSR domain, forcing the SPH patch to fall back
                        // to a background rebuild.
                        let rows = vec![(domain, next(&mut state) as u32 % 1_000)];
                        domain += 1;
                        insert(&engine, &mut mirror, &rows);
                        append(&plain, &rows);
                        assert_matches_rebuild(&engine, &ctx(op));
                        assert_projection_searches_agree(&engine, &plain, &mut state, &ctx(op));
                    }
                    _ => run_query(&engine, &mirror, &ctx(op)),
                }
            }
            run_query(&engine, &mirror, &ctx(15));

            // Data clock, not DDL clock: the appends never flushed the
            // cached plan.
            let snap = registry.snapshot();
            assert_eq!(
                snap.counter(names::PLAN_CACHE_MISSES),
                Some(1),
                "dop={dop} round={round}: appends must not flush the plan cache"
            );
            assert_eq!(snap.counter(names::PLAN_CACHE_HITS), Some(queries - 1));
            assert!(snap.counter(names::AV_DELTA_MERGES).unwrap_or(0) >= 1);
        }
    }
}

fn insert(engine: &Engine, mirror: &mut Vec<(u32, u32)>, rows: &[(u32, u32)]) {
    append(engine, rows);
    mirror.extend_from_slice(rows);
}

fn append(engine: &Engine, rows: &[(u32, u32)]) {
    let values: Vec<Vec<Value>> = rows
        .iter()
        .map(|(k, v)| vec![Value::U32(*k), Value::U32(*v)])
        .collect();
    let mut report = engine.insert("t", &values).expect("insert");
    report.wait_for_rebuilds().expect("background rebuild");
}

/// The statistic that licenses a search stays true under writes: the
/// maintained sorted projection's `key` ascends in key order, its prefix
/// ascends and its tail is at most ⌈√rows⌉, so `key < ?`, `key >= ? AND
/// key < ?` and `key = ?` over it are answered by binary search of the
/// prefix — and each answer equals the AV-free engine's over `t`. The
/// literals run from below the smallest key to past the largest.
fn assert_projection_searches_agree(engine: &Engine, plain: &Engine, state: &mut u64, ctx: &str) {
    let hidden = AvSignature::new("t", "key", AvKind::SortedProjection).av_table_name();
    let catalog = engine.catalog();
    let props = catalog
        .column_props(&hidden, "key")
        .expect("projection stats");
    assert_eq!(props.sortedness, Sortedness::Ascending, "{ctx}");
    let entry = catalog.stored(&hidden).expect("projection");
    let prefix = entry.sorted_prefix.as_ref();
    let prefix = prefix.map_or(entry.relation.rows(), |p| p.rows);
    assert_split(&entry.relation, prefix, &["key"], ctx);
    let mut literal = || next(state) as u32 % (props.max + 3);
    let (a, b) = (literal(), literal());
    let key = |op, v: u32| Predicate::cmp("key", op, v);
    let traced = ExecContext {
        collect_metrics: true,
        ..ExecContext::default()
    };
    for predicate in [
        key(CmpOp::Lt, a),
        Predicate::And(vec![key(CmpOp::Ge, a.min(b)), key(CmpOp::Lt, a.max(b))]),
        key(CmpOp::Eq, b),
    ] {
        let over = |table: &str| LogicalPlan::filter(LogicalPlan::scan(table), predicate.clone());
        // Planned outside the engine, so its plan cache counts nothing.
        let deep = SearchContext::new(OptimizerMode::Deep);
        let planned = optimize_in(&over(&hidden), catalog, &deep).expect("plan");
        let (searched, nodes) = execute_with(&planned.plan, catalog, &traced).expect("search");
        let conjuncts = match &predicate {
            Predicate::And(leaves) => leaves.len(),
            _ => 1,
        };
        assert!(
            nodes
                .iter()
                .any(|m| m.searched == Some((conjuncts, conjuncts))),
            "{ctx}: {predicate:?} was not searched:\n{}",
            planned.plan.explain()
        );
        let scanned = plain.query(&over("t")).expect("AV-free query");
        assert_eq!(
            sorted_rows(&searched.relation),
            sorted_rows(&scanned.output.relation),
            "{ctx}: {predicate:?}"
        );
    }
}

/// Repeated small appends — 40 × 30 rows onto a 240-row base, so the
/// appended rows end up five times the original table — each merge
/// straight into the published sorted projection and materialised
/// grouping, single-key and composite, and every step stays
/// bit-identical to a rebuild.
#[test]
fn repeated_small_appends_stay_bit_identical() {
    let mut state = 42u64;
    let mirror = seed_rows(240, 16, &mut state);
    let (engine, _) = engine_with_avs(&mirror, 1);
    // `v` is arbitrary u32, so (key, v) tuples do not pack into u32
    // codes: the composites run the comparison-sort and row-wise
    // grouping fallbacks.
    let keys = ["key".to_owned(), "v".to_owned()];
    let composites = [AvKind::SortedProjection, AvKind::MaterialisedGrouping]
        .map(|kind| AvSignature::composite("t", &keys, kind));
    engine
        .av_builder()
        .build_batch(&composites)
        .expect("AV build");
    let mut sigs = ALL_KINDS
        .map(|kind| AvSignature::new("t", "key", kind))
        .to_vec();
    sigs.extend(composites);

    for step in 0..40 {
        let values: Vec<Vec<Value>> = (0..30)
            .map(|_| {
                let key = next(&mut state) as u32 % 16;
                vec![Value::U32(key), Value::U32(next(&mut state) as u32)]
            })
            .collect();
        let report = engine.insert("t", &values).expect("insert");
        let outcomes = &report.maintenance.outcomes;
        assert_eq!(
            outcomes.len(),
            sigs.len(),
            "step {step}: every view maintained"
        );
        for outcome in outcomes {
            assert_eq!(
                outcome.action,
                DeltaAction::Merge,
                "step {step}: {}",
                outcome.signature
            );
        }
        assert_sigs_match_rebuild(&engine, &sigs, &format!("append step {step}"));
    }
}

/// Keys that never decrease, as timestamps do: every delta follows the
/// sorted projection's last key, so the projection's prefix extends its
/// own buffers — the one append that outgrows the room its build left
/// moves them into buffers with room for the rest, and every other
/// append copies nothing — and every step stays identical to a rebuild. Half the batches repeat the top key (the SPH
/// index is patched), half climb past it (the dense domain widens and
/// the index rebuilds in the background).
#[test]
fn ascending_appends_extend_the_sorted_projection_in_place() {
    let mut state = 5u64;
    let mirror = seed_rows(300, 16, &mut state);
    let (engine, _) = engine_with_avs(&mirror, 1);
    let sorted = AvSignature::new("t", "key", AvKind::SortedProjection);
    let (mut top, mut copies) = (15u32, 0);
    for step in 0..20u32 {
        let keys: Vec<u32> = (0..8)
            .map(|i| if step % 2 == 1 { top + 1 + i / 2 } else { top })
            .collect();
        top = keys[7];
        let values: Vec<Vec<Value>> = keys
            .iter()
            .map(|&k| vec![Value::U32(k), Value::U32(next(&mut state) as u32 % 1_000)])
            .collect();
        let mut report = engine.insert("t", &values).expect("insert");
        let outcome = report
            .maintenance
            .outcomes
            .iter()
            .find(|o| o.signature == sorted)
            .expect("sorted projection maintained");
        assert_eq!(outcome.action, DeltaAction::Merge, "step {step}");
        copies += usize::from(outcome.bytes_copied > 0);
        report.wait_for_rebuilds().expect("background rebuild");
        assert_matches_rebuild(&engine, &format!("ascending step {step}"));
    }
    assert_eq!(copies, 1, "appends that copied the projection");
}

/// A delta larger than half the combined table rebuilds the sorted
/// projection inline instead of merging.
#[test]
fn oversized_delta_rebuilds_sorted_projection_inline() {
    let mut state = 7u64;
    let mirror = seed_rows(100, 8, &mut state);
    let (engine, _) = engine_with_avs(&mirror, 1);

    let rows: Vec<(u32, u32)> = (0..120)
        .map(|_| (next(&mut state) as u32 % 8, next(&mut state) as u32))
        .collect();
    let values: Vec<Vec<Value>> = rows
        .iter()
        .map(|(k, v)| vec![Value::U32(*k), Value::U32(*v)])
        .collect();
    let report = engine.insert("t", &values).expect("insert");
    let outcome = report
        .maintenance
        .outcomes
        .iter()
        .find(|o| o.signature == AvSignature::new("t", "key", AvKind::SortedProjection))
        .expect("sorted projection maintained");
    assert_eq!(
        outcome.action,
        DeltaAction::Rebuild,
        "120 delta rows are more than half of the 220 combined"
    );
    assert_matches_rebuild(&engine, "oversized delta");
}

/// Widening the dense key domain breaks the CSR patch: the stale index
/// must disappear immediately (never serve wrong joins) and come back
/// via the background rebuild, equal to a cold build.
#[test]
fn sph_domain_widening_rebuilds_in_background() {
    let mut state = 11u64;
    let mirror = seed_rows(500, 32, &mut state);
    let (engine, registry) = engine_with_avs(&mirror, 2);
    let sph_sig = AvSignature::new("t", "key", AvKind::SphIndex);

    let mut report = engine
        .insert("t", &[vec![Value::U32(32), Value::U32(9)]])
        .expect("insert");
    let outcome = report
        .maintenance
        .outcomes
        .iter()
        .find(|o| o.signature == sph_sig)
        .expect("SPH maintained");
    assert_eq!(outcome.action, DeltaAction::Rebuild);
    report.wait_for_rebuilds().expect("background rebuild");
    assert!(
        engine.avs().get(&sph_sig).is_some(),
        "rebuilt index must re-register"
    );
    assert_matches_rebuild(&engine, "post-widening");
    let snap = registry.snapshot();
    assert!(snap.counter(names::AV_DELTA_REBUILDS).unwrap_or(0) >= 1);
}

/// One INSERT of a key far outside the indexed column's dense domain
/// (`4 000 000 000` into `0..32`) breaks the CSR patch, and the background
/// rebuild would need an SPH array of four billion slots. It must refuse
/// the index with a typed error instead: the stale index stays removed,
/// `wait_for_rebuilds` returns the error, the other two views stay
/// bit-identical to a rebuild, and joins on the key build their index per
/// query and answer as the mirror does.
#[test]
fn a_wide_key_insert_refuses_the_sph_rebuild_instead_of_allocating_its_domain() {
    let mut state = 17u64;
    let mut mirror = seed_rows(500, 32, &mut state);
    let (engine, _) = engine_with_avs(&mirror, 2);
    let sph_sig = AvSignature::new("t", "key", AvKind::SphIndex);
    let wide = (4_000_000_000u32, 5u32);

    let mut report = engine
        .insert("t", &[vec![Value::U32(wide.0), Value::U32(wide.1)]])
        .expect("insert");
    mirror.push(wide);
    let outcome = report
        .maintenance
        .outcomes
        .iter()
        .find(|o| o.signature == sph_sig)
        .expect("SPH maintained");
    assert_eq!(outcome.action, DeltaAction::Rebuild);
    match report.wait_for_rebuilds() {
        Err(CoreError::Av(msg)) => assert!(msg.contains("too sparse"), "{msg}"),
        other => panic!("the rebuild must refuse the sparse domain, got {other:?}"),
    }
    assert!(
        engine.avs().get(&sph_sig).is_none(),
        "the stale index stays removed"
    );
    let others = [AvKind::SortedProjection, AvKind::MaterialisedGrouping]
        .map(|kind| AvSignature::new("t", "key", kind));
    assert_sigs_match_rebuild(&engine, &others, "after the wide insert");

    // A dimension holding some domain keys twice, one key no row of `t`
    // holds, and the wide key.
    let dim: Vec<u32> = (0..32)
        .chain([3, 17, 40, wide.0])
        .chain((0..8).rev())
        .collect();
    engine.register_table("d", Relation::single_u32("k", dim.clone()));
    let mut want: BTreeMap<u32, (u64, u64)> = BTreeMap::new();
    for (k, _) in &mirror {
        let hits = dim.iter().filter(|&&d| d == *k).count() as u64;
        if hits > 0 {
            let e = want.entry(*k).or_insert((0, 0));
            e.0 += hits;
            e.1 += hits * u64::from(*k);
        }
    }
    let aggs = || {
        vec![
            AggExpr::count_star("count"),
            AggExpr::on(AggFunc::Sum, "key", "sum"),
        ]
    };
    for (left, right, left_key, right_key) in [("t", "d", "key", "k"), ("d", "t", "k", "key")] {
        let join = LogicalPlan::join(
            LogicalPlan::scan(left),
            LogicalPlan::scan(right),
            left_key,
            right_key,
        );
        let q = LogicalPlan::group_by(join, "key", aggs());
        let out = engine.query(&q).expect("join");
        assert_eq!(
            result_groups(&out.output.relation),
            want,
            "{left} JOIN {right} diverged from the mirror"
        );
    }
}

/// Per-partition appends on a range-partitioned base: the partitioning
/// metadata refreshes in place (append segments on the flat tail, no
/// re-layout), all three maintained AVs stay bit-identical to cold
/// rebuilds over the combined flat table, and pruned prepared queries
/// keep agreeing with the mirror — including batches landing entirely
/// inside a partition the cached pruned plan excludes. Appends move the
/// data clock only, so each prepared shape plans cold exactly once.
#[test]
fn partitioned_appends_keep_avs_bit_identical_and_pruning_sound() {
    let mut state = 0xA11CEu64;
    let domain = 32u32;
    let mut mirror = seed_rows(800, domain, &mut state);
    let registry = Arc::new(MetricsRegistry::new());
    let engine = Engine::new()
        .with_threads(2)
        .with_metrics_registry(Arc::clone(&registry));
    // Four range partitions of eight keys each.
    let pr = PartitionedRelation::new(
        dense_table(&mirror),
        PartitionSpec::range("key", vec![8, 16, 24]),
    )
    .expect("partitioned relation");
    engine.register_table_partitioned("t", pr);
    let sigs: Vec<AvSignature> = ALL_KINDS
        .iter()
        .map(|&kind| AvSignature::new("t", "key", kind))
        .collect();
    engine.av_builder().build_batch(&sigs).expect("AV build");

    let full = count_sum_query();
    let pruned = LogicalPlan::group_by(
        LogicalPlan::filter(
            LogicalPlan::scan("t"),
            Predicate::cmp("key", CmpOp::Lt, 8u32),
        ),
        "key",
        vec![
            AggExpr::count_star("count"),
            AggExpr::on(AggFunc::Sum, "key", "sum"),
        ],
    );
    let full_prepared = engine.prepare(&full);
    let pruned_prepared = engine.prepare(&pruned);
    let check = |mirror: &[(u32, u32)], ctx: &str| {
        let out = engine
            .execute_prepared(&full_prepared, &full)
            .expect("full");
        assert_eq!(
            result_groups(&out.output.relation),
            mirror_groups(mirror),
            "{ctx}: full query diverged from mirror"
        );
        let out = engine
            .execute_prepared(&pruned_prepared, &pruned)
            .expect("pruned");
        let low: Vec<(u32, u32)> = mirror.iter().filter(|(k, _)| *k < 8).copied().collect();
        assert_eq!(
            result_groups(&out.output.relation),
            mirror_groups(&low),
            "{ctx}: pruned query diverged from mirror"
        );
    };

    check(&mirror, "pre-append");
    // One batch aimed at each partition in turn — partition 0 survives
    // the pruned plan, partitions 1–3 are exactly the pruned-away ones.
    for (op, part) in [0u32, 2, 1, 3, 0, 3].into_iter().enumerate() {
        let rows: Vec<(u32, u32)> = (0..24)
            .map(|_| {
                (
                    part * 8 + next(&mut state) as u32 % 8,
                    next(&mut state) as u32 % 1_000,
                )
            })
            .collect();
        insert(&engine, &mut mirror, &rows);
        let ctx = format!("append {op} into partition {part}");
        assert_matches_rebuild(&engine, &ctx);
        // Partitioning metadata stayed consistent with the flat table.
        let partitioning = engine
            .catalog()
            .partitioning_of("t")
            .expect("still partitioned");
        assert_eq!(
            partitioning.rows_in(&[0, 1, 2, 3]),
            mirror.len(),
            "{ctx}: partition row counts drifted"
        );
        check(&mirror, &ctx);
    }

    let snap = registry.snapshot();
    assert_eq!(
        snap.counter(names::PLAN_CACHE_MISSES),
        Some(2),
        "appends must not flush the plan cache (one cold plan per shape)"
    );
    assert!(
        snap.counter(names::PART_PRUNED).unwrap_or(0) > 0,
        "the filtered prepared plan must actually prune"
    );
}

/// In-domain appends take the CSR patch path (no rebuild) and still
/// match a cold build — the two-pass widen is exact, not approximate.
#[test]
fn sph_patch_path_is_exact_for_in_domain_appends() {
    let mut state = 13u64;
    let mirror = seed_rows(400, 16, &mut state);
    let (engine, _) = engine_with_avs(&mirror, 1);
    let sph_sig = AvSignature::new("t", "key", AvKind::SphIndex);

    for step in 0..3 {
        let rows: Vec<Vec<Value>> = (0..10)
            .map(|_| vec![Value::U32(next(&mut state) as u32 % 16), Value::U32(1)])
            .collect();
        let report = engine.insert("t", &rows).expect("insert");
        let outcome = report
            .maintenance
            .outcomes
            .iter()
            .find(|o| o.signature == sph_sig)
            .expect("SPH maintained");
        assert_eq!(outcome.action, DeltaAction::Merge, "step {step}");
        assert!(outcome.rebuild.is_none(), "patch must not spawn a rebuild");
        assert_matches_rebuild(&engine, &format!("patch step {step}"));
    }
}

/// Inserts into a table whose sparse key the catalog coded: every delta
/// key already known, a new key inside the key range, a key above the
/// maximum, and `u32::MAX`. After each, the codes equal a rebuild and
/// every answer — a prepared grouping planned before the first insert,
/// and fresh plans with a filter and an aggregate over the key itself —
/// equals the answer over the same rows registered from scratch, and the
/// naive evaluator's, at DOP 1, 2 and 8. The plans read the codes
/// throughout.
#[test]
fn inserts_into_a_coded_table_answer_as_a_fresh_registration() {
    let spread = |k: u32| k * 40_000_003 % 3_000_000_000 + 1_000;
    for dop in [1usize, 2, 8] {
        let mut state = 0x5eed ^ dop as u64;
        let rows: Vec<(u32, u32)> = (0..640)
            .map(|i| (spread(i % 40), next(&mut state) as u32 % 1_000))
            .collect();
        let engine = Engine::new().with_threads(dop);
        engine.register_table("t", dense_table(&rows));
        let coded = |engine: &Engine| {
            engine
                .catalog()
                .get("t")
                .unwrap()
                .key_codes
                .contains_key("key")
        };
        assert!(coded(&engine), "dop={dop}: the base table is coded");
        let by_key = |input: Arc<LogicalPlan>, aggs: Vec<AggExpr>| {
            LogicalPlan::sort(LogicalPlan::group_by(input, "key", aggs), "key")
        };
        let all = by_key(
            LogicalPlan::scan("t"),
            vec![
                AggExpr::count_star("n"),
                AggExpr::on(AggFunc::Sum, "v", "s"),
            ],
        );
        let prepared = engine.prepare(&all);
        let below = |bound: u32| {
            let scan = LogicalPlan::scan("t");
            let filtered = LogicalPlan::filter(scan, Predicate::cmp("key", CmpOp::Lt, bound));
            by_key(filtered, vec![AggExpr::on(AggFunc::Max, "key", "hi")])
        };
        let inserts: [(&str, Vec<u32>); 4] = [
            ("known keys", vec![spread(3), spread(3), spread(17)]),
            ("a new key inside the range", vec![spread(5) + 1, spread(9)]),
            ("a key above the maximum", vec![3_000_001_000, spread(0)]),
            ("u32::MAX", vec![u32::MAX, spread(21)]),
        ];
        for (what, keys) in inserts {
            let ctx = format!("dop={dop} after {what}");
            let values: Vec<Vec<Value>> = keys
                .iter()
                .map(|&k| vec![Value::U32(k), Value::U32(next(&mut state) as u32 % 1_000)])
                .collect();
            engine.insert("t", &values).expect("insert");
            assert_stats_exact(&engine, &ctx);
            let fresh = Engine::new().with_threads(dop);
            let combined = engine.catalog().get("t").unwrap();
            fresh.register_table("t", (*combined.relation).clone());
            let out = engine.execute_prepared(&prepared, &all).expect("prepared");
            let want = fresh.query(&all).expect("fresh");
            assert_relations_eq(&out.output.relation, &want.output.relation, &ctx);
            let naive = naive_eval(&all, fresh.catalog()).expect("naive");
            assert_eq!(
                sorted_rows(&want.output.relation),
                sorted_rows(&naive),
                "{ctx}"
            );
            for bound in [spread(5) + 1, spread(30), u32::MAX] {
                let q = below(bound);
                let out = engine.query(&q).expect("query");
                let plan = out.planned.plan.explain();
                assert!(plan.contains("key=codes"), "{ctx}: codes unread\n{plan}");
                let want = fresh.query(&q).expect("fresh");
                assert_relations_eq(&out.output.relation, &want.output.relation, &ctx);
                let naive = naive_eval(&q, fresh.catalog()).expect("naive");
                assert_eq!(
                    sorted_rows(&want.output.relation),
                    sorted_rows(&naive),
                    "{ctx}"
                );
            }
            assert!(coded(&engine), "{ctx}: the decision stays");
        }
    }
}

/// 16-row INSERTs into a table with all three AVs, at DOP 1, 2 and 8: the
/// sorted projection's tail takes the rows in append order until it
/// would outgrow ⌈√rows⌉, and the prefix and tail then merge — at least
/// twice per run. After every INSERT the views equal a rebuild (the
/// projection's rows in key order bit for bit), `key` searches agree with
/// scans, and every consumer of the projection's order answers as the
/// AV-free engine: OG over the projection, whole and filtered; `ORDER BY
/// key`, which the optimiser plans without a sort; `ORDER BY key LIMIT
/// n`; and OJ onto a sorted dimension.
#[test]
fn tail_appends_and_prefix_merges_answer_as_the_av_free_engine() {
    let sorted = AvSignature::new("t", "key", AvKind::SortedProjection);
    for dop in [1usize, 2, 8] {
        let mut state = 0x7a11 ^ dop as u64;
        let mut mirror = seed_rows(3_000, 40, &mut state);
        let (engine, _) = engine_with_avs(&mirror, dop);
        let plain = Engine::new().with_threads(dop);
        plain.register_table("t", dense_table(&mirror));
        // Ascending dimension keys, some twice, some no row of `t` holds.
        let dim: Vec<u32> = (0..48).map(|i| i * 5 / 6).collect();
        for e in [&engine, &plain] {
            e.register_table("d", Relation::single_u32("k", dim.clone()));
        }
        let (mut merges, mut appends) = (0, 0);
        for step in 0..12 {
            let ctx = format!("dop={dop} step={step}");
            let rows: Vec<(u32, u32)> = (0..16)
                .map(|_| {
                    (
                        next(&mut state) as u32 % 40,
                        next(&mut state) as u32 % 1_000,
                    )
                })
                .collect();
            insert(&engine, &mut mirror, &rows);
            append(&plain, &rows);
            let av = engine.avs().get(&sorted).expect("projection");
            match av.artifact.as_ref() {
                Some(AvArtifact::SortedProjection(rel, prefix)) if *prefix == rel.rows() => {
                    merges += 1
                }
                Some(AvArtifact::SortedProjection(..)) => appends += 1,
                other => panic!("{ctx}: {other:?}"),
            }
            assert_matches_rebuild(&engine, &ctx);
            assert_projection_searches_agree(&engine, &plain, &mut state, &ctx);
            assert_order_consumers_agree(&engine, &plain, dop, next(&mut state) as u32 % 44, &ctx);
        }
        assert!(
            merges >= 2 && appends >= 2,
            "dop={dop}: {merges} merges, {appends} appends"
        );
    }
}

/// OG, an elided sort, a top-n and OJ over the sorted projection each
/// equal the AV-free engine's answer over `t`, row for row.
fn assert_order_consumers_agree(
    engine: &Engine,
    plain: &Engine,
    dop: usize,
    bound: u32,
    ctx: &str,
) {
    let hidden = AvSignature::new("t", "key", AvKind::SortedProjection).av_table_name();
    let scan = |table: &str| PhysicalPlan::Scan {
        table: table.into(),
    };
    let on_pool = |plan: PhysicalPlan| match dop {
        1 => plan,
        _ => PhysicalPlan::Exchange {
            input: Box::new(plan),
            dop,
        },
    };
    let run = |e: &Engine, plan: &PhysicalPlan| {
        let ctx = ExecContext {
            avs: Some(e.avs()),
            ..ExecContext::default()
        };
        execute_with(plan, e.catalog(), &ctx)
            .expect("execute")
            .0
            .relation
    };
    let aggs = || {
        vec![
            AggExpr::count_star("n"),
            AggExpr::on(AggFunc::Max, "v", "hi"),
        ]
    };
    for filter in [None, Some(Predicate::cmp("key", CmpOp::Lt, bound))] {
        let over = |input: PhysicalPlan| match &filter {
            Some(predicate) => PhysicalPlan::Filter {
                input: Box::new(input),
                predicate: predicate.clone(),
            },
            None => input,
        };
        let og = on_pool(PhysicalPlan::GroupBy {
            input: Box::new(over(scan(&hidden))),
            keys: vec!["key".into()],
            aggs: aggs(),
            algo: GroupingAlgorithm::OrderBased,
            molecules: GroupingMolecules::default(),
        });
        let mut logical = LogicalPlan::scan("t");
        if let Some(predicate) = &filter {
            logical = LogicalPlan::filter(logical, predicate.clone());
        }
        let want = plain
            .query(&LogicalPlan::sort(
                LogicalPlan::group_by(logical, "key", aggs()),
                "key",
            ))
            .expect("AV-free grouping");
        let ctx = format!("{ctx}: OG over the projection, filter {filter:?}");
        assert_relations_eq(&run(engine, &og), &want.output.relation, &ctx);
    }
    // The projection's key ascends in the catalog, so the optimiser
    // plans `ORDER BY key` over it with no Sort.
    let search = SearchContext {
        dop,
        ..SearchContext::new(OptimizerMode::Deep)
    };
    for limit in [None, Some(u64::from(bound % 7) * 5 + 1)] {
        let ordered = |table: &str| {
            let sorted = LogicalPlan::sort(LogicalPlan::scan(table), "key");
            limit.map_or(Arc::clone(&sorted), |n| LogicalPlan::limit(sorted, n))
        };
        let planned = optimize_in(&ordered(&hidden), engine.catalog(), &search).expect("plan");
        let text = planned.plan.explain();
        assert!(
            !text.contains("Sort"),
            "{ctx}: the sort was not elided\n{text}"
        );
        let want = plain.query(&ordered("t")).expect("AV-free order");
        let ctx = format!("{ctx}: ORDER BY key LIMIT {limit:?}");
        assert_relations_eq(&run(engine, &planned.plan), &want.output.relation, &ctx);
    }
    // OJ onto the sorted dimension, against OJ over `t` sorted.
    let oj = |left: PhysicalPlan| {
        on_pool(PhysicalPlan::Join {
            left: Box::new(left),
            right: Box::new(scan("d")),
            left_key: "key".into(),
            right_key: "k".into(),
            algo: JoinAlgorithm::OrderBased,
        })
    };
    let sorted_t = PhysicalPlan::Sort {
        input: Box::new(scan("t")),
        key: "key".into(),
        molecule: SortMolecule::Comparison,
    };
    let got = run(engine, &oj(scan(&hidden)));
    assert_relations_eq(&got, &run(plain, &oj(sorted_t)), &format!("{ctx}: OJ"));
}

/// A prepared plan that relied on a base column's order is not served
/// once an INSERT broke that order. On 200 000 rows whose sparse key
/// ascends, `GROUP BY key ORDER BY key` plans OG over the scan with the
/// sort elided; after an INSERT of a key below the others the table's
/// key no longer ascends, and the plan would emit the new key's group
/// last, or — once the key reappears — fail OG's precondition. Each
/// answer, at DOP 1, 2 and 8, equals a fresh registration's and the naive
/// evaluator's, in key order.
#[test]
fn a_prepared_plan_is_not_served_once_an_insert_breaks_the_order_it_used() {
    let rows: Vec<(u32, u32)> = (0..200_000u32)
        .map(|i| (7 + 3 * (i / 50), i % 1_000))
        .collect();
    let q = LogicalPlan::sort(
        LogicalPlan::group_by(
            LogicalPlan::scan("t"),
            "key",
            vec![
                AggExpr::count_star("n"),
                AggExpr::on(AggFunc::Sum, "v", "s"),
            ],
        ),
        "key",
    );
    for dop in [1usize, 2, 8] {
        let engine = Engine::new().with_threads(dop);
        engine.register_table("t", dense_table(&rows));
        let prepared = engine.prepare(&q);
        let first = engine.execute_prepared(&prepared, &q).expect("first");
        assert_eq!(first.output.relation.rows(), 4_000, "dop={dop}");
        for key in [5u32, 7] {
            let ctx = format!("dop={dop} after inserting key {key}");
            engine
                .insert("t", &[vec![Value::U32(key), Value::U32(1)]])
                .expect("insert");
            let out = engine.execute_prepared(&prepared, &q).expect(&ctx);
            let fresh = Engine::new().with_threads(dop);
            let combined = engine.catalog().get("t").unwrap();
            fresh.register_table("t", (*combined.relation).clone());
            let want = fresh.query(&q).expect("fresh");
            assert_relations_eq(&out.output.relation, &want.output.relation, &ctx);
            let naive = naive_eval(&q, fresh.catalog()).expect("naive");
            assert_eq!(
                sorted_rows(&out.output.relation),
                sorted_rows(&naive),
                "{ctx}"
            );
            let keys = out.output.relation.column("key").unwrap().as_u32().unwrap();
            assert_eq!(keys[0], 5, "{ctx}: the new key's group comes first");
            assert!(keys.windows(2).all(|w| w[0] < w[1]), "{ctx}: key order");
        }
    }
}

/// A serving engine (one on a shared pool) keeps the same tails as any
/// other: after a 16-row INSERT its sorted projection is stored with a
/// tail, and a catalog read of it shows a rebuild's rows in a rebuild's
/// order, with no tail — without publishing anything, so the stored
/// split is untouched.
#[test]
fn a_catalog_read_shows_a_projection_with_a_tail_as_a_rebuild() {
    let mut state = 0x5e771e;
    let mut mirror = seed_rows(20_000, 64, &mut state);
    let engine = Engine::with_shared_pool(Arc::new(PersistentPool::with_admission(2, 2)));
    let (engine, _) = materialise_all(engine, &mirror, Arc::default());
    let sorted = AvSignature::new("t", "key", AvKind::SortedProjection);
    let rows: Vec<(u32, u32)> = (0..16)
        .map(|_| {
            (
                next(&mut state) as u32 % 64,
                next(&mut state) as u32 % 1_000,
            )
        })
        .collect();
    insert(&engine, &mut mirror, &rows);
    let hidden = sorted.av_table_name();
    let stored = engine.catalog().stored(&hidden).unwrap();
    assert_eq!(
        stored
            .sorted_prefix
            .as_ref()
            .map(|p| stored.relation.rows() - p.rows),
        Some(16),
        "the INSERT appended its rows to a tail"
    );
    let read = engine.catalog().get(&hidden).unwrap();
    assert!(read.sorted_prefix.is_none(), "a read has no tail");
    let fresh = materialise_av(&engine.catalog().get("t").unwrap(), &sorted, None).unwrap();
    let Some(AvArtifact::SortedProjection(rebuilt, _)) = fresh.artifact else {
        panic!("a projection");
    };
    assert_relations_eq(&read.relation, &rebuilt, "a catalog read, row for row");
    let again = engine.catalog().stored(&hidden).unwrap();
    assert!(Arc::ptr_eq(&stored, &again), "a read publishes nothing");
    assert_matches_rebuild(&engine, "after one INSERT");
}

/// The key shapes of the join-memo oracle's build side: unique and dense
/// (SPHJ's unique layout, every slot held), each key on three rows (CSR),
/// and unique and sparse (HJ only).
#[derive(Clone, Copy, Debug, PartialEq)]
enum KeyShape {
    Dense,
    Repeated,
    Sparse,
}

impl KeyShape {
    /// The `i`-th key of the shape.
    fn key(self, i: u32) -> u32 {
        match self {
            KeyShape::Dense => i,
            KeyShape::Repeated => i / 3,
            // An odd multiplier permutes `u32`: unique, spread wide.
            KeyShape::Sparse => i.wrapping_mul(2_654_435_761),
        }
    }

    /// The joins whose index this shape's keys admit.
    fn algos(self) -> &'static [JoinAlgorithm] {
        match self {
            KeyShape::Sparse => &[JoinAlgorithm::HashBased],
            _ => &[JoinAlgorithm::HashBased, JoinAlgorithm::StaticPerfectHash],
        }
    }
}

/// `b(id, g, x)` rows for keys `from..to` of `shape`, in a scrambled row
/// order: `g` a grouping key, `x` a value.
fn build_rows(shape: KeyShape, from: u32, to: u32, state: &mut u64) -> Vec<Vec<Value>> {
    let n = to - from;
    // 7 919 is prime and divides no `n` used here: a permutation of 0..n.
    (0..n)
        .map(|r| {
            let i = from + r * 7_919 % n;
            let g = next(state) as u32 % 20;
            let x = next(state) as u32 % 1_000;
            vec![Value::U32(shape.key(i)), Value::U32(g), Value::U32(x)]
        })
        .collect()
}

fn relation_of(names: [&str; 3], rows: &[Vec<Value>]) -> Relation {
    let fields = names
        .iter()
        .map(|n| Field::new(*n, DataType::U32))
        .collect();
    let column = |c: usize| {
        let cells = rows.iter().map(|r| match r[c] {
            Value::U32(v) => v,
            ref other => panic!("{other:?}"),
        });
        Column::U32(cells.collect())
    };
    Relation::new(Schema::new(fields).unwrap(), (0..3).map(column).collect()).unwrap()
}

/// `p(fk, y, z)`: probe keys over the shape's first `keys` keys — some of
/// them held by no build row yet — with values `y` and `z`.
fn probe_side(shape: KeyShape, keys: u32, rows: u32, state: &mut u64) -> Relation {
    let rows: Vec<Vec<Value>> = (0..rows)
        .map(|_| {
            let fk = shape.key(next(state) as u32 % keys);
            let (y, z) = (next(state) as u32 % 1_000, next(state) as u32 % 7);
            vec![Value::U32(fk), Value::U32(y), Value::U32(z)]
        })
        .collect();
    relation_of(["fk", "y", "z"], &rows)
}

/// The physical and logical forms of the join-memo oracle's plans over
/// `left ⋈ p`: the join alone (every column of both sides reaches the
/// root), a build-side and a probe-side conjunct under a projection of
/// build and probe columns, and an HG grouping on a build column under a
/// probe-side conjunct. At `dop` > 1 the join and the plan run under
/// `Exchange`.
fn join_plans(
    left: PhysicalPlan,
    algo: JoinAlgorithm,
    dop: usize,
) -> Vec<(&'static str, PhysicalPlan, Arc<LogicalPlan>)> {
    let exchange = |plan: PhysicalPlan| match dop {
        1 => plan,
        _ => PhysicalPlan::Exchange {
            input: Box::new(plan),
            dop,
        },
    };
    let join = exchange(PhysicalPlan::Join {
        left: Box::new(left),
        right: Box::new(PhysicalPlan::Scan { table: "p".into() }),
        left_key: "id".into(),
        right_key: "fk".into(),
        algo,
    });
    let logical = LogicalPlan::join(LogicalPlan::scan("b"), LogicalPlan::scan("p"), "id", "fk");
    let both = Predicate::And(vec![
        Predicate::cmp("x", CmpOp::Lt, 600u32),
        Predicate::cmp("y", CmpOp::Ge, 300u32),
    ]);
    let columns = vec!["x".to_string(), "y".to_string(), "g".to_string()];
    let filtered = PhysicalPlan::Project {
        input: Box::new(PhysicalPlan::Filter {
            input: Box::new(join.clone()),
            predicate: both.clone(),
        }),
        columns: columns.clone(),
    };
    let aggs = vec![
        AggExpr::count_star("n"),
        AggExpr::on(AggFunc::Sum, "x", "s"),
    ];
    let probe_only = Predicate::cmp("y", CmpOp::Lt, 500u32);
    let grouped = PhysicalPlan::GroupBy {
        input: Box::new(PhysicalPlan::Filter {
            input: Box::new(join.clone()),
            predicate: probe_only.clone(),
        }),
        keys: vec!["g".into()],
        aggs: aggs.clone(),
        algo: GroupingAlgorithm::HashBased,
        molecules: GroupingMolecules::defaults_for(GroupingAlgorithm::HashBased),
    };
    vec![
        ("join", join.clone(), Arc::clone(&logical)),
        (
            "filtered",
            exchange(filtered),
            LogicalPlan::project(LogicalPlan::filter(Arc::clone(&logical), both), columns),
        ),
        (
            "grouped",
            exchange(grouped),
            LogicalPlan::group_by(LogicalPlan::filter(logical, probe_only), "g", aggs),
        ),
    ]
}

/// Run `plan` with metrics on `catalog`: its relation and where its join's
/// index came from.
fn run_join_plan(plan: &PhysicalPlan, catalog: &dqo::core::Catalog) -> (Relation, &'static str) {
    let ctx = ExecContext {
        collect_metrics: true,
        ..ExecContext::default()
    };
    let (out, nodes) = execute_with(plan, catalog, &ctx).expect("execute");
    let from = nodes.iter().find_map(|m| m.index.as_ref().map(|i| i.0));
    (out.relation, from.expect("a join reports its index"))
}

/// A join whose build side scans a table whole takes its index from that
/// table's memo, built over the rows of the entry it reads; it must never
/// answer for other rows. For unique dense, repeated and sparse build
/// keys, under HJ and (where the keys are dense) SPHJ, at DOP 1, 2 and
/// 8: each plan of [`join_plans`] answers as a fresh catalog's build, as
/// the same plan with a build side that is not a whole scan (an index
/// built for the query), and as `naive_eval` — before any change, after
/// INSERTs of new keys and of repeated keys into the build table, and
/// after a re-registration — and a second run, which reads the memo and
/// its carried columns, answers as the first.
#[test]
fn a_memoised_join_index_answers_only_for_the_rows_it_was_built_from() {
    for shape in [KeyShape::Dense, KeyShape::Repeated, KeyShape::Sparse] {
        for &algo in shape.algos() {
            for dop in [1usize, 2, 8] {
                let mut state = 0x1d3c ^ dop as u64;
                let engine = Engine::new().with_threads(dop);
                let b = build_rows(shape, 0, 600, &mut state);
                engine.register_table("b", relation_of(["id", "g", "x"], &b));
                engine.register_table("p", probe_side(shape, 660, 2_000, &mut state));
                let steps = ["registered", "new keys", "repeated keys", "re-registered"];
                for step in steps {
                    match step {
                        "new keys" => {
                            let rows = build_rows(shape, 600, 630, &mut state);
                            engine.insert("b", &rows).expect("insert");
                        }
                        "repeated keys" => {
                            let rows = build_rows(shape, 0, 12, &mut state);
                            engine.insert("b", &rows).expect("insert");
                        }
                        "re-registered" => {
                            let rows = build_rows(shape, 20, 660, &mut state);
                            engine.register_table("b", relation_of(["id", "g", "x"], &rows));
                        }
                        _ => {}
                    }
                    let combined = engine.catalog().get("b").unwrap();
                    let fresh = dqo::core::Catalog::new();
                    fresh.register("b", (*combined.relation).clone());
                    fresh.register("p", (*engine.catalog().get("p").unwrap().relation).clone());
                    let whole = PhysicalPlan::Scan { table: "b".into() };
                    let built = PhysicalPlan::Limit {
                        input: Box::new(whole.clone()),
                        n: u64::MAX,
                    };
                    let plans = join_plans(whole, algo, dop).into_iter();
                    for ((what, plan, logical), (_, per_query, _)) in
                        plans.zip(join_plans(built, algo, dop))
                    {
                        let ctx = format!("{shape:?} {algo:?} dop={dop} {step}: {what}");
                        let (first, from) = run_join_plan(&plan, engine.catalog());
                        assert_eq!(from, "memo", "{ctx}");
                        let (again, _) = run_join_plan(&plan, engine.catalog());
                        assert_relations_eq(&again, &first, &ctx);
                        let (cold, _) = run_join_plan(&plan, &fresh);
                        assert_relations_eq(&first, &cold, &ctx);
                        let (want, from) = run_join_plan(&per_query, engine.catalog());
                        assert_eq!(from, "built", "{ctx}");
                        assert_relations_eq(&first, &want, &ctx);
                        let naive = naive_eval(&logical, engine.catalog()).expect("naive");
                        assert_eq!(sorted_rows(&first), sorted_rows(&naive), "{ctx}");
                        assert!(first.rows() > 0, "{ctx}: the oracle sees rows");
                    }
                }
            }
        }
    }
}
