//! Selection-vector oracle: every predicate kind × selectivity × DOP ×
//! table layout × consumer, pinned physical plans against the naive
//! reference evaluator.
//!
//! The executor hands views (relation + selection) between nodes and
//! fuses a filter into a morsel-parallel grouping above it; the oracle
//! (`naive_eval`) evaluates the same query one row and one decoded value
//! at a time and shares none of that code. Every plan must produce the
//! oracle's rows — byte for byte where the pipeline fixes the row order,
//! as sorted rows where it does not — and the same bytes on a second run.

use dqo::core::executor::{execute, naive_eval, sorted_rows};
use dqo::core::Catalog;
use dqo::plan::physical::GroupingMolecules;
use dqo::plan::{
    AggExpr, AggFunc, CmpOp, GroupingAlgorithm, JoinAlgorithm, LogicalPlan, PhysicalPlan,
    Predicate, SortMolecule,
};
use dqo::storage::{
    Column, DataType, Dictionary, Field, PartitionSpec, PartitionedRelation, Relation, Schema,
    Value,
};
use std::sync::Arc;

const ROWS: u32 = 2_400;
const GROUPS: u32 = 300;
const PARTS: usize = 4;
const DOPS: [usize; 3] = [1, 2, 8];
const CLUSTER: u32 = 97;

/// `t(id, k, v, w, s, c, cs)`: `id` unique, `k` ascending and dense (so
/// every grouping organelle applies, OG included), `v` scattered, `w` a
/// `u64` column (the value-by-value predicate path), `s` a dictionary
/// column; `c` clustered but unsorted — runs of `CLUSTER` rows, which no
/// binary search answers and whose edges miss the narrowing kernel's
/// 64-row blocks — and `cs` the strings of `c`'s runs under an
/// order-preserving dictionary.
fn table() -> Relation {
    table_of(ROWS)
}

fn table_of(rows: u32) -> Relation {
    let words = [
        "apple", "apricot", "banana", "bay", "cherry", "clove", "date", "dill", "elder", "fig",
    ];
    let k: Vec<u32> = (0..rows).map(|i| i / (rows / GROUPS)).collect();
    let v: Vec<u32> = (0..rows)
        .map(|i| i.wrapping_mul(2_654_435_761) % 1000)
        .collect();
    let w: Vec<u64> = v.iter().map(|&x| u64::from(x) * 3).collect();
    let strings: Vec<&str> = v.iter().map(|&x| words[x as usize % words.len()]).collect();
    let (dict, codes) = Dictionary::encode_all(&strings);
    let c: Vec<u32> = (0..rows).map(|i| (i / CLUSTER) * 37 % 23).collect();
    let clustered: Vec<&str> = c.iter().map(|&x| words[x as usize % words.len()]).collect();
    let (cdict, ccodes) = Dictionary::encode_all_sorted(&clustered);
    let schema = Schema::new(vec![
        Field::new("id", DataType::U32),
        Field::new("k", DataType::U32),
        Field::new("v", DataType::U32),
        Field::new("w", DataType::U64),
        Field::new("s", DataType::Str),
        Field::new("c", DataType::U32),
        Field::new("cs", DataType::Str),
    ])
    .unwrap();
    let columns = vec![
        Column::U32((0..rows).collect()),
        Column::U32(k),
        Column::U32(v),
        Column::U64(w),
        Column::Str(codes),
        Column::U32(c),
        Column::Str(ccodes),
    ];
    Relation::new(schema, columns)
        .unwrap()
        .with_dictionary("s", Arc::new(dict))
        .unwrap()
        .with_dictionary("cs", Arc::new(cdict))
        .unwrap()
}

/// `d(dk, payload)`: one row for every third group of `t`.
fn dimension() -> Relation {
    let dk: Vec<u32> = (0..GROUPS).step_by(3).collect();
    let payload: Vec<u32> = dk.iter().map(|&x| x * 7 % 11).collect();
    let schema = Schema::new(vec![
        Field::new("dk", DataType::U32),
        Field::new("payload", DataType::U32),
    ])
    .unwrap();
    Relation::new(schema, vec![Column::U32(dk), Column::U32(payload)]).unwrap()
}

fn catalog() -> Catalog {
    let cat = Catalog::new();
    cat.register("t", table());
    cat.register("d", dimension());
    // `k` ascends, so range partitioning keeps the flat row order: `p` is
    // `t` with a partition map.
    let step = GROUPS / PARTS as u32;
    let spec = PartitionSpec::range("k", (1..PARTS as u32).map(|i| i * step).collect());
    cat.register_partitioned("p", PartitionedRelation::new(table(), spec).unwrap());
    cat
}

/// Where the filter's input comes from: the scan to execute, and the
/// predicate describing the rows it delivers (for the oracle, which scans
/// the whole flat table).
struct Layout {
    name: &'static str,
    scan: PhysicalPlan,
    table: &'static str,
    delivers: Option<Predicate>,
}

fn layouts() -> Vec<Layout> {
    let step = GROUPS / PARTS as u32;
    let parts = |parts: Vec<usize>| PhysicalPlan::PartitionedScan {
        table: "p".into(),
        parts,
        total: PARTS,
    };
    vec![
        Layout {
            name: "flat",
            scan: PhysicalPlan::Scan { table: "t".into() },
            table: "t",
            delivers: None,
        },
        Layout {
            name: "partitioned, none pruned",
            scan: parts((0..PARTS).collect()),
            table: "p",
            delivers: None,
        },
        Layout {
            name: "partitioned, first pruned",
            scan: parts((1..PARTS).collect()),
            table: "p",
            delivers: Some(Predicate::cmp("k", CmpOp::Ge, step)),
        },
        Layout {
            name: "partitioned, all pruned",
            scan: parts(Vec::new()),
            table: "p",
            delivers: Some(Predicate::cmp("k", CmpOp::Gt, u32::MAX)),
        },
    ]
}

/// Every predicate kind, at selectivities none / one row / about half /
/// all, with one to three conjuncts.
fn predicates() -> Vec<(&'static str, Predicate)> {
    let half = ROWS / 2;
    let cmp = |c: &str, op, v: u32| Predicate::cmp(c, op, v);
    vec![
        ("id = one row", cmp("id", CmpOp::Eq, 77)),
        ("id <> one row", cmp("id", CmpOp::Ne, 77)),
        ("id < half", cmp("id", CmpOp::Lt, half)),
        ("id <= half", cmp("id", CmpOp::Le, half)),
        ("id > half", cmp("id", CmpOp::Gt, half)),
        ("id >= half", cmp("id", CmpOp::Ge, half)),
        ("id < 0 (none)", cmp("id", CmpOp::Lt, 0)),
        ("id < 1 (one)", cmp("id", CmpOp::Lt, 1)),
        ("id >= 0 (all)", cmp("id", CmpOp::Ge, 0)),
        ("v scattered half", cmp("v", CmpOp::Lt, 500)),
        ("k range prefix", cmp("k", CmpOp::Lt, GROUPS / 3)),
        ("s = 'cherry'", Predicate::cmp("s", CmpOp::Eq, "cherry")),
        ("s < 'cherry'", Predicate::cmp("s", CmpOp::Lt, "cherry")),
        ("s = absent", Predicate::cmp("s", CmpOp::Eq, "zucchini")),
        ("s prefix ap", Predicate::prefix("s", "ap")),
        ("s like %a%", Predicate::like("s", "%a%")),
        ("s like _a_", Predicate::like("s", "_a_")),
        ("s like % (all)", Predicate::like("s", "%")),
        ("c = clustered", cmp("c", CmpOp::Eq, 5)),
        ("c < clustered", cmp("c", CmpOp::Lt, 9)),
        ("c <> clustered", cmp("c", CmpOp::Ne, 5)),
        ("c = absent", cmp("c", CmpOp::Eq, 999)),
        ("cs = clustered", Predicate::cmp("cs", CmpOp::Eq, "cherry")),
        ("cs < clustered", Predicate::cmp("cs", CmpOp::Lt, "cherry")),
        ("cs <> clustered", Predicate::cmp("cs", CmpOp::Ne, "date")),
        ("cs = absent", Predicate::cmp("cs", CmpOp::Eq, "zucchini")),
        ("cs prefix d", Predicate::prefix("cs", "d")),
        ("cs like %e%", Predicate::like("cs", "%e%")),
        (
            "w u64 value path",
            Predicate::cmp("w", CmpOp::Ge, Value::U64(1500)),
        ),
        (
            "two conjuncts",
            Predicate::And(vec![
                cmp("v", CmpOp::Ge, 250),
                Predicate::cmp("s", CmpOp::Ne, "fig"),
            ]),
        ),
        (
            "three conjuncts",
            Predicate::And(vec![
                cmp("id", CmpOp::Ge, half / 2),
                Predicate::prefix("s", "b"),
                Predicate::cmp("w", CmpOp::Lt, Value::U64(2400)),
            ]),
        ),
        (
            "contradiction (none)",
            Predicate::And(vec![cmp("v", CmpOp::Lt, 10), cmp("v", CmpOp::Gt, 990)]),
        ),
    ]
}

fn aggs() -> Vec<AggExpr> {
    vec![
        AggExpr::count_star("n"),
        AggExpr::on(AggFunc::Sum, "v", "total"),
        AggExpr::on(AggFunc::Min, "v", "lo"),
        AggExpr::on(AggFunc::Max, "v", "hi"),
    ]
}

/// What sits on top of the filter: the physical consumer, the logical
/// query for the oracle, and whether the pipeline fixes the row order.
struct Consumer {
    name: String,
    physical: Box<dyn Fn(PhysicalPlan, usize) -> PhysicalPlan>,
    logical: Box<dyn Fn(Arc<LogicalPlan>) -> Arc<LogicalPlan>>,
    ordered: bool,
}

/// `Exchange` at `dop`, or the bare serial operator at DOP 1.
fn at_dop(plan: PhysicalPlan, dop: usize) -> PhysicalPlan {
    match dop {
        1 => plan,
        _ => PhysicalPlan::Exchange {
            input: Box::new(plan),
            dop,
        },
    }
}

fn consumers() -> Vec<Consumer> {
    let mut out = Vec::new();
    for (algo, via_project) in [
        (GroupingAlgorithm::HashBased, false),
        (GroupingAlgorithm::StaticPerfectHash, false),
        (GroupingAlgorithm::OrderBased, false),
        (GroupingAlgorithm::SortOrderBased, false),
        (GroupingAlgorithm::BinarySearch, false),
        // A projection between filter and grouping: the parallel kernels
        // read through a materialised selection instead of fusing.
        (GroupingAlgorithm::HashBased, true),
        (GroupingAlgorithm::StaticPerfectHash, true),
    ] {
        let columns = || vec!["k".to_string(), "v".to_string()];
        out.push(Consumer {
            name: format!(
                "group {algo:?}{}",
                if via_project { " via project" } else { "" }
            ),
            physical: Box::new(move |input, dop| {
                let input = match via_project {
                    true => PhysicalPlan::Project {
                        input: Box::new(input),
                        columns: columns(),
                    },
                    false => input,
                };
                let group = PhysicalPlan::GroupBy {
                    input: Box::new(input),
                    keys: vec!["k".into()],
                    aggs: aggs(),
                    algo,
                    molecules: GroupingMolecules::defaults_for(algo),
                };
                at_dop(group, dop)
            }),
            logical: Box::new(|input| LogicalPlan::group_by(input, "k", aggs())),
            // Serial HG emits in table order; everything else by key.
            ordered: algo != GroupingAlgorithm::HashBased,
        });
    }
    for (algo, filtered_left) in [
        (JoinAlgorithm::HashBased, true),
        (JoinAlgorithm::StaticPerfectHash, false),
    ] {
        let dim = || Box::new(PhysicalPlan::Scan { table: "d".into() });
        out.push(Consumer {
            name: format!(
                "join {algo:?}, filter on the {}",
                if filtered_left {
                    "build side"
                } else {
                    "probe side"
                }
            ),
            physical: Box::new(move |input, dop| {
                let (left, right, left_key, right_key) = match filtered_left {
                    true => (Box::new(input), dim(), "k", "dk"),
                    false => (dim(), Box::new(input), "dk", "k"),
                };
                let join = PhysicalPlan::Join {
                    left,
                    right,
                    left_key: left_key.into(),
                    right_key: right_key.into(),
                    algo,
                };
                at_dop(join, dop)
            }),
            logical: Box::new(move |input| match filtered_left {
                true => LogicalPlan::join(input, LogicalPlan::scan("d"), "k", "dk"),
                false => LogicalPlan::join(LogicalPlan::scan("d"), input, "dk", "k"),
            }),
            ordered: false,
        });
    }
    for molecule in [SortMolecule::Comparison, SortMolecule::Radix] {
        out.push(Consumer {
            name: format!("sort {molecule:?}"),
            physical: Box::new(move |input, dop| {
                let sort = PhysicalPlan::Sort {
                    input: Box::new(input),
                    key: "v".into(),
                    molecule,
                };
                at_dop(sort, dop)
            }),
            logical: Box::new(|input| LogicalPlan::sort(input, "v")),
            ordered: true,
        });
    }
    out.push(Consumer {
        name: "limit".into(),
        physical: Box::new(|input, _| PhysicalPlan::Limit {
            input: Box::new(input),
            n: 40,
        }),
        logical: Box::new(|input| LogicalPlan::limit(input, 40)),
        ordered: true,
    });
    out.push(Consumer {
        name: "bare filter".into(),
        physical: Box::new(|input, _| input),
        logical: Box::new(|input| input),
        ordered: true,
    });
    out
}

fn assert_identical(a: &Relation, b: &Relation, what: &str) {
    assert_eq!(a.schema(), b.schema(), "{what}");
    assert_eq!(a.rows(), b.rows(), "{what}");
    for c in 0..a.schema().width() {
        assert_eq!(
            a.column_at(c).unwrap(),
            b.column_at(c).unwrap(),
            "{what} column {c}"
        );
    }
}

#[test]
fn every_predicate_layout_consumer_and_dop_matches_the_oracle() {
    let cat = catalog();
    let consumers = consumers();
    for layout in layouts() {
        for (pname, predicate) in predicates() {
            let logical_filter = {
                let scan = LogicalPlan::scan(layout.table);
                let scan = match &layout.delivers {
                    Some(delivered) => LogicalPlan::filter(scan, delivered.clone()),
                    None => scan,
                };
                LogicalPlan::filter(scan, predicate.clone())
            };
            for consumer in &consumers {
                let oracle = naive_eval(&(consumer.logical)(logical_filter.clone()), &cat).unwrap();
                for dop in DOPS {
                    let what = format!("{} | {pname} | {} | dop={dop}", layout.name, consumer.name);
                    let filter = PhysicalPlan::Filter {
                        input: Box::new(layout.scan.clone()),
                        predicate: predicate.clone(),
                    };
                    let plan = (consumer.physical)(at_dop(filter, dop), dop);
                    let out = execute(&plan, &cat).unwrap_or_else(|e| panic!("{what}: {e}"));
                    if consumer.ordered {
                        assert_identical(&out.relation, &oracle, &what);
                    } else {
                        assert_eq!(out.relation.schema(), oracle.schema(), "{what}");
                        assert_eq!(sorted_rows(&out.relation), sorted_rows(&oracle), "{what}");
                    }
                    // Stable across runs, whatever the work stealing did.
                    let again = execute(&plan, &cat).unwrap();
                    assert_identical(&again.relation, &out.relation, &what);
                }
            }
        }
    }
}

#[test]
fn many_morsels_per_worker_match_the_oracle() {
    // Large enough that every parallel operator cuts several morsels per
    // worker: narrowing concatenates chunks, the fused grouping narrows
    // and compacts morsel by morsel, work stealing moves morsels around.
    let rows = 3 * (1u32 << 16) + 4_321;
    let cat = Catalog::new();
    cat.register("t", table_of(rows));
    let consumers = consumers();
    let wanted = [
        "group Hg",
        "group Sphg",
        "group Sphg via project",
        "sort Radix",
        "bare filter",
    ];
    let predicates = [
        Predicate::cmp("v", CmpOp::Lt, 500u32),
        Predicate::cmp("id", CmpOp::Ge, rows / 2),
        Predicate::cmp("cs", CmpOp::Eq, "cherry"),
        Predicate::And(vec![
            Predicate::cmp("c", CmpOp::Lt, 9u32),
            Predicate::like("cs", "%e%"),
        ]),
        Predicate::And(vec![
            Predicate::prefix("s", "c"),
            Predicate::cmp("w", CmpOp::Lt, Value::U64(2000)),
            Predicate::cmp("k", CmpOp::Ne, 17u32),
        ]),
    ];
    for predicate in predicates {
        let logical_filter = LogicalPlan::filter(LogicalPlan::scan("t"), predicate.clone());
        for consumer in consumers
            .iter()
            .filter(|c| wanted.contains(&c.name.as_str()))
        {
            let oracle = naive_eval(&(consumer.logical)(logical_filter.clone()), &cat).unwrap();
            for dop in [2, 8] {
                let what = format!("{predicate} | {} | dop={dop}", consumer.name);
                let filter = PhysicalPlan::Filter {
                    input: Box::new(PhysicalPlan::Scan { table: "t".into() }),
                    predicate: predicate.clone(),
                };
                let plan = (consumer.physical)(at_dop(filter, dop), dop);
                let out = execute(&plan, &cat).unwrap();
                assert_identical(&out.relation, &oracle, &what);
                let again = execute(&plan, &cat).unwrap();
                assert_identical(&again.relation, &out.relation, &what);
            }
        }
    }
}

#[test]
fn selectivities_cover_none_one_half_and_all() {
    // The matrix above is only as good as its predicates: pin that the
    // four selectivity classes really occur on the flat table.
    let cat = catalog();
    let mut seen = [false; 4];
    for (_, predicate) in predicates() {
        let q = LogicalPlan::filter(LogicalPlan::scan("t"), predicate);
        match naive_eval(&q, &cat).unwrap().rows() as u32 {
            0 => seen[0] = true,
            1 => seen[1] = true,
            ROWS => seen[3] = true,
            n if n > ROWS / 3 && n < 2 * ROWS / 3 => seen[2] = true,
            _ => {}
        }
    }
    assert_eq!(seen, [true; 4], "none / one row / about half / all");
}

#[test]
fn cross_type_comparison_is_an_error_on_both_sides() {
    // A `u64` column against a `u32` constant has no ordering: the
    // executor and the oracle must both refuse, not guess.
    let cat = catalog();
    let predicate = Predicate::cmp("w", CmpOp::Lt, 5u32);
    let logical = LogicalPlan::filter(LogicalPlan::scan("t"), predicate.clone());
    assert!(naive_eval(&logical, &cat).is_err());
    for dop in DOPS {
        let filter = PhysicalPlan::Filter {
            input: Box::new(PhysicalPlan::Scan { table: "t".into() }),
            predicate: predicate.clone(),
        };
        assert!(execute(&at_dop(filter, dop), &cat).is_err(), "dop={dop}");
    }
}

#[test]
fn a_code_outside_its_dictionary_is_an_error() {
    // Codes 0..3 under a dictionary of three strings, and one code past
    // it: the catalog's maximum does not prove the codes inside, so every
    // row's code is checked, whatever the predicate keeps.
    let rows = 3 * 64 + 5;
    let (dict, mut codes) = Dictionary::encode_all(&["a", "b", "c"].repeat(rows / 3));
    codes.push(7);
    let schema = Schema::new(vec![Field::new("s", DataType::Str)]).unwrap();
    let rel = Relation::new(schema, vec![Column::Str(codes)])
        .unwrap()
        .with_dictionary("s", Arc::new(dict))
        .unwrap();
    let cat = Catalog::new();
    cat.register("bad", rel);
    for predicate in [
        Predicate::cmp("s", CmpOp::Eq, "b"),
        Predicate::cmp("s", CmpOp::Ne, "b"),
        Predicate::cmp("s", CmpOp::Eq, "absent"),
        Predicate::like("s", "%"),
    ] {
        for dop in DOPS {
            let filter = PhysicalPlan::Filter {
                input: Box::new(PhysicalPlan::Scan {
                    table: "bad".into(),
                }),
                predicate: predicate.clone(),
            };
            let err = execute(&at_dop(filter, dop), &cat).expect_err("a code past the dictionary");
            assert!(
                err.to_string()
                    .contains("code 7 of column 's' missing from its dictionary"),
                "{predicate} dop={dop}: {err}"
            );
        }
    }
}

#[test]
fn mixed_blocks_take_both_narrowing_arms() {
    // `v` is scattered over 0..1000, so `v < 125·e` keeps about e/8 of
    // each 64-row block: from 1/8 to 7/8 the blocks are mixed, holding
    // survivors on both sides of the set-bit walk's threshold. Every
    // selectivity answers as the oracle, through a filter alone and one
    // fused into each grouping consumer, at every DOP.
    let cat = catalog();
    let v = table();
    let v = v.column("v").unwrap().as_u32().unwrap();
    let mut arms = [0usize; 2];
    for eighths in 1..8u32 {
        let bound = 125 * eighths;
        for block in v.chunks(dqo::storage::BLOCK_ROWS) {
            let kept = block.iter().filter(|&&x| x < bound).count() as u32;
            if kept > 0 && kept < block.len() as u32 {
                arms[usize::from(kept > dqo::storage::SPARSE_BLOCK_ROWS)] += 1;
            }
        }
        let predicate = Predicate::cmp("v", CmpOp::Lt, bound);
        let input = || LogicalPlan::filter(LogicalPlan::scan("t"), predicate.clone());
        for dop in DOPS {
            let filter = || PhysicalPlan::Filter {
                input: Box::new(PhysicalPlan::Scan { table: "t".into() }),
                predicate: predicate.clone(),
            };
            let what = format!("v < {bound} dop={dop}");
            let oracle = naive_eval(&input(), &cat).unwrap();
            let out = execute(&at_dop(filter(), dop), &cat).unwrap();
            assert_identical(&out.relation, &oracle, &what);
            for consumer in consumers() {
                let oracle = naive_eval(&(consumer.logical)(input()), &cat).unwrap();
                let plan = (consumer.physical)(at_dop(filter(), dop), dop);
                let out = execute(&plan, &cat).unwrap();
                let ctx = format!("{what}: {}", consumer.name);
                match consumer.ordered {
                    true => assert_identical(&out.relation, &oracle, &ctx),
                    false => assert_eq!(sorted_rows(&out.relation), sorted_rows(&oracle), "{ctx}"),
                }
            }
        }
    }
    assert!(
        arms.iter().all(|&n| n > 10),
        "sparse and dense mixed blocks: {arms:?}"
    );
}

/// Two comparisons on one column fold into one compare: every pairing of
/// `>`, `>=`, `<` and `<=` (both ends, and two on one end), bounds inside,
/// crossed, equal and at the edges of the `u32` domain — an empty range
/// passes nothing — and a third conjunct on the same or another column.
/// Through a bare filter and SPHG, HG and OG consumers, at every DOP,
/// each answers as the oracle.
#[test]
fn two_comparisons_on_one_column_match_the_oracle() {
    let cat = catalog();
    let ops = [CmpOp::Gt, CmpOp::Ge, CmpOp::Lt, CmpOp::Le];
    let bounds = [
        (250, 750),
        (750, 250),
        (500, 500),
        (0, u32::MAX),
        (u32::MAX, 0),
        (u32::MAX, u32::MAX),
        (0, 0),
    ];
    let mut predicates = Vec::new();
    for a in ops {
        for b in ops {
            for (x, y) in bounds {
                predicates.push(Predicate::And(vec![
                    Predicate::cmp("v", a, x),
                    Predicate::cmp("v", b, y),
                ]));
            }
        }
    }
    predicates.push(Predicate::And(vec![
        Predicate::cmp("v", CmpOp::Ge, 100u32),
        Predicate::cmp("c", CmpOp::Lt, 12u32),
        Predicate::cmp("v", CmpOp::Lt, 900u32),
        Predicate::cmp("v", CmpOp::Ne, 500u32),
        Predicate::cmp("v", CmpOp::Gt, 120u32),
    ]));
    let consumers: Vec<Consumer> = consumers()
        .into_iter()
        .filter(|c| {
            [
                "bare filter",
                "group StaticPerfectHash",
                "group HashBased",
                "group OrderBased",
            ]
            .contains(&c.name.as_str())
        })
        .collect();
    assert_eq!(consumers.len(), 4);
    for predicate in predicates {
        let input = LogicalPlan::filter(LogicalPlan::scan("t"), predicate.clone());
        for consumer in &consumers {
            let oracle = naive_eval(&(consumer.logical)(input.clone()), &cat).unwrap();
            for dop in DOPS {
                let what = format!("{predicate} | {} | dop={dop}", consumer.name);
                let filter = PhysicalPlan::Filter {
                    input: Box::new(PhysicalPlan::Scan { table: "t".into() }),
                    predicate: predicate.clone(),
                };
                let out = execute(&(consumer.physical)(at_dop(filter, dop), dop), &cat)
                    .unwrap_or_else(|e| panic!("{what}: {e}"));
                assert_eq!(sorted_rows(&out.relation), sorted_rows(&oracle), "{what}");
            }
        }
    }
}

/// A comparison on a column the catalog keeps dense codes of compares the
/// codes with the bound's rank: bounds below the smallest key, at it,
/// between keys, at a key, at the largest and above it, under every
/// operator and as a two-sided range, through a bare filter and SPHG over
/// the codes; then again after INSERTs of keys below, between and above
/// the old ones, which remap the codes.
#[test]
fn comparisons_on_coded_keys_match_the_oracle_before_and_after_inserts() {
    use dqo::core::Engine;
    let rows = 3_000u32;
    // 30 sparse keys 1 000 apart, from 5 000, each ~100 times, scattered.
    let key = |i: u32| 5_000 + 1_000 * (i.wrapping_mul(2_654_435_761) % 30);
    let schema = Schema::new(vec![
        Field::new("key", DataType::U32),
        Field::new("v", DataType::U32),
    ])
    .unwrap();
    let columns = vec![
        Column::U32((0..rows).map(key).collect()),
        Column::U32((0..rows).map(|i| i % 101).collect()),
    ];
    let engine = Engine::new();
    engine.register_table("u", Relation::new(schema, columns).unwrap());
    let coded = |engine: &Engine| {
        let entry = engine.catalog().stored("u").unwrap();
        entry.key_codes.contains_key("key")
    };
    assert!(coded(&engine));
    let aggs = vec![
        AggExpr::count_star("n"),
        AggExpr::on(AggFunc::Sum, "v", "s"),
    ];
    let sph = GroupingAlgorithm::StaticPerfectHash;
    let check = |engine: &Engine, ctx: &str| {
        let bounds = [
            0,
            4_999,
            5_000,
            5_500,
            17_000,
            34_000,
            34_001,
            40_000,
            u32::MAX,
        ];
        let ops = [
            CmpOp::Eq,
            CmpOp::Ne,
            CmpOp::Lt,
            CmpOp::Le,
            CmpOp::Gt,
            CmpOp::Ge,
        ];
        let mut predicates: Vec<Predicate> = ops
            .iter()
            .flat_map(|&op| bounds.map(|b| Predicate::cmp("key", op, b)))
            .collect();
        for (lo, hi) in [
            (5_500u32, 17_000u32),
            (5_000, 34_000),
            (17_000, 17_000),
            (0, u32::MAX),
        ] {
            predicates.push(Predicate::And(vec![
                Predicate::cmp("key", CmpOp::Ge, lo),
                Predicate::cmp("key", CmpOp::Lt, hi),
            ]));
        }
        for predicate in predicates {
            let input = LogicalPlan::filter(LogicalPlan::scan("u"), predicate.clone());
            let grouped = LogicalPlan::group_by(input.clone(), "key", aggs.clone());
            for dop in DOPS {
                let what = format!("{ctx}: {predicate} dop={dop}");
                let filter = || PhysicalPlan::Filter {
                    input: Box::new(PhysicalPlan::Scan { table: "u".into() }),
                    predicate: predicate.clone(),
                };
                let group = PhysicalPlan::GroupBy {
                    input: Box::new(at_dop(filter(), dop)),
                    keys: vec!["key".into()],
                    aggs: aggs.clone(),
                    algo: sph,
                    molecules: GroupingMolecules {
                        codes: true,
                        ..GroupingMolecules::defaults_for(sph)
                    },
                };
                for (plan, logical) in [
                    (at_dop(filter(), dop), &input),
                    (at_dop(group, dop), &grouped),
                ] {
                    let out =
                        execute(&plan, engine.catalog()).unwrap_or_else(|e| panic!("{what}: {e}"));
                    let oracle = naive_eval(logical, engine.catalog()).unwrap();
                    assert_eq!(sorted_rows(&out.relation), sorted_rows(&oracle), "{what}");
                }
            }
        }
    };
    check(&engine, "registered");
    for (what, keys) in [
        ("a key below the smallest", [4_000, 5_000]),
        ("a key between two", [17_500, 6_000]),
        ("keys above the largest and u32::MAX", [90_000, u32::MAX]),
    ] {
        let values: Vec<Vec<Value>> = keys
            .iter()
            .map(|&k| vec![Value::U32(k), Value::U32(7)])
            .collect();
        engine.insert("u", &values).expect("insert");
        assert!(coded(&engine), "{what}: still coded");
        check(&engine, what);
    }
}

/// A fused join → SPHG folds a unique index's probe rows in place: the
/// probe hands the grouping each kept probe row, which the fold matches
/// to its one posting itself. Over a full identity index, one with holes
/// (probe keys below and above its domain too) and a hashed unique one it
/// must; over a CSR index, a CSR index an INSERT patched a tail onto (an
/// SPH-index AV), under a build-side conjunct, or under HG, BSG or OG it
/// must not. Each plan — a probe table scanned whole, split into
/// partitions or sorted (listed rows); probe-side conjuncts keeping none,
/// 1/64, 1/8, 7/8 or all of the rows, scattered or in runs, so that masks
/// are empty, mixed and full; COUNT(*), SUM of a build column and SUM of
/// a probe column; a grouping key on either side; HG, SPHG and BSG, and
/// OG over the probe sorted by its key; DOP 1, 2 and 4 — must answer as
/// `naive_eval`, and its join's and filter's `act=` must equal the pair
/// path's (the same plan under SOG, which collects the pairs).
#[test]
fn a_unique_probe_folds_in_place_and_counts_as_the_pair_path() {
    use dqo::core::av::{AvKind, AvSignature};
    use dqo::core::executor::{execute_with, ExecContext};
    use dqo::core::Engine;
    const BUILD: u32 = 300;
    const PROBE: u32 = 3_000;
    let mix = |i: u32, salt: u32| (i ^ salt).wrapping_mul(2_654_435_761) >> 7;
    let u32s = |names: &[&str], cols: Vec<Vec<u32>>| {
        let fields = names
            .iter()
            .map(|n| Field::new(*n, DataType::U32))
            .collect();
        Relation::new(
            Schema::new(fields).unwrap(),
            cols.into_iter().map(Column::U32).collect(),
        )
        .unwrap()
    };
    // `(id, g, w)`: `g` a build-side grouping key, `w` a build value.
    let build = |id: &dyn Fn(u32) -> u32| {
        u32s(
            &["id", "g", "w"],
            vec![
                (0..BUILD).map(id).collect(),
                (0..BUILD).map(|i| i % 13).collect(),
                (0..BUILD).map(|i| i * 5 % 101).collect(),
            ],
        )
    };
    // `(k, pv, pg, sel, run)`: `k` covers 0..720, beyond every build
    // domain; `sel` is scattered over 0..64, `run` in runs of 150 rows.
    let probe = u32s(
        &["k", "pv", "pg", "sel", "run"],
        vec![
            (0..PROBE).map(|i| mix(i, 1) % 720).collect(),
            (0..PROBE).map(|i| i % 17).collect(),
            (0..PROBE).map(|i| i * 3 % 11).collect(),
            (0..PROBE).map(|i| mix(i, 2) % 64).collect(),
            (0..PROBE).map(|i| (i / 150) * 37 % 64).collect(),
        ],
    );
    let engine = Engine::new();
    let cat = engine.catalog();
    engine.register_table("b_full", build(&|i| i * 7 % BUILD));
    engine.register_table("b_holes", build(&|i| 40 + 2 * i));
    engine.register_table("b_csr", build(&|i| i / 2));
    engine.register_table("b_av", build(&|i| i / 2));
    engine.register_table("p", probe.clone());
    let spec = PartitionSpec::range("k", vec![180, 360, 540]);
    cat.register_partitioned("pp", PartitionedRelation::new(probe, spec).unwrap());
    let av = AvSignature::new("b_av", "id", AvKind::SphIndex);
    engine.av_builder().build_batch(&[av]).unwrap();
    let appended: Vec<Vec<Value>> = [3u32, 3, 77, 149, 0]
        .iter()
        .map(|&id| vec![Value::U32(id), Value::U32(5), Value::U32(9)])
        .collect();
    engine.insert("b_av", &appended).unwrap();

    let (sph, hj) = (JoinAlgorithm::StaticPerfectHash, JoinAlgorithm::HashBased);
    // (build table, join, whether its index is unique and carried)
    let joins = [
        ("b_full", sph, true),
        ("b_holes", sph, true),
        ("b_holes", hj, true),
        ("b_csr", sph, false),
        ("b_csr", hj, false),
        ("b_av", sph, false),
    ];
    let scan = |t: &str| PhysicalPlan::Scan { table: t.into() };
    let probes: [(&str, PhysicalPlan); 3] = [
        ("whole", scan("p")),
        (
            "partitioned",
            PhysicalPlan::PartitionedScan {
                table: "pp".into(),
                parts: vec![0, 1, 2, 3],
                total: 4,
            },
        ),
        (
            "sorted",
            PhysicalPlan::Sort {
                input: Box::new(scan("p")),
                key: "pg".into(),
                molecule: SortMolecule::Comparison,
            },
        ),
    ];
    let lt = |c: &str, v: u32| Predicate::cmp(c, CmpOp::Lt, v);
    // (predicate, whether it reads a build column)
    let predicates = [
        (lt("sel", 0), false),
        (lt("sel", 1), false),
        (lt("sel", 8), false),
        (lt("sel", 56), false),
        (lt("sel", 64), false),
        (lt("run", 8), false),
        (Predicate::And(vec![lt("sel", 56), lt("w", 50)]), true),
    ];
    let aggs = |value: Option<&str>| {
        let mut aggs = vec![AggExpr::count_star("n")];
        aggs.extend(value.map(|v| AggExpr::on(AggFunc::Sum, v, "s")));
        aggs
    };
    let find = |plan: &PhysicalPlan, m: &[dqo::exec::pipeline::OperatorMetrics], join: bool| {
        let at = plan.preorder().iter().position(|n| match join {
            true => matches!(n, PhysicalPlan::Join { .. }),
            false => matches!(n, PhysicalPlan::Filter { .. }),
        });
        m[at.unwrap()].clone()
    };
    let ctx = ExecContext {
        avs: Some(engine.avs()),
        collect_metrics: true,
        ..ExecContext::default()
    };
    let (mut folded, mut paired, mut og_runs) = (0, 0, 0);
    for (table, algo, unique) in joins {
        for (predicate, build_side) in &predicates {
            for (key, value) in [
                ("g", None),
                ("g", Some("w")),
                ("g", Some("pv")),
                ("pg", None),
                ("pg", Some("w")),
                ("pg", Some("pv")),
            ] {
                let logical = LogicalPlan::group_by(
                    LogicalPlan::filter(
                        LogicalPlan::join(
                            LogicalPlan::scan(table),
                            LogicalPlan::scan("p"),
                            "id",
                            "k",
                        ),
                        predicate.clone(),
                    ),
                    key,
                    aggs(value),
                );
                let oracle = sorted_rows(&naive_eval(&logical, cat).unwrap());
                for (layout, right) in &probes {
                    for dop in [1, 2, 4] {
                        let group = |grouping: GroupingAlgorithm| {
                            let join = PhysicalPlan::Join {
                                left: Box::new(scan(table)),
                                right: Box::new(right.clone()),
                                left_key: "id".into(),
                                right_key: "k".into(),
                                algo,
                            };
                            let filter = PhysicalPlan::Filter {
                                input: Box::new(join),
                                predicate: predicate.clone(),
                            };
                            let group = PhysicalPlan::GroupBy {
                                input: Box::new(at_dop(filter, dop)),
                                keys: vec![key.into()],
                                aggs: aggs(value),
                                algo: grouping,
                                molecules: GroupingMolecules::defaults_for(grouping),
                            };
                            at_dop(group, dop)
                        };
                        let pairs = group(GroupingAlgorithm::SortOrderBased);
                        let (_, want) = execute_with(&pairs, cat, &ctx).unwrap();
                        // OG needs its input in key order: the probe
                        // sorted by `pg`, which the join keeps.
                        let ordered = *layout == "sorted" && key == "pg";
                        let mut groupings = vec![
                            GroupingAlgorithm::HashBased,
                            GroupingAlgorithm::StaticPerfectHash,
                            GroupingAlgorithm::BinarySearch,
                        ];
                        groupings.extend(ordered.then_some(GroupingAlgorithm::OrderBased));
                        for grouping in groupings {
                            let what = format!(
                                "{algo:?} over {table}, probe {layout} | {predicate} | \
                                 γ[{key}] SUM({value:?}) {grouping:?} | dop={dop}"
                            );
                            let plan = group(grouping);
                            let (out, got) = execute_with(&plan, cat, &ctx)
                                .unwrap_or_else(|e| panic!("{what}: {e}"));
                            assert_eq!(sorted_rows(&out.relation), oracle, "{what}");
                            let (join, filter) =
                                (find(&plan, &got, true), find(&plan, &got, false));
                            let sph = grouping == GroupingAlgorithm::StaticPerfectHash;
                            let in_place = sph && unique && !build_side;
                            assert_eq!(join.in_place, in_place, "{what}");
                            assert_eq!(join.rows_out, find(&pairs, &want, true).rows_out, "{what}");
                            assert_eq!(
                                filter.rows_out,
                                find(&pairs, &want, false).rows_out,
                                "{what}"
                            );
                            assert!(!find(&pairs, &want, true).in_place, "{what}: SOG pairs");
                            let index = join.index.as_ref().map(|(from, _)| *from);
                            assert_eq!(index == Some("av"), table == "b_av", "{what}");
                            match in_place {
                                true => folded += 1,
                                false => paired += 1,
                            }
                            og_runs += usize::from(grouping == GroupingAlgorithm::OrderBased);
                        }
                    }
                }
            }
        }
    }
    assert!(
        folded > 0 && paired > 0 && og_runs > 0,
        "{folded} folded in place, {paired} paired ({og_runs} by OG)"
    );
}
