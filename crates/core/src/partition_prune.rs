//! Plan-time partition pruning: intersect a bound predicate with the
//! partition spec and keep only partitions that *might* contain matches.
//!
//! Soundness contract: [`prune_partitions`] reasons **only about the
//! spec** (range bounds, hash routing) — never about observed
//! per-partition min/max. The spec is a total routing function, so a
//! partition whose spec-level domain cannot satisfy the predicate can
//! never receive a matching row, no matter what has been appended since
//! the decision was made. That makes pruning decisions append-proof,
//! which the prepared-statement plan cache relies on (cached plans keep
//! serving across appends).
//!
//! Everything the analysis cannot reason about — disjunct-free `LIKE`
//! shapes, `Ne` on multi-value domains, conjuncts on other columns —
//! conservatively keeps the partition.

use dqo_plan::{CmpOp, Predicate};
use dqo_storage::{PartitionScheme, PartitionSpec, Value};

/// The surviving partition ids (ascending) for `predicate` over a table
/// partitioned by `spec`. A partition is dropped only when **no** value
/// in its spec-level domain can satisfy every conjunct bound to the
/// partition column.
pub fn prune_partitions(spec: &PartitionSpec, predicate: &Predicate) -> Vec<usize> {
    let mut conjuncts = Vec::new();
    collect_conjuncts(predicate, &mut conjuncts);
    (0..spec.part_count())
        .filter(|&i| conjuncts.iter().all(|c| partition_may_match(spec, i, c)))
        .collect()
}

/// Flatten nested conjunctions.
fn collect_conjuncts<'a>(p: &'a Predicate, out: &mut Vec<&'a Predicate>) {
    match p {
        Predicate::And(ps) => {
            for q in ps {
                collect_conjuncts(q, out);
            }
        }
        other => out.push(other),
    }
}

/// Whether partition `i`'s spec-level domain might contain a value
/// satisfying `conjunct`. Conservative: `true` for anything that is not
/// a `u32` comparison on the partition column.
fn partition_may_match(spec: &PartitionSpec, i: usize, conjunct: &Predicate) -> bool {
    let Predicate::Compare { column, op, value } = conjunct else {
        return true;
    };
    if *column != spec.column {
        return true;
    }
    let Value::U32(v) = value else {
        return true;
    };
    let v = u64::from(*v);
    match &spec.scheme {
        PartitionScheme::Range { .. } => {
            let Some((lo, hi)) = spec.range_interval(i) else {
                return true;
            };
            match op {
                CmpOp::Eq => lo <= v && v < hi,
                // A range partition can be pruned under `<>` only when
                // its whole domain is the single excluded value.
                CmpOp::Ne => !(lo == v && hi == v + 1),
                CmpOp::Lt => lo < v,
                CmpOp::Le => lo <= v,
                CmpOp::Gt => hi > v + 1,
                CmpOp::Ge => hi > v,
            }
        }
        // Hash buckets have no contiguous domain: only equality routes.
        PartitionScheme::Hash { .. } => match op {
            CmpOp::Eq => spec.route(v as u32) == i,
            _ => true,
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dqo_plan::Predicate as P;

    fn range_spec() -> PartitionSpec {
        // Partitions: [0,10) [10,20) [20,MAX]
        PartitionSpec::range("k", vec![10, 20])
    }

    #[test]
    fn range_equality_keeps_one_partition() {
        let s = range_spec();
        assert_eq!(prune_partitions(&s, &P::cmp("k", CmpOp::Eq, 5u32)), vec![0]);
        assert_eq!(
            prune_partitions(&s, &P::cmp("k", CmpOp::Eq, 10u32)),
            vec![1]
        );
        assert_eq!(
            prune_partitions(&s, &P::cmp("k", CmpOp::Eq, u32::MAX)),
            vec![2]
        );
    }

    #[test]
    fn range_inequalities_prune_prefixes_and_suffixes() {
        let s = range_spec();
        assert_eq!(
            prune_partitions(&s, &P::cmp("k", CmpOp::Lt, 10u32)),
            vec![0]
        );
        assert_eq!(
            prune_partitions(&s, &P::cmp("k", CmpOp::Le, 10u32)),
            vec![0, 1]
        );
        assert_eq!(
            prune_partitions(&s, &P::cmp("k", CmpOp::Lt, 0u32)),
            Vec::<usize>::new(),
            "k < 0 matches nothing"
        );
        assert_eq!(
            prune_partitions(&s, &P::cmp("k", CmpOp::Gt, 19u32)),
            vec![2]
        );
        assert_eq!(
            prune_partitions(&s, &P::cmp("k", CmpOp::Ge, 19u32)),
            vec![1, 2]
        );
        assert_eq!(
            prune_partitions(&s, &P::cmp("k", CmpOp::Gt, u32::MAX)),
            Vec::<usize>::new(),
            "k > MAX matches nothing"
        );
    }

    #[test]
    fn conjunctions_intersect_survivors() {
        let s = range_spec();
        let p = P::And(vec![
            P::cmp("k", CmpOp::Ge, 5u32),
            P::cmp("k", CmpOp::Lt, 15u32),
        ]);
        assert_eq!(prune_partitions(&s, &p), vec![0, 1]);
        let contradiction = P::And(vec![
            P::cmp("k", CmpOp::Lt, 5u32),
            P::cmp("k", CmpOp::Gt, 15u32),
        ]);
        assert_eq!(prune_partitions(&s, &contradiction), Vec::<usize>::new());
        // Nested And flattens.
        let nested = P::And(vec![P::And(vec![P::cmp("k", CmpOp::Eq, 25u32)])]);
        assert_eq!(prune_partitions(&s, &nested), vec![2]);
    }

    #[test]
    fn other_columns_and_unanalysable_shapes_keep_everything() {
        let s = range_spec();
        assert_eq!(
            prune_partitions(&s, &P::cmp("other", CmpOp::Eq, 5u32)),
            vec![0, 1, 2]
        );
        assert_eq!(prune_partitions(&s, &P::prefix("k", "ab")), vec![0, 1, 2]);
        assert_eq!(
            prune_partitions(&s, &P::cmp("k", CmpOp::Ne, 5u32)),
            vec![0, 1, 2],
            "Ne cannot prune multi-value domains"
        );
        // … but Ne prunes a single-value partition.
        let single = PartitionSpec::range("k", vec![5, 6]);
        assert_eq!(
            prune_partitions(&single, &P::cmp("k", CmpOp::Ne, 5u32)),
            vec![0, 2]
        );
    }

    #[test]
    fn hash_prunes_only_on_equality() {
        let s = PartitionSpec::hash("k", 8);
        let survivors = prune_partitions(&s, &P::cmp("k", CmpOp::Eq, 42u32));
        assert_eq!(survivors, vec![s.route(42)]);
        assert_eq!(
            prune_partitions(&s, &P::cmp("k", CmpOp::Lt, 42u32)).len(),
            8,
            "ranges do not prune hash buckets"
        );
        // Conjunction of two different equalities on the same column can
        // empty the survivor set when they route differently.
        let p = P::And(vec![
            P::cmp("k", CmpOp::Eq, 1u32),
            P::cmp("k", CmpOp::Eq, 2u32),
        ]);
        let survivors = prune_partitions(&s, &p);
        if s.route(1) != s.route(2) {
            assert!(survivors.is_empty());
        }
    }

    #[test]
    fn prune_soundness_vs_routing_exhaustive_small_domain() {
        // For every value v in a small domain and every op/constant, if
        // v satisfies the predicate then v's home partition survives.
        let specs = [
            range_spec(),
            PartitionSpec::range("k", vec![1, 2, 3]),
            PartitionSpec::hash("k", 3),
        ];
        let ops = [
            CmpOp::Eq,
            CmpOp::Ne,
            CmpOp::Lt,
            CmpOp::Le,
            CmpOp::Gt,
            CmpOp::Ge,
        ];
        for spec in &specs {
            for c in 0..30u32 {
                for op in ops {
                    let p = P::cmp("k", op, c);
                    let survivors = prune_partitions(spec, &p);
                    for v in 0..30u32 {
                        let matches = match op {
                            CmpOp::Eq => v == c,
                            CmpOp::Ne => v != c,
                            CmpOp::Lt => v < c,
                            CmpOp::Le => v <= c,
                            CmpOp::Gt => v > c,
                            CmpOp::Ge => v >= c,
                        };
                        if matches {
                            assert!(
                                survivors.contains(&spec.route(v)),
                                "{spec:?} {op:?} {c}: value {v} matches but its \
                                 partition was pruned"
                            );
                        }
                    }
                }
            }
        }
    }
}
