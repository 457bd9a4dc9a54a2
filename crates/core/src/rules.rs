//! Unified rule application for the optimiser memo.
//!
//! Every special case the old DP hard-coded is one of three rule
//! families, fired per group by [`apply`]:
//!
//! * **implementation rules** — Scan (plus its AV-backed twin),
//!   Filter, Project, Limit, Join → {OJ, SPHJ, BSJ, HJ, SOJ}, GroupBy →
//!   {OG, SPHG, BSG, HG, SOG} (plus materialised-grouping AVs and the
//!   packed composite-key variants), each guarded by the property
//!   preconditions the paper's Table 1/2 arithmetic implies;
//! * **enforcer rules** — the Sort enforcer that *establishes* the
//!   sortedness property where an order-based implementation would
//!   otherwise be inapplicable (partial-sort plans fall out of this);
//! * **parallel-twin rules** — the `Exchange{dop}`-wrapped twin of every
//!   organelle with a morsel-parallel implementation, costed with the
//!   parallel cost model so plans only go parallel past break-even.
//!
//! Rules fire in exactly the order the pre-memo DP enumerated
//! alternatives and feed the same interesting-property pruning
//! ([`crate::optimizer::prune`]). No rule estimates a cardinality: every
//! rule receives its group's rows — derived once per group by
//! [`crate::property_builder::PropertyBuilder::derive`], feedback
//! corrections and partition pruning included — prices its candidates
//! from its inputs' rows, and stamps the group's rows on every candidate
//! it emits.

use crate::av::AvKind;
use crate::error::CoreError;
use crate::memo::{Derived, GroupId, MemoOptimizer};
use crate::molecule::{refine_grouping_molecules, MoleculeCosts};
use crate::optimizer::{prune, Candidate, OptimizerMode};
use crate::property_builder::RowOp;
use crate::Result;
use dqo_plan::expr::Predicate;
use dqo_plan::physical::GroupingMolecules;
use dqo_plan::{GroupingImpl, JoinImpl, LogicalPlan, PhysicalPlan, PlanProps, SortMolecule};
use dqo_storage::{Density, Sortedness};
use std::sync::Arc;

use crate::optimizer::PropertyModel;

/// Fire the rules for one group and return its pruned candidate set.
/// `focus` is the column by which the parent will consume this group's
/// output (join key / grouping key); it determines which column's base
/// properties a scan exposes. `derived` is what the group derived once.
pub(crate) fn apply(
    opt: &mut MemoOptimizer<'_>,
    gid: GroupId,
    focus: Option<&str>,
    derived: &Derived,
) -> Result<Vec<Candidate>> {
    let node = Arc::clone(opt.memo.group(gid).logical());
    let kids: Vec<GroupId> = opt.memo.group(gid).children().to_vec();
    let rows = derived.rows;
    match node.as_ref() {
        LogicalPlan::Scan { table } => scan_rules(opt, table, focus, rows),
        LogicalPlan::Filter { predicate, .. } => {
            let survivors = derived.survivors.as_deref();
            filter_rules(opt, kids[0], predicate, focus, rows, survivors)
        }
        LogicalPlan::Sort { key, .. } => sort_rules(opt, kids[0], key),
        LogicalPlan::Project { columns, .. } => project_rules(opt, kids[0], columns, focus),
        LogicalPlan::Limit { n, .. } => limit_rules(opt, kids[0], *n, focus, rows),
        LogicalPlan::Join {
            left_key,
            right_key,
            ..
        } => join_rules(opt, &node, kids[0], kids[1], left_key, right_key, rows),
        LogicalPlan::GroupBy { input, keys, aggs } => {
            group_by_rules(opt, &node, kids[0], input, keys, aggs, rows)
        }
    }
}

fn scan_rules(
    opt: &mut MemoOptimizer<'_>,
    table: &str,
    focus: Option<&str>,
    rows: u64,
) -> Result<Vec<Candidate>> {
    let props = opt.props.scan_props(table, focus)?;
    let projected = opt.mode.project(PlanProps { rows, ..props });
    // A partitioned table's baseline scan is a PartitionedScan naming
    // every partition: the filter rule narrows the survivor set at
    // plan time and the runtime seeds partition-native morsels from it.
    // Flat-row-order emission keeps it bit-identical to a plain Scan.
    let plan = match opt.catalog.partitioning_of(table) {
        Some(p) => {
            opt.fire("scan-partitioned-impl");
            PhysicalPlan::PartitionedScan {
                table: table.to_owned(),
                parts: (0..p.part_count()).collect(),
                total: p.part_count(),
            }
        }
        None => {
            opt.fire("scan-impl");
            PhysicalPlan::Scan {
                table: table.to_owned(),
            }
        }
    };
    let mut out = vec![Candidate {
        plan,
        cost: 0.0, // scans are the common baseline of every plan
        sort_col: (projected.sortedness == Sortedness::Ascending)
            .then(|| focus.unwrap_or_default().to_owned())
            .filter(|c| !c.is_empty()),
        props: projected,
    }];
    // AV implementation rule: a sorted projection provides the `sorted`
    // property at zero query-time cost (its build cost was paid offline —
    // the §3 trade-off).
    if let (Some(avs), Some(col)) = (opt.avs, focus) {
        if let Some(av) = avs.lookup(table, col, AvKind::SortedProjection) {
            opt.fire("scan-av-sorted-projection");
            out.push(Candidate {
                plan: PhysicalPlan::Scan {
                    table: av.signature.av_table_name(),
                },
                cost: 0.0,
                props: opt.mode.project(PlanProps {
                    rows,
                    ..av.provides
                }),
                sort_col: Some(col.to_owned()),
            });
        }
    }
    Ok(out)
}

fn filter_rules(
    opt: &mut MemoOptimizer<'_>,
    input_gid: GroupId,
    predicate: &Predicate,
    focus: Option<&str>,
    rows: u64,
    survivors: Option<&[usize]>,
) -> Result<Vec<Candidate>> {
    let inputs = opt.explore(input_gid, focus)?.as_ref().clone();
    let mut all = Vec::with_capacity(inputs.len() * 2);
    for mut c in inputs {
        // Partition-pruning rule: scan only the group's survivors — the
        // partitions the bound predicate, intersected with the spec, may
        // match. The decision reads **only the spec** (append-proof — see
        // `crate::partition_prune`); the filter's cost shrinks to the
        // survivors' observed rowcounts.
        if let (true, Some(survivors), PhysicalPlan::PartitionedScan { table, parts, .. }) =
            (opt.pruning, survivors, &mut c.plan)
        {
            if survivors.len() < parts.len() {
                opt.fire("filter-partition-prune");
            }
            *parts = survivors.to_vec();
            c.props.rows = opt.props.derive(RowOp::Scan((table, Some(parts))), &[]);
        }
        // Filtering punches holes into a dense domain and can only shrink
        // the focus column's distinct count.
        let props = opt.mode.project(PlanProps {
            density: Density::Unknown,
            key_range: None,
            distinct: c.props.distinct.map(|d| d.min(rows.max(1))),
            rows,
            ..c.props
        });
        opt.fire("filter-impl");
        let serial = Candidate {
            cost: c.cost + opt.model.scan(c.props.rows as f64),
            plan: PhysicalPlan::Filter {
                input: Box::new(c.plan),
                predicate: predicate.clone(),
            },
            props,
            sort_col: c.sort_col.clone(),
        };
        let mut out = vec![serial];
        // Parallel-twin rule: same properties (mask concatenation
        // preserves row order), cheaper only past the startup cost.
        if opt.dop > 1 {
            opt.fire("filter-parallel-twin");
            out.push(Candidate {
                cost: c.cost + opt.model.parallel_scan(c.props.rows as f64, opt.dop),
                plan: PhysicalPlan::Exchange {
                    input: Box::new(out[0].plan.clone()),
                    dop: opt.dop,
                },
                props,
                sort_col: c.sort_col,
            });
        }
        all.extend(out);
    }
    Ok(prune(all.into_iter()))
}

fn sort_rules(
    opt: &mut MemoOptimizer<'_>,
    input_gid: GroupId,
    key: &str,
) -> Result<Vec<Candidate>> {
    let inputs = opt.explore(input_gid, Some(key))?.as_ref().clone();
    // Interesting-order payoff: an input that is already sorted on the
    // key satisfies the Sort for free — this is what makes sorted-output
    // groupings (SPHG/SOG/BSG) win under a final ORDER BY. Unsorted
    // inputs fire the enforcer rule (serial plus morsel-parallel twin).
    let mut all = Vec::with_capacity(inputs.len() * 2);
    for c in inputs {
        if opt.is_sorted_on(&c, key) {
            opt.fire("sort-elide");
            all.push(c);
        } else {
            all.extend(opt.sort_enforcer_candidates(c, key));
        }
    }
    Ok(prune(all.into_iter()))
}

fn project_rules(
    opt: &mut MemoOptimizer<'_>,
    input_gid: GroupId,
    columns: &[String],
    focus: Option<&str>,
) -> Result<Vec<Candidate>> {
    let inputs = opt.explore(input_gid, focus)?.as_ref().clone();
    opt.fire("project-impl");
    Ok(prune(inputs.into_iter().map(|c| Candidate {
        plan: PhysicalPlan::Project {
            input: Box::new(c.plan),
            columns: columns.to_vec(),
        },
        cost: c.cost, // columnar projection is free
        props: c.props,
        sort_col: c.sort_col,
    })))
}

fn limit_rules(
    opt: &mut MemoOptimizer<'_>,
    input_gid: GroupId,
    n: u64,
    focus: Option<&str>,
    rows: u64,
) -> Result<Vec<Candidate>> {
    let inputs = opt.explore(input_gid, focus)?.as_ref().clone();
    opt.fire("limit-impl");
    Ok(prune(inputs.into_iter().map(|c| Candidate {
        plan: PhysicalPlan::Limit {
            input: Box::new(c.plan),
            n,
        },
        cost: c.cost, // truncation is free in a columnar store
        props: PlanProps { rows, ..c.props },
        sort_col: c.sort_col,
    })))
}

fn join_rules(
    opt: &mut MemoOptimizer<'_>,
    node: &Arc<LogicalPlan>,
    left_gid: GroupId,
    right_gid: GroupId,
    left_key: &str,
    right_key: &str,
    rows: u64,
) -> Result<Vec<Candidate>> {
    let left_cands = opt.explore(left_gid, Some(left_key))?.as_ref().clone();
    let left_cands = opt.with_sort_enforcers(left_cands, left_key);
    let right_cands = opt.explore(right_gid, Some(right_key))?.as_ref().clone();
    let right_cands = opt.with_sort_enforcers(right_cands, right_key);
    // BSJ's search depth: the build key's distinct count in its table.
    let d_left = match node.as_ref() {
        LogicalPlan::Join { left, .. } => opt.catalog.resolve_column(left.tables(), left_key),
        _ => unreachable!("join_rules on a non-join group"),
    }
    .map(|p| p.distinct);

    let mut out: Vec<Candidate> = Vec::new();
    for lc in &left_cands {
        for rc in &right_cands {
            // Enumerate in preference order: on exact cost ties the
            // order-based plan wins (the paper's both-sorted cell).
            for algo in [
                JoinImpl::Oj,
                JoinImpl::Sphj,
                JoinImpl::Bsj,
                JoinImpl::Hj,
                JoinImpl::Soj,
            ] {
                if !opt.join_applicable(algo, lc, rc, left_key, right_key) {
                    continue;
                }
                let build_groups = d_left.unwrap_or(lc.props.rows).max(1) as f64;
                let mut join_cost = opt.model.join(
                    algo,
                    lc.props.rows as f64,
                    rc.props.rows as f64,
                    build_groups,
                );
                // AV implementation rule: a prebuilt SPH index over the
                // build side removes the build pass — probe cost only.
                let av_probe = algo == JoinImpl::Sphj && opt.sph_index_av(&lc.plan, left_key);
                if av_probe {
                    opt.fire("join-av-sph-index");
                    join_cost = opt.model.scan(rc.props.rows as f64);
                }
                let cost = lc.cost + rc.cost + join_cost;
                let props = opt.join_output_props(algo, rows);
                let plan = PhysicalPlan::Join {
                    left: Box::new(lc.plan.clone()),
                    right: Box::new(rc.plan.clone()),
                    left_key: left_key.to_owned(),
                    right_key: right_key.to_owned(),
                    algo,
                };
                // Parallel-twin rule for the partition-parallel joins:
                // the partitioned HJ, the parallel-probe SPHJ, and the
                // parallel-sort + range-partitioned-merge SOJ. (A
                // prebuilt AV index already removed the build pass;
                // re-partitioning it would forfeit the AV, so AV probes
                // stay serial.)
                let parallelisable =
                    matches!(algo, JoinImpl::Hj | JoinImpl::Sphj | JoinImpl::Soj) && !av_probe;
                if opt.dop > 1 && parallelisable {
                    opt.fire("join-parallel-twin");
                    out.push(Candidate {
                        plan: PhysicalPlan::Exchange {
                            input: Box::new(plan.clone()),
                            dop: opt.dop,
                        },
                        cost: lc.cost
                            + rc.cost
                            + opt.model.parallel_join(
                                algo,
                                lc.props.rows as f64,
                                rc.props.rows as f64,
                                build_groups,
                                opt.dop,
                            ),
                        props,
                        // Parallel SOJ concatenates partitions in key
                        // order, keeping the order-based property.
                        sort_col: algo.produces_sorted_output().then(|| left_key.to_owned()),
                    });
                }
                opt.fire("join-impl");
                out.push(Candidate {
                    plan,
                    cost,
                    props,
                    // Order-based joins emit in join-key order.
                    sort_col: algo.produces_sorted_output().then(|| left_key.to_owned()),
                });
            }
        }
    }
    if out.is_empty() {
        return Err(CoreError::NoPlanFound(format!("{node}")));
    }
    Ok(prune(out.into_iter()))
}

fn group_by_rules(
    opt: &mut MemoOptimizer<'_>,
    node: &Arc<LogicalPlan>,
    input_gid: GroupId,
    input: &LogicalPlan,
    keys: &[String],
    aggs: &[dqo_plan::AggExpr],
    rows: u64,
) -> Result<Vec<Candidate>> {
    if keys.len() > 1 {
        return composite_group_by_rules(opt, node, input_gid, input, keys, aggs, rows);
    }
    let key = keys[0].as_str();
    let input_cands = opt.explore(input_gid, Some(key))?.as_ref().clone();
    let input_cands = opt.with_sort_enforcers(input_cands, key);

    // AV implementation rule: a materialised grouping answers the whole
    // node with a scan of the precomputed result — the boundary case
    // where an AV degenerates into a classic materialised view (§3).
    // Only matches the canonical (key, count, sum) shape so no renaming
    // machinery is needed.
    let mut av_candidates: Vec<Candidate> = Vec::new();
    if let (Some(avs), LogicalPlan::Scan { table }) = (opt.avs, input) {
        let shape_ok = aggs.iter().all(|a| {
            matches!(
                (&a.func, a.alias.as_str()),
                (dqo_plan::AggFunc::CountStar, "count") | (dqo_plan::AggFunc::Sum, "sum")
            )
        });
        if shape_ok {
            if let Some(av) = avs.lookup(table, key, AvKind::MaterialisedGrouping) {
                opt.fire("group-by-av-materialised");
                av_candidates.push(Candidate {
                    plan: PhysicalPlan::Scan {
                        table: av.signature.av_table_name(),
                    },
                    cost: opt.model.scan(av.provides.rows as f64),
                    props: opt.mode.project(PlanProps {
                        rows,
                        ..av.provides
                    }),
                    sort_col: Some(key.to_owned()),
                });
            }
        }
    }

    // Resolve the grouping key's base statistics (density, distinct,
    // range) from its source table — the §4.3 move: DQO knows R.a is
    // dense even downstream of a join.
    let key_stats = opt
        .catalog
        .resolve_column(node.tables(), key)
        .map(|p| opt.mode.project(PlanProps::from_data(&p)));

    let key_dense = key_stats.map(|p| p.admits_sph()).unwrap_or(false);
    let key_range = key_stats.and_then(|p| p.key_range);
    let g = rows.max(1) as f64;

    let mut out = av_candidates;
    for ic in &input_cands {
        for algo in [
            GroupingImpl::Og,
            GroupingImpl::Sphg,
            GroupingImpl::Bsg,
            GroupingImpl::Hg,
            GroupingImpl::Sog,
        ] {
            let applicable = match algo {
                GroupingImpl::Og => opt.is_sorted_on(ic, key),
                GroupingImpl::Sphg => key_dense,
                GroupingImpl::Bsg => key_stats.is_some(),
                GroupingImpl::Hg | GroupingImpl::Sog => true,
            };
            if !applicable {
                continue;
            }
            let cost = ic.cost + opt.model.grouping(algo, ic.props.rows as f64, g);
            let sorted = algo.produces_sorted_output()
                || (algo == GroupingImpl::Og && ic.props.sortedness.is_sorted());
            let props = opt.mode.project(PlanProps {
                sortedness: if sorted {
                    Sortedness::Ascending
                } else {
                    Sortedness::Unsorted
                },
                partitioned: true, // one row per group
                density: if key_dense {
                    Density::Dense
                } else {
                    Density::Unknown
                },
                distinct: key_stats.map(|_| rows),
                key_range,
                rows,
            });
            // Molecule refinement is the step Table 1 adds: in deep mode
            // the optimiser decides the table/hash/loop molecules from
            // input properties; shallow mode ships the developer defaults
            // behind the organelle name. A registered partial AV (§6)
            // overrides: its frozen decisions stand, and only its open
            // decisions are completed here.
            let molecules = match opt.mode {
                OptimizerMode::Deep => {
                    let mut ref_props = key_stats.unwrap_or(ic.props);
                    ref_props.rows = ic.props.rows;
                    let partial = match (opt.avs, input) {
                        (Some(avs), LogicalPlan::Scan { table }) => avs.partial_for(table, key),
                        _ => None,
                    };
                    match partial {
                        Some(pav) if algo == GroupingImpl::Hg => pav.complete(&ref_props),
                        _ => refine_grouping_molecules(algo, &ref_props, &MoleculeCosts::default()),
                    }
                }
                OptimizerMode::Shallow => GroupingMolecules::defaults_for(algo),
            };
            let plan = PhysicalPlan::GroupBy {
                input: Box::new(ic.plan.clone()),
                keys: vec![key.to_owned()],
                aggs: aggs.to_vec(),
                algo,
                molecules,
            };
            // Parallel-twin rule for the groupings with a parallel
            // implementation: thread-local aggregation (HG, SPHG) and
            // the parallel-sort + boundary-stitch SOG. Requires
            // decomposable aggregates — COUNT/SUM/MIN/MAX/AVG all are.
            // The deterministic merges emit ascending keys, so the
            // parallel plan *gains* the sorted property serial HG lacks.
            if opt.dop > 1
                && matches!(
                    algo,
                    GroupingImpl::Hg | GroupingImpl::Sphg | GroupingImpl::Sog
                )
            {
                let mut par_props = props;
                par_props.sortedness = Sortedness::Ascending;
                par_props.partitioned = true;
                // The load loop *is* the parallel molecule decision
                // (Figure 3(e)): record it in the plan.
                let mut par_molecules = molecules;
                par_molecules.load_loop = Some(dqo_plan::LoopMolecule::Parallel);
                opt.fire("group-by-parallel-twin");
                out.push(Candidate {
                    plan: PhysicalPlan::Exchange {
                        input: Box::new(PhysicalPlan::GroupBy {
                            input: Box::new(ic.plan.clone()),
                            keys: vec![key.to_owned()],
                            aggs: aggs.to_vec(),
                            algo,
                            molecules: par_molecules,
                        }),
                        dop: opt.dop,
                    },
                    cost: ic.cost
                        + opt
                            .model
                            .parallel_grouping(algo, ic.props.rows as f64, g, opt.dop),
                    sort_col: Some(key.to_owned()),
                    props: opt.mode.project(par_props),
                });
            }
            opt.fire("group-by-impl");
            out.push(Candidate {
                plan,
                cost,
                sort_col: sorted.then(|| key.to_owned()),
                props,
            });
        }
    }
    if out.is_empty() {
        return Err(CoreError::NoPlanFound(format!("{node}")));
    }
    Ok(prune(out.into_iter()))
}

/// Implementation rules for a **composite** (multi-column) grouping. The
/// executor runs these on the 64-bit packed-value domain where the
/// per-column widths allow, so the Table-2 arithmetic carries over with
/// one extension: a normalise-and-pack pass per extra key column
/// ([`crate::cost::CostModel::composite_key_pack`]). Applicable
/// organelles are the ones with packed serial kernels *and* parallel
/// twins — HG, SPHG (when the composite domain is provably dense and
/// bounded) and SOG; order-based and binary-search variants stay
/// single-key for now.
fn composite_group_by_rules(
    opt: &mut MemoOptimizer<'_>,
    node: &Arc<LogicalPlan>,
    input_gid: GroupId,
    input: &LogicalPlan,
    keys: &[String],
    aggs: &[dqo_plan::AggExpr],
    rows: u64,
) -> Result<Vec<Candidate>> {
    // SOG/HG/SPHG need no input order, so no sort enforcers here; the
    // first key is the focus column for scan properties.
    let input_cands = opt.explore(input_gid, Some(&keys[0]))?.as_ref().clone();
    let key_stats = opt.composite_key_stats(node, keys);
    let key_dense = key_stats.map(|p| p.admits_sph()).unwrap_or(false);
    let key_range = key_stats.and_then(|p| p.key_range);
    let g = rows.max(1) as f64;

    // AV implementation rule: a composite materialised grouping
    // (registered under the canonical `a+b` key name) answers the node
    // by scan. The artifact's schema is exactly (keys…, count,
    // sum-of-first-key), so the aggregate list must be exactly that
    // shape — looser matches would surface the artifact's extra columns.
    let mut out: Vec<Candidate> = Vec::new();
    if let (Some(avs), LogicalPlan::Scan { table }) = (opt.avs, input) {
        let shape_ok = aggs.len() == 2
            && aggs[0].func == dqo_plan::AggFunc::CountStar
            && aggs[0].alias == "count"
            && aggs[1].func == dqo_plan::AggFunc::Sum
            && aggs[1].alias == "sum"
            && aggs[1].column.as_deref() == Some(keys[0].as_str());
        if shape_ok {
            let composite = crate::av::composite_column_name(keys);
            if let Some(av) = avs.lookup(table, &composite, AvKind::MaterialisedGrouping) {
                opt.fire("group-by-av-materialised");
                out.push(Candidate {
                    plan: PhysicalPlan::Scan {
                        table: av.signature.av_table_name(),
                    },
                    cost: opt.model.scan(av.provides.rows as f64),
                    props: opt.mode.project(PlanProps {
                        rows,
                        ..av.provides
                    }),
                    sort_col: Some(keys[0].clone()),
                });
            }
        }
    }

    for ic in &input_cands {
        for algo in [GroupingImpl::Sphg, GroupingImpl::Hg, GroupingImpl::Sog] {
            if algo == GroupingImpl::Sphg && !key_dense {
                continue;
            }
            let in_rows = ic.props.rows as f64;
            let pack = opt.model.composite_key_pack(in_rows, keys.len());
            let cost = ic.cost + pack + opt.model.grouping(algo, in_rows, g);
            // Packed outputs are normalised to ascending packed-code
            // order (lexicographic tuple order), so every composite
            // grouping emits sorted-by-first-key output.
            let props = opt.mode.project(PlanProps {
                sortedness: Sortedness::Ascending,
                partitioned: true,
                density: if key_dense {
                    Density::Dense
                } else {
                    Density::Unknown
                },
                distinct: key_stats.map(|_| rows),
                key_range,
                rows,
            });
            let molecules = match opt.mode {
                OptimizerMode::Deep => {
                    let mut ref_props = key_stats.unwrap_or(ic.props);
                    ref_props.rows = ic.props.rows;
                    refine_grouping_molecules(algo, &ref_props, &MoleculeCosts::default())
                }
                OptimizerMode::Shallow => GroupingMolecules::defaults_for(algo),
            };
            let plan = PhysicalPlan::GroupBy {
                input: Box::new(ic.plan.clone()),
                keys: keys.to_vec(),
                aggs: aggs.to_vec(),
                algo,
                molecules,
            };
            if opt.dop > 1 {
                let mut par_molecules = molecules;
                par_molecules.load_loop = Some(dqo_plan::LoopMolecule::Parallel);
                opt.fire("group-by-parallel-twin");
                out.push(Candidate {
                    plan: PhysicalPlan::Exchange {
                        input: Box::new(PhysicalPlan::GroupBy {
                            input: Box::new(ic.plan.clone()),
                            keys: keys.to_vec(),
                            aggs: aggs.to_vec(),
                            algo,
                            molecules: par_molecules,
                        }),
                        dop: opt.dop,
                    },
                    // The pack pass stays serial; only the grouping
                    // itself divides.
                    cost: ic.cost + pack + opt.model.parallel_grouping(algo, in_rows, g, opt.dop),
                    sort_col: Some(keys[0].clone()),
                    props,
                });
            }
            opt.fire("group-by-impl");
            out.push(Candidate {
                plan,
                cost,
                sort_col: Some(keys[0].clone()),
                props,
            });
        }
    }
    if out.is_empty() {
        return Err(CoreError::NoPlanFound(format!("{node}")));
    }
    Ok(prune(out.into_iter()))
}

impl MemoOptimizer<'_> {
    /// Wrap a candidate in an explicit sort enforcer on `key`.
    fn add_sort(&mut self, c: Candidate, key: &str) -> Candidate {
        let mut props = c.props;
        props.sortedness = Sortedness::Ascending;
        props.partitioned = true;
        self.fire("sort-enforcer");
        Candidate {
            cost: c.cost + self.model.sort(c.props.rows as f64),
            plan: PhysicalPlan::Sort {
                input: Box::new(c.plan),
                key: key.to_owned(),
                molecule: SortMolecule::Comparison,
            },
            props,
            sort_col: Some(key.to_owned()),
        }
    }

    /// The sort-enforcer alternatives for an unsorted candidate: the
    /// serial enforcer plus, at `dop > 1`, its Exchange-wrapped twin
    /// (morsel-parallel run formation + Merge Path merge). The parallel
    /// sort is stable by construction, so both provide the identical
    /// ascending-order property.
    fn sort_enforcer_candidates(&mut self, c: Candidate, key: &str) -> Vec<Candidate> {
        let mut out = Vec::with_capacity(2);
        if self.dop > 1 {
            let mut props = c.props;
            props.sortedness = Sortedness::Ascending;
            props.partitioned = true;
            self.fire("sort-parallel-enforcer");
            out.push(Candidate {
                cost: c.cost + self.model.parallel_sort(c.props.rows as f64, self.dop),
                plan: PhysicalPlan::Exchange {
                    input: Box::new(PhysicalPlan::Sort {
                        input: Box::new(c.plan.clone()),
                        key: key.to_owned(),
                        molecule: SortMolecule::Comparison,
                    }),
                    dop: self.dop,
                },
                props,
                sort_col: Some(key.to_owned()),
            });
        }
        out.push(self.add_sort(c, key));
        out
    }

    /// Is this candidate's output usable as "sorted by `key`" under the
    /// active property model?
    fn is_sorted_on(&self, c: &Candidate, key: &str) -> bool {
        // Order-based operators consume *ascending* runs; a descending
        // input would need an (unmodelled) reversal, so it does not
        // qualify.
        let asc = c.props.sortedness == Sortedness::Ascending;
        match self.pmodel {
            PropertyModel::PaperStream => asc,
            PropertyModel::AttributeStrict => asc && c.sort_col.as_deref() == Some(key),
        }
    }

    /// Input candidates plus, for each one not sorted on `key`, the
    /// sort-enforced twins (serial, and parallel at `dop > 1`).
    fn with_sort_enforcers(&mut self, cands: Vec<Candidate>, key: &str) -> Vec<Candidate> {
        let mut out = Vec::with_capacity(cands.len() * 2);
        for c in cands {
            if !self.is_sorted_on(&c, key) {
                out.extend(self.sort_enforcer_candidates(c.clone(), key));
            }
            out.push(c);
        }
        out
    }

    /// Is there a materialisable SPH-index AV for this build side?
    /// Only a bare base-table scan can reuse a prebuilt row index.
    fn sph_index_av(&self, build_plan: &PhysicalPlan, key: &str) -> bool {
        match (self.avs, build_plan) {
            (Some(avs), PhysicalPlan::Scan { table }) => {
                avs.lookup(table, key, AvKind::SphIndex).is_some()
            }
            _ => false,
        }
    }

    fn join_applicable(
        &self,
        algo: JoinImpl,
        lc: &Candidate,
        rc: &Candidate,
        left_key: &str,
        right_key: &str,
    ) -> bool {
        match algo {
            JoinImpl::Oj => self.is_sorted_on(lc, left_key) && self.is_sorted_on(rc, right_key),
            // SPHJ builds over the left side: needs a provably dense
            // domain — invisible in shallow mode by construction.
            JoinImpl::Sphj => lc.props.admits_sph(),
            JoinImpl::Bsj => lc.props.distinct.is_some(),
            JoinImpl::Hj | JoinImpl::Soj => true,
        }
    }

    fn join_output_props(&self, algo: JoinImpl, rows: u64) -> PlanProps {
        // The paper's simplified stream model: order-based joins produce
        // "sorted" output; everything else is unordered (a black-box hash
        // table's order must be assumed unknown, §2.1).
        let sorted = algo.produces_sorted_output();
        let props = PlanProps {
            sortedness: if sorted {
                Sortedness::Ascending
            } else {
                Sortedness::Unsorted
            },
            partitioned: sorted,
            // Join output density/distinct refer to the downstream
            // grouping key and are resolved from the catalog at the
            // GroupBy node; the stream itself carries no density claim.
            density: Density::Unknown,
            distinct: None,
            key_range: None,
            rows,
        };
        self.mode.project(props)
    }

    /// The composite key's plan properties, derived from the per-column
    /// catalog statistics through the same
    /// [`crate::av::combine_composite_props`] bundle AV planning uses
    /// (one derivation, no drift). `None` when any key column has no
    /// statistics.
    fn composite_key_stats(&self, node: &LogicalPlan, keys: &[String]) -> Option<PlanProps> {
        let tables = node.tables();
        let cols: Option<Vec<dqo_storage::DataProps>> = keys
            .iter()
            .map(|key| self.catalog.resolve_column(tables.iter().copied(), key))
            .collect();
        let combined = crate::av::combine_composite_props(&cols?);
        Some(self.mode.project(PlanProps::from_data(&combined)))
    }
}
