//! Unified rule application for the optimiser memo.
//!
//! Every special case the old DP hard-coded is one of three rule
//! families, fired per group by [`apply`]:
//!
//! * **implementation rules** — Scan (plus its AV-backed twin),
//!   Filter, Project, Limit, Join → {OJ, SPHJ, BSJ, HJ, SOJ}, GroupBy →
//!   {OG, SPHG, BSG, HG, SOG} (plus the materialised-grouping AV that
//!   stores exactly this grouping), each guarded by the property
//!   preconditions the paper's Table 1/2 arithmetic implies. One GroupBy
//!   rule serves a key of one column or several: a composite key is a
//!   packed `u32` code tuple, so the differences are arity checks (OG,
//!   BSG, codes and sort enforcers take one column; a composite pays a
//!   pack pass and emits ascending codes);
//! * **enforcer rules** — the Sort enforcer that *establishes* the
//!   sortedness property where an order-based implementation would
//!   otherwise be inapplicable (partial-sort plans fall out of this);
//! * **the parallel-twin rule** — the one place a plan gains an
//!   `Exchange{dop}`: the wrapped copy of any serial candidate whose
//!   operator is in the kernel list
//!   ([`PhysicalPlan::has_parallel_kernel`]), costed with the parallel
//!   cost model so plans only go parallel past break-even.
//!
//! Rules fire in exactly the order the pre-memo DP enumerated
//! alternatives and feed the same interesting-property pruning
//! ([`crate::optimizer::prune`]). No rule estimates a cardinality: every
//! rule receives its group's rows — derived once per group by
//! [`crate::property_builder::PropertyBuilder::derive`], feedback
//! corrections and partition pruning included — prices its candidates
//! from its inputs' rows, and stamps the group's rows on every candidate
//! it emits.

use crate::av::{composite_column_name, composite_packs, grouping_aggs, key_props, AvKind};
use crate::cost::CostModel;
use crate::error::CoreError;
use crate::executor::reads_coded_key;
use crate::memo::{Derived, GroupId, MemoOptimizer};
use crate::optimizer::{prune, Candidate, OptimizerMode};
use crate::property_builder::RowOp;
use crate::Result;
use dqo_plan::expr::Predicate;
use dqo_plan::physical::GroupingMolecules;
use dqo_plan::{
    GroupingAlgorithm, HashFnMolecule, JoinAlgorithm, LogicalPlan, PhysicalPlan, PlanProps,
    SortMolecule, TableMolecule,
};
use dqo_storage::{DataProps, Density, Sortedness};
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
        let in_rows = c.props.rows as f64;
        let serial = Candidate {
            cost: c.cost + opt.model.scan(in_rows),
            plan: PhysicalPlan::Filter {
                input: Box::new(c.plan),
                predicate: predicate.clone(),
            },
            props,
            sort_col: c.sort_col,
        };
        all.extend(opt.parallel_twin(&serial, c.cost, |m, dop| m.parallel_scan(in_rows, dop)));
        all.push(serial);
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
                JoinAlgorithm::OrderBased,
                JoinAlgorithm::StaticPerfectHash,
                JoinAlgorithm::BinarySearch,
                JoinAlgorithm::HashBased,
                JoinAlgorithm::SortOrderBased,
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
                let av_probe = algo == JoinAlgorithm::StaticPerfectHash
                    && opt.sph_index_av(&lc.plan, left_key);
                if av_probe {
                    opt.fire("join-av-sph-index");
                    join_cost = opt.model.scan(rc.props.rows as f64);
                }
                opt.fire("join-impl");
                let serial = Candidate {
                    plan: PhysicalPlan::Join {
                        left: Box::new(lc.plan.clone()),
                        right: Box::new(rc.plan.clone()),
                        left_key: left_key.to_owned(),
                        right_key: right_key.to_owned(),
                        algo,
                    },
                    cost: lc.cost + rc.cost + join_cost,
                    props: opt.join_output_props(algo, rows),
                    // Order-based joins emit in join-key order.
                    sort_col: algo.produces_sorted_output().then(|| left_key.to_owned()),
                };
                // A prebuilt AV index already removed the build pass;
                // re-partitioning it would forfeit the AV, so AV probes
                // stay serial.
                if !av_probe {
                    let (l, r) = (lc.props.rows as f64, rc.props.rows as f64);
                    out.extend(opt.parallel_twin(&serial, lc.cost + rc.cost, |m, dop| {
                        m.parallel_join(algo, l, r, build_groups, dop)
                    }));
                }
                out.push(serial);
            }
        }
    }
    if out.is_empty() {
        return Err(CoreError::NoPlanFound(format!("{node}")));
    }
    Ok(prune(out.into_iter()))
}

/// Implementation rules for a grouping on one key column or several. A
/// composite key runs on the `u32` packed-code domain where the columns'
/// spans allow, so the Table-2 arithmetic carries over with one extension:
/// a normalise-and-pack pass per extra key column
/// ([`crate::cost::CostModel::composite_key_pack`], 0 for one key).
fn group_by_rules(
    opt: &mut MemoOptimizer<'_>,
    node: &Arc<LogicalPlan>,
    input_gid: GroupId,
    input: &LogicalPlan,
    keys: &[String],
    aggs: &[dqo_plan::AggExpr],
    rows: u64,
) -> Result<Vec<Candidate>> {
    let (key, single) = (keys[0].as_str(), keys.len() == 1);
    let input_cands = opt.explore(input_gid, Some(key))?.as_ref().clone();
    // Sort enforcers serve OG, which groups one column only.
    let input_cands = if single {
        opt.with_sort_enforcers(input_cands, key)
    } else {
        input_cands
    };

    // AV implementation rule: a materialised grouping answers the whole
    // node with a scan of the precomputed result — the boundary case
    // where an AV degenerates into a classic materialised view (§3). It
    // answers exactly the query it stores: its keys over a bare scan with
    // its aggregate list, so no renaming or projection is needed.
    let mut out: Vec<Candidate> = Vec::new();
    if let (Some(avs), LogicalPlan::Scan { table }) = (opt.avs, input) {
        if aggs == grouping_aggs(key) {
            let name = composite_column_name(keys);
            if let Some(av) = avs.lookup(table, &name, AvKind::MaterialisedGrouping) {
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
                    sort_col: Some(key.to_owned()),
                });
            }
        }
    }

    // Resolve the grouping key's base statistics (density, distinct,
    // range) from its source table — the §4.3 move: DQO knows R.a is
    // dense even downstream of a join. `None` when a key column has no
    // statistics (and then nothing proves a composite packs).
    let tables = node.tables();
    let cols: Option<Vec<DataProps>> = keys
        .iter()
        .map(|key| opt.catalog.resolve_column(tables.iter().copied(), key))
        .collect();
    let key_stats = cols
        .as_deref()
        .map(|cols| opt.mode.project(PlanProps::from_data(&key_props(cols))));
    let packs = cols.as_deref().is_some_and(composite_packs);
    let key_dense = key_stats.map(|p| p.admits_sph()).unwrap_or(false);
    let key_range = key_stats.and_then(|p| p.key_range);
    let g = rows.max(1) as f64;

    for ic in &input_cands {
        // A sparse key the catalog coded is dense over its codes — in deep
        // mode, which tracks density. Codes are per column.
        let codes = single
            && !key_dense
            && opt.mode == OptimizerMode::Deep
            && reads_coded_key(opt.catalog, &ic.plan, key);
        for algo in [
            GroupingAlgorithm::OrderBased,
            GroupingAlgorithm::StaticPerfectHash,
            GroupingAlgorithm::BinarySearch,
            GroupingAlgorithm::HashBased,
            GroupingAlgorithm::SortOrderBased,
        ] {
            // OG and BSG group one column only.
            let applicable = match algo {
                GroupingAlgorithm::OrderBased => single && opt.is_sorted_on(ic, key),
                GroupingAlgorithm::StaticPerfectHash => key_dense || codes,
                GroupingAlgorithm::BinarySearch => single && key_stats.is_some(),
                GroupingAlgorithm::HashBased | GroupingAlgorithm::SortOrderBased => true,
            };
            if !applicable {
                continue;
            }
            let in_rows = ic.props.rows as f64;
            let pack = opt.model.composite_key_pack(in_rows, keys.len());
            let cost = ic.cost + pack + opt.model.grouping(algo, in_rows, g);
            // A composite output is in ascending packed-code order, which
            // is lexicographic tuple order.
            let sorted = !single
                || algo.produces_sorted_output()
                || (algo == GroupingAlgorithm::OrderBased && ic.props.sortedness.is_sorted());
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
            opt.fire("group-by-impl");
            let serial = Candidate {
                plan: PhysicalPlan::GroupBy {
                    input: Box::new(ic.plan.clone()),
                    keys: keys.to_vec(),
                    aggs: aggs.to_vec(),
                    algo,
                    molecules: GroupingMolecules {
                        codes: codes && algo == GroupingAlgorithm::StaticPerfectHash,
                        ..opt.grouping_molecules(algo, key_stats, ic)
                    },
                },
                cost,
                sort_col: sorted.then(|| key.to_owned()),
                props,
            };
            // A composite key that cannot pack runs the serial row-wise
            // kernel; the pack pass stays serial and only the grouping
            // divides.
            if single || packs {
                out.extend(opt.parallel_twin(&serial, ic.cost + pack, |m, dop| {
                    m.parallel_grouping(algo, in_rows, g, dop)
                }));
            }
            out.push(serial);
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
    /// serial enforcer plus its parallel twin (morsel-parallel run
    /// formation + Merge Path merge).
    fn sort_enforcer_candidates(&mut self, c: Candidate, key: &str) -> Vec<Candidate> {
        let (inputs, rows) = (c.cost, c.props.rows as f64);
        let serial = self.add_sort(c, key);
        let twin = self.parallel_twin(&serial, inputs, |m, dop| m.parallel_sort(rows, dop));
        twin.into_iter().chain([serial]).collect()
    }

    /// The parallel-twin rule — the one place a plan gains an `Exchange`:
    /// at `dop > 1`, the `Exchange{dop}`-wrapped copy of `serial` when its
    /// operator has a morsel-parallel kernel
    /// ([`PhysicalPlan::has_parallel_kernel`]), priced at what the
    /// operator's inputs cost plus `parallel`, the operator's price at the
    /// granted DOP. The twin keeps the serial candidate's properties —
    /// the parallel filter, sort and joins emit what their serial kernels
    /// emit — except that a parallel grouping's deterministic merge
    /// emits ascending keys, a property serial HG lacks.
    fn parallel_twin(
        &mut self,
        serial: &Candidate,
        inputs: f64,
        parallel: impl FnOnce(&dyn CostModel, usize) -> f64,
    ) -> Option<Candidate> {
        if self.dop < 2 || !serial.plan.has_parallel_kernel() {
            return None;
        }
        let (mut props, mut sort_col) = (serial.props, serial.sort_col.clone());
        if let PhysicalPlan::GroupBy { keys, .. } = &serial.plan {
            props.sortedness = Sortedness::Ascending;
            props.partitioned = true;
            sort_col = Some(keys[0].clone());
        }
        self.fire("parallel-twin");
        Some(Candidate {
            plan: PhysicalPlan::Exchange {
                input: Box::new(serial.plan.clone()),
                dop: self.dop,
            },
            cost: inputs + parallel(self.model, self.dop),
            props,
            sort_col,
        })
    }

    /// The molecules under grouping organelle `algo` — the step Table 1
    /// adds below the organelle. Shallow mode ships the developer defaults
    /// behind the organelle name, and only HG has open table and hash
    /// molecules (the others are structural: SPH array, sorted array,
    /// runs). Deep mode gives HG linear probing, the cheapest table per
    /// upsert in the E9 ablation, and picks the hash from the key's
    /// statistics (the input's properties when it has none): identity when
    /// the keys are uniform — a dense domain, as dictionary codes are
    /// (§2.1) — else Fibonacci, whose one multiply spreads clustered keys.
    fn grouping_molecules(
        &self,
        algo: GroupingAlgorithm,
        key_stats: Option<PlanProps>,
        input: &Candidate,
    ) -> GroupingMolecules {
        let mut m = GroupingMolecules::defaults_for(algo);
        if self.mode == OptimizerMode::Deep && algo == GroupingAlgorithm::HashBased {
            let keys = key_stats.unwrap_or(input.props);
            let uniform = keys.admits_sph() || keys.density.is_dense();
            m.table = Some(TableMolecule::LinearProbing);
            m.hash = Some(match uniform {
                true => HashFnMolecule::Identity,
                false => HashFnMolecule::Fibonacci,
            });
        }
        m
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
        algo: JoinAlgorithm,
        lc: &Candidate,
        rc: &Candidate,
        left_key: &str,
        right_key: &str,
    ) -> bool {
        match algo {
            JoinAlgorithm::OrderBased => {
                self.is_sorted_on(lc, left_key) && self.is_sorted_on(rc, right_key)
            }
            // SPHJ builds over the left side: needs a provably dense
            // domain — invisible in shallow mode by construction.
            JoinAlgorithm::StaticPerfectHash => lc.props.admits_sph(),
            JoinAlgorithm::BinarySearch => lc.props.distinct.is_some(),
            JoinAlgorithm::HashBased | JoinAlgorithm::SortOrderBased => true,
        }
    }

    fn join_output_props(&self, algo: JoinAlgorithm, rows: u64) -> PlanProps {
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::Catalog;
    use crate::optimizer::SearchContext;
    use dqo_exec::grouping::hg::HgTable;

    fn props(dense: bool) -> PlanProps {
        PlanProps {
            sortedness: Sortedness::Unsorted,
            partitioned: false,
            density: if dense {
                Density::Dense
            } else {
                Density::Sparse { fill: 0.001 }
            },
            distinct: Some(1000),
            key_range: dense.then_some((0, 999)),
            rows: 1_000_000,
        }
    }

    /// The molecules `mode` gives organelle `algo` over keys with `props`.
    fn molecules(
        mode: OptimizerMode,
        algo: GroupingAlgorithm,
        keys: PlanProps,
    ) -> GroupingMolecules {
        let catalog = Catalog::new();
        let optimizer = MemoOptimizer::new(&catalog, &SearchContext::new(mode));
        let input = Candidate {
            plan: PhysicalPlan::Scan { table: "t".into() },
            cost: 0.0,
            props: keys,
            sort_col: None,
        };
        optimizer.grouping_molecules(algo, None, &input)
    }

    #[test]
    fn uniform_keys_get_cheap_hash_and_open_addressing() {
        let m = molecules(
            OptimizerMode::Deep,
            GroupingAlgorithm::HashBased,
            props(true),
        );
        assert_eq!(m.table, Some(TableMolecule::LinearProbing));
        assert_eq!(m.hash, Some(HashFnMolecule::Identity));
    }

    #[test]
    fn sparse_keys_keep_a_real_hash_function() {
        let m = molecules(
            OptimizerMode::Deep,
            GroupingAlgorithm::HashBased,
            props(false),
        );
        assert_eq!(m.table, Some(TableMolecule::LinearProbing));
        assert_eq!(m.hash, Some(HashFnMolecule::Fibonacci));
    }

    #[test]
    fn non_hash_organelles_and_shallow_mode_keep_the_defaults() {
        let deep = |algo| molecules(OptimizerMode::Deep, algo, props(true));
        let m = deep(GroupingAlgorithm::StaticPerfectHash);
        assert_eq!(m.table, Some(TableMolecule::StaticPerfectHash));
        assert_eq!(m.hash, None);
        assert_eq!(deep(GroupingAlgorithm::OrderBased).table, None);
        for dense in [true, false] {
            let algo = GroupingAlgorithm::HashBased;
            let m = molecules(OptimizerMode::Shallow, algo, props(dense));
            assert_eq!(m, GroupingMolecules::defaults_for(algo));
        }
    }

    /// The kernel `HgTable::of` selects is the table and hash EXPLAIN
    /// prints — for every pair deep mode picks, and for all nine (table,
    /// hash) pairs a lowered deep plan can name: an unmatched pair would
    /// silently run a different kernel.
    #[test]
    fn every_picked_pair_selects_the_named_hg_table() {
        let ran = |m: GroupingMolecules| match HgTable::of(m) {
            HgTable::Chaining(h) => (TableMolecule::Chaining, h),
            HgTable::LinearProbing(h) => (TableMolecule::LinearProbing, h),
            HgTable::RobinHood(h) => (TableMolecule::RobinHood, h),
        };
        for dense in [true, false] {
            let m = molecules(
                OptimizerMode::Deep,
                GroupingAlgorithm::HashBased,
                props(dense),
            );
            let (t, h) = ran(m);
            assert_eq!((m.table, m.hash), (Some(t), Some(h)), "dense={dense}");
        }
        for table in [
            TableMolecule::Chaining,
            TableMolecule::LinearProbing,
            TableMolecule::RobinHood,
        ] {
            for hash in [
                HashFnMolecule::Murmur3,
                HashFnMolecule::Fibonacci,
                HashFnMolecule::Identity,
            ] {
                let m = GroupingMolecules {
                    table: Some(table),
                    hash: Some(hash),
                    ..GroupingMolecules::default()
                };
                assert_eq!(ran(m), (table, hash));
            }
        }
    }
}
