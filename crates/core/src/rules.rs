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
//!   `Exchange{dop}`: the copy of a serial filter, sort, join or grouping
//!   candidate run at the granted DOP — each has one loop that runs on a
//!   pool — costed with the parallel cost model so plans only go parallel
//!   past break-even. A twin that could only lose is not built.
//!
//! Rules fire in exactly the order the pre-memo DP enumerated
//! alternatives and feed the same interesting-property pruning
//! ([`crate::optimizer::prune`]). No rule estimates a cardinality: every
//! rule receives its group's rows — derived once per group by
//! [`crate::property_builder::PropertyBuilder::derive`], feedback
//! corrections and partition pruning included — prices its candidates
//! from its inputs' rows, and stamps the group's rows on every candidate
//! it emits.
//!
//! A rule reads its inputs as [`Choice`]s into the memo and builds
//! candidates that point at them; no rule copies a plan.

use crate::av::{composite_column_name, composite_packs, grouping_aggs, key_props, AvKind};
use crate::cost::CostModel;
use crate::error::CoreError;
use crate::executor::reads_coded_key;
use crate::memo::{Choice, ColId, Derived, GroupId, MemoOptimizer};
use crate::optimizer::{Candidate, Op, OptimizerMode};
use crate::property_builder::RowOp;
use crate::Result;
use dqo_plan::physical::GroupingMolecules;
use dqo_plan::{
    GroupingAlgorithm, HashFnMolecule, JoinAlgorithm, LogicalPlan, PlanProps, TableMolecule,
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
) -> Result<Vec<Choice>> {
    let node = Arc::clone(opt.memo.group(gid).logical());
    let kids: Vec<GroupId> = opt.memo.group(gid).children().to_vec();
    let rows = derived.rows;
    match node.as_ref() {
        LogicalPlan::Scan { table } => scan_rules(opt, gid, table, focus, rows),
        LogicalPlan::Filter { .. } => {
            let survivors = derived.survivors.as_deref();
            filter_rules(opt, gid, kids[0], focus, rows, survivors)
        }
        LogicalPlan::Sort { key, .. } => sort_rules(opt, kids[0], key),
        LogicalPlan::Project { .. } => pass_rules(opt, gid, kids[0], focus, Op::Project, rows),
        LogicalPlan::Limit { .. } => pass_rules(opt, gid, kids[0], focus, Op::Limit, rows),
        LogicalPlan::Join { .. } => join_rules(opt, gid, &node, [kids[0], kids[1]], rows),
        LogicalPlan::GroupBy { .. } => group_by_rules(opt, gid, &node, kids[0], rows),
    }
}

fn scan_rules(
    opt: &mut MemoOptimizer<'_>,
    gid: GroupId,
    table: &str,
    focus: Option<&str>,
    rows: u64,
) -> Result<Vec<Choice>> {
    let props = opt.props.scan_props(table, focus)?;
    let projected = opt.mode.project(PlanProps { rows, ..props });
    // A partitioned table's baseline scan is a PartitionedScan naming
    // every partition: the filter rule narrows the survivor set at
    // plan time and the runtime seeds partition-native morsels from it.
    // Flat-row-order emission keeps it bit-identical to a plain Scan.
    let op = match opt.catalog.partitioning_of(table) {
        Some(p) => {
            opt.fire("scan-partitioned-impl");
            Op::PartitionedScan {
                parts: (0..p.part_count()).collect(),
                total: p.part_count(),
            }
        }
        None => {
            opt.fire("scan-impl");
            Op::Scan
        }
    };
    let focus_id = focus.filter(|c| !c.is_empty()).map(|c| opt.memo.column(c));
    let sort_col = focus_id.filter(|_| projected.sortedness == Sortedness::Ascending);
    // Scans are the common baseline of every plan: they cost nothing.
    let mut out = vec![opt.build(gid, Candidate::new(op, &[], 0.0, projected, sort_col))];
    // AV implementation rule: a sorted projection provides the `sorted`
    // property at zero query-time cost (its build cost was paid offline —
    // the §3 trade-off).
    if let (Some(avs), Some(col)) = (opt.avs, focus) {
        if let Some(av) = avs.lookup(table, col, AvKind::SortedProjection) {
            opt.fire("scan-av-sorted-projection");
            let props = opt.mode.project(PlanProps {
                rows,
                ..av.provides
            });
            let col = opt.memo.column(col);
            let op = Op::AvScan(av.signature.av_table_name());
            out.push(opt.build(gid, Candidate::new(op, &[], 0.0, props, Some(col))));
        }
    }
    Ok(out)
}

fn filter_rules(
    opt: &mut MemoOptimizer<'_>,
    gid: GroupId,
    input_gid: GroupId,
    focus: Option<&str>,
    rows: u64,
    survivors: Option<&[usize]>,
) -> Result<Vec<Choice>> {
    let inputs = opt.explore(input_gid, focus)?;
    let mut all = Vec::with_capacity(inputs.len() * 2);
    for mut input in inputs {
        // Partition-pruning rule: scan only the group's survivors — the
        // partitions the bound predicate, intersected with the spec, may
        // match. The decision reads **only the spec** (append-proof — see
        // `crate::partition_prune`); the filter's cost shrinks to the
        // survivors' observed rowcounts.
        if let Some(survivors) = survivors {
            input = opt.prune_scan(input, survivors);
        }
        let c = opt.memo.candidate(input);
        // Filtering punches holes into a dense domain and can only shrink
        // the focus column's distinct count.
        let props = opt.mode.project(PlanProps {
            density: Density::Unknown,
            key_range: None,
            distinct: c.props.distinct.map(|d| d.min(rows.max(1))),
            rows,
            ..c.props
        });
        let in_rows = c.props.rows as f64;
        let cost = c.cost + opt.model.scan(in_rows);
        let (in_cost, sort_col) = (c.cost, c.sort_col);
        opt.fire("filter-impl");
        let serial = opt.build(
            gid,
            Candidate::new(Op::Filter, &[input], cost, props, sort_col),
        );
        all.extend(opt.parallel_twin(serial, in_cost, |m, dop| m.parallel_scan(in_rows, dop)));
        all.push(serial);
    }
    Ok(opt.memo.prune(all))
}

fn sort_rules(opt: &mut MemoOptimizer<'_>, input_gid: GroupId, key: &str) -> Result<Vec<Choice>> {
    let inputs = opt.explore(input_gid, Some(key))?;
    // Interesting-order payoff: an input that is already sorted on the
    // key satisfies the Sort for free — this is what makes sorted-output
    // groupings (SPHG/SOG/BSG) win under a final ORDER BY. Unsorted
    // inputs fire the enforcer rule (serial plus morsel-parallel twin).
    let key = opt.memo.column(key);
    let mut all = Vec::with_capacity(inputs.len() * 2);
    for c in inputs {
        if opt.is_sorted_on(c, key) {
            opt.fire("sort-elide");
            all.push(c);
        } else {
            opt.sort_enforcer_candidates(c, key, &mut all);
        }
    }
    Ok(opt.memo.prune(all))
}

/// Project and Limit: free in a columnar store, they keep their input's
/// cost, order and properties (a limit its own rows).
fn pass_rules(
    opt: &mut MemoOptimizer<'_>,
    gid: GroupId,
    input_gid: GroupId,
    focus: Option<&str>,
    op: Op,
    rows: u64,
) -> Result<Vec<Choice>> {
    let inputs = opt.explore(input_gid, focus)?;
    opt.fire(match op {
        Op::Limit => "limit-impl",
        _ => "project-impl",
    });
    let mut all = Vec::with_capacity(inputs.len());
    for input in inputs {
        let c = opt.memo.candidate(input);
        let (cost, props) = (c.cost, PlanProps { rows, ..c.props });
        let sort_col = c.sort_col;
        all.push(opt.build(
            gid,
            Candidate::new(op.clone(), &[input], cost, props, sort_col),
        ));
    }
    Ok(opt.memo.prune(all))
}

fn join_rules(
    opt: &mut MemoOptimizer<'_>,
    gid: GroupId,
    node: &LogicalPlan,
    [left_gid, right_gid]: [GroupId; 2],
    rows: u64,
) -> Result<Vec<Choice>> {
    let LogicalPlan::Join {
        left,
        left_key,
        right_key,
        ..
    } = node
    else {
        unreachable!("join_rules on a non-join group: {node}");
    };
    let left_cands = opt.explore(left_gid, Some(left_key))?;
    let (lk, rk) = (opt.memo.column(left_key), opt.memo.column(right_key));
    let left_cands = opt.with_sort_enforcers(left_cands, lk);
    let right_cands = opt.explore(right_gid, Some(right_key))?;
    let right_cands = opt.with_sort_enforcers(right_cands, rk);
    // BSJ's search depth: the build key's distinct count in its table.
    let d_left = opt
        .catalog
        .resolve_column(left.tables(), left_key)
        .map(|p| p.distinct);

    let mut out = Vec::new();
    for &l in &left_cands {
        for &r in &right_cands {
            // Enumerate in preference order: on exact cost ties the
            // order-based plan wins (the paper's both-sorted cell).
            for algo in [
                JoinAlgorithm::OrderBased,
                JoinAlgorithm::StaticPerfectHash,
                JoinAlgorithm::BinarySearch,
                JoinAlgorithm::HashBased,
                JoinAlgorithm::SortOrderBased,
            ] {
                if !opt.join_applicable(algo, l, r, lk, rk) {
                    continue;
                }
                let (lc, rc) = (opt.memo.candidate(l), opt.memo.candidate(r));
                let (lrows, rrows) = (lc.props.rows as f64, rc.props.rows as f64);
                let inputs_cost = lc.cost + rc.cost;
                let build_groups = d_left.unwrap_or(lc.props.rows).max(1) as f64;
                let mut join_cost = opt.model.join(algo, lrows, rrows, build_groups);
                // AV implementation rule: a prebuilt SPH index over the
                // build side removes the build pass — probe cost only.
                let av_probe =
                    algo == JoinAlgorithm::StaticPerfectHash && opt.sph_index_av(l, left_key);
                if av_probe {
                    opt.fire("join-av-sph-index");
                    join_cost = opt.model.scan(rrows);
                }
                opt.fire("join-impl");
                // Order-based joins emit in join-key order.
                let sort_col = algo.produces_sorted_output().then_some(lk);
                let props = opt.join_output_props(algo, rows);
                let cost = inputs_cost + join_cost;
                let serial = opt.build(
                    gid,
                    Candidate::new(Op::Join(algo), &[l, r], cost, props, sort_col),
                );
                // A prebuilt AV index already removed the build pass;
                // re-partitioning it would forfeit the AV, so AV probes
                // stay serial.
                if !av_probe {
                    out.extend(opt.parallel_twin(serial, inputs_cost, |m, dop| {
                        m.parallel_join(algo, lrows, rrows, build_groups, dop)
                    }));
                }
                out.push(serial);
            }
        }
    }
    if out.is_empty() {
        return Err(CoreError::NoPlanFound(format!("{node}")));
    }
    Ok(opt.memo.prune(out))
}

/// Implementation rules for a grouping on one key column or several. A
/// composite key runs on the `u32` packed-code domain where the columns'
/// spans allow, so the Table-2 arithmetic carries over with one extension:
/// a normalise-and-pack pass per extra key column
/// ([`crate::cost::CostModel::composite_key_pack`], 0 for one key).
fn group_by_rules(
    opt: &mut MemoOptimizer<'_>,
    gid: GroupId,
    node: &LogicalPlan,
    input_gid: GroupId,
    rows: u64,
) -> Result<Vec<Choice>> {
    let LogicalPlan::GroupBy { input, keys, aggs } = node else {
        unreachable!("group_by_rules on a non-grouping group: {node}");
    };
    let (key, single) = (keys[0].as_str(), keys.len() == 1);
    let input_cands = opt.explore(input_gid, Some(key))?;
    let key_id = opt.memo.column(key);
    // Sort enforcers serve OG, which groups one column only.
    let input_cands = if single {
        opt.with_sort_enforcers(input_cands, key_id)
    } else {
        input_cands
    };

    // AV implementation rule: a materialised grouping answers the whole
    // node with a scan of the precomputed result — the boundary case
    // where an AV degenerates into a classic materialised view (§3). It
    // answers exactly the query it stores: its keys over a bare scan with
    // its aggregate list, so no renaming or projection is needed.
    let mut out = Vec::new();
    if let (Some(avs), LogicalPlan::Scan { table }) = (opt.avs, input.as_ref()) {
        if *aggs == grouping_aggs(key) {
            let name = composite_column_name(keys);
            if let Some(av) = avs.lookup(table, &name, AvKind::MaterialisedGrouping) {
                opt.fire("group-by-av-materialised");
                let cost = opt.model.scan(av.provides.rows as f64);
                let props = opt.mode.project(PlanProps {
                    rows,
                    ..av.provides
                });
                let op = Op::AvScan(av.signature.av_table_name());
                out.push(opt.build(gid, Candidate::new(op, &[], cost, props, Some(key_id))));
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

    for &ic in &input_cands {
        // A sparse key the catalog coded is dense over its codes — in deep
        // mode, which tracks density. Codes are per column.
        // The input's plan is built only for this test, which only a
        // sparse key reaches.
        let codes = single
            && !key_dense
            && opt.mode == OptimizerMode::Deep
            && reads_coded_key(opt.catalog, &opt.memo.plan(ic), key);
        let sorted_on_key = opt.is_sorted_on(ic, key_id);
        let input = opt.memo.candidate(ic);
        let (in_cost, in_props) = (input.cost, input.props);
        for algo in [
            GroupingAlgorithm::OrderBased,
            GroupingAlgorithm::StaticPerfectHash,
            GroupingAlgorithm::BinarySearch,
            GroupingAlgorithm::HashBased,
            GroupingAlgorithm::SortOrderBased,
        ] {
            // OG and BSG group one column only.
            let applicable = match algo {
                GroupingAlgorithm::OrderBased => single && sorted_on_key,
                GroupingAlgorithm::StaticPerfectHash => key_dense || codes,
                GroupingAlgorithm::BinarySearch => single && key_stats.is_some(),
                GroupingAlgorithm::HashBased | GroupingAlgorithm::SortOrderBased => true,
            };
            if !applicable {
                continue;
            }
            let in_rows = in_props.rows as f64;
            let pack = opt.model.composite_key_pack(in_rows, keys.len());
            let cost = in_cost + pack + opt.model.grouping(algo, in_rows, g);
            // A composite output is in ascending packed-code order, which
            // is lexicographic tuple order.
            let sorted = !single
                || algo.produces_sorted_output()
                || (algo == GroupingAlgorithm::OrderBased && in_props.sortedness.is_sorted());
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
            let molecules = GroupingMolecules {
                codes: codes && algo == GroupingAlgorithm::StaticPerfectHash,
                ..opt.grouping_molecules(algo, key_stats, in_props)
            };
            let op = Op::GroupBy(algo, molecules);
            let sort_col = sorted.then_some(key_id);
            let serial = opt.build(gid, Candidate::new(op, &[ic], cost, props, sort_col));
            // A composite key that cannot pack runs the serial row-wise
            // kernel; the pack pass stays serial and only the grouping
            // divides.
            if single || packs {
                out.extend(opt.parallel_twin(serial, in_cost + pack, |m, dop| {
                    m.parallel_grouping(algo, in_rows, g, dop)
                }));
            }
            out.push(serial);
        }
    }
    if out.is_empty() {
        return Err(CoreError::NoPlanFound(format!("{node}")));
    }
    Ok(opt.memo.prune(out))
}

impl MemoOptimizer<'_> {
    /// The sort-enforcer alternatives for an unsorted candidate, built in
    /// its group and appended to `out`: the serial enforcer plus its
    /// parallel twin (morsel-parallel run formation + Merge Path merge).
    fn sort_enforcer_candidates(&mut self, input: Choice, key: ColId, out: &mut Vec<Choice>) {
        let c = self.memo.candidate(input);
        let (inputs, rows) = (c.cost, c.props.rows as f64);
        let props = PlanProps {
            sortedness: Sortedness::Ascending,
            partitioned: true,
            ..c.props
        };
        let cost = inputs + self.model.sort(rows);
        self.fire("sort-enforcer");
        let serial = self.build(
            input.group,
            Candidate::new(Op::Sort(key), &[input], cost, props, Some(key)),
        );
        out.extend(self.parallel_twin(serial, inputs, |m, dop| m.parallel_sort(rows, dop)));
        out.push(serial);
    }

    /// The parallel-twin rule — the one place a plan gains an `Exchange`:
    /// at `dop > 1`, `serial`'s operator (a filter, sort, join or grouping:
    /// the rules that call this) run at the granted DOP, priced at what
    /// the operator's inputs cost plus `parallel`, the operator's price at
    /// that DOP. The twin keeps the serial candidate's properties — the
    /// parallel filter, sort and joins emit what their serial loops emit —
    /// except that a parallel grouping emits ascending keys, a property
    /// serial HG lacks (OG's stitch keeps its input's order, which OG's
    /// precondition makes ascending).
    ///
    /// A twin that cannot win is not built. With the serial candidate's
    /// properties, it loses to it in pruning when it costs more. With
    /// ascending keys the serial grouping lacks, it also loses wherever
    /// that order is wanted when it costs more than the serial grouping
    /// plus a serial sort of its output, the enforcer every consumer of
    /// an order builds.
    fn parallel_twin(
        &mut self,
        serial: Choice,
        inputs: f64,
        parallel: impl FnOnce(&dyn CostModel, usize) -> f64,
    ) -> Option<Choice> {
        if self.dop < 2 {
            return None;
        }
        let s = self.memo.candidate(serial);
        let mut twin = Candidate {
            dop: self.dop,
            cost: inputs + parallel(self.model, self.dop),
            ..s.clone()
        };
        if let Op::GroupBy(..) = twin.op {
            let node = Arc::clone(self.memo.group(serial.group).logical());
            let LogicalPlan::GroupBy { keys, .. } = node.as_ref() else {
                unreachable!("a grouping outside a grouping group: {node}");
            };
            twin.props.sortedness = Sortedness::Ascending;
            twin.props.partitioned = true;
            twin.sort_col = Some(self.memo.column(&keys[0]));
        }
        let s = self.memo.candidate(serial);
        let mut bound = s.cost;
        if (twin.props, twin.sort_col) != (s.props, s.sort_col) {
            bound += self.model.sort(s.props.rows as f64);
        }
        if twin.cost > bound {
            return None;
        }
        self.fire("parallel-twin");
        Some(self.build(serial.group, twin))
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
        input: PlanProps,
    ) -> GroupingMolecules {
        let mut m = GroupingMolecules::defaults_for(algo);
        if self.mode == OptimizerMode::Deep && algo == GroupingAlgorithm::HashBased {
            let keys = key_stats.unwrap_or(input);
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
    fn is_sorted_on(&self, c: Choice, key: ColId) -> bool {
        // Order-based operators consume *ascending* runs; a descending
        // input would need an (unmodelled) reversal, so it does not
        // qualify.
        let c = self.memo.candidate(c);
        let asc = c.props.sortedness == Sortedness::Ascending;
        match self.pmodel {
            PropertyModel::PaperStream => asc,
            PropertyModel::AttributeStrict => asc && c.sort_col == Some(key),
        }
    }

    /// Input candidates plus, for each one not sorted on `key`, the
    /// sort-enforced twins (serial, and parallel at `dop > 1`).
    fn with_sort_enforcers(&mut self, cands: Vec<Choice>, key: ColId) -> Vec<Choice> {
        let mut out = Vec::with_capacity(cands.len() * 2);
        for c in cands {
            if !self.is_sorted_on(c, key) {
                self.sort_enforcer_candidates(c, key, &mut out);
            }
            out.push(c);
        }
        out
    }

    /// The partition-pruning rewrite of a filter's input: a scan of a
    /// partitioned table restricted to `survivors`, stored beside the full
    /// scan in its group; any other input is returned as it is.
    fn prune_scan(&mut self, input: Choice, survivors: &[usize]) -> Choice {
        let c = self.memo.candidate(input);
        let Op::PartitionedScan { parts, total } = &c.op else {
            return input;
        };
        let (fewer, total) = (survivors.len() < parts.len(), *total);
        if fewer {
            self.fire("filter-partition-prune");
        }
        let table = self.scan_table(input.group);
        let rows = self
            .props
            .derive(RowOp::Scan((table, Some(survivors))), &[]);
        let c = self.memo.candidate(input);
        let pruned = Candidate {
            op: Op::PartitionedScan {
                parts: survivors.to_vec(),
                total,
            },
            props: PlanProps { rows, ..c.props },
            ..c.clone()
        };
        self.memo.push(input.group, pruned)
    }

    /// The base table scan group `gid` reads.
    fn scan_table(&self, gid: GroupId) -> &str {
        match self.memo.group(gid).logical().as_ref() {
            LogicalPlan::Scan { table } => table,
            other => unreachable!("a scan outside a scan group: {other}"),
        }
    }

    /// Is there a materialisable SPH-index AV for this build side?
    /// Only a bare scan can reuse a prebuilt row index.
    fn sph_index_av(&self, build: Choice, key: &str) -> bool {
        let Some(avs) = self.avs else {
            return false;
        };
        let table = match &self.memo.candidate(build).op {
            Op::Scan => self.scan_table(build.group),
            Op::AvScan(table) => table,
            _ => return false,
        };
        avs.lookup(table, key, AvKind::SphIndex).is_some()
    }

    fn join_applicable(
        &self,
        algo: JoinAlgorithm,
        l: Choice,
        r: Choice,
        left_key: ColId,
        right_key: ColId,
    ) -> bool {
        let lc = self.memo.candidate(l);
        match algo {
            JoinAlgorithm::OrderBased => {
                self.is_sorted_on(l, left_key) && self.is_sorted_on(r, right_key)
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
        optimizer.grouping_molecules(algo, None, keys)
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
