//! Executes a [`PhysicalPlan`] on the `dqo-exec` engine.
//!
//! The executor is deliberately thin: every algorithmic decision was made
//! by the optimiser; this module maps plan vocabulary onto `dqo-exec` and
//! `dqo-parallel` kernels and accounts for pipeline breakers and copies.
//!
//! What flows between plan nodes is a `View` — a relation handle plus a
//! [`Selection`] of its rows — not a copied relation. Scans select row
//! ranges, filters narrow the selection with a branch-free kernel, sort
//! permutes it (under a `Limit`, only its first `n` positions are found),
//! limit truncates it, project drops column handles. A filter conjunct
//! that compares a column the catalog's exact statistics call ascending
//! is answered by two binary searches per range instead (see
//! `Exec::search`), and HG/SPHG over such a key, when its runs average
//! at least `MIN_RUN` rows and no conjunct is left to thin them, fold
//! each run of equal keys once instead of row by row. SPHG over a key the
//! catalog coded (`{key=codes}`) reads the column's dense codes where it
//! would read the key — the filter still reads the keys — folds over the
//! code domain, and decodes the groups it emits, in ascending key order.
//!
//! HG and SPHG have one loop, `dqo_parallel::parallel_grouping_tasks`: it
//! folds the pieces of the selection into per-worker partials under an
//! `Exchange`, and into one partial on the caller thread otherwise —
//! which is serial HG/SPHG, row for row. A single-key HG/SPHG runs a
//! filter beneath it, and an HJ or SPHJ beneath that, inside the loader of
//! its own tasks at any DOP (see `Fused`): no join output is built. The
//! loader reads no key or value: it names rows — a piece's range, the ids
//! a fused filter kept, a fused join's `(build, probe)` pairs — and the
//! fold reads the key and value columns at them, into COUNT/SUM states
//! unless the node's aggregates read MIN or MAX (see `Exec::grouped`). HJ
//! and SPHJ are one join: each takes its `JoinIndex` — hashed for HJ,
//! identity for SPHJ — from `Exec::join_index`, and every probe of one
//! runs in the loader `Exec::source` sets up — a grouping's, or, for a join
//! node no grouping fused, the join's own, whose pairs the output gathers
//! its columns at, piece by piece of the probe side on the `Exchange`'s
//! workers. Column data is copied in three places only: kernel scratch
//! (the key and value columns a sort, an OJ/SOJ/BSJ join, a join index
//! build, a composite key or a SOG/OG/BSG grouping reads through a
//! selection that is not one dense run), the output of a join that is not
//! fused (the columns something above it reads, nothing else), and the
//! plan root.
//!
//! A [`naive_eval`] reference evaluator (nested loops + BTreeMap + a
//! row-at-a-time predicate) provides the correctness oracle for
//! integration tests; it shares none of the selection code.

use crate::av::{AvArtifact, AvCatalog, AvKind};
use crate::catalog::{Catalog, TableEntry};
use crate::error::CoreError;
use crate::Result;
use dqo_exec::aggregate::{Aggregator, CountSum, CountSumState, FullAgg, FullAggState};
use dqo_exec::composite::{rowwise_group, unpack_grouped, KeyPacker};
use dqo_exec::grouping::hg::HgTable;
use dqo_exec::grouping::sog::sort_order_grouping;
use dqo_exec::grouping::{execute_grouping, GroupedResult, GroupingHints};
use dqo_exec::join::{execute_join as run_join, JoinHints, JoinIndex};
use dqo_exec::pipeline::{
    grouping_blocking, join_blocking, Blocking, OperatorMetrics, PipelineStats,
};
use dqo_exec::sort::{argsort, radix_sort_pairs_by_key, top_n};
use dqo_exec::ExecError;
use dqo_parallel::{
    BatchObs, GroupingStrategy, PersistentPool, Rows, Scratch, Sink, ThreadPool,
    DEFAULT_MORSEL_ROWS,
};
use dqo_plan::expr::{AggExpr, AggFunc, CmpOp, Predicate};
use dqo_plan::physical::GroupingMolecules;
use dqo_plan::{GroupingAlgorithm, JoinAlgorithm, LogicalPlan, PhysicalPlan, SortMolecule};
use dqo_storage::{
    narrow_rows, search_ranges, Column, DataProps, DataType, Dictionary, Field, KeyCodes, Piece,
    Relation, Schema, Selection, Sortedness, Value, MIN_RUN,
};
use std::collections::HashMap;
use std::ops::{Bound, Range};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The result of executing a plan.
#[derive(Debug, Clone)]
pub struct ExecOutput {
    /// The result relation.
    pub relation: Relation,
    /// Pipeline-breaker accounting along the plan.
    pub pipeline: PipelineStats,
    /// Bytes of column data the execution copied into new buffers: kernel
    /// scratch, join outputs and the root's materialisation.
    pub bytes_materialised: u64,
}

/// What an execution takes besides the plan and the catalog; the default
/// is what [`execute`] runs with.
#[derive(Clone, Copy, Default)]
pub struct ExecContext<'a> {
    /// Materialised Algorithmic Views the plan was optimised against
    /// (prebuilt SPH join indexes are probed instead of rebuilt;
    /// relation-shaped AVs are plain catalog tables already).
    pub avs: Option<&'a AvCatalog>,
    /// The pool Exchange nodes dispatch onto — the engine's shared-pool
    /// serving mode routes every session's batches through one. `None`
    /// resolves the process-wide shared pool lazily: a plan with no
    /// Exchange never spawns pool workers.
    pub pool: Option<&'a Arc<PersistentPool>>,
    /// Collect per-operator metrics (see [`execute_with`]).
    pub collect_metrics: bool,
}

/// Execute a physical plan against the catalog.
pub fn execute(plan: &PhysicalPlan, catalog: &Catalog) -> Result<ExecOutput> {
    execute_with(plan, catalog, &ExecContext::default()).map(|(out, _)| out)
}

/// The general entry point. With `ctx.collect_metrics`, alongside the
/// output it returns one [`OperatorMetrics`] per plan node in pre-order
/// (the numbering of [`PhysicalPlan::preorder`] and the `explain` line
/// order), carrying actual rows, inclusive wall time, the node's
/// pipeline-stats contribution, the bytes it copied, and — for `Exchange`
/// nodes — the DOP, morsels dispatched and morsel steals; otherwise the
/// vector is empty. The relation produced is bit-identical either way:
/// instrumentation only reads clocks and counters, never the data.
pub fn execute_with(
    plan: &PhysicalPlan,
    catalog: &Catalog,
    ctx: &ExecContext<'_>,
) -> Result<(ExecOutput, Vec<OperatorMetrics>)> {
    // The pool is resolved only if the plan actually reaches an Exchange
    // node, so serial plans never force the process-global pool (and its
    // parked worker threads) into existence.
    let resolve = move || match ctx.pool {
        Some(pool) => Arc::clone(pool),
        None => PersistentPool::global(),
    };
    let mut needs = HashMap::new();
    join_needs(plan, None, &mut needs);
    let mut exec = Exec {
        catalog,
        avs: ctx.avs,
        pool: &resolve,
        needs,
        tops: HashMap::new(),
        stats: PipelineStats::default(),
        bytes: 0,
        obs: ctx.collect_metrics.then(|| OpCollector::new(plan)),
    };
    let view = exec.run(plan, None)?;
    // The one whole-relation copy: the root materialises its selection
    // (a selection of every row hands the column buffers over as they are).
    let relation = view.rel.select(&view.sel);
    if view.sel.as_range() != Some(0..view.rel.rows()) {
        exec.bytes += relation.byte_size() as u64;
    }
    Ok((
        ExecOutput {
            relation,
            pipeline: exec.stats,
            bytes_materialised: exec.bytes,
        },
        exec.obs.map(|c| c.nodes).unwrap_or_default(),
    ))
}

/// Identity of a plan node for the duration of one execution: the plan
/// tree is borrowed immutably for the whole run, so a node's address is
/// stable.
fn node_id(plan: &PhysicalPlan) -> usize {
    plan as *const PhysicalPlan as usize
}

/// Per-node metrics sink for an instrumented execution, mapping nodes to
/// their pre-order index so the metrics vector zips with the rendered
/// plan.
struct OpCollector {
    ids: HashMap<usize, usize>,
    nodes: Vec<OperatorMetrics>,
}

impl OpCollector {
    fn new(root: &PhysicalPlan) -> Self {
        let pre = root.preorder();
        let ids = pre
            .iter()
            .enumerate()
            .map(|(i, p)| (node_id(p), i))
            .collect();
        OpCollector {
            ids,
            nodes: vec![OperatorMetrics::default(); pre.len()],
        }
    }

    fn slot(&mut self, plan: &PhysicalPlan) -> Option<&mut OperatorMetrics> {
        let id = *self.ids.get(&node_id(plan))?;
        Some(&mut self.nodes[id])
    }

    fn record(&mut self, plan: &PhysicalPlan, rows_out: u64, wall: Duration, stats: PipelineStats) {
        if let Some(m) = self.slot(plan) {
            m.rows_out = rows_out;
            m.wall = wall;
            m.stats = stats;
        }
    }
}

/// What one plan node hands the next: the rows `sel` of `rel`, in `sel`'s
/// order.
struct View<'a> {
    rel: Relation,
    sel: Selection,
    /// The catalog entry whose exact column statistics still cover `rel`'s
    /// columns: set by scans, kept by everything that only narrows,
    /// reorders or projects, dropped where new columns are computed.
    stats: Option<Arc<TableEntry>>,
    /// Bounds filters have put on `u32` columns: every selected row has
    /// `lo <= column <= hi`.
    known: Vec<(&'a str, u32, u32)>,
}

impl View<'_> {
    /// Every row of a freshly computed relation.
    fn of(rel: Relation) -> Self {
        View {
            sel: Selection::all(rel.rows()),
            rel,
            stats: None,
            known: Vec::new(),
        }
    }

    /// A covering `[min, max]` for `column` over the selected rows: the
    /// catalog's exact range of the base column, tightened by the bounds
    /// filters have put on it. SPHG and SPHJ emit occupied slots only, so
    /// any covering domain gives the answer the exact one would. `None`
    /// when the columns are not a base table's.
    fn domain(&self, column: &str) -> Option<(u32, u32)> {
        let props = self.props(column)?;
        let (mut lo, mut hi) = (props.min, props.max);
        for &(_, l, h) in self.known.iter().filter(|k| k.0 == column) {
            (lo, hi) = (lo.max(l), hi.min(h));
        }
        // Contradictory bounds select no row; every domain covers none.
        Some((lo, hi.max(lo)))
    }

    /// The catalog's exact statistics of the base column `column`; `None`
    /// when the columns are not a base table's.
    fn props(&self, column: &str) -> Option<&DataProps> {
        self.stats.as_ref()?.column_props.get(column)
    }

    /// The catalog's dense codes of the base column `column`, which a plan
    /// that reads them was planned against; an error when the columns are
    /// not a base table's or the column has none.
    fn codes(&self, column: &str) -> Result<&KeyCodes> {
        let codes = self.stats.as_ref().and_then(|e| e.key_codes.get(column));
        codes.map(|c| &**c).ok_or_else(|| {
            CoreError::Exec(ExecError::PreconditionViolated {
                algorithm: "SPHG",
                detail: format!("no key codes for {column}"),
            })
        })
    }

    /// Whether the base column `column` ascends, by the catalog's exact
    /// statistics — and so ascends within each range of a `Ranges`
    /// selection, whose every range is a run of base rows (a scan, a
    /// pruned partition scan, a limit, a search), in any range order.
    fn ascending(&self, column: &str) -> bool {
        self.props(column)
            .is_some_and(|p| p.sortedness == Sortedness::Ascending)
    }

    /// Whether HG/SPHG should fold `column`'s runs of equal keys rather
    /// than its rows: the column ascends over the ranges of a `Ranges`
    /// selection, and its runs average at least [`MIN_RUN`] rows. The run
    /// fold costs a comparison per row and a merge per run, so the average
    /// run — the base column's `rows / distinct`, which a search or a
    /// pruned scan keeps because it keeps whole runs — decides.
    fn long_runs(&self, column: &str) -> bool {
        matches!(self.sel, Selection::Ranges(_))
            && self.ascending(column)
            && self
                .props(column)
                .is_some_and(|p| p.rows >= MIN_RUN * p.distinct)
    }
}

/// The state of one execution.
struct Exec<'a> {
    catalog: &'a Catalog,
    avs: Option<&'a AvCatalog>,
    pool: &'a dyn Fn() -> Arc<PersistentPool>,
    /// The columns each `Join` node's output must carry (see [`join_needs`]).
    needs: HashMap<usize, Vec<&'a str>>,
    /// The rows a `Limit` keeps of each `Sort` beneath it (see [`sort_under`]).
    tops: HashMap<usize, usize>,
    stats: PipelineStats,
    bytes: u64,
    obs: Option<OpCollector>,
}

impl<'a> Exec<'a> {
    /// Execute one node — on `tp` when an `Exchange` above asked for it
    /// and the operator has a parallel kernel, serially otherwise —
    /// recording its [`OperatorMetrics`] when instrumented. Untraced, this
    /// costs one branch per node, not a clock read.
    fn run(&mut self, plan: &'a PhysicalPlan, tp: Option<&ThreadPool>) -> Result<View<'a>> {
        if self.obs.is_none() {
            return self.op(plan, tp);
        }
        let began = Instant::now();
        let before = self.stats;
        let view = self.op(plan, tp)?;
        let delta = self.stats.since(&before);
        if let Some(c) = self.obs.as_mut() {
            c.record(plan, view.sel.len() as u64, began.elapsed(), delta);
        }
        Ok(view)
    }

    /// Account `bytes` of column data `plan` copied into new buffers.
    fn copied(&mut self, plan: &PhysicalPlan, bytes: usize) {
        self.bytes += bytes as u64;
        if let Some(m) = self.obs.as_mut().and_then(|c| c.slot(plan)) {
            m.bytes_materialised += bytes as u64;
        }
    }

    /// What the filter node `filter` does before its narrowing kernel, run
    /// as a node or fused into a loader: it streams `view`'s rows, puts
    /// `predicate`'s bounds on the view, and answers by binary search each
    /// conjunct a search can, cutting the view's selection. Returns the
    /// conjuncts left for the kernel.
    fn filter(
        &mut self,
        filter: &PhysicalPlan,
        view: &mut View<'a>,
        predicate: &'a Predicate,
    ) -> Vec<&'a Predicate> {
        self.stats
            .record(Blocking::Pipelined, view.sel.len() as u64);
        tighten(&mut view.known, predicate);
        let mut left = leaves(predicate);
        self.search(filter, view, &mut left);
        left
    }

    /// Answer by binary search each of `filter`'s conjuncts that a search
    /// can answer — over a `Ranges` selection, a `u32` comparison other
    /// than `<>` on a `u32` column the catalog calls ascending — and drop
    /// it from `conjuncts`, leaving the rest to the narrowing kernel; the
    /// searches cut `view`'s selection. Records how many were searched on
    /// the filter's metrics.
    fn search(
        &mut self,
        filter: &PhysicalPlan,
        view: &mut View<'_>,
        conjuncts: &mut Vec<&Predicate>,
    ) {
        let Selection::Ranges(ranges) = &view.sel else {
            return;
        };
        let total = conjuncts.len();
        let mut cut: Option<Vec<Range<usize>>> = None;
        conjuncts.retain(|c| match c {
            Predicate::Compare {
                column,
                op,
                value: Value::U32(v),
            } if view.ascending(column) => match (within(*op, *v), view.rel.column(column)) {
                (Some(bounds), Ok(Column::U32(data))) => {
                    search_ranges(cut.get_or_insert_with(|| ranges.clone()), data, bounds);
                    false
                }
                _ => true,
            },
            _ => true,
        });
        let searched = total - conjuncts.len();
        if let Some(m) = self.obs.as_mut().and_then(|c| c.slot(filter)) {
            m.searched = (searched > 0).then_some((searched, total));
        }
        if let Some(cut) = cut {
            view.sel = Selection::Ranges(cut);
        }
    }

    /// `col` through `sel` for a kernel that needs the whole column at
    /// once: the dense slice itself, or a compacted copy in `buf`.
    fn read<'s>(
        &mut self,
        plan: &PhysicalPlan,
        sel: &Selection,
        col: &'s [u32],
        buf: &'s mut Vec<u32>,
    ) -> &'s [u32] {
        let data = sel.read(col, buf);
        if sel.as_range().is_none() {
            self.copied(plan, std::mem::size_of_val(data));
        }
        data
    }

    fn scan(&mut self, entry: Arc<TableEntry>, sel: Selection) -> View<'a> {
        self.stats.record(Blocking::Pipelined, sel.len() as u64);
        View {
            rel: entry.relation.as_ref().clone(),
            sel,
            stats: Some(entry),
            known: Vec::new(),
        }
    }

    fn op(&mut self, plan: &'a PhysicalPlan, tp: Option<&ThreadPool>) -> Result<View<'a>> {
        match plan {
            PhysicalPlan::Scan { table } => {
                let entry = self.catalog.get(table)?;
                let rows = entry.relation.rows();
                Ok(self.scan(entry, Selection::all(rows)))
            }
            PhysicalPlan::PartitionedScan { table, parts, .. } => {
                let entry = self.catalog.get(table)?;
                // The surviving partitions are row ranges of the flat
                // relation, one segment per partition range, in flat row
                // order: a scan of all partitions is the flat scan, a
                // pruned scan is the flat scan minus the pruned rows —
                // nothing is copied either way, and morsels cut from the
                // ranges never cross a partition boundary. Without a
                // partition map (spec dropped by a re-register) the scan
                // degrades to the full flat scan, which is always sound.
                let sel = match &entry.partitioning {
                    Some(p) => Selection::Ranges(
                        p.flat_order_segments(parts)
                            .into_iter()
                            .map(|(s, e)| s..e)
                            .collect(),
                    ),
                    None => Selection::all(entry.relation.rows()),
                };
                Ok(self.scan(entry, sel))
            }
            PhysicalPlan::Filter { input, predicate } => {
                let mut view = self.run(input, None)?;
                let left = self.filter(plan, &mut view, predicate);
                view.sel = narrow(&view.sel, &compile(&view.rel, left)?, tp)?;
                Ok(view)
            }
            PhysicalPlan::Project { input, columns } => {
                let mut view = self.run(input, None)?;
                let names: Vec<&str> = columns.iter().map(String::as_str).collect();
                view.rel = view.rel.project(&names)?;
                Ok(view)
            }
            PhysicalPlan::Sort {
                input,
                key,
                molecule,
            } => {
                let mut view = self.run(input, None)?;
                let mut buf = Vec::new();
                let keys = self.read(plan, &view.sel, view.rel.column(key)?.as_u32()?, &mut buf);
                // The argsort of the selected keys is a permutation *of
                // the selection*; no column moves. Under a `Limit` that
                // cuts it, only the first `n` positions are found.
                let top = self.tops.get(&node_id(plan)).filter(|&&n| n < keys.len());
                let order = match (tp, top, molecule) {
                    (Some(tp), Some(&n), _) => {
                        let (order, par) =
                            dqo_parallel::parallel_top_n(tp, keys, n, DEFAULT_MORSEL_ROWS)
                                .map_err(ExecError::from)?;
                        self.stats.merge(&par);
                        order
                    }
                    (Some(tp), None, _) => {
                        let (order, par) =
                            dqo_parallel::parallel_argsort(tp, keys, *molecule, &view.sel.bounds())
                                .map_err(ExecError::from)?;
                        self.stats.merge(&par);
                        order
                    }
                    (None, Some(&n), _) => top_n(keys, n),
                    (None, None, SortMolecule::Comparison) => argsort(keys),
                    (None, None, SortMolecule::Radix) => {
                        let mut pairs: Vec<(u32, u32)> = keys.iter().copied().zip(0..).collect();
                        radix_sort_pairs_by_key(&mut pairs);
                        pairs.into_iter().map(|(_, i)| i).collect()
                    }
                };
                if tp.is_none() {
                    self.stats.record(Blocking::FullBreaker, keys.len() as u64);
                }
                view.sel = Selection::Rows(view.sel.pick(order));
                Ok(view)
            }
            PhysicalPlan::Join { .. } => {
                let join = JoinNode::of(plan).expect("a Join node");
                self.join(join, tp)
            }
            PhysicalPlan::GroupBy {
                input,
                keys,
                aggs,
                algo,
                molecules,
            } => self.group_by(plan, input, keys, aggs, *algo, *molecules, tp),
            PhysicalPlan::Limit { input, n } => {
                let n = usize::try_from(*n).unwrap_or(usize::MAX);
                if let Some(sort) = sort_under(input) {
                    self.tops.insert(node_id(sort), n);
                }
                let mut view = self.run(input, None)?;
                view.sel.truncate(n);
                Ok(view)
            }
            PhysicalPlan::Exchange { input, dop } => {
                // An operator outside the kernel list runs serially.
                if !input.has_parallel_kernel() {
                    return self.run(input, None);
                }
                // A cheap handle: DOP for this Exchange, dispatch onto the
                // session's persistent pool. When instrumented, a
                // per-batch observation sink captures morsel and steal
                // counts for this subtree without touching the shared
                // pool's registry.
                let mut handle = ThreadPool::with_pool(*dop, (self.pool)());
                let batch_obs = self.obs.as_ref().map(|_| Arc::new(BatchObs::default()));
                if let Some(b) = &batch_obs {
                    handle = handle.with_obs(Arc::clone(b));
                }
                let view = self.run(input, Some(&handle))?;
                if let (Some(b), Some(m)) =
                    (batch_obs, self.obs.as_mut().and_then(|c| c.slot(plan)))
                {
                    m.dop = Some(*dop);
                    m.morsels = b.tasks();
                    m.steals = b.steals();
                }
                Ok(view)
            }
        }
    }
}

impl<'a> Exec<'a> {
    /// The index an HJ or SPHJ probes, for a join node and a fused grouping
    /// alike: the prebuilt SPH-index AV when the build side scans the
    /// indexed table whole, whatever the algorithm; else one built over
    /// `l`, the build side's rows, with the slot map the algorithm names —
    /// hashed for HJ, identity over the build domain for SPHJ (an empty
    /// build side gives an index nothing matches). A prebuilt index
    /// streams its `probe_rows`; a fresh build is a breaker over both
    /// sides.
    fn join_index(
        &mut self,
        join: &JoinNode<'_>,
        l: &View<'_>,
        probe_rows: usize,
    ) -> Result<Arc<JoinIndex>> {
        let prebuilt = match (self.avs, join.left) {
            (Some(avs), PhysicalPlan::Scan { table }) => avs
                .lookup(table, join.left_key, AvKind::SphIndex)
                .and_then(|av| match &av.artifact {
                    Some(AvArtifact::SphIndex(idx)) => Some(Arc::clone(idx)),
                    _ => None,
                }),
            _ => None,
        };
        if let Some(index) = prebuilt {
            self.stats.record(Blocking::Pipelined, probe_rows as u64);
            return Ok(index);
        }
        let lcol = l.rel.column(join.left_key)?.as_u32()?;
        let mut buf = Vec::new();
        let lk = self.read(join.node, &l.sel, lcol, &mut buf);
        let rows = lk.len() + probe_rows;
        self.stats.record(join_blocking(join.algo), rows as u64);
        let index = match join.algo {
            JoinAlgorithm::StaticPerfectHash => {
                let (min, max) = l
                    .domain(join.left_key)
                    .or_else(|| min_max(&l.sel, lcol))
                    .unwrap_or((0, 0));
                JoinIndex::identity(lk, min, max)?
            }
            _ => JoinIndex::hashed(lk),
        };
        Ok(Arc::new(index))
    }

    /// A join node. HJ and SPHJ run the loader [`Exec::source`] sets up
    /// for their index, with no conjuncts, over the pieces of the probe
    /// side's selection — on `tp`'s workers, else on the caller thread —
    /// and collect the `(build, probe)` row ids it names. The other joins
    /// read both key columns through the selections and answer in
    /// selection coordinates.
    fn join(&mut self, join: JoinNode<'a>, tp: Option<&ThreadPool>) -> Result<View<'a>> {
        let (plan, algo) = (join.node, join.algo);
        let (l, r, li, ri) = if join.indexed() {
            let mut inputs = None;
            let fused = Fused {
                join: Some(join),
                ..Fused::plain(plan)
            };
            let source = self.source(&fused, &mut inputs, None)?;
            let pieces = source.sel.pieces(DEFAULT_MORSEL_ROWS);
            let ran = Counters::default();
            let pairs = per_piece(tp, pieces.len(), |t| {
                let (mut build, mut probe) = (Vec::new(), Vec::new());
                let sink = &mut |rows: Rows<'_>| {
                    if let Rows::Pairs { keys, values } = rows {
                        build.extend_from_slice(keys);
                        probe.extend_from_slice(values);
                    }
                };
                source.load(&pieces[t], &mut Scratch::default(), sink, &ran)?;
                Ok((build, probe))
            })?;
            let (li, ri): (Vec<Vec<u32>>, Vec<_>) = pairs.into_iter().unzip();
            let Inputs { probe, build, .. } = inputs.expect("the source ran the join's sides");
            let build = build.expect("an indexed join has a build side").view;
            (build, probe, li.concat(), ri.concat())
        } else {
            let l = self.run(join.left, None)?;
            let r = self.run(join.right, None)?;
            let (mut lbuf, mut rbuf) = (Vec::new(), Vec::new());
            let rcol = r.rel.column(join.right_key)?.as_u32()?;
            let rk = self.read(plan, &r.sel, rcol, &mut rbuf);
            let lcol = l.rel.column(join.left_key)?.as_u32()?;
            let lk = self.read(plan, &l.sel, lcol, &mut lbuf);
            let sort = SortMolecule::Comparison;
            let (result, par) = match (tp, algo) {
                (Some(tp), JoinAlgorithm::SortOrderBased) => {
                    dqo_parallel::parallel_sort_merge_join(tp, lk, rk, sort, &l.sel.bounds())?
                }
                _ => {
                    let mut stats = PipelineStats::default();
                    stats.record(join_blocking(algo), (lk.len() + rk.len()) as u64);
                    (run_join(algo, lk, rk, &JoinHints::default())?, stats)
                }
            };
            self.stats.merge(&par);
            let (li, ri) = (l.sel.pick(result.left_rows), r.sel.pick(result.right_rows));
            (l, r, li, ri)
        };
        // Join output: gather, from either side, the columns something
        // above this node reads — under the qualified join schema, `Str`
        // dictionaries carried across (codes are copied verbatim).
        let schema = l.rel.schema().join(r.rel.schema(), "right")?;
        let need = self.needs.get(&node_id(plan));
        let wanted = |f: &Field| need.is_none_or(|n| n.contains(&f.name.as_str()));
        let mut keep: Vec<usize> = (0..schema.width())
            .filter(|&i| wanted(&schema.fields()[i]))
            .collect();
        if keep.is_empty() {
            // Nothing above reads a column; one still carries the row count.
            keep.push(0);
        }
        let width_left = l.rel.schema().width();
        let (mut fields, mut columns, mut dicts) = (Vec::new(), Vec::new(), Vec::new());
        for i in keep {
            let (side, rows, at) = match i.checked_sub(width_left) {
                None => (&l.rel, &li, i),
                Some(at) => (&r.rel, &ri, at),
            };
            columns.push(side.column_at(at)?.gather(rows));
            dicts.push(side.dictionary_at(at)?.cloned());
            fields.push(schema.fields()[i].clone());
        }
        let rel = assemble(fields, columns, dicts)?;
        self.copied(plan, rel.byte_size());
        Ok(View::of(rel))
    }

    #[allow(clippy::too_many_arguments)]
    fn group_by(
        &mut self,
        plan: &'a PhysicalPlan,
        input: &'a PhysicalPlan,
        keys: &[String],
        aggs: &[AggExpr],
        algo: GroupingAlgorithm,
        molecules: GroupingMolecules,
        tp: Option<&ThreadPool>,
    ) -> Result<View<'a>> {
        let hashed = matches!(
            algo,
            GroupingAlgorithm::HashBased | GroupingAlgorithm::StaticPerfectHash
        );
        let fused = Fused::under(input)
            .filter(|_| keys.len() == 1 && hashed)
            .unwrap_or_else(|| Fused::plain(input));
        let grouping = Grouping {
            algo,
            codes: molecules.codes,
            table: HgTable::of(molecules),
            sort: molecules.sort.unwrap_or(SortMolecule::Comparison),
            tp,
            // A serial grouping still loads on the pool an absorbed
            // `Exchange` asked for.
            feed: match (tp, fused.dop()) {
                (None, Some(dop)) => Some(ThreadPool::with_pool(dop, (self.pool)())),
                _ => None,
            },
        };
        if let [key] = keys {
            // Single key: the kernels read the raw column — or its codes —
            // at the rows the loader names (see `Exec::source`).
            let mut inputs = None;
            let source = self.source(&fused, &mut inputs, Some((&grouping, key.as_str(), aggs)))?;
            let (mut result, ran) = self.grouped(plan, &grouping, &source, aggs)?;
            if let Some(codes) = source.codes {
                codes.decode(&mut result.keys);
            }
            let inputs = inputs.expect("the source ran the grouping's input");
            let (_, view, name) = inputs.column(key)?;
            let field = Field::new(key, view.rel.schema().field(name)?.data_type);
            let layout = (field, view.rel.dictionary(name)?.cloned());
            // A fused join's filter streams the pairs its probe found.
            if fused.join.is_some() && fused.filter.is_some() {
                self.stats.record(Blocking::Pipelined, ran.pairs);
            }
            if let Some(c) = self.obs.as_mut() {
                fused.record(c, inputs.below, &ran, grouping.workers());
            }
            return Ok(View::of(grouped_to_relation(
                &[layout],
                vec![result.keys],
                aggs,
                &result.states,
            )?));
        }

        // Composite key: compact the key columns through the selection,
        // pack them into the u32 code domain where the per-column widths
        // allow, and run the very same single-column kernels on the packed
        // codes; otherwise fall back to the row-wise kernel.
        let view = self.run(input, None)?;
        let (rel, sel) = (&view.rel, &view.sel);
        let layouts = key_layouts(rel, keys)?;
        let key_cols: Vec<&[u32]> = keys
            .iter()
            .map(|k| Ok(rel.column(k)?.as_u32()?))
            .collect::<Result<_>>()?;
        let values = match agg_input_column(aggs)? {
            Some(name) => rel.column(name)?.as_u32()?,
            None => key_cols[0],
        };
        let mut bufs = vec![Vec::new(); keys.len() + 1];
        let (vbuf, kbufs) = bufs.split_last_mut().expect("keys.len() + 1 buffers");
        let values = self.read(plan, sel, values, vbuf);
        let key_cols: Vec<&[u32]> = key_cols
            .iter()
            .zip(kbufs.iter_mut())
            .map(|(col, buf)| self.read(plan, sel, col, buf))
            .collect();
        let out = match KeyPacker::fit(&key_cols) {
            Some(packer) => {
                let packed = packer.pack(&key_cols);
                self.copied(plan, std::mem::size_of_val(&packed[..]));
                let all = Selection::all(packed.len());
                let source = Source {
                    sel: &all,
                    conjuncts: Vec::new(),
                    probe: None,
                    keys: Side::Probe(&packed),
                    values: Some(Side::Probe(values)),
                    ascending: false,
                    codes: None,
                    domain: None,
                };
                let (result, _) = self.grouped(plan, &grouping, &source, aggs)?;
                let (cols, states) = unpack_grouped(&packer, result);
                grouped_to_relation(&layouts, cols, aggs, &states)?
            }
            None => {
                let (cols, states) = rowwise_group(&key_cols, values, FullAgg);
                self.stats
                    .record(Blocking::FullBreaker, values.len() as u64);
                grouped_to_relation(&layouts, cols, aggs, &states)?
            }
        };
        Ok(View::of(out))
    }

    /// The one place a fused input becomes a loader: for a single-key
    /// grouping by `key` under `aggs` (`group`), or for a join node no
    /// grouping fused (`None`: the loader names each pair's build and probe
    /// rows). Runs the filter's input, or the join's sides and takes its
    /// index (see [`Exec::join_index`]); splits the filter's conjuncts by
    /// side — with no join all are the probe side's, searched first (see
    /// [`Exec::filter`]); resolves the key and value columns to their
    /// sides, and takes the codes and the domain from the key's. `slot`
    /// keeps the inputs the loader reads.
    fn source<'s>(
        &mut self,
        fused: &Fused<'a>,
        slot: &'s mut Option<Inputs<'a>>,
        group: Option<(&Grouping<'_>, &str, &[AggExpr])>,
    ) -> Result<Source<'s>> {
        let began = Instant::now();
        let before = self.stats;
        let (mut probe, build) = match &fused.join {
            Some(join) => {
                let l = self.run(join.left, None)?;
                let r = self.run(join.right, None)?;
                let index = self.join_index(join, &l, r.sel.len())?;
                let schema = l.rel.schema().join(r.rel.schema(), "right")?;
                (
                    r,
                    Some(Build {
                        view: l,
                        index,
                        schema,
                    }),
                )
            }
            None => (self.run(fused.input, None)?, None),
        };
        let below = OperatorMetrics {
            rows_out: probe.sel.len() as u64,
            wall: began.elapsed(),
            stats: self.stats.since(&before),
            ..OperatorMetrics::default()
        };
        let left = match (fused.filter, &build) {
            (Some((filter, predicate)), None) => self.filter(filter, &mut probe, predicate),
            (Some((_, predicate)), Some(_)) => leaves(predicate),
            (None, _) => Vec::new(),
        };
        let inputs = slot.insert(Inputs {
            probe,
            build,
            split: Default::default(),
            below,
        });
        inputs.split = inputs.by_side(left)?;
        let inputs: &'s Inputs<'a> = inputs;
        let probe = &inputs.probe;
        let conjuncts = compile(&probe.rel, &inputs.split[1])?;
        let join = fused.join.as_ref().zip(inputs.build.as_ref());
        let joined = match join {
            Some((join, build)) => Some(Probe {
                index: &build.index,
                on: probe.rel.column(join.right_key)?.as_u32()?,
                rows: RowsOf::new(&build.view.sel),
                conjuncts: compile(&build.view.rel, &inputs.split[0])?,
            }),
            None => None,
        };
        let Some((how, key, aggs)) = group else {
            let (join, build) = join.expect("a join node has both sides");
            return Ok(Source {
                sel: &probe.sel,
                conjuncts,
                keys: Side::Build(build.view.rel.column(join.left_key)?.as_u32()?),
                values: joined.as_ref().map(|p| Side::Probe(p.on)),
                probe: joined,
                ascending: false,
                codes: None,
                domain: None,
            });
        };
        let (on_build, view, name) = inputs.column(key)?;
        let data = view.rel.column(name)?.as_u32()?;
        let codes = how.codes.then(|| view.codes(name)).transpose()?;
        // A covering domain: the codes', else the statistics'. Build-side
        // keys without statistics have their range folded here — the fold
        // folds it through the probe side's selection.
        let domain = match codes {
            Some(codes) => Some(codes.domain()),
            None => view
                .domain(name)
                .or_else(|| on_build.then(|| min_max(&view.sel, data).unwrap_or((0, 0)))),
        };
        let keys = inputs.side(key)?;
        Ok(Source {
            sel: &probe.sel,
            // A conjunct left for the loader thins each run by a share not
            // known here, so only an input no conjunct narrows folds runs.
            ascending: conjuncts.is_empty() && join.is_none() && probe.long_runs(key),
            conjuncts,
            probe: joined,
            keys: codes.map_or(keys, |c| keys.with(c.codes())),
            values: match agg_input_column(aggs)? {
                Some(value) if value != key || codes.is_some() => Some(inputs.side(value)?),
                _ => None,
            },
            codes,
            domain,
        })
    }

    /// Group the rows `src` loads under `how`, into the narrowest state
    /// `aggs` reads: COUNT/SUM's unless a MIN or MAX needs [`FullAgg`]'s,
    /// widened only for the output (see [`widen`]).
    fn grouped(
        &mut self,
        plan: &PhysicalPlan,
        how: &Grouping<'_>,
        src: &Source<'_>,
        aggs: &[AggExpr],
    ) -> Result<(GroupedResult<FullAggState>, FusedRun)> {
        if aggs
            .iter()
            .any(|a| matches!(a.func, AggFunc::Min | AggFunc::Max))
        {
            return self.fold(plan, how, src, FullAgg);
        }
        let (result, ran) = self.fold(plan, how, src, CountSum)?;
        let result = GroupedResult {
            keys: result.keys,
            states: result.states.into_iter().map(widen).collect(),
            sorted_by_key: result.sorted_by_key,
        };
        Ok((result, ran))
    }

    /// Group the rows `src` loads under `how` and `agg`. HG and SPHG fold
    /// the pieces of the selection as the loader delivers them, reading
    /// the key and value columns at the rows it names: in tasks on the
    /// grouping's pool, else on the caller thread, in piece order — loaded
    /// first on the `feed` pool of an `Exchange` a serial grouping
    /// absorbed. SOG, OG and BSG read whole columns through the selection.
    fn fold<A: Aggregator>(
        &mut self,
        plan: &PhysicalPlan,
        how: &Grouping<'_>,
        src: &Source<'_>,
        agg: A,
    ) -> Result<(GroupedResult<A::State>, FusedRun)> {
        let strategy = match how.algo {
            GroupingAlgorithm::HashBased => GroupingStrategy::Hash(how.table),
            GroupingAlgorithm::StaticPerfectHash => {
                // Without statistics (a column computed by a join or a
                // grouping) the domain is folded from the column itself,
                // through the selection.
                let (min, max) = src
                    .domain
                    .or_else(|| min_max(src.sel, src.keys.data()))
                    .unwrap_or((0, 0));
                GroupingStrategy::StaticPerfectHash { min, max }
            }
            _ => return Ok((self.whole_column(plan, how, src, agg)?, FusedRun::default())),
        };
        // Each piece is narrowed (and probed) into row ids, and the fold
        // reads the columns at them — a dense run in place, run by run
        // when its keys ascend.
        let ascending = src.ascending;
        let columns = src.columns();
        let timed = self.obs.is_some();
        let pieces = src.sel.pieces(DEFAULT_MORSEL_ROWS);
        let ran = Counters::default();
        let load = |t: usize, scratch: &mut Scratch, sink: Sink<'_>| {
            let began = timed.then(Instant::now);
            src.load(&pieces[t], scratch, sink, &ran)?;
            ran.time(began);
            Ok(())
        };
        let (result, par) = match &how.feed {
            Some(feed) => {
                let held = per_piece(Some(feed), pieces.len(), |t| {
                    let mut held = Vec::new();
                    let sink = &mut |rows: Rows<'_>| held.push(Held::of(rows));
                    load(t, &mut Scratch::default(), sink).map(|()| held)
                })?;
                let held: Vec<Held> = held.into_iter().flatten().collect();
                let fold = |t: usize, _: &mut Scratch, sink: Sink<'_>| {
                    sink(held[t].rows());
                    Ok(())
                };
                let tasks = held.len();
                dqo_parallel::parallel_grouping_tasks(
                    None, tasks, agg, strategy, ascending, columns, fold,
                )?
            }
            None => {
                let tasks = pieces.len();
                dqo_parallel::parallel_grouping_tasks(
                    how.tp, tasks, agg, strategy, ascending, columns, load,
                )?
            }
        };
        self.stats.merge(&par);
        Ok((result, ran.run(pieces.len())))
    }

    /// SOG, OG and BSG over whole key and value columns, read through the
    /// selection (SOG in parallel when the grouping has a pool).
    fn whole_column<A: Aggregator>(
        &mut self,
        plan: &PhysicalPlan,
        how: &Grouping<'_>,
        src: &Source<'_>,
        agg: A,
    ) -> Result<GroupedResult<A::State>> {
        let (mut kbuf, mut vbuf) = (Vec::new(), Vec::new());
        let keys = self.read(plan, src.sel, src.keys.data(), &mut kbuf);
        let values = match src.values {
            Some(v) => self.read(plan, src.sel, v.data(), &mut vbuf),
            None => keys,
        };
        let result = match (how.tp, how.algo) {
            (Some(tp), _) => {
                let bounds = src.sel.bounds();
                let (result, par) =
                    dqo_parallel::parallel_sog(tp, keys, values, agg, how.sort, &bounds)?;
                self.stats.merge(&par);
                return Ok(result);
            }
            (None, GroupingAlgorithm::SortOrderBased) => {
                sort_order_grouping(keys, values, agg, how.sort)
            }
            (None, algo) => execute_grouping(algo, keys, values, agg, &GroupingHints::default())?,
        };
        self.stats
            .record(grouping_blocking(how.algo), keys.len() as u64);
        Ok(result)
    }
}

/// A COUNT/SUM state as the output assembly reads it. Only a query with no
/// MIN or MAX folds one, so the extrema keep the empty state's values.
fn widen(s: CountSumState) -> FullAggState {
    FullAggState {
        count: s.count,
        sum: s.sum,
        ..FullAggState::default()
    }
}

/// A task's rows kept past the loader that named them, for a serial fold
/// that runs after the `feed` pool loaded every piece.
enum Held {
    Range(Range<usize>),
    Ids(Vec<u32>),
    Pairs(Vec<u32>, Vec<u32>),
}

impl Held {
    fn of(rows: Rows<'_>) -> Self {
        match rows {
            Rows::Piece(Piece::Range(r)) => Held::Range(r),
            Rows::Piece(Piece::Rows(ids)) => Held::Ids(ids.to_vec()),
            Rows::Pairs { keys, values } => Held::Pairs(keys.to_vec(), values.to_vec()),
        }
    }

    fn rows(&self) -> Rows<'_> {
        match self {
            Held::Range(r) => Rows::Piece(Piece::Range(r.clone())),
            Held::Ids(ids) => Rows::Piece(Piece::Rows(ids)),
            Held::Pairs(keys, values) => Rows::Pairs { keys, values },
        }
    }
}

/// How a `GroupBy` node groups: the organelle, whether it reads the key's
/// codes, the HG table and SOG sort molecules, the pool handle when an
/// `Exchange` asked for morsel parallelism, and — only for a serial
/// grouping that absorbed an `Exchange` — the pool that loads its pieces.
struct Grouping<'t> {
    algo: GroupingAlgorithm,
    codes: bool,
    table: HgTable,
    sort: SortMolecule,
    tp: Option<&'t ThreadPool>,
    feed: Option<ThreadPool>,
}

impl Grouping<'_> {
    /// The workers that share the loader.
    fn workers(&self) -> usize {
        self.tp
            .or(self.feed.as_ref())
            .map_or(1, ThreadPool::threads)
    }
}

/// A column a fused grouping reads: of the relation whose selection its
/// tasks cut (the probe side of a fused join, or the grouping's only
/// input), or of a fused join's build side.
#[derive(Clone, Copy)]
enum Side<'s> {
    Probe(&'s [u32]),
    Build(&'s [u32]),
}

impl<'s> Side<'s> {
    fn data(self) -> &'s [u32] {
        match self {
            Side::Probe(data) | Side::Build(data) => data,
        }
    }

    /// A column of the same side, by the same row ids.
    fn with(self, data: &'s [u32]) -> Self {
        match self {
            Side::Probe(_) => Side::Probe(data),
            Side::Build(_) => Side::Build(data),
        }
    }
}

/// Where a single-key grouping, or a join node, reads its rows: the
/// pieces of `sel`, narrowed by a fused filter's `conjuncts` and, with a
/// join, probed into its build side.
struct Source<'s> {
    sel: &'s Selection,
    conjuncts: Vec<Conjunct<'s>>,
    probe: Option<Probe<'s>>,
    /// The key column; a join node's build key.
    keys: Side<'s>,
    /// The aggregate input, `None` aggregating the key column itself; a
    /// join node's probe key.
    values: Option<Side<'s>>,
    /// The keys ascend within every piece, in runs long enough that
    /// HG/SPHG fold runs of equal keys, not rows (see [`View::long_runs`]).
    ascending: bool,
    /// The catalog's codes `keys` reads in place of the key.
    codes: Option<&'s KeyCodes>,
    /// A covering `[min, max]` of the keys, when known before the fold.
    domain: Option<(u32, u32)>,
}

/// A fused input, run: the rows a loader cuts into pieces — a fused
/// join's probe side, else the filter's input — and a fused join's build
/// side.
struct Inputs<'a> {
    probe: View<'a>,
    build: Option<Build<'a>>,
    /// The filter's conjuncts on build-side columns, then on probe-side
    /// ones, each under its side's own column name.
    split: [Vec<Predicate>; 2],
    /// What running the inputs cost (and a fresh index's build), as the
    /// node beneath the filter reports it.
    below: OperatorMetrics,
}

/// A fused join's build side, the index it probes, and its output schema.
struct Build<'a> {
    view: View<'a>,
    index: Arc<JoinIndex>,
    schema: Schema,
}

impl<'a> Inputs<'a> {
    /// Where the input's column `name` lives: on the build side (`true`) or
    /// the probe side, under that side's own name. A join's output names
    /// its columns by the join schema; with no join, every column is the
    /// probe side's.
    fn column<'v: 'n, 'n>(&'v self, name: &'n str) -> Result<(bool, &'v View<'a>, &'n str)> {
        let Some(build) = &self.build else {
            return Ok((false, &self.probe, name));
        };
        let i = build.schema.index_of(name)?;
        let (l, r) = (&build.view, &self.probe);
        Ok(match i.checked_sub(l.rel.schema().width()) {
            None => (true, l, &l.rel.schema().fields()[i].name),
            Some(at) => (false, r, &r.rel.schema().fields()[at].name),
        })
    }

    /// The data of the input's `u32` column `name`, on its side.
    fn side(&self, name: &str) -> Result<Side<'_>> {
        let (build, view, name) = self.column(name)?;
        let data = view.rel.column(name)?.as_u32()?;
        Ok(if build {
            Side::Build(data)
        } else {
            Side::Probe(data)
        })
    }

    /// Split `conjuncts` by the side whose column each reads — build side
    /// first — each renamed to its side's own column name.
    fn by_side(&self, conjuncts: Vec<&Predicate>) -> Result<[Vec<Predicate>; 2]> {
        let mut split = [Vec::new(), Vec::new()];
        for conjunct in conjuncts {
            let mut leaf = conjunct.clone();
            if let Predicate::Compare { column, .. }
            | Predicate::Prefix { column, .. }
            | Predicate::Like { column, .. } = &mut leaf
            {
                let (build, _, name) = self.column(column)?;
                *column = name.to_string();
                split[usize::from(!build)].push(leaf);
            }
        }
        Ok(split)
    }
}

/// A fused join as its loader sees it.
struct Probe<'s> {
    index: &'s JoinIndex,
    /// The probe key column, by probe row.
    on: &'s [u32],
    /// The build row each index position stands for.
    rows: RowsOf<'s>,
    /// The fused filter's conjuncts on build-side columns.
    conjuncts: Vec<Conjunct<'s>>,
}

/// The row ids behind the positions of a selection: `start + p` for one
/// dense run, the listed ids otherwise.
enum RowsOf<'s> {
    Run(u32),
    Ids(std::borrow::Cow<'s, [u32]>),
}

impl<'s> RowsOf<'s> {
    fn new(sel: &'s Selection) -> Self {
        match (sel.as_range(), sel) {
            (Some(run), _) => RowsOf::Run(run.start as u32),
            (None, Selection::Rows(ids)) => RowsOf::Ids(ids.into()),
            (None, _) => RowsOf::Ids(sel.iter().collect::<Vec<_>>().into()),
        }
    }

    #[inline]
    fn row(&self, position: u32) -> u32 {
        match self {
            RowsOf::Run(start) => start + position,
            RowsOf::Ids(ids) => ids[position as usize],
        }
    }
}

impl<'s> Source<'s> {
    /// The key and value columns the fold reads at the rows `load` names.
    fn columns(&self) -> (&'s [u32], &'s [u32]) {
        let keys = self.keys.data();
        (keys, self.values.map_or(keys, Side::data))
    }

    /// Load one piece of the selection: narrow it by the conjuncts; for a
    /// fused join, probe each survivor in order and narrow the matches by
    /// the build-side conjuncts — the pairs the join and the filter above
    /// it would have emitted, in their order; then hand the rows of what
    /// survives to `sink` — the piece itself, or row ids in scratch —
    /// tallied in `ran`. No key or value is read here.
    fn load(
        &self,
        piece: &Piece<'_>,
        scratch: &mut Scratch,
        sink: Sink<'_>,
        ran: &Counters,
    ) -> std::result::Result<(), ExecError> {
        let mut piece = piece.clone();
        if !self.conjuncts.is_empty() {
            scratch.ids.clear();
            narrow_piece(&piece, &self.conjuncts, &mut scratch.ids)?;
            piece = match piece {
                Piece::Range(_) => Piece::ascending(&scratch.ids),
                Piece::Rows(_) => Piece::Rows(&scratch.ids),
            };
        }
        let Some(probe) = &self.probe else {
            ran.add(piece.len(), 0);
            sink(Rows::Piece(piece));
            return Ok(());
        };
        let (build, matched) = (&mut scratch.build, &mut scratch.probe);
        build.clear();
        matched.clear();
        let mut emit = |j: usize| {
            for &at in probe.index.matches(probe.on[j]) {
                build.push(probe.rows.row(at));
                matched.push(j as u32);
            }
        };
        match piece {
            Piece::Range(r) => r.for_each(&mut emit),
            Piece::Rows(ids) => ids.iter().for_each(|&j| emit(j as usize)),
        }
        let pairs = build.len();
        if !probe.conjuncts.is_empty() {
            narrow_pairs(&probe.conjuncts, build, matched, &mut scratch.ids)?;
        }
        ran.add(build.len(), pairs);
        let at = |side: Side<'_>| match side {
            Side::Probe(_) => &matched[..],
            Side::Build(_) => &build[..],
        };
        sink(Rows::Pairs {
            keys: at(self.keys),
            values: at(self.values.unwrap_or(self.keys)),
        });
        Ok(())
    }
}

/// Keep the pairs `(build[i], probe[i])` whose build row satisfies every
/// conjunct, in order. The narrowing kernel keeps the subsequence of
/// `build` whose rows pass into `kept`; a row passes or fails wherever it
/// occurs, so walking `build` and `kept` in step finds each kept pair.
fn narrow_pairs(
    conjuncts: &[Conjunct<'_>],
    build: &mut Vec<u32>,
    probe: &mut Vec<u32>,
    kept: &mut Vec<u32>,
) -> std::result::Result<(), ExecError> {
    kept.clear();
    narrow_piece(&Piece::Rows(build), conjuncts, kept)?;
    let mut next = kept.iter().peekable();
    let mut n = 0;
    for at in 0..build.len() {
        let row = build[at];
        if next.next_if_eq(&&row).is_some() {
            (build[n], probe[n]) = (build[at], probe[at]);
            n += 1;
        }
    }
    build.truncate(n);
    probe.truncate(n);
    Ok(())
}

/// What a loader did, summed across the tasks and workers that ran it.
#[derive(Default)]
struct Counters {
    /// Rows handed to the sink.
    rows: AtomicU64,
    /// Matches a probe found (rows entering the build-side conjuncts).
    pairs: AtomicU64,
    /// Summed loader time (measured only when instrumented).
    busy: AtomicU64,
}

impl Counters {
    fn add(&self, rows: usize, pairs: usize) {
        self.rows.fetch_add(rows as u64, Ordering::Relaxed);
        self.pairs.fetch_add(pairs as u64, Ordering::Relaxed);
    }

    fn time(&self, began: Option<Instant>) {
        if let Some(began) = began {
            self.busy
                .fetch_add(began.elapsed().as_nanos() as u64, Ordering::Relaxed);
        }
    }

    fn run(&self, pieces: usize) -> FusedRun {
        FusedRun {
            rows_out: self.rows.load(Ordering::Relaxed),
            pairs: self.pairs.load(Ordering::Relaxed),
            busy: Duration::from_nanos(self.busy.load(Ordering::Relaxed)),
            pieces: pieces as u64,
        }
    }
}

/// What a fused loader did inside the grouping's tasks.
#[derive(Default)]
struct FusedRun {
    /// Rows that reached the grouping: the fused filter's survivors.
    rows_out: u64,
    /// Matches a fused join's probe found.
    pairs: u64,
    /// Summed loader time across tasks (measured only when instrumented).
    busy: Duration,
    pieces: u64,
}

/// An `Exchange` absorbed into a fused grouping, with its DOP.
type Absorbed<'a> = Option<(&'a PhysicalPlan, usize)>;

/// A join node, as the executor or a grouping that fused it runs it.
struct JoinNode<'a> {
    node: &'a PhysicalPlan,
    left: &'a PhysicalPlan,
    right: &'a PhysicalPlan,
    left_key: &'a str,
    right_key: &'a str,
    algo: JoinAlgorithm,
}

impl<'a> JoinNode<'a> {
    /// `plan` as a join node, if it is a `Join`.
    fn of(plan: &'a PhysicalPlan) -> Option<Self> {
        match plan {
            PhysicalPlan::Join {
                left,
                right,
                left_key,
                right_key,
                algo,
            } => Some(JoinNode {
                node: plan,
                left,
                right,
                left_key,
                right_key,
                algo: *algo,
            }),
            _ => None,
        }
    }

    /// HJ and SPHJ: the joins that build a [`JoinIndex`] and probe it.
    fn indexed(&self) -> bool {
        matches!(
            self.algo,
            JoinAlgorithm::HashBased | JoinAlgorithm::StaticPerfectHash
        )
    }
}

/// The nodes a single-key HG/SPHG runs inside its own loader instead of as
/// nodes of their own, at any DOP: `[Exchange] [Filter] [Exchange] HJ`,
/// the same over SPHJ, and `[Exchange] Filter`. A loader that fuses
/// nothing reads its input node's output ([`Fused::plain`]); a join node's
/// own loader fuses just the join.
struct Fused<'a> {
    /// The `Exchange` directly beneath the grouping.
    upper: Absorbed<'a>,
    filter: Option<(&'a PhysicalPlan, &'a Predicate)>,
    /// The `Exchange` between the filter and the join.
    lower: Absorbed<'a>,
    join: Option<JoinNode<'a>>,
    /// Without a join, the filter's input, which still runs as a node.
    input: &'a PhysicalPlan,
}

impl<'a> Fused<'a> {
    /// A loader over `input`'s output, fusing nothing.
    fn plain(input: &'a PhysicalPlan) -> Self {
        Fused {
            upper: None,
            filter: None,
            lower: None,
            join: None,
            input,
        }
    }

    fn under(plan: &'a PhysicalPlan) -> Option<Self> {
        let exchange = |p: &'a PhysicalPlan| match p {
            PhysicalPlan::Exchange { input, dop } => (Some((p, *dop)), input.as_ref()),
            other => (None, other),
        };
        let (upper, node) = exchange(plan);
        let (filter, input) = match node {
            PhysicalPlan::Filter { input, predicate } => (Some((node, predicate)), input.as_ref()),
            other => (None, other),
        };
        let (lower, below) = exchange(input);
        match JoinNode::of(below).filter(JoinNode::indexed) {
            Some(join) => Some(Fused {
                upper,
                filter,
                lower,
                join: Some(join),
                input: below,
            }),
            _ => filter.is_some().then_some(Fused {
                upper,
                filter,
                lower: None,
                join: None,
                input,
            }),
        }
    }

    /// The DOP an absorbed `Exchange` asked for.
    fn dop(&self) -> Option<usize> {
        self.upper.or(self.lower).map(|(_, dop)| dop)
    }

    /// Record the absorbed nodes as they would have recorded themselves,
    /// bottom-up from `below` — the metrics of the node beneath the filter
    /// (the fused join's sides and build, or the filter's input). The
    /// loader's summed time, spread over the workers that shared it, is
    /// added once; the join reports the pairs its probe found, the filter
    /// its survivors, an `Exchange` what its child did plus its DOP and
    /// the pieces dispatched.
    fn record(&self, c: &mut OpCollector, mut m: OperatorMetrics, ran: &FusedRun, workers: usize) {
        m.wall += ran.busy / workers.max(1) as u32;
        let exchange = |c: &mut OpCollector, node: Absorbed<'_>, m: &OperatorMetrics| {
            if let Some((node, dop)) = node {
                c.record(node, m.rows_out, m.wall, m.stats);
                if let Some(slot) = c.slot(node) {
                    slot.dop = Some(dop);
                    slot.morsels = ran.pieces;
                }
            }
        };
        if let Some(join) = &self.join {
            m.rows_out = ran.pairs;
            c.record(join.node, m.rows_out, m.wall, m.stats);
            exchange(c, self.lower, &m);
        }
        if let Some((filter, _)) = self.filter {
            m.stats.record(Blocking::Pipelined, m.rows_out);
            m.rows_out = ran.rows_out;
            c.record(filter, m.rows_out, m.wall, m.stats);
        }
        exchange(c, self.upper, &m);
    }
}

/// Whether a single-key HG/SPHG over `input` reads `key` from a base
/// table's own rows, and that table keeps [`KeyCodes`] for it — so its
/// loader finds the codes where it reads the key: a `Scan` or
/// `PartitionedScan` through filters and exchanges, or the side holding
/// `key` of the HJ or SPHJ it fuses (see `Fused`), the build side when
/// both hold it. An AV relation and a materialised join output have no
/// codes.
pub(crate) fn reads_coded_key(catalog: &Catalog, input: &PhysicalPlan, key: &str) -> bool {
    fn scanned(plan: &PhysicalPlan) -> Option<&str> {
        match plan {
            PhysicalPlan::Filter { input, .. } | PhysicalPlan::Exchange { input, .. } => {
                scanned(input)
            }
            PhysicalPlan::Scan { table } | PhysicalPlan::PartitionedScan { table, .. } => {
                Some(table.as_str()).filter(|t| !t.starts_with("__av::"))
            }
            _ => None,
        }
    }
    let entry = |table: &str| catalog.get(table).ok();
    let table = match Fused::under(input).and_then(|f| f.join) {
        Some(join) => match scanned(join.left) {
            Some(l) if entry(l).is_some_and(|e| e.relation.schema().index_of(key).is_ok()) => {
                Some(l)
            }
            Some(_) => scanned(join.right),
            None => None,
        },
        None => scanned(input),
    };
    table
        .and_then(entry)
        .is_some_and(|e| e.key_codes.contains_key(key))
}

/// The `Sort` whose order a `Limit` over `plan` cuts: `plan` itself, or
/// one reached through `Exchange` and `Project`, which keep row order.
fn sort_under(plan: &PhysicalPlan) -> Option<&PhysicalPlan> {
    match plan {
        PhysicalPlan::Sort { .. } => Some(plan),
        PhysicalPlan::Exchange { input, .. } | PhysicalPlan::Project { input, .. } => {
            sort_under(input)
        }
        _ => None,
    }
}

/// The columns each `Join`'s output must carry, computed once, top-down:
/// what the nodes above it project, filter, group or sort on. A join whose
/// whole output reaches the root (or feeds another join) has no entry and
/// carries every column of both sides.
fn join_needs<'a>(
    plan: &'a PhysicalPlan,
    need: Option<Vec<&'a str>>,
    out: &mut HashMap<usize, Vec<&'a str>>,
) {
    let plus = |need: Option<Vec<&'a str>>, extra: Vec<&'a str>| {
        need.map(|mut n| {
            n.extend(extra);
            n
        })
    };
    match plan {
        PhysicalPlan::Scan { .. } | PhysicalPlan::PartitionedScan { .. } => {}
        PhysicalPlan::Filter { input, predicate } => {
            join_needs(input, plus(need, predicate.columns()), out)
        }
        PhysicalPlan::Sort { input, key, .. } => join_needs(input, plus(need, vec![key]), out),
        PhysicalPlan::Project { input, columns } => join_needs(
            input,
            Some(columns.iter().map(String::as_str).collect()),
            out,
        ),
        PhysicalPlan::GroupBy {
            input, keys, aggs, ..
        } => {
            let read = keys
                .iter()
                .chain(aggs.iter().filter_map(|a| a.column.as_ref()));
            join_needs(input, Some(read.map(String::as_str).collect()), out)
        }
        PhysicalPlan::Limit { input, .. } | PhysicalPlan::Exchange { input, .. } => {
            join_needs(input, need, out)
        }
        PhysicalPlan::Join { left, right, .. } => {
            out.extend(need.map(|n| (node_id(plan), n)));
            join_needs(left, None, out);
            join_needs(right, None, out);
        }
    }
}

// ---------------------------------------------------------------------------
// Filters: compiled conjuncts narrowing a selection
// ---------------------------------------------------------------------------

/// One conjunct of a filter predicate, bound to its column.
enum Conjunct<'r> {
    /// `u32` column against a `u32` constant — the dominant case.
    U32 { data: &'r [u32], op: CmpOp, v: u32 },
    /// Dictionary-encoded string column (comparison, prefix, `LIKE`): the
    /// predicate is evaluated once per *code* under real string order,
    /// regardless of how codes were assigned; rows look their code up.
    Code {
        codes: &'r [u32],
        hits: Vec<bool>,
        column: &'r str,
    },
    /// Any other column type against a constant, value by value.
    Slow {
        col: &'r Column,
        op: CmpOp,
        value: &'r Value,
        column: &'r str,
    },
}

/// The conjuncts of `pred`: its leaves, below any `And`.
fn leaves(pred: &Predicate) -> Vec<&Predicate> {
    match pred {
        Predicate::And(ps) => ps.iter().flat_map(leaves).collect(),
        leaf => vec![leaf],
    }
}

/// Bind `preds`' conjuncts to the columns of `rel`.
fn compile<'r>(
    rel: &'r Relation,
    preds: impl IntoIterator<Item = &'r Predicate>,
) -> Result<Vec<Conjunct<'r>>> {
    let per_code = |column: &'r str, like: bool, matches: &dyn Fn(&str) -> bool| {
        let col = rel.column(column)?;
        if like && col.data_type() != DataType::Str {
            return Err(CoreError::Unsupported(format!(
                "LIKE on non-string column '{column}'"
            )));
        }
        // Codes without a dictionary cannot be compared to strings.
        let dict = rel.dictionary(column)?.ok_or_else(|| {
            CoreError::Unsupported(format!(
                "string column '{column}' has no dictionary attached"
            ))
        })?;
        Ok(Conjunct::Code {
            codes: col.as_u32()?,
            hits: dict.match_table(matches),
            column,
        })
    };
    let mut all = Vec::new();
    for pred in preds {
        let conjunct = match pred {
            Predicate::And(ps) => {
                all.extend(compile(rel, ps)?);
                continue;
            }
            Predicate::Compare { column, op, value } => {
                let col = rel.column(column)?;
                match (col.data_type(), col.as_u32(), value) {
                    (DataType::Str, _, Value::Str(lit)) => {
                        per_code(column, false, &|s| op.eval(s.cmp(lit.as_str())))?
                    }
                    (DataType::Str, _, _) => {
                        return Err(CoreError::Unsupported(format!(
                            "string column '{column}' compared to non-string literal {value}"
                        )))
                    }
                    (_, Ok(data), Value::U32(v)) => Conjunct::U32 {
                        data,
                        op: *op,
                        v: *v,
                    },
                    _ => Conjunct::Slow {
                        col,
                        op: *op,
                        value,
                        column,
                    },
                }
            }
            Predicate::Prefix { column, prefix } => {
                per_code(column, true, &|s| s.starts_with(prefix.as_str()))?
            }
            Predicate::Like { column, pattern } => {
                per_code(column, true, &|s| dqo_plan::like_match(pattern, s))?
            }
        };
        all.push(conjunct);
    }
    Ok(all)
}

/// Record the bounds `pred`'s `u32` comparisons put on their columns. (A
/// comparison with a `u32` constant only executes on a `u32` column.)
fn tighten<'a>(known: &mut Vec<(&'a str, u32, u32)>, pred: &'a Predicate) {
    match pred {
        Predicate::And(ps) => ps.iter().for_each(|p| tighten(known, p)),
        Predicate::Compare {
            column,
            op,
            value: Value::U32(v),
        } => known.push(match op {
            CmpOp::Eq => (column, *v, *v),
            CmpOp::Lt => (column, 0, v.saturating_sub(1)),
            CmpOp::Le => (column, 0, *v),
            CmpOp::Gt => (column, v.saturating_add(1), u32::MAX),
            CmpOp::Ge => (column, *v, u32::MAX),
            CmpOp::Ne => return,
        }),
        _ => {}
    }
}

/// The values a `u32` comparison keeps, as the bounds a binary search
/// finds; `None` for `<>`, which keeps two runs. Exact at the edges of the
/// domain — `< 0` and `> 4294967295` keep nothing — where `tighten`'s
/// bounds saturate into ones that merely cover the answer.
fn within(op: CmpOp, v: u32) -> Option<(Bound<u32>, Bound<u32>)> {
    use Bound::{Excluded, Included, Unbounded};
    Some(match op {
        CmpOp::Eq => (Included(v), Included(v)),
        CmpOp::Lt => (Unbounded, Excluded(v)),
        CmpOp::Le => (Unbounded, Included(v)),
        CmpOp::Gt => (Excluded(v), Unbounded),
        CmpOp::Ge => (Included(v), Unbounded),
        CmpOp::Ne => return None,
    })
}

/// Append to `out` the rows of `piece` that satisfy every conjunct: the
/// first conjunct reads the piece, each further one runs over the
/// survivors of the previous one.
fn narrow_piece(
    piece: &Piece<'_>,
    conjuncts: &[Conjunct<'_>],
    out: &mut Vec<u32>,
) -> std::result::Result<(), ExecError> {
    let from = out.len();
    for (n, conjunct) in conjuncts.iter().enumerate() {
        // One monomorphic loop per predicate.
        macro_rules! keep {
            ($row:expr) => {
                match n {
                    0 => piece.narrow($row, out),
                    _ => narrow_rows(out, from, $row),
                }
            };
        }
        match conjunct {
            Conjunct::U32 { data, op, v, .. } => match op {
                CmpOp::Eq => keep!(|i| data[i] == *v),
                CmpOp::Ne => keep!(|i| data[i] != *v),
                CmpOp::Lt => keep!(|i| data[i] < *v),
                CmpOp::Le => keep!(|i| data[i] <= *v),
                CmpOp::Gt => keep!(|i| data[i] > *v),
                CmpOp::Ge => keep!(|i| data[i] >= *v),
            },
            Conjunct::Code {
                codes,
                hits,
                column,
            } => {
                let missing = std::cell::Cell::new(None);
                keep!(|i| *hits.get(codes[i] as usize).unwrap_or_else(|| {
                    missing.set(Some(codes[i]));
                    &false
                }));
                if let Some(c) = missing.get() {
                    return Err(ExecError::PreconditionViolated {
                        algorithm: "filter",
                        detail: format!(
                            "code {c} of column '{column}' missing from its dictionary"
                        ),
                    });
                }
            }
            // The slow path: one decoded value per row.
            Conjunct::Slow {
                col,
                op,
                value,
                column,
            } => {
                let cmp = |i| col.value_at(i).ok().and_then(|cell| cell.total_cmp(value));
                if !piece.is_empty() && cmp(0).is_none() {
                    return Err(ExecError::PreconditionViolated {
                        algorithm: "filter",
                        detail: format!("cross-type comparison {column} vs {value}"),
                    });
                }
                keep!(|i| cmp(i).is_some_and(|ord| op.eval(ord)));
            }
        }
    }
    Ok(())
}

/// Narrow `sel` to the rows satisfying every conjunct, one task per
/// morsel-sized piece on `tp`; serial execution is the one-morsel call of
/// the same kernel. Pieces concatenate in order, so row order is kept.
fn narrow(
    sel: &Selection,
    conjuncts: &[Conjunct<'_>],
    tp: Option<&ThreadPool>,
) -> Result<Selection> {
    if conjuncts.is_empty() {
        return Ok(sel.clone());
    }
    let pieces = sel.pieces(tp.map_or(usize::MAX, |_| DEFAULT_MORSEL_ROWS));
    let chunks = per_piece(tp, pieces.len(), |t| {
        let mut ids = Vec::new();
        narrow_piece(&pieces[t], conjuncts, &mut ids).map(|()| ids)
    })?;
    Ok(match sel {
        Selection::Ranges(_) => Selection::from_ascending(chunks),
        Selection::Rows(_) => Selection::Rows(chunks.concat()),
    })
}

/// Run `task` once per piece, `0..pieces` — as tasks on `tp`, else in
/// order on the caller thread — and collect what each returns, in piece
/// order.
fn per_piece<T: Send>(
    tp: Option<&ThreadPool>,
    pieces: usize,
    task: impl Fn(usize) -> std::result::Result<T, ExecError> + Sync,
) -> Result<Vec<T>> {
    let done = match tp {
        Some(tp) => tp.map_tasks(pieces, task)?,
        None => (0..pieces).map(task).collect(),
    };
    Ok(done.into_iter().collect::<std::result::Result<_, _>>()?)
}

/// Smallest and largest value of `col` over the rows of `sel`.
fn min_max(sel: &Selection, col: &[u32]) -> Option<(u32, u32)> {
    let fold = |(lo, hi): (u32, u32), k: u32| (lo.min(k), hi.max(k));
    let range = sel
        .pieces(usize::MAX)
        .into_iter()
        .fold((u32::MAX, 0), |acc, piece| match piece {
            Piece::Range(r) => col[r].iter().copied().fold(acc, fold),
            Piece::Rows(ids) => ids.iter().map(|&i| col[i as usize]).fold(acc, fold),
        });
    (!sel.is_empty()).then_some(range)
}

// ---------------------------------------------------------------------------
// Output assembly
// ---------------------------------------------------------------------------

/// The output shape of one grouping key column: its field (name + type,
/// `U32` or `Str`) and, for dictionary-encoded columns, the dictionary to
/// re-attach so downstream consumers can decode the codes.
type KeyLayout = (Field, Option<Arc<Dictionary>>);

/// Resolve the output layout of the grouping key columns from the input
/// relation (names, types, dictionaries).
fn key_layouts(rel: &Relation, keys: &[String]) -> Result<Vec<KeyLayout>> {
    keys.iter()
        .map(|k| {
            let field = rel.schema().field(k)?.clone();
            let dict = rel.dictionary(k)?.cloned();
            Ok((field, dict))
        })
        .collect()
}

/// A relation over freshly built columns, `Str` dictionaries re-attached
/// (wherever codes are copied they are copied verbatim, so the source
/// dictionaries stay valid).
fn assemble(
    fields: Vec<Field>,
    columns: Vec<Column>,
    dicts: Vec<Option<Arc<Dictionary>>>,
) -> Result<Relation> {
    let mut rel = Relation::new(Schema::new(fields)?, columns)?;
    for (idx, dict) in dicts.into_iter().enumerate() {
        if let Some(dict) = dict {
            rel = rel.with_dictionary_at(idx, dict)?;
        }
    }
    Ok(rel)
}

/// Assemble a grouping output relation: one column per grouping key (with
/// its original type and dictionary) + one column per aggregate.
fn grouped_to_relation(
    layouts: &[KeyLayout],
    key_columns: Vec<Vec<u32>>,
    aggs: &[AggExpr],
    states: &[FullAggState],
) -> Result<Relation> {
    debug_assert_eq!(layouts.len(), key_columns.len());
    let (mut fields, mut columns, mut dicts) = (Vec::new(), Vec::new(), Vec::new());
    for ((field, dict), data) in layouts.iter().zip(key_columns) {
        fields.push(field.clone());
        columns.push(match field.data_type {
            DataType::Str => Column::Str(data),
            _ => Column::U32(data),
        });
        dicts.push(dict.clone());
    }
    for agg in aggs {
        let (field, column) = materialise_agg(agg, states)?;
        fields.push(field);
        columns.push(column);
    }
    assemble(fields, columns, dicts)
}

/// All aggregates must read the same input column (engine restriction,
/// enforced by the SQL binder as well).
fn agg_input_column(aggs: &[AggExpr]) -> Result<Option<&str>> {
    let mut col: Option<&str> = None;
    for a in aggs {
        if let Some(c) = &a.column {
            match col {
                None => col = Some(c),
                Some(existing) if existing == c => {}
                Some(existing) => {
                    return Err(CoreError::Unsupported(format!(
                        "aggregates over multiple columns ({existing}, {c}) in one GROUP BY"
                    )))
                }
            }
        }
    }
    Ok(col)
}

fn materialise_agg(agg: &AggExpr, states: &[FullAggState]) -> Result<(Field, Column)> {
    Ok(match agg.func {
        AggFunc::CountStar => (
            Field::new(&agg.alias, DataType::U64),
            Column::U64(states.iter().map(|s| s.count).collect()),
        ),
        AggFunc::Sum => (
            Field::new(&agg.alias, DataType::U64),
            Column::U64(states.iter().map(|s| s.sum).collect()),
        ),
        AggFunc::Min => (
            Field::new(&agg.alias, DataType::U32),
            Column::U32(states.iter().map(|s| s.min).collect()),
        ),
        AggFunc::Max => (
            Field::new(&agg.alias, DataType::U32),
            Column::U32(states.iter().map(|s| s.max).collect()),
        ),
        AggFunc::Avg => (
            Field::new(&agg.alias, DataType::F64),
            Column::F64(states.iter().map(|s| s.avg().unwrap_or(0.0)).collect()),
        ),
    })
}

// ---------------------------------------------------------------------------
// Reference evaluator
// ---------------------------------------------------------------------------

/// Direct evaluation of a *logical* plan with naive algorithms — the
/// oracle for executor correctness tests. Predicates are evaluated one
/// row and one decoded value at a time, group-by output is ordered by
/// key, joins are nested loops: nothing here goes through selections or
/// the executor's kernels.
pub fn naive_eval(plan: &LogicalPlan, catalog: &Catalog) -> Result<Relation> {
    match plan {
        LogicalPlan::Scan { table } => Ok(catalog.get(table)?.relation.as_ref().clone()),
        LogicalPlan::Filter { input, predicate } => {
            let rel = naive_eval(input, catalog)?;
            let mut keep = Vec::new();
            for row in 0..rel.rows() {
                if naive_matches(&rel, predicate, row)? {
                    keep.push(row);
                }
            }
            Ok(rel.gather(&keep))
        }
        LogicalPlan::Project { input, columns } => {
            let rel = naive_eval(input, catalog)?;
            let names: Vec<&str> = columns.iter().map(String::as_str).collect();
            Ok(rel.project(&names)?)
        }
        LogicalPlan::Sort { input, key } => {
            let rel = naive_eval(input, catalog)?;
            Ok(rel.gather(&argsort(rel.column(key)?.as_u32()?)))
        }
        LogicalPlan::Join {
            left,
            right,
            left_key,
            right_key,
        } => {
            let l = naive_eval(left, catalog)?;
            let r = naive_eval(right, catalog)?;
            let lk = l.column(left_key)?.as_u32()?;
            let rk = r.column(right_key)?.as_u32()?;
            let mut li = Vec::new();
            let mut ri = Vec::new();
            for (i, &a) in lk.iter().enumerate() {
                for (j, &b) in rk.iter().enumerate() {
                    if a == b {
                        li.push(i);
                        ri.push(j);
                    }
                }
            }
            concat_columns(&l.gather(&li), &r.gather(&ri))
        }
        LogicalPlan::Limit { input, n } => {
            let rel = naive_eval(input, catalog)?;
            let keep = (rel.rows() as u64).min(*n) as usize;
            Ok(rel.gather(&(0..keep).collect::<Vec<usize>>()))
        }
        LogicalPlan::GroupBy { input, keys, aggs } => {
            let rel = naive_eval(input, catalog)?;
            let layouts = key_layouts(&rel, keys)?;
            let key_cols: Vec<&[u32]> = keys
                .iter()
                .map(|k| Ok(rel.column(k)?.as_u32()?))
                .collect::<Result<_>>()?;
            let value_col = agg_input_column(aggs)?;
            let values: &[u32] = match value_col {
                Some(name) => rel.column(name)?.as_u32()?,
                None => key_cols[0],
            };
            // The oracle groups with its own BTreeMap loop over the raw
            // key tuples — deliberately NOT the engine's kernels (packed
            // or `rowwise_group`), so a kernel bug cannot hide by also
            // corrupting the reference. Output in ascending tuple order.
            let rows = key_cols[0].len();
            let mut groups: std::collections::BTreeMap<Vec<u32>, FullAggState> =
                std::collections::BTreeMap::new();
            for row in 0..rows {
                let tuple: Vec<u32> = key_cols.iter().map(|c| c[row]).collect();
                FullAgg.update(groups.entry(tuple).or_default(), values[row]);
            }
            let mut cols = vec![Vec::with_capacity(groups.len()); keys.len()];
            let mut states = Vec::with_capacity(groups.len());
            for (tuple, state) in groups {
                for (col, v) in cols.iter_mut().zip(tuple) {
                    col.push(v);
                }
                states.push(state);
            }
            grouped_to_relation(&layouts, cols, aggs, &states)
        }
    }
}

/// Whether `row` of `rel` satisfies `pred`, on decoded values.
fn naive_matches(rel: &Relation, pred: &Predicate, row: usize) -> Result<bool> {
    let text = |column: &str| match rel.value_at(row, column)? {
        Value::Str(s) => Ok(s),
        _ => Err(CoreError::Unsupported(format!(
            "LIKE on non-string column '{column}'"
        ))),
    };
    Ok(match pred {
        Predicate::And(ps) => {
            let mut all = true;
            for p in ps {
                all &= naive_matches(rel, p, row)?;
            }
            all
        }
        Predicate::Compare { column, op, value } => {
            let ord = rel.value_at(row, column)?.total_cmp(value).ok_or_else(|| {
                CoreError::Unsupported(format!("cross-type comparison {column} vs {value}"))
            })?;
            op.eval(ord)
        }
        Predicate::Prefix { column, prefix } => text(column)?.starts_with(prefix.as_str()),
        Predicate::Like { column, pattern } => dqo_plan::like_match(pattern, &text(column)?),
    })
}

/// Concatenate the columns of two equal-length relations under the
/// qualified join schema, carrying `Str` dictionaries across.
fn concat_columns(left: &Relation, right: &Relation) -> Result<Relation> {
    let schema = left.schema().join(right.schema(), "right")?;
    let (mut columns, mut dicts) = (Vec::new(), Vec::new());
    for side in [left, right] {
        for i in 0..side.schema().width() {
            columns.push(side.column_at(i)?.clone());
            dicts.push(side.dictionary_at(i)?.cloned());
        }
    }
    assemble(schema.fields().to_vec(), columns, dicts)
}

/// All rows of a relation as `Value` vectors, sorted — result comparison
/// helper for tests (execution order is plan-dependent by design).
pub fn sorted_rows(rel: &Relation) -> Vec<Vec<Value>> {
    let mut rows: Vec<Vec<Value>> = (0..rel.rows())
        .map(|r| rel.row(r).expect("in bounds"))
        .collect();
    rows.sort_by(|a, b| {
        for (x, y) in a.iter().zip(b) {
            match x.total_cmp(y) {
                Some(std::cmp::Ordering::Equal) | None => continue,
                Some(other) => return other,
            }
        }
        std::cmp::Ordering::Equal
    });
    rows
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::optimizer::{optimize, OptimizerMode};
    use dqo_exec::grouping::hg::hash_grouping_with;
    use dqo_plan::expr::CmpOp;
    use dqo_storage::datagen::{DatasetSpec, ForeignKeySpec};

    fn check_plan_matches_naive(logical: &LogicalPlan, catalog: &Catalog) {
        let naive = naive_eval(logical, catalog).unwrap();
        for mode in [OptimizerMode::Shallow, OptimizerMode::Deep] {
            let planned = optimize(logical, catalog, mode).unwrap();
            let out = execute(&planned.plan, catalog).unwrap();
            assert_eq!(
                sorted_rows(&out.relation),
                sorted_rows(&naive),
                "{mode} plan {:?} disagrees with naive",
                planned.plan.algo_signature()
            );
        }
    }

    #[test]
    fn grouping_end_to_end_all_dataset_shapes() {
        for sorted in [true, false] {
            for dense in [true, false] {
                let cat = Catalog::new();
                cat.register(
                    "t",
                    DatasetSpec::new(3_000, 50)
                        .sorted(sorted)
                        .dense(dense)
                        .relation()
                        .unwrap(),
                );
                let q = LogicalPlan::group_by(
                    LogicalPlan::scan("t"),
                    "key",
                    vec![
                        AggExpr::count_star("n"),
                        AggExpr::on(AggFunc::Sum, "key", "total"),
                    ],
                );
                check_plan_matches_naive(&q, &cat);
            }
        }
    }

    #[test]
    fn only_long_ascending_runs_over_ranges_fold_runs() {
        let rows = 64u32;
        let column = |f: fn(u32) -> u32| Column::U32((0..rows).map(f).collect());
        let names = ["eights", "sevens", "unique", "shuffled"];
        let schema = Schema::new(
            names
                .iter()
                .map(|n| Field::new(*n, DataType::U32))
                .collect(),
        )
        .unwrap();
        let rel = Relation::new(
            schema,
            vec![
                column(|i| i / 8),
                column(|i| i / 7),
                column(|i| i),
                column(|i| (i * 37) % 64 / 8),
            ],
        )
        .unwrap();
        let cat = Catalog::new();
        let entry = cat.register("t", rel);
        let mut view = View {
            rel: entry.relation.as_ref().clone(),
            sel: Selection::Ranges(vec![8..40, 0..8]),
            stats: Some(entry),
            known: Vec::new(),
        };
        assert!(view.long_runs("eights"));
        // Nine runs of seven rows and one of one: the average is under eight.
        assert!(view.ascending("sevens") && !view.long_runs("sevens"));
        assert!(view.ascending("unique") && !view.long_runs("unique"));
        assert!(!view.ascending("shuffled") && !view.long_runs("shuffled"));
        // Explicit row ids need not ascend.
        view.sel = Selection::Rows(vec![9, 3]);
        assert!(!view.long_runs("eights"));
        // Without base-table statistics nothing is known.
        view.stats = None;
        view.sel = Selection::all(rows as usize);
        assert!(!view.ascending("eights") && !view.long_runs("eights"));
    }

    #[test]
    fn figure5_query_end_to_end_all_shapes() {
        for r_sorted in [true, false] {
            for s_sorted in [true, false] {
                for dense in [true, false] {
                    let cat = Catalog::new();
                    let (r, s) = ForeignKeySpec {
                        r_rows: 500,
                        s_rows: 1_500,
                        groups: 80,
                        r_sorted,
                        s_sorted,
                        dense,
                        seed: 42,
                    }
                    .generate()
                    .unwrap();
                    cat.register("R", r);
                    cat.register("S", s);
                    let q = dqo_plan::logical::example_query_4_3();
                    check_plan_matches_naive(&q, &cat);
                }
            }
        }
    }

    #[test]
    fn filter_and_project_end_to_end() {
        let cat = Catalog::new();
        cat.register("t", DatasetSpec::new(2_000, 40).relation().unwrap());
        let q = LogicalPlan::group_by(
            LogicalPlan::filter(
                LogicalPlan::scan("t"),
                Predicate::cmp("key", CmpOp::Lt, 20u32),
            ),
            "key",
            vec![AggExpr::count_star("n")],
        );
        check_plan_matches_naive(&q, &cat);
        // And verify the filter actually filtered.
        let planned = optimize(&q, &cat, OptimizerMode::Deep).unwrap();
        let out = execute(&planned.plan, &cat).unwrap();
        let keys = out.relation.column("key").unwrap().as_u32().unwrap();
        assert!(keys.iter().all(|&k| k < 20));
        assert_eq!(keys.len(), 20);
    }

    #[test]
    fn sort_node_end_to_end() {
        let cat = Catalog::new();
        cat.register("t", DatasetSpec::new(500, 30).relation().unwrap());
        let q = LogicalPlan::sort(LogicalPlan::scan("t"), "key");
        let planned = optimize(&q, &cat, OptimizerMode::Deep).unwrap();
        let out = execute(&planned.plan, &cat).unwrap();
        let keys = out.relation.column("key").unwrap().as_u32().unwrap();
        assert!(keys.windows(2).all(|w| w[0] <= w[1]));
        assert_eq!(out.pipeline.breakers, 1); // exactly the sort
    }

    #[test]
    fn aggregate_matrix_min_max_avg() {
        let cat = Catalog::new();
        let rel = Relation::new(
            Schema::new(vec![
                Field::new("g", DataType::U32),
                Field::new("v", DataType::U32),
            ])
            .unwrap(),
            vec![
                Column::U32(vec![1, 1, 2, 2, 2]),
                Column::U32(vec![10, 20, 5, 15, 25]),
            ],
        )
        .unwrap();
        cat.register("t", rel);
        let q = LogicalPlan::group_by(
            LogicalPlan::scan("t"),
            "g",
            vec![
                AggExpr::on(AggFunc::Min, "v", "lo"),
                AggExpr::on(AggFunc::Max, "v", "hi"),
                AggExpr::on(AggFunc::Avg, "v", "mean"),
                AggExpr::on(AggFunc::Sum, "v", "total"),
                AggExpr::count_star("n"),
            ],
        );
        let planned = optimize(&q, &cat, OptimizerMode::Deep).unwrap();
        let out = execute(&planned.plan, &cat).unwrap();
        let rows = sorted_rows(&out.relation);
        assert_eq!(rows.len(), 2);
        // group 1: min 10, max 20, avg 15, sum 30, n 2
        assert_eq!(rows[0][1], Value::U32(10));
        assert_eq!(rows[0][2], Value::U32(20));
        assert_eq!(rows[0][3], Value::F64(15.0));
        assert_eq!(rows[0][4], Value::U64(30));
        assert_eq!(rows[0][5], Value::U64(2));
    }

    #[test]
    fn mixed_agg_columns_rejected() {
        let aggs = vec![
            AggExpr::on(AggFunc::Sum, "a", "x"),
            AggExpr::on(AggFunc::Min, "b", "y"),
        ];
        assert!(matches!(
            agg_input_column(&aggs),
            Err(CoreError::Unsupported(_))
        ));
    }

    #[test]
    fn exchange_nodes_execute_correctly_and_degrade_gracefully() {
        let cat = Catalog::new();
        cat.register(
            "t",
            DatasetSpec::new(4_000, 32)
                .sorted(false)
                .dense(true)
                .relation()
                .unwrap(),
        );
        let aggs = vec![
            AggExpr::count_star("n"),
            AggExpr::on(AggFunc::Sum, "key", "total"),
        ];
        let group_by = |algo| PhysicalPlan::GroupBy {
            input: Box::new(PhysicalPlan::Scan { table: "t".into() }),
            keys: vec!["key".into()],
            aggs: aggs.clone(),
            algo,
            molecules: dqo_plan::physical::GroupingMolecules::defaults_for(algo),
        };
        let serial = execute(&group_by(GroupingAlgorithm::StaticPerfectHash), &cat).unwrap();
        for algo in [
            GroupingAlgorithm::StaticPerfectHash,
            GroupingAlgorithm::HashBased,
        ] {
            for dop in [2, 4] {
                let plan = PhysicalPlan::Exchange {
                    input: Box::new(group_by(algo)),
                    dop,
                };
                let par = execute(&plan, &cat).unwrap();
                assert_eq!(
                    sorted_rows(&par.relation),
                    sorted_rows(&serial.relation),
                    "{algo:?} dop={dop}"
                );
                assert!(par.pipeline.breakers >= 2, "input pass + merge");
            }
        }
        // Exchange{Sort} dispatches the parallel sort subsystem — output
        // must be ascending (and, per the oracle tests, bit-identical to
        // the serial enforcer).
        let sort_plan = PhysicalPlan::Exchange {
            input: Box::new(PhysicalPlan::Sort {
                input: Box::new(PhysicalPlan::Scan { table: "t".into() }),
                key: "key".into(),
                molecule: dqo_plan::SortMolecule::Comparison,
            }),
            dop: 4,
        };
        let out = execute(&sort_plan, &cat).unwrap();
        let keys = out.relation.column("key").unwrap().as_u32().unwrap();
        assert!(keys.windows(2).all(|w| w[0] <= w[1]));
        // An Exchange around an operator the runtime genuinely does not
        // cover (BSG grouping has no parallel twin) must fall back to
        // serial execution, not fail.
        let bsg_plan = PhysicalPlan::Exchange {
            input: Box::new(group_by(GroupingAlgorithm::BinarySearch)),
            dop: 4,
        };
        let fallback = execute(&bsg_plan, &cat).unwrap();
        assert_eq!(
            sorted_rows(&fallback.relation),
            sorted_rows(&serial.relation),
            "BSG fallback"
        );
    }

    #[test]
    fn parallel_join_exchange_matches_serial() {
        let cat = Catalog::new();
        let (r, s) = ForeignKeySpec {
            r_rows: 1_000,
            s_rows: 3_000,
            groups: 50,
            r_sorted: false,
            s_sorted: false,
            dense: true,
            seed: 9,
        }
        .generate()
        .unwrap();
        cat.register("R", r);
        cat.register("S", s);
        let join = |algo| PhysicalPlan::Join {
            left: Box::new(PhysicalPlan::Scan { table: "R".into() }),
            right: Box::new(PhysicalPlan::Scan { table: "S".into() }),
            left_key: "id".into(),
            right_key: "r_id".into(),
            algo,
        };
        let serial = execute(&join(JoinAlgorithm::HashBased), &cat).unwrap();
        for algo in [JoinAlgorithm::HashBased, JoinAlgorithm::StaticPerfectHash] {
            let plan = PhysicalPlan::Exchange {
                input: Box::new(join(algo)),
                dop: 4,
            };
            let par = execute(&plan, &cat).unwrap();
            assert_eq!(par.relation.rows(), 3_000);
            assert_eq!(
                sorted_rows(&par.relation),
                sorted_rows(&serial.relation),
                "{algo:?}"
            );
        }
    }

    #[test]
    fn parallel_filter_exchange_matches_serial() {
        let cat = Catalog::new();
        cat.register("t", DatasetSpec::new(5_000, 100).relation().unwrap());
        let filter = PhysicalPlan::Filter {
            input: Box::new(PhysicalPlan::Scan { table: "t".into() }),
            predicate: Predicate::cmp("key", CmpOp::Lt, 30u32),
        };
        let serial = execute(&filter, &cat).unwrap();
        let par = execute(
            &PhysicalPlan::Exchange {
                input: Box::new(filter),
                dop: 4,
            },
            &cat,
        )
        .unwrap();
        // Per-morsel survivors concatenate in morsel order: row order is
        // preserved, so the outputs are identical, not merely equal as sets.
        assert_eq!(
            par.relation.column("key").unwrap().as_u32().unwrap(),
            serial.relation.column("key").unwrap().as_u32().unwrap()
        );
    }

    #[test]
    fn pipeline_stats_distinguish_plans() {
        let cat = Catalog::new();
        cat.register(
            "t",
            DatasetSpec::new(1_000, 10).sorted(true).relation().unwrap(),
        );
        let q = LogicalPlan::group_by(
            LogicalPlan::scan("t"),
            "key",
            vec![AggExpr::count_star("n")],
        );
        // Deep mode picks OG on sorted input → zero breakers.
        let deep = optimize(&q, &cat, OptimizerMode::Deep).unwrap();
        let out = execute(&deep.plan, &cat).unwrap();
        assert_eq!(out.pipeline.breakers, 0, "OG must stream");
    }

    /// The rows of `rel`, in order.
    fn rows_in_order(rel: &Relation) -> Vec<Vec<Value>> {
        (0..rel.rows()).map(|r| rel.row(r).unwrap()).collect()
    }

    #[test]
    fn serial_fused_join_grouping_emits_the_unfused_rows_in_order() {
        let cat = Catalog::new();
        let (r, s) = ForeignKeySpec {
            // More probe rows than one morsel, so the probe runs in pieces.
            r_rows: 20_000,
            s_rows: 140_000,
            groups: 300,
            r_sorted: false,
            s_sorted: false,
            dense: true,
            seed: 5,
        }
        .generate()
        .unwrap();
        // S again, range-partitioned on r_id: a scan of partitions 0 and 2
        // selects two row ranges.
        let spec = dqo_storage::PartitionSpec::range("r_id", vec![5_000, 10_000, 15_000]);
        cat.register_partitioned(
            "SP",
            dqo_storage::PartitionedRelation::new(s.clone(), spec).unwrap(),
        );
        cat.register("R", r);
        cat.register("S", s);
        let join = |left: &str, right: &str, left_key: &str, right_key: &str| PhysicalPlan::Join {
            left: Box::new(PhysicalPlan::Scan { table: left.into() }),
            right: Box::new(PhysicalPlan::Scan {
                table: right.into(),
            }),
            left_key: left_key.into(),
            right_key: right_key.into(),
            algo: JoinAlgorithm::StaticPerfectHash,
        };
        // One conjunct on each side.
        let predicate = Predicate::And(vec![
            Predicate::cmp("payload", CmpOp::Lt, 700u32),
            Predicate::cmp("a", CmpOp::Ge, 20u32),
        ]);
        let hg = |table, hash| GroupingMolecules {
            table: Some(table),
            hash: Some(hash),
            ..GroupingMolecules::default()
        };
        use dqo_plan::{HashFnMolecule, TableMolecule};
        let groupings = [
            (
                GroupingAlgorithm::HashBased,
                hg(TableMolecule::Chaining, HashFnMolecule::Murmur3),
            ),
            (
                GroupingAlgorithm::HashBased,
                hg(TableMolecule::LinearProbing, HashFnMolecule::Fibonacci),
            ),
            (
                GroupingAlgorithm::StaticPerfectHash,
                GroupingMolecules::defaults_for(GroupingAlgorithm::StaticPerfectHash),
            ),
        ];
        let filter = |input: PhysicalPlan, predicate: &Predicate| PhysicalPlan::Filter {
            input: Box::new(input),
            predicate: predicate.clone(),
        };
        let bare = Predicate::cmp("payload", CmpOp::Lt, 700u32);
        let scan_s = PhysicalPlan::Scan { table: "S".into() };
        let pruned = PhysicalPlan::PartitionedScan {
            table: "SP".into(),
            parts: vec![0, 2],
            total: 4,
        };
        // R builds on its unique ids (the one-array index), S on repeated
        // r_ids (CSR); the key and the summed column from either side. Then
        // a bare filter over a scan and over a pruned partitioned scan.
        for (filtered, key, sum) in [
            (
                filter(join("R", "S", "id", "r_id"), &predicate),
                "a",
                "payload",
            ),
            (
                filter(join("R", "S", "id", "r_id"), &predicate),
                "payload",
                "a",
            ),
            (
                filter(join("S", "R", "r_id", "id"), &predicate),
                "a",
                "payload",
            ),
            (
                filter(join("S", "R", "r_id", "id"), &predicate),
                "payload",
                "payload",
            ),
            (filter(scan_s, &bare), "r_id", "payload"),
            (filter(pruned.clone(), &bare), "r_id", "payload"),
            (filter(pruned, &bare), "payload", "payload"),
        ] {
            // The unfused reference: the filter and its input as nodes, then
            // the same serial kernel over their output.
            let joined = execute(&filtered, &cat).unwrap().relation;
            let keys = joined.column(key).unwrap().as_u32().unwrap();
            let values = joined.column(sum).unwrap().as_u32().unwrap();
            let aggs = vec![
                AggExpr::count_star("n"),
                AggExpr::on(AggFunc::Sum, sum, "total"),
            ];
            for (algo, molecules) in groupings {
                let expect = match algo {
                    GroupingAlgorithm::HashBased => {
                        hash_grouping_with(keys, values, FullAgg, HgTable::of(molecules))
                    }
                    _ => execute_grouping(algo, keys, values, FullAgg, &GroupingHints::default())
                        .unwrap(),
                };
                let layouts = key_layouts(&joined, &[key.to_string()]).unwrap();
                let expect =
                    grouped_to_relation(&layouts, vec![expect.keys], &aggs, &expect.states)
                        .unwrap();
                // Serially, and with the filter and its input under
                // `Exchange` while the grouping stays serial: the pieces are
                // then loaded in parallel and folded in order.
                let exchange = |input: &PhysicalPlan| PhysicalPlan::Exchange {
                    input: Box::new(input.clone()),
                    dop: 4,
                };
                let loaded_in_parallel = match &filtered {
                    PhysicalPlan::Filter { input, predicate } => exchange(&PhysicalPlan::Filter {
                        input: Box::new(exchange(input)),
                        predicate: predicate.clone(),
                    }),
                    _ => unreachable!("a filter"),
                };
                for input in [filtered.clone(), loaded_in_parallel] {
                    let plan = PhysicalPlan::GroupBy {
                        input: Box::new(input),
                        keys: vec![key.into()],
                        aggs: aggs.clone(),
                        algo,
                        molecules,
                    };
                    let out = execute(&plan, &cat).unwrap();
                    assert_eq!(
                        rows_in_order(&out.relation),
                        rows_in_order(&expect),
                        "{}",
                        plan.explain()
                    );
                    assert!(out.relation.rows() > 10);
                    // Only the grouping's scratch was copied, never a join
                    // output or a whole column.
                    assert!(out.bytes_materialised <= 8 * joined.rows() as u64);
                }
            }
        }
    }

    /// A materialised HJ or SPHJ emits the ordered nested loop's pairs —
    /// probe row by probe row, each probe row's build rows ascending — over
    /// every selection shape on either side, at DOP 1 and under `Exchange`
    /// 2 and 8; and it copies exactly its output and, when the build side's
    /// selection is not one dense run, the build keys it indexes.
    #[test]
    fn materialised_joins_emit_the_ordered_nested_loop_on_every_selection() {
        let table = |key: &str, value: &str, keys: Vec<u32>| {
            let rows = (0..keys.len() as u32).collect();
            let schema = Schema::new(vec![
                Field::new(key, DataType::U32),
                Field::new(value, DataType::U32),
            ])
            .unwrap();
            Relation::new(schema, vec![Column::U32(keys), Column::U32(rows)]).unwrap()
        };
        let cat = Catalog::new();
        // Unique build keys (the one-array index) and each key twice (CSR),
        // over 0..1000; probe keys over 0..1200, across three morsels.
        cat.register(
            "U",
            table("k", "b", (0..1_000).map(|i| i * 7 % 1_000).collect()),
        );
        cat.register(
            "B",
            table("k", "b", (0..2_000).map(|i| i % 1_000).collect()),
        );
        let probe_keys = |n: u32| {
            (0..n)
                .map(|i| i.wrapping_mul(2_654_435_761) % 1_200)
                .collect()
        };
        cat.register("P", table("pk", "p", probe_keys(140_000)));
        // P again, range-partitioned on its row ids: partitions 0 and 2 are
        // two row ranges.
        let spec = dqo_storage::PartitionSpec::range("p", vec![40_000, 80_000, 120_000]);
        let partitioned = table("pk", "p", probe_keys(140_000));
        cat.register_partitioned(
            "PP",
            dqo_storage::PartitionedRelation::new(partitioned, spec).unwrap(),
        );
        let scan = |t: &str| PhysicalPlan::Scan { table: t.into() };
        let filter = |input: PhysicalPlan, column: &str, below: u32| PhysicalPlan::Filter {
            input: Box::new(input),
            predicate: Predicate::cmp(column, CmpOp::Lt, below),
        };
        // Each side's plan and the row ids it selects, in order.
        let builds = [
            (scan("U"), (0..1_000).collect::<Vec<u32>>()),
            (scan("B"), (0..2_000).collect()),
            // A `Rows` selection: the build positions are not row ids.
            (
                filter(scan("B"), "k", 700),
                (0..2_000).filter(|i| i % 1_000 < 700).collect(),
            ),
        ];
        let probes = [
            (scan("P"), (0..140_000).collect::<Vec<u32>>()),
            (
                filter(scan("P"), "pk", 900),
                (0..140_000u32)
                    .filter(|&i| i.wrapping_mul(2_654_435_761) % 1_200 < 900)
                    .collect(),
            ),
            (
                PhysicalPlan::PartitionedScan {
                    table: "PP".into(),
                    parts: vec![0, 2],
                    total: 4,
                },
                (0..40_000).chain(80_000..120_000).collect(),
            ),
        ];
        let (keys_of, probed_keys) = (
            |t: &str| {
                cat.get(t)
                    .unwrap()
                    .relation
                    .column("k")
                    .unwrap()
                    .as_u32()
                    .unwrap()
                    .to_vec()
            },
            cat.get("P")
                .unwrap()
                .relation
                .column("pk")
                .unwrap()
                .as_u32()
                .unwrap()
                .to_vec(),
        );
        for (build, build_rows) in &builds {
            let table = match build {
                PhysicalPlan::Scan { table } => table.clone(),
                _ => "B".into(),
            };
            let build_keys = keys_of(&table);
            let mut by_key: HashMap<u32, Vec<u32>> = HashMap::new();
            for &b in build_rows {
                by_key.entry(build_keys[b as usize]).or_default().push(b);
            }
            for (probe, probe_rows) in &probes {
                // The ordered nested loop, as the output's four columns.
                let mut expect: [Vec<u32>; 4] = Default::default();
                for &p in probe_rows {
                    let key = probed_keys[p as usize];
                    for &b in by_key.get(&key).into_iter().flatten() {
                        for (col, v) in expect.iter_mut().zip([key, b, key, p]) {
                            col.push(v);
                        }
                    }
                }
                let copied_keys = match build {
                    PhysicalPlan::Filter { .. } => 4 * build_rows.len() as u64,
                    _ => 0,
                };
                for algo in [JoinAlgorithm::HashBased, JoinAlgorithm::StaticPerfectHash] {
                    let join = PhysicalPlan::Join {
                        left: Box::new(build.clone()),
                        right: Box::new(probe.clone()),
                        left_key: "k".into(),
                        right_key: "pk".into(),
                        algo,
                    };
                    for dop in [1, 2, 8] {
                        let plan = match dop {
                            1 => join.clone(),
                            _ => PhysicalPlan::Exchange {
                                input: Box::new(join.clone()),
                                dop,
                            },
                        };
                        let out = execute(&plan, &cat).unwrap();
                        let rel = &out.relation;
                        let got: Vec<&[u32]> = ["k", "b", "pk", "p"]
                            .iter()
                            .map(|c| rel.column(c).unwrap().as_u32().unwrap())
                            .collect();
                        let ctx = format!("dop={dop}\n{}", plan.explain());
                        assert!(expect[0].len() > 10_000, "{ctx}");
                        for (got, expect) in got.iter().zip(&expect) {
                            assert!(got == expect, "{ctx}");
                        }
                        // The output's four columns, and the build keys
                        // read through a `Rows` selection: never the probe
                        // keys.
                        let output = 16 * expect[0].len() as u64;
                        assert_eq!(out.bytes_materialised, output + copied_keys, "{ctx}");
                    }
                }
            }
        }
    }
}
