//! Executes a [`PhysicalPlan`] on the `dqo-exec` engine.
//!
//! The executor is deliberately thin: every algorithmic decision was made
//! by the optimiser; this module maps plan vocabulary onto kernels and
//! accounts for pipeline breakers and copies. Every operator that does
//! work — the loader, Sort and top-n, the five groupings, OJ, SOJ and BSJ
//! — calls its one `dqo-parallel` loop whether or not an `Exchange` above
//! gave it a pool; without one its tasks run on the caller thread.
//!
//! What flows between plan nodes is a `View` of row ids, not column data:
//! its tables — a scan's relation, or a join's build and probe tables —
//! each with a [`Selection`] naming the table row behind each view row.
//! Scans select row ranges, sort permutes the rows (under a `Limit`, only
//! its first `n` positions are found), limit truncates them, project drops
//! columns, and a join hands on each output row's build and probe rows.
//! A consumer reads a column through the rows of the table that holds it.
//!
//! Rows move through one pipeline, the loader `Exec::source` sets up over
//! a node and what it absorbs: `[Exchange] [Filter] [Exchange] HJ|SPHJ` or
//! `[Exchange] Filter`. It cuts into pieces the rows of a scan or of a
//! materialised view, narrows them by the filter's conjuncts, split by
//! table — a conjunct on a column the catalog calls ascending is answered
//! by binary search per range instead — and expands them through an HJ or
//! SPHJ probe into pairs. It ends in a sink: the grouping fold of a
//! single-key HG, SPHG, OG or BSG, which reads the key and value columns at
//! the rows named (one loop, `dqo_parallel::parallel_grouping_tasks`; the
//! loader is one `dyn` call per task, so each partial's loop is compiled
//! once per aggregate and molecule whatever the loader — 24 copies
//! of `Fold::step` in spine's release binary, see `tools/fold_text.sh`) — or,
//! for SPHG above a probe of a unique index with no build-side conjunct,
//! whose fold reads build columns only carried (or none), at each kept
//! probe row's one match, which the fold finds itself, so the probe
//! writes no pair (`fold=in-place`) —, or a
//! collect sink handing the row ids to a breaker — Sort, Limit, SOG, a
//! composite grouping, an OJ/SOJ/BSJ input, a join's build side — or to the
//! root. SOG sorts its key and folds it as OG does, in the sorted order; a
//! composite key folds its packed codes. HJ and SPHJ take their
//! `JoinIndex` — hashed, or identity — from `Exec::join_index`: an
//! SPH-index AV's; else, when the build side scans a table whole, the one
//! memoised on that table's catalog entry, built by the first query that
//! needs it, with the build columns the plan above reads carried into the
//! index's posting order — the probe's matches are then those columns'
//! rows; else one built for the query. A probe that does not fold in
//! place emits postings, and a build table not carried reads its rows
//! through them. OJ, SOJ and BSJ
//! hand on the pairs their loops return. The fold takes runs of an
//! ascending key whose runs average `MIN_RUN` rows when no conjunct thins
//! them; SPHG over a coded key (`{key=codes}`) reads its dense codes and
//! decodes the groups it emits.
//!
//! A sorted projection whose INSERTs left a tail in append order behind
//! its sorted prefix ([`SortedPrefix`]) is shown to every consumer in key
//! order — the prefix merged with the stably sorted tail, a rebuild's
//! order. Its scan is two ranges, prefix and tail; a search cuts the
//! prefix, and the loader narrows the tail's rows by every conjunct. The
//! groupings that do not read order (HG, SPHG, BSG, SOG) take both ranges
//! as they are; OG folds the prefix in runs and the tail into BSG's
//! sorted array, each through a loader over its own pieces, then merges
//! the two; the root, Limit, Sort, every
//! join's sides and any other OG put the rows in key order first
//! (`View::in_key_order`).
//!
//! Column data is copied in two places only: kernel scratch (the key and
//! value columns a sort, an OJ/SOJ/BSJ join, a join index build, a
//! composite key or a SOG grouping reads through a selection that is not
//! one dense run) and the plan root, which gathers each output column at
//! its table's rows.
//!
//! A [`naive_eval`] reference evaluator (nested loops + BTreeMap + a
//! row-at-a-time predicate) provides the correctness oracle for
//! integration tests; it shares none of the selection code.

use crate::av::{AvArtifact, AvCatalog, AvKind};
use crate::catalog::{Catalog, SortedPrefix, TableEntry};
use crate::error::CoreError;
use crate::Result;
use dqo_exec::aggregate::{Aggregator, CountSum, CountSumState, FullAgg, FullAggState};
use dqo_exec::composite::{rowwise_group, unpack_grouped, KeyPacker};
use dqo_exec::grouping::hg::HgTable;
use dqo_exec::grouping::GroupedResult;
use dqo_exec::join::JoinIndex;
use dqo_exec::pipeline::{Blocking, OperatorMetrics, PipelineStats};
use dqo_exec::sort::argsort;
use dqo_exec::ExecError;
use dqo_parallel::{
    merge_ascending, parallel_grouping, parallel_sog, BatchObs, Fold, GroupingStrategy, Kept,
    PersistentPool, Probed, Rows, Scratch, Sink, ThreadPool, DEFAULT_MORSEL_ROWS,
};
use dqo_plan::expr::{AggExpr, AggFunc, CmpOp, Predicate};
use dqo_plan::physical::GroupingMolecules;
use dqo_plan::{GroupingAlgorithm, JoinAlgorithm, LogicalPlan, PhysicalPlan, SortMolecule};
use dqo_storage::{
    mask_and, mask_range, narrow_rows, search_ranges, Blocks, Column, DataProps, DataType,
    Dictionary, Field, KeyCodes, Masked, Piece, Relation, Schema, Selection, Sortedness,
    StorageError, Value, BLOCK_ROWS, MIN_RUN,
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
    /// scratch and the root's materialisation.
    pub bytes_materialised: u64,
    /// The join indexes built and the build columns carried into an
    /// index's posting order.
    pub join_builds: JoinBuilds,
}

/// What an execution built for its HJ and SPHJ joins: an index a join
/// takes from an SPH-index AV or from a table's memo, and a column
/// already carried, count nothing.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct JoinBuilds {
    /// Join indexes built, per query or into a table's memo.
    pub indexes: u64,
    /// Build columns gathered into a memoised index's posting order.
    pub carried: u64,
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
    let mut exec = Exec {
        catalog,
        root: plan,
        avs: ctx.avs,
        pool: &resolve,
        tops: HashMap::new(),
        stats: PipelineStats::default(),
        bytes: 0,
        builds: JoinBuilds::default(),
        obs: ctx.collect_metrics.then(|| OpCollector::new(plan)),
    };
    let mut view = exec.run(plan, None)?;
    view.in_key_order(usize::MAX)?;
    let (relation, copied) = view.materialise()?;
    if copied {
        exec.bytes += relation.byte_size() as u64;
    }
    Ok((
        ExecOutput {
            relation,
            pipeline: exec.stats,
            bytes_materialised: exec.bytes,
            join_builds: exec.builds,
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

/// A relation a view reads columns of, and which of its rows stands
/// behind each row of the view.
struct Table {
    rel: Relation,
    sel: Selection,
    /// The catalog entry whose exact column statistics cover `rel`'s
    /// columns: set by scans, `None` for a relation computed here.
    stats: Option<Arc<TableEntry>>,
    /// Bounds filters have put on `u32` columns, by index in `rel`: every
    /// selected row has `lo <= column <= hi`.
    known: Vec<(usize, u32, u32)>,
    /// A sorted projection's split while the view still reads its rows
    /// in scan order: ascending row ids, the tail's in append order.
    /// Taken by [`View::in_key_order`], which puts them in key order.
    tail: Option<SortedPrefix>,
}

impl Table {
    /// A covering `[min, max]` for `column` over the selected rows: the
    /// catalog's exact range of the base column, tightened by the bounds
    /// filters have put on it. SPHG and SPHJ emit occupied slots only, so
    /// any covering domain gives the answer the exact one would. `None`
    /// when the relation is not a base table.
    fn domain(&self, column: &str) -> Option<(u32, u32)> {
        let props = self.props(column)?;
        let (mut lo, mut hi) = (props.min, props.max);
        let at = self.rel.schema().index_of(column).ok();
        for (_, l, h) in self.known.iter().filter(|k| Some(k.0) == at) {
            (lo, hi) = (lo.max(*l), hi.min(*h));
        }
        // Contradictory bounds select no row; every domain covers none.
        Some((lo, hi.max(lo)))
    }

    /// The catalog's exact statistics of the base column `column`; `None`
    /// when the relation is not a base table.
    fn props(&self, column: &str) -> Option<&DataProps> {
        self.stats.as_ref()?.column_props.get(column)
    }

    /// The catalog's dense codes of the base column `column`, which a plan
    /// that reads them was planned against; an error when the relation is
    /// not a base table or the column has none.
    fn codes(&self, column: &str) -> Result<&KeyCodes> {
        self.coded(column).map(|c| &**c).ok_or_else(|| {
            CoreError::Exec(ExecError::PreconditionViolated {
                algorithm: "SPHG",
                detail: format!("no key codes for {column}"),
            })
        })
    }

    /// The catalog's dense codes of the base column `column`, when it
    /// keeps them.
    fn coded(&self, column: &str) -> Option<&Arc<KeyCodes>> {
        self.stats.as_ref()?.key_codes.get(column)
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

/// What one plan node hands the next: for each of its rows, one row of
/// each table — a scan's one table, a join's build tables then its probe
/// tables — and the columns it shows, each a column of one table.
struct View {
    tables: Vec<Table>,
    /// The view's columns in order: its name, its table, and its index
    /// in that table's relation; `None` for every column of the one
    /// table, under its own name.
    columns: Option<Vec<(String, usize, usize)>>,
}

impl View {
    /// The rows `sel` of one relation, under its own column names.
    fn table(rel: Relation, sel: Selection, stats: Option<Arc<TableEntry>>) -> Self {
        let (known, tail) = (
            Vec::new(),
            stats.as_ref().and_then(|e| e.sorted_prefix.clone()),
        );
        let tables = vec![Table {
            rel,
            sel,
            stats,
            known,
            tail,
        }];
        View {
            tables,
            columns: None,
        }
    }

    /// Every row of a freshly computed relation.
    fn of(rel: Relation) -> Self {
        let sel = Selection::all(rel.rows());
        View::table(rel, sel, None)
    }

    fn rows(&self) -> usize {
        self.tables[0].sel.len()
    }

    /// The table holding column `name`, and the column's index there.
    fn at(&self, name: &str) -> Result<(usize, usize)> {
        let Some(columns) = &self.columns else {
            return Ok((0, self.tables[0].rel.schema().index_of(name)?));
        };
        let (_, t, at) = columns
            .iter()
            .find(|c| c.0 == name)
            .ok_or_else(|| StorageError::UnknownColumn(name.to_owned()))?;
        Ok((*t, *at))
    }

    /// The table holding column `name`, and the column's name there.
    fn column(&self, name: &str) -> Result<(usize, &str)> {
        let (t, at) = self.at(name)?;
        Ok((t, &self.tables[t].rel.schema().fields()[at].name))
    }

    /// The `u32` data of column `name`, and the rows of it the view reads.
    fn data(&self, name: &str) -> Result<(&[u32], &Selection)> {
        let (t, at) = self.at(name)?;
        let table = &self.tables[t];
        Ok((table.rel.column_at(at)?.as_u32()?, &table.sel))
    }

    /// Column `name`'s output field and dictionary.
    fn layout(&self, name: &str) -> Result<KeyLayout> {
        let (t, at) = self.at(name)?;
        let rel = &self.tables[t].rel;
        let field = Field::new(name, rel.schema().fields()[at].data_type);
        Ok((field, rel.dictionary_at(at)?.cloned()))
    }

    /// The view's columns, each with its name, table and index.
    fn listed(&self) -> Vec<(String, usize, usize)> {
        match &self.columns {
            Some(columns) => columns.clone(),
            None => (self.tables[0].rel.schema().fields().iter().enumerate())
                .map(|(at, f)| (f.name.clone(), 0, at))
                .collect(),
        }
    }

    fn project(&mut self, names: &[String]) -> Result<()> {
        let columns = names
            .iter()
            .map(|n| {
                let (t, at) = self.at(n)?;
                Ok((n.clone(), t, at))
            })
            .collect::<Result<_>>()?;
        self.columns = Some(columns);
        Ok(())
    }

    /// The rows at `positions` of the view, in that order.
    fn pick(&mut self, positions: Vec<u32>) {
        let (last, rest) = self.tables.split_last_mut().expect("a view has a table");
        for table in rest {
            table.sel = Selection::Rows(table.sel.pick(positions.clone()));
        }
        last.sel = Selection::Rows(last.sel.pick(positions));
    }

    fn truncate(&mut self, n: usize) {
        self.tables.iter_mut().for_each(|t| t.sel.truncate(n));
    }

    /// The view's first `limit` rows in key order, where it reads a sorted
    /// projection whose tail is still in append order (see
    /// [`SortedPrefix::key_order`]) — what every consumer that sees row
    /// order runs first: the root, Limit, Sort, OJ/SOJ/BSJ, a join's two
    /// sides and OG. Only a scan's view, filtered, reads a tail in
    /// append order: a join puts both sides in key order before it pairs
    /// their rows.
    fn in_key_order(&mut self, limit: usize) -> Result<()> {
        let single = self.tables.len() == 1;
        for table in &mut self.tables {
            if let Some(tail) = table.tail.take() {
                debug_assert!(single, "a join's sides are in key order");
                if let Some(rows) = tail.key_order(&table.rel, &table.sel, limit)? {
                    table.sel = Selection::Rows(rows);
                }
            }
        }
        Ok(())
    }

    /// `build`'s tables then `probe`'s, under the join's column names (as
    /// [`Schema::join`] names them): a probe column whose name a build
    /// column has is qualified `right.`. The selections are the sides'
    /// own, so the caller sets them to the pairs the join found.
    fn join(mut build: View, probe: View) -> Result<Self> {
        let mut columns = build.listed();
        let (left, offset) = (columns.len(), build.tables.len());
        for (name, t, at) in probe.listed() {
            let name = match columns[..left].iter().any(|c| c.0 == name) {
                true => format!("right.{name}"),
                false => name,
            };
            if columns.iter().any(|c| c.0 == name) {
                let duplicate = format!("duplicate field name '{name}' in schema");
                return Err(StorageError::InvalidDatasetSpec(duplicate).into());
            }
            columns.push((name, t + offset, at));
        }
        build.tables.extend(probe.tables);
        build.columns = Some(columns);
        Ok(build)
    }

    /// Bound the `u32` columns `pred`'s comparisons read on their tables.
    fn tighten(&mut self, pred: &Predicate) {
        match pred {
            Predicate::And(ps) => ps.iter().for_each(|p| self.tighten(p)),
            Predicate::Compare {
                column,
                op,
                value: Value::U32(v),
            } => {
                if let (Some((lo, hi)), Ok((t, at))) = (covering(*op, *v), self.at(column)) {
                    self.tables[t].known.push((at, lo, hi));
                }
            }
            _ => {}
        }
    }

    /// The root's relation: each column gathered at its table's rows (a
    /// single table selected whole hands its buffers over as they are),
    /// and whether that copied.
    fn materialise(&self) -> Result<(Relation, bool)> {
        if let [table] = &self.tables[..] {
            let rel = match &self.columns {
                None => table.rel.select(&table.sel),
                Some(columns) => {
                    let names: Vec<&str> = columns.iter().map(|c| c.0.as_str()).collect();
                    table.rel.project(&names)?.select(&table.sel)
                }
            };
            let copied = table.sel.as_range() != Some(0..table.rel.rows());
            return Ok((rel, copied));
        }
        let (mut fields, mut columns, mut dicts) = (Vec::new(), Vec::new(), Vec::new());
        for (name, t, at) in self.listed() {
            let Table { rel, sel, .. } = &self.tables[t];
            fields.push(Field::new(name, rel.schema().fields()[at].data_type));
            columns.push(rel.column_at(at)?.select(sel));
            dicts.push(rel.dictionary_at(at)?.cloned());
        }
        Ok((assemble(fields, columns, dicts)?, true))
    }
}

/// The state of one execution.
struct Exec<'a> {
    catalog: &'a Catalog,
    /// The plan being run, whose nodes above a join say which of its
    /// build columns a memoised index carries.
    root: &'a PhysicalPlan,
    avs: Option<&'a AvCatalog>,
    pool: &'a dyn Fn() -> Arc<PersistentPool>,
    /// The rows a `Limit` keeps of each `Sort` beneath it (see [`sort_under`]).
    tops: HashMap<usize, usize>,
    stats: PipelineStats,
    bytes: u64,
    builds: JoinBuilds,
    obs: Option<OpCollector>,
}

impl<'a> Exec<'a> {
    /// Execute one node — on `tp` when an `Exchange` above asked for it,
    /// on the caller thread otherwise — recording its [`OperatorMetrics`]
    /// when instrumented. Untraced, this costs one branch per node, not a
    /// clock read.
    fn run(&mut self, plan: &'a PhysicalPlan, tp: Option<&ThreadPool>) -> Result<View> {
        if self.obs.is_none() {
            return self.op(plan, tp);
        }
        let began = Instant::now();
        let before = self.stats;
        let view = self.op(plan, tp)?;
        let delta = self.stats.since(&before);
        if let Some(c) = self.obs.as_mut() {
            c.record(plan, view.rows() as u64, began.elapsed(), delta);
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

    /// What the filter node `filter` does over a view with no join beneath
    /// it in the loader: it streams `view`'s rows, puts `predicate`'s
    /// bounds on the view, and answers by binary search each conjunct a
    /// search can, cutting the view's selection. Returns the conjuncts
    /// left for the loader.
    fn filter(
        &mut self,
        filter: &PhysicalPlan,
        view: &mut View,
        predicate: &'a Predicate,
    ) -> (Vec<&'a Predicate>, Vec<&'a Predicate>) {
        self.stats.record(Blocking::Pipelined, view.rows() as u64);
        view.tighten(predicate);
        let mut left = leaves(predicate);
        let tail = self.search(filter, view, &mut left);
        (left, tail)
    }

    /// Answer by binary search each of `filter`'s conjuncts that a search
    /// can answer — over one table's `Ranges` selection, a `u32`
    /// comparison other than `<>` on a `u32` column the catalog calls
    /// ascending — and drop it from `conjuncts`, leaving the rest to the
    /// loader; the searches cut the table's selection. Over a sorted
    /// projection only the prefix is searched: the searched conjuncts
    /// come back for the loader to test on the tail's rows, which are in
    /// append order. Records how many were searched on the filter's
    /// metrics.
    fn search(
        &mut self,
        filter: &PhysicalPlan,
        view: &mut View,
        conjuncts: &mut Vec<&'a Predicate>,
    ) -> Vec<&'a Predicate> {
        let [table] = &mut view.tables[..] else {
            return Vec::new();
        };
        let Selection::Ranges(ranges) = &table.sel else {
            return Vec::new();
        };
        let (head, tail) = match &table.tail {
            Some(tail) => split_ranges(ranges, tail.rows),
            None => (ranges.clone(), Vec::new()),
        };
        let total = conjuncts.len();
        let (mut cut, mut searched): (Option<Vec<Range<usize>>>, _) = (None, Vec::new());
        conjuncts.retain(|c| match c {
            Predicate::Compare {
                column,
                op,
                value: Value::U32(v),
            } if table.ascending(column) => match (within(*op, *v), table.rel.column(column)) {
                (Some(bounds), Ok(col)) if col.data_type() == DataType::U32 => {
                    let data = col.as_u32().expect("a u32 column");
                    search_ranges(cut.get_or_insert_with(|| head.clone()), data, bounds);
                    searched.push(*c);
                    false
                }
                _ => true,
            },
            _ => true,
        });
        if let Some(m) = self.obs.as_mut().and_then(|c| c.slot(filter)) {
            m.searched = (!searched.is_empty()).then_some((searched.len(), total));
        }
        if let Some(mut cut) = cut {
            cut.extend_from_slice(&tail);
            table.sel = Selection::Ranges(cut);
        }
        match tail.is_empty() {
            true => Vec::new(),
            false => searched,
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

    fn scan(&mut self, entry: Arc<TableEntry>, sel: Selection) -> View {
        self.stats.record(Blocking::Pipelined, sel.len() as u64);
        View::table(entry.relation.as_ref().clone(), sel, Some(entry))
    }

    fn op(&mut self, plan: &'a PhysicalPlan, tp: Option<&ThreadPool>) -> Result<View> {
        match plan {
            PhysicalPlan::Scan { table } => {
                let entry = self.catalog.stored(table)?;
                let rows = entry.relation.rows();
                // A sorted projection's prefix and tail are two ranges:
                // only the first ascends.
                let sel = match &entry.sorted_prefix {
                    Some(prefix) => {
                        if let Some(m) = self.obs.as_mut().and_then(|c| c.slot(plan)) {
                            m.tail = Some(((rows - prefix.rows) as u64, rows as u64));
                        }
                        Selection::Ranges(vec![0..prefix.rows, prefix.rows..rows])
                    }
                    None => Selection::all(rows),
                };
                Ok(self.scan(entry, sel))
            }
            PhysicalPlan::PartitionedScan { table, parts, .. } => {
                let entry = self.catalog.stored(table)?;
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
            PhysicalPlan::Filter { .. } => self.collect(plan, tp),
            PhysicalPlan::Join { .. } if indexed(plan) => self.collect(plan, tp),
            PhysicalPlan::Join {
                left,
                right,
                left_key,
                right_key,
                algo,
            } => {
                // OJ, SOJ and BSJ read both key columns through the
                // selections, in key order, and answer in view positions.
                let (mut l, mut r) = (self.run(left, None)?, self.run(right, None)?);
                l.in_key_order(usize::MAX)?;
                r.in_key_order(usize::MAX)?;
                let (mut lbuf, mut rbuf) = (Vec::new(), Vec::new());
                let (rcol, rsel) = r.data(right_key)?;
                let rk = self.read(plan, rsel, rcol, &mut rbuf);
                let (lcol, lsel) = l.data(left_key)?;
                let lk = self.read(plan, lsel, lcol, &mut lbuf);
                let (result, par) = match algo {
                    JoinAlgorithm::OrderBased => dqo_parallel::parallel_order_join(tp, lk, rk)?,
                    JoinAlgorithm::BinarySearch => {
                        dqo_parallel::parallel_binary_search_join(tp, lk, rk, DEFAULT_MORSEL_ROWS)?
                    }
                    _ => {
                        let sort = SortMolecule::Comparison;
                        dqo_parallel::parallel_sort_merge_join(tp, lk, rk, sort, &lsel.bounds())?
                    }
                };
                self.stats.merge(&par);
                l.pick(result.left_rows);
                r.pick(result.right_rows);
                View::join(l, r)
            }
            PhysicalPlan::Project { input, columns } => {
                let mut view = self.run(input, None)?;
                view.project(columns)?;
                Ok(view)
            }
            PhysicalPlan::Sort {
                input,
                key,
                molecule,
            } => {
                let mut view = self.run(input, None)?;
                view.in_key_order(usize::MAX)?;
                let mut buf = Vec::new();
                let (col, sel) = view.data(key)?;
                let keys = self.read(plan, sel, col, &mut buf);
                // The argsort of the selected keys is a permutation *of
                // the view's rows*; no column moves. Under a `Limit` that
                // cuts it, only the first `n` positions are found.
                let top = self.tops.get(&node_id(plan)).filter(|&&n| n < keys.len());
                let (order, par) = match top {
                    Some(&n) => dqo_parallel::parallel_top_n(tp, keys, n, DEFAULT_MORSEL_ROWS),
                    None => dqo_parallel::parallel_argsort(tp, keys, *molecule, &sel.bounds()),
                }
                .map_err(ExecError::from)?;
                self.stats.merge(&par);
                view.pick(order);
                Ok(view)
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
                view.in_key_order(n)?;
                view.truncate(n);
                Ok(view)
            }
            PhysicalPlan::Exchange { input, dop } => {
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
    /// The index the HJ or SPHJ `join` probes, on its `left` side's
    /// `left_key` under `algo`, and whether `l` — the build side's rows —
    /// now holds the build columns in the index's posting order:
    /// * the prebuilt SPH-index AV when the build side scans the indexed
    ///   table whole, whatever the algorithm; it streams its `probe_rows`;
    /// * else, when the build side scans a table whole, the index in that
    ///   table entry's memo, built into it by the first query that needs
    ///   it; `l` becomes the build columns the plan above reads, carried
    ///   into the index's posting order once per entry and column (see
    ///   `join_memo`);
    /// * else one built over `l`.
    ///
    /// A build takes the slot map the algorithm names — hashed for HJ,
    /// identity over the build domain for SPHJ (an empty build side gives
    /// an index nothing matches). Every index but the AV's counts as a
    /// breaker over both sides, memoised or not, so a plan reports the
    /// same work on every run. Unless carried, an index's postings name
    /// `l`'s positions.
    fn join_index(
        &mut self,
        join: &PhysicalPlan,
        (left, left_key, algo): (&PhysicalPlan, &str, JoinAlgorithm),
        l: &mut View,
        probe_rows: usize,
    ) -> Result<(Arc<JoinIndex>, bool)> {
        let prebuilt = match (self.avs, left) {
            (Some(avs), PhysicalPlan::Scan { table }) => avs
                .lookup(table, left_key, AvKind::SphIndex)
                .and_then(|av| match &av.artifact {
                    Some(AvArtifact::SphIndex(idx)) => Some(Arc::clone(idx)),
                    _ => None,
                }),
            _ => None,
        };
        if let Some(index) = prebuilt {
            self.stats.record(Blocking::Pipelined, probe_rows as u64);
            self.index_from(join, "av", &[]);
            return Ok((index, false));
        }
        let whole = match (left, &l.tables[..]) {
            (PhysicalPlan::Scan { .. }, [table])
                if table.sel.as_range() == Some(0..table.rel.rows()) =>
            {
                table.stats.clone()
            }
            _ => None,
        };
        let (t, name) = l.column(left_key)?;
        let (table, name) = (&l.tables[t], name.to_owned());
        let (lcol, sel) = l.data(left_key)?;
        let mut buf = Vec::new();
        let lk = self.read(join, sel, lcol, &mut buf);
        let rows = lk.len() + probe_rows;
        self.stats.record(Blocking::FullBreaker, rows as u64);
        let build = || -> Result<JoinIndex> {
            Ok(match algo {
                JoinAlgorithm::StaticPerfectHash => {
                    let (min, max) = (table.domain(&name))
                        .or_else(|| min_max(sel, lcol))
                        .unwrap_or((0, 0));
                    JoinIndex::identity(lk, min, max)?
                }
                _ => JoinIndex::hashed(lk),
            })
        };
        let Some(entry) = whole else {
            let index = build()?;
            self.builds.indexes += 1;
            self.index_from(join, "built", &[]);
            return Ok((Arc::new(index), false));
        };
        let (memo, built) = entry.join_memo.index(&name, algo, build)?;
        self.builds.indexes += u64::from(built);
        let above = reads_above(self.root, join, None).flatten();
        let names: Vec<&str> = (entry.relation.schema().fields().iter())
            .map(|f| f.name.as_str())
            .filter(|f| match &above {
                None => true,
                Some(names) => names.iter().any(|n| n.trim_start_matches("right.") == *f),
            })
            .collect();
        self.index_from(join, "memo", &names);
        if names.is_empty() {
            return Ok((Arc::clone(&memo.index), false));
        }
        let (carried, gathered) = memo.carry(&entry, &names)?;
        self.builds.carried += gathered as u64;
        let sel = Selection::all(carried.relation.rows());
        *l = View::table(carried.relation.as_ref().clone(), sel, Some(carried));
        Ok((Arc::clone(&memo.index), true))
    }

    /// Record on `join`'s metrics where its index came from and the build
    /// columns it carries.
    fn index_from(&mut self, join: &PhysicalPlan, from: &'static str, carried: &[&str]) {
        if let Some(m) = self.obs.as_mut().and_then(|c| c.slot(join)) {
            m.index = Some((from, carried.iter().map(|&c| c.to_owned()).collect()));
        }
    }

    /// The one place rows start moving: the loader over `plan` and the
    /// nodes it absorbs (see [`absorbed`]). Runs the join's two sides and
    /// takes its index (see [`Exec::join_index`]), else the filter's input,
    /// else `plan` itself, as nodes; splits the filter's conjuncts by the
    /// table whose column each reads — with no join, searched first (see
    /// [`Exec::filter`]).
    fn source(&mut self, plan: &'a PhysicalPlan) -> Result<Source<'a>> {
        let chain = absorbed(plan);
        let (began, before) = (Instant::now(), self.stats);
        let (mut view, builds, probe) = match chain.last().copied() {
            Some(
                join @ PhysicalPlan::Join {
                    left,
                    right,
                    left_key,
                    right_key,
                    algo,
                },
            ) => {
                let (mut l, mut r) = (self.run(left, None)?, self.run(right, None)?);
                l.in_key_order(usize::MAX)?;
                r.in_key_order(usize::MAX)?;
                let build = (&**left, left_key.as_str(), *algo);
                let (index, carried) = self.join_index(join, build, &mut l, r.rows())?;
                let (t, name) = r.column(right_key)?;
                let on = r.tables[t].rel.column_arc(name)?;
                on.as_u32()?;
                let (builds, table) = (l.tables.len(), l.tables.len() + t);
                let probe = Probe {
                    index,
                    carried,
                    table,
                    on,
                };
                (View::join(l, r)?, builds, Some(probe))
            }
            Some(PhysicalPlan::Filter { input, .. }) => (self.run(input, None)?, 0, None),
            _ => (self.run(plan, None)?, 0, None),
        };
        let below = OperatorMetrics {
            rows_out: view.tables[builds].sel.len() as u64,
            wall: began.elapsed(),
            stats: self.stats.since(&before),
            ..OperatorMetrics::default()
        };
        let filter = chain.iter().copied().find_map(|node| match node {
            PhysicalPlan::Filter { predicate, .. } => Some((node, predicate)),
            _ => None,
        });
        let (left, searched) = match (filter, &probe) {
            (Some((filter, predicate)), None) => self.filter(filter, &mut view, predicate),
            (Some((_, predicate)), Some(_)) => (leaves(predicate), Vec::new()),
            (None, _) => (Vec::new(), Vec::new()),
        };
        let mut conjuncts: Vec<Vec<Conjunct>> = view.tables.iter().map(|_| Vec::new()).collect();
        for &leaf in &left {
            let (t, conjunct) = compile(&view, leaf)?;
            conjuncts[t].push(conjunct);
        }
        let conjuncts: Vec<_> = conjuncts.into_iter().map(merge_ranges).collect();
        // The searches cut a sorted projection's prefix: its tail's rows
        // take their conjuncts too.
        let tail = match view.tables[0]
            .tail
            .as_ref()
            .filter(|_| !searched.is_empty())
        {
            Some(prefix) => {
                let all = searched.into_iter().chain(left);
                let all = all.map(|leaf| Ok(compile(&view, leaf)?.1));
                Some((prefix.rows, merge_ranges(all.collect::<Result<_>>()?)))
            }
            None => None,
        };
        // The loader finds the row behind a position by one lookup (see
        // `RowsOf`): only a lone probe table keeps its ranges.
        let single = view.tables.len() == builds + 1;
        for (t, table) in view.tables.iter_mut().enumerate() {
            if !(single && t == builds) && table.sel.as_range().is_none() {
                table.sel = Selection::Rows(table.sel.iter().collect());
            }
        }
        Ok(Source {
            chain,
            view,
            builds,
            probe,
            conjuncts,
            tail,
            below,
            reads: None,
            in_place: None,
        })
    }

    /// The loader over `plan` run into a collect sink (see
    /// [`Exec::collected`]).
    fn collect(&mut self, plan: &'a PhysicalPlan, tp: Option<&ThreadPool>) -> Result<View> {
        let src = self.source(plan)?;
        self.collected(src, tp)
    }

    /// `src` run into a collect sink: the view of the rows it names, for a
    /// breaker above or the root — loaded on `tp`, else on the pool of an
    /// `Exchange` the loader absorbed, else on the caller thread.
    fn collected(&mut self, src: Source<'a>, tp: Option<&ThreadPool>) -> Result<View> {
        let feed = match (tp, src.dop()) {
            (None, Some(dop)) => Some(ThreadPool::with_pool(dop, (self.pool)())),
            _ => None,
        };
        let pool = tp.or(feed.as_ref());
        let workers = pool.map_or(1, ThreadPool::threads);
        let ran = Counters::default();
        if src.probe.is_none() && src.single() && src.conjuncts[0].is_empty() && src.tail.is_none()
        {
            // Nothing to narrow or probe: the view goes on as it is.
            ran.add(src.view.rows(), 0);
            self.ran(&src, &ran, workers);
            return Ok(src.view);
        }
        let (pieces, tables, timed) = (src.pieces(), src.view.tables.len(), self.obs.is_some());
        let loaded = dqo_parallel::map_tasks(pool, pieces.len(), |t| {
            let began = timed.then(Instant::now);
            let (mut got, mut scratch, mut kept) =
                (vec![Vec::new(); tables], Scratch::default(), false);
            // Only a grouping fold probes in place, so no count is read.
            let sink = &mut |rows: Loaded<'_>| {
                match rows {
                    Loaded::Piece(Piece::Range(r)) => got[0].extend(r.start as u32..r.end as u32),
                    Loaded::Piece(Piece::Rows(_)) => kept = true,
                    Loaded::Masked(masked) => masked.take(&mut got[0]),
                    Loaded::Rows(lists) => {
                        for (got, list) in got.iter_mut().zip(lists) {
                            got.extend_from_slice(list);
                        }
                    }
                    Loaded::Probed(_) => unreachable!("a collect sink takes pairs"),
                }
                0
            };
            src.load(&pieces[t], &mut scratch, &ran, sink)?;
            // Listed ids are the ones the conjuncts kept of listed rows (a
            // loader with none returned above): take them rather than copy
            // them.
            if kept {
                got[0] = scratch.ids;
            }
            ran.time(began);
            Ok::<_, ExecError>(got)
        })?;
        let mut chunks = loaded
            .into_iter()
            .collect::<std::result::Result<Vec<_>, _>>()?;
        self.ran(&src, &ran, workers);
        let mut view = src.view;
        let ranges = tables == 1 && matches!(view.tables[0].sel, Selection::Ranges(_));
        for (t, table) in view.tables.iter_mut().enumerate() {
            let ids = chunks.iter_mut().map(|c| std::mem::take(&mut c[t]));
            table.sel = match ranges {
                true => Selection::from_ascending(ids.collect()),
                false => Selection::Rows(ids.flatten().collect()),
            };
        }
        Ok(view)
    }

    /// Account what the loader `src` did, shared by `workers`: a fused
    /// join's filter streams the pairs its probe found; the absorbed nodes
    /// record themselves.
    fn ran(&mut self, src: &Source<'_>, ran: &Counters, workers: usize) {
        let filtered = src
            .chain
            .iter()
            .any(|n| matches!(n, PhysicalPlan::Filter { .. }));
        if src.probe.is_some() && filtered {
            let pairs = ran.pairs.load(Ordering::Relaxed);
            self.stats.record(Blocking::Pipelined, pairs);
        }
        if let Some(c) = self.obs.as_mut() {
            src.record(c, ran, workers);
        }
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
    ) -> Result<View> {
        let value = agg_input_column(aggs)?;
        // A serial grouping whose loader absorbed an `Exchange` has that
        // pool load into a collect sink first, and folds the rows in order.
        let src = self.source(input)?;
        let src = match tp.is_none() && src.dop().is_some() {
            true => Source::over(self.collected(src, None)?),
            false => src,
        };
        // OG reads its input in key order. Over a sorted projection's tail
        // one key the catalog calls ascending folds the prefix and the tail
        // apart (below); any other key puts the rows in key order first.
        let order = algo == GroupingAlgorithm::OrderBased;
        let apart = match (keys, &src.view.tables[..]) {
            ([key], [table]) => src.view.column(key).is_ok_and(|(_, k)| table.ascending(k)),
            _ => false,
        };
        let src = match order && !apart && src.view.tables.iter().any(|t| t.tail.is_some()) {
            true => {
                let mut view = self.collected(src, tp)?;
                view.in_key_order(usize::MAX)?;
                Source::over(view)
            }
            false => src,
        };
        let sorts = algo == GroupingAlgorithm::SortOrderBased;
        if let ([key], false) = (keys, sorts) {
            // Single key: the fold reads the raw column — or its codes —
            // at the rows the loader names (see `Exec::source`), and the
            // value column's, which is the key's own unless named apart;
            // the loader lists no other table's rows.
            let mut src = src;
            let value = value.filter(|&v| v != key || molecules.codes);
            let kt = src.view.column(key)?.0;
            let vt = match value {
                Some(value) => src.view.column(value)?.0,
                None => kt,
            };
            src.reads = Some([kt, vt]);
            // A unique index under no build-side conjunct hands SPHG's
            // fold its probe rows when the fold reads no build column or
            // reads them carried: each row folds at its one match, and no
            // pair is written. The other groupings take the pairs, so the
            // in-place loop is compiled for SPHG's array alone.
            let builds = src.builds;
            let build = [kt < builds, vt < builds];
            let unique = (src.probe.as_ref())
                .is_some_and(|p| p.index.is_unique() && (p.carried || build == [false, false]));
            let sph = algo == GroupingAlgorithm::StaticPerfectHash;
            if sph && unique && src.single() && src.conjuncts[..builds].iter().all(Vec::is_empty) {
                src.in_place = Some(build);
            }
            let name = src.view.column(key)?.1;
            let table = &src.view.tables[kt];
            let data = table.rel.column(name)?.as_u32()?;
            let codes = molecules.codes.then(|| table.codes(name)).transpose()?;
            // A covering domain: the codes', else the statistics', else
            // the key's range over its table's rows.
            let strategy = strategy(algo, molecules, || {
                (codes.map(KeyCodes::domain))
                    .or_else(|| table.domain(name))
                    .or_else(|| min_max(&table.sel, data))
            });
            let keys = codes.map_or(data, KeyCodes::codes);
            let values = match value {
                Some(value) => {
                    let name = src.view.column(value)?.1;
                    src.view.tables[vt].rel.column(name)?.as_u32()?
                }
                None => data,
            };
            // A conjunct left for the loader thins each run by a share not
            // known here, so only an input no conjunct narrows folds runs.
            let ascending = src.probe.is_none()
                && src.single()
                && src.conjuncts[0].is_empty()
                && table.long_runs(name);
            let (pieces, ran, timed) = (src.pieces(), Counters::default(), self.obs.is_some());
            let workers = tp.map_or(1, ThreadPool::threads);
            // OG over a sorted projection folds the prefix in runs and the
            // tail, in append order, into BSG's sorted array, then merges
            // the two ascending group lists.
            let (pieces, tail) = match table.tail.as_ref().filter(|_| order) {
                Some(prefix) => split_pieces(pieces, prefix.rows),
                None => (pieces, Vec::new()),
            };
            let load = |pieces: &[Piece<'_>], t: usize, scratch: &mut Scratch, sink: Sink<'_>| {
                let began = timed.then(Instant::now);
                src.load(&pieces[t], scratch, &ran, &mut |rows| {
                    sink(match rows {
                        Loaded::Piece(piece) => Rows::Piece(piece),
                        Loaded::Masked(masked) => Rows::Masked(masked),
                        Loaded::Rows(lists) => Rows::Pairs {
                            keys: lists[kt],
                            values: lists[vt],
                        },
                        Loaded::Probed(probed) => Rows::Probed(probed),
                    })
                })?;
                ran.time(began);
                Ok(())
            };
            let fold = Fold {
                pool: tp,
                tasks: pieces.len(),
                load: &|t, scratch: &mut Scratch, sink: Sink<'_>| load(&pieces, t, scratch, sink),
                columns: (keys, values),
                ascending,
            };
            let mut result = self.grouped(&fold, strategy, aggs)?;
            if !tail.is_empty() {
                // At most ⌈√rows⌉ rows: not worth a dispatch to the pool.
                let tail = Fold {
                    pool: None,
                    tasks: tail.len(),
                    load: &|t, scratch: &mut Scratch, sink: Sink<'_>| load(&tail, t, scratch, sink),
                    ..fold
                };
                let groups = self.grouped(&tail, GroupingStrategy::BinarySearch, aggs)?;
                result = merge_ascending(FullAgg, result, groups);
            }
            if let Some(codes) = codes {
                codes.decode(&mut result.keys);
            }
            self.ran(&src, &ran, workers);
            let layout = src.view.layout(key)?;
            return Ok(View::of(grouped_to_relation(
                &[layout],
                vec![result.keys],
                aggs,
                &result.states,
            )?));
        }

        // SOG, or a composite key: the key columns read through the rows
        // the loader collects. A composite key packs them into the u32
        // code domain where the per-column widths allow, and otherwise
        // falls back to the row-wise kernel. SOG sorts the key — or the
        // packed codes — and folds them as OG does, in the sorted order.
        let view = self.collected(src, tp)?;
        let layouts = keys
            .iter()
            .map(|k| view.layout(k))
            .collect::<Result<Vec<_>>>()?;
        let columns = keys
            .iter()
            .map(|k| view.data(k))
            .collect::<Result<Vec<_>>>()?;
        let bounds = columns[0].1.bounds();
        let mut bufs = vec![Vec::new(); keys.len() + 1];
        let (vbuf, kbufs) = bufs.split_last_mut().expect("keys.len() + 1 buffers");
        let key_cols: Vec<&[u32]> = columns
            .iter()
            .zip(kbufs.iter_mut())
            .map(|((col, sel), buf)| self.read(plan, sel, col, buf))
            .collect();
        let values = match value {
            Some(name) if name != keys[0] => {
                let (col, sel) = view.data(name)?;
                self.read(plan, sel, col, vbuf)
            }
            _ => key_cols[0],
        };
        let packer = match key_cols.len() {
            1 => None,
            _ => match KeyPacker::fit(&key_cols) {
                Some(packer) => Some(packer),
                None => {
                    let (cols, states) = rowwise_group(&key_cols, values, FullAgg);
                    self.stats
                        .record(Blocking::FullBreaker, values.len() as u64);
                    return Ok(View::of(grouped_to_relation(
                        &layouts, cols, aggs, &states,
                    )?));
                }
            },
        };
        let packed = packer.as_ref().map(|packer| packer.pack(&key_cols));
        if let Some(packed) = &packed {
            self.copied(plan, std::mem::size_of_val(&packed[..]));
        }
        let keys = packed.as_deref().unwrap_or(key_cols[0]);
        // SOG runs the sort granule feeding OG's fold; the other organelles
        // fold the keys in place.
        let sort = molecules.sort.unwrap_or(SortMolecule::Comparison);
        let (all, m) = (Selection::all(keys.len()), DEFAULT_MORSEL_ROWS);
        let whole = all.bounds();
        let strategy = strategy(algo, molecules, || min_max(&all, keys));
        let (result, par) = match (sorts, extrema(aggs)) {
            (true, true) => parallel_sog(tp, keys, values, FullAgg, sort, &bounds)?,
            (true, false) => widened(parallel_sog(tp, keys, values, CountSum, sort, &bounds)?),
            (false, true) => parallel_grouping(tp, keys, values, FullAgg, strategy, &whole, m)?,
            (false, false) => widened(parallel_grouping(
                tp, keys, values, CountSum, strategy, &whole, m,
            )?),
        };
        self.stats.merge(&par);
        let out = match &packer {
            Some(packer) => {
                let (cols, states) = unpack_grouped(packer, result);
                grouped_to_relation(&layouts, cols, aggs, &states)?
            }
            None => grouped_to_relation(&layouts, vec![result.keys], aggs, &result.states)?,
        };
        Ok(View::of(out))
    }

    /// Run `fold` into `strategy`'s partials of the narrowest state `aggs`
    /// reads: COUNT/SUM's unless a MIN or MAX needs [`FullAgg`]'s, widened
    /// only for the output (see [`widened`]).
    fn grouped(
        &mut self,
        fold: &Fold<'_>,
        strategy: GroupingStrategy,
        aggs: &[AggExpr],
    ) -> Result<GroupedResult<FullAggState>> {
        let (result, par) = match extrema(aggs) {
            true => dqo_parallel::parallel_grouping_tasks(fold, FullAgg, strategy)?,
            false => widened(dqo_parallel::parallel_grouping_tasks(
                fold, CountSum, strategy,
            )?),
        };
        self.stats.merge(&par);
        Ok(result)
    }
}

/// Whether `aggs` read a MIN or MAX, which only [`FullAgg`]'s state keeps.
fn extrema(aggs: &[AggExpr]) -> bool {
    (aggs.iter()).any(|a| matches!(a.func, AggFunc::Min | AggFunc::Max))
}

/// A COUNT/SUM grouping as the output assembly reads it. Only a query
/// with no MIN or MAX folds one, so the extrema keep the empty state's
/// values.
fn widened(
    (result, stats): (GroupedResult<CountSumState>, PipelineStats),
) -> (GroupedResult<FullAggState>, PipelineStats) {
    let states = (result.states.into_iter())
        .map(|s| FullAggState {
            count: s.count,
            sum: s.sum,
            ..FullAggState::default()
        })
        .collect();
    let result = GroupedResult {
        keys: result.keys,
        states,
        sorted_by_key: result.sorted_by_key,
    };
    (result, stats)
}

/// The fold's partial for grouping organelle `algo` under `molecules`:
/// HG's table, SPHG's array over the covering `domain`, BSG's sorted
/// array, or OG's runs — which SOG folds in its sorted order.
fn strategy(
    algo: GroupingAlgorithm,
    molecules: GroupingMolecules,
    domain: impl FnOnce() -> Option<(u32, u32)>,
) -> GroupingStrategy {
    match algo {
        GroupingAlgorithm::HashBased => GroupingStrategy::Hash(HgTable::of(molecules)),
        GroupingAlgorithm::StaticPerfectHash => {
            let (min, max) = domain().unwrap_or((0, 0));
            GroupingStrategy::StaticPerfectHash { min, max }
        }
        GroupingAlgorithm::OrderBased | GroupingAlgorithm::SortOrderBased => {
            GroupingStrategy::Order
        }
        GroupingAlgorithm::BinarySearch => GroupingStrategy::BinarySearch,
    }
}

/// A loader (see [`Exec::source`]): the nodes it absorbed and the view it
/// builds, whose tables' selections are its inputs' — by build position
/// for a fused join's build tables, by probe position for the rest.
struct Source<'a> {
    /// The absorbed nodes, top-down (see [`absorbed`]).
    chain: Vec<&'a PhysicalPlan>,
    /// A fused join's build tables then its probe tables; else the input's.
    view: View,
    /// How many of `view`'s tables are a fused join's build side.
    builds: usize,
    probe: Option<Probe>,
    /// The filter's conjuncts the loader runs, by table of `view`, each
    /// under its table's own column names.
    conjuncts: Vec<Vec<Conjunct>>,
    /// Over a sorted projection whose prefix a search cut: where its tail
    /// starts, and every conjunct of the filter, which a piece of the
    /// tail runs instead of `conjuncts`.
    tail: Option<(usize, Vec<Conjunct>)>,
    /// What running the inputs cost (and a fresh index's build), as the
    /// node beneath the filter reports it.
    below: OperatorMetrics,
    /// The tables whose rows the sink reads, when not every table's: a
    /// grouping fold's key and value tables.
    reads: Option<[usize; 2]>,
    /// Set when the grouping fold reads a unique probe's rows in place
    /// (see [`Probed`]): whether its key, and its value, is a build
    /// column.
    in_place: Option<[bool; 2]>,
}

/// A fused join as its loader sees it.
struct Probe {
    /// The index whose postings the probe emits.
    index: Arc<JoinIndex>,
    /// Whether the build view holds its columns in posting order, so a
    /// posting is its row; otherwise a posting names a build position.
    carried: bool,
    /// The probe key column, and the table of the loader's view it is on.
    table: usize,
    on: Arc<Column>,
}

/// What a loader hands its sink for one piece: the rows of its one table
/// — the piece itself, the row ids its conjuncts kept of listed rows in
/// `Scratch::ids`, or the block masks they left over a range in
/// `Scratch::masks` —, one row list per table, row by row, or the probe
/// rows a grouping fold matches in place.
enum Loaded<'s> {
    Piece(Piece<'s>),
    Masked(Masked<'s>),
    Rows(&'s [&'s [u32]]),
    Probed(Probed<'s>),
}

/// The row behind each position of a selection: `start + p` for one dense
/// run, the listed ids otherwise — or, for a build table read through a
/// join index's postings, the row behind the build position at posting
/// `p`.
enum RowsOf<'s> {
    Run(u32),
    Ids(&'s [u32]),
    /// The index whose postings name build positions, and the rows
    /// behind those positions.
    Postings(&'s JoinIndex, Box<RowsOf<'s>>),
}

impl<'s> RowsOf<'s> {
    fn new(sel: &'s Selection) -> Self {
        match (sel.as_range(), sel) {
            (Some(run), _) => RowsOf::Run(run.start as u32),
            (None, Selection::Rows(ids)) => RowsOf::Ids(ids),
            (None, Selection::Ranges(_)) => unreachable!("`Exec::source` lists the rows"),
        }
    }

    #[inline]
    fn row(&self, position: u32) -> u32 {
        match self {
            RowsOf::Run(start) => start + position,
            RowsOf::Ids(ids) => ids[position as usize],
            RowsOf::Postings(index, rows) => rows.row(index.row(position)),
        }
    }
}

impl Source<'_> {
    /// A loader over `view`'s rows that absorbs nothing.
    fn over(view: View) -> Self {
        Source {
            chain: Vec::new(),
            builds: 0,
            probe: None,
            conjuncts: view.tables.iter().map(|_| Vec::new()).collect(),
            tail: None,
            below: OperatorMetrics::default(),
            reads: None,
            in_place: None,
            view,
        }
    }

    /// Whether the rows are cut from one table's selection, so that a
    /// piece is that table's row ids; over several, a piece is positions.
    fn single(&self) -> bool {
        self.view.tables.len() == self.builds + 1
    }

    /// The row behind a piece's position, table by table: a lone probe
    /// table's pieces are its rows, and a build table not carried into
    /// its index's posting order is read through the postings.
    fn rows_of(&self) -> Vec<RowsOf<'_>> {
        let (builds, single) = (self.builds, self.single());
        let postings = (self.probe.as_ref())
            .filter(|p| !p.carried)
            .map(|p| &*p.index);
        (self.view.tables.iter().enumerate())
            .map(|(t, table)| match (single && t == builds, postings) {
                (true, _) => RowsOf::Run(0),
                (false, Some(index)) if t < builds => {
                    RowsOf::Postings(index, Box::new(RowsOf::new(&table.sel)))
                }
                _ => RowsOf::new(&table.sel),
            })
            .collect()
    }

    /// The pieces of the probe side the loader's tasks take.
    fn pieces(&self) -> Vec<Piece<'_>> {
        let sel = &self.view.tables[self.builds].sel;
        if self.single() {
            return sel.pieces(DEFAULT_MORSEL_ROWS);
        }
        let n = sel.len();
        (0..n)
            .step_by(DEFAULT_MORSEL_ROWS)
            .map(|s| Piece::Range(s..n.min(s + DEFAULT_MORSEL_ROWS)))
            .collect()
    }

    /// The DOP an absorbed `Exchange` asked for.
    fn dop(&self) -> Option<usize> {
        self.chain.iter().find_map(|n| match n {
            PhysicalPlan::Exchange { dop, .. } => Some(*dop),
            _ => None,
        })
    }

    /// Load one piece: narrow it by the probe side's conjuncts; with a
    /// join, probe each survivor in order and narrow the matches by the
    /// build side's conjuncts — the rows the join and the filter above it
    /// would have emitted, in their order; then hand what survives to
    /// `emit` — the piece itself, the masks a range's conjuncts left (a
    /// range they keep whole or not at all stays a range), one row list
    /// per table, left empty for a table the sink does not read (see
    /// `Source::reads`), or, to a fold that probes in place, the probe
    /// rows and the index, which the fold matches and counts — tallied in
    /// `ran`. No column but the conjuncts' and the probe key is read.
    fn load(
        &self,
        piece: &Piece<'_>,
        scratch: &mut Scratch,
        ran: &Counters,
        emit: &mut dyn FnMut(Loaded<'_>) -> usize,
    ) -> std::result::Result<(), ExecError> {
        let Scratch { masks, ids, rows } = scratch;
        let (tables, builds, single) = (self.view.tables.len(), self.builds, self.single());
        let mut piece = piece.clone();
        // The first row of a range whose rows `masks` name.
        let mut masked = None;
        let own = match &self.tail {
            Some((prefix, all)) if matches!(&piece, Piece::Range(r) if r.start >= *prefix) => all,
            _ => &self.conjuncts[builds],
        };
        if single && !own.is_empty() {
            ids.clear();
            let blocks = narrow_piece(&piece, own, masks, ids)?;
            piece = match piece {
                Piece::Range(r) => {
                    let start = r.start;
                    let (kept, full) = Masked { start, masks }.tally(r.len());
                    ran.blocks(Blocks { full, ..blocks });
                    masked = (kept > 0 && kept < r.len()).then_some(start);
                    match kept {
                        0 => Piece::Range(start..start),
                        _ => Piece::Range(r),
                    }
                }
                Piece::Rows(_) => Piece::Rows(ids),
            };
        } else if !single && self.conjuncts[builds..].iter().any(|c| !c.is_empty()) {
            // Positions of a view of several tables: narrowed table by
            // table, each at its own rows, in step.
            let mut at = Vec::new();
            each(&piece, |p| at.push(p));
            for (conjuncts, rows_of) in self.conjuncts.iter().zip(self.rows_of()).skip(builds) {
                if !conjuncts.is_empty() {
                    let mut tmp = at.iter().map(|&p| rows_of.row(p)).collect();
                    narrow_in_step(conjuncts, &mut [&mut tmp, &mut at], &mut Vec::new())?;
                }
            }
            *ids = at;
            piece = Piece::Rows(ids);
        }
        let kept = masked.map(|start| Masked { start, masks });
        if let (Some(probe), Some(build)) = (&self.probe, self.in_place) {
            let rows = match kept {
                Some(masked) => Kept::Masked(masked),
                None => Kept::Piece(piece),
            };
            let (on, index) = (probe.on.as_u32()?, &*probe.index);
            let pairs = emit(Loaded::Probed(Probed {
                rows,
                on,
                index,
                build,
            }));
            ran.add(pairs, pairs);
            return Ok(());
        }
        if single && self.probe.is_none() {
            match kept {
                Some(masked) => {
                    ran.add(masked.len(), 0);
                    emit(Loaded::Masked(masked));
                }
                None => {
                    ran.add(piece.len(), 0);
                    emit(Loaded::Piece(piece));
                }
            }
            return Ok(());
        }
        // The pairs' positions — build, then probe — and each table's rows.
        // A probe fills the probe positions only when the build side's
        // conjuncts or the sink read them.
        let rows_of = self.rows_of();
        let read = |t: usize| self.reads.is_none_or(|r| r.contains(&t));
        let stepped = self.conjuncts[..builds].iter().any(|c| !c.is_empty());
        let probed = stepped || (builds..tables).any(read);
        rows.resize_with(tables + 2, Vec::new);
        let (at, lists) = rows.split_at_mut(2);
        let [build_at, probe_at] = at else {
            unreachable!("two position lists")
        };
        build_at.clear();
        probe_at.clear();
        match &self.probe {
            Some(probe) => {
                let (on, key) = (probe.on.as_u32()?, &rows_of[probe.table]);
                let find = |j: u32| {
                    for run in probe.index.matches(on[key.row(j) as usize]) {
                        if probed {
                            probe_at.extend(std::iter::repeat_n(j, run.len()));
                        }
                        build_at.extend(run);
                    }
                };
                match kept {
                    Some(masked) => masked.each(find),
                    None => each(&piece, find),
                }
            }
            None => each(&piece, |j| probe_at.push(j)),
        }
        let pairs = build_at.len();
        for (conjuncts, rows_of) in self.conjuncts.iter().zip(&rows_of).take(builds) {
            match (conjuncts.is_empty(), rows_of) {
                (true, _) => {}
                (false, RowsOf::Run(0)) => {
                    narrow_in_step(conjuncts, &mut [build_at, probe_at], ids)?;
                }
                (false, rows_of) => {
                    let mut tmp = build_at.iter().map(|&p| rows_of.row(p)).collect();
                    narrow_in_step(conjuncts, &mut [&mut tmp, build_at, probe_at], ids)?;
                }
            }
        }
        match self.probe {
            Some(_) => ran.add(build_at.len(), pairs),
            None => ran.add(probe_at.len(), 0),
        }
        // A table whose rows are its side's positions reads them in place.
        let mut out: Vec<&[u32]> = Vec::with_capacity(tables);
        for ((t, rows_of), list) in rows_of.iter().enumerate().zip(lists.iter_mut()) {
            let at = if t < builds {
                &build_at[..]
            } else {
                &probe_at[..]
            };
            if let RowsOf::Run(0) = rows_of {
                out.push(at);
                continue;
            }
            if !read(t) {
                out.push(&[]);
                continue;
            }
            list.clear();
            list.extend(at.iter().map(|&p| rows_of.row(p)));
            out.push(list);
        }
        emit(Loaded::Rows(&out));
        Ok(())
    }

    /// Record the absorbed nodes as they would have recorded themselves,
    /// bottom-up from `below`. The loader's summed time, spread over the
    /// workers that shared it, is added once; the join reports the pairs
    /// its probe found, the filter its survivors and the blocks its
    /// kernel skipped, an `Exchange` what its child did plus its DOP and
    /// the pieces dispatched.
    fn record(&self, c: &mut OpCollector, ran: &Counters, workers: usize) {
        let load = |n: &AtomicU64| n.load(Ordering::Relaxed);
        let mut m = self.below.clone();
        m.wall += Duration::from_nanos(load(&ran.busy)) / workers.max(1) as u32;
        for &node in self.chain.iter().rev() {
            match node {
                PhysicalPlan::Join { .. } => m.rows_out = load(&ran.pairs),
                PhysicalPlan::Filter { .. } => {
                    m.stats.record(Blocking::Pipelined, m.rows_out);
                    m.rows_out = load(&ran.rows);
                }
                _ => {}
            }
            c.record(node, m.rows_out, m.wall, m.stats);
            match (node, c.slot(node)) {
                (PhysicalPlan::Exchange { dop, .. }, Some(slot)) => {
                    slot.dop = Some(*dop);
                    slot.morsels = self.pieces().len() as u64;
                }
                (PhysicalPlan::Filter { .. }, Some(slot)) => slot.blocks = ran.tested(),
                (PhysicalPlan::Join { .. }, Some(slot)) => slot.in_place = self.in_place.is_some(),
                _ => {}
            }
        }
    }
}

/// `ranges`, ascending, cut at row `at`: the parts before it, and the
/// parts from it on (empty parts dropped).
fn split_ranges(ranges: &[Range<usize>], at: usize) -> (Vec<Range<usize>>, Vec<Range<usize>>) {
    let part = |r: &Range<usize>, lo: usize, hi: usize| r.start.clamp(lo, hi)..r.end.clamp(lo, hi);
    let head = ranges.iter().map(|r| part(r, 0, at));
    let tail = ranges.iter().map(|r| part(r, at, usize::MAX));
    let keep = |r: &Range<usize>| !r.is_empty();
    (head.filter(keep).collect(), tail.filter(keep).collect())
}

/// `pieces` of ascending rows cut at row `at`: the parts before it, and
/// the parts from it on (empty parts dropped).
fn split_pieces<'s>(pieces: Vec<Piece<'s>>, at: usize) -> (Vec<Piece<'s>>, Vec<Piece<'s>>) {
    let listed = |ids: &'s [u32]| (!ids.is_empty()).then_some(Piece::Rows(ids));
    let (mut head, mut tail) = (Vec::new(), Vec::new());
    for piece in pieces {
        let (h, t) = match piece {
            Piece::Range(r) => {
                let (h, t) = split_ranges(std::slice::from_ref(&r), at);
                let piece = |r: Vec<Range<usize>>| r.into_iter().next().map(Piece::Range);
                (piece(h), piece(t))
            }
            Piece::Rows(ids) => {
                let (h, t) = ids.split_at(ids.partition_point(|&i| (i as usize) < at));
                (listed(h), listed(t))
            }
        };
        head.extend(h);
        tail.extend(t);
    }
    (head, tail)
}

/// Call `f` on each position of `piece`, in order.
fn each(piece: &Piece<'_>, mut f: impl FnMut(u32)) {
    match piece {
        Piece::Range(r) => (r.start as u32..r.end as u32).for_each(f),
        Piece::Rows(ids) => ids.iter().for_each(|&p| f(p)),
    }
}

/// Keep the entries of `lists` — lists of one length, entry by entry —
/// whose row in `lists[0]` satisfies every conjunct, in order. The
/// narrowing kernel keeps the subsequence of `lists[0]` whose rows pass
/// into `kept`; a row passes or fails wherever it occurs, so walking
/// `lists[0]` and `kept` in step finds each kept entry.
fn narrow_in_step(
    conjuncts: &[Conjunct],
    lists: &mut [&mut Vec<u32>],
    kept: &mut Vec<u32>,
) -> std::result::Result<(), ExecError> {
    kept.clear();
    narrow_piece(&Piece::Rows(lists[0]), conjuncts, &mut Vec::new(), kept)?;
    let mut next = kept.iter().peekable();
    let mut n = 0;
    for i in 0..lists[0].len() {
        if next.next_if_eq(&&lists[0][i]).is_some() {
            lists.iter_mut().for_each(|list| list[n] = list[i]);
            n += 1;
        }
    }
    lists.iter_mut().for_each(|list| list.truncate(n));
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
    /// The narrowing kernel's blocks, skipped ones in the high 32 bits and
    /// tested ones in the low: one add per piece.
    blocks: AtomicU64,
    /// The blocks every row of which passed.
    full: AtomicU64,
}

impl Counters {
    fn add(&self, rows: usize, pairs: usize) {
        self.rows.fetch_add(rows as u64, Ordering::Relaxed);
        self.pairs.fetch_add(pairs as u64, Ordering::Relaxed);
    }

    fn blocks(&self, blocks: Blocks) {
        if blocks.tested > 0 {
            let packed = blocks.skipped << 32 | blocks.tested;
            self.blocks.fetch_add(packed, Ordering::Relaxed);
            self.full.fetch_add(blocks.full, Ordering::Relaxed);
        }
    }

    /// The blocks tested, skipped and full, when any were tested.
    fn tested(&self) -> Option<Blocks> {
        let packed = self.blocks.load(Ordering::Relaxed);
        (packed > 0).then(|| Blocks {
            tested: packed & u64::from(u32::MAX),
            skipped: packed >> 32,
            full: self.full.load(Ordering::Relaxed),
        })
    }

    fn time(&self, began: Option<Instant>) {
        if let Some(began) = began {
            self.busy
                .fetch_add(began.elapsed().as_nanos() as u64, Ordering::Relaxed);
        }
    }
}

/// HJ and SPHJ: the joins that build a [`JoinIndex`] and probe it.
fn indexed(plan: &PhysicalPlan) -> bool {
    matches!(
        plan,
        PhysicalPlan::Join {
            algo: JoinAlgorithm::HashBased | JoinAlgorithm::StaticPerfectHash,
            ..
        }
    )
}

/// The nodes a loader over `plan` runs inside itself instead of as nodes
/// of their own, at any DOP, top-down from `plan`: `[Exchange] [Filter]
/// [Exchange] HJ|SPHJ`, or `[Exchange] Filter`; none when `plan` is
/// neither. The loader runs as nodes the join's two sides, else the
/// filter's input, else `plan` itself.
fn absorbed(plan: &PhysicalPlan) -> Vec<&PhysicalPlan> {
    let mut chain = Vec::new();
    let mut node = plan;
    for filter in [false, true, false] {
        match (node, filter) {
            (PhysicalPlan::Exchange { input, .. }, false)
            | (PhysicalPlan::Filter { input, .. }, true) => {
                chain.push(node);
                node = input;
            }
            _ => {}
        }
    }
    if indexed(node) {
        chain.push(node);
        return chain;
    }
    // Without a join, only the `Exchange` above a filter is absorbed.
    while chain
        .last()
        .is_some_and(|n| !matches!(n, PhysicalPlan::Filter { .. }))
    {
        chain.pop();
    }
    chain
}

/// The columns the plan above `target` reads of `target`'s output, by
/// name, when `target` is `plan` or lies beneath it, `above` being what
/// the plan above `plan` reads (`None`: every column reaches the root):
/// the filters', sorts' and joins' columns up to the nearest `Project` or
/// grouping, and that node's. A name a join above qualified `right.`
/// still names its column.
fn reads_above<'p>(
    plan: &'p PhysicalPlan,
    target: &PhysicalPlan,
    above: Option<Vec<&'p str>>,
) -> Option<Option<Vec<&'p str>>> {
    if std::ptr::eq(plan, target) {
        return Some(above);
    }
    let with = |more: Vec<&'p str>| {
        above.clone().map(|mut names| {
            names.extend(more);
            names
        })
    };
    match plan {
        PhysicalPlan::Scan { .. } | PhysicalPlan::PartitionedScan { .. } => None,
        PhysicalPlan::Filter { input, predicate } => {
            reads_above(input, target, with(predicate.columns()))
        }
        PhysicalPlan::Sort { input, key, .. } => reads_above(input, target, with(vec![key])),
        PhysicalPlan::Limit { input, .. } | PhysicalPlan::Exchange { input, .. } => {
            reads_above(input, target, with(Vec::new()))
        }
        PhysicalPlan::Project { input, columns } => reads_above(
            input,
            target,
            Some(columns.iter().map(String::as_str).collect()),
        ),
        PhysicalPlan::GroupBy {
            input, keys, aggs, ..
        } => {
            let read = keys.iter().map(String::as_str);
            let read = read.chain(aggs.iter().filter_map(|a| a.column.as_deref()));
            reads_above(input, target, Some(read.collect()))
        }
        PhysicalPlan::Join {
            left,
            right,
            left_key,
            right_key,
            ..
        } => {
            let above = with(vec![left_key, right_key]);
            reads_above(left, target, above.clone()).or_else(|| reads_above(right, target, above))
        }
    }
}

/// Whether a single-key HG/SPHG over `input` reads `key` from a base
/// table's own rows, and that table keeps [`KeyCodes`] for it — so its
/// loader finds the codes where it reads the key: a `Scan` or
/// `PartitionedScan` through filters and exchanges, or the side holding
/// `key` of the HJ or SPHJ its loader absorbs (see [`absorbed`]), the
/// build side when both hold it. An AV relation and a join beneath the
/// loader's have no codes.
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
    let entry = |table: &str| catalog.stored(table).ok();
    let table = match absorbed(input).last() {
        Some(PhysicalPlan::Join { left, right, .. }) => match scanned(left) {
            Some(l) if entry(l).is_some_and(|e| e.relation.schema().index_of(key).is_ok()) => {
                Some(l)
            }
            Some(_) => scanned(right),
            None => None,
        },
        _ => scanned(input),
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

// ---------------------------------------------------------------------------
// Filters: compiled conjuncts narrowing a piece
// ---------------------------------------------------------------------------

/// One conjunct of a filter predicate, bound to its column.
enum Conjunct {
    /// `u32` values against a `u32` constant — the dominant case.
    U32 { data: Ints, op: CmpOp, v: u32 },
    /// Two or more comparisons on one column's `u32` values as one: the
    /// values in `lo..=hi` pass, tested by one compare, `x - lo <= hi -
    /// lo` in wrapping arithmetic; `None` passes nothing.
    Between {
        data: Ints,
        range: Option<(u32, u32)>,
    },
    /// Dictionary-encoded string column (comparison, prefix, `LIKE`): the
    /// predicate is evaluated once per *code* under real string order,
    /// regardless of how codes were assigned; rows test their code against
    /// the codes it kept.
    Code {
        codes: Arc<Column>,
        hits: Hits,
        column: String,
        /// The dictionary's size when the catalog's statistics do not
        /// prove every code of the column lies below it: then each row's
        /// code is checked, and one outside fails the filter.
        check: Option<u32>,
    },
    /// Any other column type against a constant, value by value.
    Slow {
        col: Arc<Column>,
        op: CmpOp,
        value: Value,
        column: String,
    },
}

/// The `u32` values a comparison reads: a `u32` column's own, or the
/// catalog's dense codes of it ([`KeyCodes`]), which keep the keys'
/// order, so a comparison with a key's rank keeps the rows a comparison
/// with the key would — and a grouping that reads the codes then reads
/// one column, not two.
#[derive(Clone)]
enum Ints {
    Column(Arc<Column>),
    Codes(Arc<KeyCodes>),
}

impl Ints {
    fn values(&self) -> std::result::Result<&[u32], ExecError> {
        match self {
            Ints::Column(col) => Ok(col.as_u32()?),
            Ints::Codes(codes) => Ok(codes.codes()),
        }
    }

    /// Whether both read the same values.
    fn same(&self, other: &Ints) -> bool {
        match (self, other) {
            (Ints::Column(a), Ints::Column(b)) => Arc::ptr_eq(a, b),
            (Ints::Codes(a), Ints::Codes(b)) => Arc::ptr_eq(a, b),
            _ => false,
        }
    }
}

impl Conjunct {
    /// The values a comparison other than `<>` reads, and the ones it
    /// keeps, `lo..=hi`; `None` inside when it keeps none.
    fn interval(&self) -> Option<(&Ints, Option<(u32, u32)>)> {
        match self {
            Conjunct::U32 { data, op, v } => {
                let (lo, hi) = within(*op, *v)?;
                let lo = match lo {
                    Bound::Included(l) => Some(l),
                    Bound::Excluded(l) => l.checked_add(1),
                    Bound::Unbounded => Some(0),
                };
                let hi = match hi {
                    Bound::Included(h) => Some(h),
                    Bound::Excluded(h) => h.checked_sub(1),
                    Bound::Unbounded => Some(u32::MAX),
                };
                Some((data, lo.zip(hi).filter(|(l, h)| l <= h)))
            }
            Conjunct::Between { data, range } => Some((data, *range)),
            _ => None,
        }
    }
}

/// `conjuncts` with every two or more comparisons other than `<>` on one
/// column's values folded into one [`Conjunct::Between`], at the first
/// one's place: `key >= ? AND key < ?` tests one compare per row, not
/// two.
fn merge_ranges(conjuncts: Vec<Conjunct>) -> Vec<Conjunct> {
    let mut out: Vec<Conjunct> = Vec::with_capacity(conjuncts.len());
    for c in conjuncts {
        let merged = c.interval().and_then(|(data, range)| {
            let (at, kept) = out.iter().enumerate().find_map(|(at, o)| {
                let (d, kept) = o.interval()?;
                d.same(data).then_some((at, kept))
            })?;
            let range = kept.zip(range).map(|((a, b), (c, d))| (a.max(c), b.min(d)));
            let range = range.filter(|(lo, hi)| lo <= hi);
            let data = data.clone();
            Some((at, Conjunct::Between { data, range }))
        });
        match merged {
            Some((at, between)) => out[at] = between,
            None => out.push(c),
        }
    }
    out
}

/// The comparison `op v` on a column as the same comparison on its
/// order-preserving codes, whose keys ascend in `keys`: against the rank
/// `v` has, or would have, among them. An `=` with a key the column lacks
/// compares with `keys.len()`, which no code equals.
fn ranked(keys: &[u32], op: CmpOp, v: u32) -> (CmpOp, u32) {
    let rank = |p: usize| p as u32;
    let (below, upto) = (
        rank(keys.partition_point(|&k| k < v)),
        rank(keys.partition_point(|&k| k <= v)),
    );
    let at = if upto > below {
        below
    } else {
        rank(keys.len())
    };
    match op {
        CmpOp::Lt => (CmpOp::Lt, below),
        CmpOp::Le => (CmpOp::Lt, upto),
        CmpOp::Gt => (CmpOp::Ge, upto),
        CmpOp::Ge => (CmpOp::Ge, below),
        CmpOp::Eq | CmpOp::Ne => (op, at),
    }
}

/// The codes a string conjunct keeps, in the cheapest form a row tests.
enum Hits {
    /// None: no row passes.
    None,
    /// The run of codes `lo..=hi`: one `u32` compare per row. `=` keeps
    /// one code of any dictionary; `<`, `>` and a prefix keep a run of an
    /// order-preserving one.
    Run(u32, u32),
    /// Scattered codes: each row looks its code up.
    Table(Vec<bool>),
}

impl Hits {
    /// The codes `table` marks (`table[code]`), as a run when they form one.
    fn of(table: Vec<bool>) -> Hits {
        let (Some(lo), Some(hi)) = (
            table.iter().position(|&h| h),
            table.iter().rposition(|&h| h),
        ) else {
            return Hits::None;
        };
        match table[lo..=hi].iter().all(|&h| h) {
            true => Hits::Run(lo as u32, hi as u32),
            false => Hits::Table(table),
        }
    }
}

/// The conjuncts of `pred`: its leaves, below any `And`.
fn leaves(pred: &Predicate) -> Vec<&Predicate> {
    match pred {
        Predicate::And(ps) => ps.iter().flat_map(leaves).collect(),
        leaf => vec![leaf],
    }
}

/// Bind the conjunct `leaf` to its column, on the table of `view` that
/// holds it; returns that table.
fn compile(view: &View, leaf: &Predicate) -> Result<(usize, Conjunct)> {
    let (Predicate::Compare { column, .. }
    | Predicate::Prefix { column, .. }
    | Predicate::Like { column, .. }) = leaf
    else {
        return Err(CoreError::Unsupported(format!("nested conjunct {leaf:?}")));
    };
    let (t, name) = view.column(column)?;
    let table = &view.tables[t];
    let (rel, col) = (&table.rel, table.rel.column(name)?);
    let per_code = |like: bool, matches: &dyn Fn(&str) -> bool| {
        if like && col.data_type() != DataType::Str {
            return Err(CoreError::Unsupported(format!(
                "LIKE on non-string column '{column}'"
            )));
        }
        // Codes without a dictionary cannot be compared to strings.
        let dict = rel.dictionary(name)?.ok_or_else(|| {
            CoreError::Unsupported(format!(
                "string column '{column}' has no dictionary attached"
            ))
        })?;
        col.as_u32()?;
        // The catalog's exact maximum proves, once for the column, what
        // would otherwise be checked row by row.
        let inside = table
            .props(name)
            .is_some_and(|p| p.distinct == 0 || (p.max as usize) < dict.len());
        Ok(Conjunct::Code {
            codes: rel.column_arc(name)?,
            hits: Hits::of(dict.match_table(matches)),
            column: column.clone(),
            check: (!inside).then(|| u32::try_from(dict.len()).unwrap_or(u32::MAX)),
        })
    };
    let conjunct = match leaf {
        Predicate::Compare { op, value, .. } => match (col.data_type(), col.as_u32(), value) {
            (DataType::Str, _, Value::Str(lit)) => {
                per_code(false, &|s| op.eval(s.cmp(lit.as_str())))?
            }
            (DataType::Str, _, _) => {
                return Err(CoreError::Unsupported(format!(
                    "string column '{column}' compared to non-string literal {value}"
                )))
            }
            (_, Ok(_), Value::U32(v)) => match table.coded(name) {
                Some(codes) => {
                    let (op, v) = ranked(codes.keys(), *op, *v);
                    let data = Ints::Codes(codes.clone());
                    Conjunct::U32 { data, op, v }
                }
                None => Conjunct::U32 {
                    data: Ints::Column(rel.column_arc(name)?),
                    op: *op,
                    v: *v,
                },
            },
            _ => Conjunct::Slow {
                col: rel.column_arc(name)?,
                op: *op,
                value: value.clone(),
                column: column.clone(),
            },
        },
        Predicate::Prefix { prefix, .. } => per_code(true, &|s| s.starts_with(prefix.as_str()))?,
        Predicate::Like { pattern, .. } => per_code(true, &|s| dqo_plan::like_match(pattern, s))?,
        Predicate::And(_) => unreachable!("refused above"),
    };
    Ok((t, conjunct))
}

/// The bounds a `u32` comparison puts on its column — saturating, so they
/// cover the values it keeps; `None` for `<>`.
fn covering(op: CmpOp, v: u32) -> Option<(u32, u32)> {
    Some(match op {
        CmpOp::Eq => (v, v),
        CmpOp::Lt => (0, v.saturating_sub(1)),
        CmpOp::Le => (0, v),
        CmpOp::Gt => (v.saturating_add(1), u32::MAX),
        CmpOp::Ge => (v, u32::MAX),
        CmpOp::Ne => return None,
    })
}

/// The values a `u32` comparison keeps, as the bounds a binary search
/// finds; `None` for `<>`, which keeps two runs. Exact at the edges of the
/// domain — `< 0` and `> 4294967295` keep nothing — where [`covering`]'s
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

/// The rows of `piece` that satisfy every conjunct: of a range, as block
/// masks in `masks` (see [`mask_range`]), each further conjunct ANDed
/// into them ([`mask_and`]); of listed rows, appended to `ids`, each
/// further conjunct running over the survivors of the one before. Returns
/// the blocks the first conjunct tested.
fn narrow_piece(
    piece: &Piece<'_>,
    conjuncts: &[Conjunct],
    masks: &mut Vec<u64>,
    ids: &mut Vec<u32>,
) -> std::result::Result<Blocks, ExecError> {
    let (from, mut blocks) = (ids.len(), Blocks::default());
    for (n, conjunct) in conjuncts.iter().enumerate() {
        // One monomorphic loop per predicate, over the column's values.
        macro_rules! keep {
            ($col:expr, $keep:expr) => {
                match (piece, n) {
                    (Piece::Range(r), 0) => blocks = mask_range($col, r.clone(), $keep, masks),
                    (Piece::Range(r), _) => mask_and($col, r.clone(), $keep, masks),
                    (Piece::Rows(_), 0) => blocks = piece.narrow($col, $keep, ids),
                    (Piece::Rows(_), _) => narrow_rows(ids, from, $col, $keep),
                }
            };
        }
        // No row passes, and none needs checking: nothing is read.
        macro_rules! none {
            () => {
                match piece {
                    Piece::Range(r) => {
                        masks.clear();
                        masks.resize(r.len().div_ceil(BLOCK_ROWS), 0);
                    }
                    Piece::Rows(_) => ids.truncate(from),
                }
            };
        }
        match conjunct {
            Conjunct::U32 { data, op, v } => {
                let (data, v) = (data.values()?, *v);
                match op {
                    CmpOp::Eq => keep!(data, |x| x == v),
                    CmpOp::Ne => keep!(data, |x| x != v),
                    CmpOp::Lt => keep!(data, |x| x < v),
                    CmpOp::Le => keep!(data, |x| x <= v),
                    CmpOp::Gt => keep!(data, |x| x > v),
                    CmpOp::Ge => keep!(data, |x| x >= v),
                }
            }
            Conjunct::Between { data, range } => match *range {
                Some((lo, hi)) => {
                    let (data, span) = (data.values()?, hi - lo);
                    keep!(data, |x: u32| x.wrapping_sub(lo) <= span)
                }
                None => none!(),
            },
            Conjunct::Code {
                codes,
                hits,
                column,
                check,
            } => {
                let codes = codes.as_u32()?;
                let missing = std::cell::Cell::new(None);
                macro_rules! coded {
                    ($keep:expr) => {{
                        let keep = $keep;
                        match *check {
                            None => keep!(codes, keep),
                            Some(size) => keep!(codes, |c: u32| {
                                if c >= size {
                                    missing.set(Some(c));
                                }
                                keep(c)
                            }),
                        }
                    }};
                }
                match hits {
                    Hits::None if check.is_none() => none!(),
                    Hits::None => coded!(|_| false),
                    Hits::Run(lo, hi) => {
                        let (lo, span) = (*lo, hi - lo);
                        coded!(|c: u32| c.wrapping_sub(lo) <= span)
                    }
                    Hits::Table(hits) => {
                        coded!(|c: u32| hits.get(c as usize).copied().unwrap_or(false))
                    }
                }
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
                let cmp = |cell: Value| cell.total_cmp(value);
                if !piece.is_empty() && col.value_at(0).ok().and_then(cmp).is_none() {
                    return Err(ExecError::PreconditionViolated {
                        algorithm: "filter",
                        detail: format!("cross-type comparison {column} vs {value}"),
                    });
                }
                let holds = |cell| cmp(cell).is_some_and(|ord| op.eval(ord));
                match col.data_type() {
                    DataType::U32 | DataType::Str => keep!(col.as_u32()?, |x| holds(Value::U32(x))),
                    DataType::U64 => keep!(col.as_u64()?, |x| holds(Value::U64(x))),
                    DataType::I64 => keep!(col.as_i64()?, |x| holds(Value::I64(x))),
                    DataType::F64 => keep!(col.as_f64()?, |x| holds(Value::F64(x))),
                    DataType::Bool => keep!(col.as_bool()?, |x| holds(Value::Bool(x))),
                }
            }
        }
    }
    Ok(blocks)
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
            let view = View::of(rel.clone());
            let layouts = keys
                .iter()
                .map(|k| view.layout(k))
                .collect::<Result<Vec<_>>>()?;
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
    use dqo_exec::grouping::{execute_grouping, GroupingHints};
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
        let mut view = Table {
            rel: entry.relation.as_ref().clone(),
            sel: Selection::Ranges(vec![8..40, 0..8]),
            stats: Some(entry),
            known: Vec::new(),
            tail: None,
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
    fn exchange_nodes_execute_correctly_on_the_pool() {
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
        // Exchange{BSG} runs BSG's fold on the pool: morsels are
        // dispatched, the merge is one more breaker, and the groups are
        // the serial ones, in the same ascending order.
        let bsg = group_by(GroupingAlgorithm::BinarySearch);
        let bsg_serial = execute(&bsg, &cat).unwrap();
        let bsg_plan = PhysicalPlan::Exchange {
            input: Box::new(bsg),
            dop: 4,
        };
        let traced = ExecContext {
            collect_metrics: true,
            ..ExecContext::default()
        };
        let (par, nodes) = execute_with(&bsg_plan, &cat, &traced).unwrap();
        assert!(nodes[0].morsels > 0, "BSG ran on the pool");
        assert_eq!(par.pipeline.breakers, bsg_serial.pipeline.breakers + 1);
        assert_eq!(
            rows_in_order(&par.relation),
            rows_in_order(&bsg_serial.relation),
            "parallel BSG"
        );
        assert_eq!(sorted_rows(&par.relation), sorted_rows(&serial.relation));
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

    /// A serial Sort, a Sort under a `Limit`, a SOG and a SOJ each record
    /// one breaker over the rows they sort (SOJ: both sides), beside the
    /// scans' and filters' streamed rows; what they copy is their key
    /// scratch, read through a filter's selection, and the root's gather.
    #[test]
    fn serial_sort_based_plans_account_one_breaker_each() {
        let cat = Catalog::new();
        let (r, s) = ForeignKeySpec {
            r_rows: 1_000,
            s_rows: 3_000,
            groups: 50,
            r_sorted: false,
            s_sorted: false,
            dense: true,
            seed: 3,
        }
        .generate()
        .unwrap();
        cat.register("R", r);
        cat.register("S", s);
        let scan = |table: &str| {
            Box::new(PhysicalPlan::Scan {
                table: table.into(),
            })
        };
        let filtered = || {
            Box::new(PhysicalPlan::Filter {
                input: scan("S"),
                predicate: Predicate::cmp("payload", CmpOp::Lt, 400u32),
            })
        };
        let sort = |input, molecule| {
            Box::new(PhysicalPlan::Sort {
                input,
                key: "r_id".into(),
                molecule,
            })
        };
        let limit = |input| PhysicalPlan::Limit { input, n: 100 };
        let sog = |input, sort| PhysicalPlan::GroupBy {
            input,
            keys: vec!["r_id".into()],
            aggs: vec![
                AggExpr::count_star("n"),
                AggExpr::on(AggFunc::Sum, "payload", "total"),
            ],
            algo: GroupingAlgorithm::SortOrderBased,
            molecules: GroupingMolecules {
                sort: Some(sort),
                ..GroupingMolecules::defaults_for(GroupingAlgorithm::SortOrderBased)
            },
        };
        let soj = |right| PhysicalPlan::Join {
            left: scan("R"),
            right,
            left_key: "id".into(),
            right_key: "r_id".into(),
            algo: JoinAlgorithm::SortOrderBased,
        };
        let (cmp, radix) = (SortMolecule::Comparison, SortMolecule::Radix);
        // [breakers, materialised_rows, streamed_rows, bytes_materialised]
        let cases: [(&str, PhysicalPlan, [u64; 4]); 10] = [
            ("sort", *sort(scan("S"), cmp), [1, 3000, 3000, 24000]),
            (
                "radix sort",
                *sort(filtered(), radix),
                [1, 1207, 6000, 14484],
            ),
            ("top-n", limit(sort(scan("S"), cmp)), [1, 3000, 3000, 800]),
            (
                "filtered top-n",
                limit(sort(filtered(), radix)),
                [1, 1207, 6000, 5628],
            ),
            (
                "top-n past the end",
                PhysicalPlan::Limit {
                    input: sort(filtered(), cmp),
                    n: 5_000,
                },
                [1, 1207, 6000, 14484],
            ),
            // SOG is the sort and then OG's fold, which streams the rows.
            ("sog", sog(scan("S"), cmp), [1, 3000, 6000, 0]),
            (
                "filtered radix sog",
                sog(filtered(), radix),
                [1, 1207, 7207, 9656],
            ),
            ("soj", soj(scan("S")), [1, 4000, 4000, 48000]),
            ("filtered soj", soj(filtered()), [1, 2207, 7000, 24140]),
            (
                "sorted soj",
                limit(sort(Box::new(soj(filtered())), cmp)),
                [2, 3414, 7000, 11256],
            ),
        ];
        for (name, plan, expect) in cases {
            let out = execute(&plan, &cat).unwrap();
            let p = out.pipeline;
            let got = [
                p.breakers as u64,
                p.materialised_rows,
                p.streamed_rows,
                out.bytes_materialised,
            ];
            assert_eq!(got, expect, "{name}");
        }
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
            (
                GroupingAlgorithm::BinarySearch,
                GroupingMolecules::defaults_for(GroupingAlgorithm::BinarySearch),
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
                let layouts = [View::of(joined.clone()).layout(key).unwrap()];
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
    /// 2 and 8. The join copies exactly the build keys it indexes when the
    /// build side's selection is not one dense run, and nothing else; the
    /// root copies exactly the output.
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
                        let traced = ExecContext {
                            collect_metrics: true,
                            ..ExecContext::default()
                        };
                        let (out, nodes) = execute_with(&plan, &cat, &traced).unwrap();
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
                        // The join: the build keys read through a `Rows`
                        // selection, never the probe keys or its output.
                        // The root: the output's four columns.
                        let at = usize::from(dop > 1);
                        assert_eq!(nodes[at].bytes_materialised, copied_keys, "{ctx}");
                        let output = 16 * expect[0].len() as u64;
                        assert_eq!(out.bytes_materialised, output + copied_keys, "{ctx}");
                    }
                }
            }
        }
    }
}
