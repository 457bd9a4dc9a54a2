//! Per-operator runtime profiles behind `EXPLAIN ANALYZE`.
//!
//! The instrumented executor ([`crate::executor::execute_with`]) hands
//! back one [`OperatorMetrics`] per physical-plan node in pre-order. This
//! module turns that vector into the annotated tree a user reads:
//! estimated-vs-actual cardinality per node (the estimates are the rows
//! the memo costed the plan with, so the delta audits the cost model that
//! picked it), wall time, rows produced, pipeline breakers, bytes the
//! node copied into new column buffers, and — on `Filter` nodes — the
//! conjuncts binary search answered and the 64-row blocks in which no row
//! passed, on HJ/SPHJ nodes where the join index came from, the build
//! columns carried into its order and whether the probe folded in place,
//! and — on `Exchange` nodes — granted
//! DOP, morsels dispatched, and steals.

use crate::catalog::Catalog;
use crate::feedback::FeedbackStore;
use crate::property_builder::PropertyBuilder;
use dqo_exec::pipeline::OperatorMetrics;
use dqo_plan::PhysicalPlan;
use std::time::Duration;

/// The runtime profile of one executed plan: per-node metrics in
/// pre-order (index `i` describes the `i`-th line of the rendered tree).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PlanRuntime {
    /// One entry per plan node, pre-order.
    pub nodes: Vec<OperatorMetrics>,
}

impl PlanRuntime {
    /// Metrics for the node at pre-order index `i`.
    pub fn node(&self, i: usize) -> Option<&OperatorMetrics> {
        self.nodes.get(i)
    }

    /// Number of profiled nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True when nothing was profiled (untraced execution).
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }
}

/// Estimated output cardinality for every node of `plan`, pre-order: the
/// memo's row derivation ([`PropertyBuilder::estimate_rows`]) folded over
/// the physical tree, with `feedback`'s corrections when given — the rows
/// the memo costs this plan's groups with under the same store. A table
/// or column missing from the catalog degrades that node's estimate
/// instead of failing — EXPLAIN ANALYZE must render for any plan the
/// executor accepts.
pub fn estimate_rows(
    plan: &PhysicalPlan,
    catalog: &Catalog,
    feedback: Option<&FeedbackStore>,
) -> Vec<u64> {
    PropertyBuilder::new(catalog, feedback).estimate_rows(plan)
}

/// Render the annotated `EXPLAIN ANALYZE` tree: the plain explain lines
/// with ` (est=… act=… Δ=… wall=…)` per node — `breakers=` and `bytes=`
/// (bytes materialised) where non-zero, `search=k/n` on a filter that
/// answered `k` of its `n` conjuncts by binary search, `skipped=k/n` on a
/// filter whose narrowing kernel found no row passing its first conjunct
/// in `k` of the `n` 64-row blocks it tested (explicit row ids test no
/// blocks) and `full=f`, the blocks every row of which passed — a
/// grouping folds them whole —, `tail=t/n`
/// on a scan of a sorted projection that holds `t` of its `n` rows in
/// its tail, in append order, `index=built|memo|av` on an HJ or SPHJ (its
/// index built for the query, taken from the build table's memo or from
/// an SPH-index AV) with `carried=c,…`, the build columns it reads in the
/// index's posting order, and `fold=in-place` when its probe handed each
/// match straight to the SPHG grouping above it, writing no pair — plus
/// parallel-runtime detail on `Exchange` nodes. The estimates are [`estimate_rows`] under
/// `feedback`. Empty runtimes (untraced execution) render the plain tree.
pub fn render_annotated(
    plan: &PhysicalPlan,
    catalog: &Catalog,
    runtime: &PlanRuntime,
    feedback: Option<&FeedbackStore>,
) -> String {
    if runtime.is_empty() {
        return plan.explain();
    }
    let est = estimate_rows(plan, catalog, feedback);
    plan.explain_annotated(&|id, node| {
        let m = runtime.node(id)?;
        let e = est.get(id).copied().unwrap_or(0);
        let mut parts = vec![
            format!("est={e}"),
            format!("act={}", m.rows_out),
            format!("Δ={}", fmt_delta(e, m.rows_out)),
            format!("wall={}", fmt_duration(m.wall)),
        ];
        if m.stats.breakers > 0 {
            parts.push(format!("breakers={}", m.stats.breakers));
        }
        if m.bytes_materialised > 0 {
            parts.push(format!("bytes={}", m.bytes_materialised));
        }
        if let Some((searched, conjuncts)) = m.searched {
            parts.push(format!("search={searched}/{conjuncts}"));
        }
        if let Some(blocks) = m.blocks {
            parts.push(format!("skipped={}/{}", blocks.skipped, blocks.tested));
            parts.push(format!("full={}", blocks.full));
        }
        if let Some((tail, rows)) = m.tail {
            parts.push(format!("tail={tail}/{rows}"));
        }
        if let Some((from, carried)) = &m.index {
            parts.push(format!("index={from}"));
            if !carried.is_empty() {
                parts.push(format!("carried={}", carried.join(",")));
            }
        }
        if m.in_place {
            parts.push("fold=in-place".to_owned());
        }
        if let PhysicalPlan::Exchange { .. } = node {
            parts.push(format!("dop={}", m.dop.unwrap_or(0)));
            parts.push(format!("morsels={}", m.morsels));
            parts.push(format!("steals={}", m.steals));
        }
        Some(format!("({})", parts.join(" ")))
    })
}

/// Signed relative cardinality error, actual vs estimate.
fn fmt_delta(est: u64, act: u64) -> String {
    if est == act {
        return "+0.0%".to_owned();
    }
    if est == 0 {
        return "+inf".to_owned();
    }
    let pct = ((act as f64) - (est as f64)) / (est as f64) * 100.0;
    format!("{pct:+.1}%")
}

/// Compact human duration: ns/µs/ms/s with two significant decimals.
pub(crate) fn fmt_duration(d: Duration) -> String {
    let nanos = d.as_nanos();
    if nanos < 1_000 {
        format!("{nanos}ns")
    } else if nanos < 1_000_000 {
        format!("{:.2}µs", nanos as f64 / 1e3)
    } else if nanos < 1_000_000_000 {
        format!("{:.2}ms", nanos as f64 / 1e6)
    } else {
        format!("{:.2}s", d.as_secs_f64())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn delta_and_duration_formatting() {
        assert_eq!(fmt_delta(100, 100), "+0.0%");
        assert_eq!(fmt_delta(100, 150), "+50.0%");
        assert_eq!(fmt_delta(200, 100), "-50.0%");
        assert_eq!(fmt_delta(0, 5), "+inf");
        assert_eq!(fmt_duration(Duration::from_nanos(420)), "420ns");
        assert_eq!(fmt_duration(Duration::from_micros(1500)), "1.50ms");
        assert_eq!(fmt_duration(Duration::from_secs(2)), "2.00s");
    }

    #[test]
    fn empty_runtime_renders_plain_explain() {
        let plan = PhysicalPlan::Scan { table: "t".into() };
        assert_eq!(
            render_annotated(&plan, &Catalog::new(), &PlanRuntime::default(), None),
            plan.explain()
        );
    }
}
