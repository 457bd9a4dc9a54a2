//! Pipeline-breaker accounting.
//!
//! §1 of the paper criticises the textbook hash-grouping signature for
//! inducing *"two unnecessary pipeline breakers"*: the fully materialised
//! input relation and the collected result set. This module gives the
//! engine a way to *measure* that: operators report how many times they
//! materialise their full input/output, and the deep-plan executor
//! aggregates the counts so plans can be compared on blocking behaviour,
//! not just abstract cost.

use dqo_storage::Blocks;
use std::fmt;
use std::time::Duration;

/// Blocking behaviour of one operator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Blocking {
    /// Streams tuples through (e.g. OG's single pass, SPHJ's probe side).
    Pipelined,
    /// Must consume its entire input before producing output (e.g. the
    /// build of a hash table, a sort).
    FullBreaker,
}

/// Execution statistics accumulated along a pipeline.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PipelineStats {
    /// Number of pipeline breakers encountered.
    pub breakers: usize,
    /// Total rows materialised at breakers.
    pub materialised_rows: u64,
    /// Total rows streamed through pipelined operators.
    pub streamed_rows: u64,
}

impl PipelineStats {
    /// Record one operator's behaviour over `rows` tuples.
    pub fn record(&mut self, blocking: Blocking, rows: u64) {
        match blocking {
            Blocking::Pipelined => self.streamed_rows += rows,
            Blocking::FullBreaker => {
                self.breakers += 1;
                self.materialised_rows += rows;
            }
        }
    }

    /// Merge stats from a sub-pipeline.
    pub fn merge(&mut self, other: &PipelineStats) {
        self.breakers += other.breakers;
        self.materialised_rows += other.materialised_rows;
        self.streamed_rows += other.streamed_rows;
    }

    /// The stats accumulated *since* an earlier snapshot `before` — how a
    /// per-operator collector isolates one node's contribution from the
    /// running pipeline totals. Saturating, so a snapshot taken out of
    /// order yields zeros instead of a panic.
    pub fn since(&self, before: &PipelineStats) -> PipelineStats {
        PipelineStats {
            breakers: self.breakers.saturating_sub(before.breakers),
            materialised_rows: self
                .materialised_rows
                .saturating_sub(before.materialised_rows),
            streamed_rows: self.streamed_rows.saturating_sub(before.streamed_rows),
        }
    }
}

/// Runtime metrics for one physical-plan node, collected during an
/// instrumented (`EXPLAIN ANALYZE`) execution. Nodes are identified by
/// their pre-order index in the plan tree, matching the order in which
/// the plan renderer emits lines — so a metrics vector zips directly
/// with the rendered tree.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct OperatorMetrics {
    /// Rows this node produced.
    pub rows_out: u64,
    /// Inclusive wall time (the node plus its whole subtree).
    pub wall: Duration,
    /// Pipeline-breaker stats contributed by this node's subtree.
    pub stats: PipelineStats,
    /// Granted degree of parallelism, for `Exchange` nodes.
    pub dop: Option<usize>,
    /// Morsels/tasks dispatched under this node (`Exchange` subtrees).
    pub morsels: u64,
    /// Successful morsel steals under this node (`Exchange` subtrees).
    pub steals: u64,
    /// Bytes of column data this node itself (children excluded) copied
    /// into new buffers: kernel scratch for a key or value column read
    /// through a selection. Nodes that only narrow, reorder, join or
    /// project selections copy nothing; the plan root's gather is counted
    /// in the execution's total only.
    pub bytes_materialised: u64,
    /// For a filter (a plan node or one fused into a grouping) that
    /// answered at least one conjunct by binary search instead of a scan:
    /// `(searched, conjuncts)`.
    pub searched: Option<(usize, usize)>,
    /// For a filter whose conjuncts tested row ranges in 64-row blocks:
    /// the blocks tested, those in which no row passed the first
    /// conjunct, and those every row of which passed every conjunct.
    pub blocks: Option<Blocks>,
    /// For a scan of a sorted projection whose tail is not empty:
    /// `(tail, rows)`, the rows still in append order out of all.
    pub tail: Option<(u64, u64)>,
    /// For an HJ or SPHJ: where its index came from — `"built"` for this
    /// query, `"memo"` from the build table's memo, `"av"` from an
    /// SPH-index AV — and the build columns it reads in the index's
    /// posting order.
    pub index: Option<(&'static str, Vec<String>)>,
    /// On an HJ or SPHJ: its probe handed each match straight to the
    /// SPHG fold above it — a unique index, its build columns carried —
    /// and wrote no pair.
    pub in_place: bool,
}

impl fmt::Display for PipelineStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} breaker(s), {} rows materialised, {} rows streamed",
            self.breakers, self.materialised_rows, self.streamed_rows
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_and_merge() {
        let mut s = PipelineStats::default();
        s.record(Blocking::Pipelined, 100);
        s.record(Blocking::FullBreaker, 50);
        assert_eq!(s.breakers, 1);
        assert_eq!(s.materialised_rows, 50);
        assert_eq!(s.streamed_rows, 100);

        let mut t = PipelineStats::default();
        t.record(Blocking::FullBreaker, 10);
        s.merge(&t);
        assert_eq!(s.breakers, 2);
        assert_eq!(s.materialised_rows, 60);
    }

    #[test]
    fn since_isolates_a_subtree_and_saturates() {
        let mut before = PipelineStats::default();
        before.record(Blocking::FullBreaker, 40);
        let mut after = before;
        after.record(Blocking::Pipelined, 100);
        after.record(Blocking::FullBreaker, 7);
        let delta = after.since(&before);
        assert_eq!(
            delta,
            PipelineStats {
                breakers: 1,
                materialised_rows: 7,
                streamed_rows: 100
            }
        );
        // Out-of-order snapshots clamp to zero rather than underflow.
        assert_eq!(before.since(&after), PipelineStats::default());
    }

    #[test]
    fn operator_metrics_default_is_empty() {
        let m = OperatorMetrics::default();
        assert_eq!(m.rows_out, 0);
        assert_eq!(m.wall, std::time::Duration::ZERO);
        assert_eq!(m.dop, None);
        assert_eq!(m.stats, PipelineStats::default());
    }

    #[test]
    fn display() {
        let mut s = PipelineStats::default();
        s.record(Blocking::FullBreaker, 5);
        assert!(s.to_string().contains("1 breaker"));
    }
}
