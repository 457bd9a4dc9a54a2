//! The cost model — Table 2 of the paper, verbatim.
//!
//! | | Grouping | Join |
//! |---|---|---|
//! | hash-based | `HG(R) = 4·|R|` | `HJ(R,S) = 4·(|R|+|S|)` |
//! | order-based | `OG(R) = |R|` | `OJ(R,S) = |R|+|S|` |
//! | sort & order-based | `SOG(R) = |R|·log₂|R| + |R|` | `SOJ(R,S) = |R|·log₂|R| + |S|·log₂|S| + |R|+|S|` |
//! | static perfect hash | `SPHG(R) = |R|` | `SPHJ(R,S) = |R|+|S|` |
//! | binary search | `BSG(R) = |R|·log₂(#groups)` | `BSJ(R,S) = (|R|+|S|)·log₂(#groups)` |
//!
//! Costs are in abstract *tuple operations*; the explicit sort enforcer
//! costs `|R|·log₂|R|`, so `Sort(R) + Sort(S) + OJ ≡ SOJ` — the DP
//! composes partial sorts (sort only the unsorted input) out of these
//! pieces, which is exactly what Figure 5's 2.8× cell requires.

use dqo_plan::{GroupingAlgorithm, JoinAlgorithm};

/// log₂ with the convention `log2(x) = 0` for `x ≤ 1` (sorting one row is
/// free; a single group needs no search).
#[inline]
pub fn log2(x: f64) -> f64 {
    if x <= 1.0 {
        0.0
    } else {
        x.log2()
    }
}

/// Per-batch overhead of dispatching a parallel operator onto the
/// persistent pool, in the model's tuple-operation units: cutting the
/// batch into per-runner blocks, one push onto the pool's job queue, and
/// the final join handshake cost about as much as streaming this many
/// tuples.
pub const PARALLEL_BATCH_TUPLES: f64 = 1_000.0;

/// Per-worker dispatch overhead of a parallel batch: waking one parked
/// pool worker (condvar signal + queue pop + cold caches) costs about
/// this many tuple operations. Before the persistent pool this term was
/// a full `std::thread` spawn — 10 000 tuples — so the amortisation is
/// what lets the optimiser parallelise ~4× smaller inputs; charging the
/// remainder per worker is what still keeps genuinely small inputs
/// serial.
pub const PARALLEL_DISPATCH_TUPLES: f64 = 2_500.0;

/// A cost model over the paper's algorithm families.
///
/// The `parallel_*` methods extend Table 2 to DOP-annotated operators:
/// the work term divides by the degree of parallelism, a startup term
/// charges [`PARALLEL_BATCH_TUPLES`] once plus
/// [`PARALLEL_DISPATCH_TUPLES`] per worker, and a merge term charges the
/// post-aggregation combine (per-worker partial groups for grouping, a
/// build-side pass for HJ). Plans only go parallel
/// when that sum beats the serial cost.
pub trait CostModel: Send + Sync {
    /// Cost of grouping `rows` input tuples into `groups` groups.
    fn grouping(&self, algo: GroupingAlgorithm, rows: f64, groups: f64) -> f64;

    /// Cost of joining `left` with `right` tuples, where the build side
    /// holds `build_groups` distinct keys (BSJ's search depth).
    fn join(&self, algo: JoinAlgorithm, left: f64, right: f64, build_groups: f64) -> f64;

    /// Cost of an explicit sort enforcer over `rows` tuples.
    fn sort(&self, rows: f64) -> f64;

    /// Cost of a scan / filter pass over `rows` tuples.
    fn scan(&self, rows: f64) -> f64;

    /// Startup + merge overhead of running any operator at `dop` workers,
    /// where merging materialises `merge_tuples` extra tuples.
    fn parallel_overhead(&self, dop: usize, merge_tuples: f64) -> f64 {
        self.scan(PARALLEL_BATCH_TUPLES)
            + self.scan(PARALLEL_DISPATCH_TUPLES) * dop as f64
            + self.scan(merge_tuples)
    }

    /// Sort at degree `dop`: run formation divides the `n·log n` work,
    /// the Merge Path multi-way merge re-materialises the rows once
    /// (also divided), and each of the two phases dispatches its own
    /// batch onto the pool.
    fn parallel_sort(&self, rows: f64, dop: usize) -> f64 {
        let serial = self.sort(rows);
        if dop <= 1 {
            return serial;
        }
        let d = dop as f64;
        serial / d + self.scan(rows) / d + 2.0 * self.parallel_overhead(dop, 0.0)
    }

    /// Grouping at degree `dop`: thread-local aggregation divides the
    /// work; the merge touches up to `dop · groups` partial states.
    /// SOG decomposes differently — parallel sort, a divided OG pass,
    /// and a boundary stitch over at most `groups` merged states.
    fn parallel_grouping(
        &self,
        algo: GroupingAlgorithm,
        rows: f64,
        groups: f64,
        dop: usize,
    ) -> f64 {
        let serial = self.grouping(algo, rows, groups);
        if dop <= 1 {
            return serial;
        }
        let d = dop as f64;
        match algo {
            GroupingAlgorithm::SortOrderBased => {
                self.parallel_sort(rows, dop)
                    + self.grouping(GroupingAlgorithm::OrderBased, rows, groups) / d
                    + self.parallel_overhead(dop, groups)
            }
            _ => serial / d + self.parallel_overhead(dop, groups * d),
        }
    }

    /// Join at degree `dop`: SPHJ keeps its cheap serial build and divides
    /// only the probe; SOJ runs two parallel sorts then a divided
    /// range-partitioned merge. HJ now runs exactly like SPHJ — a serial
    /// build of its hashed index, then the divided probe — but its formula
    /// is kept verbatim (both sides divided, plus a pass over the build
    /// side, from the partitioned HJ it once priced), so no plan moves;
    /// refitting it belongs to fitting the cost model as a whole.
    fn parallel_join(
        &self,
        algo: JoinAlgorithm,
        left: f64,
        right: f64,
        build_groups: f64,
        dop: usize,
    ) -> f64 {
        if dop <= 1 {
            return self.join(algo, left, right, build_groups);
        }
        let d = dop as f64;
        match algo {
            JoinAlgorithm::StaticPerfectHash => {
                self.join(algo, left, right / d, build_groups) + self.parallel_overhead(dop, 0.0)
            }
            JoinAlgorithm::SortOrderBased => {
                self.parallel_sort(left, dop)
                    + self.parallel_sort(right, dop)
                    + self.join(JoinAlgorithm::OrderBased, left, right, build_groups) / d
                    + self.parallel_overhead(dop, 0.0)
            }
            _ => {
                self.join(algo, left / d, right / d, build_groups)
                    + self.parallel_overhead(dop, left)
            }
        }
    }

    /// Table-2 extension for composite (multi-column) grouping keys: the
    /// executor packs the key tuple into `u32` codes
    /// with one normalise-and-scale pass per key column beyond the first
    /// (the first column rides along with the grouping kernel's own
    /// scan). Row-wise fallbacks cost more in practice, but the model
    /// deliberately charges the packed path — the optimiser should not
    /// avoid composite groupings it can run packed.
    fn composite_key_pack(&self, rows: f64, key_columns: usize) -> f64 {
        self.scan(rows) * key_columns.saturating_sub(1) as f64
    }

    /// Scan/filter at degree `dop`: embarrassingly parallel, no merge.
    fn parallel_scan(&self, rows: f64, dop: usize) -> f64 {
        let serial = self.scan(rows);
        if dop <= 1 {
            return serial;
        }
        serial / dop as f64 + self.parallel_overhead(dop, 0.0)
    }

    /// Model name for reports.
    fn name(&self) -> &'static str;
}

/// The Table 2 model: unit-cost tuple operations.
#[derive(Debug, Clone, Copy, Default)]
pub struct TupleCostModel;

impl CostModel for TupleCostModel {
    fn grouping(&self, algo: GroupingAlgorithm, rows: f64, groups: f64) -> f64 {
        match algo {
            GroupingAlgorithm::HashBased => 4.0 * rows,
            GroupingAlgorithm::OrderBased => rows,
            GroupingAlgorithm::SortOrderBased => rows * log2(rows) + rows,
            GroupingAlgorithm::StaticPerfectHash => rows,
            GroupingAlgorithm::BinarySearch => rows * log2(groups),
        }
    }

    fn join(&self, algo: JoinAlgorithm, left: f64, right: f64, build_groups: f64) -> f64 {
        match algo {
            JoinAlgorithm::HashBased => 4.0 * (left + right),
            JoinAlgorithm::OrderBased => left + right,
            JoinAlgorithm::SortOrderBased => left * log2(left) + right * log2(right) + left + right,
            JoinAlgorithm::StaticPerfectHash => left + right,
            JoinAlgorithm::BinarySearch => (left + right) * log2(build_groups),
        }
    }

    fn sort(&self, rows: f64) -> f64 {
        rows * log2(rows)
    }

    fn scan(&self, rows: f64) -> f64 {
        rows
    }

    fn name(&self) -> &'static str {
        "table2-tuple-ops"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const M: TupleCostModel = TupleCostModel;

    #[test]
    fn table2_grouping_formulas_exact() {
        // |R| = 1024 so log₂ = 10 exactly.
        let r = 1024.0;
        assert_eq!(M.grouping(GroupingAlgorithm::HashBased, r, 16.0), 4096.0);
        assert_eq!(M.grouping(GroupingAlgorithm::OrderBased, r, 16.0), 1024.0);
        assert_eq!(
            M.grouping(GroupingAlgorithm::StaticPerfectHash, r, 16.0),
            1024.0
        );
        assert_eq!(
            M.grouping(GroupingAlgorithm::SortOrderBased, r, 16.0),
            1024.0 * 10.0 + 1024.0
        );
        assert_eq!(
            M.grouping(GroupingAlgorithm::BinarySearch, r, 16.0),
            1024.0 * 4.0
        );
    }

    #[test]
    fn composite_pack_charges_one_pass_per_extra_key() {
        assert_eq!(M.composite_key_pack(1_000.0, 1), 0.0);
        assert_eq!(M.composite_key_pack(1_000.0, 2), 1_000.0);
        assert_eq!(M.composite_key_pack(1_000.0, 3), 2_000.0);
        // A 2-column SPHG still beats a single-column HG on the model:
        // pack pass + |R| < 4·|R|.
        let two_col_sphg = M.composite_key_pack(1_000.0, 2)
            + M.grouping(GroupingAlgorithm::StaticPerfectHash, 1_000.0, 16.0);
        assert!(two_col_sphg < M.grouping(GroupingAlgorithm::HashBased, 1_000.0, 16.0));
    }

    #[test]
    fn table2_join_formulas_exact() {
        let (l, s) = (1024.0, 4096.0);
        assert_eq!(M.join(JoinAlgorithm::HashBased, l, s, 64.0), 4.0 * (l + s));
        assert_eq!(M.join(JoinAlgorithm::OrderBased, l, s, 64.0), l + s);
        assert_eq!(M.join(JoinAlgorithm::StaticPerfectHash, l, s, 64.0), l + s);
        assert_eq!(
            M.join(JoinAlgorithm::SortOrderBased, l, s, 64.0),
            l * 10.0 + s * 12.0 + l + s
        );
        assert_eq!(
            M.join(JoinAlgorithm::BinarySearch, l, s, 64.0),
            (l + s) * 6.0
        );
    }

    #[test]
    fn sort_enforcers_compose_into_soj() {
        // Sort(R) + Sort(S) + OJ(R,S) must equal SOJ(R,S) exactly —
        // the identity the partial-sort plans rely on.
        let (l, s) = (25_000.0, 90_000.0);
        let composed = M.sort(l) + M.sort(s) + M.join(JoinAlgorithm::OrderBased, l, s, 1.0);
        let monolithic = M.join(JoinAlgorithm::SortOrderBased, l, s, 1.0);
        assert!((composed - monolithic).abs() < 1e-6);
    }

    #[test]
    fn log2_convention_at_small_inputs() {
        assert_eq!(log2(0.0), 0.0);
        assert_eq!(log2(1.0), 0.0);
        assert_eq!(log2(2.0), 1.0);
        // Sorting one row is free; BSG over one group probes for free.
        assert_eq!(M.sort(1.0), 0.0);
        assert_eq!(M.grouping(GroupingAlgorithm::BinarySearch, 100.0, 1.0), 0.0);
    }

    #[test]
    fn bsg_beats_hg_for_few_groups_crosses_over_later() {
        // The E2 crossover in the cost model: BSG < HG iff log₂ g < 4,
        // i.e. up to 15 groups — matching the paper's "up to 14 groups"
        // zoom-in observation.
        let rows = 1e8;
        assert!(
            M.grouping(GroupingAlgorithm::BinarySearch, rows, 14.0)
                < M.grouping(GroupingAlgorithm::HashBased, rows, 14.0)
        );
        assert!(
            M.grouping(GroupingAlgorithm::BinarySearch, rows, 15.0)
                < M.grouping(GroupingAlgorithm::HashBased, rows, 15.0)
        );
        assert!(
            M.grouping(GroupingAlgorithm::BinarySearch, rows, 17.0)
                > M.grouping(GroupingAlgorithm::HashBased, rows, 17.0)
        );
    }

    #[test]
    fn parallelism_only_pays_on_large_inputs() {
        // Small input: dispatch overhead dominates → serial HG is
        // cheaper. (The threshold sits ~4× lower than under the scoped
        // spawn scheduler: the persistent pool amortised the spawn away.)
        let small = 2_000.0;
        assert!(
            M.parallel_grouping(GroupingAlgorithm::HashBased, small, 64.0, 4)
                > M.grouping(GroupingAlgorithm::HashBased, small, 64.0)
        );
        // Large input: near-linear division wins despite overhead.
        let large = 1e7;
        let par = M.parallel_grouping(GroupingAlgorithm::HashBased, large, 64.0, 4);
        let serial = M.grouping(GroupingAlgorithm::HashBased, large, 64.0);
        assert!(par < serial / 2.0, "par={par} serial={serial}");
        // dop = 1 degenerates to the serial formula exactly.
        assert_eq!(
            M.parallel_grouping(GroupingAlgorithm::HashBased, large, 64.0, 1),
            serial
        );
    }

    #[test]
    fn parallel_join_and_scan_overheads() {
        let (l, r) = (1e6, 4e6);
        let overhead4 = PARALLEL_BATCH_TUPLES + 4.0 * PARALLEL_DISPATCH_TUPLES;
        let serial = M.join(JoinAlgorithm::HashBased, l, r, 100.0);
        let par = M.parallel_join(JoinAlgorithm::HashBased, l, r, 100.0, 4);
        // work/4 + batch + 4·dispatch + a |L| build-side pass: the
        // formula is kept as it was, though HJ now builds serially and
        // divides only its probe.
        assert!((par - (serial / 4.0 + overhead4 + l)).abs() < 1e-6);
        assert!(par < serial);
        // SPHJ: serial build (|L|) + probe/4 + overhead, no build-side pass.
        let sphj = M.parallel_join(JoinAlgorithm::StaticPerfectHash, l, r, 100.0, 4);
        assert!((sphj - (l + r / 4.0 + overhead4)).abs() < 1e-6);
        assert!(sphj < M.join(JoinAlgorithm::StaticPerfectHash, l, r, 100.0));
        assert_eq!(M.parallel_scan(100.0, 1), 100.0);
        assert!(M.parallel_scan(100.0, 4) > 100.0, "tiny scans stay serial");
        assert!(M.parallel_scan(1e8, 4) < 1e8);
    }

    #[test]
    fn amortised_dispatch_is_cheaper_than_a_spawn_but_not_free() {
        // The persistent pool must lower the parallelism break-even point
        // (vs the old 10k-tuple spawn) without eliminating it: at 5k rows
        // a dense SPHG stays serial for every DOP the engine offers.
        let rows = 5_000.0;
        let serial = M.grouping(GroupingAlgorithm::StaticPerfectHash, rows, 64.0);
        for dop in [2, 4, 8, 16] {
            assert!(
                M.parallel_grouping(GroupingAlgorithm::StaticPerfectHash, rows, 64.0, dop) > serial,
                "dop={dop}"
            );
        }
        // But a 20k-row SPHG — well below the old spawn-dominated
        // break-even (~54k rows at dop 4, when each worker cost a 10k-
        // tuple spawn) — now parallelises profitably.
        let rows = 20_000.0;
        let serial = M.grouping(GroupingAlgorithm::StaticPerfectHash, rows, 64.0);
        assert!(M.parallel_grouping(GroupingAlgorithm::StaticPerfectHash, rows, 64.0, 4) < serial);
    }

    #[test]
    fn parallel_sort_has_a_break_even_and_wins_past_it() {
        // Below break-even the two dispatch rounds dominate and the
        // serial sort stays cheaper; above it the divided n·log n wins.
        let dop = 4;
        let break_even = (1..200)
            .map(|i| i as f64 * 1_000.0)
            .find(|&rows| M.parallel_sort(rows, dop) < M.sort(rows))
            .expect("parallel sort must eventually win");
        assert!(
            (2_000.0..60_000.0).contains(&break_even),
            "break-even = {break_even}"
        );
        // Strictly serial below, strictly parallel above — the optimiser
        // "prefers the parallel sort molecule above its break-even".
        assert!(M.parallel_sort(break_even / 4.0, dop) > M.sort(break_even / 4.0));
        assert!(M.parallel_sort(break_even * 4.0, dop) < M.sort(break_even * 4.0) / 2.0);
        // dop = 1 degenerates to the serial formula exactly.
        assert_eq!(M.parallel_sort(1e6, 1), M.sort(1e6));
    }

    #[test]
    fn parallel_sog_and_soj_follow_the_sort_decomposition() {
        let (rows, groups) = (1e6, 500.0);
        let d = 4.0;
        let sog = M.parallel_grouping(GroupingAlgorithm::SortOrderBased, rows, groups, 4);
        let expect = M.parallel_sort(rows, 4)
            + M.grouping(GroupingAlgorithm::OrderBased, rows, groups) / d
            + PARALLEL_BATCH_TUPLES
            + d * PARALLEL_DISPATCH_TUPLES
            + groups;
        assert!((sog - expect).abs() < 1e-6);
        assert!(sog < M.grouping(GroupingAlgorithm::SortOrderBased, rows, groups));

        let (l, r) = (2.5e5, 1e6);
        let soj = M.parallel_join(JoinAlgorithm::SortOrderBased, l, r, 100.0, 4);
        let expect = M.parallel_sort(l, 4)
            + M.parallel_sort(r, 4)
            + M.join(JoinAlgorithm::OrderBased, l, r, 100.0) / d
            + PARALLEL_BATCH_TUPLES
            + d * PARALLEL_DISPATCH_TUPLES;
        assert!((soj - expect).abs() < 1e-6);
        assert!(soj < M.join(JoinAlgorithm::SortOrderBased, l, r, 100.0));
        // Small sort-based operators stay serial at every offered DOP.
        for dop in [2, 4, 8] {
            assert!(
                M.parallel_grouping(GroupingAlgorithm::SortOrderBased, 3_000.0, 50.0, dop)
                    > M.grouping(GroupingAlgorithm::SortOrderBased, 3_000.0, 50.0),
                "dop={dop}"
            );
        }
    }

    #[test]
    fn figure5_cell_arithmetic() {
        // The exact Figure 5 arithmetic at |R|=25k, |S|=90k, join out 90k:
        // SQO best (R unsorted, S sorted, dense) = Sort(R)+OJ+OG;
        // DQO best = SPHJ+SPHG; ratio ≈ 2.78 → rounds to 2.8.
        let (r, s, j) = (25_000.0, 90_000.0, 90_000.0);
        let sqo = M.sort(r)
            + M.join(JoinAlgorithm::OrderBased, r, s, 1.0)
            + M.grouping(GroupingAlgorithm::OrderBased, j, 20_000.0);
        let dqo = M.join(JoinAlgorithm::StaticPerfectHash, r, s, 1.0)
            + M.grouping(GroupingAlgorithm::StaticPerfectHash, j, 20_000.0);
        let factor = sqo / dqo;
        assert!((factor - 2.78).abs() < 0.01, "factor = {factor}");
        // And the all-unsorted cell: HJ+HG over SPHJ+SPHG = 4 exactly.
        let sqo4 = M.join(JoinAlgorithm::HashBased, r, s, 1.0)
            + M.grouping(GroupingAlgorithm::HashBased, j, 20_000.0);
        assert!((sqo4 / dqo - 4.0).abs() < 1e-9);
    }
}
