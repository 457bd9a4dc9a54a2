//! Aggregate machinery.
//!
//! §4.1: *"Each implementation computes the aggregates COUNT and SUM on the
//! fly and stores a mapping from grouping key to aggregate data inside an
//! array."* [`CountSum`] is that aggregate; [`FullAgg`] extends it with
//! MIN/MAX (and AVG at finalisation) for the richer SQL surface.
//!
//! The distinction the paper draws in §2.1 — distributive/decomposable
//! aggregation functions allow *running* aggregates inside an SPH array —
//! is captured by [`Aggregator::IS_DECOMPOSABLE`]: decomposable aggregates
//! can be merged across partitions, which is what lets `dqo-parallel` run a
//! grouping's loop in parallel.

/// A streaming aggregate over `u32` values.
///
/// Implementations must be cheap to copy; per-group state lives in the
/// grouping operator's table.
pub trait Aggregator: Copy + Send + Sync + 'static {
    /// Per-group running state.
    type State: Clone + Default + Send;

    /// Whether two partial states can be merged ([`Aggregator::merge`]);
    /// true for distributive/algebraic aggregates (COUNT, SUM, MIN, MAX,
    /// AVG), enabling independent per-partition aggregation (Figure 2).
    const IS_DECOMPOSABLE: bool;

    /// Fold one value into a state.
    fn update(&self, state: &mut Self::State, value: u32);

    /// Merge a partial state into another (partition-parallel aggregation).
    fn merge(&self, into: &mut Self::State, from: &Self::State);

    /// Tuples folded into `state`. Every update and every merge of a
    /// non-empty state raises it, so a group's state is occupied exactly
    /// when its count is non-zero.
    fn count(&self, state: &Self::State) -> u64;
}

/// The paper's aggregate: COUNT(*) and SUM(value), on the fly.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CountSum;

/// State for [`CountSum`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CountSumState {
    /// Number of tuples in the group.
    pub count: u64,
    /// Sum of the aggregated values.
    pub sum: u64,
}

impl Aggregator for CountSum {
    type State = CountSumState;
    const IS_DECOMPOSABLE: bool = true;

    #[inline(always)]
    fn update(&self, state: &mut CountSumState, value: u32) {
        state.count += 1;
        state.sum += u64::from(value);
    }

    #[inline(always)]
    fn merge(&self, into: &mut CountSumState, from: &CountSumState) {
        into.count += from.count;
        into.sum += from.sum;
    }

    #[inline(always)]
    fn count(&self, state: &CountSumState) -> u64 {
        state.count
    }
}

/// Extended aggregate: COUNT, SUM, MIN, MAX (AVG derivable at finalise).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FullAgg;

/// State for [`FullAgg`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FullAggState {
    /// Number of tuples in the group.
    pub count: u64,
    /// Sum of values.
    pub sum: u64,
    /// Minimum value (meaningful when `count > 0`).
    pub min: u32,
    /// Maximum value (meaningful when `count > 0`).
    pub max: u32,
}

impl Default for FullAggState {
    fn default() -> Self {
        FullAggState {
            count: 0,
            sum: 0,
            min: u32::MAX,
            max: 0,
        }
    }
}

impl FullAggState {
    /// Arithmetic mean, or `None` for an empty group.
    pub fn avg(&self) -> Option<f64> {
        (self.count > 0).then(|| self.sum as f64 / self.count as f64)
    }
}

impl Aggregator for FullAgg {
    type State = FullAggState;
    const IS_DECOMPOSABLE: bool = true;

    #[inline(always)]
    fn update(&self, state: &mut FullAggState, value: u32) {
        state.count += 1;
        state.sum += u64::from(value);
        state.min = state.min.min(value);
        state.max = state.max.max(value);
    }

    #[inline(always)]
    fn merge(&self, into: &mut FullAggState, from: &FullAggState) {
        if from.count == 0 {
            return;
        }
        into.count += from.count;
        into.sum += from.sum;
        into.min = into.min.min(from.min);
        into.max = into.max.max(from.max);
    }

    #[inline(always)]
    fn count(&self, state: &FullAggState) -> u64 {
        state.count
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn count_sum_updates() {
        let agg = CountSum;
        let mut s = CountSumState::default();
        for v in [1u32, 2, 3] {
            agg.update(&mut s, v);
        }
        assert_eq!(s, CountSumState { count: 3, sum: 6 });
    }

    #[test]
    fn count_sum_merge_associative() {
        let agg = CountSum;
        let mut a = CountSumState::default();
        let mut b = CountSumState::default();
        for v in 0..10u32 {
            agg.update(&mut a, v);
        }
        for v in 10..20u32 {
            agg.update(&mut b, v);
        }
        let mut merged = a;
        agg.merge(&mut merged, &b);
        let mut all = CountSumState::default();
        for v in 0..20u32 {
            agg.update(&mut all, v);
        }
        assert_eq!(merged, all);
    }

    #[test]
    fn count_sum_handles_large_sums() {
        let agg = CountSum;
        let mut s = CountSumState::default();
        for _ in 0..1000 {
            agg.update(&mut s, u32::MAX);
        }
        assert_eq!(s.sum, 1000 * u64::from(u32::MAX));
    }

    #[test]
    fn full_agg_min_max_avg() {
        let agg = FullAgg;
        let mut s = FullAggState::default();
        for v in [5u32, 1, 9, 3] {
            agg.update(&mut s, v);
        }
        assert_eq!(s.count, 4);
        assert_eq!(s.sum, 18);
        assert_eq!(s.min, 1);
        assert_eq!(s.max, 9);
        assert_eq!(s.avg(), Some(4.5));
    }

    #[test]
    fn full_agg_empty_state() {
        let s = FullAggState::default();
        assert_eq!(s.avg(), None);
    }

    #[test]
    fn full_agg_merge_ignores_empty() {
        let agg = FullAgg;
        let mut a = FullAggState::default();
        agg.update(&mut a, 7);
        let before = a;
        agg.merge(&mut a, &FullAggState::default());
        assert_eq!(a, before);
    }

    #[test]
    fn full_agg_merge_combines_extrema() {
        let agg = FullAgg;
        let mut a = FullAggState::default();
        let mut b = FullAggState::default();
        agg.update(&mut a, 10);
        agg.update(&mut b, 2);
        agg.update(&mut b, 30);
        agg.merge(&mut a, &b);
        assert_eq!((a.min, a.max, a.count, a.sum), (2, 30, 3, 42));
    }

    #[test]
    fn decomposability_flags() {
        const { assert!(CountSum::IS_DECOMPOSABLE) };
        const { assert!(FullAgg::IS_DECOMPOSABLE) };
    }
}
