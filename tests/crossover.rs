//! The Figure 4 zoom-in (E2): on unsorted-sparse data, binary-search
//! grouping beats hash grouping for very small group counts, and the cost
//! model places the crossover where the paper saw it (≈14 groups).

use dqo::core::cost::{CostModel, TupleCostModel};
use dqo::exec::aggregate::CountSum;
use dqo::exec::grouping::{execute_grouping, GroupingAlgorithm, GroupingHints};
use dqo::storage::datagen::DatasetSpec;
use std::time::Instant;

#[test]
fn cost_model_crossover_is_at_16_groups() {
    // BSG = |R|·log2(g) < HG = 4·|R|  ⇔  g < 2^4 = 16. The paper's
    // measured crossover ("up to 14 groups") sits just below the model's.
    let m = TupleCostModel;
    let rows = 1e8;
    for g in 2..16 {
        assert!(
            m.grouping(GroupingAlgorithm::BinarySearch, rows, g as f64)
                < m.grouping(GroupingAlgorithm::HashBased, rows, g as f64),
            "BSG should win at {g} groups"
        );
    }
    for g in [17, 32, 1000] {
        assert!(
            m.grouping(GroupingAlgorithm::BinarySearch, rows, g as f64)
                > m.grouping(GroupingAlgorithm::HashBased, rows, g as f64),
            "HG should win at {g} groups"
        );
    }
}

#[test]
fn measured_crossover_exists_on_unsorted_sparse_data() {
    // Measure BSG vs HG at small and large group counts. Timing-based but
    // with a wide margin: at 4 groups BSG's two-deep binary search over an
    // L1-resident array must beat chained hashing; at 4096 groups it must
    // lose. Repeated to dampen noise.
    let rows = 400_000;
    let time_of = |algo: GroupingAlgorithm, keys: &[u32], hints: &GroupingHints| {
        let mut best = f64::INFINITY;
        for _ in 0..3 {
            let start = Instant::now();
            let r = execute_grouping(algo, keys, keys, CountSum, hints).unwrap();
            let dt = start.elapsed().as_secs_f64();
            assert!(!r.is_empty());
            best = best.min(dt);
        }
        best
    };

    let small = DatasetSpec::new(rows, 4).dense(false).generate().unwrap();
    let mut known: Vec<u32> = small.clone();
    known.sort_unstable();
    known.dedup();
    let hints_small = GroupingHints {
        known_keys: Some(known),
        ..Default::default()
    };
    let bsg_small = time_of(GroupingAlgorithm::BinarySearch, &small, &hints_small);
    let hg_small = time_of(GroupingAlgorithm::HashBased, &small, &hints_small);

    let large = DatasetSpec::new(rows, 4096)
        .dense(false)
        .generate()
        .unwrap();
    let mut known: Vec<u32> = large.clone();
    known.sort_unstable();
    known.dedup();
    let hints_large = GroupingHints {
        distinct: Some(4096),
        known_keys: Some(known),
        ..Default::default()
    };
    let bsg_large = time_of(GroupingAlgorithm::BinarySearch, &large, &hints_large);
    let hg_large = time_of(GroupingAlgorithm::HashBased, &large, &hints_large);

    // The *relative* standing must flip between the two regimes — that is
    // the crossover, robust to absolute machine speed.
    let ratio_small = bsg_small / hg_small;
    let ratio_large = bsg_large / hg_large;
    assert!(
        ratio_small < ratio_large,
        "BSG/HG ratio must grow with group count: {ratio_small:.3} vs {ratio_large:.3}"
    );
    // The absolute claim (BSG actually competitive at 4 groups) holds for
    // optimised code; unoptimised binary search carries debug overhead
    // that buries the cache effect, so assert it in release builds only.
    if !cfg!(debug_assertions) {
        assert!(
            ratio_small < 1.1,
            "BSG should be competitive at 4 groups (ratio {ratio_small:.3})"
        );
    }
}
