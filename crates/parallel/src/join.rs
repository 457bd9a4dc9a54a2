//! The parallel probe of a join index.
//!
//! HJ and SPHJ build one [`JoinIndex`] — hashed or identity slot map —
//! and [`parallel_probe`] runs its probe, one task per probe morsel
//! through the serial probe kernel. The index itself (built fresh, or a
//! prebuilt Algorithmic View) comes from the caller, who takes it in one
//! place for serial and parallel probes alike.
//!
//! Output pairs are concatenated in probe-morsel order, so results are
//! byte-identical to the serial probe across runs and thread counts.

use crate::pool::{PoolError, ThreadPool};
use dqo_exec::join::{JoinIndex, JoinResult};

/// Probe `index` with `right`, one task per probe morsel through
/// [`JoinIndex::probe`]: the pairs of the serial probe, in its order.
pub fn parallel_probe(
    pool: &ThreadPool,
    index: &JoinIndex,
    right: &[u32],
    morsel_rows: usize,
) -> Result<JoinResult, PoolError> {
    let chunks = pool.map_morsels(right.len(), morsel_rows, |m| {
        // The probe's right-row indices are morsel-local; rebase them.
        let mut local = index.probe(m.of(right));
        for r in &mut local.right_rows {
            *r += m.start as u32;
        }
        local
    })?;
    let mut result = JoinResult {
        left_rows: Vec::new(),
        right_rows: Vec::new(),
        sorted_by_key: false,
    };
    for local in chunks {
        result.left_rows.extend_from_slice(&local.left_rows);
        result.right_rows.extend_from_slice(&local.right_rows);
    }
    Ok(result)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The pairs a nested loop finds, as `(build row, probe row)` ordered
    /// by probe row, then build row: the order every probe emits.
    fn ordered_oracle(left: &[u32], right: &[u32]) -> Vec<(u32, u32)> {
        let mut out = Vec::new();
        for (j, &rk) in right.iter().enumerate() {
            for (i, &lk) in left.iter().enumerate() {
                if lk == rk {
                    out.push((i as u32, j as u32));
                }
            }
        }
        out
    }

    fn pairs(r: &JoinResult) -> Vec<(u32, u32)> {
        r.left_rows
            .iter()
            .copied()
            .zip(r.right_rows.iter().copied())
            .collect()
    }

    /// Every slot map over `left`: hashed always, identity when the build
    /// domain fits in a few million slots (an empty build side takes the
    /// one-slot domain `[0, 0]`).
    fn indexes(left: &[u32]) -> Vec<(&'static str, JoinIndex)> {
        let mut out = vec![("hashed", JoinIndex::hashed(left))];
        let min = left.iter().copied().min().unwrap_or(0);
        let max = left.iter().copied().max().unwrap_or(0);
        if max - min < 1 << 23 {
            out.push(("identity", JoinIndex::identity(left, min, max).unwrap()));
        }
        out
    }

    /// Check both slot maps × both layouts on one case: the build keys with
    /// each key's first occurrence only (unique layout), and as given plus
    /// one more copy of the first key (CSR). The serial probe and the
    /// parallel probe at 1, 2 and 8 threads must equal the ordered
    /// nested loop.
    fn check(case: &str, left: &[u32], right: &[u32]) {
        let mut seen = std::collections::HashSet::new();
        let first: Vec<u32> = left.iter().copied().filter(|&k| seen.insert(k)).collect();
        let mut repeated = left.to_vec();
        repeated.extend(left.first());
        for (build, unique) in [(first, true), (repeated, left.is_empty())] {
            let oracle = ordered_oracle(&build, right);
            for (map, index) in indexes(&build) {
                let ctx = format!("{case}: {map}, unique={unique}");
                assert_eq!(index.is_unique(), unique, "{ctx}");
                let serial = index.probe(right);
                assert_eq!(pairs(&serial), oracle, "{ctx}");
                assert!(!serial.sorted_by_key, "{ctx}");
                for threads in [1, 2, 8] {
                    let pool = ThreadPool::new(threads);
                    let par = parallel_probe(&pool, &index, right, 64).unwrap();
                    assert_eq!(par, serial, "{ctx}, threads={threads}");
                }
            }
        }
    }

    fn dataset(n: usize, domain: u32) -> Vec<u32> {
        (0..n)
            .map(|i| (i as u32).wrapping_mul(2_654_435_761) % domain)
            .collect()
    }

    #[test]
    fn every_slot_map_and_layout_emits_the_ordered_nested_loop() {
        // LP's empty-slot key and zero — first seen after other keys, and
        // probed though no build row holds it — beside keys near the top
        // of the range (where an identity domain still fits).
        let top = [u32::MAX, u32::MAX - 2, u32::MAX, 5, 0];
        check("u32::MAX and 0", &[0, 7, u32::MAX, 0, u32::MAX], &top);
        check("u32::MAX probed only", &[0, 7, 5], &top);
        check(
            "top of the range",
            &[u32::MAX - 2, u32::MAX, u32::MAX],
            &top,
        );
        // 1 024 keys sharing their low 12 bits, probed with themselves,
        // reversed and repeated, and with misses between them.
        let shared: Vec<u32> = (0..1_024u32).map(|i| (i << 12) | 0xABC).collect();
        let probe: Vec<u32> = shared.iter().rev().flat_map(|&k| [k, k ^ 1, k]).collect();
        check("shared low 12 bits", &shared, &probe);
        check("all duplicates", &[42; 300], &[42, 41, 42, 0, 42]);
        check("empty build", &[], &[1, 2]);
        check("empty probe", &[1, 2], &[]);
        check("both empty", &[], &[]);
        check("no matches", &[1, 2], &[3, 4]);
        check("duplicates on both sides", &[1, 2, 2, 3], &[2, 2, 3, 4]);
        // PK ⋈ FK: one pair per probe row.
        let pk: Vec<u32> = (0..100).collect();
        let fk: Vec<u32> = (0..5_000).map(|i| (i * 7) % 100).collect();
        check("pk-fk", &pk, &fk);
        assert_eq!(JoinIndex::hashed(&pk).probe(&fk).len(), 5_000);
        // Probe keys outside the build domain, across many morsels.
        check("dataset", &dataset(700, 50), &dataset(900, 60));
    }

    #[test]
    fn identity_rejects_inverted_domain() {
        assert!(JoinIndex::identity(&[1], 5, 2).is_err());
    }
}
