//! Sorting utilities: argsort, sortedness checks, and the two sort
//! molecules over (key, payload) pairs — the sort itself is another
//! unnestable granule (Figure 3's "sort-based" branch), and *which* sort
//! to use is the plan's `SortMolecule`.

/// Indices that would sort `keys` ascending (stable).
pub fn argsort(keys: &[u32]) -> Vec<u32> {
    let mut idx: Vec<u32> = (0..keys.len() as u32).collect();
    idx.sort_by_key(|&i| keys[i as usize]);
    idx
}

/// Keep the `n` smallest of the distinct `pairs`, sorted ascending — what
/// a `LIMIT n` keeps of an `ORDER BY`. The pairs are `(key, position)`, so
/// ties on the key break by position. Only the kept pairs are sorted; the
/// rest are discarded by one selection pass.
pub fn keep_smallest(pairs: &mut Vec<(u32, u32)>, n: usize) {
    if n < pairs.len() {
        // Everything before index `n` is then smaller than `pairs[n]`.
        pairs.select_nth_unstable(n);
        pairs.truncate(n);
    }
    pairs.sort_unstable();
}

/// True if `keys` is non-decreasing.
pub fn is_sorted_asc(keys: &[u32]) -> bool {
    keys.windows(2).all(|w| w[0] <= w[1])
}

/// Comparison sort of (key, payload) pairs by key — the default molecule
/// (pattern-defeating quicksort via `sort_unstable_by_key`).
pub fn sort_pairs_by_key(pairs: &mut [(u32, u32)]) {
    pairs.sort_unstable_by_key(|&(k, _)| k);
}

/// LSB radix sort (4 passes × 8 bits) of (key, payload) pairs by key —
/// **stable**: pairs with equal keys keep their input order.
///
/// O(n) with a large constant; beats the comparison sort on large arrays
/// with wide key ranges — the kind of trade-off DQO can decide per plan
/// instead of per code base. Operates on a plain slice so callers that
/// already own a block (e.g. the parallel run-formation path) can sort in
/// place; scratch is allocated internally, or pass your own via
/// [`radix_sort_pairs_with_scratch`] to reuse it across calls.
pub fn radix_sort_pairs_by_key(pairs: &mut [(u32, u32)]) {
    let mut scratch: Vec<(u32, u32)> = vec![(0, 0); pairs.len()];
    radix_sort_pairs_with_scratch(pairs, &mut scratch);
}

/// [`radix_sort_pairs_by_key`] with a caller-provided scratch buffer of at
/// least `pairs.len()` entries (contents ignored and clobbered).
pub fn radix_sort_pairs_with_scratch(pairs: &mut [(u32, u32)], scratch: &mut [(u32, u32)]) {
    let n = pairs.len();
    if n <= 1 {
        return;
    }
    assert!(
        scratch.len() >= n,
        "radix scratch too small: {} < {n}",
        scratch.len()
    );
    // Ping-pong between the input and the scratch buffer; track which
    // one currently holds the data instead of swapping Vecs.
    let mut src: &mut [(u32, u32)] = pairs;
    let mut dst: &mut [(u32, u32)] = &mut scratch[..n];
    let mut in_scratch = false;
    for pass in 0..4 {
        let shift = pass * 8;
        let mut counts = [0usize; 256];
        for &(k, _) in src.iter() {
            counts[((k >> shift) & 0xFF) as usize] += 1;
        }
        // Skip passes where all keys share the byte (common for small
        // domains: upper passes are no-ops).
        if counts.contains(&n) {
            continue;
        }
        let mut offsets = [0usize; 256];
        let mut acc = 0usize;
        for b in 0..256 {
            offsets[b] = acc;
            acc += counts[b];
        }
        for &p in src.iter() {
            let b = ((p.0 >> shift) & 0xFF) as usize;
            dst[offsets[b]] = p;
            offsets[b] += 1;
        }
        std::mem::swap(&mut src, &mut dst);
        in_scratch = !in_scratch;
    }
    if in_scratch {
        // The sorted data ended up in the scratch buffer (`src` aliases
        // it after the last swap); copy it back into the input slice.
        dst.copy_from_slice(src);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn argsort_basic() {
        let keys = [30u32, 10, 20];
        assert_eq!(argsort(&keys), vec![1, 2, 0]);
    }

    #[test]
    fn argsort_stability() {
        // Equal keys keep original relative order.
        let keys = [5u32, 5, 1];
        assert_eq!(argsort(&keys), vec![2, 0, 1]);
    }

    #[test]
    fn argsort_stability_regression_many_duplicates() {
        // Regression for the tie-break contract the parallel merge relies
        // on: with heavy duplication, indices of equal keys must come out
        // strictly ascending (input order), i.e. `argsort` sorts by the
        // total order (key, index). The parallel sort reproduces exactly
        // this order, so any drift here breaks bit-identity with the
        // serial oracle.
        let keys: Vec<u32> = (0..10_000u32)
            .map(|i| i.wrapping_mul(2_654_435_761) % 7)
            .collect();
        let idx = argsort(&keys);
        assert_eq!(idx.len(), keys.len());
        for w in idx.windows(2) {
            let (a, b) = (w[0], w[1]);
            let (ka, kb) = (keys[a as usize], keys[b as usize]);
            assert!(ka <= kb, "keys out of order");
            if ka == kb {
                assert!(a < b, "equal keys {ka} broke input order: {a} before {b}");
            }
        }
    }

    #[test]
    fn radix_pairs_is_stable() {
        // Equal keys keep input (payload) order — the same contract as
        // `argsort`, required for the radix molecule to be interchangeable
        // with the comparison molecule under the parallel merge.
        let mut pairs: Vec<(u32, u32)> = (0..5_000u32).map(|i| (i % 13, i)).collect();
        radix_sort_pairs_by_key(&mut pairs);
        for w in pairs.windows(2) {
            assert!(w[0].0 <= w[1].0);
            if w[0].0 == w[1].0 {
                assert!(w[0].1 < w[1].1, "radix sort lost stability at {w:?}");
            }
        }
    }

    #[test]
    fn radix_with_external_scratch_matches_internal() {
        let mut a: Vec<(u32, u32)> = (0..4_096u32)
            .map(|i| (i.wrapping_mul(0x9E37_79B9), i))
            .collect();
        let mut b = a.clone();
        radix_sort_pairs_by_key(&mut a);
        let mut scratch = vec![(0u32, 0u32); b.len() + 7]; // oversized is fine
        radix_sort_pairs_with_scratch(&mut b, &mut scratch);
        assert_eq!(a, b);
    }

    #[test]
    fn sortedness_check() {
        assert!(is_sorted_asc(&[]));
        assert!(is_sorted_asc(&[1]));
        assert!(is_sorted_asc(&[1, 1, 2]));
        assert!(!is_sorted_asc(&[2, 1]));
    }

    #[test]
    fn radix_matches_comparison_sort() {
        let mut a: Vec<(u32, u32)> = (0..10_000u32)
            .map(|i| (i.wrapping_mul(2_654_435_761) ^ 0xABCD, i))
            .collect();
        let mut b = a.clone();
        sort_pairs_by_key(&mut a);
        radix_sort_pairs_by_key(&mut b);
        let ak: Vec<u32> = a.iter().map(|p| p.0).collect();
        let bk: Vec<u32> = b.iter().map(|p| p.0).collect();
        assert_eq!(ak, bk);
        // Payload multiset preserved.
        let mut ap: Vec<u32> = a.iter().map(|p| p.1).collect();
        let mut bp: Vec<u32> = b.iter().map(|p| p.1).collect();
        ap.sort_unstable();
        bp.sort_unstable();
        assert_eq!(ap, bp);
    }

    #[test]
    fn radix_pairs_boundaries() {
        let mut pairs = vec![(u32::MAX, 0), (0, 1), (u32::MAX - 1, 2), (1, 3)];
        radix_sort_pairs_by_key(&mut pairs);
        assert_eq!(
            pairs,
            vec![(0, 1), (1, 3), (u32::MAX - 1, 2), (u32::MAX, 0)]
        );
        let mut empty: Vec<(u32, u32)> = vec![];
        radix_sort_pairs_by_key(&mut empty);
        let mut one = vec![(9u32, 0u32)];
        radix_sort_pairs_by_key(&mut one);
        assert_eq!(one, vec![(9, 0)]);
    }
}
