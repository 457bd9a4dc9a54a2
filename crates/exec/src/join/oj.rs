//! Order-based (merge) Join (OJ) — the join twin of order-based grouping.
//!
//! Requires **both** inputs sorted by the join key (the interesting-order
//! precondition SQO already tracks); one synchronized pass, `|R|+|S|`
//! abstract operations (Table 2), output sorted by key. The merge is one
//! loop over positions of two [`Side`]s — key columns here, sorted
//! `(key, row)` views in SOJ — which the morsel-parallel OJ and SOJ
//! (`dqo-parallel::join`) run once per key-range partition.

use crate::error::ExecError;
use crate::join::JoinResult;
use crate::Result;
use std::ops::Range;

/// One input of the merge: the key and the input row at each position.
pub trait Side: Sync {
    /// How many positions the side has.
    fn positions(&self) -> usize;
    /// The key at position `at`.
    fn key(&self, at: usize) -> u32;
    /// The input row at position `at`.
    fn row(&self, at: usize) -> u32;
}

/// A key column in input order: position `at` is row `at`.
impl Side for [u32] {
    fn positions(&self) -> usize {
        self.len()
    }

    #[inline]
    fn key(&self, at: usize) -> u32 {
        self[at]
    }

    #[inline]
    fn row(&self, at: usize) -> u32 {
        at as u32
    }
}

/// A `(key, row)` view sorted by a sort granule.
impl Side for [(u32, u32)] {
    fn positions(&self) -> usize {
        self.len()
    }

    #[inline]
    fn key(&self, at: usize) -> u32 {
        self[at].0
    }

    #[inline]
    fn row(&self, at: usize) -> u32 {
        self[at].1
    }
}

/// Merge join over two ascending key columns.
///
/// Errors if either input is unsorted, anywhere — also past the point
/// where the other input runs out.
pub fn merge_join(left_keys: &[u32], right_keys: &[u32]) -> Result<JoinResult> {
    ascends(left_keys, 0..left_keys.len(), "left")?;
    ascends(right_keys, 0..right_keys.len(), "right")?;
    Ok(merge(
        left_keys,
        0..left_keys.len(),
        right_keys,
        0..right_keys.len(),
    ))
}

/// Whether the keys of `side` at `range` ascend, each against its
/// predecessor (the one before the range included); `PreconditionViolated`
/// naming the first row that does not.
pub fn ascends<S: Side + ?Sized>(side: &S, range: Range<usize>, name: &str) -> Result<()> {
    match (range.start.max(1)..range.end).find(|&at| side.key(at - 1) > side.key(at)) {
        Some(at) => Err(ExecError::PreconditionViolated {
            algorithm: "OJ",
            detail: format!("{name} input unsorted at row {at}"),
        }),
        None => Ok(()),
    }
}

/// The merge over the ascending positions `l` of `left` and `r` of
/// `right`: the cross product of each matching key run, in position order.
pub fn merge<S: Side + ?Sized>(
    left: &S,
    l: Range<usize>,
    right: &S,
    r: Range<usize>,
) -> JoinResult {
    let mut out = JoinResult {
        sorted_by_key: true,
        ..JoinResult::default()
    };
    let (mut i, mut j) = (l.start, r.start);
    while i < l.end && j < r.end {
        let (lk, rk) = (left.key(i), right.key(j));
        if lk < rk {
            i += 1;
        } else if lk > rk {
            j += 1;
        } else {
            // Equal runs on both sides → cross product of the runs.
            let (i0, j0) = (i, j);
            while i < l.end && left.key(i) == lk {
                i += 1;
            }
            while j < r.end && right.key(j) == rk {
                j += 1;
            }
            for li in i0..i {
                for rj in j0..j {
                    out.left_rows.push(left.row(li));
                    out.right_rows.push(right.row(rj));
                }
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::join::nested_loop_oracle;

    #[test]
    fn matches_oracle_on_sorted_inputs() {
        let left = [1u32, 2, 2, 5, 9];
        let right = [2u32, 2, 3, 5, 5, 9];
        let r = merge_join(&left, &right).unwrap();
        assert_eq!(r.normalised_pairs(), nested_loop_oracle(&left, &right));
        assert!(r.sorted_by_key);
    }

    #[test]
    fn duplicate_runs_cross_product() {
        let left = [7u32, 7];
        let right = [7u32, 7, 7];
        let r = merge_join(&left, &right).unwrap();
        assert_eq!(r.len(), 6);
    }

    #[test]
    fn unsorted_left_rejected() {
        let r = merge_join(&[2u32, 1], &[1u32, 2]);
        assert!(matches!(
            r,
            Err(ExecError::PreconditionViolated {
                algorithm: "OJ",
                ..
            })
        ));
    }

    #[test]
    fn unsorted_right_rejected() {
        let r = merge_join(&[1u32, 2], &[3u32, 1, 3]);
        assert!(r.is_err());
    }

    #[test]
    fn unsorted_tail_detected() {
        // Right tail is never reached by the merge loop (left exhausts
        // first), but the order violation must still surface.
        let r = merge_join(&[1u32], &[1u32, 5, 3]);
        assert!(r.is_err());
    }

    #[test]
    fn disjoint_ranges() {
        let r = merge_join(&[1u32, 2, 3], &[10u32, 11]).unwrap();
        assert!(r.is_empty());
    }

    #[test]
    fn empty_inputs() {
        assert!(merge_join(&[], &[]).unwrap().is_empty());
        assert!(merge_join(&[1], &[]).unwrap().is_empty());
        assert!(merge_join(&[], &[1]).unwrap().is_empty());
    }
}
