//! Static Perfect Hash-based Grouping (SPHG) — §4.1.
//!
//! *"We use the grouping key as offset into the array storing the groups,
//! acting as a static and perfect hash function."*
//!
//! One array index per tuple, no collisions, no probing — constant ~work
//! per tuple independent of the number of groups (the flat SPHG lines in
//! Figure 4), **but only applicable on a dense key domain** (§2.1). That
//! applicability condition is exactly the density plan property DQO tracks
//! and shallow optimisers ignore.

use crate::aggregate::Aggregator;
use crate::error::ExecError;
use crate::grouping::GroupedResult;
use crate::Result;

/// SPH grouping over the dense domain `[min, max]`.
///
/// Returns an error if a key falls outside the domain — that would mean the
/// optimiser selected SPHG from wrong statistics, which must surface, not
/// corrupt results.
pub fn sph_grouping<A: Aggregator>(
    keys: &[u32],
    values: &[u32],
    agg: A,
    min: u32,
    max: u32,
) -> Result<GroupedResult<A::State>> {
    debug_assert_eq!(keys.len(), values.len());
    if keys.is_empty() {
        return Ok(GroupedResult {
            keys: Vec::new(),
            states: Vec::new(),
            sorted_by_key: true,
        });
    }
    if max < min {
        return Err(ExecError::PreconditionViolated {
            algorithm: "SPHG",
            detail: format!("empty domain: max ({max}) < min ({min})"),
        });
    }
    let domain = (u64::from(max) - u64::from(min) + 1) as usize;
    // The flat array of running aggregates — the SPH itself. A slot no
    // row reached keeps a zero count, so it fabricates no empty group.
    let mut slots: Vec<A::State> = vec![A::State::default(); domain];
    for (&k, &v) in keys.iter().zip(values) {
        let off = match k.checked_sub(min) {
            Some(o) if (o as usize) < domain => o as usize,
            _ => {
                return Err(ExecError::PreconditionViolated {
                    algorithm: "SPHG",
                    detail: format!("key {k} outside dense domain [{min}, {max}]"),
                })
            }
        };
        agg.update(&mut slots[off], v);
    }
    let mut keys_out = Vec::new();
    let mut states = Vec::new();
    for (off, state) in slots.into_iter().enumerate() {
        if agg.count(&state) > 0 {
            keys_out.push(min + off as u32);
            states.push(state);
        }
    }
    // SPH output order is the array order: ascending keys — a known plan
    // property, unlike a black-box hash table (§2.1).
    Ok(GroupedResult {
        keys: keys_out,
        states,
        sorted_by_key: true,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::aggregate::CountSum;

    #[test]
    fn groups_on_dense_domain() {
        let keys = [2u32, 0, 2, 1, 0, 2];
        let vals = [1u32; 6];
        let r = sph_grouping(&keys, &vals, CountSum, 0, 2).unwrap();
        assert!(r.sorted_by_key);
        assert_eq!(r.keys, vec![0, 1, 2]);
        assert_eq!(
            r.states.iter().map(|s| s.count).collect::<Vec<_>>(),
            vec![2, 1, 3]
        );
    }

    #[test]
    fn offset_domain() {
        let keys = [100u32, 102, 100];
        let vals = [5u32, 6, 7];
        let r = sph_grouping(&keys, &vals, CountSum, 100, 102).unwrap();
        assert_eq!(r.keys, vec![100, 102]); // 101 never occurs → no group
        assert_eq!(r.states[0].sum, 12);
        assert_eq!(r.states[1].sum, 6);
    }

    #[test]
    fn out_of_domain_key_is_an_error() {
        let r = sph_grouping(&[5u32], &[0], CountSum, 0, 3);
        assert!(matches!(
            r,
            Err(ExecError::PreconditionViolated {
                algorithm: "SPHG",
                ..
            })
        ));
        let r = sph_grouping(&[1u32], &[0], CountSum, 2, 4);
        assert!(r.is_err());
    }

    #[test]
    fn inverted_domain_rejected() {
        assert!(sph_grouping(&[1u32], &[0], CountSum, 5, 2).is_err());
    }

    #[test]
    fn empty_input_is_fine() {
        let r = sph_grouping(&[], &[], CountSum, 0, 0).unwrap();
        assert!(r.is_empty());
        assert!(r.sorted_by_key);
    }

    #[test]
    fn u32_boundary_domain() {
        let keys = [u32::MAX, u32::MAX - 1, u32::MAX];
        let vals = [1u32, 2, 3];
        let r = sph_grouping(&keys, &vals, CountSum, u32::MAX - 1, u32::MAX).unwrap();
        assert_eq!(r.keys, vec![u32::MAX - 1, u32::MAX]);
        assert_eq!(r.states[1].count, 2);
    }

    #[test]
    fn minimal_sph_when_every_slot_used() {
        // All domain values occur → the SPH is minimal; every slot yields a group.
        let keys: Vec<u32> = (0..16).chain(0..16).collect();
        let vals = vec![1u32; 32];
        let r = sph_grouping(&keys, &vals, CountSum, 0, 15).unwrap();
        assert_eq!(r.len(), 16);
        assert!(r.states.iter().all(|s| s.count == 2));
    }
}
