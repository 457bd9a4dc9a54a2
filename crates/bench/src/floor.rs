//! Hand-fused floors: the same answer as a served statement, computed by
//! one loop written for it, with no plan, loader or fold between the
//! columns and the counters — the loop a query compiler would emit for
//! the pipeline (Neumann 2011), a tuple in registers from scan to
//! aggregate. A floor is the best of a few such loops, because which one
//! is fastest depends on the selectivity; each is asserted equal to the
//! served answer before its time is used.

/// The columns `join.r_s` reads — `SELECT a, COUNT(*) FROM r JOIN s ON
/// r.id = s.r_id WHERE payload < ? GROUP BY a` — with `a` carried by id,
/// as a join index carries a build column into its posting order: `s`'s
/// `payload` and `r_id`, and `a_by_id[id]`, the `a` of the `r` row with
/// that id (`r.id` dense from 0).
pub struct JoinRs {
    /// `s.payload`.
    pub payload: Vec<u32>,
    /// `s.r_id`.
    pub r_id: Vec<u32>,
    /// `r.a` by `r.id`.
    pub a_by_id: Vec<u32>,
    /// Counters: one per value of `a`, which is dense from 0.
    pub groups: usize,
}

impl JoinRs {
    /// Carry `a` by `id`: `ids` dense from 0, each once.
    pub fn new(payload: Vec<u32>, r_id: Vec<u32>, ids: &[u32], a: &[u32]) -> Self {
        let mut a_by_id = vec![0; ids.len()];
        for (&id, &a) in ids.iter().zip(a) {
            a_by_id[id as usize] = a;
        }
        let groups = a.iter().max().map_or(0, |&m| m as usize + 1);
        JoinRs {
            payload,
            r_id,
            a_by_id,
            groups,
        }
    }

    /// The count of each `a`, with a branch on the predicate: cheap when
    /// it is predictable (none or every row kept).
    #[inline(never)]
    pub fn branchy(&self, bound: u32) -> Vec<u64> {
        let mut counts = vec![0u64; self.groups];
        for (&p, &id) in self.payload.iter().zip(&self.r_id) {
            if p < bound {
                counts[self.a_by_id[id as usize] as usize] += 1;
            }
        }
        counts
    }

    /// The count of each `a`, adding the predicate's outcome to every
    /// row's counter: no branch to mispredict at middling selectivity.
    #[inline(never)]
    pub fn branch_free(&self, bound: u32) -> Vec<u64> {
        let mut counts = vec![0u64; self.groups];
        for (&p, &id) in self.payload.iter().zip(&self.r_id) {
            counts[self.a_by_id[id as usize] as usize] += u64::from(p < bound);
        }
        counts
    }
}

/// `(group, count)` for every group counted at least once, ascending —
/// the served answer's rows.
pub fn groups(counts: &[u64]) -> Vec<(u32, u64)> {
    (counts.iter().enumerate())
        .filter(|&(_, &n)| n > 0)
        .map(|(g, &n)| (g as u32, n))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn both_loops_count_the_kept_rows_of_each_group() {
        let ids = [2, 0, 1];
        let a = [7, 5, 5];
        let join = JoinRs::new(vec![1, 9, 3, 4], vec![0, 2, 1, 0], &ids, &a);
        for bound in [0, 4, 10] {
            assert_eq!(join.branchy(bound), join.branch_free(bound));
        }
        assert_eq!(groups(&join.branchy(4)), vec![(5, 2)]);
        assert_eq!(groups(&join.branchy(10)), vec![(5, 3), (7, 1)]);
        assert!(groups(&join.branchy(0)).is_empty());
    }
}
