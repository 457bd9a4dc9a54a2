//! Molecule-level refinement: the optimisation step below the organelle.
//!
//! Table 1's proposal is precisely that the choices at the macro-molecule
//! and molecule level — *which* hash table, *which* hash function, *which*
//! loop — move from the developer to the query optimiser. This module is
//! the one refiner of a grouping's table and hash molecules: given the
//! organelle the property-annotated DP picked and the input's properties,
//! choose them by a small constant-based cost table (constants in the
//! ratios the E9 ablation measures; refittable via [`MoleculeCosts`]).
//! The loop decision is the parallel-twin rule's: a plan runs a loop in
//! parallel exactly where it carries an `Exchange`.
//!
//! Shallow mode never calls this — it ships the developer defaults
//! ([`GroupingMolecules::defaults_for`]), exactly as Table 1's SQO column
//! says.

use dqo_plan::physical::GroupingMolecules;
use dqo_plan::{GroupingAlgorithm, HashFnMolecule, PlanProps, TableMolecule};

/// Per-tuple relative costs of the hash-table molecules (dimensionless;
/// only ratios matter). Defaults reflect the E9 ablation on uniform dense
/// keys: per-node allocation and pointer chasing make chaining the most
/// expensive; open addressing with a cheap hash is ~3× cheaper; Murmur3's
/// two 64-bit multiply rounds cost more than Fibonacci's one.
///
/// The linear-probing and Robin-Hood constants predate the open-addressing
/// tables' split layout (a `(key, group id)` probe array at load ≤ 1/8
/// beside dense states), which made both cheaper on sparse keys. They are
/// left as they were so the refiner's picks do not move; refitting them
/// from E9 is the deep-optimisation item's step (b) in ROADMAP.md.
#[derive(Debug, Clone, Copy)]
pub struct MoleculeCosts {
    /// Chained table, per upsert.
    pub chaining: f64,
    /// Linear probing, per upsert (excluding hash).
    pub linear_probing: f64,
    /// Robin-Hood, per upsert (excluding hash).
    pub robin_hood: f64,
    /// Murmur3 finaliser, per hash.
    pub murmur3: f64,
    /// Fibonacci multiply, per hash.
    pub fibonacci: f64,
    /// Identity, per hash.
    pub identity: f64,
    /// Probe-run penalty multiplier applied to weak hashes on
    /// *non-uniform* key sets (clustering inflates probe runs).
    pub weak_hash_penalty: f64,
}

impl Default for MoleculeCosts {
    fn default() -> Self {
        MoleculeCosts {
            chaining: 10.0,
            linear_probing: 2.5,
            robin_hood: 2.6,
            murmur3: 2.0,
            fibonacci: 0.6,
            identity: 0.1,
            weak_hash_penalty: 4.0,
        }
    }
}

impl MoleculeCosts {
    fn table_cost(&self, t: TableMolecule) -> f64 {
        match t {
            TableMolecule::Chaining => self.chaining,
            TableMolecule::LinearProbing => self.linear_probing,
            TableMolecule::RobinHood => self.robin_hood,
            // SPH / sorted-array are organelle-determined; not costed here.
            TableMolecule::StaticPerfectHash | TableMolecule::SortedArray => 0.0,
        }
    }

    fn hash_cost(&self, h: HashFnMolecule, keys_uniform: bool) -> f64 {
        let base = match h {
            HashFnMolecule::Murmur3 => self.murmur3,
            HashFnMolecule::Fibonacci => self.fibonacci,
            HashFnMolecule::Identity => self.identity,
        };
        // Weak hashes are only safe when the key set is already uniform
        // (dense, generated, or dictionary codes); otherwise clustering
        // inflates probe runs and the penalty prices that risk in.
        let quality_risk = match h {
            HashFnMolecule::Murmur3 => 0.0,
            HashFnMolecule::Fibonacci => {
                if keys_uniform {
                    0.0
                } else {
                    0.2 * self.weak_hash_penalty
                }
            }
            HashFnMolecule::Identity => {
                if keys_uniform {
                    0.0
                } else {
                    self.weak_hash_penalty
                }
            }
        };
        base + quality_risk
    }
}

/// Refine the molecule choices under a grouping organelle — the DQO step
/// Table 1 adds below the classical optimiser.
pub fn refine_grouping_molecules(
    algo: GroupingAlgorithm,
    input: &PlanProps,
    costs: &MoleculeCosts,
) -> GroupingMolecules {
    let mut m = GroupingMolecules::defaults_for(algo);
    // Only the hash-based organelle has open table/hash molecules; the
    // others are structurally determined (SPH array, sorted array, runs).
    if algo == GroupingAlgorithm::HashBased {
        // A dense key domain implies a uniform, collision-friendly key
        // set (the dictionary-code case of §2.1).
        let keys_uniform = input.admits_sph() || input.density.is_dense();
        let tables = [
            TableMolecule::LinearProbing,
            TableMolecule::RobinHood,
            TableMolecule::Chaining,
        ];
        let hashes = [
            HashFnMolecule::Identity,
            HashFnMolecule::Fibonacci,
            HashFnMolecule::Murmur3,
        ];
        let mut best = (f64::INFINITY, m.table, m.hash);
        for t in tables {
            for h in hashes {
                let c = costs.table_cost(t) + costs.hash_cost(h, keys_uniform);
                if c < best.0 {
                    best = (c, Some(t), Some(h));
                }
            }
        }
        m.table = best.1;
        m.hash = best.2;
    }
    m
}

#[cfg(test)]
mod tests {
    use super::*;
    use dqo_storage::{Density, Sortedness};

    fn props(rows: u64, dense: bool) -> PlanProps {
        PlanProps {
            sortedness: Sortedness::Unsorted,
            partitioned: false,
            density: if dense {
                Density::Dense
            } else {
                Density::Sparse { fill: 0.001 }
            },
            distinct: Some(1000),
            key_range: dense.then_some((0, 999)),
            rows,
        }
    }

    #[test]
    fn uniform_keys_get_cheap_hash_and_open_addressing() {
        let m = refine_grouping_molecules(
            GroupingAlgorithm::HashBased,
            &props(1_000_000, true),
            &MoleculeCosts::default(),
        );
        assert_eq!(m.table, Some(TableMolecule::LinearProbing));
        assert_eq!(m.hash, Some(HashFnMolecule::Identity));
    }

    #[test]
    fn sparse_keys_keep_a_real_hash_function() {
        let m = refine_grouping_molecules(
            GroupingAlgorithm::HashBased,
            &props(1_000_000, false),
            &MoleculeCosts::default(),
        );
        // Identity is penalised on non-uniform keys; Fibonacci's small
        // risk premium still beats Murmur3's two multiply rounds.
        assert_eq!(m.hash, Some(HashFnMolecule::Fibonacci));
        assert_ne!(m.table, Some(TableMolecule::Chaining));
    }

    #[test]
    fn non_hash_organelles_keep_structural_molecules() {
        let m = refine_grouping_molecules(
            GroupingAlgorithm::StaticPerfectHash,
            &props(1_000, true),
            &MoleculeCosts::default(),
        );
        assert_eq!(m.table, Some(TableMolecule::StaticPerfectHash));
        assert_eq!(m.hash, None);
        let m = refine_grouping_molecules(
            GroupingAlgorithm::OrderBased,
            &props(1_000, true),
            &MoleculeCosts::default(),
        );
        assert_eq!(m.table, None);
    }

    #[test]
    fn custom_costs_flip_the_choice() {
        // Make Murmur3 free and chaining cheapest: the refinement follows.
        let costs = MoleculeCosts {
            chaining: 0.1,
            murmur3: 0.0,
            ..Default::default()
        };
        let m =
            refine_grouping_molecules(GroupingAlgorithm::HashBased, &props(1_000, false), &costs);
        assert_eq!(m.table, Some(TableMolecule::Chaining));
        assert_eq!(m.hash, Some(HashFnMolecule::Murmur3));
    }

    /// The kernel `HgTable::of` selects is the table and hash EXPLAIN
    /// prints — for every pair the refiner emits under default costs, and
    /// for all nine (table, hash) pairs a lowered deep plan can name: an
    /// unmatched pair would silently run a different kernel.
    #[test]
    fn every_refined_pair_selects_the_named_hg_table() {
        use dqo_exec::grouping::hg::HgTable;
        let ran = |m: GroupingMolecules| match HgTable::of(m) {
            HgTable::Chaining(h) => (TableMolecule::Chaining, h),
            HgTable::LinearProbing(h) => (TableMolecule::LinearProbing, h),
            HgTable::RobinHood(h) => (TableMolecule::RobinHood, h),
        };
        for dense in [true, false] {
            let m = refine_grouping_molecules(
                GroupingAlgorithm::HashBased,
                &props(1_000_000, dense),
                &MoleculeCosts::default(),
            );
            let (t, h) = ran(m);
            assert_eq!((m.table, m.hash), (Some(t), Some(h)), "dense={dense}");
        }
        for table in [
            TableMolecule::Chaining,
            TableMolecule::LinearProbing,
            TableMolecule::RobinHood,
        ] {
            for hash in [
                HashFnMolecule::Murmur3,
                HashFnMolecule::Fibonacci,
                HashFnMolecule::Identity,
            ] {
                let m = GroupingMolecules {
                    table: Some(table),
                    hash: Some(hash),
                    ..GroupingMolecules::default()
                };
                assert_eq!(ran(m), (table, hash));
            }
        }
    }
}
