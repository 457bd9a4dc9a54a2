//! The granularity ladder — Table 1 of the paper.
//!
//! | Biology | Query optimisation | Typical LoC | SQO optimises? | DQO optimises? |
//! |---|---|---|---|---|
//! | living cell | "physical" query plan | ~10,000 | yes | yes |
//! | organelle | "physical" operator | ~1,000 | yes | yes |
//! | macro-molecule | index type, scan method, bulkload/probe algorithm | ~100 | developer | **yes** |
//! | molecule | index subcomponent: node/leaf type, hash function, probe impl, cache&SIMD tricks | ~10 | developer | **yes** |
//! | atom | assignment, loop init, arithmetic op | ~1 | compiler | compiler |
//!
//! DQO's thesis in one line: *"extend SQO to also assemble organelles and
//! macro-molecules from molecules rather than only living cells from
//! organelles."*

use std::fmt;

/// A level on the Table 1 granularity ladder.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Granularity {
    /// A whole "physical" query plan (the living cell).
    Cell,
    /// A "physical" operator (the organelle) — where SQO stops.
    Organelle,
    /// Index type / scan method / high-level bulkload & probe algorithm.
    MacroMolecule,
    /// Index subcomponent: node/leaf type, hash function, probe
    /// implementation, low-level cache & SIMD tricks.
    Molecule,
    /// Assignment, loop initialisation, arithmetic — compiler territory.
    Atom,
}

/// Who synthesises/optimises components of a granularity, in a regime.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OptimisedBy {
    /// The query optimiser decides at plan time.
    QueryOptimiser,
    /// A human developer decided at code-writing time.
    Developer,
    /// The compiler decides at build time.
    Compiler,
}

impl Granularity {
    /// The biology analogue the paper pairs with this level.
    pub fn biology_analogue(self) -> &'static str {
        match self {
            Granularity::Cell => "living cell",
            Granularity::Organelle => "organelle",
            Granularity::MacroMolecule => "macro-molecule",
            Granularity::Molecule => "molecule",
            Granularity::Atom => "atom",
        }
    }

    /// The query-optimisation concept at this level (Table 1, column 2).
    pub fn qo_concept(self) -> &'static str {
        match self {
            Granularity::Cell => "\"physical\" query plan",
            Granularity::Organelle => "\"physical\" operator",
            Granularity::MacroMolecule => {
                "type of index structure, scan method, high-level bulkloading and probing algorithm"
            }
            Granularity::Molecule => {
                "index subcomponent: node/leaf type, hash function, probing implementation, cache&SIMD tricks"
            }
            Granularity::Atom => "assignment, loop initialisation, arithmetic operation",
        }
    }

    /// Typical size in lines of code (Table 1, column 3).
    pub fn typical_loc(self) -> u32 {
        match self {
            Granularity::Cell => 10_000,
            Granularity::Organelle => 1_000,
            Granularity::MacroMolecule => 100,
            Granularity::Molecule => 10,
            Granularity::Atom => 1,
        }
    }

    /// Who optimises this level under *shallow* query optimisation.
    pub fn optimised_by_sqo(self) -> OptimisedBy {
        match self {
            Granularity::Cell | Granularity::Organelle => OptimisedBy::QueryOptimiser,
            Granularity::MacroMolecule | Granularity::Molecule => OptimisedBy::Developer,
            Granularity::Atom => OptimisedBy::Compiler,
        }
    }

    /// Who optimises this level under *deep* query optimisation — the
    /// paper's proposal: push the optimiser down to the molecule level.
    pub fn optimised_by_dqo(self) -> OptimisedBy {
        match self {
            Granularity::Cell
            | Granularity::Organelle
            | Granularity::MacroMolecule
            | Granularity::Molecule => OptimisedBy::QueryOptimiser,
            Granularity::Atom => OptimisedBy::Compiler,
        }
    }

    /// One step finer on the ladder, if any.
    pub fn finer(self) -> Option<Granularity> {
        match self {
            Granularity::Cell => Some(Granularity::Organelle),
            Granularity::Organelle => Some(Granularity::MacroMolecule),
            Granularity::MacroMolecule => Some(Granularity::Molecule),
            Granularity::Molecule => Some(Granularity::Atom),
            Granularity::Atom => None,
        }
    }

    /// All levels, coarse to fine (Table 1 row order).
    pub fn all() -> [Granularity; 5] {
        [
            Granularity::Cell,
            Granularity::Organelle,
            Granularity::MacroMolecule,
            Granularity::Molecule,
            Granularity::Atom,
        ]
    }
}

impl fmt::Display for Granularity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.biology_analogue())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ladder_order_is_coarse_to_fine() {
        let all = Granularity::all();
        for w in all.windows(2) {
            assert!(w[0] < w[1]);
            assert_eq!(w[0].finer(), Some(w[1]));
        }
        assert_eq!(Granularity::Atom.finer(), None);
    }

    #[test]
    fn loc_scale_decreases_by_10x() {
        let locs: Vec<u32> = Granularity::all().iter().map(|g| g.typical_loc()).collect();
        assert_eq!(locs, vec![10_000, 1_000, 100, 10, 1]);
    }

    #[test]
    fn dqo_extends_optimiser_to_molecules() {
        // The crux of Table 1: macro-molecules and molecules move from
        // "developer" to "query optimiser" under DQO.
        for g in [Granularity::MacroMolecule, Granularity::Molecule] {
            assert_eq!(g.optimised_by_sqo(), OptimisedBy::Developer);
            assert_eq!(g.optimised_by_dqo(), OptimisedBy::QueryOptimiser);
        }
        // Cells/organelles were already the optimiser's job; atoms remain
        // the compiler's.
        assert_eq!(
            Granularity::Organelle.optimised_by_sqo(),
            OptimisedBy::QueryOptimiser
        );
        assert_eq!(Granularity::Atom.optimised_by_dqo(), OptimisedBy::Compiler);
    }

    #[test]
    fn display_uses_biology_names() {
        assert_eq!(Granularity::MacroMolecule.to_string(), "macro-molecule");
        assert_eq!(Granularity::Cell.to_string(), "living cell");
    }

    #[test]
    fn concepts_are_nonempty_and_distinct() {
        let concepts: Vec<&str> = Granularity::all().iter().map(|g| g.qo_concept()).collect();
        let set: std::collections::HashSet<&&str> = concepts.iter().collect();
        assert_eq!(set.len(), concepts.len());
    }
}
