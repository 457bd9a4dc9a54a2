//! Logical plans — the purely logical end of the Figure 3 continuum.

use crate::expr::{AggExpr, Predicate};
use std::fmt;
use std::sync::Arc;

/// A logical operator tree (extended relational algebra). Equality and
/// hashing are structural and keep each constant's type, so two trees that
/// render alike (`x < 5` over a `u32` and over an `i64` literal) differ.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum LogicalPlan {
    /// Base-table scan.
    Scan {
        /// Catalog table name.
        table: String,
    },
    /// Selection.
    Filter {
        /// Input plan.
        input: Arc<LogicalPlan>,
        /// Filter predicate.
        predicate: Predicate,
    },
    /// Equi-join.
    Join {
        /// Left input.
        left: Arc<LogicalPlan>,
        /// Right input.
        right: Arc<LogicalPlan>,
        /// Join key column on the left input.
        left_key: String,
        /// Join key column on the right input.
        right_key: String,
    },
    /// Grouping + aggregation (the paper's γ / Γ). One or more key
    /// columns; multi-column keys group by the composite tuple.
    GroupBy {
        /// Input plan.
        input: Arc<LogicalPlan>,
        /// Grouping key columns, in declaration order (at least one).
        keys: Vec<String>,
        /// Aggregate output expressions.
        aggs: Vec<AggExpr>,
    },
    /// Projection.
    Project {
        /// Input plan.
        input: Arc<LogicalPlan>,
        /// Columns to keep, in order.
        columns: Vec<String>,
    },
    /// Sort (an *enforcer* in optimiser terms: exists to establish the
    /// sortedness plan property).
    Sort {
        /// Input plan.
        input: Arc<LogicalPlan>,
        /// Sort key column.
        key: String,
    },
    /// Keep only the first `n` rows.
    Limit {
        /// Input plan.
        input: Arc<LogicalPlan>,
        /// Row cap.
        n: u64,
    },
}

impl LogicalPlan {
    /// Scan constructor.
    pub fn scan(table: impl Into<String>) -> Arc<Self> {
        Arc::new(LogicalPlan::Scan {
            table: table.into(),
        })
    }

    /// Filter constructor.
    pub fn filter(input: Arc<Self>, predicate: Predicate) -> Arc<Self> {
        Arc::new(LogicalPlan::Filter { input, predicate })
    }

    /// Join constructor.
    pub fn join(
        left: Arc<Self>,
        right: Arc<Self>,
        left_key: impl Into<String>,
        right_key: impl Into<String>,
    ) -> Arc<Self> {
        Arc::new(LogicalPlan::Join {
            left,
            right,
            left_key: left_key.into(),
            right_key: right_key.into(),
        })
    }

    /// GroupBy constructor (single key).
    pub fn group_by(input: Arc<Self>, key: impl Into<String>, aggs: Vec<AggExpr>) -> Arc<Self> {
        Arc::new(LogicalPlan::GroupBy {
            input,
            keys: vec![key.into()],
            aggs,
        })
    }

    /// GroupBy constructor for a composite (multi-column) key.
    pub fn group_by_multi(input: Arc<Self>, keys: Vec<String>, aggs: Vec<AggExpr>) -> Arc<Self> {
        assert!(!keys.is_empty(), "GROUP BY needs at least one key column");
        Arc::new(LogicalPlan::GroupBy { input, keys, aggs })
    }

    /// Project constructor.
    pub fn project(input: Arc<Self>, columns: Vec<String>) -> Arc<Self> {
        Arc::new(LogicalPlan::Project { input, columns })
    }

    /// Sort constructor.
    pub fn sort(input: Arc<Self>, key: impl Into<String>) -> Arc<Self> {
        Arc::new(LogicalPlan::Sort {
            input,
            key: key.into(),
        })
    }

    /// Limit constructor.
    pub fn limit(input: Arc<Self>, n: u64) -> Arc<Self> {
        Arc::new(LogicalPlan::Limit { input, n })
    }

    /// Children of this node.
    pub fn children(&self) -> Vec<&Arc<LogicalPlan>> {
        match self {
            LogicalPlan::Scan { .. } => vec![],
            LogicalPlan::Filter { input, .. }
            | LogicalPlan::GroupBy { input, .. }
            | LogicalPlan::Project { input, .. }
            | LogicalPlan::Sort { input, .. }
            | LogicalPlan::Limit { input, .. } => vec![input],
            LogicalPlan::Join { left, right, .. } => vec![left, right],
        }
    }

    /// All base tables referenced, in scan order.
    pub fn tables(&self) -> Vec<&str> {
        match self {
            LogicalPlan::Scan { table } => vec![table.as_str()],
            _ => self.children().iter().flat_map(|c| c.tables()).collect(),
        }
    }

    /// Operator count (plan size).
    pub fn node_count(&self) -> usize {
        1 + self
            .children()
            .iter()
            .map(|c| c.node_count())
            .sum::<usize>()
    }

    /// The plan's normalised *shape*: the tree rendered with every
    /// comparison constant masked as `?` (see [`Predicate::shape`]).
    /// This is the equivalence key shared by the optimiser memo's
    /// winner-extraction layer (the plan cache) and prepared-statement
    /// serving: two plans with equal shapes differ only in filter
    /// constants, so a cached winner rebinds structurally.
    pub fn shape(&self) -> String {
        let mut out = String::new();
        self.shape_into(&mut out);
        out
    }

    fn shape_into(&self, out: &mut String) {
        use std::fmt::Write as _;
        match self {
            LogicalPlan::Scan { table } => {
                let _ = write!(out, "Scan({table})");
            }
            LogicalPlan::Filter { input, predicate } => {
                let _ = write!(out, "Filter[{}](", predicate.shape());
                input.shape_into(out);
                out.push(')');
            }
            LogicalPlan::Join {
                left,
                right,
                left_key,
                right_key,
            } => {
                let _ = write!(out, "Join[{left_key}={right_key}](");
                left.shape_into(out);
                out.push(',');
                right.shape_into(out);
                out.push(')');
            }
            LogicalPlan::GroupBy { input, keys, aggs } => {
                let aggs: Vec<String> = aggs.iter().map(|a| a.to_string()).collect();
                let _ = write!(out, "GroupBy[{};{}](", keys.join(","), aggs.join(","));
                input.shape_into(out);
                out.push(')');
            }
            LogicalPlan::Project { input, columns } => {
                let _ = write!(out, "Project[{}](", columns.join(","));
                input.shape_into(out);
                out.push(')');
            }
            LogicalPlan::Sort { input, key } => {
                let _ = write!(out, "Sort[{key}](");
                input.shape_into(out);
                out.push(')');
            }
            LogicalPlan::Limit { input, n } => {
                let _ = write!(out, "Limit[{n}](");
                input.shape_into(out);
                out.push(')');
            }
        }
    }

    /// Indented EXPLAIN-style rendering.
    pub fn explain(&self) -> String {
        let mut out = String::new();
        self.explain_into(&mut out, 0);
        out
    }

    fn explain_into(&self, out: &mut String, depth: usize) {
        let pad = "  ".repeat(depth);
        let line = match self {
            LogicalPlan::Scan { table } => format!("Scan {table}"),
            LogicalPlan::Filter { predicate, .. } => format!("Filter {predicate}"),
            LogicalPlan::Join {
                left_key,
                right_key,
                ..
            } => format!("Join on {left_key} = {right_key}"),
            LogicalPlan::GroupBy { keys, aggs, .. } => {
                let aggs: Vec<String> = aggs.iter().map(|a| a.to_string()).collect();
                format!("GroupBy γ[{}] {}", keys.join(", "), aggs.join(", "))
            }
            LogicalPlan::Project { columns, .. } => format!("Project {}", columns.join(", ")),
            LogicalPlan::Sort { key, .. } => format!("Sort by {key}"),
            LogicalPlan::Limit { n, .. } => format!("Limit {n}"),
        };
        out.push_str(&pad);
        out.push_str(&line);
        out.push('\n');
        for c in self.children() {
            c.explain_into(out, depth + 1);
        }
    }
}

impl fmt::Display for LogicalPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.explain().trim_end())
    }
}

/// The paper's §4.3 example query as a logical plan:
/// `SELECT R.A, COUNT(*) FROM R JOIN S ON R.ID = S.R_ID GROUP BY R.A`.
pub fn example_query_4_3() -> Arc<LogicalPlan> {
    let r = LogicalPlan::scan("R");
    let s = LogicalPlan::scan("S");
    let join = LogicalPlan::join(r, s, "id", "r_id");
    LogicalPlan::group_by(join, "a", vec![AggExpr::count_star("count")])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::CmpOp;

    #[test]
    fn builders_and_children() {
        let plan = example_query_4_3();
        assert_eq!(plan.node_count(), 4);
        assert_eq!(plan.tables(), vec!["R", "S"]);
        match plan.as_ref() {
            LogicalPlan::GroupBy { keys, aggs, .. } => {
                assert_eq!(keys, &["a"]);
                assert_eq!(aggs.len(), 1);
            }
            other => panic!("expected GroupBy at root, got {other:?}"),
        }
    }

    #[test]
    fn multi_key_group_by_builds_and_renders() {
        let plan = LogicalPlan::group_by_multi(
            LogicalPlan::scan("t"),
            vec!["a".into(), "b".into()],
            vec![AggExpr::count_star("n")],
        );
        match plan.as_ref() {
            LogicalPlan::GroupBy { keys, .. } => assert_eq!(keys, &["a", "b"]),
            other => panic!("expected GroupBy, got {other:?}"),
        }
        assert!(plan.explain().contains("GroupBy γ[a, b] COUNT(*) AS n"));
    }

    #[test]
    fn explain_renders_tree() {
        let plan = example_query_4_3();
        let text = plan.explain();
        let lines: Vec<&str> = text.lines().collect();
        assert!(lines[0].starts_with("GroupBy γ[a]"));
        assert!(lines[1].trim_start().starts_with("Join on id = r_id"));
        assert!(lines[2].contains("Scan R"));
        assert!(lines[3].contains("Scan S"));
    }

    #[test]
    fn filter_and_sort_nodes() {
        let plan = LogicalPlan::sort(
            LogicalPlan::filter(
                LogicalPlan::scan("t"),
                Predicate::cmp("x", CmpOp::Lt, 10u32),
            ),
            "x",
        );
        assert_eq!(plan.node_count(), 3);
        assert!(plan.explain().contains("Filter x < 10"));
        assert!(plan.explain().contains("Sort by x"));
    }

    #[test]
    fn shared_subplans_are_cheap() {
        let shared = LogicalPlan::scan("big");
        let a = LogicalPlan::filter(Arc::clone(&shared), Predicate::cmp("x", CmpOp::Eq, 1u32));
        let b = LogicalPlan::filter(shared, Predicate::cmp("x", CmpOp::Eq, 2u32));
        // Both filters reference the same scan allocation.
        assert!(Arc::ptr_eq(a.children()[0], b.children()[0]));
    }
}
