//! Predicates and aggregate expressions — the scalar layer of plans.

use dqo_storage::Value;
use std::fmt;

/// Comparison operators for filter predicates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CmpOp {
    /// `=`
    Eq,
    /// `<>`
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
}

impl CmpOp {
    /// Evaluate against an `Ordering` between lhs and rhs.
    pub fn eval(self, ord: std::cmp::Ordering) -> bool {
        use std::cmp::Ordering::*;
        match self {
            CmpOp::Eq => ord == Equal,
            CmpOp::Ne => ord != Equal,
            CmpOp::Lt => ord == Less,
            CmpOp::Le => ord != Greater,
            CmpOp::Gt => ord == Greater,
            CmpOp::Ge => ord != Less,
        }
    }

    /// SQL spelling.
    pub fn sql(self) -> &'static str {
        match self {
            CmpOp::Eq => "=",
            CmpOp::Ne => "<>",
            CmpOp::Lt => "<",
            CmpOp::Le => "<=",
            CmpOp::Gt => ">",
            CmpOp::Ge => ">=",
        }
    }
}

impl fmt::Display for CmpOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.sql())
    }
}

/// A simple predicate: `column <op> constant`, optionally AND-ed.
/// Equality and hashing keep each constant's type ([`Value`]'s own).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Predicate {
    /// `column <op> constant`.
    Compare {
        /// Column name.
        column: String,
        /// Operator.
        op: CmpOp,
        /// Constant to compare against.
        value: Value,
    },
    /// `column LIKE 'prefix%'` on a dictionary-encoded string column —
    /// the fast LIKE shape (one trailing `%`, no other wildcards),
    /// evaluated as `starts_with` per dictionary *code*, not per row.
    Prefix {
        /// Column name.
        column: String,
        /// The literal prefix (the pattern minus its trailing `%`).
        prefix: String,
    },
    /// `column LIKE pattern` with arbitrary `%` (any run) and `_` (one
    /// character) wildcards — `'%x%'`, `'x%y'`, `'a_c'` and friends.
    /// Still evaluated once per dictionary *code* via [`like_match`].
    Like {
        /// Column name.
        column: String,
        /// The full LIKE pattern, wildcards included.
        pattern: String,
    },
    /// Conjunction of predicates.
    And(Vec<Predicate>),
}

impl Predicate {
    /// Convenience constructor for a comparison.
    pub fn cmp(column: impl Into<String>, op: CmpOp, value: impl Into<Value>) -> Self {
        Predicate::Compare {
            column: column.into(),
            op,
            value: value.into(),
        }
    }

    /// Convenience constructor for a prefix match (`LIKE 'prefix%'`).
    pub fn prefix(column: impl Into<String>, prefix: impl Into<String>) -> Self {
        Predicate::Prefix {
            column: column.into(),
            prefix: prefix.into(),
        }
    }

    /// Convenience constructor for a general wildcard match.
    pub fn like(column: impl Into<String>, pattern: impl Into<String>) -> Self {
        Predicate::Like {
            column: column.into(),
            pattern: pattern.into(),
        }
    }

    /// The predicate's *shape*: comparison constants masked as `?`,
    /// conjuncts in order. Two predicates with equal shapes differ only
    /// in `Compare` values — the invariant the plan cache's structural
    /// rebind and the optimiser's feedback keys both rely on. LIKE
    /// prefixes/patterns stay: they shape candidate enumeration and are
    /// never parameterised.
    pub fn shape(&self) -> String {
        match self {
            Predicate::Compare { column, op, .. } => format!("{column} {op} ?"),
            Predicate::Prefix { column, prefix } => format!("{column} LIKE '{prefix}%'"),
            Predicate::Like { column, pattern } => format!("{column} LIKE '{pattern}'"),
            Predicate::And(ps) => ps
                .iter()
                .map(Predicate::shape)
                .collect::<Vec<_>>()
                .join(" AND "),
        }
    }

    /// All columns the predicate touches.
    pub fn columns(&self) -> Vec<&str> {
        match self {
            Predicate::Compare { column, .. } => vec![column.as_str()],
            Predicate::Prefix { column, .. } => vec![column.as_str()],
            Predicate::Like { column, .. } => vec![column.as_str()],
            Predicate::And(ps) => ps.iter().flat_map(|p| p.columns()).collect(),
        }
    }
}

/// SQL LIKE semantics: `%` matches any (possibly empty) run of
/// characters, `_` matches exactly one character; everything else is
/// literal. Character-based, so multi-byte UTF-8 counts as one `_`.
///
/// Greedy two-pointer with backtracking to the last `%` — linear in
/// practice, worst case `O(|pattern|·|s|)`, and allocation-free.
pub fn like_match(pattern: &str, s: &str) -> bool {
    let p: Vec<char> = pattern.chars().collect();
    let t: Vec<char> = s.chars().collect();
    let (mut pi, mut ti) = (0usize, 0usize);
    // Position of the last `%` seen, and where its match currently ends.
    let mut star: Option<usize> = None;
    let mut mark = 0usize;
    while ti < t.len() {
        if pi < p.len() && (p[pi] == '_' || p[pi] == t[ti]) {
            pi += 1;
            ti += 1;
        } else if pi < p.len() && p[pi] == '%' {
            star = Some(pi);
            mark = ti;
            pi += 1;
        } else if let Some(sp) = star {
            // Extend the last `%` by one character and retry.
            pi = sp + 1;
            mark += 1;
            ti = mark;
        } else {
            return false;
        }
    }
    // Only trailing `%` may remain.
    p[pi..].iter().all(|&c| c == '%')
}

impl fmt::Display for Predicate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Predicate::Compare { column, op, value } => write!(f, "{column} {op} {value}"),
            Predicate::Prefix { column, prefix } => write!(f, "{column} LIKE '{prefix}%'"),
            Predicate::Like { column, pattern } => write!(f, "{column} LIKE '{pattern}'"),
            Predicate::And(ps) => {
                for (i, p) in ps.iter().enumerate() {
                    if i > 0 {
                        write!(f, " AND ")?;
                    }
                    write!(f, "{p}")?;
                }
                Ok(())
            }
        }
    }
}

/// Aggregate function names.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AggFunc {
    /// `COUNT(*)`
    CountStar,
    /// `SUM(col)`
    Sum,
    /// `MIN(col)`
    Min,
    /// `MAX(col)`
    Max,
    /// `AVG(col)`
    Avg,
}

impl AggFunc {
    /// SQL spelling.
    pub fn sql(self) -> &'static str {
        match self {
            AggFunc::CountStar => "COUNT",
            AggFunc::Sum => "SUM",
            AggFunc::Min => "MIN",
            AggFunc::Max => "MAX",
            AggFunc::Avg => "AVG",
        }
    }

    /// Distributive/algebraic — partial states mergeable across partitions
    /// (Figure 2's independent aggregation; §2.1's "distributive and/or
    /// decomposable aggregation functions").
    pub fn is_decomposable(self) -> bool {
        // All five supported aggregates are; MEDIAN etc. would not be.
        true
    }
}

/// One aggregate expression in a GROUP BY output list.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct AggExpr {
    /// The function.
    pub func: AggFunc,
    /// Input column (`None` for `COUNT(*)`).
    pub column: Option<String>,
    /// Output name.
    pub alias: String,
}

impl AggExpr {
    /// `COUNT(*) AS alias`.
    pub fn count_star(alias: impl Into<String>) -> Self {
        AggExpr {
            func: AggFunc::CountStar,
            column: None,
            alias: alias.into(),
        }
    }

    /// `func(column) AS alias`.
    pub fn on(func: AggFunc, column: impl Into<String>, alias: impl Into<String>) -> Self {
        AggExpr {
            func,
            column: Some(column.into()),
            alias: alias.into(),
        }
    }
}

impl fmt::Display for AggExpr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.column {
            Some(c) => write!(f, "{}({c}) AS {}", self.func.sql(), self.alias),
            None => write!(f, "{}(*) AS {}", self.func.sql(), self.alias),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cmp::Ordering;

    #[test]
    fn cmp_op_semantics() {
        assert!(CmpOp::Eq.eval(Ordering::Equal));
        assert!(!CmpOp::Eq.eval(Ordering::Less));
        assert!(CmpOp::Ne.eval(Ordering::Greater));
        assert!(CmpOp::Lt.eval(Ordering::Less));
        assert!(CmpOp::Le.eval(Ordering::Equal));
        assert!(CmpOp::Gt.eval(Ordering::Greater));
        assert!(CmpOp::Ge.eval(Ordering::Equal));
        assert!(!CmpOp::Ge.eval(Ordering::Less));
    }

    #[test]
    fn predicate_display_and_columns() {
        let p = Predicate::And(vec![
            Predicate::cmp("a", CmpOp::Gt, 5u32),
            Predicate::cmp("b", CmpOp::Eq, 7u32),
        ]);
        assert_eq!(p.to_string(), "a > 5 AND b = 7");
        assert_eq!(p.columns(), vec!["a", "b"]);
    }

    #[test]
    fn prefix_predicate_display_and_columns() {
        let p = Predicate::prefix("name", "ab");
        assert_eq!(p.to_string(), "name LIKE 'ab%'");
        assert_eq!(p.columns(), vec!["name"]);
        let l = Predicate::like("name", "%ab_c%");
        assert_eq!(l.to_string(), "name LIKE '%ab_c%'");
        assert_eq!(l.columns(), vec!["name"]);
    }

    #[test]
    fn like_match_wildcard_semantics() {
        // Contains.
        assert!(like_match("%bc%", "abcd"));
        assert!(like_match("%bc%", "bc"));
        assert!(!like_match("%bc%", "bdc"));
        // Infix anchor both ends.
        assert!(like_match("a%d", "ad"));
        assert!(like_match("a%d", "abcd"));
        assert!(!like_match("a%d", "abce"));
        // Single-character wildcard.
        assert!(like_match("a_c", "abc"));
        assert!(!like_match("a_c", "ac"));
        assert!(!like_match("a_c", "abbc"));
        // Mixed.
        assert!(like_match("a_c%", "abcdef"));
        assert!(like_match("%_", "x"));
        assert!(!like_match("%_", ""));
        // Multiple percent runs and backtracking.
        assert!(like_match("a%b%c", "axxbyybzc"));
        assert!(!like_match("a%b%c", "axxc"));
        // Literal-only pattern is exact equality.
        assert!(like_match("abc", "abc"));
        assert!(!like_match("abc", "abcd"));
        // Empty pattern and match-everything.
        assert!(like_match("", ""));
        assert!(!like_match("", "a"));
        assert!(like_match("%", ""));
        assert!(like_match("%%", "anything"));
        // `_` counts characters, not bytes.
        assert!(like_match("_", "ü"));
        assert!(like_match("m_nchen", "münchen"));
    }

    #[test]
    fn agg_expr_display() {
        assert_eq!(AggExpr::count_star("n").to_string(), "COUNT(*) AS n");
        assert_eq!(
            AggExpr::on(AggFunc::Sum, "x", "total").to_string(),
            "SUM(x) AS total"
        );
    }

    #[test]
    fn decomposability() {
        for f in [
            AggFunc::CountStar,
            AggFunc::Sum,
            AggFunc::Min,
            AggFunc::Max,
            AggFunc::Avg,
        ] {
            assert!(f.is_decomposable());
        }
    }
}
