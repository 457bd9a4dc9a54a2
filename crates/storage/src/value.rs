//! Scalar values and data types.
//!
//! The engine is deliberately narrow: the paper's experiments operate on
//! unsigned 32-bit grouping keys and numeric aggregates, so the type system
//! covers exactly what the reproduction needs (plus dictionary-encoded
//! strings, which motivate dense key domains in §2.1 of the paper).

use std::cmp::Ordering;
use std::fmt;

/// The data types supported by the engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DataType {
    /// Unsigned 32-bit integer — the paper's grouping-key type.
    U32,
    /// Unsigned 64-bit integer — aggregate counters.
    U64,
    /// Signed 64-bit integer — SUM aggregates over signed data.
    I64,
    /// 64-bit float — AVG results and float measures.
    F64,
    /// Boolean — filter results.
    Bool,
    /// Dictionary-encoded string. The physical column stores `u32` codes;
    /// the dictionary lives alongside the column.
    Str,
}

impl fmt::Display for DataType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            DataType::U32 => "u32",
            DataType::U64 => "u64",
            DataType::I64 => "i64",
            DataType::F64 => "f64",
            DataType::Bool => "bool",
            DataType::Str => "str",
        };
        f.write_str(s)
    }
}

impl DataType {
    /// Width in bytes of the physical representation of one value.
    pub fn byte_width(self) -> usize {
        match self {
            DataType::U32 | DataType::Str => 4,
            DataType::U64 | DataType::I64 | DataType::F64 => 8,
            DataType::Bool => 1,
        }
    }
}

/// A single scalar value.
///
/// `Value` is used at the API boundary (constants in predicates, row
/// accessors, test oracles). Hot paths operate on raw column slices instead.
#[derive(Debug, Clone)]
pub enum Value {
    /// u32 value.
    U32(u32),
    /// u64 value.
    U64(u64),
    /// i64 value.
    I64(i64),
    /// f64 value.
    F64(f64),
    /// bool value.
    Bool(bool),
    /// Decoded string value.
    Str(String),
}

impl Value {
    /// The [`DataType`] of this value.
    pub fn data_type(&self) -> DataType {
        match self {
            Value::U32(_) => DataType::U32,
            Value::U64(_) => DataType::U64,
            Value::I64(_) => DataType::I64,
            Value::F64(_) => DataType::F64,
            Value::Bool(_) => DataType::Bool,
            Value::Str(_) => DataType::Str,
        }
    }

    /// Extract a `u32`, if this is one.
    pub fn as_u32(&self) -> Option<u32> {
        match self {
            Value::U32(v) => Some(*v),
            _ => None,
        }
    }

    /// Extract a `u64`, widening `u32` losslessly.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::U64(v) => Some(*v),
            Value::U32(v) => Some(u64::from(*v)),
            _ => None,
        }
    }

    /// Extract an `i64`, widening unsigned types when lossless.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Value::I64(v) => Some(*v),
            Value::U32(v) => Some(i64::from(*v)),
            Value::U64(v) => i64::try_from(*v).ok(),
            _ => None,
        }
    }

    /// Extract an `f64`, converting any numeric.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::F64(v) => Some(*v),
            Value::U32(v) => Some(f64::from(*v)),
            Value::U64(v) => Some(*v as f64),
            Value::I64(v) => Some(*v as f64),
            _ => None,
        }
    }

    /// Extract a `bool`, if this is one.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(v) => Some(*v),
            _ => None,
        }
    }

    /// Extract a `&str`, if this is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }
}

impl PartialEq for Value {
    fn eq(&self, other: &Self) -> bool {
        self.total_cmp(other) == Some(Ordering::Equal)
    }
}

impl Eq for Value {}

/// Consistent with `Eq`: the type, then the payload (an `f64` by its bits,
/// which is what [`f64::total_cmp`] equality compares).
impl std::hash::Hash for Value {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.data_type().hash(state);
        match self {
            Value::U32(v) => v.hash(state),
            Value::U64(v) => v.hash(state),
            Value::I64(v) => v.hash(state),
            Value::F64(v) => v.to_bits().hash(state),
            Value::Bool(v) => v.hash(state),
            Value::Str(v) => v.hash(state),
        }
    }
}

impl Value {
    /// Total comparison between two values of the *same* type.
    ///
    /// Returns `None` for cross-type comparisons — the binder guarantees
    /// type-correct plans, so a `None` here indicates a planner bug and
    /// callers may treat it as such.
    pub fn total_cmp(&self, other: &Self) -> Option<Ordering> {
        match (self, other) {
            (Value::U32(a), Value::U32(b)) => Some(a.cmp(b)),
            (Value::U64(a), Value::U64(b)) => Some(a.cmp(b)),
            (Value::I64(a), Value::I64(b)) => Some(a.cmp(b)),
            (Value::F64(a), Value::F64(b)) => Some(a.total_cmp(b)),
            (Value::Bool(a), Value::Bool(b)) => Some(a.cmp(b)),
            (Value::Str(a), Value::Str(b)) => Some(a.cmp(b)),
            _ => None,
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::U32(v) => write!(f, "{v}"),
            Value::U64(v) => write!(f, "{v}"),
            Value::I64(v) => write!(f, "{v}"),
            Value::F64(v) => write!(f, "{v}"),
            Value::Bool(v) => write!(f, "{v}"),
            Value::Str(v) => write!(f, "'{v}'"),
        }
    }
}

impl From<u32> for Value {
    fn from(v: u32) -> Self {
        Value::U32(v)
    }
}

impl From<u64> for Value {
    fn from(v: u64) -> Self {
        Value::U64(v)
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::I64(v)
    }
}

impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::F64(v)
    }
}

impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}

impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::Str(v.to_owned())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn data_type_widths() {
        assert_eq!(DataType::U32.byte_width(), 4);
        assert_eq!(DataType::Str.byte_width(), 4); // dictionary code
        assert_eq!(DataType::U64.byte_width(), 8);
        assert_eq!(DataType::I64.byte_width(), 8);
        assert_eq!(DataType::F64.byte_width(), 8);
        assert_eq!(DataType::Bool.byte_width(), 1);
    }

    #[test]
    fn value_type_roundtrip() {
        assert_eq!(Value::from(7u32).data_type(), DataType::U32);
        assert_eq!(Value::from(7u64).data_type(), DataType::U64);
        assert_eq!(Value::from(-7i64).data_type(), DataType::I64);
        assert_eq!(Value::from(0.5f64).data_type(), DataType::F64);
        assert_eq!(Value::from(true).data_type(), DataType::Bool);
        assert_eq!(Value::from("x").data_type(), DataType::Str);
    }

    #[test]
    fn widening_accessors() {
        assert_eq!(Value::U32(7).as_u64(), Some(7));
        assert_eq!(Value::U32(7).as_i64(), Some(7));
        assert_eq!(Value::U64(u64::MAX).as_i64(), None);
        assert_eq!(Value::U32(2).as_f64(), Some(2.0));
        assert_eq!(Value::Str("a".into()).as_u32(), None);
    }

    #[test]
    fn same_type_ordering() {
        assert_eq!(
            Value::U32(1).total_cmp(&Value::U32(2)),
            Some(Ordering::Less)
        );
        assert_eq!(
            Value::Str("b".into()).total_cmp(&Value::Str("a".into())),
            Some(Ordering::Greater)
        );
        // NaN participates in total order.
        assert_eq!(
            Value::F64(f64::NAN).total_cmp(&Value::F64(f64::NAN)),
            Some(Ordering::Equal)
        );
    }

    #[test]
    fn cross_type_comparison_is_none() {
        assert_eq!(Value::U32(1).total_cmp(&Value::I64(1)), None);
        assert_ne!(Value::U32(1), Value::I64(1));
    }

    #[test]
    fn display_forms() {
        assert_eq!(Value::U32(3).to_string(), "3");
        assert_eq!(Value::Str("hi".into()).to_string(), "'hi'");
    }
}
