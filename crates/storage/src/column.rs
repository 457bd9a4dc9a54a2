//! Typed columns.
//!
//! A [`Column`] is a contiguous, fully materialised vector of one scalar
//! type. Hot operator code obtains the raw slice (e.g. [`Column::as_u32`])
//! and works on it directly; `Value`-based access exists for the API
//! boundary and tests.

use crate::error::StorageError;
use crate::selection::Selection;
use crate::value::{DataType, Value};
use crate::Result;
use std::ops::Range;

/// A typed, fully materialised column.
#[derive(Debug, Clone, PartialEq)]
pub enum Column {
    /// u32 data (grouping keys in the paper's experiments).
    U32(Vec<u32>),
    /// u64 data (counters).
    U64(Vec<u64>),
    /// i64 data.
    I64(Vec<i64>),
    /// f64 data.
    F64(Vec<f64>),
    /// bool data.
    Bool(Vec<bool>),
    /// Dictionary codes; the dictionary itself lives in the relation's
    /// schema-adjacent metadata (see [`crate::dictionary`]).
    Str(Vec<u32>),
}

/// A row id usable as a gather index: the executor's native `u32` ids and
/// plain `usize` positions.
pub trait RowId: Copy {
    /// The row position this id names.
    fn index(self) -> usize;
}

impl RowId for u32 {
    fn index(self) -> usize {
        self as usize
    }
}

impl RowId for usize {
    fn index(self) -> usize {
        self
    }
}

/// Rebuild a column of the same type from its data vector `$v`, whatever
/// its element type.
macro_rules! per_type {
    ($col:expr, $v:ident => $body:expr) => {
        match $col {
            Column::U32($v) => Column::U32($body),
            Column::U64($v) => Column::U64($body),
            Column::I64($v) => Column::I64($body),
            Column::F64($v) => Column::F64($body),
            Column::Bool($v) => Column::Bool($body),
            Column::Str($v) => Column::Str($body),
        }
    };
}

impl Column {
    /// The column's data type.
    pub fn data_type(&self) -> DataType {
        match self {
            Column::U32(_) => DataType::U32,
            Column::U64(_) => DataType::U64,
            Column::I64(_) => DataType::I64,
            Column::F64(_) => DataType::F64,
            Column::Bool(_) => DataType::Bool,
            Column::Str(_) => DataType::Str,
        }
    }

    /// Number of values.
    pub fn len(&self) -> usize {
        match self {
            Column::U32(v) | Column::Str(v) => v.len(),
            Column::U64(v) => v.len(),
            Column::I64(v) => v.len(),
            Column::F64(v) => v.len(),
            Column::Bool(v) => v.len(),
        }
    }

    /// True if the column holds no values.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// An empty column of the given type.
    pub fn empty(dt: DataType) -> Self {
        match dt {
            DataType::U32 => Column::U32(Vec::new()),
            DataType::U64 => Column::U64(Vec::new()),
            DataType::I64 => Column::I64(Vec::new()),
            DataType::F64 => Column::F64(Vec::new()),
            DataType::Bool => Column::Bool(Vec::new()),
            DataType::Str => Column::Str(Vec::new()),
        }
    }

    /// Borrow as `&[u32]` (also accepts `Str`, whose physical layout is
    /// `u32` dictionary codes).
    pub fn as_u32(&self) -> Result<&[u32]> {
        match self {
            Column::U32(v) | Column::Str(v) => Ok(v),
            other => Err(StorageError::TypeMismatch {
                expected: DataType::U32,
                found: other.data_type(),
            }),
        }
    }

    /// Borrow as `&[u64]`.
    pub fn as_u64(&self) -> Result<&[u64]> {
        match self {
            Column::U64(v) => Ok(v),
            other => Err(StorageError::TypeMismatch {
                expected: DataType::U64,
                found: other.data_type(),
            }),
        }
    }

    /// Borrow as `&[i64]`.
    pub fn as_i64(&self) -> Result<&[i64]> {
        match self {
            Column::I64(v) => Ok(v),
            other => Err(StorageError::TypeMismatch {
                expected: DataType::I64,
                found: other.data_type(),
            }),
        }
    }

    /// Borrow as `&[f64]`.
    pub fn as_f64(&self) -> Result<&[f64]> {
        match self {
            Column::F64(v) => Ok(v),
            other => Err(StorageError::TypeMismatch {
                expected: DataType::F64,
                found: other.data_type(),
            }),
        }
    }

    /// Borrow as `&[bool]`.
    pub fn as_bool(&self) -> Result<&[bool]> {
        match self {
            Column::Bool(v) => Ok(v),
            other => Err(StorageError::TypeMismatch {
                expected: DataType::Bool,
                found: other.data_type(),
            }),
        }
    }

    /// Value at `idx` as a [`Value`] (slow path; for API boundary and tests).
    pub fn value_at(&self, idx: usize) -> Result<Value> {
        let len = self.len();
        if idx >= len {
            return Err(StorageError::RowIndexOutOfBounds {
                index: idx,
                rows: len,
            });
        }
        Ok(match self {
            Column::U32(v) => Value::U32(v[idx]),
            Column::U64(v) => Value::U64(v[idx]),
            Column::I64(v) => Value::I64(v[idx]),
            Column::F64(v) => Value::F64(v[idx]),
            Column::Bool(v) => Value::Bool(v[idx]),
            // `Str` surfaces the raw code; decoding needs the dictionary and
            // is done by `Relation::value_at`.
            Column::Str(v) => Value::U32(v[idx]),
        })
    }

    /// Build a new column by picking the rows at `indices` (gather); row
    /// ids come in whichever width the caller holds them ([`RowId`]).
    ///
    /// Out-of-range indices are a programming error and panic via slice
    /// indexing, which is the desired fail-fast behaviour for a corrupted
    /// selection vector.
    pub fn gather<I: RowId>(&self, indices: &[I]) -> Column {
        per_type!(self, v => indices.iter().map(|&i| v[i.index()]).collect())
    }

    /// Build a new column from the rows `sel` selects, in its order:
    /// slice copies for ranges, a gather for row ids.
    pub fn select(&self, sel: &Selection) -> Column {
        match sel {
            Selection::Rows(ids) => self.gather(ids),
            Selection::Ranges(rs) => per_type!(self, v => {
                let mut out = Vec::with_capacity(sel.len());
                rs.iter().for_each(|r| out.extend_from_slice(&v[r.clone()]));
                out
            }),
        }
    }

    /// The rows `ranges` select from `self ++ tail`, in order, copied
    /// straight out of the two buffers: the concatenation is never built.
    /// This is how a snapshot extends its predecessor (one range for an
    /// append, interleaved runs for a merge), so the new buffer's capacity
    /// is rounded up to a geometric size class — the next snapshot of a
    /// growing column then fits the block this one frees.
    pub fn concat_select(&self, tail: &Column, ranges: &[Range<usize>]) -> Result<Column> {
        fn pick<T: Copy>(a: &[T], b: &[T], ranges: &[Range<usize>]) -> Vec<T> {
            let n = a.len();
            let mut out = Vec::with_capacity(size_class(ranges.iter().map(|r| r.len()).sum()));
            for r in ranges {
                if r.start < n {
                    out.extend_from_slice(&a[r.start..r.end.min(n)]);
                }
                if r.end > n {
                    out.extend_from_slice(&b[r.start.max(n) - n..r.end - n]);
                }
            }
            out
        }
        Ok(match (self, tail) {
            (Column::U32(a), Column::U32(b)) => Column::U32(pick(a, b, ranges)),
            (Column::U64(a), Column::U64(b)) => Column::U64(pick(a, b, ranges)),
            (Column::I64(a), Column::I64(b)) => Column::I64(pick(a, b, ranges)),
            (Column::F64(a), Column::F64(b)) => Column::F64(pick(a, b, ranges)),
            (Column::Bool(a), Column::Bool(b)) => Column::Bool(pick(a, b, ranges)),
            (Column::Str(a), Column::Str(b)) => Column::Str(pick(a, b, ranges)),
            (me, other) => {
                return Err(StorageError::TypeMismatch {
                    expected: me.data_type(),
                    found: other.data_type(),
                })
            }
        })
    }

    /// `self ++ tail` in one buffer: [`Column::concat_select`] of every
    /// row — how an append builds the next snapshot of a column.
    pub fn concat(&self, tail: &Column) -> Result<Column> {
        self.concat_select(tail, std::slice::from_ref(&(0..self.len() + tail.len())))
    }

    /// Concatenate another column of the same type onto this one.
    pub fn append(&mut self, other: &Column) -> Result<()> {
        match (self, other) {
            (Column::U32(a), Column::U32(b)) => a.extend_from_slice(b),
            (Column::U64(a), Column::U64(b)) => a.extend_from_slice(b),
            (Column::I64(a), Column::I64(b)) => a.extend_from_slice(b),
            (Column::F64(a), Column::F64(b)) => a.extend_from_slice(b),
            (Column::Bool(a), Column::Bool(b)) => a.extend_from_slice(b),
            (Column::Str(a), Column::Str(b)) => a.extend_from_slice(b),
            (me, other) => {
                return Err(StorageError::TypeMismatch {
                    expected: me.data_type(),
                    found: other.data_type(),
                })
            }
        }
        Ok(())
    }

    /// Approximate heap footprint in bytes (used by the AV catalog's budget
    /// accounting).
    pub fn byte_size(&self) -> usize {
        self.len() * self.data_type().byte_width()
    }

    /// Push one [`Value`], widening losslessly (`u32` into `u64`/`i64`
    /// columns, any numeric into `f64`). `Str` columns store dictionary
    /// codes, so pushing a decoded string here is a type error — encode it
    /// first (see `Relation::append_rows`).
    pub fn push_value(&mut self, v: &Value) -> Result<()> {
        let mismatch = |expected: DataType| StorageError::TypeMismatch {
            expected,
            found: v.data_type(),
        };
        match self {
            Column::U32(col) => col.push(v.as_u32().ok_or(mismatch(DataType::U32))?),
            Column::U64(col) => col.push(v.as_u64().ok_or(mismatch(DataType::U64))?),
            Column::I64(col) => col.push(v.as_i64().ok_or(mismatch(DataType::I64))?),
            Column::F64(col) => col.push(v.as_f64().ok_or(mismatch(DataType::F64))?),
            Column::Bool(col) => col.push(v.as_bool().ok_or(mismatch(DataType::Bool))?),
            Column::Str(_) => return Err(mismatch(DataType::Str)),
        }
        Ok(())
    }
}

/// `len` rounded up to a geometric size class: its top four significant
/// bits, so at most 12.5 % slack. Successive snapshots of a column that
/// grows by small appends share a class, and the allocator can hand each
/// one the block its predecessor freed instead of keeping a slightly
/// larger block per snapshot.
fn size_class(len: usize) -> usize {
    let unit = 1 << (usize::BITS - len.leading_zeros()).saturating_sub(4);
    len.div_ceil(unit) * unit
}

impl From<Vec<u32>> for Column {
    fn from(v: Vec<u32>) -> Self {
        Column::U32(v)
    }
}

impl From<Vec<u64>> for Column {
    fn from(v: Vec<u64>) -> Self {
        Column::U64(v)
    }
}

impl From<Vec<i64>> for Column {
    fn from(v: Vec<i64>) -> Self {
        Column::I64(v)
    }
}

impl From<Vec<f64>> for Column {
    fn from(v: Vec<f64>) -> Self {
        Column::F64(v)
    }
}

impl From<Vec<bool>> for Column {
    fn from(v: Vec<bool>) -> Self {
        Column::Bool(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn len_and_type() {
        let c = Column::U32(vec![1, 2, 3]);
        assert_eq!(c.len(), 3);
        assert!(!c.is_empty());
        assert_eq!(c.data_type(), DataType::U32);
        assert!(Column::empty(DataType::F64).is_empty());
    }

    #[test]
    fn typed_slice_access() {
        let c = Column::U32(vec![4, 5]);
        assert_eq!(c.as_u32().unwrap(), &[4, 5]);
        assert!(c.as_u64().is_err());
        assert!(c.as_f64().is_err());
    }

    #[test]
    fn str_column_exposes_codes_as_u32() {
        let c = Column::Str(vec![0, 1, 0]);
        assert_eq!(c.as_u32().unwrap(), &[0, 1, 0]);
        assert_eq!(c.data_type(), DataType::Str);
    }

    #[test]
    fn value_at_bounds() {
        let c = Column::I64(vec![-1, 9]);
        assert_eq!(c.value_at(1).unwrap(), Value::I64(9));
        assert!(matches!(
            c.value_at(2),
            Err(StorageError::RowIndexOutOfBounds { index: 2, rows: 2 })
        ));
    }

    #[test]
    fn gather_reorders() {
        let c = Column::U32(vec![10, 20, 30]);
        let g = c.gather(&[2u32, 0, 0]);
        assert_eq!(g.as_u32().unwrap(), &[30, 10, 10]);
    }

    #[test]
    fn select_copies_ranges_and_rows() {
        let c = Column::F64(vec![1.0, 2.0, 3.0, 4.0]);
        let ranges = c.select(&Selection::Ranges(vec![0..1, 2..4]));
        assert_eq!(ranges.as_f64().unwrap(), &[1.0, 3.0, 4.0]);
        let rows = c.select(&Selection::Rows(vec![3, 0]));
        assert_eq!(rows.as_f64().unwrap(), &[4.0, 1.0]);
    }

    #[test]
    fn append_same_type() {
        let mut a = Column::U32(vec![1]);
        a.append(&Column::U32(vec![2, 3])).unwrap();
        assert_eq!(a.as_u32().unwrap(), &[1, 2, 3]);
    }

    #[test]
    fn concat_select_copies_from_both_sides_without_concatenating() {
        let (a, b) = (Column::U32(vec![1, 2, 3]), Column::U32(vec![7, 8]));
        let all = a.concat(&b).unwrap();
        assert_eq!(all.as_u32().unwrap(), &[1, 2, 3, 7, 8]);
        let merged = a.concat_select(&b, &[0..1, 4..5, 1..3, 3..4]).unwrap();
        assert_eq!(merged.as_u32().unwrap(), &[1, 8, 2, 3, 7]);
        assert!(a.concat(&Column::F64(vec![])).is_err());
    }

    #[test]
    fn size_classes_bound_the_slack() {
        assert_eq!(size_class(0), 0);
        assert_eq!(size_class(16), 16);
        assert_eq!(size_class(17), 18);
        for len in [1usize, 15, 1000, 999_983, 1 << 20, (1 << 20) + 1] {
            let class = size_class(len);
            assert!(class >= len && class - len <= len / 8, "{len} -> {class}");
        }
        // A million-row column grows through one class for thousands of
        // 16-row appends.
        assert_eq!(size_class(1_000_000), size_class(1_000_000 + 16 * 1000));
    }

    #[test]
    fn append_type_mismatch() {
        let mut a = Column::U32(vec![1]);
        assert!(a.append(&Column::U64(vec![2])).is_err());
    }

    #[test]
    fn byte_size() {
        assert_eq!(Column::U32(vec![0; 10]).byte_size(), 40);
        assert_eq!(Column::F64(vec![0.0; 10]).byte_size(), 80);
        assert_eq!(Column::Bool(vec![false; 10]).byte_size(), 10);
    }
}
