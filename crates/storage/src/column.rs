//! Typed columns.
//!
//! A [`Column`] is a contiguous, fully materialised vector of one scalar
//! type, held in an append-only shared buffer (`values.rs`). Hot operator
//! code obtains the raw slice (e.g. [`Column::as_u32`]) and works on it
//! directly; `Value`-based access exists for the API boundary and tests.
//! Cloning a column shares its buffer, and appending to one
//! ([`Column::concat`]) writes in place when it can.

use crate::error::StorageError;
use crate::selection::Selection;
use crate::value::{DataType, Value};
use crate::values::Values;
use crate::Result;
use std::fmt;
use std::ops::Range;

/// A typed, fully materialised column. Build one from a `Vec` of its type
/// with the constructor named after it (`Column::U32(vec![1, 2])`); the
/// vector's allocation becomes the column's buffer.
#[derive(Clone, PartialEq)]
pub struct Column(Data);

/// A column's data, one variant per physical type.
#[derive(Debug, Clone, PartialEq)]
enum Data {
    U32(Values<u32>),
    U64(Values<u64>),
    I64(Values<i64>),
    F64(Values<f64>),
    Bool(Values<bool>),
    /// Dictionary codes; the dictionary itself lives beside the column in
    /// its relation (see [`crate::dictionary`]).
    Str(Values<u32>),
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

/// Rebuild a column of the same type from its data `$v`, whatever its
/// element type; `$body` yields a `Vec` or `Values` of that type.
macro_rules! per_type {
    ($col:expr, $v:ident => $body:expr) => {
        Column(match &$col.0 {
            Data::U32($v) => Data::U32($body.into()),
            Data::U64($v) => Data::U64($body.into()),
            Data::I64($v) => Data::I64($body.into()),
            Data::F64($v) => Data::F64($body.into()),
            Data::Bool($v) => Data::Bool($body.into()),
            Data::Str($v) => Data::Str($body.into()),
        })
    };
}

/// The same for two columns of one type; a type mismatch is an error.
macro_rules! per_type_pair {
    ($a:expr, $b:expr, ($x:ident, $y:ident) => $body:expr) => {
        Ok(Column(match (&$a.0, &$b.0) {
            (Data::U32($x), Data::U32($y)) => Data::U32($body.into()),
            (Data::U64($x), Data::U64($y)) => Data::U64($body.into()),
            (Data::I64($x), Data::I64($y)) => Data::I64($body.into()),
            (Data::F64($x), Data::F64($y)) => Data::F64($body.into()),
            (Data::Bool($x), Data::Bool($y)) => Data::Bool($body.into()),
            (Data::Str($x), Data::Str($y)) => Data::Str($body.into()),
            _ => {
                return Err(StorageError::TypeMismatch {
                    expected: $a.data_type(),
                    found: $b.data_type(),
                })
            }
        }))
    };
}

#[allow(non_snake_case)]
impl Column {
    /// A `u32` column (grouping keys in the paper's experiments).
    pub fn U32(v: Vec<u32>) -> Column {
        Column(Data::U32(v.into()))
    }

    /// A `u64` column (counters).
    pub fn U64(v: Vec<u64>) -> Column {
        Column(Data::U64(v.into()))
    }

    /// An `i64` column.
    pub fn I64(v: Vec<i64>) -> Column {
        Column(Data::I64(v.into()))
    }

    /// An `f64` column.
    pub fn F64(v: Vec<f64>) -> Column {
        Column(Data::F64(v.into()))
    }

    /// A `bool` column.
    pub fn Bool(v: Vec<bool>) -> Column {
        Column(Data::Bool(v.into()))
    }

    /// A `Str` column of dictionary codes; the dictionary itself is
    /// attached to its relation (see [`crate::dictionary`]).
    pub fn Str(codes: Vec<u32>) -> Column {
        Column(Data::Str(codes.into()))
    }
}

impl Column {
    /// The column's data type.
    pub fn data_type(&self) -> DataType {
        match self.0 {
            Data::U32(_) => DataType::U32,
            Data::U64(_) => DataType::U64,
            Data::I64(_) => DataType::I64,
            Data::F64(_) => DataType::F64,
            Data::Bool(_) => DataType::Bool,
            Data::Str(_) => DataType::Str,
        }
    }

    /// Number of values.
    pub fn len(&self) -> usize {
        match &self.0 {
            Data::U32(v) | Data::Str(v) => v.len(),
            Data::U64(v) => v.len(),
            Data::I64(v) => v.len(),
            Data::F64(v) => v.len(),
            Data::Bool(v) => v.len(),
        }
    }

    /// True if the column holds no values.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// An empty column of the given type.
    pub fn empty(dt: DataType) -> Self {
        Column(match dt {
            DataType::U32 => Data::U32(Values::default()),
            DataType::U64 => Data::U64(Values::default()),
            DataType::I64 => Data::I64(Values::default()),
            DataType::F64 => Data::F64(Values::default()),
            DataType::Bool => Data::Bool(Values::default()),
            DataType::Str => Data::Str(Values::default()),
        })
    }

    /// A column of type `dt` holding `cells`, widening losslessly (`u32`
    /// into `u64`/`i64` columns, any numeric into `f64`). `Str` columns
    /// store dictionary codes, so a decoded string here is a type error —
    /// encode it first (see `Relation::append_rows`).
    pub(crate) fn from_cells<'a>(
        dt: DataType,
        cells: impl Iterator<Item = &'a Value>,
    ) -> Result<Self> {
        fn collect<'a, T>(
            cells: impl Iterator<Item = &'a Value>,
            dt: DataType,
            cast: impl Fn(&Value) -> Option<T>,
        ) -> Result<Vec<T>> {
            cells
                .map(|v| {
                    cast(v).ok_or(StorageError::TypeMismatch {
                        expected: dt,
                        found: v.data_type(),
                    })
                })
                .collect()
        }
        Ok(match dt {
            DataType::U32 => Column::U32(collect(cells, dt, Value::as_u32)?),
            DataType::U64 => Column::U64(collect(cells, dt, Value::as_u64)?),
            DataType::I64 => Column::I64(collect(cells, dt, Value::as_i64)?),
            DataType::F64 => Column::F64(collect(cells, dt, Value::as_f64)?),
            DataType::Bool => Column::Bool(collect(cells, dt, Value::as_bool)?),
            DataType::Str => Column::Str(collect(cells, dt, |_| None)?),
        })
    }

    /// Borrow as `&[u32]` (also accepts `Str`, whose physical layout is
    /// `u32` dictionary codes).
    pub fn as_u32(&self) -> Result<&[u32]> {
        match &self.0 {
            Data::U32(v) | Data::Str(v) => Ok(v),
            _ => Err(self.mismatch(DataType::U32)),
        }
    }

    /// Borrow as `&[u64]`.
    pub fn as_u64(&self) -> Result<&[u64]> {
        match &self.0 {
            Data::U64(v) => Ok(v),
            _ => Err(self.mismatch(DataType::U64)),
        }
    }

    /// Borrow as `&[i64]`.
    pub fn as_i64(&self) -> Result<&[i64]> {
        match &self.0 {
            Data::I64(v) => Ok(v),
            _ => Err(self.mismatch(DataType::I64)),
        }
    }

    /// Borrow as `&[f64]`.
    pub fn as_f64(&self) -> Result<&[f64]> {
        match &self.0 {
            Data::F64(v) => Ok(v),
            _ => Err(self.mismatch(DataType::F64)),
        }
    }

    /// Borrow as `&[bool]`.
    pub fn as_bool(&self) -> Result<&[bool]> {
        match &self.0 {
            Data::Bool(v) => Ok(v),
            _ => Err(self.mismatch(DataType::Bool)),
        }
    }

    fn mismatch(&self, expected: DataType) -> StorageError {
        StorageError::TypeMismatch {
            expected,
            found: self.data_type(),
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
        Ok(match &self.0 {
            Data::U32(v) => Value::U32(v[idx]),
            Data::U64(v) => Value::U64(v[idx]),
            Data::I64(v) => Value::I64(v[idx]),
            Data::F64(v) => Value::F64(v[idx]),
            Data::Bool(v) => Value::Bool(v[idx]),
            // `Str` surfaces the raw code; decoding needs the dictionary and
            // is done by `Relation::value_at`.
            Data::Str(v) => Value::U32(v[idx]),
        })
    }

    /// Build a new column by picking the rows at `indices` (gather); row
    /// ids come in whichever width the caller holds them ([`RowId`]).
    ///
    /// Out-of-range indices are a programming error and panic via slice
    /// indexing, which is the desired fail-fast behaviour for a corrupted
    /// selection vector.
    pub fn gather<I: RowId>(&self, indices: &[I]) -> Column {
        self.gather_with_room(indices, 0)
    }

    /// [`Column::gather`] into a buffer with room for `room` more rows,
    /// which the next appends then write in place.
    pub fn gather_with_room<I: RowId>(&self, indices: &[I], room: usize) -> Column {
        per_type!(self, v => {
            let mut out = Vec::with_capacity(indices.len() + room);
            out.extend(indices.iter().map(|&i| v[i.index()]));
            out
        })
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
    /// growing column then fits the block this one frees — and holds at
    /// least `room` more rows, which the next appends write in place.
    /// Ranges that take all of `self` and then all of `tail`, in order,
    /// are an append ([`Column::concat`]), which writes in place when it
    /// can.
    pub fn concat_select(
        &self,
        tail: &Column,
        ranges: &[Range<usize>],
        room: usize,
    ) -> Result<Column> {
        fn pick<T: Copy>(a: &[T], b: &[T], ranges: &[Range<usize>], room: usize) -> Vec<T> {
            let n = a.len();
            let len = ranges.iter().map(|r| r.len()).sum::<usize>();
            let mut out = Vec::with_capacity(size_class(len).max(len + room));
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
        let mut end = 0;
        let appends = ranges.iter().filter(|r| !r.is_empty()).all(|r| {
            let next = r.start == end;
            end = r.end;
            next
        });
        if appends && end == self.len() + tail.len() {
            return self.concat(tail);
        }
        per_type_pair!(self, tail, (a, b) => pick(a, b, ranges, room))
    }

    /// `self ++ tail`: written past this column's length in its own buffer
    /// when this column is the buffer's tip and room remains, else copied
    /// into a new buffer with twice the room it needs — how an append
    /// builds the next snapshot of a column, at O(delta) amortised. `self`
    /// is unchanged: the rows it reads are never written again.
    pub fn concat(&self, tail: &Column) -> Result<Column> {
        per_type_pair!(self, tail, (a, b) => a.extended(b))
    }

    /// True when both columns read the same buffer — one extends the
    /// other in place, or they are clones.
    pub fn shares_buffer(&self, other: &Column) -> bool {
        match (&self.0, &other.0) {
            (Data::U32(a) | Data::Str(a), Data::U32(b) | Data::Str(b)) => a.shares_buffer(b),
            (Data::U64(a), Data::U64(b)) => a.shares_buffer(b),
            (Data::I64(a), Data::I64(b)) => a.shares_buffer(b),
            (Data::F64(a), Data::F64(b)) => a.shares_buffer(b),
            (Data::Bool(a), Data::Bool(b)) => a.shares_buffer(b),
            _ => false,
        }
    }

    /// Approximate heap footprint in bytes (used by the AV catalog's budget
    /// accounting).
    pub fn byte_size(&self) -> usize {
        self.len() * self.data_type().byte_width()
    }
}

impl fmt::Debug for Column {
    /// The variant and its values, as `U32([1, 2])`.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.0.fmt(f)
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
    fn concat_extends_the_tip_in_place_and_copies_otherwise() {
        let a = Column::U32(vec![1]);
        // `a`'s buffer is full: the first append copies, with room to grow.
        let b = a.concat(&Column::U32(vec![2, 3])).unwrap();
        assert_eq!(b.as_u32().unwrap(), &[1, 2, 3]);
        assert!(!b.shares_buffer(&a));
        let c = b.concat(&Column::U32(vec![4])).unwrap();
        assert!(c.shares_buffer(&b));
        assert_eq!(c.as_u32().unwrap(), &[1, 2, 3, 4]);
        assert_eq!(b.as_u32().unwrap(), &[1, 2, 3]);
        // `b` is no longer its buffer's tip.
        let d = b.concat(&Column::U32(vec![9])).unwrap();
        assert!(!d.shares_buffer(&b));
        assert_eq!(d.as_u32().unwrap(), &[1, 2, 3, 9]);
        // A range list that is an append goes the same way.
        let e = c
            .concat_select(&Column::U32(vec![5]), &[0..2, 2..2, 2..5], 0)
            .unwrap();
        assert!(e.shares_buffer(&c));
        assert_eq!(e.as_u32().unwrap(), &[1, 2, 3, 4, 5]);
    }

    #[test]
    fn from_cells_widens_and_rejects() {
        let cells = [Value::U32(1), Value::U32(2)];
        let wide = Column::from_cells(DataType::U64, cells.iter()).unwrap();
        assert_eq!(wide.as_u64().unwrap(), &[1, 2]);
        let f = Column::from_cells(DataType::F64, cells.iter()).unwrap();
        assert_eq!(f.as_f64().unwrap(), &[1.0, 2.0]);
        assert!(Column::from_cells(DataType::Bool, cells.iter()).is_err());
        let s = [Value::Str("x".into())];
        assert!(Column::from_cells(DataType::Str, s.iter()).is_err());
        assert_eq!(format!("{wide:?}"), "U64([1, 2])");
    }

    #[test]
    fn concat_select_copies_from_both_sides_without_concatenating() {
        let (a, b) = (Column::U32(vec![1, 2, 3]), Column::U32(vec![7, 8]));
        let all = a.concat(&b).unwrap();
        assert_eq!(all.as_u32().unwrap(), &[1, 2, 3, 7, 8]);
        let merged = a.concat_select(&b, &[0..1, 4..5, 1..3, 3..4], 0).unwrap();
        assert_eq!(merged.as_u32().unwrap(), &[1, 8, 2, 3, 7]);
        // Room asked for is room the next appends write in place into.
        let roomy = a.concat_select(&b, &[4..5, 0..3], 100).unwrap();
        let grown = roomy.concat(&Column::U32(vec![9; 100])).unwrap();
        assert!(grown.shares_buffer(&roomy));
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
    fn concat_type_mismatch() {
        let a = Column::U32(vec![1]);
        assert!(a.concat(&Column::U64(vec![2])).is_err());
    }

    #[test]
    fn byte_size() {
        assert_eq!(Column::U32(vec![0; 10]).byte_size(), 40);
        assert_eq!(Column::F64(vec![0.0; 10]).byte_size(), 80);
        assert_eq!(Column::Bool(vec![false; 10]).byte_size(), 10);
    }
}
