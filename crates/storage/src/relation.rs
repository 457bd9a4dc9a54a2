//! Relations: schemas plus equal-length columns.

use crate::column::{Column, RowId};
use crate::dictionary::Dictionary;
use crate::error::StorageError;
use crate::schema::{Field, Schema};
use crate::selection::Selection;
use crate::value::{DataType, Value};
use crate::Result;
use std::fmt;
use std::sync::Arc;

/// An immutable, fully materialised relation (table or intermediate result).
///
/// Columns are shared via `Arc` so projections and property-preserving
/// rewrites are O(1).
#[derive(Debug, Clone)]
pub struct Relation {
    schema: Schema,
    columns: Vec<Arc<Column>>,
    /// Dictionaries for `Str` columns, indexed like `columns` (None for
    /// non-string columns).
    dictionaries: Vec<Option<Arc<Dictionary>>>,
    rows: usize,
}

impl Relation {
    /// Build a relation, checking column count and lengths against `schema`.
    pub fn new(schema: Schema, columns: Vec<Column>) -> Result<Self> {
        Self::from_arcs(schema, columns.into_iter().map(Arc::new).collect())
    }

    /// Build from shared columns.
    pub fn from_arcs(schema: Schema, columns: Vec<Arc<Column>>) -> Result<Self> {
        if schema.width() != columns.len() {
            return Err(StorageError::ColumnLengthMismatch {
                expected: schema.width(),
                found: columns.len(),
            });
        }
        let rows = columns.first().map_or(0, |c| c.len());
        for (field, col) in schema.fields().iter().zip(&columns) {
            if col.len() != rows {
                return Err(StorageError::ColumnLengthMismatch {
                    expected: rows,
                    found: col.len(),
                });
            }
            if col.data_type() != field.data_type {
                return Err(StorageError::TypeMismatch {
                    expected: field.data_type,
                    found: col.data_type(),
                });
            }
        }
        let dictionaries = vec![None; columns.len()];
        Ok(Relation {
            schema,
            columns,
            dictionaries,
            rows,
        })
    }

    /// An empty relation with the given schema.
    pub fn empty(schema: Schema) -> Self {
        let columns = schema
            .fields()
            .iter()
            .map(|f| Arc::new(Column::empty(f.data_type)))
            .collect();
        let dictionaries = vec![None; schema.width()];
        Relation {
            schema,
            columns,
            dictionaries,
            rows: 0,
        }
    }

    /// Convenience: a single-column `u32` relation, the shape of every
    /// Figure-4 dataset.
    pub fn single_u32(name: &str, data: Vec<u32>) -> Self {
        let schema =
            Schema::new(vec![Field::new(name, DataType::U32)]).expect("single field cannot clash");
        Relation::new(schema, vec![Column::U32(data)]).expect("lengths trivially match")
    }

    /// Attach a dictionary to a `Str` column.
    pub fn with_dictionary(mut self, column: &str, dict: Arc<Dictionary>) -> Result<Self> {
        let idx = self.schema.index_of(column)?;
        if self.schema.field_at(idx)?.data_type != DataType::Str {
            return Err(StorageError::TypeMismatch {
                expected: DataType::Str,
                found: self.schema.field_at(idx)?.data_type,
            });
        }
        self.dictionaries[idx] = Some(dict);
        Ok(self)
    }

    /// Attach a dictionary to the `Str` column at position `idx` — the
    /// positional twin of [`Relation::with_dictionary`], used when
    /// assembling outputs (join concatenation, grouping keys) whose column
    /// names were qualified or renamed along the way.
    pub fn with_dictionary_at(mut self, idx: usize, dict: Arc<Dictionary>) -> Result<Self> {
        if self.schema.field_at(idx)?.data_type != DataType::Str {
            return Err(StorageError::TypeMismatch {
                expected: DataType::Str,
                found: self.schema.field_at(idx)?.data_type,
            });
        }
        self.dictionaries[idx] = Some(dict);
        Ok(self)
    }

    /// Dictionary attached to the column at position `idx`, if any.
    pub fn dictionary_at(&self, idx: usize) -> Result<Option<&Arc<Dictionary>>> {
        if idx >= self.dictionaries.len() {
            return Err(StorageError::ColumnIndexOutOfBounds {
                index: idx,
                width: self.dictionaries.len(),
            });
        }
        Ok(self.dictionaries[idx].as_ref())
    }

    /// The schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// True if no rows.
    pub fn is_empty(&self) -> bool {
        self.rows == 0
    }

    /// Column by name.
    pub fn column(&self, name: &str) -> Result<&Column> {
        Ok(&self.columns[self.schema.index_of(name)?])
    }

    /// Column by position.
    pub fn column_at(&self, idx: usize) -> Result<&Column> {
        self.columns
            .get(idx)
            .map(|c| c.as_ref())
            .ok_or(StorageError::ColumnIndexOutOfBounds {
                index: idx,
                width: self.columns.len(),
            })
    }

    /// Shared handle to a column by name (O(1), no copy).
    pub fn column_arc(&self, name: &str) -> Result<Arc<Column>> {
        Ok(Arc::clone(&self.columns[self.schema.index_of(name)?]))
    }

    /// Dictionary attached to a column, if any.
    pub fn dictionary(&self, name: &str) -> Result<Option<&Arc<Dictionary>>> {
        Ok(self.dictionaries[self.schema.index_of(name)?].as_ref())
    }

    /// Value at (row, column-name), decoding dictionary columns.
    pub fn value_at(&self, row: usize, column: &str) -> Result<Value> {
        let idx = self.schema.index_of(column)?;
        let raw = self.columns[idx].value_at(row)?;
        match (&self.dictionaries[idx], &raw) {
            (Some(dict), Value::U32(code)) => Ok(Value::Str(dict.decode(*code)?.to_owned())),
            _ => Ok(raw),
        }
    }

    /// One whole row as values, in schema order (slow path; tests and
    /// display only).
    pub fn row(&self, row: usize) -> Result<Vec<Value>> {
        (0..self.schema.width())
            .map(|i| {
                let name = &self.schema.field_at(i)?.name;
                self.value_at(row, name)
            })
            .collect()
    }

    /// Project to the named columns (O(1) per column — shares buffers).
    pub fn project(&self, names: &[&str]) -> Result<Relation> {
        let schema = self.schema.project(names)?;
        let mut columns = Vec::with_capacity(names.len());
        let mut dictionaries = Vec::with_capacity(names.len());
        for n in names {
            let idx = self.schema.index_of(n)?;
            columns.push(Arc::clone(&self.columns[idx]));
            dictionaries.push(self.dictionaries[idx].clone());
        }
        Ok(Relation {
            schema,
            columns,
            dictionaries,
            rows: self.rows,
        })
    }

    /// Gather rows at `indices` into a new relation (materialising copy).
    pub fn gather<I: RowId>(&self, indices: &[I]) -> Relation {
        self.rebuilt(indices.len(), |c| c.gather(indices))
    }

    /// [`Relation::gather`] into buffers with room for `room` more rows
    /// (see [`Column::gather_with_room`]).
    pub fn gather_with_room<I: RowId>(&self, indices: &[I], room: usize) -> Relation {
        self.rebuilt(indices.len(), |c| c.gather_with_room(indices, room))
    }

    /// Materialise the rows `sel` selects, in its order. Selecting every
    /// row shares the column buffers instead of copying them.
    pub fn select(&self, sel: &Selection) -> Relation {
        if sel.as_range() == Some(0..self.rows) {
            return self.clone();
        }
        self.rebuilt(sel.len(), |c| c.select(sel))
    }

    /// The same schema and dictionaries over `rows`-long columns derived
    /// from this relation's.
    fn rebuilt(&self, rows: usize, column: impl Fn(&Column) -> Column) -> Relation {
        Relation {
            schema: self.schema.clone(),
            columns: self.columns.iter().map(|c| Arc::new(column(c))).collect(),
            dictionaries: self.dictionaries.clone(),
            rows,
        }
    }

    /// Total heap footprint of all columns, in bytes.
    pub fn byte_size(&self) -> usize {
        self.columns.iter().map(|c| c.byte_size()).sum()
    }

    /// Bytes of this relation's columns that do not sit in the buffer of
    /// `other`'s column at the same position — what deriving this
    /// relation from `other` had to write into new buffers. Zero when
    /// every column extends (or is) `other`'s in place.
    pub fn bytes_not_shared_with(&self, other: &Relation) -> usize {
        let shared = |idx: usize| {
            other
                .columns
                .get(idx)
                .is_some_and(|o| self.columns[idx].shares_buffer(o))
        };
        (0..self.columns.len())
            .filter(|&idx| !shared(idx))
            .map(|idx| self.columns[idx].byte_size())
            .sum()
    }

    /// Append `rows` (schema-ordered values) and return both the combined
    /// relation and the appended slice as its own relation.
    ///
    /// This relation keeps its rows, but its column buffers are
    /// append-only: each combined column is this relation's column
    /// extended by the delta's ([`Column::concat`]), written in place past
    /// this snapshot's rows when the snapshot is its buffer's tip and room
    /// remains, else copied once into a buffer with room to grow — so a
    /// table that grows by small appends pays O(delta) amortised per
    /// append. `Str` cells are coded with the
    /// column's dictionary, and the combined relation keeps that very
    /// dictionary unless a string is new: then a copy gains fresh codes
    /// at the end. Existing codes are never renumbered, so readers of the
    /// old snapshot (and views built over it) stay valid. The returned
    /// `delta` shares the **combined** dictionaries, which is what
    /// incremental view maintenance needs: its codes are directly
    /// comparable with the combined column's.
    ///
    /// Values widen losslessly (`u32` into a `u64` column, numerics into
    /// `f64`); anything else is a [`StorageError::TypeMismatch`]. A row of
    /// the wrong width is a [`StorageError::ColumnLengthMismatch`].
    pub fn append_rows(&self, rows: &[Vec<Value>]) -> Result<AppendedRelation> {
        let width = self.schema.width();
        for row in rows {
            if row.len() != width {
                return Err(StorageError::ColumnLengthMismatch {
                    expected: width,
                    found: row.len(),
                });
            }
        }
        // Every delta column first: a type error claims no buffer.
        let mut delta_cols = Vec::with_capacity(width);
        let mut dictionaries = Vec::with_capacity(width);
        for (idx, field) in self.schema.fields().iter().enumerate() {
            let (delta, dict) = match field.data_type {
                DataType::Str => self.code_strings(idx, rows)?,
                dt => (
                    Column::from_cells(dt, rows.iter().map(|row| &row[idx]))?,
                    self.dictionaries[idx].clone(),
                ),
            };
            delta_cols.push(Arc::new(delta));
            dictionaries.push(dict);
        }
        let combined_cols = self
            .columns
            .iter()
            .zip(&delta_cols)
            .map(|(col, delta)| Ok(Arc::new(col.concat(delta)?)))
            .collect::<Result<_>>()?;
        let combined = Relation {
            schema: self.schema.clone(),
            columns: combined_cols,
            dictionaries: dictionaries.clone(),
            rows: self.rows + rows.len(),
        };
        let delta = Relation {
            schema: self.schema.clone(),
            columns: delta_cols,
            dictionaries,
            rows: rows.len(),
        };
        Ok(AppendedRelation { combined, delta })
    }

    /// The codes of the `Str` cells at position `idx` of `rows`, and the
    /// dictionary that decodes them: this column's own while every string
    /// is known, else a copy extended by the new ones.
    fn code_strings(
        &self,
        idx: usize,
        rows: &[Vec<Value>],
    ) -> Result<(Column, Option<Arc<Dictionary>>)> {
        let known = self.dictionaries[idx].as_ref();
        let mut grown: Option<Dictionary> = None;
        let mut codes = Vec::with_capacity(rows.len());
        for row in rows {
            let Value::Str(s) = &row[idx] else {
                return Err(StorageError::TypeMismatch {
                    expected: DataType::Str,
                    found: row[idx].data_type(),
                });
            };
            let code = match (&mut grown, known.and_then(|d| d.lookup(s))) {
                (Some(dict), _) => dict.encode(s),
                (None, Some(code)) => code,
                (None, None) => grown
                    .insert(known.map_or_else(Dictionary::new, |d| (**d).clone()))
                    .encode(s),
            };
            codes.push(code);
        }
        let dict = grown.map(Arc::new).or_else(|| known.cloned());
        Ok((Column::Str(codes), dict))
    }
}

/// Result of [`Relation::append_rows`]: the full relation after the append
/// and the appended rows alone, sharing the combined dictionaries.
#[derive(Debug, Clone)]
pub struct AppendedRelation {
    /// The original rows followed by the appended rows.
    pub combined: Relation,
    /// Just the appended rows, with `Str` codes from the combined
    /// dictionaries.
    pub delta: Relation,
}

impl fmt::Display for Relation {
    /// Renders up to 20 rows, psql-style. Intended for examples and docs.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "{}", self.schema)?;
        let shown = self.rows.min(20);
        for r in 0..shown {
            let row = self.row(r).map_err(|_| fmt::Error)?;
            let cells: Vec<String> = row.iter().map(Value::to_string).collect();
            writeln!(f, "{}", cells.join(" | "))?;
        }
        if self.rows > shown {
            writeln!(f, "... ({} rows total)", self.rows)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Relation {
        let schema = Schema::new(vec![
            Field::new("k", DataType::U32),
            Field::new("v", DataType::F64),
        ])
        .unwrap();
        Relation::new(
            schema,
            vec![Column::U32(vec![1, 2, 3]), Column::F64(vec![0.1, 0.2, 0.3])],
        )
        .unwrap()
    }

    #[test]
    fn construction_checks_lengths() {
        let schema = Schema::new(vec![
            Field::new("a", DataType::U32),
            Field::new("b", DataType::U32),
        ])
        .unwrap();
        let r = Relation::new(schema, vec![Column::U32(vec![1]), Column::U32(vec![1, 2])]);
        assert!(r.is_err());
    }

    #[test]
    fn construction_checks_types() {
        let schema = Schema::new(vec![Field::new("a", DataType::U32)]).unwrap();
        let r = Relation::new(schema, vec![Column::F64(vec![1.0])]);
        assert!(matches!(r, Err(StorageError::TypeMismatch { .. })));
    }

    #[test]
    fn construction_checks_width() {
        let schema = Schema::new(vec![Field::new("a", DataType::U32)]).unwrap();
        let r = Relation::new(schema, vec![]);
        assert!(r.is_err());
    }

    #[test]
    fn accessors() {
        let r = sample();
        assert_eq!(r.rows(), 3);
        assert_eq!(r.column("k").unwrap().as_u32().unwrap(), &[1, 2, 3]);
        assert_eq!(r.value_at(2, "v").unwrap(), Value::F64(0.3));
        assert!(r.column("nope").is_err());
    }

    #[test]
    fn single_u32_shape() {
        let r = Relation::single_u32("key", vec![9, 9, 9]);
        assert_eq!(r.rows(), 3);
        assert_eq!(r.schema().width(), 1);
        assert_eq!(r.column("key").unwrap().as_u32().unwrap(), &[9, 9, 9]);
    }

    #[test]
    fn projection_shares_buffers() {
        let r = sample();
        let p = r.project(&["v"]).unwrap();
        assert_eq!(p.schema().width(), 1);
        assert_eq!(p.rows(), 3);
        // Shared Arc: same allocation.
        assert!(Arc::ptr_eq(
            &r.column_arc("v").unwrap(),
            &p.column_arc("v").unwrap()
        ));
    }

    #[test]
    fn gather_and_select() {
        let r = sample();
        let g = r.gather(&[2u32, 0]);
        assert_eq!(g.column("k").unwrap().as_u32().unwrap(), &[3, 1]);
        let f = r.select(&Selection::Ranges(vec![1..2, 2..2]));
        assert_eq!(f.rows(), 1);
        assert_eq!(f.column("k").unwrap().as_u32().unwrap(), &[2]);
        // Selecting every row shares the buffers instead of copying them.
        let all = r.select(&Selection::all(3));
        assert!(Arc::ptr_eq(
            &r.column_arc("k").unwrap(),
            &all.column_arc("k").unwrap()
        ));
    }

    #[test]
    fn dictionary_decoding_in_value_at() {
        let (dict, codes) = Dictionary::encode_all(&["x", "y", "x"]);
        let schema = Schema::new(vec![Field::new("s", DataType::Str)]).unwrap();
        let r = Relation::new(schema, vec![Column::Str(codes)])
            .unwrap()
            .with_dictionary("s", Arc::new(dict))
            .unwrap();
        assert_eq!(r.value_at(1, "s").unwrap(), Value::Str("y".into()));
        assert_eq!(r.value_at(2, "s").unwrap(), Value::Str("x".into()));
    }

    #[test]
    fn with_dictionary_rejects_non_str() {
        let r = sample();
        let res = r.with_dictionary("k", Arc::new(Dictionary::new()));
        assert!(res.is_err());
    }

    #[test]
    fn empty_relation() {
        let r = Relation::empty(Schema::new(vec![Field::new("a", DataType::U32)]).unwrap());
        assert!(r.is_empty());
        assert_eq!(r.byte_size(), 0);
    }

    #[test]
    fn append_rows_extends_columns_and_dictionary() {
        let (dict, codes) = Dictionary::encode_all(&["x", "y"]);
        let schema = Schema::new(vec![
            Field::new("k", DataType::U32),
            Field::new("s", DataType::Str),
        ])
        .unwrap();
        let base = Relation::new(schema, vec![Column::U32(vec![1, 2]), Column::Str(codes)])
            .unwrap()
            .with_dictionary("s", Arc::new(dict))
            .unwrap();
        let appended = base
            .append_rows(&[
                vec![Value::U32(3), Value::Str("y".into())],
                vec![Value::U32(4), Value::Str("z".into())],
            ])
            .unwrap();
        let combined = &appended.combined;
        assert_eq!(combined.rows(), 4);
        assert_eq!(
            combined.column("k").unwrap().as_u32().unwrap(),
            &[1, 2, 3, 4]
        );
        // Existing codes survive; the new string gets the next code.
        assert_eq!(
            combined.column("s").unwrap().as_u32().unwrap(),
            &[0, 1, 1, 2]
        );
        assert_eq!(combined.value_at(3, "s").unwrap(), Value::Str("z".into()));
        // The base snapshot keeps its rows and its dictionary.
        assert_eq!(base.rows(), 2);
        assert_eq!(base.dictionary("s").unwrap().unwrap().len(), 2);
        // The delta shares the combined dictionary.
        let delta = &appended.delta;
        assert_eq!(delta.rows(), 2);
        assert_eq!(delta.column("s").unwrap().as_u32().unwrap(), &[1, 2]);
        assert!(Arc::ptr_eq(
            combined.dictionary("s").unwrap().unwrap(),
            delta.dictionary("s").unwrap().unwrap()
        ));
    }

    #[test]
    fn append_rows_checks_width_and_types() {
        let base = sample();
        assert!(matches!(
            base.append_rows(&[vec![Value::U32(1)]]),
            Err(StorageError::ColumnLengthMismatch { .. })
        ));
        assert!(matches!(
            base.append_rows(&[vec![Value::Str("no".into()), Value::F64(1.0)]]),
            Err(StorageError::TypeMismatch { .. })
        ));
        // Lossless widening into the f64 column is fine.
        let ok = base
            .append_rows(&[vec![Value::U32(9), Value::U32(2)]])
            .unwrap();
        assert_eq!(ok.combined.value_at(3, "v").unwrap(), Value::F64(2.0));
        // Empty appends are identity-shaped.
        let empty = base.append_rows(&[]).unwrap();
        assert_eq!(empty.combined.rows(), 3);
        assert_eq!(empty.delta.rows(), 0);
    }

    #[test]
    fn append_of_known_strings_keeps_the_dictionary() {
        let (dict, codes) = Dictionary::encode_all(&["x", "y"]);
        let schema = Schema::new(vec![Field::new("s", DataType::Str)]).unwrap();
        let base = Relation::new(schema, vec![Column::Str(codes)])
            .unwrap()
            .with_dictionary("s", Arc::new(dict))
            .unwrap();
        let strs = |ss: &[&str]| -> Vec<Vec<Value>> {
            ss.iter().map(|s| vec![Value::Str((*s).into())]).collect()
        };
        let known = base.append_rows(&strs(&["y", "x", "y"])).unwrap();
        let dict_of = |r: &Relation| Arc::clone(r.dictionary("s").unwrap().unwrap());
        assert!(Arc::ptr_eq(&dict_of(&base), &dict_of(&known.combined)));
        assert!(Arc::ptr_eq(&dict_of(&base), &dict_of(&known.delta)));
        assert_eq!(
            known.delta.column("s").unwrap().as_u32().unwrap(),
            &[1, 0, 1]
        );
        // A new string, even after known ones, gets the next code in a
        // new dictionary; the base's is unchanged.
        let fresh = known.combined.append_rows(&strs(&["x", "z"])).unwrap();
        assert!(!Arc::ptr_eq(&dict_of(&base), &dict_of(&fresh.combined)));
        assert_eq!(fresh.delta.column("s").unwrap().as_u32().unwrap(), &[0, 2]);
        assert_eq!(
            fresh.combined.value_at(6, "s").unwrap(),
            Value::Str("z".into())
        );
        assert_eq!(base.dictionary("s").unwrap().unwrap().len(), 2);
    }

    #[test]
    fn appends_extend_the_tip_in_place() {
        let base = sample();
        let row = |k: u32| vec![vec![Value::U32(k), Value::F64(0.5)]];
        // `sample`'s buffers are full: the first append moves them.
        let first = base.append_rows(&row(4)).unwrap().combined;
        assert_eq!(first.bytes_not_shared_with(&base), 4 * 4 + 4 * 8);
        let second = first.append_rows(&row(5)).unwrap().combined;
        assert_eq!(second.bytes_not_shared_with(&first), 0);
        assert_eq!(
            second.column("k").unwrap().as_u32().unwrap(),
            &[1, 2, 3, 4, 5]
        );
        // Two appends to one snapshot: the second one copies, and both
        // children read their own rows.
        let other = first.append_rows(&row(9)).unwrap().combined;
        assert_eq!(other.bytes_not_shared_with(&first), 5 * 4 + 5 * 8);
        assert_eq!(
            other.column("k").unwrap().as_u32().unwrap(),
            &[1, 2, 3, 4, 9]
        );
        assert_eq!(
            second.column("k").unwrap().as_u32().unwrap(),
            &[1, 2, 3, 4, 5]
        );
        assert_eq!(first.rows(), 4);
        assert_eq!(base.column("k").unwrap().as_u32().unwrap(), &[1, 2, 3]);
    }

    #[test]
    fn display_truncates() {
        let r = Relation::single_u32("k", (0..30).collect());
        let s = r.to_string();
        assert!(s.contains("(k: u32)"));
        assert!(s.contains("... (30 rows total)"));
    }
}
