//! Schemas: ordered, named, typed fields.

use crate::error::StorageError;
use crate::value::DataType;
use crate::Result;
use std::fmt;

/// One named, typed field of a relation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Field {
    /// Field name (unique within a schema, case-sensitive).
    pub name: String,
    /// Field type.
    pub data_type: DataType,
}

impl Field {
    /// Construct a field.
    pub fn new(name: impl Into<String>, data_type: DataType) -> Self {
        Field {
            name: name.into(),
            data_type,
        }
    }
}

impl fmt::Display for Field {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {}", self.name, self.data_type)
    }
}

/// An ordered list of fields.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Schema {
    fields: Vec<Field>,
}

impl Schema {
    /// Construct a schema from fields. Field names must be unique.
    pub fn new(fields: Vec<Field>) -> Result<Self> {
        for (i, f) in fields.iter().enumerate() {
            if fields[..i].iter().any(|g| g.name == f.name) {
                return Err(StorageError::InvalidDatasetSpec(format!(
                    "duplicate field name '{}' in schema",
                    f.name
                )));
            }
        }
        Ok(Schema { fields })
    }

    /// Empty schema.
    pub fn empty() -> Self {
        Schema { fields: Vec::new() }
    }

    /// The fields, in order.
    pub fn fields(&self) -> &[Field] {
        &self.fields
    }

    /// Number of fields.
    pub fn width(&self) -> usize {
        self.fields.len()
    }

    /// Index of a field by name.
    pub fn index_of(&self, name: &str) -> Result<usize> {
        self.fields
            .iter()
            .position(|f| f.name == name)
            .ok_or_else(|| StorageError::UnknownColumn(name.to_owned()))
    }

    /// Field by name.
    pub fn field(&self, name: &str) -> Result<&Field> {
        Ok(&self.fields[self.index_of(name)?])
    }

    /// Field at position `idx`.
    pub fn field_at(&self, idx: usize) -> Result<&Field> {
        self.fields
            .get(idx)
            .ok_or(StorageError::ColumnIndexOutOfBounds {
                index: idx,
                width: self.fields.len(),
            })
    }

    /// A new schema that keeps only the named fields, in the given order.
    pub fn project(&self, names: &[&str]) -> Result<Schema> {
        let fields = names
            .iter()
            .map(|n| self.field(n).cloned())
            .collect::<Result<Vec<_>>>()?;
        Schema::new(fields)
    }

    /// Concatenate two schemas, qualifying clashing names with a prefix on
    /// the right side (`right.<name>`), as join outputs do.
    pub fn join(&self, right: &Schema, right_qualifier: &str) -> Result<Schema> {
        let mut fields = self.fields.clone();
        for f in &right.fields {
            let name = if self.index_of(&f.name).is_ok() {
                format!("{right_qualifier}.{}", f.name)
            } else {
                f.name.clone()
            };
            fields.push(Field::new(name, f.data_type));
        }
        Schema::new(fields)
    }
}

impl fmt::Display for Schema {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "(")?;
        for (i, field) in self.fields.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{field}")?;
        }
        write!(f, ")")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn abc() -> Schema {
        Schema::new(vec![
            Field::new("a", DataType::U32),
            Field::new("b", DataType::F64),
            Field::new("c", DataType::Str),
        ])
        .unwrap()
    }

    #[test]
    fn duplicate_names_rejected() {
        let r = Schema::new(vec![
            Field::new("x", DataType::U32),
            Field::new("x", DataType::U32),
        ]);
        assert!(r.is_err());
    }

    #[test]
    fn index_and_lookup() {
        let s = abc();
        assert_eq!(s.width(), 3);
        assert_eq!(s.index_of("b").unwrap(), 1);
        assert!(s.index_of("z").is_err());
        assert_eq!(s.field("c").unwrap().data_type, DataType::Str);
        assert_eq!(s.field_at(0).unwrap().name, "a");
        assert!(s.field_at(3).is_err());
    }

    #[test]
    fn projection_preserves_order_given() {
        let s = abc();
        let p = s.project(&["c", "a"]).unwrap();
        assert_eq!(p.width(), 2);
        assert_eq!(p.field_at(0).unwrap().name, "c");
        assert_eq!(p.field_at(1).unwrap().name, "a");
    }

    #[test]
    fn join_qualifies_clashes() {
        let left = abc();
        let right = Schema::new(vec![
            Field::new("a", DataType::U32),
            Field::new("d", DataType::U64),
        ])
        .unwrap();
        let j = left.join(&right, "r").unwrap();
        assert_eq!(j.width(), 5);
        assert!(j.index_of("r.a").is_ok());
        assert!(j.index_of("d").is_ok());
    }

    #[test]
    fn display() {
        assert_eq!(abc().to_string(), "(a: u32, b: f64, c: str)");
        assert_eq!(Schema::empty().to_string(), "()");
    }
}
