//! Error type for the optimiser and executor.

use dqo_exec::ExecError;
use dqo_storage::StorageError;
use std::fmt;

/// Errors produced by the DQO core.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CoreError {
    /// A referenced table is not registered in the catalog.
    UnknownTable(String),
    /// A referenced column could not be resolved in the plan's scope.
    UnknownColumn(String),
    /// The optimiser found no plan satisfying all constraints.
    NoPlanFound(String),
    /// The plan references features the executor does not support.
    Unsupported(String),
    /// Underlying storage error.
    Storage(StorageError),
    /// Underlying execution error.
    Exec(ExecError),
    /// An AV operation failed (missing view, budget exceeded, …).
    Av(String),
    /// A table changed after the snapshot new rows were derived from, so
    /// swapping them in would undo that change (see
    /// [`Catalog::replace_data`](crate::Catalog::replace_data)).
    TableChanged(String),
}

impl fmt::Display for CoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CoreError::UnknownTable(t) => write!(f, "unknown table: {t}"),
            CoreError::UnknownColumn(c) => write!(f, "unknown column: {c}"),
            CoreError::NoPlanFound(q) => write!(f, "no plan found for query: {q}"),
            CoreError::Unsupported(msg) => write!(f, "unsupported: {msg}"),
            CoreError::Storage(e) => write!(f, "storage error: {e}"),
            CoreError::Exec(e) => write!(f, "execution error: {e}"),
            CoreError::Av(msg) => write!(f, "algorithmic view error: {msg}"),
            CoreError::TableChanged(t) => {
                write!(
                    f,
                    "table {t} changed since the snapshot the new rows extend"
                )
            }
        }
    }
}

impl std::error::Error for CoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CoreError::Storage(e) => Some(e),
            CoreError::Exec(e) => Some(e),
            _ => None,
        }
    }
}

impl From<StorageError> for CoreError {
    fn from(e: StorageError) -> Self {
        CoreError::Storage(e)
    }
}

impl From<ExecError> for CoreError {
    fn from(e: ExecError) -> Self {
        CoreError::Exec(e)
    }
}

impl From<dqo_parallel::PoolError> for CoreError {
    fn from(e: dqo_parallel::PoolError) -> Self {
        CoreError::Exec(e.into())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_conversion() {
        let e: CoreError = StorageError::UnknownColumn("x".into()).into();
        assert!(e.to_string().contains("storage error"));
        let e = CoreError::NoPlanFound("q".into());
        assert!(e.to_string().contains("no plan found"));
    }

    #[test]
    fn source_chain() {
        use std::error::Error;
        let e: CoreError = ExecError::MissingInput("keys".into()).into();
        assert!(e.source().is_some());
        assert!(CoreError::UnknownTable("t".into()).source().is_none());
    }
}
