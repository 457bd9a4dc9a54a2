//! The [`GroupTable`] abstraction: the narrow interface grouping operators
//! need from any key→state table, making the table implementation a
//! swappable DQO sub-component.

/// A mutable table from `u32` keys to per-group state `V`.
///
/// This is the contract hash-based grouping needs: *upsert* (find the
/// state for a key, creating it on first sight) plus draining iteration.
pub trait GroupTable<V> {
    /// Find the state for `key`, inserting `V::default()`-like state via
    /// `init` on first occurrence, and return a mutable reference to it.
    fn upsert_with(&mut self, key: u32, init: impl FnOnce() -> V) -> &mut V;

    /// Read-only lookup.
    fn get(&self, key: u32) -> Option<&V>;

    /// Number of distinct keys present.
    fn len(&self) -> usize;

    /// True if no keys present.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Consume the table, yielding `(key, state)` pairs.
    ///
    /// Iteration order is implementation-defined — the paper's point (§2.1):
    /// *"If we do not know exactly which order is produced by a blackbox
    /// hash table, we have to assume that the data is unordered"*. The
    /// open-addressing tables drain in first-seen order (their states are
    /// one array indexed by group id); chaining drains in bucket order.
    fn drain(self) -> Vec<(u32, V)>;
}
