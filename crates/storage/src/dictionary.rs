//! Dictionary compression.
//!
//! §2.1 of the paper: *"the keys of a dictionary-compressed column are a
//! natural candidate [for a dense domain] and can directly be used for
//! SPH"*. A [`Dictionary`] maps distinct strings to dense `u32` codes
//! `0..n`, so a dictionary-encoded column always has a **dense** key domain
//! starting at 0 — the ideal input for static-perfect-hash grouping.

use crate::error::StorageError;
use crate::Result;
use std::collections::HashMap;

/// An order-of-insertion string dictionary with dense `u32` codes.
#[derive(Debug, Clone, Default)]
pub struct Dictionary {
    values: Vec<String>,
    index: HashMap<String, u32>,
}

impl Dictionary {
    /// An empty dictionary.
    pub fn new() -> Self {
        Dictionary::default()
    }

    /// Build a dictionary (and the coded column) from raw strings in one
    /// pass. Codes are assigned in first-occurrence order.
    pub fn encode_all<S: AsRef<str>>(raw: &[S]) -> (Dictionary, Vec<u32>) {
        let mut dict = Dictionary::new();
        let codes = raw.iter().map(|s| dict.encode(s.as_ref())).collect();
        (dict, codes)
    }

    /// Build an **order-preserving** dictionary: codes are assigned in
    /// lexicographic string order, so `code(a) < code(b) ⇔ a < b`. This is
    /// the encoding under which comparison predicates (`<`, `>`, …) on
    /// string columns reduce to `u32` comparisons on the codes — and the
    /// code domain is still dense over `[0, n)`.
    pub fn encode_all_sorted<S: AsRef<str>>(raw: &[S]) -> (Dictionary, Vec<u32>) {
        let mut distinct: Vec<&str> = raw.iter().map(AsRef::as_ref).collect();
        distinct.sort_unstable();
        distinct.dedup();
        let mut dict = Dictionary::new();
        for s in &distinct {
            dict.encode(s);
        }
        let codes = raw
            .iter()
            .map(|s| dict.lookup(s.as_ref()).expect("all values inserted"))
            .collect();
        (dict, codes)
    }

    /// True if code order equals string order (the dictionary's values are
    /// lexicographically ascending). Always holds for
    /// [`Dictionary::encode_all_sorted`]; generally not for
    /// [`Dictionary::encode_all`].
    pub fn is_order_preserving(&self) -> bool {
        self.values.windows(2).all(|w| w[0] < w[1])
    }

    /// Evaluate a string predicate once per **code** instead of once per
    /// row: `table[code]` holds `pred(decode(code))`. Row-level predicate
    /// evaluation over a dictionary column is then a table lookup — O(dict)
    /// string work regardless of the row count.
    pub fn match_table(&self, pred: impl Fn(&str) -> bool) -> Vec<bool> {
        self.values.iter().map(|s| pred(s)).collect()
    }

    /// Code for `s`, inserting it if new.
    pub fn encode(&mut self, s: &str) -> u32 {
        if let Some(&code) = self.index.get(s) {
            return code;
        }
        let code = u32::try_from(self.values.len()).expect("dictionary exceeds u32 codes");
        self.values.push(s.to_owned());
        self.index.insert(s.to_owned(), code);
        code
    }

    /// Code for `s` if already present.
    pub fn lookup(&self, s: &str) -> Option<u32> {
        self.index.get(s).copied()
    }

    /// Decode a code back to its string.
    pub fn decode(&self, code: u32) -> Result<&str> {
        self.values
            .get(code as usize)
            .map(String::as_str)
            .ok_or(StorageError::UnknownDictionaryCode(code))
    }

    /// Number of distinct entries.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// True if no entries.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Rebuild the lookup index (needed after deserialisation, since the
    /// reverse index is not serialised).
    pub fn rebuild_index(&mut self) {
        self.index = self
            .values
            .iter()
            .enumerate()
            .map(|(i, s)| (s.clone(), i as u32))
            .collect();
    }

    /// Codes of a dictionary are dense over `[0, len)` by construction; this
    /// is the invariant DQO exploits. Exposed for assertions.
    pub fn code_domain(&self) -> std::ops::Range<u32> {
        0..self.values.len() as u32
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn encode_assigns_dense_codes_in_first_occurrence_order() {
        let (dict, codes) = Dictionary::encode_all(&["b", "a", "b", "c", "a"]);
        assert_eq!(codes, vec![0, 1, 0, 2, 1]);
        assert_eq!(dict.len(), 3);
        assert_eq!(dict.decode(0).unwrap(), "b");
        assert_eq!(dict.decode(1).unwrap(), "a");
        assert_eq!(dict.decode(2).unwrap(), "c");
    }

    #[test]
    fn lookup_and_missing_decode() {
        let (dict, _) = Dictionary::encode_all(&["x"]);
        assert_eq!(dict.lookup("x"), Some(0));
        assert_eq!(dict.lookup("y"), None);
        assert!(matches!(
            dict.decode(5),
            Err(StorageError::UnknownDictionaryCode(5))
        ));
    }

    #[test]
    fn code_domain_is_dense() {
        let (dict, codes) = Dictionary::encode_all(&["p", "q", "r"]);
        let domain = dict.code_domain();
        assert_eq!(domain, 0..3);
        assert!(codes.iter().all(|c| domain.contains(c)));
    }

    #[test]
    fn empty_dictionary() {
        let d = Dictionary::new();
        assert!(d.is_empty());
        assert_eq!(d.len(), 0);
        assert_eq!(d.code_domain(), 0..0);
    }

    #[test]
    fn encode_all_sorted_preserves_order() {
        let (dict, codes) = Dictionary::encode_all_sorted(&["pear", "apple", "pear", "fig"]);
        assert_eq!(dict.len(), 3);
        assert!(dict.is_order_preserving());
        assert_eq!(dict.decode(0).unwrap(), "apple");
        assert_eq!(dict.decode(1).unwrap(), "fig");
        assert_eq!(dict.decode(2).unwrap(), "pear");
        assert_eq!(codes, vec![2, 0, 2, 1]);
        // First-occurrence encoding of the same data is NOT order-preserving.
        let (fo, _) = Dictionary::encode_all(&["pear", "apple", "fig"]);
        assert!(!fo.is_order_preserving());
    }

    #[test]
    fn match_table_evaluates_per_code() {
        let (dict, _) = Dictionary::encode_all(&["banana", "apple", "blueberry"]);
        let table = dict.match_table(|s| s.starts_with('b'));
        assert_eq!(table, vec![true, false, true]);
    }

    #[test]
    fn rebuild_index_restores_lookup() {
        let (mut dict, _) = Dictionary::encode_all(&["m", "n"]);
        dict.index.clear(); // simulate post-deserialisation state
        assert_eq!(dict.lookup("m"), None);
        dict.rebuild_index();
        assert_eq!(dict.lookup("m"), Some(0));
        assert_eq!(dict.lookup("n"), Some(1));
    }
}
