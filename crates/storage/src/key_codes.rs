//! Dense, order-preserving codes for a sparse `u32` key column.
//!
//! §2.1 of the paper: a static perfect hash "is only applicable if the key
//! domain of the grouping key is (relatively) dense", and dictionary codes
//! are its natural candidate. [`KeyCodes`] gives an unsorted sparse `u32`
//! column the same. `codes[i]` is the rank of row `i`'s key among the
//! column's distinct keys, and `keys` holds those keys ascending. So the
//! codes are dense over `[0, distinct)` and keep the keys' order: SPHG over
//! the codes, decoded through `keys`, emits what SPHG over the keys would —
//! the same groups, in ascending key order. A key → dense-code map is an
//! algorithmic component materialised ahead of the query, as §3's views
//! are; the catalog keeps one per column that [`KeyCodes::qualifies`].
//!
//! This module is the one place that knows the format: build
//! ([`KeyCodes::derive`], [`KeyCodes::build`]), fold a delta in
//! ([`KeyCodes::fold`]) and decode ([`KeyCodes::decode`]).

use crate::properties::{DataProps, FirstSeen, MIN_RUN};
use crate::values::Values;
use dqo_hashtable::{first_seen, GroupTable};

/// Order-preserving dense codes of one `u32` column (see the module docs).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KeyCodes {
    /// Per row: the rank of its key in `keys`. Append-only like a
    /// column's buffer, so an append of known keys extends it in place.
    codes: Values<u32>,
    /// The column's distinct keys, ascending.
    keys: Values<u32>,
}

impl KeyCodes {
    /// Whether a column with these exact statistics is worth coding: it is
    /// unsorted (a sorted key is grouped by its order), not dense (a dense
    /// key is its own code) and each key repeats at least [`MIN_RUN`] times
    /// on average, so the codes cost a fraction of the column's distinct
    /// keys' worth of hashing on every later grouping.
    pub fn qualifies(props: &DataProps) -> bool {
        !props.sortedness.is_sorted()
            && !props.density.is_dense()
            && props.distinct.saturating_mul(MIN_RUN) <= props.rows
    }

    /// Exact statistics of `data`, and its codes when they
    /// [qualify](KeyCodes::qualifies) — with one hashing pass at most: a
    /// column whose distinct count came from a first-seen numbering is
    /// coded from that numbering.
    pub fn derive(data: &[u32]) -> (DataProps, Option<KeyCodes>) {
        let (props, numbered) = DataProps::compute_numbered(data);
        let codes = KeyCodes::qualifies(&props)
            .then(|| KeyCodes::ranked(numbered.unwrap_or_else(|| first_seen(data))));
        (props, codes)
    }

    /// The codes of `data`, whatever its statistics: one first-seen pass
    /// and a rank remap.
    pub fn build(data: &[u32]) -> KeyCodes {
        KeyCodes::ranked(first_seen(data))
    }

    /// Turn first-seen numbers into ranks: sort the distinct keys, then
    /// map each row's number to its key's position.
    fn ranked((map, ids): FirstSeen) -> KeyCodes {
        let mut seen = map.drain();
        seen.sort_unstable();
        let mut rank = vec![0u32; seen.len()];
        for (r, &(_, id)) in (0u32..).zip(&seen) {
            rank[id as usize] = r;
        }
        let mut codes = ids;
        for c in &mut codes {
            *c = rank[*c as usize];
        }
        KeyCodes {
            codes: codes.into(),
            keys: seen.into_iter().map(|(key, _)| key).collect(),
        }
    }

    /// The codes of this column after it gained `delta`'s rows while its
    /// own rows kept their relative order: delta row `j` lands right after
    /// the first `at[j]` old rows, or after all of them when `at` is
    /// `None` (an append). When every delta key is already known, an
    /// append extends the old codes (in place when they are their
    /// buffer's tip) and a merge copies them with the delta's spliced in;
    /// a new key shifts the ranks above it, so the old codes are remapped
    /// in the same pass.
    pub fn fold(&self, delta: &[u32], at: Option<&[usize]>) -> KeyCodes {
        let mut fresh: Vec<u32> = delta
            .iter()
            .copied()
            .filter(|k| self.keys.binary_search(k).is_err())
            .collect();
        fresh.sort_unstable();
        fresh.dedup();
        // `remap[c]`: the new code of old code `c`, when any key is new.
        let (keys, remap) = if fresh.is_empty() {
            (self.keys.clone(), None)
        } else {
            let mut keys = Vec::with_capacity(self.keys.len() + fresh.len());
            let mut remap = Vec::with_capacity(self.keys.len());
            let mut new = fresh.iter().peekable();
            for &key in self.keys.iter() {
                while let Some(k) = new.next_if(|&&k| k < key) {
                    keys.push(*k);
                }
                remap.push(keys.len() as u32);
                keys.push(key);
            }
            keys.extend(new);
            (Values::from(keys), Some(remap))
        };
        let code = |k: &u32| keys.binary_search(k).expect("every delta key is known") as u32;
        let added: Vec<u32> = delta.iter().map(code).collect();
        if remap.is_none() && at.is_none() {
            return KeyCodes {
                codes: self.codes.extended(&added),
                keys,
            };
        }
        let mut codes = Vec::with_capacity(self.codes.len() + added.len());
        let old = |range: std::ops::Range<usize>, codes: &mut Vec<u32>| match &remap {
            None => codes.extend_from_slice(&self.codes[range]),
            Some(remap) => codes.extend(self.codes[range].iter().map(|&c| remap[c as usize])),
        };
        match at {
            None => {
                old(0..self.codes.len(), &mut codes);
                codes.extend_from_slice(&added);
            }
            Some(at) => {
                let mut done = 0;
                for (&p, &c) in at.iter().zip(&added) {
                    old(done..p, &mut codes);
                    codes.push(c);
                    done = p;
                }
                old(done..self.codes.len(), &mut codes);
            }
        }
        KeyCodes {
            codes: codes.into(),
            keys,
        }
    }

    /// The codes of the column gathered at `rows`, in that order: the same
    /// keys, so the same codes.
    pub fn gather(&self, rows: &[u32]) -> KeyCodes {
        KeyCodes {
            codes: rows.iter().map(|&r| self.codes[r as usize]).collect(),
            keys: self.keys.clone(),
        }
    }

    /// Per row, the code of its key.
    pub fn codes(&self) -> &[u32] {
        &self.codes
    }

    /// The distinct keys, ascending: code `c` stands for `keys()[c]`.
    pub fn keys(&self) -> &[u32] {
        &self.keys
    }

    /// The code domain `[0, distinct - 1]` — what SPHG over the codes
    /// allocates.
    pub fn domain(&self) -> (u32, u32) {
        (0, self.keys.len().saturating_sub(1) as u32)
    }

    /// Replace each code in `codes` by its key.
    pub fn decode(&self, codes: &mut [u32]) {
        for c in codes {
            *c = self.keys[*c as usize];
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The codes a from-scratch build gives, checked against their
    /// definition: each row's key is its code's key, and the keys ascend.
    fn exact(data: &[u32]) -> KeyCodes {
        let codes = KeyCodes::build(data);
        let mut keys = data.to_vec();
        keys.sort_unstable();
        keys.dedup();
        assert_eq!(codes.keys(), &keys[..]);
        let mut decoded = codes.codes().to_vec();
        codes.decode(&mut decoded);
        assert_eq!(decoded, data);
        codes
    }

    #[test]
    fn codes_are_ranks_of_the_keys() {
        let data = [900, 7, u32::MAX, 7, 0, 900];
        let codes = exact(&data);
        assert_eq!(codes.codes(), &[2, 1, 3, 1, 0, 2]);
        assert_eq!(codes.domain(), (0, 3));
        assert_eq!(exact(&[]).domain(), (0, 0));
    }

    #[test]
    fn only_unsorted_sparse_keys_that_repeat_qualify() {
        let repeated = |keys: &[u32]| -> Vec<u32> { keys.repeat(MIN_RUN as usize) };
        let coded = |data: &[u32]| KeyCodes::derive(data).1.is_some();
        assert!(coded(&repeated(&[50, 10, 4_000_000_000])));
        assert!(!coded(&repeated(&[3, 1, 2])), "dense");
        let mut sorted = repeated(&[50, 10, 4_000_000_000]);
        sorted.sort_unstable();
        assert!(!coded(&sorted), "sorted");
        let mut sparse = repeated(&[50, 10, 4_000_000_000]);
        sparse.push(77);
        assert!(!coded(&sparse), "repeats fewer than MIN_RUN times");
        // Both distinct-count paths code the same way.
        let narrow = repeated(&[50, 10, 900]);
        assert_eq!(KeyCodes::derive(&narrow).1, Some(exact(&narrow)));
        let wide = repeated(&[50, 10, 4_000_000_000]);
        assert_eq!(KeyCodes::derive(&wide).1, Some(exact(&wide)));
        assert_eq!(KeyCodes::derive(&wide).0, DataProps::compute(&wide));
    }

    #[test]
    fn fold_equals_a_rebuild() {
        let old = [40, 10, 40, 30, 10];
        let codes = KeyCodes::build(&old);
        let cases: [(&[u32], Option<&[usize]>); 7] = [
            (&[], None),
            (&[10, 30], None),
            (&[20], None),
            (&[50, 0, 50], None),
            (&[u32::MAX, 10], None),
            (&[5, 30, 45], Some(&[0, 2, 5])),
            (&[45, 45], Some(&[3, 3])),
        ];
        for (delta, at) in cases {
            let whole = match at {
                None => [&old[..], delta].concat(),
                Some(at) => {
                    let mut whole = Vec::new();
                    let mut done = 0;
                    for (&p, &k) in at.iter().zip(delta) {
                        whole.extend_from_slice(&old[done..p]);
                        whole.push(k);
                        done = p;
                    }
                    whole.extend_from_slice(&old[done..]);
                    whole
                }
            };
            assert_eq!(codes.fold(delta, at), exact(&whole), "{delta:?} at {at:?}");
        }
        // Appends of known keys extend the codes' buffer from its tip; a
        // second append to the same snapshot copies.
        let first = codes.fold(&[10], None);
        let tip = first.fold(&[30, 40], None);
        assert!(tip.codes.shares_buffer(&first.codes));
        assert!(tip.keys.shares_buffer(&codes.keys));
        assert_eq!(tip, exact(&[40, 10, 40, 30, 10, 10, 30, 40]));
        let other = first.fold(&[40], None);
        assert!(!other.codes.shares_buffer(&first.codes));
        assert_eq!(other, exact(&[40, 10, 40, 30, 10, 10, 40]));
        assert_eq!(first, exact(&[40, 10, 40, 30, 10, 10]));
    }
}
