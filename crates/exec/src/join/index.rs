//! The join index HJ and SPHJ share — the join twins of HG and SPHG.
//!
//! A [`JoinIndex`] maps a build key to its *postings*: the positions in the
//! index that hold the build rows with that key, in ascending row order.
//! It has two parts:
//!
//! * A **slot map** from a key to a dense slot:
//!   * *identity* — slot `key - min` over a dense build domain (SPHJ,
//!     §2.1). Each probe is one subtraction: `|R| + |S|` abstract
//!     operations, the plan DQO unlocks by tracking density, worth the 4×
//!     of Figure 5.
//!   * *hashed* — a linear-probing table under Fibonacci hashing that
//!     numbers the distinct build keys in first-seen order (HJ). Table 2
//!     charges `4·(|R|+|S|)`, mirroring HG's `4·|R|`.
//! * A **row layout** over the slots, which the build keys pick:
//!   * *unique* — no two build rows share a slot (a primary key): one
//!     array holds each slot's build row, or an empty marker, and a key's
//!     one posting is its slot. One fill pass, nothing else. When every
//!     slot holds a row — a dense primary key, and every hashed unique
//!     index — a probe finds its posting without reading the array.
//!   * *CSR* — some key repeats: a compressed-sparse-row layout, offsets
//!     per slot into the build rows grouped by slot (one count pass, one
//!     fill pass); a key's postings are the offsets of its rows. A patched
//!     identity index keeps the rows appended to its build side in a
//!     second, small CSR over the same slots — the *tail*, whose postings
//!     follow the main CSR's — and shares its main CSR with the index it
//!     was patched from (see [`JoinIndex::patch`]).
//!
//! A build fills the unique array first and falls back to CSR at the first
//! repeat. [`JoinIndex::matches`] answers a probe key with its postings
//! under either slot map and either layout, so probing never looks at
//! which one it got; [`JoinIndex::row`] names the build row at each.
//! A reader that holds a build column gathered into posting order
//! ([`JoinIndex::posting_rows`]) reads it at a match's postings directly —
//! one access per pair, where reading the build row first makes two
//! dependent ones. Over a unique index, [`JoinIndex::with_posting`] hands
//! a loop the key-to-posting map itself, one closure type per slot map,
//! so a probe can fold each match where it finds it.

use crate::error::ExecError;
use crate::join::JoinResult;
use crate::Result;
use dqo_hashtable::{first_seen, Fibonacci, GroupTable, LinearProbingTable};
use std::ops::Range;
use std::sync::Arc;

/// A prebuilt join index: it maps each build key to the postings of the
/// build rows holding it, in ascending row order.
///
/// Building this once and probing many times is exactly what an
/// *Algorithmic View* (§3) materialises offline — `dqo-core`'s AV catalog
/// stores identity-mapped ones, and its catalog memoises the index a join
/// builds over a whole table beside that table's rows, with the build
/// columns the queries read carried into posting order.
///
/// Two indexes are equal when they map keys to slots alike, have the same
/// layout kind and give every slot the same rows in the same order —
/// however those rows are split between a CSR's main part and its tail.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JoinIndex {
    slots: SlotMap,
    layout: Layout,
}

/// A loop over a unique index's postings (see
/// [`JoinIndex::with_posting`]). `run` is generic over the map, so the
/// loop is compiled once per slot map and no row branches on which one
/// it got — the way [`crate::grouping::hg::WithTable`] compiles a loop
/// once per table molecule.
pub trait WithPosting {
    /// What the loop returns.
    type Out;
    /// Run the loop with `posting`, the map from a probe key to its one
    /// posting.
    fn run(self, posting: impl Fn(u32) -> Option<u32> + Copy) -> Self::Out;
}

/// How a [`JoinIndex`] finds a key's slot.
#[derive(Debug, Clone, PartialEq, Eq)]
enum SlotMap {
    /// Slot `key - min`; a key outside the layout's slots has none.
    Identity { min: u32 },
    /// Slot ids of the distinct build keys in first-seen order.
    Hashed(LinearProbingTable<u32, Fibonacci>),
}

/// How a [`JoinIndex`] stores its slots; which one is a function of the
/// build keys alone, so equal key columns give equal indexes.
#[derive(Debug, Clone)]
enum Layout {
    /// No slot holds two rows: slot `g` holds its build row, or [`EMPTY`];
    /// `full` when no slot is empty.
    Unique { rows: Vec<u32>, full: bool },
    /// Slot `g` owns its rows in `main`, then its rows in `tail`. A build
    /// has no tail; a patch shares `main` with the index it patched and
    /// rebuilds only the tail, until the tail outgrows [`tail_bound`] and
    /// merges into a new `main`.
    Csr { main: Arc<Csr>, tail: Option<Csr> },
}

/// A compressed-sparse-row layout: slot `g` owns
/// `rows[offsets[g]..offsets[g + 1]]`.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Csr {
    offsets: Vec<u32>,
    rows: Vec<u32>,
}

/// The unique layout's marker for a slot no build row holds (row ids stay
/// below it).
const EMPTY: u32 = u32::MAX;

impl JoinIndex {
    /// The SPHJ index: an identity slot map over the dense domain
    /// `[min, max]`, in the unique layout when every key is distinct, CSR
    /// otherwise. A key outside the domain is an error.
    pub fn identity(left_keys: &[u32], min: u32, max: u32) -> Result<Self> {
        let domain = domain_of(min, max)?;
        let layout = Layout::build(left_keys, domain, |k| slot(k, min, domain))
            .map_err(|k| domain_violation(k, min, max))?;
        Ok(Self::over(min, layout))
    }

    /// The HJ index: a hashed slot map over any build keys. Its slots are
    /// the distinct keys in first-seen order, laid out like an identity
    /// index over the keys' slot ids.
    pub fn hashed(left_keys: &[u32]) -> Self {
        let (map, ids) = first_seen(left_keys);
        let layout = Layout::build(&ids, map.len(), |id| Some(id as usize))
            .expect("every slot id is below the slot count");
        JoinIndex {
            slots: SlotMap::Hashed(map),
            layout,
        }
    }

    fn over(min: u32, layout: Layout) -> Self {
        JoinIndex {
            slots: SlotMap::Identity { min },
            layout,
        }
    }

    /// True when no two build rows share a key (the unique layout).
    pub fn is_unique(&self) -> bool {
        matches!(self.layout, Layout::Unique { .. })
    }

    /// The postings of the build rows holding `key`, in ascending row
    /// order, as two runs: the main layout's, then a patched CSR's tail's
    /// (empty unless patched). Both are empty for a key no build row holds
    /// (no FK guarantee assumed). [`JoinIndex::row`] names the row at
    /// each.
    #[inline]
    pub fn matches(&self, key: u32) -> [Range<u32>; 2] {
        self.layout.positions(match &self.slots {
            SlotMap::Identity { min } => slot(key, *min, self.layout.domain()),
            SlotMap::Hashed(map) => map.get(key).map(|&id| id as usize),
        })
    }

    /// The build row at posting `p`.
    #[inline]
    pub fn row(&self, p: u32) -> u32 {
        self.layout.row(p)
    }

    /// Run `with` on a unique index's map from a probe key to its one
    /// posting, or `None` for a key no build row holds — the identity
    /// map's (a key outside the domain, or on an empty slot, has none) or
    /// the hashed map's. A CSR index, whose keys own runs of postings,
    /// returns `None` without running it.
    pub fn with_posting<W: WithPosting>(&self, with: W) -> Option<W::Out> {
        let Layout::Unique { rows, full } = &self.layout else {
            return None;
        };
        Some(match &self.slots {
            &SlotMap::Identity { min } => {
                let (rows, full) = (&rows[..], *full);
                with.run(move |key: u32| {
                    let off = key.wrapping_sub(min) as usize;
                    (off < rows.len() && (full || rows[off] != EMPTY)).then_some(off as u32)
                })
            }
            // Every hashed unique index is full: a key's slot id is its
            // posting.
            SlotMap::Hashed(map) => with.run(|key: u32| map.get(key).copied()),
        })
    }

    /// The build row at every posting, in order — the gather order of a
    /// build column carried into posting order. An empty slot of the
    /// unique layout reads row 0, which no match names.
    pub fn posting_rows(&self) -> Vec<u32> {
        let [main, tail] = self.layout.postings();
        let fill = |&row: &u32| if row == EMPTY { 0 } else { row };
        main.iter().chain(tail).map(fill).collect()
    }

    /// Probe with the right-side keys: pairs in probe order, each probe
    /// key's build rows ascending.
    pub fn probe(&self, right_keys: &[u32]) -> JoinResult {
        // One loop per slot map, so no row branches on which one it is.
        match &self.slots {
            &SlotMap::Identity { min } => {
                let domain = self.layout.domain();
                self.probe_by(right_keys, move |k| slot(k, min, domain))
            }
            SlotMap::Hashed(map) => {
                self.probe_by(right_keys, |k| map.get(k).map(|&id| id as usize))
            }
        }
    }

    fn probe_by(&self, right_keys: &[u32], slot_of: impl Fn(u32) -> Option<usize>) -> JoinResult {
        let mut left_rows = Vec::with_capacity(right_keys.len());
        let mut right_rows = Vec::with_capacity(right_keys.len());
        // One loop per layout too: the unique one emits at most one pair
        // per probe key, with no inner loop.
        match &self.layout {
            Layout::Unique { rows, .. } => {
                for (j, &k) in right_keys.iter().enumerate() {
                    if let Some(&li) = slot_of(k).map(|off| &rows[off]) {
                        if li != EMPTY {
                            left_rows.push(li);
                            right_rows.push(j as u32);
                        }
                    }
                }
            }
            Layout::Csr { .. } => {
                for (j, &k) in right_keys.iter().enumerate() {
                    for run in self.layout.positions(slot_of(k)) {
                        for p in run {
                            left_rows.push(self.row(p));
                            right_rows.push(j as u32);
                        }
                    }
                }
            }
        }
        JoinResult {
            left_rows,
            right_rows,
            // Output follows probe order; key-sortedness would require a
            // sorted probe side, which the optimiser tracks separately.
            sorted_by_key: false,
        }
    }

    /// Heap footprint of the row layout in bytes (AV budget accounting;
    /// an identity slot map holds nothing on the heap).
    pub fn byte_size(&self) -> usize {
        match &self.layout {
            Layout::Unique { rows, .. } => std::mem::size_of_val(&rows[..]),
            Layout::Csr { main, tail } => {
                main.byte_size() + tail.as_ref().map_or(0, Csr::byte_size)
            }
        }
    }

    /// Bytes of this index's row layout that it does not share with
    /// `other` — what patching `other` into it wrote: a patch that kept
    /// the main CSR wrote only its tail.
    pub fn bytes_not_shared_with(&self, other: &JoinIndex) -> usize {
        match (&self.layout, &other.layout) {
            (Layout::Csr { main, tail }, Layout::Csr { main: theirs, .. })
                if Arc::ptr_eq(main, theirs) =>
            {
                tail.as_ref().map_or(0, Csr::byte_size)
            }
            _ => self.byte_size(),
        }
    }

    /// Incrementally extend an identity-mapped index with `delta_keys`,
    /// the keys of rows appended to the build side starting at row id
    /// `first_row`. The domain is fixed at build time: a delta key outside
    /// `[min, min + domain)` is an error, and the caller falls back to a
    /// full rebuild (the append may have widened the dense domain). A
    /// hashed index is never patched, only rebuilt.
    ///
    /// The result equals [`JoinIndex::identity`]`(base ++ delta, min,
    /// max)`: the same layout kind and, per slot, the same rows in the
    /// same order. A unique index stays unique (one copy of its slot
    /// array) while the delta keys land in distinct empty slots — exactly
    /// when `base ++ delta` has no duplicate — and becomes CSR otherwise.
    /// A CSR index shares its main CSR with `self` and puts the delta's
    /// rows in its tail CSR, which is rebuilt at O(domain + tail) per
    /// patch and merged into a new main once it holds more than
    /// √(main rows) rows — a cost no median append pays. Per slot, the
    /// build fills postings in ascending scan order, and every old row id
    /// is smaller than every appended one, so "main postings, then tail
    /// postings" *is* the from-scratch order.
    pub fn patch(&self, delta_keys: &[u32], first_row: u32) -> Result<Self> {
        let SlotMap::Identity { min } = self.slots else {
            return Err(ExecError::PreconditionViolated {
                algorithm: "HJ",
                detail: "a hashed join index is rebuilt, not patched".into(),
            });
        };
        let domain = self.layout.domain();
        let max = min + (domain as u32 - 1);
        // Validate the domain up front, before any allocation proportional
        // to the data.
        if let Some(&k) = delta_keys.iter().find(|&&k| slot(k, min, domain).is_none()) {
            return Err(domain_violation(k, min, max));
        }
        let slot_of = |k: u32| slot(k, min, domain);
        let delta = || Csr::build(delta_keys, domain, slot_of, first_row).expect("validated above");
        let layout = match &self.layout {
            Layout::Unique { rows, full } => {
                let mut patched = rows.clone();
                // Stops at the first delta key whose slot is taken.
                let fits = delta_keys.iter().zip(first_row..).all(|(&k, row)| {
                    let at = slot_of(k).expect("validated above");
                    std::mem::replace(&mut patched[at], row) == EMPTY
                });
                if fits {
                    let full = *full || !patched.contains(&EMPTY);
                    Layout::Unique {
                        rows: patched,
                        full,
                    }
                } else {
                    let main = Csr::of_unique(rows).then(&delta());
                    Layout::Csr {
                        main: Arc::new(main),
                        tail: None,
                    }
                }
            }
            Layout::Csr { main, tail } => {
                let tail = match tail {
                    Some(tail) => tail.then(&delta()),
                    None => delta(),
                };
                if tail.rows.len() > tail_bound(main.rows.len()) {
                    Layout::Csr {
                        main: Arc::new(main.then(&tail)),
                        tail: None,
                    }
                } else {
                    Layout::Csr {
                        main: Arc::clone(main),
                        tail: Some(tail),
                    }
                }
            }
        };
        Ok(Self::over(min, layout))
    }
}

/// How many rows a CSR index's tail may hold before a patch merges it
/// into the main CSR: the square root of the main's rows. A patch then
/// costs O(domain + √rows), and the O(rows) merge comes once per √rows
/// appended rows.
fn tail_bound(main_rows: usize) -> usize {
    main_rows.isqrt()
}

impl Layout {
    /// The layout of build rows whose slots `slot` gives among `domain`
    /// slots: unique, or CSR from the first repeat on. A key with no slot
    /// is returned as the error.
    fn build(
        keys: &[u32],
        domain: usize,
        slot: impl Fn(u32) -> Option<usize>,
    ) -> std::result::Result<Self, u32> {
        match Self::unique(keys, domain, &slot)? {
            Some(layout) => Ok(layout),
            None => Self::csr(keys, domain, &slot),
        }
    }

    /// The unique layout, or `None` at the first slot that repeats.
    fn unique(
        keys: &[u32],
        domain: usize,
        slot: impl Fn(u32) -> Option<usize>,
    ) -> std::result::Result<Option<Self>, u32> {
        let mut rows = vec![EMPTY; domain];
        for (i, &k) in keys.iter().enumerate() {
            let off = slot(k).ok_or(k)?;
            if rows[off] != EMPTY {
                return Ok(None);
            }
            rows[off] = i as u32;
        }
        let full = keys.len() == domain;
        Ok(Some(Layout::Unique { rows, full }))
    }

    /// The CSR layout, with no tail.
    fn csr(
        keys: &[u32],
        domain: usize,
        slot: impl Fn(u32) -> Option<usize>,
    ) -> std::result::Result<Self, u32> {
        Ok(Layout::Csr {
            main: Arc::new(Csr::build(keys, domain, slot, 0)?),
            tail: None,
        })
    }

    /// The postings of slot `off`, ascending: those of the main layout,
    /// then those of a CSR's tail, numbered after the main's. None for no
    /// slot.
    #[inline(always)]
    fn positions(&self, off: Option<usize>) -> [Range<u32>; 2] {
        let Some(off) = off else {
            return [0..0, 0..0];
        };
        match self {
            Layout::Unique { rows, full } => match *full || rows[off] != EMPTY {
                true => [off as u32..off as u32 + 1, 0..0],
                false => [0..0, 0..0],
            },
            Layout::Csr { main, tail } => {
                let base = main.rows.len() as u32;
                let tail = tail.as_ref().map_or(0..0, |t| t.span(off));
                [main.span(off), tail.start + base..tail.end + base]
            }
        }
    }

    /// The build row at each posting, as two parts laid end to end: the
    /// main layout's — in the unique layout one entry per slot, [`EMPTY`]
    /// for a slot no row holds, which no match names — then a CSR tail's.
    fn postings(&self) -> [&[u32]; 2] {
        match self {
            Layout::Unique { rows, .. } => [rows, &[]],
            Layout::Csr { main, tail } => [&main.rows, tail.as_ref().map_or(&[], |t| &t.rows)],
        }
    }

    /// The build row at posting `p`.
    #[inline(always)]
    fn row(&self, p: u32) -> u32 {
        let [main, tail] = self.postings();
        match main.get(p as usize) {
            Some(&row) => row,
            None => tail[p as usize - main.len()],
        }
    }

    /// Number of slots.
    fn domain(&self) -> usize {
        match self {
            Layout::Unique { rows, .. } => rows.len(),
            Layout::Csr { main, .. } => main.offsets.len() - 1,
        }
    }
}

impl PartialEq for Layout {
    fn eq(&self, other: &Self) -> bool {
        match (self, other) {
            (Layout::Unique { rows: a, .. }, Layout::Unique { rows: b, .. }) => a == b,
            (Layout::Csr { .. }, Layout::Csr { .. }) => {
                let [ours, theirs] = [self, other].map(|l| {
                    move |g| (l.positions(Some(g)).into_iter().flatten()).map(move |p| l.row(p))
                });
                self.domain() == other.domain() && (0..self.domain()).all(|g| ours(g).eq(theirs(g)))
            }
            _ => false,
        }
    }
}

impl Eq for Layout {}

impl Csr {
    /// The CSR of `keys`, numbered from `first_row`: count pass → prefix
    /// sums → fill, no per-slot allocations. A key with no slot is
    /// returned as the error.
    fn build(
        keys: &[u32],
        domain: usize,
        slot: impl Fn(u32) -> Option<usize>,
        first_row: u32,
    ) -> std::result::Result<Self, u32> {
        let mut offsets = vec![0u32; domain + 1];
        for &k in keys {
            offsets[slot(k).ok_or(k)? + 1] += 1;
        }
        for i in 0..domain {
            offsets[i + 1] += offsets[i];
        }
        let mut rows = vec![0u32; keys.len()];
        let mut cursor = offsets.clone();
        for (row, &k) in (first_row..).zip(keys) {
            let off = slot(k).expect("validated in count pass");
            rows[cursor[off] as usize] = row;
            cursor[off] += 1;
        }
        Ok(Csr { offsets, rows })
    }

    /// The CSR form of a unique layout's slot array: one posting per
    /// occupied slot, in slot order.
    fn of_unique(slots: &[u32]) -> Self {
        let offsets = std::iter::once(0)
            .chain(slots.iter().scan(0u32, |total, &row| {
                *total += u32::from(row != EMPTY);
                Some(*total)
            }))
            .collect();
        let rows = slots.iter().copied().filter(|&r| r != EMPTY).collect();
        Csr { offsets, rows }
    }

    /// Slot by slot, this CSR's rows followed by `more`'s (over the same
    /// slots): one pass over both.
    fn then(&self, more: &Csr) -> Csr {
        let mut offsets = Vec::with_capacity(self.offsets.len());
        let mut rows = Vec::with_capacity(self.rows.len() + more.rows.len());
        offsets.push(0);
        for g in 0..self.offsets.len() - 1 {
            rows.extend_from_slice(self.slot(g));
            rows.extend_from_slice(more.slot(g));
            offsets.push(rows.len() as u32);
        }
        Csr { offsets, rows }
    }

    /// The rows of slot `g`.
    #[inline(always)]
    fn slot(&self, g: usize) -> &[u32] {
        &self.rows[self.offsets[g] as usize..self.offsets[g + 1] as usize]
    }

    /// The postings of slot `g`: where its rows sit in `rows`.
    #[inline(always)]
    fn span(&self, g: usize) -> Range<u32> {
        self.offsets[g]..self.offsets[g + 1]
    }

    fn byte_size(&self) -> usize {
        std::mem::size_of_val(&self.offsets[..]) + std::mem::size_of_val(&self.rows[..])
    }
}

/// The slot count of `[min, max]`; an inverted domain is an error.
fn domain_of(min: u32, max: u32) -> Result<usize> {
    if max < min {
        return Err(ExecError::PreconditionViolated {
            algorithm: "SPHJ",
            detail: format!("empty domain: max ({max}) < min ({min})"),
        });
    }
    Ok((u64::from(max) - u64::from(min) + 1) as usize)
}

#[inline(always)]
fn slot(key: u32, min: u32, domain: usize) -> Option<usize> {
    let off = key.checked_sub(min)? as usize;
    (off < domain).then_some(off)
}

fn domain_violation(key: u32, min: u32, max: u32) -> ExecError {
    ExecError::PreconditionViolated {
        algorithm: "SPHJ",
        detail: format!("build key {key} outside dense domain [{min}, {max}]"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::join::nested_loop_oracle;

    /// The build rows `index` matches `key` with, in order: its postings'
    /// rows.
    fn matched(index: &JoinIndex, key: u32) -> Vec<u32> {
        let rows = index.layout.postings().concat();
        let postings = index.matches(key).into_iter().flatten();
        postings.map(|p| rows[p as usize]).collect()
    }

    /// Both slot maps over `left` (identity over its own min/max), probed
    /// with `right`.
    fn both(left: &[u32], right: &[u32]) -> [JoinResult; 2] {
        let (min, max) = crate::join::min_max(left).unwrap_or((0, 0));
        [
            JoinIndex::identity(left, min, max).unwrap().probe(right),
            JoinIndex::hashed(left).probe(right),
        ]
    }

    #[test]
    fn matches_oracle_with_duplicates() {
        let left = [1u32, 2, 2, 3];
        let right = [2u32, 2, 3, 4];
        for r in both(&left, &right) {
            assert_eq!(r.normalised_pairs(), nested_loop_oracle(&left, &right));
            // 2×2 matches for key 2 plus one for key 3.
            assert_eq!(r.len(), 5);
            assert!(!r.sorted_by_key);
        }
    }

    #[test]
    fn probe_keys_without_build_rows_do_not_match() {
        for r in both(&[1, 2], &[0, 3, 2]) {
            assert_eq!(r.normalised_pairs(), vec![(1, 2)]);
        }
        for r in both(&[1, 2], &[3, 4]) {
            assert!(r.is_empty());
        }
    }

    #[test]
    fn build_key_outside_domain_is_error() {
        let r = JoinIndex::identity(&[5u32], 0, 3);
        assert!(matches!(
            r,
            Err(ExecError::PreconditionViolated {
                algorithm: "SPHJ",
                ..
            })
        ));
    }

    #[test]
    fn offset_domain() {
        let left = [100u32, 101];
        let right = [101u32, 100, 101];
        let r = JoinIndex::identity(&left, 100, 101).unwrap().probe(&right);
        assert_eq!(r.normalised_pairs(), nested_loop_oracle(&left, &right));
    }

    #[test]
    fn inverted_domain_rejected() {
        assert!(JoinIndex::identity(&[1u32], 5, 2).is_err());
    }

    #[test]
    fn pk_fk_join_output_equals_probe_size() {
        let left: Vec<u32> = (0..100).collect();
        let right: Vec<u32> = (0..500).map(|i| (i * 7) % 100).collect();
        for r in both(&left, &right) {
            assert_eq!(r.len(), 500);
        }
    }

    #[test]
    fn index_is_reusable_across_probes() {
        let left: Vec<u32> = (0..100).collect();
        let idx = JoinIndex::identity(&left, 0, 99).unwrap();
        let a = idx.probe(&[5, 5, 99]);
        let b = idx.probe(&[0]);
        assert_eq!(a.len(), 3);
        assert_eq!(b.len(), 1);
    }

    #[test]
    fn patch_is_bit_identical_to_rebuild() {
        // Several shapes: empty base, empty delta, duplicates, all-one-key.
        let cases: &[(&[u32], &[u32], u32, u32)] = &[
            (&[0, 3, 1, 3, 2], &[3, 0, 4, 4], 0, 4),
            (&[], &[2, 2, 1], 0, 4),
            (&[5, 7, 6], &[], 5, 7),
            (&[9, 9, 9], &[9, 9], 9, 9),
            (&[100, 102], &[101, 100, 102], 100, 102),
        ];
        for &(base, delta, min, max) in cases {
            let built = JoinIndex::identity(base, min, max).unwrap();
            let patched = built.patch(delta, base.len() as u32).unwrap();
            let combined: Vec<u32> = base.iter().chain(delta).copied().collect();
            let rebuilt = JoinIndex::identity(&combined, min, max).unwrap();
            assert_eq!(patched, rebuilt, "base={base:?} delta={delta:?}");
        }
    }

    #[test]
    fn csr_patches_fill_a_tail_that_merges_past_its_bound() {
        // 100 rows over 10 slots: the tail holds at most √100 = 10 rows.
        let mut all: Vec<u32> = (0..100).map(|i| i * 7 % 10).collect();
        let mut index = JoinIndex::identity(&all, 0, 9).unwrap();
        assert!(!index.is_unique());
        let mut merges = 0;
        for step in 0..12u32 {
            let delta = [step % 10, step * 3 % 10, 4];
            let patched = index.patch(&delta, all.len() as u32).unwrap();
            all.extend(delta);
            let rebuilt = JoinIndex::identity(&all, 0, 9).unwrap();
            assert_eq!(patched, rebuilt, "step {step}");
            for key in 0..11 {
                assert_eq!(
                    matched(&patched, key),
                    matched(&rebuilt, key),
                    "step {step}"
                );
            }
            let probed = |idx: &JoinIndex| {
                let r = idx.probe(&all);
                (r.left_rows, r.right_rows)
            };
            assert_eq!(probed(&patched), probed(&rebuilt), "step {step}");
            let (Layout::Csr { main, tail }, Layout::Csr { main: before, .. }) =
                (&patched.layout, &index.layout)
            else {
                panic!("a CSR index stays CSR");
            };
            match tail {
                // The main CSR is shared; only the tail was written.
                Some(tail) => {
                    assert!(Arc::ptr_eq(main, before), "step {step}");
                    assert!(tail.rows.len() <= tail_bound(main.rows.len()));
                    assert_eq!(patched.bytes_not_shared_with(&index), tail.byte_size());
                }
                None => {
                    merges += 1;
                    assert_eq!(patched.bytes_not_shared_with(&index), patched.byte_size());
                }
            }
            index = patched;
        }
        assert_eq!(merges, 3, "36 rows through a tail of at most 10");
        // The last patch merged: no tail remains.
        assert_eq!(index.byte_size(), 4 * (11 + 136));
    }

    #[test]
    fn patch_rejects_delta_keys_outside_domain_and_hashed_indexes() {
        let built = JoinIndex::identity(&[1u32, 2], 1, 3).unwrap();
        assert!(matches!(
            built.patch(&[4], 2),
            Err(ExecError::PreconditionViolated {
                algorithm: "SPHJ",
                ..
            })
        ));
        assert!(built.patch(&[0], 2).is_err(), "below min rejected too");
        // The original index is untouched by a failed patch.
        assert_eq!(built.probe(&[1, 2]).len(), 2);
        assert!(matches!(
            JoinIndex::hashed(&[1, 2]).patch(&[3], 2),
            Err(ExecError::PreconditionViolated {
                algorithm: "HJ",
                ..
            })
        ));
    }

    #[test]
    fn index_byte_size_accounts_csr() {
        let idx = JoinIndex::identity(&[0u32, 1, 1], 0, 1).unwrap();
        // offsets: 3 u32, rows: 3 u32 → 24 bytes.
        assert_eq!(idx.byte_size(), 24);
        // The unique layout is one u32 per slot.
        assert_eq!(
            JoinIndex::identity(&[0u32, 1], 0, 2).unwrap().byte_size(),
            12
        );
    }

    /// Keys `0..n` shuffled, with `dups` of them repeated at the end.
    fn keys(n: u32, dups: u32) -> Vec<u32> {
        let mut keys: Vec<u32> = (0..n).map(|i| i.wrapping_mul(2_654_435_761) % n).collect();
        keys.sort_unstable();
        keys.dedup();
        keys.extend((0..dups).map(|i| i * 7 % n));
        keys
    }

    #[test]
    fn the_build_keys_pick_the_layout() {
        assert!(JoinIndex::identity(&[3u32, 0, 2], 0, 5)
            .unwrap()
            .is_unique());
        assert!(JoinIndex::identity(&[], 0, 5).unwrap().is_unique());
        assert!(!JoinIndex::identity(&[3u32, 0, 3], 0, 5)
            .unwrap()
            .is_unique());
        // A duplicate after an out-of-domain key still reports the key.
        assert!(JoinIndex::identity(&[3u32, 9, 3], 0, 5).is_err());
        assert!(JoinIndex::identity(&[3u32, 3, 9], 0, 5).is_err());
        // A sparse unique key set over a wide domain stays unique.
        let sparse: Vec<u32> = (0..100).map(|i| i * 37).collect();
        assert!(JoinIndex::identity(&sparse, 0, 99 * 37)
            .unwrap()
            .is_unique());
        // The hashed map picks by the same rule.
        assert!(JoinIndex::hashed(&sparse).is_unique());
        assert!(JoinIndex::hashed(&[]).is_unique());
        assert!(!JoinIndex::hashed(&[u32::MAX, 0, u32::MAX]).is_unique());
    }

    #[test]
    fn matches_agrees_across_layouts() {
        let unique_keys = keys(500, 0);
        let unique = JoinIndex::identity(&unique_keys, 0, 499).unwrap();
        assert!(unique.is_unique());
        // The same keys in CSR form, laid out by the CSR fill
        // `JoinIndex::identity` falls back to at a repeat.
        let csr = JoinIndex::over(
            0,
            Layout::csr(&unique_keys, 500, |k| slot(k, 0, 500)).unwrap(),
        );
        assert!(!csr.is_unique());
        let dup_keys = keys(500, 40);
        let dups = JoinIndex::identity(&dup_keys, 0, 499).unwrap();
        assert!(!dups.is_unique());
        let hashed = [
            JoinIndex::hashed(&unique_keys),
            JoinIndex::hashed(&dup_keys),
        ];
        for probe in 0..520u32 {
            assert_eq!(matched(&unique, probe), matched(&csr, probe), "key {probe}");
            let oracle = |ks: &[u32]| -> Vec<u32> {
                (0..ks.len() as u32)
                    .filter(|&i| ks[i as usize] == probe)
                    .collect()
            };
            assert_eq!(matched(&unique, probe), oracle(&unique_keys), "key {probe}");
            assert_eq!(matched(&dups, probe), oracle(&dup_keys), "key {probe}");
            assert_eq!(
                matched(&hashed[0], probe),
                oracle(&unique_keys),
                "key {probe}"
            );
            assert_eq!(matched(&hashed[1], probe), oracle(&dup_keys), "key {probe}");
        }
        assert_eq!(
            unique.probe(&unique_keys).normalised_pairs(),
            csr.probe(&unique_keys).normalised_pairs()
        );
    }

    #[test]
    fn patch_keeps_or_leaves_the_unique_layout_bit_identically() {
        // (base, delta, stays unique): delta keys in empty slots keep the
        // unique layout; one landing on a taken slot, or two deltas
        // sharing one, converts to CSR.
        let cases: &[(&[u32], &[u32], bool)] = &[
            (&[0, 3, 1], &[2, 4], true),
            (&[0, 3, 1], &[], true),
            (&[], &[4, 0], true),
            (&[0, 3, 1], &[2, 3], false),
            (&[0, 3, 1], &[2, 2], false),
            (&[0, 3, 1], &[1], false),
            (&[], &[4, 4], false),
        ];
        for &(base, delta, unique) in cases {
            let built = JoinIndex::identity(base, 0, 4).unwrap();
            assert!(built.is_unique(), "base={base:?}");
            let patched = built.patch(delta, base.len() as u32).unwrap();
            let combined: Vec<u32> = base.iter().chain(delta).copied().collect();
            let rebuilt = JoinIndex::identity(&combined, 0, 4).unwrap();
            assert_eq!(patched, rebuilt, "base={base:?} delta={delta:?}");
            assert_eq!(patched.is_unique(), unique, "base={base:?} delta={delta:?}");
        }
        // A rejected delta leaves the unique index as it was.
        let built = JoinIndex::identity(&[0u32, 3], 0, 4).unwrap();
        assert!(built.patch(&[2, 9], 2).is_err());
        assert_eq!(matched(&built, 2), Vec::<u32>::new());
    }

    /// The pairs a nested loop finds, as `(build row, probe row)` ordered
    /// by probe row, then build row: the order every probe emits.
    fn ordered_oracle(left: &[u32], right: &[u32]) -> Vec<(u32, u32)> {
        let mut out = Vec::new();
        for (j, &rk) in right.iter().enumerate() {
            for (i, &lk) in left.iter().enumerate() {
                if lk == rk {
                    out.push((i as u32, j as u32));
                }
            }
        }
        out
    }

    /// Every slot map over `left`: hashed always, identity when the build
    /// domain fits in a few million slots (an empty build side takes the
    /// one-slot domain `[0, 0]`).
    fn indexes(left: &[u32]) -> Vec<(&'static str, JoinIndex)> {
        let mut out = vec![("hashed", JoinIndex::hashed(left))];
        let (min, max) = crate::join::min_max(left).unwrap_or((0, 0));
        if max - min < 1 << 23 {
            out.push(("identity", JoinIndex::identity(left, min, max).unwrap()));
        }
        out
    }

    /// Check both slot maps × both layouts on one case: the build keys with
    /// each key's first occurrence only (unique layout), and as given plus
    /// one more copy of the first key (CSR). The probe must equal the
    /// ordered nested loop.
    fn check(case: &str, left: &[u32], right: &[u32]) {
        let mut seen = std::collections::HashSet::new();
        let first: Vec<u32> = left.iter().copied().filter(|&k| seen.insert(k)).collect();
        let mut repeated = left.to_vec();
        repeated.extend(left.first());
        for (build, unique) in [(first, true), (repeated, left.is_empty())] {
            let oracle = ordered_oracle(&build, right);
            for (map, index) in indexes(&build) {
                let ctx = format!("{case}: {map}, unique={unique}");
                assert_eq!(index.is_unique(), unique, "{ctx}");
                let probed = index.probe(right);
                let pairs: Vec<(u32, u32)> = probed
                    .left_rows
                    .iter()
                    .copied()
                    .zip(probed.right_rows.iter().copied())
                    .collect();
                assert_eq!(pairs, oracle, "{ctx}");
                assert!(!probed.sorted_by_key, "{ctx}");
            }
        }
    }

    #[test]
    fn every_slot_map_and_layout_emits_the_ordered_nested_loop() {
        // LP's empty-slot key and zero — first seen after other keys, and
        // probed though no build row holds it — beside keys near the top
        // of the range (where an identity domain still fits).
        let top = [u32::MAX, u32::MAX - 2, u32::MAX, 5, 0];
        check("u32::MAX and 0", &[0, 7, u32::MAX, 0, u32::MAX], &top);
        check("u32::MAX probed only", &[0, 7, 5], &top);
        check(
            "top of the range",
            &[u32::MAX - 2, u32::MAX, u32::MAX],
            &top,
        );
        // 1 024 keys sharing their low 12 bits, probed with themselves,
        // reversed and repeated, and with misses between them.
        let shared: Vec<u32> = (0..1_024u32).map(|i| (i << 12) | 0xABC).collect();
        let probe: Vec<u32> = shared.iter().rev().flat_map(|&k| [k, k ^ 1, k]).collect();
        check("shared low 12 bits", &shared, &probe);
        check("all duplicates", &[42; 300], &[42, 41, 42, 0, 42]);
        check("empty build", &[], &[1, 2]);
        check("empty probe", &[1, 2], &[]);
        check("both empty", &[], &[]);
        check("no matches", &[1, 2], &[3, 4]);
        check("duplicates on both sides", &[1, 2, 2, 3], &[2, 2, 3, 4]);
        // PK ⋈ FK: one pair per probe row.
        let pk: Vec<u32> = (0..100).collect();
        let fk: Vec<u32> = (0..5_000).map(|i| (i * 7) % 100).collect();
        check("pk-fk", &pk, &fk);
        assert_eq!(JoinIndex::hashed(&pk).probe(&fk).len(), 5_000);
        let spread = |n: usize, domain: u32| -> Vec<u32> {
            (0..n)
                .map(|i| (i as u32).wrapping_mul(2_654_435_761) % domain)
                .collect()
        };
        // Probe keys outside the build domain.
        check("dataset", &spread(700, 50), &spread(900, 60));
    }

    #[test]
    fn a_column_in_posting_order_answers_at_the_postings() {
        // A value per build row; read in posting order at a key's postings
        // it must give the values of the key's rows, in row order, under
        // every slot map and layout: unique with every slot held, unique
        // with empty slots, CSR, and a patched CSR with a tail.
        let dense: Vec<u32> = keys(300, 0);
        let gaps: Vec<u32> = (0..200).map(|i| i * 3 % 600).collect();
        let repeats = keys(300, 60);
        let patched = JoinIndex::identity(&repeats, 0, 299)
            .unwrap()
            .patch(&[4, 4, 299], repeats.len() as u32)
            .unwrap();
        assert!(
            !patched.layout.postings()[1].is_empty(),
            "the patch left a tail"
        );
        let mut grown = repeats.clone();
        grown.extend([4, 4, 299]);
        let cases = [
            (
                "full",
                dense.clone(),
                JoinIndex::identity(&dense, 0, 299).unwrap(),
            ),
            (
                "gaps",
                gaps.clone(),
                JoinIndex::identity(&gaps, 0, 599).unwrap(),
            ),
            ("hashed", gaps.clone(), JoinIndex::hashed(&gaps)),
            (
                "csr",
                repeats.clone(),
                JoinIndex::identity(&repeats, 0, 299).unwrap(),
            ),
            ("tail", grown, patched),
        ];
        for (case, build, index) in cases {
            let value: Vec<u32> = (0..build.len() as u32).map(|r| r * 7 + 1).collect();
            let carried: Vec<u32> = index
                .posting_rows()
                .iter()
                .map(|&r| value[r as usize])
                .collect();
            for key in 0..610u32 {
                let via_postings: Vec<u32> = (index.matches(key).into_iter().flatten())
                    .map(|p| carried[p as usize])
                    .collect();
                let via_rows: Vec<u32> = (0..build.len())
                    .filter(|&r| build[r] == key)
                    .map(|r| value[r])
                    .collect();
                assert_eq!(via_postings, via_rows, "{case}: key {key}");
            }
        }
    }
}
