//! The table catalog: relations plus the statistics DQO feeds on.
//!
//! Every `u32`-typed column gets exact [`DataProps`] at registration time
//! (sortedness, density, distinct count, range) — §4.1's "we always assume
//! the number of distinct values to be known" holds because we compute it
//! — and keeps them exact across appends by folding each delta in. An
//! unsorted sparse `u32` column whose keys repeat at least
//! [`dqo_storage::MIN_RUN`] times on average also gets dense,
//! order-preserving [`KeyCodes`], so SPHG can group it.

use crate::error::CoreError;
use crate::join_memo::JoinMemo;
use crate::Result;
use dqo_storage::{
    DataProps, DataType, KeyCodes, PartitionedRelation, Partitioning, Relation, Seam, Selection,
    Sortedness,
};
use parking_lot::{Mutex, RwLock};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// One registered table.
#[derive(Debug, Clone)]
pub struct TableEntry {
    /// The data.
    pub relation: Arc<Relation>,
    /// Exact properties of each `u32`/`Str` column (keyed by column name).
    pub column_props: HashMap<String, DataProps>,
    /// Dense order-preserving codes of the `u32` columns registration chose
    /// to code (keyed by column name; see [`KeyCodes::qualifies`]). Kept in
    /// the same snapshot as the rows, so a reader never pairs new rows
    /// with old codes.
    pub key_codes: HashMap<String, Arc<KeyCodes>>,
    /// Registration generation: strictly increases across the catalog on
    /// every `register`, so a long-running consumer (e.g. an offline AV
    /// build) can detect that the table it read from has since been
    /// replaced.
    pub generation: u64,
    /// Data generation: bumps on every [`Catalog::replace_data`] (the
    /// append path) while the registration generation — and therefore the
    /// catalog-wide DDL clock — stays put. The pair `(generation,
    /// data_generation)` changes whenever the rows a consumer snapshotted
    /// are no longer current, for any reason.
    pub data_generation: u64,
    /// For partitioned tables: the partition map over `relation` (which
    /// then holds the partitions' rows concatenated). `None` for flat
    /// tables. Kept alongside the relation so a reader's snapshot of the
    /// entry is always internally consistent.
    pub partitioning: Option<Arc<Partitioning>>,
    /// For a sorted projection whose rows end in a tail not yet merged:
    /// where its sorted prefix ends. `None` when every row is in order —
    /// always so in an entry [`Catalog::get`] hands out. The column
    /// statistics describe the rows in key order.
    pub sorted_prefix: Option<SortedPrefix>,
    /// The join indexes queries built over these rows, and the build
    /// columns they carry: empty in a new entry and in a clone.
    pub(crate) join_memo: JoinMemo,
}

/// A sorted projection's hidden relation as an INSERT leaves it (see
/// [`crate::av_delta`]): rows `[0, rows)` in key order, then a tail of at
/// least one row in append order. Its rows *in key order* — what every
/// reader sees and what a rebuild would hold — are the prefix merged with
/// the stably sorted tail, a prefix row first on equal keys: ordered by
/// `(key tuple, row id)`, since every tail row was appended after every
/// prefix row and the tail is in append order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SortedPrefix {
    /// Rows in the sorted prefix.
    pub rows: usize,
    /// The projection's key columns, in key order.
    pub key: Vec<String>,
}

impl SortedPrefix {
    /// The key columns of `rel`.
    fn keys<'r>(&self, rel: &'r Relation) -> Result<Vec<&'r [u32]>> {
        (self.key.iter())
            .map(|k| Ok(rel.column(k)?.as_u32()?))
            .collect()
    }

    /// The rows `sel` selects of `rel` — ascending row ids, as a scan or
    /// a filter over one hands them on — in key order, the first `limit`
    /// of them: the prefix's selected rows as they are, merged with the
    /// tail's, stably sorted by key. `None` when no tail row is selected,
    /// so `sel` is in key order already.
    pub(crate) fn key_order(
        &self,
        rel: &Relation,
        sel: &Selection,
        limit: usize,
    ) -> Result<Option<Vec<u32>>> {
        let p = self.rows as u32;
        let mut tail: Vec<u32> = match sel {
            Selection::Ranges(rs) => (rs.iter())
                .flat_map(|r| r.start.max(self.rows) as u32..r.end.max(self.rows) as u32)
                .collect(),
            Selection::Rows(ids) => ids[ids.partition_point(|&i| i < p)..].to_vec(),
        };
        if tail.is_empty() {
            return Ok(None);
        }
        let keys = self.keys(rel)?;
        let tuple = |row: u32| keys.iter().map(move |k| k[row as usize]);
        tail.sort_by(|&a, &b| tuple(a).cmp(tuple(b)));
        let prefix = sel.iter().take_while(|&i| i < p);
        let mut prefix = prefix.peekable();
        let mut tail = tail.into_iter().peekable();
        let mut out = Vec::with_capacity(sel.len().min(limit));
        while out.len() < limit {
            // Equal keys: the prefix row, appended earlier, goes first.
            let take_tail = match (prefix.peek(), tail.peek()) {
                (Some(&a), Some(&b)) => tuple(b).lt(tuple(a)),
                (None, Some(_)) => true,
                (_, None) => false,
            };
            match if take_tail {
                tail.next()
            } else {
                prefix.next()
            } {
                Some(row) => out.push(row),
                None => break,
            }
        }
        Ok(Some(out))
    }

    /// The sortedness in key order of column `col` of `rel`, whose rows
    /// from `first` on were just appended to its tail, when `col` had
    /// sortedness `old` in key order before (see [`sortedness_after`]).
    /// Each appended row's neighbours in key order are found by a binary
    /// search of the prefix and a scan of the tail: O(delta · (log rows +
    /// tail)), and nothing for a column that was unsorted already or is
    /// the first key column, which ascends by construction.
    fn sortedness(
        &self,
        rel: &Relation,
        name: &str,
        col: &[u32],
        old: (Sortedness, bool),
        first: usize,
    ) -> Result<Sortedness> {
        if self.key[0] == name {
            return Ok(Sortedness::Ascending);
        }
        let keys = self.keys(rel)?;
        let tuple = |row: usize| keys.iter().map(move |k| k[row]);
        let order = |a: usize, b: usize| tuple(a).cmp(tuple(b)).then(a.cmp(&b));
        let neighbours = |x: usize| {
            // Prefix rows precede `x` exactly when their key is not greater.
            let (mut lo, mut hi) = (0usize, self.rows);
            while lo < hi {
                let mid = lo + (hi - lo) / 2;
                match tuple(mid).le(tuple(x)) {
                    true => lo = mid + 1,
                    false => hi = mid,
                }
            }
            let mut prev = lo.checked_sub(1);
            let mut next = (lo < self.rows).then_some(lo);
            for r in (self.rows..rel.rows()).filter(|&r| r != x) {
                if order(r, x).is_lt() {
                    prev = Some(prev.map_or(r, |p| if order(p, r).is_lt() { r } else { p }));
                } else {
                    next = Some(next.map_or(r, |n| if order(r, n).is_lt() { r } else { n }));
                }
            }
            let before = prev.map(|p| (col[p], col[x]));
            before.into_iter().chain(next.map(|n| (col[x], col[n])))
        };
        Ok(sortedness_after(
            old,
            (first..rel.rows()).flat_map(neighbours),
        ))
    }
}

/// The sortedness of a column after rows arrived, from `old` — its
/// sortedness before, and whether it held one value then — and `pairs`,
/// the `(earlier, later)` values of every two rows the arrivals made
/// neighbours. The old rows kept their relative order, so no other pair
/// is new: an unsorted column stays unsorted, and a sorted one keeps a
/// direction only if every new pair agrees with it (a constant column is
/// both ascending and descending, as in [`DataProps::compute`]).
fn sortedness_after(
    (old, constant): (Sortedness, bool),
    pairs: impl Iterator<Item = (u32, u32)>,
) -> Sortedness {
    let (mut asc, mut desc) = match old {
        Sortedness::Ascending => (true, constant),
        Sortedness::Descending => (false, true),
        Sortedness::Unsorted => return Sortedness::Unsorted,
    };
    for (a, b) in pairs {
        asc &= a <= b;
        desc &= a >= b;
        if !(asc || desc) {
            break;
        }
    }
    match (asc, desc) {
        (true, _) => Sortedness::Ascending,
        (_, true) => Sortedness::Descending,
        _ => Sortedness::Unsorted,
    }
}

impl TableEntry {
    fn from_relation(relation: Arc<Relation>, sorted_prefix: Option<SortedPrefix>) -> Self {
        let (column_props, key_codes) =
            derive_columns(&relation, None, None, sorted_prefix.as_ref());
        TableEntry {
            column_props,
            key_codes,
            relation,
            generation: 0,
            data_generation: 0,
            partitioning: None,
            sorted_prefix,
            join_memo: JoinMemo::default(),
        }
    }

    fn with_partitioning(mut self, partitioning: Option<Arc<Partitioning>>) -> Self {
        self.partitioning = partitioning;
        self
    }

    /// This entry with its rows in key order, copied into a new relation,
    /// when it is a sorted projection with a tail: the rows a rebuild
    /// holds, which the statistics already describe. The coded columns
    /// are coded afresh, row by row.
    fn in_key_order(self: Arc<Self>) -> Result<Arc<Self>> {
        let Some(prefix) = &self.sorted_prefix else {
            return Ok(self);
        };
        let all = Selection::all(self.relation.rows());
        let Some(order) = prefix.key_order(&self.relation, &all, usize::MAX)? else {
            return Ok(self);
        };
        let relation = Arc::new(self.relation.gather(&order));
        let mut key_codes = HashMap::new();
        for name in self.key_codes.keys() {
            let data = relation.column(name)?.as_u32()?;
            key_codes.insert(name.clone(), Arc::new(KeyCodes::build(data)));
        }
        Ok(Arc::new(TableEntry {
            relation,
            key_codes,
            sorted_prefix: None,
            ..(*self).clone()
        }))
    }
}

/// The rows a new version of a relation gained over `base`, and where
/// they landed. `base`'s rows keep their relative order in the new
/// version, so its statistics fold instead of being recomputed (see
/// [`Catalog::replace_data`]).
#[derive(Debug, Clone, Copy)]
pub struct RowDelta<'a> {
    /// The relation these rows extend.
    pub base: &'a Relation,
    /// The gained rows, in `base`'s schema.
    pub rows: &'a Relation,
    /// Row `j` of `rows` sits right after the first `at[j]` rows of `base`
    /// (non-decreasing); `None` when they all follow `base` — an append.
    pub at: Option<&'a [usize]>,
}

/// Exact [`DataProps`] of every `u32`/`Str` column of `relation`, and the
/// [`KeyCodes`] of its coded `u32` columns — the catalog's one derivation.
/// A registration (no `from`) codes every `u32` column whose statistics
/// qualify. A new version of `from`'s table codes exactly the columns
/// `from` coded: the decision is the registration's, so a cached plan that
/// reads codes never meets a snapshot without them. With `delta`, a column
/// folds the delta into `from`'s props ([`DataProps::fold`]) and codes
/// ([`KeyCodes::fold`]) when the delta extends `from`'s relation;
/// otherwise, or when the props' fold needs the whole column, they are
/// computed.
///
/// The props of a relation with a `prefix` describe its rows in key order
/// (the codes stay row by row). When `from` or the new version has a tail
/// (see [`SortedPrefix`]), a column folds only what does not depend on
/// order and its sortedness is decided from the pairs the delta's rows
/// made neighbours in key order: after an append to the tail, by
/// [`SortedPrefix`]'s search for each row's neighbours; after a merge into
/// a relation all in key order, whose delta rows are sorted and `at`
/// counts the old rows before each in key order, at their positions
/// `at[j] + j`. Without a usable delta the columns are read in key order
/// and computed.
fn derive_columns(
    relation: &Relation,
    from: Option<&TableEntry>,
    delta: Option<RowDelta<'_>>,
    prefix: Option<&SortedPrefix>,
) -> (HashMap<String, DataProps>, HashMap<String, Arc<KeyCodes>>) {
    fn u32s<'r>(rel: &'r Relation, name: &str) -> Option<&'r [u32]> {
        rel.column(name).ok()?.as_u32().ok()
    }
    let extends = from
        .zip(delta)
        .filter(|(from, d)| std::ptr::eq(&*from.relation, d.base));
    // Key order is not row order on one side or the other.
    let keyed = from.is_some_and(|f| f.sorted_prefix.is_some()) || prefix.is_some();
    // A merge moved the rows: the codes, row by row, are built afresh.
    let merged = from.is_some_and(|f| f.sorted_prefix.is_some()) && prefix.is_none();
    let order = match (prefix, extends) {
        (Some(prefix), None) => {
            let all = Selection::all(relation.rows());
            prefix.key_order(relation, &all, usize::MAX).ok().flatten()
        }
        _ => None,
    };
    let compute = |data: &[u32]| match &order {
        Some(order) => {
            let keyed: Vec<u32> = order.iter().map(|&row| data[row as usize]).collect();
            DataProps::compute(&keyed)
        }
        None => DataProps::compute(data),
    };
    let (mut props, mut codes) = (HashMap::new(), HashMap::new());
    for field in relation.schema().fields() {
        if !matches!(field.data_type, DataType::U32 | DataType::Str) {
            continue;
        }
        let Some(data) = u32s(relation, &field.name) else {
            continue;
        };
        let name = &field.name;
        let Some(from) = from else {
            let derived = match field.data_type {
                DataType::U32 => KeyCodes::derive(data),
                _ => (DataProps::compute(data), None),
            };
            let derived = match order {
                Some(_) => (compute(data), derived.1),
                None => derived,
            };
            props.insert(name.clone(), derived.0);
            if let Some(coded) = derived.1 {
                codes.insert(name.clone(), Arc::new(coded));
            }
            continue;
        };
        let gained = extends.and_then(|(_, delta)| {
            debug_assert_eq!(delta.base.rows() + delta.rows.rows(), relation.rows());
            Some((u32s(delta.rows, name)?, delta))
        });
        let folded = gained.and_then(|(rows, delta)| {
            let seam = Seam {
                old: u32s(delta.base, name)?,
                at: delta.at.filter(|_| !keyed),
            };
            from.column_props.get(name)?.fold(rows, seam)
        });
        let mut column = folded.unwrap_or_else(|| compute(data));
        if let (Some((_, delta)), true) = (gained, keyed) {
            let old = (from.column_props.get(name)).map_or((Sortedness::Unsorted, false), |p| {
                (p.sortedness, p.min == p.max)
            });
            column.sortedness = match (prefix, delta.at) {
                (Some(prefix), _) => prefix
                    .sortedness(relation, name, data, old, delta.base.rows())
                    .unwrap_or(Sortedness::Unsorted),
                (None, at) => {
                    let at = at.unwrap_or_default().iter().enumerate();
                    let moved = at.map(|(j, &at)| at + j);
                    let pairs = moved.flat_map(|q| {
                        let before = q.checked_sub(1).map(|p| (data[p], data[q]));
                        before
                            .into_iter()
                            .chain(data.get(q + 1).map(|&n| (data[q], n)))
                    });
                    sortedness_after(old, pairs)
                }
            };
        }
        props.insert(name.clone(), column);
        if let Some(old) = from.key_codes.get(name) {
            let coded = match gained.filter(|_| !merged) {
                Some((rows, delta)) => old.fold(rows, delta.at),
                None => KeyCodes::build(data),
            };
            codes.insert(name.clone(), Arc::new(coded));
        }
    }
    (props, codes)
}

/// A concurrent catalog of named tables.
#[derive(Debug, Default)]
pub struct Catalog {
    tables: RwLock<HashMap<String, Arc<TableEntry>>>,
    /// Source of [`TableEntry::generation`] stamps.
    generations: AtomicU64,
    /// The statistics clock (see [`Catalog::stats_generation`]).
    stats_generations: AtomicU64,
    /// Per-table writer locks handed out by [`Catalog::mutation_lock`];
    /// lazily created, never removed (table names are few).
    mutation_locks: Mutex<HashMap<String, Arc<Mutex<()>>>>,
}

impl Catalog {
    /// An empty catalog.
    pub fn new() -> Self {
        Catalog::default()
    }

    /// Register (or replace) a table, computing exact column statistics.
    pub fn register(
        &self,
        name: impl Into<String>,
        relation: impl Into<Arc<Relation>>,
    ) -> Arc<TableEntry> {
        self.register_sorted(name.into(), relation.into(), None)
    }

    /// [`Catalog::register`] for a sorted projection's hidden relation,
    /// whose rows from `prefix` on may be a tail in append order (see
    /// [`TableEntry::sorted_prefix`]).
    pub(crate) fn register_sorted(
        &self,
        name: String,
        relation: Arc<Relation>,
        prefix: Option<SortedPrefix>,
    ) -> Arc<TableEntry> {
        self.publish(name, TableEntry::from_relation(relation, prefix))
    }

    /// Register (or replace) a **partitioned** table. The flat relation
    /// stored in the entry is the partition-major concatenation inside
    /// `partitioned`; every consumer that ignores partitioning sees an
    /// ordinary table. Bumps the same clocks as [`Catalog::register`].
    pub fn register_partitioned(
        &self,
        name: impl Into<String>,
        partitioned: PartitionedRelation,
    ) -> Arc<TableEntry> {
        let partitioning = Arc::new(partitioned.partitioning().clone());
        self.publish(
            name.into(),
            TableEntry::from_relation(Arc::new(partitioned.flat().clone()), None)
                .with_partitioning(Some(partitioning)),
        )
    }

    /// Stamp a freshly registered entry with its registration generation
    /// and insert it, moving the DDL and statistics clocks while holding
    /// the write lock ([`Catalog::drop_table`] does the same): a planner
    /// that reads a new clock value can only take its read lock after this
    /// one is released, so it never stamps a plan costed from the old
    /// entry as current.
    fn publish(&self, name: String, mut entry: TableEntry) -> Arc<TableEntry> {
        let mut tables = self.tables.write();
        entry.generation = self.generations.fetch_add(1, Ordering::Relaxed);
        let entry = Arc::new(entry);
        tables.insert(name, Arc::clone(&entry));
        self.stats_generations.fetch_add(1, Ordering::Relaxed);
        entry
    }

    /// Swap a table's rows in place — the append path. `relation` is the
    /// table's next version, derived from the snapshot `from`; `delta`,
    /// when given, is what it gained over `from`'s relation, and each
    /// column's statistics then fold that delta into `from`'s in
    /// O(delta) instead of being recomputed (a column whose fold needs
    /// the whole column, or any column without a delta, is computed).
    /// The per-table **data generation** bumps, but the registration
    /// generation and the catalog-wide DDL clock do **not** move: the
    /// table is still the same table, so cached plans that scan it stay
    /// valid and simply observe the new rows at their next execution.
    ///
    /// Refused with [`CoreError::TableChanged`] — nothing touched, no
    /// clock moved — unless the table's current `(generation,
    /// data_generation)` is still `from`'s: rows derived from an older
    /// snapshot would silently undo whatever replaced it (a
    /// re-registration, another append). The statistics are derived
    /// before the catalog's write lock is taken, so readers never wait on
    /// them; the lock covers only the check and the swap, which is atomic
    /// per entry — a concurrent reader sees either the old snapshot or
    /// the new one, never a mix.
    pub fn replace_data(
        &self,
        name: &str,
        from: &TableEntry,
        relation: impl Into<Arc<Relation>>,
        delta: Option<RowDelta<'_>>,
    ) -> Result<Arc<TableEntry>> {
        self.replace_sorted(name, from, relation.into(), delta, None)
    }

    /// [`Catalog::replace_data`] for a sorted projection's hidden
    /// relation, whose rows from `prefix` on may be a tail in append
    /// order (see [`TableEntry::sorted_prefix`]).
    pub(crate) fn replace_sorted(
        &self,
        name: &str,
        from: &TableEntry,
        relation: Arc<Relation>,
        delta: Option<RowDelta<'_>>,
        prefix: Option<SortedPrefix>,
    ) -> Result<Arc<TableEntry>> {
        let partitioning = match &from.partitioning {
            None => None,
            Some(part) => Some(Arc::new(Self::refresh_partitioning(
                part,
                &relation,
                from.relation.rows(),
            )?)),
        };
        let (column_props, key_codes) =
            derive_columns(&relation, Some(from), delta, prefix.as_ref());
        let entry = Arc::new(TableEntry {
            column_props,
            key_codes,
            relation,
            generation: from.generation,
            data_generation: from.data_generation + 1,
            partitioning,
            sorted_prefix: prefix,
            join_memo: JoinMemo::default(),
        });
        let mut tables = self.tables.write();
        let current = tables
            .get(name)
            .ok_or_else(|| CoreError::UnknownTable(name.to_owned()))?;
        if (current.generation, current.data_generation) != (from.generation, from.data_generation)
        {
            return Err(CoreError::TableChanged(name.to_owned()));
        }
        tables.insert(name.to_owned(), Arc::clone(&entry));
        self.stats_generations.fetch_add(1, Ordering::Relaxed);
        Ok(entry)
    }

    /// Re-derive a partitioned table's map for `replace_data`. When the
    /// new relation grew (the append path — the only writer today), rows
    /// `[old_rows..)` are routed as a tail delta: only partitions that
    /// received rows move their data generation. Anything else (shrink or
    /// rewrite) re-routes every row in place and bumps every partition's
    /// generation past its old value — conservative, but per-partition
    /// consumers can never see stale placement.
    fn refresh_partitioning(
        old: &Partitioning,
        relation: &Relation,
        old_rows: usize,
    ) -> Result<Partitioning> {
        let col = relation.column(&old.spec().column)?.as_u32()?;
        if relation.rows() >= old_rows {
            Ok(old.extend_for_append(col, old_rows))
        } else {
            let rebuilt = Partitioning::build(old.spec().clone(), col)?;
            let next_gen = old
                .parts()
                .iter()
                .map(|m| m.data_generation)
                .max()
                .unwrap_or(0)
                + 1;
            Ok(rebuilt.with_data_generations(next_gen))
        }
    }

    /// The registration generation of `name`'s current entry, if it
    /// exists — compare against a snapshot taken earlier to detect that
    /// the table was replaced in between.
    pub fn generation_of(&self, name: &str) -> Option<u64> {
        self.tables.read().get(name).map(|e| e.generation)
    }

    /// The data generation of `name`'s current entry (see
    /// [`TableEntry::data_generation`]). Pair with
    /// [`Catalog::generation_of`] to detect *any* change to a table's
    /// rows, whether from DDL or from appends.
    pub fn data_generation_of(&self, name: &str) -> Option<u64> {
        self.tables.read().get(name).map(|e| e.data_generation)
    }

    /// The writer lock for `name`: mutation paths (append + incremental
    /// view maintenance) hold it for the whole read-modify-publish cycle
    /// so concurrent INSERTs into one table serialise. Readers never take
    /// it — they see per-entry-atomic snapshots.
    pub fn mutation_lock(&self, name: &str) -> Arc<Mutex<()>> {
        Arc::clone(
            self.mutation_locks
                .lock()
                .entry(name.to_owned())
                .or_default(),
        )
    }

    /// The catalog-wide DDL clock: advances on every `register` *and*
    /// `drop_table` (including hidden `__av::` relations, so AV
    /// materialisation and invalidation move it too). The plan cache
    /// keys on this — two reads returning the same value guarantee no
    /// registration changed in between.
    pub fn current_generation(&self) -> u64 {
        self.generations.load(Ordering::Relaxed)
    }

    /// The catalog-wide **statistics clock**: advances whenever any
    /// table's statistics may have changed — on `register`, on a real
    /// `drop_table`, *and* on [`Catalog::replace_data`] (which the DDL
    /// clock deliberately ignores). The optimiser memo stamps itself
    /// with this value: two reads returning the same number guarantee
    /// every cardinality and property a memoised group derived is still
    /// current.
    pub fn stats_generation(&self) -> u64 {
        self.stats_generations.load(Ordering::Relaxed)
    }

    /// The pair `(registration generation, data generation)` of `name`'s
    /// current entry — the per-table statistics version the feedback
    /// store keys corrections on. `None` for unknown tables.
    pub fn table_stats_version(&self, name: &str) -> Option<(u64, u64)> {
        self.tables
            .read()
            .get(name)
            .map(|e| (e.generation, e.data_generation))
    }

    /// The partition map of `name`, if it is a partitioned table.
    pub fn partitioning_of(&self, name: &str) -> Option<Arc<Partitioning>> {
        self.tables
            .read()
            .get(name)
            .and_then(|e| e.partitioning.clone())
    }

    /// The statistics version feedback corrections should be stamped
    /// with. For a flat table — or when no partition subset is given —
    /// this is [`Catalog::table_stats_version`]. For a partitioned scan
    /// restricted to `parts`, the data-generation half is replaced by a
    /// fingerprint of the *surviving* partitions' generations: appends to
    /// pruned partitions leave it untouched (the correction keeps
    /// applying), while any append to a scanned partition — or a change
    /// of survivor set — moves it.
    pub fn stats_version_for(&self, name: &str, parts: Option<&[usize]>) -> Option<(u64, u64)> {
        let tables = self.tables.read();
        let entry = tables.get(name)?;
        match (parts, &entry.partitioning) {
            (Some(parts), Some(partitioning)) => {
                Some((entry.generation, partitioning.generation_fingerprint(parts)))
            }
            _ => Some((entry.generation, entry.data_generation)),
        }
    }

    /// Look up a table as a reader sees it. A sorted projection whose rows
    /// end in a tail (see [`TableEntry::sorted_prefix`]) comes with its
    /// rows in key order, copied into a new relation — the rows a rebuild
    /// holds; any other table as [`Catalog::stored`] has it.
    pub fn get(&self, name: &str) -> Result<Arc<TableEntry>> {
        self.stored(name)?.in_key_order()
    }

    /// Look up a table as stored, copying nothing: a sorted projection's
    /// rows may end in a tail in append order. The engine reads this, and
    /// shows its consumers the rows in key order itself.
    pub fn stored(&self, name: &str) -> Result<Arc<TableEntry>> {
        self.tables
            .read()
            .get(name)
            .cloned()
            .ok_or_else(|| CoreError::UnknownTable(name.to_owned()))
    }

    /// Drop a table; returns whether it existed. An actual removal bumps
    /// the DDL and statistics clocks (see [`Catalog::current_generation`])
    /// while holding the write lock, as [`Catalog::register`] does, so a
    /// reader that no longer sees the table also sees the moved clocks and
    /// cached plans referencing it stop being served.
    pub fn drop_table(&self, name: &str) -> bool {
        let mut tables = self.tables.write();
        let existed = tables.remove(name).is_some();
        if existed {
            self.generations.fetch_add(1, Ordering::Relaxed);
            self.stats_generations.fetch_add(1, Ordering::Relaxed);
        }
        existed
    }

    /// Names of all registered tables (unordered).
    pub fn table_names(&self) -> Vec<String> {
        self.tables.read().keys().cloned().collect()
    }

    /// Properties of `column` in `table`.
    pub fn column_props(&self, table: &str, column: &str) -> Result<DataProps> {
        let entry = self.get(table)?;
        entry
            .column_props
            .get(column)
            .copied()
            .ok_or_else(|| CoreError::UnknownColumn(format!("{table}.{column}")))
    }

    /// The statistics of `column` in the first registered table (searching
    /// `tables`, in the given order) whose schema contains it — how the
    /// optimiser resolves a column back to its source statistics across
    /// joins.
    pub fn resolve_column<'a>(
        &self,
        tables: impl IntoIterator<Item = &'a str>,
        column: &str,
    ) -> Option<DataProps> {
        let map = self.tables.read();
        tables
            .into_iter()
            .find_map(|t| map.get(t)?.column_props.get(column).copied())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dqo_storage::Relation;

    #[test]
    fn register_computes_stats() {
        let cat = Catalog::new();
        cat.register("t", Relation::single_u32("key", vec![2, 0, 1, 1]));
        let p = cat.column_props("t", "key").unwrap();
        assert_eq!(p.distinct, 3);
        assert!(p.density.is_dense());
        assert!(!p.sortedness.is_sorted());
        assert_eq!(p.rows, 4);
    }

    #[test]
    fn registration_codes_unsorted_sparse_columns_whose_keys_repeat() {
        use dqo_storage::{Column, Field, Schema, MIN_RUN};
        let repeats = MIN_RUN as usize;
        let keys = [4_000_000_000, 7, u32::MAX, 0, 70_000];
        let unsorted_sparse: Vec<u32> = keys.repeat(repeats);
        let mut sorted = unsorted_sparse.clone();
        sorted.sort_unstable();
        let dense: Vec<u32> = [3, 1, 4, 0, 2].repeat(repeats);
        let mut rare = unsorted_sparse.clone();
        rare[0] = 99; // six keys over 40 rows: distinct > rows / MIN_RUN
        let names = ["us", "ss", "ud", "rare"];
        let schema = Schema::new(
            names
                .iter()
                .map(|n| Field::new(*n, DataType::U32))
                .collect(),
        );
        let columns = [unsorted_sparse.clone(), sorted, dense, rare];
        let rel = Relation::new(schema.unwrap(), columns.map(Column::U32).to_vec()).unwrap();
        let cat = Catalog::new();
        let entry = cat.register("t", rel);
        let coded: Vec<&str> = names
            .into_iter()
            .filter(|n| entry.key_codes.contains_key(*n))
            .collect();
        assert_eq!(coded, ["us"]);
        // The codes are the keys' ranks: dense over [0, distinct), in key
        // order.
        let codes = &entry.key_codes["us"];
        assert_eq!(codes.keys(), &[0, 7, 70_000, 4_000_000_000, u32::MAX]);
        for (&key, &code) in unsorted_sparse.iter().zip(codes.codes()) {
            assert_eq!(codes.keys()[code as usize], key);
        }
        assert_eq!(codes.domain(), (0, 4));
    }

    #[test]
    fn codes_follow_appends_and_the_registration_decision() {
        use dqo_storage::{Value, MIN_RUN};
        let cat = Catalog::new();
        let keys: Vec<u32> = [900, 5, 70].repeat(MIN_RUN as usize);
        let base = cat.register("t", Relation::single_u32("key", keys));
        assert!(base.key_codes.contains_key("key"));
        // A new key inside the range, one above it, and known keys.
        let mut entry = base;
        for delta in [&[5u32, 70][..], &[6], &[u32::MAX, 1_000, 5]] {
            let rows: Vec<Vec<Value>> = delta.iter().map(|&k| vec![Value::U32(k)]).collect();
            let appended = entry.relation.append_rows(&rows).unwrap();
            let delta = RowDelta {
                base: &entry.relation,
                rows: &appended.delta,
                at: None,
            };
            entry = cat
                .replace_data("t", &entry, appended.combined, Some(delta))
                .unwrap();
            let data = entry.relation.column("key").unwrap().as_u32().unwrap();
            assert_eq!(*entry.key_codes["key"], KeyCodes::build(data));
        }
        // Rows that no longer qualify keep the codes registration chose…
        let few = Relation::single_u32("key", vec![9, 3, 1_000]);
        let entry = cat.replace_data("t", &entry, few, None).unwrap();
        assert_eq!(*entry.key_codes["key"], KeyCodes::build(&[9, 3, 1_000]));
        // …and a re-registration decides afresh.
        let fresh = cat.register("t", Relation::single_u32("key", vec![9, 3, 1_000]));
        assert!(fresh.key_codes.is_empty());
    }

    #[test]
    fn unknown_lookups_fail() {
        let cat = Catalog::new();
        assert!(matches!(cat.get("nope"), Err(CoreError::UnknownTable(_))));
        cat.register("t", Relation::single_u32("key", vec![1]));
        assert!(matches!(
            cat.column_props("t", "missing"),
            Err(CoreError::UnknownColumn(_))
        ));
    }

    #[test]
    fn replace_and_drop() {
        let cat = Catalog::new();
        cat.register("t", Relation::single_u32("key", vec![1, 2]));
        cat.register("t", Relation::single_u32("key", vec![7]));
        assert_eq!(cat.get("t").unwrap().relation.rows(), 1);
        assert!(cat.drop_table("t"));
        assert!(!cat.drop_table("t"));
    }

    #[test]
    fn ddl_clock_moves_on_register_and_real_drops_only() {
        let cat = Catalog::new();
        let g0 = cat.current_generation();
        cat.register("t", Relation::single_u32("key", vec![1]));
        let g1 = cat.current_generation();
        assert!(g1 > g0);
        cat.register("t", Relation::single_u32("key", vec![2]));
        let g2 = cat.current_generation();
        assert!(g2 > g1, "replacement bumps the clock");
        assert!(!cat.drop_table("missing"));
        assert_eq!(cat.current_generation(), g2, "no-op drop does not bump");
        assert!(cat.drop_table("t"));
        assert!(cat.current_generation() > g2, "real drop bumps");
    }

    #[test]
    fn ddl_clock_never_runs_ahead_of_the_visible_entry() {
        // A reader that sees the clock at `g` must find an entry from
        // registration `g - 1` or later: otherwise it would cost a plan
        // against the old entry and store it under the new generation.
        let cat = Catalog::new();
        cat.register("t", Relation::single_u32("key", vec![0]));
        let done = std::sync::atomic::AtomicBool::new(false);
        let start = std::sync::Barrier::new(2);
        std::thread::scope(|scope| {
            scope.spawn(|| {
                start.wait();
                for v in 1..2_000u32 {
                    cat.register("t", Relation::single_u32("key", vec![v]));
                }
                done.store(true, Ordering::Relaxed);
            });
            start.wait();
            while !done.load(Ordering::Relaxed) {
                let clock = cat.current_generation();
                let seen = cat.get("t").unwrap().generation;
                assert!(seen + 1 >= clock, "clock {clock} ahead of entry {seen}");
            }
        });
    }

    #[test]
    fn ddl_clock_never_lags_a_visible_drop() {
        // A reader that no longer finds an entry it saw registered at
        // generation `g` must read the clock past that drop (`g + 2`):
        // otherwise it would stamp a plan that failed on — or was costed
        // without — the table with a generation from before the drop.
        let cat = Catalog::new();
        let done = std::sync::atomic::AtomicBool::new(false);
        let start = std::sync::Barrier::new(2);
        std::thread::scope(|scope| {
            scope.spawn(|| {
                start.wait();
                for v in 0..2_000u32 {
                    cat.register("t", Relation::single_u32("key", vec![v]));
                    cat.drop_table("t");
                }
                done.store(true, Ordering::Relaxed);
            });
            start.wait();
            let mut last_seen = None;
            while !done.load(Ordering::Relaxed) {
                match cat.get("t") {
                    Ok(entry) => last_seen = Some(entry.generation),
                    Err(_) => {
                        let clock = cat.current_generation();
                        if let Some(g) = last_seen {
                            assert!(clock >= g + 2, "clock {clock} lags the drop of {g}");
                        }
                    }
                }
            }
        });
    }

    #[test]
    fn replace_data_bumps_data_clock_but_not_ddl_clock() {
        let cat = Catalog::new();
        let old = cat.register("t", Relation::single_u32("key", vec![1, 2]));
        let ddl = cat.current_generation();
        let reg = cat.generation_of("t").unwrap();
        assert_eq!(cat.data_generation_of("t"), Some(0));
        let three = Relation::single_u32("key", vec![1, 2, 3]);
        let entry = cat.replace_data("t", &old, three, None).unwrap();
        assert_eq!(entry.relation.rows(), 3);
        // Stats are refreshed against the new rows…
        assert_eq!(cat.column_props("t", "key").unwrap().rows, 3);
        // …the data clock moved…
        assert_eq!(cat.data_generation_of("t"), Some(1));
        // …but neither the registration generation nor the DDL clock did,
        // so cached plans over "t" keep being served.
        assert_eq!(cat.generation_of("t"), Some(reg));
        assert_eq!(cat.current_generation(), ddl);
        // A real re-register resets the data clock and bumps both others.
        let fresh = cat.register("t", Relation::single_u32("key", vec![9]));
        assert_eq!(cat.data_generation_of("t"), Some(0));
        assert!(cat.current_generation() > ddl);
        // Rows derived from a snapshot the table has moved past — by DDL
        // or by another append — are refused, and nothing moves.
        let stats = cat.stats_generation();
        for stale in [&old, &entry] {
            let rows = Relation::single_u32("key", vec![1]);
            assert!(matches!(
                cat.replace_data("t", stale, rows, None),
                Err(CoreError::TableChanged(_))
            ));
        }
        assert_eq!(cat.get("t").unwrap().generation, fresh.generation);
        assert_eq!(cat.stats_generation(), stats);
        let rows = Relation::single_u32("k", vec![]);
        assert!(matches!(
            cat.replace_data("missing", &fresh, rows, None),
            Err(CoreError::UnknownTable(_))
        ));
    }

    #[test]
    fn replace_data_folds_a_delta_that_extends_the_snapshot() {
        use dqo_storage::{Column, Field, Schema, Value};
        let schema = Schema::new(vec![
            Field::new("key", DataType::U32),
            Field::new("v", DataType::U32),
        ])
        .unwrap();
        let two = |k: Vec<u32>, v: Vec<u32>| {
            Relation::new(schema.clone(), vec![Column::U32(k), Column::U32(v)]).unwrap()
        };
        let exact = |entry: &TableEntry| {
            for col in ["key", "v"] {
                let data = entry.relation.column(col).unwrap().as_u32().unwrap();
                assert_eq!(entry.column_props[col], DataProps::compute(data), "{col}");
            }
        };
        let cat = Catalog::new();
        let base = cat.register("t", two(vec![0, 1, 2], vec![0, 100, 7]));
        // `key` is dense and folds; `v` is sparse and gains a key inside
        // its range, so its fold falls back to computing.
        let appended = base
            .relation
            .append_rows(&[vec![Value::U32(3), Value::U32(50)]])
            .unwrap();
        let delta = RowDelta {
            base: &base.relation,
            rows: &appended.delta,
            at: None,
        };
        let entry = cat
            .replace_data("t", &base, appended.combined, Some(delta))
            .unwrap();
        exact(&entry);
        // A delta over some other relation — even one with equal rows — is
        // not folded: these bogus rows would otherwise corrupt the stats.
        let copy = (*entry.relation).clone();
        let bogus = two(vec![1_000], vec![1_000]);
        let next = entry
            .relation
            .append_rows(&[vec![Value::U32(4), Value::U32(1)]])
            .unwrap();
        let delta = RowDelta {
            base: &copy,
            rows: &bogus,
            at: None,
        };
        let entry = cat
            .replace_data("t", &entry, next.combined, Some(delta))
            .unwrap();
        exact(&entry);
    }

    #[test]
    fn stats_clock_moves_on_every_statistics_change() {
        let cat = Catalog::new();
        let s0 = cat.stats_generation();
        cat.register("t", Relation::single_u32("key", vec![1, 2]));
        let s1 = cat.stats_generation();
        assert!(s1 > s0, "register bumps the stats clock");
        let ddl = cat.current_generation();
        let old = cat.get("t").unwrap();
        cat.replace_data("t", &old, Relation::single_u32("key", vec![1, 2, 3]), None)
            .unwrap();
        let s2 = cat.stats_generation();
        assert!(s2 > s1, "replace_data bumps the stats clock");
        assert_eq!(
            cat.current_generation(),
            ddl,
            "…while the DDL clock stays put"
        );
        assert_eq!(cat.table_stats_version("t").map(|(_, d)| d), Some(1));
        assert!(!cat.drop_table("missing"));
        assert_eq!(cat.stats_generation(), s2, "no-op drop does not bump");
        assert!(cat.drop_table("t"));
        assert!(cat.stats_generation() > s2, "real drop bumps");
        assert_eq!(cat.table_stats_version("t"), None);
    }

    #[test]
    fn mutation_lock_is_per_table_and_stable() {
        let cat = Catalog::new();
        let a1 = cat.mutation_lock("a");
        let a2 = cat.mutation_lock("a");
        let b = cat.mutation_lock("b");
        assert!(Arc::ptr_eq(&a1, &a2), "one lock per table");
        assert!(!Arc::ptr_eq(&a1, &b), "distinct tables, distinct locks");
    }

    #[test]
    fn resolve_column_across_tables() {
        let cat = Catalog::new();
        cat.register("r", Relation::single_u32("a", vec![0, 1]));
        cat.register("s", Relation::single_u32("b", vec![5]));
        assert_eq!(cat.resolve_column(["r", "s"], "b").unwrap().rows, 1);
        assert!(cat.resolve_column(["r", "s"], "zzz").is_none());
    }

    #[test]
    fn register_partitioned_stores_map_and_flat_relation() {
        use dqo_storage::{PartitionSpec, PartitionedRelation};
        let cat = Catalog::new();
        let rel = Relation::single_u32("key", vec![25, 3, 17, 8]);
        let pr = PartitionedRelation::new(rel, PartitionSpec::range("key", vec![10, 20])).unwrap();
        cat.register_partitioned("t", pr);
        let entry = cat.get("t").unwrap();
        // Flat relation is partition-major …
        assert_eq!(
            entry.relation.column("key").unwrap().as_u32().unwrap(),
            &[3, 8, 17, 25]
        );
        // … with column props over the reordered data.
        assert_eq!(cat.column_props("t", "key").unwrap().rows, 4);
        let p = cat.partitioning_of("t").unwrap();
        assert_eq!(p.part_count(), 3);
        assert!(cat.partitioning_of("missing").is_none());
        // Flat tables report no partitioning.
        cat.register("f", Relation::single_u32("key", vec![1]));
        assert!(cat.partitioning_of("f").is_none());
    }

    #[test]
    fn replace_data_extends_partitioning_on_append() {
        use dqo_storage::{PartitionSpec, PartitionedRelation, Value};
        let cat = Catalog::new();
        let rel = Relation::single_u32("key", vec![5, 15, 25]);
        let pr = PartitionedRelation::new(rel, PartitionSpec::range("key", vec![10, 20])).unwrap();
        cat.register_partitioned("t", pr);
        let v_all = cat.stats_version_for("t", None).unwrap();
        let v01 = cat.stats_version_for("t", Some(&[0, 1])).unwrap();
        let v12 = cat.stats_version_for("t", Some(&[1, 2])).unwrap();
        assert_ne!(v01, v12, "distinct survivor sets have distinct versions");
        // Append one row into partition 2 only.
        let entry = cat.get("t").unwrap();
        let appended = entry.relation.append_rows(&[vec![Value::U32(30)]]).unwrap();
        cat.replace_data("t", &entry, appended.combined, None)
            .unwrap();
        let p = cat.partitioning_of("t").unwrap();
        assert_eq!(p.parts()[2].ranges, vec![(2, 4)]);
        assert_eq!(p.parts()[2].data_generation, 1);
        assert_eq!(p.parts()[0].data_generation, 0);
        // Table-level version moved; the untouched-partition version did not.
        assert_ne!(cat.stats_version_for("t", None), Some(v_all));
        assert_eq!(cat.stats_version_for("t", Some(&[0, 1])), Some(v01));
        assert_ne!(cat.stats_version_for("t", Some(&[1, 2])), Some(v12));
        // Flat-table parts request falls back to the table version.
        cat.register("f", Relation::single_u32("key", vec![1]));
        assert_eq!(
            cat.stats_version_for("f", Some(&[0])),
            cat.table_stats_version("f")
        );
    }

    #[test]
    fn replace_data_shrink_reroutes_and_bumps_all_partitions() {
        use dqo_storage::{PartitionSpec, PartitionedRelation};
        let cat = Catalog::new();
        let rel = Relation::single_u32("key", vec![5, 15, 25]);
        let pr = PartitionedRelation::new(rel, PartitionSpec::range("key", vec![10, 20])).unwrap();
        let old = cat.register_partitioned("t", pr);
        cat.replace_data("t", &old, Relation::single_u32("key", vec![25, 5]), None)
            .unwrap();
        let p = cat.partitioning_of("t").unwrap();
        assert_eq!(p.parts()[0].ranges, vec![(1, 2)]);
        assert_eq!(p.parts()[1].ranges, Vec::<(usize, usize)>::new());
        assert_eq!(p.parts()[2].ranges, vec![(0, 1)]);
        assert!(p.parts().iter().all(|m| m.data_generation == 1));
    }

    #[test]
    fn table_names_lists_registrations() {
        let cat = Catalog::new();
        cat.register("a", Relation::single_u32("k", vec![]));
        cat.register("b", Relation::single_u32("k", vec![]));
        let mut names = cat.table_names();
        names.sort();
        assert_eq!(names, vec!["a", "b"]);
    }
}
