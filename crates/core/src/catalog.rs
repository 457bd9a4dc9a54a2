//! The table catalog: relations plus the statistics DQO feeds on.
//!
//! Every `u32`-typed column gets exact [`DataProps`] at registration time
//! (sortedness, density, distinct count, range) — §4.1's "we always assume
//! the number of distinct values to be known" holds because we compute it.

use crate::error::CoreError;
use crate::Result;
use dqo_storage::{stats, DataProps, DataType, PartitionedRelation, Partitioning, Relation};
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
}

impl TableEntry {
    fn from_relation(relation: Arc<Relation>, generation: u64, data_generation: u64) -> Self {
        let mut column_props = HashMap::new();
        for field in relation.schema().fields() {
            if matches!(field.data_type, DataType::U32 | DataType::Str) {
                if let Ok(col) = relation.column(&field.name) {
                    if let Ok(data) = col.as_u32() {
                        column_props.insert(field.name.clone(), stats::detect_props(data));
                    }
                }
            }
        }
        TableEntry {
            relation,
            column_props,
            generation,
            data_generation,
            partitioning: None,
        }
    }

    fn with_partitioning(mut self, partitioning: Option<Arc<Partitioning>>) -> Self {
        self.partitioning = partitioning;
        self
    }
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
    pub fn register(&self, name: impl Into<String>, relation: Relation) -> Arc<TableEntry> {
        self.publish(
            name.into(),
            TableEntry::from_relation(Arc::new(relation), 0, 0),
        )
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
            TableEntry::from_relation(Arc::new(partitioned.flat().clone()), 0, 0)
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

    /// Swap a table's rows in place — the append path. Statistics are
    /// recomputed and the per-table **data generation** bumps, but the
    /// registration generation and the catalog-wide DDL clock do **not**
    /// move: the table is still the same table, so cached plans that scan
    /// it stay valid and simply observe the new rows at their next
    /// execution. Atomic per entry — a concurrent reader sees either the
    /// old snapshot or the new one, never a mix.
    pub fn replace_data(&self, name: &str, relation: Relation) -> Result<Arc<TableEntry>> {
        let mut tables = self.tables.write();
        let old = tables
            .get(name)
            .ok_or_else(|| CoreError::UnknownTable(name.to_owned()))?;
        let partitioning = match &old.partitioning {
            None => None,
            Some(part) => Some(Arc::new(Self::refresh_partitioning(
                part,
                &relation,
                old.relation.rows(),
            )?)),
        };
        let entry = Arc::new(
            TableEntry::from_relation(Arc::new(relation), old.generation, old.data_generation + 1)
                .with_partitioning(partitioning),
        );
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

    /// Look up a table.
    pub fn get(&self, name: &str) -> Result<Arc<TableEntry>> {
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
        cat.register("t", Relation::single_u32("key", vec![1, 2]));
        let ddl = cat.current_generation();
        let reg = cat.generation_of("t").unwrap();
        assert_eq!(cat.data_generation_of("t"), Some(0));
        let entry = cat
            .replace_data("t", Relation::single_u32("key", vec![1, 2, 3]))
            .unwrap();
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
        cat.register("t", Relation::single_u32("key", vec![9]));
        assert_eq!(cat.data_generation_of("t"), Some(0));
        assert!(cat.current_generation() > ddl);
        assert!(cat
            .replace_data("missing", Relation::single_u32("k", vec![]))
            .is_err());
    }

    #[test]
    fn stats_clock_moves_on_every_statistics_change() {
        let cat = Catalog::new();
        let s0 = cat.stats_generation();
        cat.register("t", Relation::single_u32("key", vec![1, 2]));
        let s1 = cat.stats_generation();
        assert!(s1 > s0, "register bumps the stats clock");
        let ddl = cat.current_generation();
        cat.replace_data("t", Relation::single_u32("key", vec![1, 2, 3]))
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
        cat.replace_data("t", appended.combined).unwrap();
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
        cat.register_partitioned("t", pr);
        cat.replace_data("t", Relation::single_u32("key", vec![25, 5]))
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
