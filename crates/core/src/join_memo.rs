//! Join indexes built once per table snapshot.
//!
//! An HJ or SPHJ whose build side scans a table whole builds the same
//! [`JoinIndex`] on every query until the table changes — §3's building
//! block, rebuilt per query. A [`JoinMemo`] keeps it on the catalog entry
//! it was built from ([`TableEntry::join_memo`]): the first query that
//! needs it builds it, and every later query and session reading that
//! entry probes it. Beside it the memo keeps the build columns those
//! queries read, each gathered once into the index's posting order
//! ([`JoinIndex::posting_rows`]), so a probe reaches a build value in one
//! access instead of through the build row.
//!
//! Nothing here is ever invalidated. An INSERT or a re-registration
//! publishes a new entry with an empty memo, and a reader still holding
//! the old entry goes on probing the old memo, which describes exactly the
//! rows it reads; a clone of an entry, whose rows may differ, starts empty
//! too. No lock is held during a build: two readers racing the first one
//! both build, and the first to finish is kept. The optimiser does not see
//! the memo, and an SPH-index AV still answers before it.

use crate::catalog::TableEntry;
use crate::Result;
use dqo_exec::join::JoinIndex;
use dqo_plan::JoinAlgorithm;
use dqo_storage::{DataProps, Relation, Schema, Sortedness};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

/// The join indexes built over one table entry's rows, each under its
/// build column and join algorithm (see the module docs).
#[derive(Default)]
pub struct JoinMemo {
    indexes: Mutex<Vec<Arc<MemoIndex>>>,
}

impl Clone for JoinMemo {
    /// An empty memo: the clone's entry may hold other rows.
    fn clone(&self) -> Self {
        JoinMemo::default()
    }
}

impl fmt::Debug for JoinMemo {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("JoinMemo")
            .field("indexes", &self.indexes.lock().len())
            .finish()
    }
}

/// One memoised index, and the build sides carried into its posting
/// order so far: one entry per set of build columns a plan read.
pub(crate) struct MemoIndex {
    column: String,
    algo: JoinAlgorithm,
    pub(crate) index: Arc<JoinIndex>,
    carried: Mutex<Vec<Arc<TableEntry>>>,
}

impl JoinMemo {
    /// The index over `column` under `algo`, built by `build` when no
    /// reader has built it yet (outside the lock: racing readers each
    /// build, and the first to finish is kept); and whether this call
    /// built one.
    pub(crate) fn index(
        &self,
        column: &str,
        algo: JoinAlgorithm,
        build: impl FnOnce() -> Result<JoinIndex>,
    ) -> Result<(Arc<MemoIndex>, bool)> {
        let find = |all: &[Arc<MemoIndex>]| {
            (all.iter().find(|m| m.column == column && m.algo == algo)).cloned()
        };
        if let Some(hit) = find(&self.indexes.lock()) {
            return Ok((hit, false));
        }
        let built = Arc::new(MemoIndex {
            column: column.to_owned(),
            algo,
            index: Arc::new(build()?),
            carried: Mutex::default(),
        });
        let mut all = self.indexes.lock();
        match find(&all) {
            Some(first) => Ok((first, true)),
            None => {
                all.push(Arc::clone(&built));
                Ok((built, true))
            }
        }
    }
}

impl MemoIndex {
    /// `entry`'s columns `names` in posting order, as an entry of their
    /// own for a join's build side to read: the carried columns under
    /// their names and dictionaries, `entry`'s statistics of them — the
    /// same values, in an order no statistic vouches for, so none is
    /// called sorted — and their key codes gathered alike. Gathers each
    /// column no earlier call carried, and says how many it gathered.
    pub(crate) fn carry(
        &self,
        entry: &TableEntry,
        names: &[&str],
    ) -> Result<(Arc<TableEntry>, usize)> {
        let same = |e: &TableEntry| {
            e.relation
                .schema()
                .fields()
                .iter()
                .map(|f| &f.name)
                .eq(names)
        };
        let known = {
            let all = self.carried.lock();
            if let Some(hit) = all.iter().find(|e| same(e)) {
                return Ok((Arc::clone(hit), 0));
            }
            all.clone()
        };
        let rel = &entry.relation;
        let (mut order, mut gathered) = (None, 0);
        let (mut columns, mut props, mut codes) = (Vec::new(), HashMap::new(), HashMap::new());
        for &name in names {
            let earlier = known.iter().find_map(|e| {
                let column = e.relation.column_arc(name).ok()?;
                Some((column, e.key_codes.get(name).cloned()))
            });
            let (column, coded) = match earlier {
                Some(carried) => carried,
                None => {
                    // An empty table's postings name no row.
                    let order: &[u32] = match rel.is_empty() {
                        true => &[],
                        false => order.get_or_insert_with(|| self.index.posting_rows()),
                    };
                    gathered += 1;
                    let coded = entry.key_codes.get(name);
                    (
                        Arc::new(rel.column(name)?.gather(order)),
                        coded.map(|c| Arc::new(c.gather(order))),
                    )
                }
            };
            if let Some(p) = entry.column_props.get(name) {
                let rows = column.len() as u64;
                let unsorted = DataProps {
                    sortedness: Sortedness::Unsorted,
                    rows,
                    ..*p
                };
                props.insert(name.to_owned(), unsorted);
            }
            if let Some(c) = coded {
                codes.insert(name.to_owned(), c);
            }
            columns.push(column);
        }
        let fields = names.iter().map(|&n| Ok(rel.schema().field(n)?.clone()));
        let mut relation =
            Relation::from_arcs(Schema::new(fields.collect::<Result<_>>()?)?, columns)?;
        for (at, &name) in names.iter().enumerate() {
            if let Some(dict) = rel.dictionary(name)? {
                relation = relation.with_dictionary_at(at, Arc::clone(dict))?;
            }
        }
        let carried = Arc::new(TableEntry {
            relation: Arc::new(relation),
            column_props: props,
            key_codes: codes,
            generation: entry.generation,
            data_generation: entry.data_generation,
            partitioning: None,
            sorted_prefix: None,
            join_memo: JoinMemo::default(),
        });
        self.carried.lock().push(Arc::clone(&carried));
        Ok((carried, gathered))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::Catalog;
    use dqo_storage::{Column, DataType, Field};

    /// `t(k, v)` with 64 rows: `k` a shuffled dense key, `v` = 10·k.
    fn entry() -> Arc<TableEntry> {
        let k: Vec<u32> = (0..64).map(|i| i * 37 % 64).collect();
        let v = k.iter().map(|&k| 10 * k).collect();
        let schema = Schema::new(vec![
            Field::new("k", DataType::U32),
            Field::new("v", DataType::U32),
        ])
        .unwrap();
        let cat = Catalog::new();
        cat.register(
            "t",
            Relation::new(schema, vec![Column::U32(k), Column::U32(v)]).unwrap(),
        );
        cat.get("t").unwrap()
    }

    fn identity(entry: &TableEntry) -> Result<JoinIndex> {
        let keys = entry.relation.column("k")?.as_u32()?;
        Ok(JoinIndex::identity(keys, 0, 63)?)
    }

    #[test]
    fn one_index_per_column_and_algorithm_and_none_in_a_clone() {
        let entry = entry();
        let algo = JoinAlgorithm::StaticPerfectHash;
        let (first, built) = entry
            .join_memo
            .index("k", algo, || identity(&entry))
            .unwrap();
        assert!(built);
        let (again, built) = (entry.join_memo)
            .index("k", algo, || panic!("memoised"))
            .unwrap();
        assert!(!built && Arc::ptr_eq(&first, &again));
        let hashed = JoinAlgorithm::HashBased;
        let (_, built) = (entry.join_memo)
            .index("k", hashed, || Ok(JoinIndex::hashed(&[])))
            .unwrap();
        assert!(built, "another algorithm, another index");
        let clone = (*entry).clone();
        assert_eq!(format!("{:?}", clone.join_memo), "JoinMemo { indexes: 0 }");
        assert_eq!(format!("{:?}", entry.join_memo), "JoinMemo { indexes: 2 }");
    }

    #[test]
    fn of_two_racing_builds_the_first_to_finish_is_kept() {
        let entry = entry();
        let algo = JoinAlgorithm::StaticPerfectHash;
        let mut inner = None;
        // A second reader misses too and finishes first, while this one
        // builds.
        let (kept, built) = (entry.join_memo)
            .index("k", algo, || {
                inner = Some(
                    entry
                        .join_memo
                        .index("k", algo, || identity(&entry))
                        .unwrap(),
                );
                identity(&entry)
            })
            .unwrap();
        let (first, first_built) = inner.unwrap();
        assert!(built && first_built, "both built");
        assert!(Arc::ptr_eq(&kept, &first), "the first is kept");
    }

    #[test]
    fn a_carried_column_is_gathered_once_into_posting_order() {
        let entry = entry();
        let algo = JoinAlgorithm::StaticPerfectHash;
        let (memo, _) = entry
            .join_memo
            .index("k", algo, || identity(&entry))
            .unwrap();
        let (carried, gathered) = memo.carry(&entry, &["v"]).unwrap();
        assert_eq!(gathered, 1);
        // Slot `k` holds the row with key `k`, so `v` in posting order is
        // 10·k at position k.
        let v = carried.relation.column("v").unwrap().as_u32().unwrap();
        assert_eq!(v, (0..64).map(|k| 10 * k).collect::<Vec<u32>>());
        let props = carried.column_props["v"];
        assert_eq!(props.sortedness, Sortedness::Unsorted);
        assert_eq!((props.min, props.max), (0, 630));
        let (_, gathered) = memo.carry(&entry, &["v", "k"]).unwrap();
        assert_eq!(gathered, 1, "only `k` is new");
    }
}
