//! Algorithmic-View build kernels.
//!
//! The paper's §3 story is that AVs are precomputed *offline* so query
//! time gets them at zero build cost — which makes the build itself the
//! thing worth parallelising: it is embarrassingly parallel and competes
//! with live queries only through the pool it shares with them. This
//! module supplies the two kernels `dqo-core`'s AV materialiser needs
//! beside the sort and the grouping, each taking an optional pool:
//!
//! * [`parallel_sph_index_build`] — the build of an identity-mapped
//!   [`JoinIndex`] in the layout [`JoinIndex::identity`] picks. Unique
//!   build keys fill the one domain-sized array in a single pass (cheaper
//!   than any split of it). Repeated keys take a partitioned CSR build:
//!   morsel-parallel key scanning into per-block histograms, one prefix
//!   /cursor pass over the domain, then a parallel fill where every block
//!   scatters its rows through its own cursor vector. Within a slot,
//!   block `b`'s rows land before block `b + 1`'s and each block scans
//!   rows in ascending order, so the CSR layout is **bit-identical** to
//!   [`JoinIndex::identity`]'s at any DOP or steal order.
//! * [`parallel_gather`] — a range-partitioned [`Relation::gather`]:
//!   the selection vector splits into contiguous chunks, every
//!   (column, chunk) pair gathers independently, and chunks concatenate
//!   in chunk order — the result equals [`Relation::gather`] column for
//!   column.
//!
//! Both run as one block on the caller thread — [`JoinIndex::identity`]
//! and [`Relation::gather`] themselves — with no pool, or when splitting
//! cannot pay (one worker, tiny inputs, or a domain so sparse that
//! per-block histograms would dwarf the scan).

use crate::pool::{map_tasks, PoolError, ThreadPool};
use dqo_exec::join::JoinIndex;
use dqo_exec::ExecError;
use dqo_storage::{DataType, Relation, RowId};
use std::sync::Mutex;

/// Smallest per-block row count worth a dedicated histogram pass; below
/// this one block wins outright.
pub const MIN_SPH_BLOCK_ROWS: usize = 1 << 12;

/// Smallest gather chunk worth a dedicated task.
pub const MIN_GATHER_CHUNK_ROWS: usize = 1 << 12;

/// Build an identity-mapped [`JoinIndex`] over `keys` for the dense
/// domain `[min, max]` on `pool`, else on the caller thread —
/// bit-identical to [`JoinIndex::identity`], layout included.
///
/// Unique keys keep [`JoinIndex::unique`]'s array. Otherwise the CSR
/// decomposition: the rows split into one contiguous block per worker;
/// each block is scanned once into a per-block slot histogram (also
/// validating domain membership — the violation on the smallest row
/// index is reported, exactly like one scan in row order would); one
/// pass turns the histograms into global CSR offsets plus
/// per-block write cursors; a second parallel scan scatters each
/// block's row indices through its cursors into disjoint positions of
/// the shared `rows` array.
pub fn parallel_sph_index_build(
    pool: Option<&ThreadPool>,
    keys: &[u32],
    min: u32,
    max: u32,
) -> Result<JoinIndex, ExecError> {
    if max < min {
        return Err(ExecError::PreconditionViolated {
            algorithm: "SPHJ",
            detail: format!("empty domain: max ({max}) < min ({min})"),
        });
    }
    let n = keys.len();
    let domain = (u64::from(max) - u64::from(min) + 1) as usize;
    let threads = pool.map_or(1, ThreadPool::threads);
    let blocks = threads.min(n.div_ceil(MIN_SPH_BLOCK_ROWS)).max(1);
    // A domain far sparser than the per-block row count would make the
    // histogram passes (blocks × domain) dominate the scan; one block
    // touches the domain only once.
    let pool = match pool {
        Some(pool) if blocks > 1 && domain <= (n / blocks).max(MIN_SPH_BLOCK_ROWS) * 8 => pool,
        _ => return JoinIndex::identity(keys, min, max),
    };
    // A domain violation before the first duplicate is reported here; one
    // after it by the scan below — either way the first in row order.
    if let Some(index) = JoinIndex::unique(keys, min, max)? {
        return Ok(index);
    }

    // Per-block scan result: slot histogram plus the first out-of-domain
    // key as (row, key), if any.
    type BlockScan = (Vec<u32>, Option<(usize, u32)>);

    // Phase 1 — morsel-parallel key scan: per-block slot histograms plus
    // the first out-of-domain key (smallest row index within the block).
    let bounds: Vec<usize> = (0..=blocks).map(|b| b * n / blocks).collect();
    let scanned: Vec<BlockScan> = pool.map_tasks(blocks, |b| {
        let (start, end) = (bounds[b], bounds[b + 1]);
        let mut hist = vec![0u32; domain];
        let mut violation = None;
        for (i, &k) in keys[start..end].iter().enumerate() {
            match k.checked_sub(min) {
                Some(off) if (off as usize) < domain => hist[off as usize] += 1,
                _ => {
                    if violation.is_none() {
                        violation = Some((start + i, k));
                    }
                }
            }
        }
        (hist, violation)
    })?;
    // Blocks are in row order, so the first block reporting a violation
    // holds the smallest offending row — the same key one count pass in
    // row order would have rejected first.
    if let Some(&(_, key)) = scanned.iter().find_map(|(_, v)| v.as_ref()) {
        return Err(ExecError::PreconditionViolated {
            algorithm: "SPHJ",
            detail: format!("build key {key} outside dense domain [{min}, {max}]"),
        });
    }

    // Phase 2 — one cursor pass: global CSR offsets, and each block's
    // histogram rewritten in place into its starting write cursors
    // (block b's range for slot s begins after blocks 0..b's counts).
    let mut hists: Vec<Vec<u32>> = scanned.into_iter().map(|(h, _)| h).collect();
    let mut offsets = vec![0u32; domain + 1];
    let mut cursor = 0u32;
    for s in 0..domain {
        offsets[s] = cursor;
        for hist in &mut hists {
            let count = hist[s];
            hist[s] = cursor;
            cursor += count;
        }
    }
    offsets[domain] = cursor;

    // Phase 3 — parallel fill: every block scatters its rows through its
    // own cursors. The (block, slot) write ranges are disjoint by
    // construction, so the blocks never touch the same output position.
    let cursors: Vec<Mutex<Vec<u32>>> = hists.into_iter().map(Mutex::new).collect();
    let mut rows = vec![0u32; n];
    {
        /// Raw base pointer shareable across runner slots; sound because
        /// every (block, slot) cursor range is disjoint.
        struct OutPtr(*mut u32);
        unsafe impl Sync for OutPtr {}
        impl OutPtr {
            fn get(&self) -> *mut u32 {
                self.0
            }
        }
        let base = OutPtr(rows.as_mut_ptr());
        pool.map_tasks(blocks, |b| {
            let (start, end) = (bounds[b], bounds[b + 1]);
            let mut cur = cursors[b].lock().expect("block cursors");
            for (i, &k) in keys[start..end].iter().enumerate() {
                let off = (k - min) as usize;
                // SAFETY: `cur[off]` enumerates positions inside block
                // b's slice of slot off's CSR range — disjoint from
                // every other block and slot, and < n; `map_tasks`
                // blocks until all tasks finish before `rows` is read.
                unsafe { *base.get().add(cur[off] as usize) = (start + i) as u32 };
                cur[off] += 1;
            }
        })?;
    }
    JoinIndex::from_csr(min, offsets, rows)
}

/// Gather `indices` out of `rel` on `pool`, else on the caller thread —
/// equal to [`Relation::gather`] column for column (dictionaries
/// included).
///
/// The selection vector splits into contiguous chunks; each
/// (column, chunk) task gathers independently and the chunks
/// concatenate in chunk order, so the output is deterministic for any
/// DOP or steal order.
pub fn parallel_gather<I: RowId + Sync>(
    pool: Option<&ThreadPool>,
    rel: &Relation,
    indices: &[I],
) -> Result<Relation, PoolError> {
    let width = rel.schema().width();
    let chunks = pool
        .map_or(1, ThreadPool::threads)
        .min(indices.len().div_ceil(MIN_GATHER_CHUNK_ROWS))
        .max(1);
    if chunks == 1 || width == 0 {
        return Ok(rel.gather(indices));
    }
    let bounds: Vec<usize> = (0..=chunks).map(|c| c * indices.len() / chunks).collect();
    let parts = map_tasks(pool, width * chunks, |t| {
        let (col, chunk) = (t / chunks, t % chunks);
        let column = rel.column_at(col).expect("column index in range");
        column.gather(&indices[bounds[chunk]..bounds[chunk + 1]])
    })?;
    let mut columns = Vec::with_capacity(width);
    let mut iter = parts.into_iter();
    for _ in 0..width {
        let mut column = iter.next().expect("one chunk per column at least");
        for _ in 1..chunks {
            let part = iter.next().expect("chunk count is fixed");
            column.append(&part).expect("chunks share the column type");
        }
        columns.push(column);
    }
    let mut out = Relation::new(rel.schema().clone(), columns)
        .expect("gathered columns match the source schema");
    // Re-attach dictionaries so decoded views keep working
    // (`Relation::gather` carries them over implicitly).
    for field in rel.schema().fields() {
        if field.data_type == DataType::Str {
            if let Ok(Some(dict)) = rel.dictionary(&field.name) {
                out = out
                    .with_dictionary(&field.name, std::sync::Arc::clone(dict))
                    .expect("field is a Str column of the same schema");
            }
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dqo_storage::{Column, Dictionary, Field, Schema};

    fn keys(n: usize, domain: u32, seed: u32) -> Vec<u32> {
        (0..n)
            .map(|i| (i as u32).wrapping_mul(2_654_435_761).wrapping_add(seed) % domain)
            .collect()
    }

    #[test]
    fn sph_build_bit_identical_to_serial_across_threads() {
        let data = keys(60_000, 512, 3);
        let serial = JoinIndex::identity(&data, 0, 511).unwrap();
        for threads in [1, 2, 8] {
            let pool = ThreadPool::new(threads);
            let par = parallel_sph_index_build(Some(&pool), &data, 0, 511).unwrap();
            assert_eq!(par, serial, "threads={threads}");
        }
    }

    #[test]
    fn sph_build_matches_serial_for_both_layouts() {
        // A permutation of the domain (unique layout) and the same keys
        // with repeats (CSR), each larger than one block per worker.
        let unique: Vec<u32> = (0..60_000u32)
            .map(|i| i.wrapping_mul(2_654_435_761) % 65_536)
            .collect::<std::collections::BTreeSet<_>>()
            .into_iter()
            .rev()
            .collect();
        let repeated: Vec<u32> = unique.iter().chain(&unique[..100]).copied().collect();
        let max = *unique.iter().max().unwrap();
        for (data, is_unique) in [(&unique, true), (&repeated, false)] {
            let serial = JoinIndex::identity(data, 0, max).unwrap();
            assert_eq!(serial.is_unique(), is_unique);
            for threads in [1, 2, 8] {
                let pool = ThreadPool::new(threads);
                let par = parallel_sph_index_build(Some(&pool), data, 0, max).unwrap();
                assert_eq!(par, serial, "threads={threads} unique={is_unique}");
            }
        }
    }

    #[test]
    fn sph_build_offset_domain_and_duplicates() {
        let mut data = keys(40_000, 100, 9);
        for k in &mut data {
            *k += 1_000;
        }
        let serial = JoinIndex::identity(&data, 1_000, 1_099).unwrap();
        let pool = ThreadPool::new(4);
        let par = parallel_sph_index_build(Some(&pool), &data, 1_000, 1_099).unwrap();
        assert_eq!(par, serial);
    }

    #[test]
    fn sph_build_rejects_out_of_domain_key_like_serial() {
        let mut data = keys(50_000, 64, 1);
        data[17_777] = 64; // outside [0, 63]
        let pool = ThreadPool::new(8);
        let err = parallel_sph_index_build(Some(&pool), &data, 0, 63).unwrap_err();
        let serial_err = JoinIndex::identity(&data, 0, 63).unwrap_err();
        assert_eq!(format!("{err}"), format!("{serial_err}"));
    }

    #[test]
    fn sph_build_inverted_domain_rejected() {
        let pool = ThreadPool::new(2);
        assert!(parallel_sph_index_build(Some(&pool), &[1], 5, 2).is_err());
    }

    #[test]
    fn sph_build_degenerate_inputs() {
        let pool = ThreadPool::new(4);
        let empty = parallel_sph_index_build(Some(&pool), &[], 0, 0).unwrap();
        assert_eq!(empty, JoinIndex::identity(&[], 0, 0).unwrap());
        assert!(empty.probe(&[0, 7]).is_empty());
        let one = parallel_sph_index_build(Some(&pool), &[42], 42, 42).unwrap();
        assert_eq!(one, JoinIndex::identity(&[42], 42, 42).unwrap());
        assert_eq!(one.probe(&[42]).len(), 1);
    }

    #[test]
    fn sph_build_sparse_domain_falls_back_to_serial() {
        // Domain 1M over 20k rows: per-block histograms would dwarf the
        // scan, so the kernel must serial-fallback — and still agree.
        let data: Vec<u32> = (0..20_000u32).map(|i| i * 50).collect();
        let serial = JoinIndex::identity(&data, 0, 999_951).unwrap();
        let pool = ThreadPool::new(8);
        let par = parallel_sph_index_build(Some(&pool), &data, 0, 999_951).unwrap();
        assert_eq!(par, serial);
    }

    fn sample_relation(n: usize) -> Relation {
        let schema = Schema::new(vec![
            Field::new("k", DataType::U32),
            Field::new("v", DataType::U64),
            Field::new("f", DataType::Bool),
        ])
        .unwrap();
        Relation::new(
            schema,
            vec![
                Column::U32(keys(n, 1 << 20, 7)),
                Column::U64((0..n as u64).collect()),
                Column::Bool((0..n).map(|i| i % 3 == 0).collect()),
            ],
        )
        .unwrap()
    }

    /// `n` rows of a `u32` key beside a dictionary-coded `Str` column.
    fn relation_with_strings(n: usize) -> Relation {
        let names: Vec<String> = (0..n).map(|i| format!("s{}", i % 17)).collect();
        let (dict, codes) = Dictionary::encode_all(&names);
        let schema = Schema::new(vec![
            Field::new("k", DataType::U32),
            Field::new("name", DataType::Str),
        ])
        .unwrap();
        Relation::new(
            schema,
            vec![Column::U32(keys(n, 1 << 20, 7)), Column::Str(codes)],
        )
        .unwrap()
        .with_dictionary("name", std::sync::Arc::new(dict))
        .unwrap()
    }

    #[test]
    fn caller_thread_builds_match_the_dqo_exec_kernels() {
        let pool = ThreadPool::new(8);
        for n in [0usize, 1, 30_000] {
            let rel = relation_with_strings(n);
            let indices: Vec<u32> = (0..n as u32).rev().step_by(3).collect();
            let expect = rel.gather(&indices);
            let dict = |r: &Relation| r.dictionary("name").unwrap().map(std::sync::Arc::as_ptr);
            for leg in [None, Some(&pool)] {
                let got = parallel_gather(leg, &rel, &indices).unwrap();
                let ctx = format!("rows={n} pool={}", leg.is_some());
                assert_eq!(got.rows(), expect.rows(), "{ctx}");
                for c in 0..2 {
                    assert_eq!(
                        format!("{:?}", got.column_at(c).unwrap()),
                        format!("{:?}", expect.column_at(c).unwrap()),
                        "{ctx} column={c}"
                    );
                }
                assert!(dict(&got).is_some(), "{ctx}");
                assert_eq!(dict(&got), dict(&expect), "{ctx}");
            }
            // Repeated keys (CSR), and a permutation of the domain (unique).
            let repeated = keys(n, 64, 1);
            let unique: Vec<u32> = (0..n.min(64) as u32).rev().collect();
            for data in [repeated, unique] {
                let got = parallel_sph_index_build(None, &data, 0, 63).unwrap();
                assert_eq!(got, JoinIndex::identity(&data, 0, 63).unwrap(), "rows={n}");
            }
        }
        let mut data = keys(50_000, 64, 1);
        data[17_777] = 64; // outside [0, 63]
        let err = parallel_sph_index_build(None, &data, 0, 63).unwrap_err();
        let expect = JoinIndex::identity(&data, 0, 63).unwrap_err();
        assert_eq!(format!("{err}"), format!("{expect}"));
        assert!(parallel_sph_index_build(None, &[1], 5, 2).is_err());
    }

    #[test]
    fn gather_matches_serial_across_threads() {
        let rel = sample_relation(30_000);
        let indices: Vec<usize> = (0..30_000).rev().step_by(3).collect();
        let serial = rel.gather(&indices);
        for threads in [1, 2, 8] {
            let pool = ThreadPool::new(threads);
            let par = parallel_gather(Some(&pool), &rel, &indices).unwrap();
            assert_eq!(par.rows(), serial.rows(), "threads={threads}");
            for c in 0..serial.schema().width() {
                assert_eq!(
                    format!("{:?}", par.column_at(c).unwrap()),
                    format!("{:?}", serial.column_at(c).unwrap()),
                    "threads={threads} column={c}"
                );
            }
        }
    }

    #[test]
    fn gather_empty_and_tiny_selections() {
        let rel = sample_relation(100);
        let pool = ThreadPool::new(4);
        assert_eq!(
            parallel_gather::<usize>(Some(&pool), &rel, &[])
                .unwrap()
                .rows(),
            0
        );
        let one = parallel_gather(Some(&pool), &rel, &[99usize]).unwrap();
        assert_eq!(one.rows(), 1);
        assert_eq!(
            format!("{:?}", one.column_at(0).unwrap()),
            format!("{:?}", rel.gather(&[99usize]).column_at(0).unwrap())
        );
    }
}
