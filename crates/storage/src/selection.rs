//! Selections: which rows of a relation an operator's output consists of.
//!
//! Executor nodes hand each other a *view* — a relation handle plus a
//! [`Selection`] — instead of a freshly copied relation. A selection is
//! either a list of row ranges (a scan, a pruned partitioned scan, a
//! filter over sorted data) or explicit row ids (a filter's survivors, a
//! sort's permutation). A filter has two ways to shrink it. A comparison
//! on a column that ascends over every range is answered by
//! [`search_ranges`]: two binary searches per range, which cost per
//! range, not per row. Every other conjunct runs through the one
//! narrowing kernel, which tests every selected row's *value*. Over a
//! range it tests [`BLOCK_ROWS`] values at a time into one bit mask per
//! block ([`mask_range`]; vectorised, as in MonetDB/X100's predicate
//! primitives), and a further conjunct ANDs into those masks, testing only
//! the blocks some row still passes ([`mask_and`]). The masks
//! ([`Masked`]) are what a consumer that folds rows in place reads: it
//! skips a block no row passes, takes a full block whole and walks a
//! mixed block's set bits, and no row id is written. A consumer that needs
//! ids takes them from the masks ([`Masked::take`]): a full block as a
//! run, a sparse one by walking its set bits, a dense one through a
//! branch-free cursor — strictly ascending. [`Piece::narrow`] is the two
//! steps at once. Explicit row ids are narrowed row by row through that
//! cursor, a further conjunct over the survivors of the one before
//! ([`narrow_rows`]). Consumers read columns *through* the selection with
//! [`Piece::read`] / [`Selection::read`], and only the plan root gathers
//! whole columns.

// A selection really is a list holding (often) one range.
#![allow(clippy::single_range_in_vec_init)]

use std::ops::{Bound, Range};

/// The rows of a relation that are selected, in output order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Selection {
    /// Half-open row ranges, in output order. Scans build them ascending
    /// and non-overlapping — which is what lets narrowed row ids collapse
    /// back into a range ([`Selection::from_ascending`]); a merge may
    /// interleave ranges in any order. Adjacent ranges are allowed (one
    /// per partition segment) and are never joined by
    /// [`Selection::pieces`], so morsel work stays partition-native.
    Ranges(Vec<Range<usize>>),
    /// Explicit row ids. Strictly ascending when produced by narrowing
    /// ranges; a sort replaces them with a permutation of themselves.
    Rows(Vec<u32>),
}

/// A morsel-sized part of a [`Selection`]: the unit a narrowing or
/// reading task works on.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Piece<'a> {
    /// A dense run of rows.
    Range(Range<usize>),
    /// A slice of explicit row ids.
    Rows(&'a [u32]),
}

/// Rows [`Piece::narrow`] tests at once over a range: one bit each of a
/// `u64` mask.
pub const BLOCK_ROWS: usize = 64;

/// The most survivors a mixed block may hold for [`Masked::take`] to
/// write its ids by walking the mask's set bits (one `trailing_zeros` per
/// survivor) instead of through the branch-free cursor (one write per
/// row).
pub const SPARSE_BLOCK_ROWS: u32 = 40;

/// The blocks of [`BLOCK_ROWS`] rows a narrowing tested (a range's last
/// block may be shorter): how many, how many of them the first conjunct
/// kept no row of, and how many every conjunct kept every row of.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Blocks {
    /// Blocks tested; zero for explicit row ids.
    pub tested: u64,
    /// Blocks in which no row passed the first conjunct.
    pub skipped: u64,
    /// Blocks in which every row passed every conjunct: a consumer takes
    /// them whole.
    pub full: u64,
}

/// The survivors of a range of rows, one bit per row: bit `j` of
/// `masks[b]` stands for row `start + b * BLOCK_ROWS + j`. Bits past the
/// range's end are clear.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Masked<'a> {
    /// The range's first row.
    pub start: usize,
    /// One mask per block of the range.
    pub masks: &'a [u64],
}

impl Selection {
    /// Every row of a relation with `rows` rows.
    pub fn all(rows: usize) -> Self {
        Selection::Ranges(vec![0..rows])
    }

    /// The selection holding the strictly ascending row ids of `chunks`,
    /// taken in order: one range when they are contiguous (decided from
    /// the first id, the last id and the count, without touching the
    /// rest), the concatenated ids otherwise.
    pub fn from_ascending(mut chunks: Vec<Vec<u32>>) -> Self {
        let len: usize = chunks.iter().map(Vec::len).sum();
        let first = chunks.iter().find_map(|c| c.first().copied());
        let last = chunks.iter().rev().find_map(|c| c.last().copied());
        match first.zip(last) {
            None => Selection::Ranges(vec![0..0]),
            Some((first, last)) if (last - first) as usize + 1 == len => {
                Selection::Ranges(vec![first as usize..last as usize + 1])
            }
            Some(_) if chunks.len() == 1 => Selection::Rows(chunks.pop().unwrap_or_default()),
            Some(_) => Selection::Rows(chunks.concat()),
        }
    }

    /// Number of selected rows.
    pub fn len(&self) -> usize {
        match self {
            Selection::Ranges(rs) => rs.iter().map(Range::len).sum(),
            Selection::Rows(ids) => ids.len(),
        }
    }

    /// True when no row is selected.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The single dense run this selection covers, if it is one (adjacent
    /// ranges count as one run; the empty selection is the run `0..0`).
    pub fn as_range(&self) -> Option<Range<usize>> {
        let Selection::Ranges(rs) = self else {
            return None;
        };
        let mut live = rs.iter().filter(|r| !r.is_empty());
        let mut run = live.next().cloned().unwrap_or(0..0);
        for r in live {
            if r.start != run.end {
                return None;
            }
            run.end = r.end;
        }
        Some(run)
    }

    /// The selection cut into pieces of at most `max_rows` rows, in
    /// order; no piece crosses a range boundary.
    pub fn pieces(&self, max_rows: usize) -> Vec<Piece<'_>> {
        let step = max_rows.max(1);
        match self {
            Selection::Ranges(rs) => rs
                .iter()
                .flat_map(|r| {
                    r.clone()
                        .step_by(step)
                        .map(move |s| Piece::Range(s..s.saturating_add(step).min(r.end)))
                })
                .collect(),
            Selection::Rows(ids) => ids.chunks(step).map(Piece::Rows).collect(),
        }
    }

    /// Offsets, in selection coordinates, at which each range starts:
    /// `[0, l1, l1 + l2, …, len]`. One segment per range (a `Rows`
    /// selection is one segment) — what the parallel sort seeds its runs
    /// from.
    pub fn bounds(&self) -> Vec<usize> {
        let mut bounds = vec![0];
        match self {
            Selection::Ranges(rs) => {
                for r in rs {
                    bounds.push(bounds[bounds.len() - 1] + r.len());
                }
            }
            Selection::Rows(ids) => bounds.push(ids.len()),
        }
        bounds
    }

    /// Keep only the first `n` selected rows.
    pub fn truncate(&mut self, n: usize) {
        match self {
            Selection::Rows(ids) => ids.truncate(n),
            Selection::Ranges(rs) => {
                let mut left = n;
                for r in rs.iter_mut() {
                    r.end = r.end.min(r.start + left);
                    left -= r.len();
                }
            }
        }
    }

    /// The selected row ids, in order.
    pub fn iter(&self) -> impl Iterator<Item = u32> + '_ {
        let (ranges, ids): (&[Range<usize>], &[u32]) = match self {
            Selection::Ranges(rs) => (rs, &[]),
            Selection::Rows(ids) => (&[], ids),
        };
        ranges
            .iter()
            .flat_map(|r| r.clone().map(|i| i as u32))
            .chain(ids.iter().copied())
    }

    /// Compose: `positions` index into this selection (a sort
    /// permutation, a join's matching rows); returns the row ids they
    /// stand for, in `positions` order.
    pub fn pick(&self, mut positions: Vec<u32>) -> Vec<u32> {
        match (self, self.as_range()) {
            (_, Some(run)) if run.start == 0 => {}
            (_, Some(run)) => positions.iter_mut().for_each(|p| *p += run.start as u32),
            (Selection::Rows(ids), _) => positions.iter_mut().for_each(|p| *p = ids[*p as usize]),
            (Selection::Ranges(_), _) => {
                let ids: Vec<u32> = self.iter().collect();
                positions.iter_mut().for_each(|p| *p = ids[*p as usize]);
            }
        }
        positions
    }

    /// The values of `col` at the selected rows: borrowed when the
    /// selection is one dense run, otherwise gathered into `buf`.
    pub fn read<'s, T: Copy>(&self, col: &'s [T], buf: &'s mut Vec<T>) -> &'s [T] {
        if let Some(run) = self.as_range() {
            return &col[run];
        }
        buf.clear();
        buf.reserve(self.len());
        for piece in self.pieces(usize::MAX) {
            match piece {
                Piece::Range(r) => buf.extend_from_slice(&col[r]),
                Piece::Rows(ids) => buf.extend(ids.iter().map(|&i| col[i as usize])),
            }
        }
        buf
    }
}

impl<'a> Piece<'a> {
    /// Number of rows in the piece.
    pub fn len(&self) -> usize {
        match self {
            Piece::Range(r) => r.len(),
            Piece::Rows(ids) => ids.len(),
        }
    }

    /// True for a piece without rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Append to `out`, ascending, the row ids of this piece whose value
    /// in `col` satisfies `keep`, and say what its blocks held.
    ///
    /// A range is tested into block masks ([`mask_range`]) whose ids are
    /// then taken ([`Masked::take`]). Explicit row ids take a branch-free
    /// cursor that advances only for survivors, one row at a time, and
    /// test no blocks.
    pub fn narrow<T: Copy>(
        &self,
        col: &[T],
        keep: impl Fn(T) -> bool,
        out: &mut Vec<u32>,
    ) -> Blocks {
        match self {
            Piece::Range(r) => {
                let mut masks = Vec::new();
                let blocks = mask_range(col, r.clone(), keep, &mut masks);
                let masked = Masked {
                    start: r.start,
                    masks: &masks,
                };
                masked.take(out);
                Blocks {
                    full: masked.tally(r.len()).1,
                    ..blocks
                }
            }
            Piece::Rows(ids) => {
                out.reserve(ids.len());
                let dst = &mut out.spare_capacity_mut()[..ids.len()];
                let mut n = 0;
                for &i in *ids {
                    dst[n].write(i);
                    n += usize::from(keep(col[i as usize]));
                }
                // SAFETY: `reserve` made room for `ids.len()` more
                // elements, `n` never exceeds the ids tested, and slot `k`
                // is written before the cursor moves past it.
                unsafe { out.set_len(out.len() + n) };
                Blocks::default()
            }
        }
    }

    /// The values of `col` at this piece's rows: borrowed for a dense
    /// range, otherwise gathered into `buf` (morsel-local scratch).
    pub fn read<'s, T: Copy>(&self, col: &'s [T], buf: &'s mut Vec<T>) -> &'s [T] {
        match self {
            Piece::Range(r) => &col[r.clone()],
            Piece::Rows(ids) => {
                buf.clear();
                buf.extend(ids.iter().map(|&i| col[i as usize]));
                buf
            }
        }
    }
}

impl Masked<'_> {
    /// Number of rows kept.
    pub fn len(&self) -> usize {
        self.masks.iter().map(|m| m.count_ones() as usize).sum()
    }

    /// True when no row is kept.
    pub fn is_empty(&self) -> bool {
        self.masks.iter().all(|&m| m == 0)
    }

    /// The rows kept, and the blocks every row of which is kept, of a
    /// range of `rows` rows (whose last block may be short).
    pub fn tally(&self, rows: usize) -> (usize, u64) {
        let short = rows % BLOCK_ROWS;
        let (mut kept, mut full) = (0, 0);
        for (b, &m) in self.masks.iter().enumerate() {
            kept += m.count_ones() as usize;
            let all = match short > 0 && b + 1 == self.masks.len() {
                true => u64::MAX >> (BLOCK_ROWS - short),
                false => u64::MAX,
            };
            full += u64::from(m == all);
        }
        (kept, full)
    }

    /// Append the ids of the rows kept to `out`, ascending. A block whose
    /// mask is empty writes nothing, a full one appends its ids as a run,
    /// and a mixed one with at most [`SPARSE_BLOCK_ROWS`] survivors writes
    /// just theirs, walking the mask's set bits; a denser one writes every
    /// id through a cursor that advances only for survivors — branch-free,
    /// so its speed does not depend on how predictable the predicate is.
    pub fn take(&self, out: &mut Vec<u32>) {
        let room = self.masks.len() * BLOCK_ROWS;
        out.reserve(room);
        let dst = &mut out.spare_capacity_mut()[..room];
        let mut n = 0;
        let rows = (self.start as u32..).step_by(BLOCK_ROWS);
        for (&mask, row) in self.masks.iter().zip(rows) {
            if mask == 0 {
                continue;
            } else if mask == u64::MAX {
                for (slot, id) in dst[n..n + BLOCK_ROWS].iter_mut().zip(row..) {
                    slot.write(id);
                }
                n += BLOCK_ROWS;
            } else if mask.count_ones() <= SPARSE_BLOCK_ROWS {
                n += set_bits(mask, row, &mut dst[n..]);
            } else {
                for j in 0..BLOCK_ROWS as u32 {
                    dst[n].write(row + j);
                    n += (mask >> j & 1) as usize;
                }
            }
        }
        // SAFETY: `reserve` made room for `BLOCK_ROWS` ids per block, a
        // block adds at most that many to `n`, and every path initialised
        // `dst[0..n]` — slot `k` is written before the cursor moves past
        // it, and a run writes its slots before moving it.
        unsafe { out.set_len(out.len() + n) };
    }

    /// Call `f` on each row kept, ascending, walking each mask's set bits.
    #[inline]
    pub fn each(&self, mut f: impl FnMut(u32)) {
        let rows = (self.start as u32..).step_by(BLOCK_ROWS);
        for (&mask, row) in self.masks.iter().zip(rows) {
            let mut bits = mask;
            while bits != 0 {
                f(row + bits.trailing_zeros());
                bits &= bits - 1;
            }
        }
    }
}

/// The positions of a mask's set bits, ascending.
#[derive(Debug, Clone, Copy)]
pub struct SetBits(pub u64);

impl Iterator for SetBits {
    type Item = usize;

    #[inline]
    fn next(&mut self) -> Option<usize> {
        let at = (self.0 != 0).then(|| self.0.trailing_zeros() as usize)?;
        self.0 &= self.0 - 1;
        Some(at)
    }
}

/// Test `keep` on the values of `col` at `rows`, [`BLOCK_ROWS`] at a time:
/// `masks` becomes one mask per block of `rows` (see [`Masked`]), its last
/// block's bits past the range clear. `keep` fills one bit of a mask per
/// value, a loop over values alone that the compiler vectorises. Returns
/// the blocks tested and those no row passed.
pub fn mask_range<T: Copy>(
    col: &[T],
    rows: Range<usize>,
    keep: impl Fn(T) -> bool,
    masks: &mut Vec<u64>,
) -> Blocks {
    masks.clear();
    let (full, tail) = col[rows].as_chunks::<BLOCK_ROWS>();
    masks.extend(full.iter().map(|block| mask(block, &keep)));
    if !tail.is_empty() {
        masks.push(mask(tail, &keep));
    }
    Blocks {
        tested: masks.len() as u64,
        skipped: masks.iter().filter(|&&m| m == 0).count() as u64,
        full: 0,
    }
}

/// A further conjunct over `masks` of the range `rows` (see
/// [`mask_range`]): each block some row still passes is tested whole and
/// its mask ANDed with the result; a block no row passes is not read.
pub fn mask_and<T: Copy>(
    col: &[T],
    rows: Range<usize>,
    keep: impl Fn(T) -> bool,
    masks: &mut [u64],
) {
    let (full, tail) = col[rows].as_chunks::<BLOCK_ROWS>();
    let (masks, last) = masks.split_at_mut(full.len());
    for (m, block) in masks.iter_mut().zip(full) {
        if *m != 0 {
            *m &= mask(block, &keep);
        }
    }
    if let Some(m) = last.first_mut().filter(|m| **m != 0) {
        *m &= mask(tail, &keep);
    }
}

/// Write `row + i` for each set bit `i` of `mask` to the front of `dst`,
/// ascending, and return how many. Out of line: inlined into the block
/// loop, it slowed callers whose blocks are almost all empty or full —
/// spine's mixed `filter.key` by ~30 % p50 on a 2-core x86-64 box.
#[inline(never)]
fn set_bits(mask: u64, row: u32, dst: &mut [std::mem::MaybeUninit<u32>]) -> usize {
    let (mut bits, mut n) = (mask, 0);
    while bits != 0 {
        dst[n].write(row + bits.trailing_zeros());
        n += 1;
        bits &= bits - 1;
    }
    n
}

/// Cut every range of a [`Selection::Ranges`] to the rows whose value in
/// `col` lies within `(lo, hi)`, by two binary searches per range. `col`
/// must be non-decreasing over each range; the ranges themselves may come
/// in any order. A range with no such row is kept empty, so the ranges
/// stay one per segment.
pub fn search_ranges(ranges: &mut [Range<usize>], col: &[u32], (lo, hi): (Bound<u32>, Bound<u32>)) {
    let below = |x: &u32| match lo {
        Bound::Included(l) => *x < l,
        Bound::Excluded(l) => *x <= l,
        Bound::Unbounded => false,
    };
    let up_to = |x: &u32| match hi {
        Bound::Included(h) => *x <= h,
        Bound::Excluded(h) => *x < h,
        Bound::Unbounded => true,
    };
    for r in ranges {
        let run = &col[r.clone()];
        let start = r.start + run.partition_point(below);
        let end = r.start + run.partition_point(up_to);
        *r = start..end.max(start);
    }
}

/// Keep, in place, the row ids in `ids[from..]` whose value in `col`
/// satisfies `keep` — a further conjunct running over the survivors of
/// the previous one. Branch-free like [`Piece::narrow`]'s cursor.
pub fn narrow_rows<T: Copy>(ids: &mut Vec<u32>, from: usize, col: &[T], keep: impl Fn(T) -> bool) {
    let mut n = from;
    for at in from..ids.len() {
        let i = ids[at];
        ids[n] = i;
        n += usize::from(keep(col[i as usize]));
    }
    ids.truncate(n);
}

/// One bit per value of `vals` (at most [`BLOCK_ROWS`]): bit `j` is set
/// when `vals[j]` satisfies `keep`. The predicate fills one byte per value
/// (a loop that vectorises on any x86-64), and a multiply gathers each
/// eight bytes' low bits into eight mask bits.
#[inline(always)]
fn mask<T: Copy>(vals: &[T], keep: &impl Fn(T) -> bool) -> u64 {
    let mut bytes = [0u8; BLOCK_ROWS];
    for (b, &v) in bytes.iter_mut().zip(vals) {
        *b = u8::from(keep(v));
    }
    let (eights, _) = bytes.as_chunks::<8>();
    eights.iter().enumerate().fold(0, |mask, (k, &eight)| {
        // Byte `i`'s bit lands at bit 56 + i; no two partial products
        // share a bit, so nothing carries into the top byte.
        let gathered = u64::from_le_bytes(eight).wrapping_mul(0x0102_0408_1020_4080) >> 56;
        mask | gathered << (8 * k)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pieces_respect_range_boundaries_and_size() {
        let sel = Selection::Ranges(vec![0..5, 5..7, 10..10, 20..23]);
        assert_eq!(sel.len(), 10);
        assert_eq!(
            sel.pieces(3),
            vec![
                Piece::Range(0..3),
                Piece::Range(3..5),
                Piece::Range(5..7),
                Piece::Range(20..23)
            ]
        );
        assert_eq!(sel.bounds(), vec![0, 5, 7, 7, 10]);
        assert_eq!(sel.as_range(), None);
        assert_eq!(
            Selection::Ranges(vec![2..4, 4..4, 4..9]).as_range(),
            Some(2..9)
        );
        let rows = Selection::Rows(vec![1, 4, 6, 7, 9]);
        assert_eq!(
            rows.pieces(2),
            vec![
                Piece::Rows(&[1, 4]),
                Piece::Rows(&[6, 7]),
                Piece::Rows(&[9])
            ]
        );
        assert_eq!(rows.bounds(), vec![0, 5]);
    }

    #[test]
    fn narrow_is_order_preserving_on_both_piece_kinds() {
        let col: Vec<u32> = vec![9, 1, 8, 2, 7, 3];
        let mut out = vec![77];
        Piece::Range(1..6).narrow(&col, |v| v < 5, &mut out);
        assert_eq!(out, vec![77, 1, 3, 5]);
        let mut out = Vec::new();
        Piece::Rows(&[5, 0, 3]).narrow(&col, |v| v != 9, &mut out);
        assert_eq!(out, vec![5, 3]);
        narrow_rows(&mut out, 1, &col, |v| v > 100);
        assert_eq!(out, vec![5]);
    }

    /// `narrow` against a plain filter, over every block shape: empty,
    /// short, one short of a block, whole blocks, one past, a long range,
    /// starts not aligned to a block, each kind of mask, explicit rows and
    /// an `out` that already holds ids.
    #[test]
    fn narrow_matches_a_plain_filter_on_every_block_shape() {
        let rows = (1 << 16) + 101;
        let patterns = [
            "all pass",
            "none pass",
            "alternating",
            "one per block",
            "runs of 100",
        ];
        for (p, name) in patterns.into_iter().enumerate() {
            let col: Vec<bool> = (0..rows)
                .map(|i: usize| match p {
                    0 => true,
                    1 => false,
                    2 => i.is_multiple_of(2),
                    3 => i % BLOCK_ROWS == 5,
                    _ => (i / 100) % 2 == 1,
                })
                .collect();
            for len in [0, 1, 63, 64, 65, 127, 129, (1 << 16) + 1] {
                for start in [0, 1, 3, 63, 64, 100] {
                    let end = start + len;
                    let what = format!("{name}, {start}..{end}");
                    let want: Vec<u32> = (start as u32..end as u32)
                        .filter(|&i| col[i as usize])
                        .collect();
                    let mut out = vec![u32::MAX, 7];
                    let blocks = Piece::Range(start..end).narrow(&col, |v| v, &mut out);
                    assert_eq!(out[..2], [u32::MAX, 7], "{what}");
                    assert_eq!(out[2..], want[..], "{what}");
                    assert!(out[2..].windows(2).all(|w| w[0] < w[1]), "{what}");
                    assert_eq!(blocks.tested, (end - start).div_ceil(BLOCK_ROWS) as u64);
                    let empty = (start..end)
                        .step_by(BLOCK_ROWS)
                        .filter(|&b| !col[b..end.min(b + BLOCK_ROWS)].contains(&true))
                        .count();
                    assert_eq!(blocks.skipped, empty as u64, "{what}");
                    // The same rows listed explicitly keep the same ids,
                    // and test no blocks.
                    let ids: Vec<u32> = (start as u32..end as u32).collect();
                    let mut listed = vec![u32::MAX, 7];
                    let blocks = Piece::Rows(&ids).narrow(&col, |v| v, &mut listed);
                    assert_eq!(listed, out, "{what}");
                    assert_eq!(blocks, Blocks::default(), "{what}");
                }
            }
        }
    }

    #[test]
    fn search_cuts_each_range_to_the_rows_within_bounds() {
        use Bound::{Excluded, Included, Unbounded};
        // Ascending within each range; the ranges out of order.
        let col: Vec<u32> = vec![0, 2, 2, 5, 9, 1, 1, 3, u32::MAX, u32::MAX];
        let sel = Selection::Ranges(vec![5..10, 0..5]);
        let cut = |bounds| {
            let mut rs = vec![5..10, 0..5];
            search_ranges(&mut rs, &col, bounds);
            Selection::Ranges(rs)
        };
        let ranges = |rs: Vec<Range<usize>>| Selection::Ranges(rs);
        assert_eq!(cut((Unbounded, Excluded(2))), ranges(vec![5..7, 0..1]));
        assert_eq!(cut((Included(2), Included(2))), ranges(vec![7..7, 1..3]));
        assert_eq!(cut((Excluded(2), Unbounded)), ranges(vec![7..10, 3..5]));
        assert_eq!(
            cut((Included(u32::MAX), Unbounded)),
            ranges(vec![8..10, 5..5])
        );
        // The edges of the domain: nothing is below 0 or above u32::MAX.
        assert!(cut((Unbounded, Excluded(0))).is_empty());
        assert!(cut((Excluded(u32::MAX), Unbounded)).is_empty());
        // Crossed bounds select nothing and leave valid ranges.
        assert!(cut((Included(5), Included(3))).is_empty());
        // Each cut range is exactly what a scan of it would keep.
        for lo in [0, 1, 2, 3, 9] {
            let got: Vec<u32> = cut((Included(lo), Unbounded)).iter().collect();
            let want: Vec<u32> = sel.iter().filter(|&i| col[i as usize] >= lo).collect();
            assert_eq!(got, want, "lo={lo}");
        }
    }

    #[test]
    fn truncate_pick_and_read() {
        let mut sel = Selection::Ranges(vec![2..4, 8..12]);
        assert_eq!(sel.pick(vec![5, 0, 2]), vec![11, 2, 8]);
        sel.truncate(3);
        assert_eq!(sel.iter().collect::<Vec<_>>(), vec![2, 3, 8]);
        let col: Vec<u32> = (100..120).collect();
        let mut buf = Vec::new();
        assert_eq!(sel.read(&col, &mut buf), &[102, 103, 108]);
        // A dense run borrows and offsets; it never copies.
        let dense = Selection::Ranges(vec![3..5, 5..6]);
        assert_eq!(dense.read(&col, &mut buf), &col[3..6]);
        assert_eq!(dense.pick(vec![2, 0]), vec![5, 3]);
        assert_eq!(
            Selection::from_ascending(vec![vec![4], vec![], vec![5, 6]]),
            Selection::Ranges(vec![4..7])
        );
        assert_eq!(
            Selection::from_ascending(vec![]),
            Selection::Ranges(vec![0..0])
        );
        assert_eq!(
            Selection::from_ascending(vec![vec![4], vec![6]]),
            Selection::Rows(vec![4, 6])
        );
    }
}
