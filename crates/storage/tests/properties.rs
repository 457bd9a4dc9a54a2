//! Property tests for the storage substrate: statistics vs oracles,
//! generator guarantees, and dictionary roundtrips.

use dqo_storage::datagen::DatasetSpec;
use dqo_storage::Piece::{Range, Rows};
use dqo_storage::{
    mask_and, mask_range, narrow_rows, Column, DataProps, DataType, Dictionary, Field, Masked,
    Relation, Schema, Seam, Selection, SetBits, Value, BLOCK_ROWS,
};
use proptest::prelude::*;
use std::collections::BTreeSet;
use std::sync::Arc;

/// A strategy-friendly pool of short strings: arbitrary bytes mapped onto
/// a compact alphabet so duplicates and shared prefixes are common (the
/// interesting cases for dictionaries and prefix predicates).
fn word(x: u32) -> String {
    let alphabet = ["ap", "ba", "ca", "do", "el", "fi", "go", "hu"];
    let a = alphabet[(x & 7) as usize];
    let b = alphabet[((x >> 3) & 7) as usize];
    let tail = (x >> 6) & 3;
    format!("{a}{b}{tail}")
}

proptest! {
    #[test]
    fn stats_match_btreeset_oracle(data in proptest::collection::vec(any::<u32>(), 0..2000)) {
        let s = DataProps::compute(&data);
        let set: BTreeSet<u32> = data.iter().copied().collect();
        prop_assert_eq!(s.distinct, set.len() as u64);
        prop_assert_eq!(s.rows, data.len() as u64);
        if let (Some(&lo), Some(&hi)) = (set.first(), set.last()) {
            prop_assert_eq!((s.min, s.max), (lo, hi));
        }
        let asc = data.windows(2).all(|w| w[0] <= w[1]);
        prop_assert_eq!(s.sortedness.is_sorted() && s.sortedness == dqo_storage::Sortedness::Ascending, asc || data.len() <= 1 && s.sortedness == dqo_storage::Sortedness::Ascending);
    }

    #[test]
    fn dataset_spec_guarantees(
        rows in 1usize..3000,
        groups in 1usize..200,
        sorted in any::<bool>(),
        dense in any::<bool>(),
        seed in any::<u64>(),
    ) {
        let data = DatasetSpec::new(rows, groups)
            .sorted(sorted)
            .dense(dense)
            .seed(seed)
            .generate()
            .unwrap();
        prop_assert_eq!(data.len(), rows);
        let s = DataProps::compute(&data);
        // Exactly min(groups, rows) distinct values, always.
        prop_assert_eq!(s.distinct, groups.min(rows) as u64);
        if sorted {
            prop_assert!(s.sortedness.is_sorted());
        }
        if dense {
            prop_assert!(s.density.is_dense());
            prop_assert_eq!(s.min, 0);
        }
    }

    #[test]
    fn dictionary_roundtrips_and_stays_dense(raw in proptest::collection::vec(any::<u32>(), 0..600)) {
        let strings: Vec<String> = raw.iter().map(|&x| word(x)).collect();
        for sorted in [false, true] {
            let (dict, codes) = if sorted {
                Dictionary::encode_all_sorted(&strings)
            } else {
                Dictionary::encode_all(&strings)
            };
            // encode → decode identity, row by row.
            prop_assert_eq!(codes.len(), strings.len());
            for (code, s) in codes.iter().zip(&strings) {
                prop_assert_eq!(dict.decode(*code).unwrap(), s.as_str());
                prop_assert_eq!(dict.lookup(s), Some(*code));
            }
            // The code domain is dense over [0, n) for both encodings.
            let domain = dict.code_domain();
            prop_assert_eq!(domain.end as usize, dict.len());
            prop_assert!(codes.iter().all(|c| domain.contains(c)));
            let distinct: BTreeSet<&str> = strings.iter().map(String::as_str).collect();
            prop_assert_eq!(dict.len(), distinct.len());
        }
    }

    #[test]
    fn sorted_dictionary_code_order_is_string_order(raw in proptest::collection::vec(any::<u32>(), 1..600)) {
        let strings: Vec<String> = raw.iter().map(|&x| word(x)).collect();
        let (dict, codes) = Dictionary::encode_all_sorted(&strings);
        prop_assert!(dict.is_order_preserving());
        // code order == string order, for every pair of rows.
        for (i, &ci) in codes.iter().enumerate() {
            for (j, &cj) in codes.iter().enumerate() {
                prop_assert_eq!(
                    ci.cmp(&cj),
                    strings[i].cmp(&strings[j]),
                    "rows {} ('{}') vs {} ('{}')", i, &strings[i], j, &strings[j]
                );
            }
        }
        // match_table agrees with direct evaluation on every code.
        let table = dict.match_table(|s| s.starts_with("ap"));
        for &c in &codes {
            prop_assert_eq!(table[c as usize], dict.decode(c).unwrap().starts_with("ap"));
        }
    }

    #[test]
    fn select_matches_a_direct_filter_and_gather_identity_is_a_noop(
        data in proptest::collection::vec(any::<u32>(), 1..500),
        threshold in any::<u32>(),
    ) {
        let rel = Relation::single_u32("k", data.clone());
        let sel = narrowed(&Selection::all(data.len()), 64, &data, |v| v < threshold);
        let expected: Vec<u32> = data.iter().copied().filter(|&v| v < threshold).collect();
        let selected = rel.select(&sel);
        prop_assert_eq!(selected.column("k").unwrap().as_u32().unwrap(), &expected[..]);
        // gather with identity permutation is a no-op.
        let idx: Vec<usize> = (0..data.len()).collect();
        let gathered = rel.gather(&idx);
        prop_assert_eq!(gathered.column("k").unwrap().as_u32().unwrap(), &data[..]);
    }

    #[test]
    fn narrowing_twice_is_narrowing_by_the_conjunction(
        data in proptest::collection::vec(any::<u32>(), 0..700),
        cuts in proptest::collection::vec(any::<u32>(), 0..6),
        (a, b) in (any::<u32>(), any::<u32>()),
        morsel in 1usize..200,
    ) {
        // A base selection of ranges cut at arbitrary places (adjacent,
        // empty and gapped ranges included).
        let base = ranges_over(data.len(), &cuts);
        let (p, q) = (|v: u32| v % 7 < a % 8, |v: u32| v < b);
        let stepwise = narrowed(&narrowed(&base, morsel, &data, p), morsel, &data, q);
        let at_once = narrowed(&base, morsel, &data, |v| p(v) && q(v));
        let ids: Vec<u32> = at_once.iter().collect();
        prop_assert_eq!(stepwise.iter().collect::<Vec<_>>(), ids.clone());
        // In-place narrowing of explicit rows agrees as well.
        let mut rows: Vec<u32> = base.iter().collect();
        narrow_rows(&mut rows, 0, &data, p);
        narrow_rows(&mut rows, 0, &data, q);
        prop_assert_eq!(&rows, &ids);
        // Row ids are strictly ascending, lie in the base selection and
        // are exactly the rows satisfying both predicates.
        prop_assert!(ids.windows(2).all(|w| w[0] < w[1]));
        let expected: Vec<u32> = base
            .iter()
            .filter(|&i| p(data[i as usize]) && q(data[i as usize]))
            .collect();
        prop_assert_eq!(ids, expected);
    }

    #[test]
    fn ranges_and_row_ids_round_trip(
        rows in 0usize..600,
        cuts in proptest::collection::vec(any::<u32>(), 0..6),
        morsel in 1usize..100,
        take in 0usize..700,
    ) {
        let sel = ranges_over(rows, &cuts);
        let ids: Vec<u32> = sel.iter().collect();
        prop_assert_eq!(ids.len(), sel.len());
        prop_assert_eq!(sel.is_empty(), ids.is_empty());
        // Row ids → selection → row ids; a contiguous run collapses back
        // into a range, anything else stays explicit.
        let back = Selection::from_ascending(vec![ids.clone()]);
        prop_assert_eq!(back.iter().collect::<Vec<_>>(), ids.clone());
        prop_assert_eq!(back.as_range().is_some(), sel.as_range().is_some());
        // Pieces tile the selection in order, within the size limit, and
        // `bounds` are the ranges' offsets in selection coordinates.
        let pieces = sel.pieces(morsel);
        prop_assert!(pieces.iter().all(|p| !p.is_empty() && p.len() <= morsel));
        let mut tiled = Vec::new();
        let unit = vec![(); rows];
        pieces.iter().for_each(|p| {
            p.narrow(&unit, |_| true, &mut tiled);
        });
        prop_assert_eq!(&tiled, &ids);
        prop_assert_eq!(sel.bounds().last().copied(), Some(ids.len()));
        // Both representations read, pick and truncate alike.
        let col: Vec<u32> = (0..rows as u32).map(|i| i.wrapping_mul(2_654_435_761)).collect();
        let explicit = Selection::Rows(ids.clone());
        let (mut b1, mut b2) = (Vec::new(), Vec::new());
        prop_assert_eq!(sel.read(&col, &mut b1), explicit.read(&col, &mut b2));
        let positions: Vec<u32> = (0..ids.len() as u32).rev().collect();
        prop_assert_eq!(sel.pick(positions.clone()), explicit.pick(positions));
        let (mut cut, mut cut_rows) = (sel.clone(), explicit);
        cut.truncate(take);
        cut_rows.truncate(take);
        prop_assert_eq!(cut.iter().collect::<Vec<_>>(), cut_rows.iter().collect::<Vec<_>>());
        prop_assert_eq!(cut.len(), take.min(ids.len()));
    }

    #[test]
    fn empty_and_full_selections(rows in 0usize..300, morsel in 1usize..64) {
        let all = Selection::all(rows);
        prop_assert_eq!(all.as_range(), Some(0..rows));
        prop_assert_eq!(all.len(), rows);
        // Keeping everything is the identity; keeping nothing is empty,
        // and the empty selection is still a (zero-length) dense run.
        let unit = vec![(); rows];
        prop_assert_eq!(narrowed(&all, morsel, &unit, |_| true).as_range(), Some(0..rows));
        let none = narrowed(&all, morsel, &unit, |_| false);
        prop_assert!(none.is_empty());
        prop_assert_eq!(none.as_range().map(|r| r.len()), Some(0));
        prop_assert!(narrowed(&none, morsel, &unit, |_| true).is_empty());
        prop_assert!(none.pieces(morsel).is_empty());
        let rel = Relation::single_u32("k", (0..rows as u32).collect());
        prop_assert_eq!(rel.select(&none).rows(), 0);
        prop_assert_eq!(rel.select(&all).rows(), rows);
    }

    #[test]
    fn narrow_agrees_with_a_plain_filter(
        (start_pick, any_start) in (0usize..6, 0usize..300),
        (len_pick, any_len) in (0usize..10, 0usize..1000),
        pattern in 0usize..6,
        seed in any::<u64>(),
        prefilled in proptest::collection::vec(any::<u32>(), 0..3),
    ) {
        // Block edges and their neighbours, or anywhere.
        let start = [0, 1, 63, 64, 65].get(start_pick).copied().unwrap_or(any_start);
        let lengths = [0, 1, 63, 64, 65, 127, 129, (1 << 16) + 1];
        let len = lengths.get(len_pick).copied().unwrap_or(any_len);
        // Whole blocks that pass or fail, blocks that mix, and runs that
        // straddle block edges: each way a block mask comes out.
        let bits = |i: usize| (seed.rotate_left(i as u32 % 64) ^ i as u64) & 1 == 1;
        let kept = |i: usize| match pattern {
            0 => true,
            1 => false,
            2 => i.is_multiple_of(2),
            3 => i % dqo_storage::BLOCK_ROWS == seed as usize % dqo_storage::BLOCK_ROWS,
            4 => (i / 100) % 2 == 1,
            _ => bits(i),
        };
        let end = start + len;
        let col: Vec<u8> = (0..end).map(|i| u8::from(kept(i))).collect();
        let want: Vec<u32> = (start..end).filter(|&i| kept(i)).map(|i| i as u32).collect();
        for piece in [Range(start..end), Rows(&(start as u32..end as u32).collect::<Vec<_>>())] {
            let mut out = prefilled.clone();
            piece.narrow(&col, |v| v == 1, &mut out);
            prop_assert_eq!(&out[..prefilled.len()], &prefilled[..]);
            prop_assert_eq!(&out[prefilled.len()..], &want[..]);
            prop_assert!(out[prefilled.len()..].windows(2).all(|w| w[0] < w[1]));
        }
    }
}

proptest! {
    /// One to three conjuncts over a range as block masks — the first
    /// filling them, each further one ANDed in — name exactly the rows a
    /// naive filter keeps, and the rows `narrow` of all conjuncts at once
    /// keeps: through the masks' ids, their set bits, their count and
    /// their full blocks, for every block shape (all, none, mixed,
    /// straddling runs), a start anywhere and a last block of any length.
    #[test]
    fn masks_then_ids_agree_with_narrow_and_a_naive_filter(
        start in 0usize..200,
        (len_pick, any_len) in (0usize..12, 0usize..700),
        patterns in proptest::collection::vec(0usize..6, 1..4),
        seed in any::<u64>(),
        prefilled in proptest::collection::vec(any::<u32>(), 0..3),
    ) {
        // Block edges and their neighbours, or any length.
        let len = [0, 1, 63, 64, 65, 128, 129].get(len_pick).copied().unwrap_or(any_len);
        let end = start + len;
        let bits = |i: usize, salt: usize| (seed.rotate_left((i + salt) as u32 % 64) ^ i as u64) & 1 == 1;
        // Conjunct `c` keeps row `i` by its own pattern.
        let kept = |c: usize, i: usize| match patterns[c] {
            0 => true,
            1 => false,
            2 => (i + c).is_multiple_of(2),
            3 => i % BLOCK_ROWS != (seed as usize + c) % BLOCK_ROWS,
            4 => ((i + 37 * c) / 100) % 2 == 1,
            _ => bits(i, c),
        };
        let n = patterns.len();
        // Column `c` holds bit `c` of each row's verdicts.
        let col: Vec<u8> = (0..end)
            .map(|i| (0..n).fold(0u8, |acc, c| acc | u8::from(kept(c, i)) << c))
            .collect();
        let want: Vec<u32> = (start..end)
            .filter(|&i| (0..n).all(|c| kept(c, i)))
            .map(|i| i as u32)
            .collect();
        let mut masks = Vec::new();
        let blocks = mask_range(&col, start..end, |v| v & 1 == 1, &mut masks);
        prop_assert_eq!(blocks.tested, len.div_ceil(BLOCK_ROWS) as u64);
        let empty = (start..end)
            .step_by(BLOCK_ROWS)
            .filter(|&b| (b..end.min(b + BLOCK_ROWS)).all(|i| !kept(0, i)))
            .count();
        prop_assert_eq!(blocks.skipped, empty as u64);
        for c in 1..n {
            mask_and(&col, start..end, move |v| v >> c & 1 == 1, &mut masks);
        }
        let masked = Masked { start, masks: &masks };
        let mut out = prefilled.clone();
        masked.take(&mut out);
        prop_assert_eq!(&out[..prefilled.len()], &prefilled[..]);
        prop_assert_eq!(&out[prefilled.len()..], &want[..]);
        let mut walked = Vec::new();
        masked.each(|row| walked.push(row));
        prop_assert_eq!(&walked, &want);
        let by_bits: Vec<u32> = masks
            .iter()
            .enumerate()
            .flat_map(|(b, &m)| SetBits(m).map(move |j| (start + b * BLOCK_ROWS + j) as u32))
            .collect();
        prop_assert_eq!(&by_bits, &want);
        prop_assert_eq!(masked.len(), want.len());
        prop_assert_eq!(masked.is_empty(), want.is_empty());
        let full = (start..end)
            .step_by(BLOCK_ROWS)
            .filter(|&b| (b..end.min(b + BLOCK_ROWS)).all(|i| (0..n).all(|c| kept(c, i))))
            .count();
        prop_assert_eq!(masked.tally(len), (want.len(), full as u64));
        // `narrow` of every conjunct at once keeps the same ids, and says
        // the same about the blocks.
        let all = (1u8 << n) - 1;
        let mut narrowed = Vec::new();
        let at_once = Range(start..end).narrow(&col, |v| v & all == all, &mut narrowed);
        prop_assert_eq!(&narrowed, &want);
        prop_assert_eq!(at_once.full, full as u64);
        let listed: Vec<u32> = (start as u32..end as u32).collect();
        let mut by_rows = Vec::new();
        Rows(&listed).narrow(&col, |v| v & all == all, &mut by_rows);
        prop_assert_eq!(&by_rows, &want);
    }
}

proptest! {
    /// A mixed block with `kept` survivors at scattered places writes them
    /// by walking its mask's set bits when `kept` is at most
    /// `SPARSE_BLOCK_ROWS`, through the cursor above it: each arm keeps
    /// exactly the rows a plain filter keeps, in order, after what `out`
    /// held, from any start and over a short last block.
    #[test]
    fn both_mixed_block_arms_agree_with_a_plain_filter(
        kept in 1usize..64,
        start in 0usize..130,
        blocks in 1usize..6,
        short in 0usize..64,
        seed in any::<u64>(),
    ) {
        let end = start + blocks * dqo_storage::BLOCK_ROWS + short;
        // `kept` distinct places in every 64 rows, shuffled by the seed.
        let mut state = seed | 1;
        let mut col = vec![0u8; end];
        for block in col[start..].chunks_mut(dqo_storage::BLOCK_ROWS) {
            let mut places: Vec<usize> = (0..block.len()).collect();
            for i in (1..places.len()).rev() {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                places.swap(i, state as usize % (i + 1));
            }
            for &p in places.iter().take(kept) {
                block[p] = 1;
            }
        }
        let want: Vec<u32> = (start..end).filter(|&i| col[i] == 1).map(|i| i as u32).collect();
        let mut out = vec![7, 9];
        Range(start..end).narrow(&col, |v| v == 1, &mut out);
        prop_assert_eq!(&out[..2], &[7, 9]);
        prop_assert_eq!(&out[2..], &want[..]);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// `fold` is the statistics oracle's O(delta) twin: for an append, an
    /// arbitrary order-preserving merge, and the stable merge of two
    /// sorted runs a sorted projection's maintenance performs, it either
    /// equals `compute` over the extended column or declines — and it
    /// declines exactly when a delta key falls inside a sparse old range.
    #[test]
    fn fold_equals_compute_of_the_extended_column_or_declines(
        old_raw in proptest::collection::vec(any::<u32>(), 0..300),
        delta_raw in proptest::collection::vec(any::<u32>(), 0..40),
        (old_shape, delta_shape) in (any::<u8>(), any::<u8>()),
        picks in proptest::collection::vec(any::<usize>(), 40..41),
    ) {
        let old = shaped(&old_raw, old_shape);
        let delta = shaped(&delta_raw, delta_shape);
        let props = DataProps::compute(&old);
        let needs_column = !old.is_empty()
            && !props.density.is_dense()
            && delta.iter().any(|v| (props.min..=props.max).contains(v));

        let mut at: Vec<usize> = picks[..delta.len()].iter().map(|p| p % (old.len() + 1)).collect();
        at.sort_unstable();
        let (mut sorted_old, mut sorted_delta) = (old.clone(), delta.clone());
        sorted_old.sort_unstable();
        sorted_delta.sort_unstable();
        let stable: Vec<usize> = sorted_delta
            .iter()
            .map(|d| sorted_old.partition_point(|x| x <= d))
            .collect();
        let cases = [
            (&old, &delta, None),
            (&old, &delta, Some(&at[..])),
            (&sorted_old, &sorted_delta, Some(&stable[..])),
        ];
        for (base, gained, at) in cases {
            // Sorting keeps the multiset, so all three share `needs_column`.
            let folded = DataProps::compute(base).fold(gained, Seam { old: base, at });
            prop_assert_eq!(folded.is_none(), needs_column, "{:?} + {:?} at {:?}", base, gained, at);
            if let Some(p) = folded {
                let whole = interleave(base, gained, at);
                prop_assert_eq!(p, DataProps::compute(&whole), "{:?} + {:?} at {:?}", base, gained, at);
            }
        }
    }
}

/// A new string appended to a dictionary column gets the next code, which
/// widens the dense code domain: the fold must see it as a new distinct.
#[test]
fn fold_counts_new_dictionary_codes() {
    let (dict, codes) = Dictionary::encode_all(&["x", "y", "x"]);
    let schema = Schema::new(vec![Field::new("s", DataType::Str)]).unwrap();
    let base = Relation::new(schema, vec![Column::Str(codes)])
        .unwrap()
        .with_dictionary("s", Arc::new(dict))
        .unwrap();
    let appended = base
        .append_rows(&[vec![Value::Str("z".into())], vec![Value::Str("x".into())]])
        .unwrap();
    let codes = |rel: &Relation| rel.column("s").unwrap().as_u32().unwrap().to_vec();
    let old = codes(&base);
    let seam = Seam {
        old: &old,
        at: None,
    };
    let folded = DataProps::compute(&old)
        .fold(&codes(&appended.delta), seam)
        .unwrap();
    assert_eq!(folded, DataProps::compute(&codes(&appended.combined)));
    assert_eq!((folded.distinct, folded.max), (3, 2));
    assert!(folded.density.is_dense());
}

/// Column shapes that reach every branch of `DataProps::fold`: arbitrary
/// (wide, sparse) values, a small domain, a constant, values at
/// `u32::MAX`, and ascending / descending runs.
fn shaped(raw: &[u32], shape: u8) -> Vec<u32> {
    let mut v: Vec<u32> = raw
        .iter()
        .map(|&x| match shape % 6 {
            0 => x,
            1 => x % 8,
            2 => 5,
            3 => u32::MAX - x % 4,
            _ => x % 16,
        })
        .collect();
    match shape % 6 {
        4 => v.sort_unstable(),
        5 => v.sort_unstable_by(|a, b| b.cmp(a)),
        _ => {}
    }
    v
}

/// `old` with `delta[j]` placed right after its first `at[j]` rows, or
/// after all of them without `at`.
fn interleave(old: &[u32], delta: &[u32], at: Option<&[usize]>) -> Vec<u32> {
    let mut out = Vec::with_capacity(old.len() + delta.len());
    let mut next = 0;
    for (j, &d) in delta.iter().enumerate() {
        let p = at.map_or(old.len(), |at| at[j]);
        out.extend_from_slice(&old[next..p]);
        out.push(d);
        next = p;
    }
    out.extend_from_slice(&old[next..]);
    out
}

/// Narrow `sel` the way the executor does: piece by piece, pieces
/// concatenated in order, contiguous survivors collapsed into a range.
fn narrowed<T: Copy>(
    sel: &Selection,
    morsel: usize,
    col: &[T],
    keep: impl Fn(T) -> bool,
) -> Selection {
    let narrow = |piece: dqo_storage::Piece<'_>| {
        let mut ids = Vec::new();
        piece.narrow(col, &keep, &mut ids);
        ids
    };
    let chunks: Vec<Vec<u32>> = sel.pieces(morsel).into_iter().map(narrow).collect();
    match sel {
        Selection::Ranges(_) => Selection::from_ascending(chunks),
        Selection::Rows(_) => Selection::Rows(chunks.concat()),
    }
}

/// The rows `0..rows` cut into ranges at `cuts`, every other non-first
/// range dropped: adjacent, empty and gapped ranges all occur.
fn ranges_over(rows: usize, cuts: &[u32]) -> Selection {
    let mut at: Vec<usize> = cuts.iter().map(|&c| c as usize % (rows + 1)).collect();
    at.extend([0, rows]);
    at.sort_unstable();
    let ranges = at.windows(2).enumerate().filter(|(n, _)| n % 3 != 2);
    Selection::Ranges(ranges.map(|(_, w)| w[0]..w[1]).collect())
}
