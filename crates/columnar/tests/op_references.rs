//! Property tests: the optimized operators match naive reference
//! implementations on arbitrary inputs.

use proptest::prelude::*;

use s2rdf_columnar::exec::{natural_join_adaptive, row_multiset, JoinConfig};
use s2rdf_columnar::ops::{distinct, left_outer_join, natural_join, semi_join_on, union};
use s2rdf_columnar::{Schema, Table, NULL_ID};

mod common;
use common::reference_join;

fn table(cols: &'static [&'static str], rows: Vec<Vec<u32>>) -> Table {
    Table::from_rows(Schema::new(cols.iter().map(|c| c.to_string())), &rows)
}

fn arb_rows(width: usize, card: u32) -> impl Strategy<Value = Vec<Vec<u32>>> {
    proptest::collection::vec(proptest::collection::vec(0..card, width), 0..50)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn hash_join_matches_nested_loop(
        l in arb_rows(2, 12),
        r in arb_rows(2, 12),
    ) {
        let left = table(&["a", "j"], l);
        let right = table(&["j", "b"], r);
        let expected = reference_join(&left, &right);
        prop_assert_eq!(row_multiset(&natural_join(&left, &right)), expected.clone());
        // The morsel-parallel probe agrees too.
        for morsel_rows in [1, 5] {
            let (out, _) = natural_join_adaptive(&left, &right, &JoinConfig { morsel_rows });
            prop_assert_eq!(row_multiset(&out), expected.clone());
        }
    }

    #[test]
    fn left_outer_join_covers_every_left_row(
        l in arb_rows(2, 8),
        r in arb_rows(2, 8),
    ) {
        let left = table(&["a", "j"], l);
        let right = table(&["j", "b"], r);
        let out = left_outer_join(&left, &right);
        // Inner part matches the inner join; the rest are NULL-padded.
        let inner = natural_join(&left, &right).num_rows();
        let padded = (0..out.num_rows())
            .filter(|&i| out.value(i, 2) == NULL_ID)
            .count();
        prop_assert_eq!(out.num_rows(), inner + padded);
        // Every left row appears at least once.
        let mut seen = vec![false; left.num_rows()];
        for i in 0..out.num_rows() {
            for (li, s) in seen.iter_mut().enumerate() {
                if left.value(li, 0) == out.value(i, 0) && left.value(li, 1) == out.value(i, 1) {
                    *s = true;
                }
            }
        }
        prop_assert!(seen.into_iter().all(|s| s));
    }

    #[test]
    fn union_preserves_cardinality_and_distinct_is_idempotent(
        l in arb_rows(2, 6),
        r in arb_rows(2, 6),
    ) {
        let left = table(&["a", "b"], l);
        let right = table(&["b", "c"], r);
        let u = union(&left, &right);
        prop_assert_eq!(u.num_rows(), left.num_rows() + right.num_rows());
        let d = distinct(&u);
        prop_assert!(d.num_rows() <= u.num_rows());
        prop_assert_eq!(row_multiset(&distinct(&d)), row_multiset(&d));
        // Distinct keeps exactly the set of rows.
        let mut set: Vec<Vec<u32>> = row_multiset(&u);
        set.dedup();
        prop_assert_eq!(row_multiset(&d), set);
    }

    /// The wide-key (3+ shared columns, `Vec<u32>` keys with a reused probe
    /// scratch buffer) join path agrees with the narrow-key (`u64`-packed)
    /// path on the same data, with the composite key packed bijectively
    /// into a single column.
    #[test]
    fn wide_key_join_matches_narrow_key_join(
        l in arb_rows(4, 4),
        r in arb_rows(4, 4),
    ) {
        // Shared columns j1,j2,j3 → the Wide JoinIndex arm.
        let left = table(&["a", "j1", "j2", "j3"], l.clone());
        let right = table(&["j1", "j2", "j3", "b"], r.clone());
        let wide = natural_join(&left, &right);

        // Same join with (j1,j2,j3) packed into one key column k = j1·16+j2·4+j3
        // (cardinality 4 makes the packing bijective) → the Narrow arm.
        let pack = |j1: u32, j2: u32, j3: u32| j1 * 16 + j2 * 4 + j3;
        let left_packed = table(
            &["a", "k"],
            l.iter().map(|row| vec![row[0], pack(row[1], row[2], row[3])]).collect(),
        );
        let right_packed = table(
            &["k", "b"],
            r.iter().map(|row| vec![pack(row[0], row[1], row[2]), row[3]]).collect(),
        );
        let narrow = natural_join(&left_packed, &right_packed);

        // Project the wide result to (a, packed-key, b) and compare multisets.
        let wide_as_narrow: Vec<Vec<u32>> = (0..wide.num_rows())
            .map(|i| {
                let row = wide.row_vec(i);
                vec![row[0], pack(row[1], row[2], row[3]), row[4]]
            })
            .collect();
        let mut wide_sorted = wide_as_narrow;
        wide_sorted.sort_unstable();
        prop_assert_eq!(wide_sorted, row_multiset(&narrow));
    }

    /// `semi_join_on` (hash-set probe) equals the definitional filter.
    #[test]
    fn semi_join_matches_filter_reference(
        l in arb_rows(2, 10),
        r in arb_rows(2, 10),
    ) {
        let left = table(&["s", "o"], l.clone());
        let right = table(&["s", "o"], r.clone());
        let reduced = semi_join_on(&left, 1, &right, 0);
        let expected: Vec<Vec<u32>> = l
            .iter()
            .filter(|row| r.iter().any(|rr| rr[0] == row[1]))
            .cloned()
            .collect();
        let mut expected_sorted = expected;
        expected_sorted.sort_unstable();
        prop_assert_eq!(row_multiset(&reduced), expected_sorted);
    }
}
