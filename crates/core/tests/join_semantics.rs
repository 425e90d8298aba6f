//! Join-semantics equivalence properties in the presence of `NULL_ID`.
//!
//! Two join families coexist in the stack and must each be internally
//! consistent:
//!
//! * the **hash family** (`ops::natural_join` and `natural_join_adaptive`)
//!   treats `NULL_ID` as an ordinary key value — both must produce the
//!   same rows at every morsel size, including the default one used in
//!   production;
//! * the **compatibility family** (`compat_join`,
//!   `compat_left_outer_join`) implements SPARQL §2.1 semantics where an
//!   unbound shared variable matches anything — it must agree with a
//!   direct nested-loop oracle, and collapse to the hash family whenever
//!   no shared column contains `NULL_ID`.
//!
//! The engines pick between the families based on a NULL scan
//! (`needs_compat_join`), so these properties are exactly what makes that
//! dispatch sound.

use proptest::prelude::*;

use s2rdf_columnar::exec::{natural_join_adaptive, row_multiset, JoinConfig};
use s2rdf_columnar::ops::natural_join;
use s2rdf_columnar::{Schema, Table, NULL_ID};
use s2rdf_core::exec::{compat_join, compat_left_outer_join};

fn table(cols: &'static [&'static str], rows: Vec<Vec<u32>>) -> Table {
    Table::from_rows(Schema::new(cols.iter().map(|c| c.to_string())), &rows)
}

/// Rows over a tiny domain where one value in `0..card` maps to `NULL_ID`,
/// so shared columns regularly contain unbound entries.
fn arb_rows_with_null(width: usize, card: u32) -> impl Strategy<Value = Vec<Vec<u32>>> {
    proptest::collection::vec(
        proptest::collection::vec(
            (0..card).prop_map(|v| if v == 0 { NULL_ID } else { v }),
            width,
        ),
        0..40,
    )
}

/// NULL-free rows.
fn arb_rows(width: usize, card: u32) -> impl Strategy<Value = Vec<Vec<u32>>> {
    proptest::collection::vec(proptest::collection::vec(1..card, width), 0..40)
}

/// Compatibility semantics oracle: nested loop over row pairs; `NULL_ID`
/// on either side of a shared column matches anything; the merged value is
/// the bound one (left wins when both are bound).
fn compat_oracle(left: &Table, right: &Table, outer: bool) -> Vec<Vec<u32>> {
    let shared: Vec<(usize, usize)> = left
        .schema()
        .common_columns(right.schema())
        .iter()
        .map(|c| {
            (
                left.schema().index_of(c).unwrap(),
                right.schema().index_of(c).unwrap(),
            )
        })
        .collect();
    let right_extra: Vec<usize> = (0..right.schema().len())
        .filter(|&c| !left.schema().contains(&right.schema().names()[c]))
        .collect();
    let mut out = Vec::new();
    for lr in 0..left.num_rows() {
        let mut matched = false;
        for rr in 0..right.num_rows() {
            let compatible = shared.iter().all(|&(lc, rc)| {
                let (lv, rv) = (left.value(lr, lc), right.value(rr, rc));
                lv == NULL_ID || rv == NULL_ID || lv == rv
            });
            if !compatible {
                continue;
            }
            matched = true;
            let mut row: Vec<u32> = (0..left.schema().len())
                .map(|c| {
                    let lv = left.value(lr, c);
                    if lv != NULL_ID {
                        return lv;
                    }
                    match shared.iter().find(|&&(lc, _)| lc == c) {
                        Some(&(_, rc)) => right.value(rr, rc),
                        None => NULL_ID,
                    }
                })
                .collect();
            row.extend(right_extra.iter().map(|&c| right.value(rr, c)));
            out.push(row);
        }
        if outer && !matched {
            let mut row: Vec<u32> = (0..left.schema().len())
                .map(|c| left.value(lr, c))
                .collect();
            row.extend(std::iter::repeat_n(NULL_ID, right_extra.len()));
            out.push(row);
        }
    }
    out.sort();
    out
}

/// Morsel sizes from one row per morsel to the production default.
fn morsel_sizes() -> [usize; 5] {
    [1, 2, 3, 7, JoinConfig::default().morsel_rows]
}

/// `natural_join_adaptive` at `morsel_rows`, as a row multiset.
fn adaptive(left: &Table, right: &Table, morsel_rows: usize) -> Vec<Vec<u32>> {
    row_multiset(&natural_join_adaptive(left, right, &JoinConfig { morsel_rows }).0)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// The hash-join family treats NULL_ID as a literal value and agrees
    /// with itself at every morsel size, even when shared columns contain
    /// NULL_ID.
    #[test]
    fn hash_family_agrees_on_null_inputs(
        l in arb_rows_with_null(2, 6),
        r in arb_rows_with_null(2, 6),
    ) {
        let left = table(&["j", "a"], l);
        let right = table(&["j", "b"], r);
        let serial = row_multiset(&natural_join(&left, &right));
        for morsel_rows in morsel_sizes() {
            prop_assert_eq!(
                adaptive(&left, &right, morsel_rows),
                serial.clone(),
                "natural_join_adaptive diverged at morsel_rows={}", morsel_rows
            );
        }
    }

    /// Same, with two shared columns (the wide-key probe path).
    #[test]
    fn hash_family_agrees_on_null_inputs_two_keys(
        l in arb_rows_with_null(3, 4),
        r in arb_rows_with_null(3, 4),
    ) {
        let left = table(&["j", "k", "a"], l);
        let right = table(&["j", "k", "b"], r);
        let serial = row_multiset(&natural_join(&left, &right));
        for morsel_rows in morsel_sizes() {
            prop_assert_eq!(adaptive(&left, &right, morsel_rows), serial.clone());
        }
    }

    /// compat_join implements the §2.1 oracle exactly on NULL inputs.
    #[test]
    fn compat_join_matches_oracle(
        l in arb_rows_with_null(2, 6),
        r in arb_rows_with_null(2, 6),
    ) {
        let left = table(&["j", "a"], l);
        let right = table(&["j", "b"], r);
        prop_assert_eq!(
            row_multiset(&compat_join(&left, &right)),
            compat_oracle(&left, &right, false)
        );
    }

    /// compat_left_outer_join implements the OPTIONAL oracle exactly on
    /// NULL inputs (the PR's OPTIONAL bugfix path).
    #[test]
    fn compat_left_outer_matches_oracle(
        l in arb_rows_with_null(2, 6),
        r in arb_rows_with_null(2, 6),
    ) {
        let left = table(&["j", "a"], l);
        let right = table(&["j", "b"], r);
        prop_assert_eq!(
            row_multiset(&compat_left_outer_join(&left, &right)),
            compat_oracle(&left, &right, true)
        );
    }

    /// On NULL-free shared columns the two families coincide, which is
    /// what lets the engines dispatch to the fast hash path by default.
    #[test]
    fn families_coincide_without_nulls(
        l in arb_rows(2, 8),
        r in arb_rows(2, 8),
    ) {
        let left = table(&["j", "a"], l);
        let right = table(&["j", "b"], r);
        let hash = row_multiset(&natural_join(&left, &right));
        prop_assert_eq!(row_multiset(&compat_join(&left, &right)), hash.clone());
        for morsel_rows in morsel_sizes() {
            prop_assert_eq!(adaptive(&left, &right, morsel_rows), hash.clone());
        }
    }
}
