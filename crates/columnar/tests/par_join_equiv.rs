//! Property tests for the partition-native parallel join: for *any* input
//! tables, partition count, and key distribution — including the crafted
//! 90 %-hot-key skew the broadcast splitter exists for — `par_natural_join`
//! and `natural_join_adaptive` must be indistinguishable up to row order
//! (multiset semantics; the schema must match exactly).

use proptest::prelude::*;
use s2rdf_columnar::exec::{natural_join_adaptive, par_natural_join, row_multiset, JoinConfig};
use s2rdf_columnar::ops::natural_join;
use s2rdf_columnar::{Schema, Table};

fn mk2(names: [&str; 2], rows: &[(u32, u32)]) -> Table {
    Table::from_columns(
        Schema::new(names),
        vec![
            rows.iter().map(|r| r.0).collect(),
            rows.iter().map(|r| r.1).collect(),
        ],
    )
}

/// Deterministic xorshift rows with `skew_pct`% of keys pinned to a hot
/// value — the straggler shape a hash splitter alone cannot balance.
fn skewed_rows(n: usize, hot_key: u32, skew_pct: u32, seed: u64) -> Vec<(u32, u32)> {
    let mut state = seed | 1;
    (0..n)
        .map(|i| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            let key = if (state >> 33) as u32 % 100 < skew_pct {
                hot_key
            } else {
                (state >> 11) as u32 % 64
            };
            (key, i as u32)
        })
        .collect()
}

proptest! {
    /// Single shared key column, all partition counts.
    #[test]
    fn par_join_matches_serial(
        left in proptest::collection::vec((0u32..6, 0u32..1000), 0..200),
        right in proptest::collection::vec((0u32..6, 0u32..1000), 0..200),
        parts in 1usize..17,
    ) {
        let l = mk2(["k", "a"], &left);
        let r = mk2(["k", "b"], &right);
        let par = par_natural_join(&l, &r, parts);
        let ser = natural_join(&l, &r);
        prop_assert_eq!(par.schema(), ser.schema());
        prop_assert_eq!(row_multiset(&par), row_multiset(&ser));
    }

    /// Two shared key columns (the packed two-column fold path).
    #[test]
    fn par_join_two_keys_matches_serial(
        left in proptest::collection::vec((0u32..4, 0u32..4, 0u32..100), 0..150),
        right in proptest::collection::vec((0u32..4, 0u32..4, 0u32..100), 0..150),
        parts in 1usize..9,
    ) {
        let col = |rows: &[(u32, u32, u32)], f: fn(&(u32, u32, u32)) -> u32| {
            rows.iter().map(f).collect::<Vec<u32>>()
        };
        let l = Table::from_columns(
            Schema::new(["x", "y", "a"]),
            vec![col(&left, |r| r.0), col(&left, |r| r.1), col(&left, |r| r.2)],
        );
        let r = Table::from_columns(
            Schema::new(["x", "y", "b"]),
            vec![col(&right, |r| r.0), col(&right, |r| r.1), col(&right, |r| r.2)],
        );
        let par = par_natural_join(&l, &r, parts);
        let ser = natural_join(&l, &r);
        prop_assert_eq!(par.schema(), ser.schema());
        prop_assert_eq!(row_multiset(&par), row_multiset(&ser));
    }

    /// Heavy skew on either or both sides: the hot-key broadcast path must
    /// still produce exactly the serial multiset. `skew_pct` sweeps
    /// through (and past) the crafted 90 % case from the paper's
    /// straggler scenario.
    #[test]
    fn skewed_par_join_matches_serial(
        n_left in 50usize..300,
        n_right in 50usize..300,
        skew_left in 0u32..=95,
        skew_right in 0u32..=95,
        parts in 2usize..9,
        seed in any::<u64>(),
    ) {
        let l = mk2(["k", "a"], &skewed_rows(n_left, 42, skew_left, seed));
        let r = mk2(["k", "b"], &skewed_rows(n_right, 42, skew_right, seed ^ 0xDEAD_BEEF));
        let par = par_natural_join(&l, &r, parts);
        let ser = natural_join(&l, &r);
        prop_assert_eq!(par.schema(), ser.schema());
        prop_assert_eq!(row_multiset(&par), row_multiset(&ser));
    }

    /// `natural_join_adaptive` at default options (the engine entry point)
    /// agrees with the serial join regardless of which path it dispatches to.
    #[test]
    fn auto_dispatch_matches_serial(
        left in proptest::collection::vec((0u32..8, 0u32..1000), 0..120),
        right in proptest::collection::vec((0u32..8, 0u32..1000), 0..120),
    ) {
        let l = mk2(["k", "a"], &left);
        let r = mk2(["k", "b"], &right);
        prop_assert_eq!(
            row_multiset(&natural_join_adaptive(&l, &r, &JoinConfig::default()).0),
            row_multiset(&natural_join(&l, &r))
        );
    }
}

/// The crafted 90 %-skew case, pinned deterministically (the proptest
/// above sweeps the space; this one guarantees the exact scenario from the
/// issue is always exercised).
#[test]
fn ninety_pct_skew_exact_case() {
    let l = mk2(["k", "a"], &skewed_rows(20_000, 42, 90, 0x5EED));
    let r = mk2(["k", "b"], &skewed_rows(2_000, 42, 90, 0xF00D));
    for parts in [2, 4, 8] {
        let par = par_natural_join(&l, &r, parts);
        let ser = natural_join(&l, &r);
        assert_eq!(par.schema(), ser.schema());
        assert_eq!(row_multiset(&par), row_multiset(&ser), "parts={parts}");
    }
}
