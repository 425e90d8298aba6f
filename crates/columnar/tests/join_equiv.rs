//! Equivalence suite for the one hash-join kernel.
//!
//! For 1-, 2- and 3-column keys (the `Narrow` and `Wide` indexes), either
//! operand on the build side, every morsel size in [`MORSEL_SIZES`], and
//! both a one-worker and the default worker pool, every join must be
//! - row for row [`natural_join`]'s result (the same order at every morsel
//!   size and worker count),
//! - the nested-loop reference as a multiset, and
//! - what a prebuilt [`BuildIndex`] probed twice gives.
//!
//! Further cases sweep any morsel size, cut a probe into broadcast
//! morsels, set the one-morsel plan against the one-row-morsel plan, and
//! cross the default morsel size.
//!
//! The 90 %-hot-key inputs stay as cases: one key owning most rows on both
//! sides is the shape that unbalances any split by key.

use std::sync::OnceLock;

use proptest::prelude::*;
use s2rdf_columnar::exec::{
    natural_join_adaptive, row_multiset, BuildSide, JoinConfig, JoinStrategy,
};
use s2rdf_columnar::ops::{build_join_index, hash_join_probe, natural_join};
use s2rdf_columnar::{pool, Schema, Table, WorkerPool};

mod common;
use common::reference_join;

/// One-row, three-row and 64-row morsels, and the default size.
const MORSEL_SIZES: [usize; 4] = [1, 3, 64, 1 << 14];

fn serial_pool() -> &'static WorkerPool {
    static POOL: OnceLock<WorkerPool> = OnceLock::new();
    POOL.get_or_init(|| WorkerPool::with_workers(1))
}

/// A table whose columns are `names` and whose rows are `rows`.
fn mk<const N: usize>(names: [&str; N], rows: &[[u32; N]]) -> Table {
    Table::from_rows(Schema::new(names), rows)
}

/// `(key, payload)` rows, as many as `len` allows, over the keys `0..keys`.
fn keyed_rows(keys: u32, len: std::ops::Range<usize>) -> impl Strategy<Value = Vec<[u32; 2]>> {
    proptest::collection::vec((0..keys, 0u32..1000).prop_map(|(k, a)| [k, a]), len)
}

/// Deterministic xorshift `(key, payload)` rows with `skew_pct`% of keys
/// pinned to `hot_key` and the rest spread over `0..64`.
fn skewed_rows(n: usize, hot_key: u32, skew_pct: u32, seed: u64) -> Vec<[u32; 2]> {
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
            [key, i as u32]
        })
        .collect()
}

/// Checks `left ⋈ right` and `right ⋈ left` at every morsel size on both
/// pools against `ops::natural_join` (row for row), the nested-loop
/// reference (multiset) and a prebuilt index probed twice.
fn check(left: &Table, right: &Table) {
    for (l, r) in [(left, right), (right, left)] {
        let serial = natural_join(l, r);
        assert_eq!(row_multiset(&serial), reference_join(l, r));
        let shared = l.schema().common_columns(r.schema());
        let keys = |t: &Table| -> Vec<usize> {
            shared
                .iter()
                .map(|c| t.schema().index_of(c).unwrap())
                .collect()
        };
        let (l_keys, r_keys) = (keys(l), keys(r));
        let build_is_left = l.num_rows() <= r.num_rows();
        let (build, build_keys, probe, probe_keys) = if build_is_left {
            (l, &l_keys, r, &r_keys)
        } else {
            (r, &r_keys, l, &l_keys)
        };
        let index = (!shared.is_empty()).then(|| build_join_index(build, build_keys));
        for pool in [serial_pool(), pool::current()] {
            pool::with_pool(pool, || {
                for morsel_rows in MORSEL_SIZES {
                    let cfg = JoinConfig { morsel_rows };
                    let (out, d) = natural_join_adaptive(l, r, &cfg);
                    assert_eq!(out, serial, "morsel_rows={morsel_rows}");
                    assert_eq!(d.out_rows, out.num_rows());
                    assert_eq!(d.build_rows, build.num_rows());
                    assert_eq!(d.probe_rows, probe.num_rows());
                    let side = if build_is_left {
                        BuildSide::Left
                    } else {
                        BuildSide::Right
                    };
                    assert_eq!(d.build_side, side);
                    let Some(index) = &index else { continue };
                    for _ in 0..2 {
                        let probed = hash_join_probe(
                            build,
                            index,
                            probe,
                            probe_keys,
                            build_is_left,
                            morsel_rows,
                        );
                        assert_eq!(probed, serial, "morsel_rows={morsel_rows}");
                    }
                }
            });
        }
    }
}

proptest! {
    /// One shared key column: the exact `u64` index.
    #[test]
    fn one_key_matches_references(
        left in keyed_rows(6, 0..200),
        right in keyed_rows(6, 0..200),
    ) {
        check(&mk(["k", "a"], &left), &mk(["k", "b"], &right));
    }

    /// Any morsel size, not only [`MORSEL_SIZES`]: the result is
    /// `natural_join`'s row for row, and a probe is one serial morsel
    /// unless it is longer than `morsel_rows` and the build side has rows.
    #[test]
    fn any_morsel_size_matches_serial(
        left in keyed_rows(6, 0..200),
        right in keyed_rows(6, 0..200),
        morsel_rows in 1usize..300,
    ) {
        let (l, r) = (mk(["k", "a"], &left), mk(["k", "b"], &right));
        let (out, d) = natural_join_adaptive(&l, &r, &JoinConfig { morsel_rows });
        prop_assert_eq!(&out, &natural_join(&l, &r));
        prop_assert_eq!(d.out_rows, out.num_rows());
        let (strategy, morsels) = if d.build_rows > 0 && d.probe_rows > morsel_rows {
            (JoinStrategy::Broadcast, d.probe_rows.div_ceil(morsel_rows))
        } else {
            (JoinStrategy::Serial, 1)
        };
        prop_assert_eq!((d.strategy, d.morsels), (strategy, morsels));
    }

    /// A probe longer than one morsel is cut into broadcast morsels over one
    /// shared build index, on a two-column key, on either pool.
    #[test]
    fn broadcast_probe_matches_serial(
        left in proptest::collection::vec((0u32..4, 0u32..4, 0u32..100).prop_map(|(x, y, a)| [x, y, a]), 9..150),
        right in proptest::collection::vec((0u32..4, 0u32..4, 0u32..100).prop_map(|(x, y, b)| [x, y, b]), 9..150),
        morsel_rows in 1usize..9,
    ) {
        let (l, r) = (mk(["x", "y", "a"], &left), mk(["x", "y", "b"], &right));
        let serial = natural_join(&l, &r);
        prop_assert_eq!(row_multiset(&serial), reference_join(&l, &r));
        for pool in [serial_pool(), pool::current()] {
            let (out, d) = pool::with_pool(pool, || {
                natural_join_adaptive(&l, &r, &JoinConfig { morsel_rows })
            });
            prop_assert_eq!(d.strategy, JoinStrategy::Broadcast);
            prop_assert_eq!(d.morsels, d.probe_rows.div_ceil(morsel_rows));
            prop_assert_eq!(&out, &serial);
        }
    }

    /// The one-morsel plan and the one-row-morsel plan give the same rows in
    /// the same order on either pool.
    #[test]
    fn serial_and_broadcast_agree(
        left in keyed_rows(8, 2..200),
        right in keyed_rows(8, 2..200),
    ) {
        let (l, r) = (mk(["k", "a"], &left), mk(["k", "b"], &right));
        for pool in [serial_pool(), pool::current()] {
            let ((serial, d_serial), (bcast, d_bcast)) = pool::with_pool(pool, || {
                (
                    natural_join_adaptive(&l, &r, &JoinConfig { morsel_rows: usize::MAX }),
                    natural_join_adaptive(&l, &r, &JoinConfig { morsel_rows: 1 }),
                )
            });
            prop_assert_eq!((d_serial.strategy, d_serial.morsels), (JoinStrategy::Serial, 1));
            prop_assert_eq!(
                (d_bcast.strategy, d_bcast.morsels),
                (JoinStrategy::Broadcast, d_bcast.probe_rows)
            );
            prop_assert_eq!(&serial, &bcast);
        }
    }

    /// Two shared key columns: the packed two-column `u64` index.
    #[test]
    fn two_keys_match_references(
        left in proptest::collection::vec((0u32..4, 0u32..4, 0u32..100).prop_map(|(x, y, a)| [x, y, a]), 0..150),
        right in proptest::collection::vec((0u32..4, 0u32..4, 0u32..100).prop_map(|(x, y, a)| [x, y, a]), 0..150),
    ) {
        check(&mk(["x", "y", "a"], &left), &mk(["x", "y", "b"], &right));
    }

    /// Three shared key columns: the `Vec<u32>` index.
    #[test]
    fn three_keys_match_references(
        left in proptest::collection::vec(
            (0u32..3, 0u32..3, 0u32..3, 0u32..100).prop_map(|(x, y, z, a)| [x, y, z, a]),
            0..150,
        ),
        right in proptest::collection::vec(
            (0u32..3, 0u32..3, 0u32..3, 0u32..100).prop_map(|(x, y, z, a)| [x, y, z, a]),
            0..150,
        ),
    ) {
        check(&mk(["x", "y", "z", "a"], &left), &mk(["z", "y", "x", "b"], &right));
    }

    /// No shared column: the cross product.
    #[test]
    fn no_shared_column_matches_references(
        left in proptest::collection::vec((0u32..1000).prop_map(|a| [a]), 0..20),
        right in proptest::collection::vec((0u32..1000, 0u32..1000).prop_map(|(b, c)| [b, c]), 0..20),
    ) {
        check(&mk(["a"], &left), &mk(["b", "c"], &right));
    }

    /// Heavy skew on either or both sides, through (and past) the 90 %
    /// hot-key case.
    #[test]
    fn skewed_keys_match_references(
        n_left in 50usize..300,
        n_right in 50usize..300,
        skew_left in 0u32..=95,
        skew_right in 0u32..=95,
        seed in any::<u64>(),
    ) {
        let l = mk(["k", "a"], &skewed_rows(n_left, 42, skew_left, seed));
        let r = mk(["k", "b"], &skewed_rows(n_right, 42, skew_right, seed ^ 0xDEAD_BEEF));
        check(&l, &r);
    }
}

/// The 90 %-hot-key case, pinned: 90 % of both sides share key 42.
#[test]
fn ninety_pct_skew_exact_case() {
    let l = mk(["k", "a"], &skewed_rows(2_000, 42, 90, 0x5EED));
    let r = mk(["k", "b"], &skewed_rows(200, 42, 90, 0xF00D));
    check(&l, &r);
}

/// The default configuration runs a probe of just over two default
/// morsels as three broadcast morsels, row for row `natural_join`'s result.
#[test]
fn default_config_matches_serial() {
    let cfg = JoinConfig::default();
    let l = mk(["k", "a"], &skewed_rows(200, 42, 10, 0x5EED));
    let r = mk(
        ["k", "b"],
        &skewed_rows(2 * cfg.morsel_rows + 1, 42, 10, 0xF00D),
    );
    let (out, d) = natural_join_adaptive(&l, &r, &cfg);
    assert_eq!(out, natural_join(&l, &r));
    assert_eq!(
        (d.build_side, d.strategy, d.morsels),
        (BuildSide::Left, JoinStrategy::Broadcast, 3)
    );
}

/// Build side is chosen by cardinality, not operand position: the smaller
/// input builds whether it arrives on the left or the right.
#[test]
fn build_side_by_cardinality_not_position() {
    let small = mk(["k", "a"], &[[1, 10], [2, 20]]);
    let rows: Vec<[u32; 2]> = (0..100).map(|i| [i % 5, i]).collect();
    let big = mk(["k", "b"], &rows);
    let cfg = JoinConfig { morsel_rows: 8 };
    let (_, d) = natural_join_adaptive(&small, &big, &cfg);
    assert_eq!((d.build_side, d.build_rows), (BuildSide::Left, 2));
    let (_, d) = natural_join_adaptive(&big, &small, &cfg);
    assert_eq!((d.build_side, d.build_rows), (BuildSide::Right, 2));
}

/// A probe of at most `morsel_rows` rows is one serial morsel; a larger
/// one is cut into `ceil(probe / morsel_rows)` broadcast morsels.
#[test]
fn morsel_size_pins_the_strategy() {
    let l = mk(["k", "a"], &skewed_rows(500, 3, 40, 0x5EED));
    let r = mk(["k", "b"], &skewed_rows(400, 3, 40, 0xF00D));
    for (morsel_rows, strategy, morsels) in [
        (500, JoinStrategy::Serial, 1),
        (usize::MAX, JoinStrategy::Serial, 1),
        (499, JoinStrategy::Broadcast, 2),
        (1, JoinStrategy::Broadcast, 500),
    ] {
        let (_, d) = natural_join_adaptive(&l, &r, &JoinConfig { morsel_rows });
        assert_eq!(
            (d.strategy, d.morsels),
            (strategy, morsels),
            "{morsel_rows}"
        );
    }
}
