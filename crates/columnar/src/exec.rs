//! Data-parallel execution: the one inner-join entry point and the
//! worker-pool sizing.
//!
//! [`natural_join_adaptive`] runs every engine join through the single
//! hash-join kernel of [`crate::ops`]: one hash index over the smaller
//! input, probed by the larger one in [`JoinConfig::morsel_rows`]-sized
//! ranges on the persistent work-stealing [`crate::pool::WorkerPool`]. Each
//! range yields `(left_row, right_row)` pairs and one sink writes them into
//! disjoint slices of a pre-sized output (`columnar.concat.bytes_copied`
//! stays 0). Equal-sized probe ranges picked up by whichever worker is free
//! leave no straggler to re-split, and the output row order is the serial
//! one at every morsel size and worker count.
//!
//! There is no partitioned (shuffle-style) join. Spark partitions both
//! inputs of a large join because its build side must cross the network;
//! a shared-memory store has no network shuffle to avoid, and a
//! broadcast-style probe of one shared index covers every join the
//! workloads run (see DESIGN.md, "One hash join").
//!
//! Every join returns a [`JoinDecision`] so engines can surface it through
//! `Explain`: `Serial` when the probe fits in one morsel (it runs inline
//! on the caller), `Broadcast` when it is cut into several.

use std::cmp::Ordering;
use std::fmt;

use crate::metric_counter;
use crate::ops;
use crate::schema::Schema;
use crate::table::Table;

/// Join execution settings ([`natural_join_adaptive`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JoinConfig {
    /// Probe rows per morsel — the unit of work submitted to the worker
    /// pool by join probes and output writes. A probe of at most this many
    /// rows runs inline; smaller morsels spread a probe over more workers,
    /// larger ones amortize task overhead (CLI `--morsel-rows`).
    pub morsel_rows: usize,
}

impl Default for JoinConfig {
    fn default() -> Self {
        JoinConfig {
            morsel_rows: 1 << 14,
        }
    }
}

impl JoinConfig {
    /// Morsels a probe of `probe_rows` rows is cut into (at least 1).
    pub fn morsels(&self, probe_rows: usize) -> usize {
        probe_rows.div_ceil(self.morsel_rows.max(1)).max(1)
    }
}

/// How a join's probe ran.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JoinStrategy {
    /// One morsel, probed inline on the caller.
    Serial,
    /// Several morsels probing one shared build index on the pool.
    Broadcast,
}

impl fmt::Display for JoinStrategy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            JoinStrategy::Serial => "serial",
            JoinStrategy::Broadcast => "broadcast",
        })
    }
}

/// Which input of a join was chosen as the build side.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BuildSide {
    /// The left operand was built on.
    Left,
    /// The right operand was built on.
    Right,
}

impl fmt::Display for BuildSide {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            BuildSide::Left => "left",
            BuildSide::Right => "right",
        })
    }
}

/// The auditable record of one join: which side was built on (chosen by
/// cardinality, not position) and how many morsels probed it. Engines
/// thread this into `Explain` so `query --profile` can show it.
#[derive(Debug, Clone, Copy)]
pub struct JoinDecision {
    /// `Serial` for one morsel, `Broadcast` for more.
    pub strategy: JoinStrategy,
    /// Build side, chosen by smaller cardinality.
    pub build_side: BuildSide,
    /// Probe morsels (1 for the serial path).
    pub morsels: usize,
    /// Build-side input rows.
    pub build_rows: usize,
    /// Probe-side input rows.
    pub probe_rows: usize,
    /// Output rows.
    pub out_rows: usize,
}

impl JoinDecision {
    /// The record of a join that probed `probe_rows` rows in `morsels`
    /// morsels.
    pub fn new(
        build_side: BuildSide,
        build_rows: usize,
        probe_rows: usize,
        morsels: usize,
        out_rows: usize,
    ) -> JoinDecision {
        JoinDecision {
            strategy: if morsels > 1 {
                JoinStrategy::Broadcast
            } else {
                JoinStrategy::Serial
            },
            build_side,
            morsels,
            build_rows,
            probe_rows,
            out_rows,
        }
    }

    /// One-line human-readable form for Explain/trace output.
    pub fn summary(&self) -> String {
        format!(
            "{} build={}({} rows) probe={} rows morsels={}",
            self.strategy, self.build_side, self.build_rows, self.probe_rows, self.morsels
        )
    }
}

/// Concatenates tables with identical schemas.
///
/// Each input is appended with one bulk `extend_from_slice` per column
/// (a memcpy), not row-by-row scalar pushes. It is **not on the join
/// path** — join morsels write straight into the pre-sized output — so the
/// `columnar.concat.bytes_copied` counter stays zero across parallel joins
/// (asserted by a test). It remains available for genuine multi-table
/// appends (e.g. UNION-style accumulation).
pub fn concat(schema: Schema, tables: Vec<Table>) -> Table {
    let mut out = Table::empty(schema);
    out.reserve(tables.iter().map(Table::num_rows).sum());
    let mut bytes = 0u64;
    for t in tables {
        debug_assert_eq!(t.schema(), out.schema());
        bytes += out.extend_from_table(&t) as u64;
    }
    metric_counter!("columnar.concat.calls").inc();
    metric_counter!("columnar.concat.bytes_copied").add(bytes);
    out
}

/// How many worker threads to use for parallel joins.
///
/// `std::thread::available_parallelism` respects the process affinity
/// mask, which some container runtimes pin to a single CPU even when the
/// cgroup v2 `cpu.max` quota grants several — leaving parallel joins
/// serial on a multi-core box. The effective count is therefore probed
/// **once** at first use: an explicit `S2RDF_THREADS` value wins, else the
/// larger of the affinity-derived count and the cgroup quota ceiling.
pub fn default_parallelism() -> usize {
    static PROBED: std::sync::OnceLock<usize> = std::sync::OnceLock::new();
    *PROBED.get_or_init(|| {
        probe_parallelism(
            std::env::var("S2RDF_THREADS").ok().as_deref(),
            std::fs::read_to_string("/sys/fs/cgroup/cpu.max")
                .ok()
                .as_deref(),
            std::thread::available_parallelism().map_or(1, |n| n.get()),
        )
    })
}

/// Pure probe logic behind [`default_parallelism`], separated for tests:
/// a positive `S2RDF_THREADS`-style override wins outright; otherwise the
/// result is `max(reported, cgroup quota ceiling)`, floored at 1.
pub fn probe_parallelism(
    env_override: Option<&str>,
    cpu_max: Option<&str>,
    reported: usize,
) -> usize {
    if let Some(n) = env_override.and_then(|s| s.trim().parse::<usize>().ok()) {
        if n > 0 {
            return n;
        }
    }
    let quota = cpu_max.and_then(parse_cpu_max).unwrap_or(0);
    reported.max(quota).max(1)
}

/// Parses a cgroup v2 `cpu.max` file: `"<quota> <period>"` in
/// microseconds, or `"max <period>"` for unlimited (which carries no
/// signal and yields `None`). Returns `ceil(quota / period)`, the number
/// of full CPUs the quota sustains.
pub fn parse_cpu_max(contents: &str) -> Option<usize> {
    let mut fields = contents.split_whitespace();
    let quota = fields.next()?;
    if quota == "max" {
        return None;
    }
    let quota: u64 = quota.parse().ok()?;
    let period: u64 = fields.next()?.parse().ok()?;
    if quota == 0 || period == 0 {
        return None;
    }
    Some(quota.div_ceil(period).max(1) as usize)
}

/// The engines' natural join: builds on the smaller input, probes in
/// [`JoinConfig::morsel_rows`]-sized ranges on the worker pool, and returns
/// the executed [`JoinDecision`] alongside the result. The result is
/// row-for-row [`ops::natural_join`]'s. Disjoint schemas cross-join
/// serially.
pub fn natural_join_adaptive(
    left: &Table,
    right: &Table,
    cfg: &JoinConfig,
) -> (Table, JoinDecision) {
    let left_is_build = left.num_rows() <= right.num_rows();
    let (build_side, build_rows, probe_rows) = if left_is_build {
        (BuildSide::Left, left.num_rows(), right.num_rows())
    } else {
        (BuildSide::Right, right.num_rows(), left.num_rows())
    };
    let keyed = !left.schema().common_columns(right.schema()).is_empty();
    let morsels = if keyed && build_rows > 0 {
        cfg.morsels(probe_rows)
    } else {
        1
    };
    let out = ops::natural_join_in_morsels(left, right, cfg.morsel_rows);
    let decision = JoinDecision::new(build_side, build_rows, probe_rows, morsels, out.num_rows());
    (out, decision)
}

/// Canonical multiset form of a table's rows (sorted row vectors) — used by
/// tests and by engine-equivalence checks, where row order is unspecified.
pub fn row_multiset(table: &Table) -> Vec<Vec<u32>> {
    let mut rows: Vec<Vec<u32>> = (0..table.num_rows()).map(|i| table.row_vec(i)).collect();
    rows.sort_unstable_by(|a, b| {
        for (x, y) in a.iter().zip(b) {
            match x.cmp(y) {
                Ordering::Equal => continue,
                o => return o,
            }
        }
        a.len().cmp(&b.len())
    });
    rows
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pool::{self, WorkerPool};
    use std::sync::OnceLock;

    fn table(schema: &[&str], rows: &[Vec<u32>]) -> Table {
        Table::from_rows(Schema::new(schema.iter().map(|s| s.to_string())), rows)
    }

    fn random_table(schema: &[&str], n: usize, card: u32, seed: u64) -> Table {
        // Tiny deterministic LCG; avoids a dev-dependency in unit tests.
        let mut state = seed.wrapping_add(0x853c49e6748fea9b);
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 33) as u32) % card
        };
        let rows: Vec<Vec<u32>> = (0..n)
            .map(|_| (0..schema.len()).map(|_| next()).collect())
            .collect();
        table(schema, &rows)
    }

    /// `morsel_rows` values that cut the test inputs into one, a few, and
    /// one-row morsels.
    const MORSEL_SIZES: [usize; 4] = [1, 7, 1000, usize::MAX];

    /// `natural_join_adaptive` at every size in [`MORSEL_SIZES`] on a
    /// four-worker pool, checked row for row against `ops::natural_join`.
    fn assert_matches_serial(l: &Table, r: &Table) {
        let serial = ops::natural_join(l, r);
        static POOL: OnceLock<WorkerPool> = OnceLock::new();
        pool::with_pool(POOL.get_or_init(|| WorkerPool::with_workers(4)), || {
            for morsel_rows in MORSEL_SIZES {
                let (out, d) = natural_join_adaptive(l, r, &JoinConfig { morsel_rows });
                assert_eq!(out, serial, "morsel_rows={morsel_rows}");
                assert_eq!(d.out_rows, serial.num_rows());
            }
        });
    }

    #[test]
    fn parallel_matches_serial() {
        let l = random_table(&["a", "k"], 5000, 64, 1);
        let r = random_table(&["k", "b"], 5000, 64, 2);
        assert_matches_serial(&l, &r);
    }

    #[test]
    fn parallel_multi_key_matches_serial() {
        let l = random_table(&["a", "k1", "k2"], 2000, 8, 3);
        let r = random_table(&["k1", "k2", "b"], 2000, 8, 4);
        assert_matches_serial(&l, &r);
    }

    #[test]
    fn parallel_wide_key_matches_serial() {
        let l = random_table(&["k1", "k2", "k3", "a"], 1500, 4, 5);
        let r = random_table(&["k1", "k2", "k3", "b"], 1500, 4, 6);
        assert_matches_serial(&l, &r);
    }

    #[test]
    fn broadcast_matches_serial() {
        let l = random_table(&["a", "k"], 400, 64, 21);
        let r = random_table(&["k", "b"], 6000, 64, 22);
        assert_matches_serial(&l, &r);
        // Orientation-independent (build side flips).
        assert_matches_serial(&r, &l);
    }

    #[test]
    fn broadcast_wide_key_matches_serial() {
        let l = random_table(&["k1", "k2", "k3", "a"], 300, 4, 23);
        let r = random_table(&["k1", "k2", "k3", "b"], 2500, 4, 24);
        assert_matches_serial(&l, &r);
    }

    #[test]
    fn adaptive_picks_serial_for_small_inputs() {
        let l = table(&["a", "k"], &[vec![1, 2]]);
        let r = table(&["k", "b"], &[vec![2, 3]]);
        let (j, d) = natural_join_adaptive(&l, &r, &JoinConfig::default());
        assert_eq!(j.num_rows(), 1);
        assert_eq!(d.strategy, JoinStrategy::Serial);
        assert_eq!(d.morsels, 1);
    }

    #[test]
    fn adaptive_picks_broadcast_for_small_build_side() {
        let cfg = JoinConfig { morsel_rows: 1000 };
        let build = random_table(&["k", "b"], 200, 64, 25);
        let probe = random_table(&["a", "k"], 5000, 64, 26);
        let (j, d) = natural_join_adaptive(&probe, &build, &cfg);
        assert_eq!(d.strategy, JoinStrategy::Broadcast);
        assert_eq!(d.morsels, 5);
        assert_eq!(d.build_side, BuildSide::Right);
        assert_eq!(d.build_rows, 200);
        assert_eq!(j, ops::natural_join(&probe, &build));
        // Build side is positional-independent: flipped operands flip the label.
        let (_, d) = natural_join_adaptive(&build, &probe, &cfg);
        assert_eq!(d.build_side, BuildSide::Left);
    }

    #[test]
    fn cpu_max_parsing() {
        // 4 full CPUs.
        assert_eq!(parse_cpu_max("400000 100000\n"), Some(4));
        // Fractional quotas round up: 2.5 CPUs sustain 3 busy threads.
        assert_eq!(parse_cpu_max("250000 100000"), Some(3));
        // Sub-CPU quotas still yield one thread.
        assert_eq!(parse_cpu_max("20000 100000"), Some(1));
        // Unlimited or malformed → no signal.
        assert_eq!(parse_cpu_max("max 100000"), None);
        assert_eq!(parse_cpu_max(""), None);
        assert_eq!(parse_cpu_max("garbage here"), None);
        assert_eq!(parse_cpu_max("100000 0"), None);
        assert_eq!(parse_cpu_max("0 100000"), None);
    }

    #[test]
    fn parallelism_probe_priorities() {
        // Explicit override wins over everything.
        assert_eq!(probe_parallelism(Some("6"), Some("400000 100000"), 1), 6);
        assert_eq!(probe_parallelism(Some(" 2 "), None, 16), 2);
        // A zero or malformed override is ignored.
        assert_eq!(probe_parallelism(Some("0"), None, 5), 5);
        assert_eq!(probe_parallelism(Some("lots"), None, 5), 5);
        // The cgroup quota lifts an affinity-pinned underreport…
        assert_eq!(probe_parallelism(None, Some("800000 100000"), 1), 8);
        // …but never lowers a healthy report (quota may exceed the mask's
        // cores, or the mask may exceed the quota — take the max).
        assert_eq!(probe_parallelism(None, Some("200000 100000"), 12), 12);
        // No signals at all: whatever the runtime reported, floored at 1.
        assert_eq!(probe_parallelism(None, None, 4), 4);
        assert_eq!(probe_parallelism(None, Some("max 100000"), 0), 1);
    }

    #[test]
    fn auto_dispatch_small_input() {
        let l = table(&["a", "k"], &[vec![1, 2]]);
        let r = table(&["k", "b"], &[vec![2, 3]]);
        let (j, _) = natural_join_adaptive(&l, &r, &JoinConfig::default());
        assert_eq!(j.num_rows(), 1);
    }

    #[test]
    fn concat_preserves_rows() {
        let a = table(&["x"], &[vec![1], vec![2]]);
        let b = table(&["x"], &[vec![3]]);
        let schema = a.schema().clone();
        let c = concat(schema, vec![a, b]);
        assert_eq!(c.column(0), &[1, 2, 3]);
    }

    #[test]
    fn concat_copies_each_payload_byte_exactly_once() {
        use crate::metrics;
        // Exact-delta assertion on a global counter: serialize against the
        // other metrics tests and enable recording only inside the lock
        // (all other tests run with metrics disabled and cannot interfere).
        let _guard = metrics::test_lock();
        let a = random_table(&["a", "b", "c"], 500, 64, 7);
        let b = random_table(&["a", "b", "c"], 300, 64, 8);
        let schema = a.schema().clone();
        let expected_rows = a.num_rows() + b.num_rows();
        let expected_bytes = (a.byte_size() + b.byte_size()) as u64;

        let counter = metrics::counter("columnar.concat.bytes_copied");
        metrics::set_enabled(true);
        let before = counter.get();
        let c = concat(schema, vec![a, b]);
        let delta = counter.get() - before;
        metrics::set_enabled(false);

        assert_eq!(c.num_rows(), expected_rows);
        // One memcpy per column, each payload byte moved exactly once — the
        // old push_row_from path did rows×cols scalar pushes instead.
        assert_eq!(delta, expected_bytes);
    }

    #[test]
    fn par_join_path_copies_zero_concat_bytes() {
        use crate::metrics;
        let _guard = metrics::test_lock();
        let l = random_table(&["a", "k"], 4000, 32, 9);
        let r = random_table(&["k", "b"], 4000, 32, 10);
        let bytes = metrics::counter("columnar.concat.bytes_copied");
        let calls = metrics::counter("columnar.concat.calls");
        metrics::set_enabled(true);
        let before = (bytes.get(), calls.get());
        let (j, d) = natural_join_adaptive(&l, &r, &JoinConfig { morsel_rows: 500 });
        let delta = (bytes.get() - before.0, calls.get() - before.1);
        metrics::set_enabled(false);
        assert!(j.num_rows() > 0);
        assert_eq!(d.morsels, 8);
        // Morsels write into the pre-sized output: concat is never invoked.
        assert_eq!(delta, (0, 0));
    }

    #[test]
    fn build_side_hot_key_matches_serial() {
        // One build key with huge multiplicity multiplies output rows into
        // whichever morsels probe it; the pairs must still come out in
        // serial order.
        let build_rows: Vec<Vec<u32>> = (0..4000u32)
            .map(|i| vec![if i % 5 != 0 { 7 } else { i % 97 }, i])
            .collect();
        let build = table(&["k", "b"], &build_rows);
        let probe = random_table(&["k", "a"], 8000, 97, 14);
        assert_matches_serial(&probe, &build);
    }

    #[test]
    fn empty_input_short_circuits() {
        let l = table(&["a", "k"], &[]);
        let r = random_table(&["k", "b"], 100, 8, 15);
        for cfg in [JoinConfig { morsel_rows: 1 }, JoinConfig::default()] {
            for (x, y) in [(&l, &r), (&r, &l)] {
                let (j, d) = natural_join_adaptive(x, y, &cfg);
                assert_eq!(j.num_rows(), 0);
                assert_eq!(j.schema(), ops::natural_join(x, y).schema());
                assert_eq!(d.strategy, JoinStrategy::Serial);
            }
        }
    }
}
