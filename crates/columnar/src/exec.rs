//! Data-parallel execution: adaptive join planning over three strategies.
//!
//! Spark executes joins by shuffling both inputs into hash partitions and
//! joining partitions in parallel across the cluster, each task writing its
//! own shuffle partition of the output — the results are never reassembled
//! into one buffer. This module is the shared-memory analogue, and since the
//! adaptive-execution PR it mirrors Spark's *strategy selection* too: like
//! Spark choosing broadcast-hash vs shuffle-hash joins from statistics (and
//! re-partitioning at runtime under AQE), [`natural_join_adaptive`] picks
//! per join between
//!
//! 1. the **serial** hash join (small probe sides — Spark's "little setup
//!    overhead" property the paper's pre-evaluation leans on, §5),
//! 2. a **broadcast-hash join** ([`broadcast_natural_join`]): when the build
//!    side fits under a byte/row threshold, one shared hash index replaces
//!    the whole partitioning machinery and workers probe contiguous probe
//!    chunks — Spark's `autoBroadcastJoinThreshold` analogue, and
//! 3. the **partitioned** hash join ([`par_natural_join`]) with a partition
//!    count derived from probe cardinality and core count instead of a
//!    fixed constant.
//!
//! Every choice is returned as a [`JoinDecision`] so engines can surface it
//! through `Explain`, and counted in the metrics registry
//! (`columnar.join.{broadcast_joins,adaptive_partitions,resplits}`).
//!
//! The partitioned path keeps the partition-native property: pass 1 collects
//! the exact matching row pairs per partition, a prefix sum turns the pair
//! counts into disjoint output ranges, and pass 2 writes every partition's
//! rows directly into one pre-sized output table through non-overlapping
//! column slices (`columnar.concat.bytes_copied` stays 0).
//!
//! Since the morsel-driven executor PR, **no join spawns threads**: every
//! parallel stage — broadcast probe morsels, pass-1 partition tasks, pass-2
//! write chunks — is submitted to the persistent work-stealing
//! [`crate::pool::WorkerPool`], and probe sides are cut into
//! [`JoinConfig::morsel_rows`]-sized morsels rather than one monolithic
//! chunk per thread, so stragglers are absorbed by stealing instead of
//! re-spawning.
//!
//! Skew: every row of one key hashes to one partition, so a hot key makes a
//! straggler no matter how many threads run — the PRoST / Naacke et al.
//! observation that partitioning strategy, not operator tuning, dominates
//! SPARQL latency on Spark-style engines. Two mitigations stack:
//!
//! * **Hot-key broadcast** — when the pre-split histogram shows a partition
//!   above [`SKEW_TRIGGER_PCT`], keys with frequency above the ideal
//!   partition size on *either* side are pulled out: their build rows go
//!   into a broadcast index shared by all partitions and their probe rows
//!   are dealt round-robin.
//! * **Runtime re-partitioning** — if the post-split `straggler_pct` still
//!   exceeds [`JoinConfig::resplit_straggler_pct`] (skew spread over many
//!   *distinct* keys that happen to co-hash, which no per-key cut can fix),
//!   the straggler partition itself is dissolved: its build rows join the
//!   broadcast index and its probe rows are dealt round-robin — Spark AQE's
//!   `OptimizeSkewedJoin` splitting an oversized shuffle partition.
//!
//! Gauges `columnar.par_join.presplit_skew_pct` (before mitigation),
//! `columnar.par_join.max_skew_pct` (after), and
//! `columnar.par_join.straggler_pct` (largest ÷ median load) make the
//! effect observable.

use std::cmp::Ordering;
use std::fmt;

use rustc_hash::{FxHashMap, FxHashSet};

use crate::metrics::SpanTimer;
use crate::ops;
use crate::schema::Schema;
use crate::table::Table;
use crate::{metric_counter, metric_gauge, metric_histogram};

/// Probe-side row count below which partitioning is not worth the setup.
pub const PARALLEL_ROW_THRESHOLD: usize = 1 << 15;

/// Pre-split skew percentage (largest partition × parts ÷ total rows; 100 =
/// perfectly balanced) above which hot-key mitigation kicks in.
pub const SKEW_TRIGGER_PCT: usize = 130;

/// Tunable thresholds for adaptive join-strategy selection
/// ([`natural_join_adaptive`]). The defaults mirror Spark's:
/// `broadcast_bytes` plays `spark.sql.autoBroadcastJoinThreshold`,
/// `target_partition_rows` plays AQE's `advisoryPartitionSizeInBytes`, and
/// `resplit_straggler_pct` plays `skewedPartitionThresholdInBytes`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JoinConfig {
    /// Probe-side row count below which the serial join runs (partitioning
    /// and broadcasting are pure overhead there).
    pub serial_row_threshold: usize,
    /// Build sides with at most this many rows take the broadcast path.
    /// `0` disables broadcasting by rows; `usize::MAX` forces it.
    pub broadcast_rows: usize,
    /// Build sides of at most this many payload bytes take the broadcast
    /// path (either bound suffices). `0` disables broadcasting by bytes.
    pub broadcast_bytes: usize,
    /// Target probe rows per partition; the partition count is
    /// `probe_rows / target_partition_rows`, clamped to
    /// `[2, max_partitions]`.
    pub target_partition_rows: usize,
    /// Upper bound on the partition count. `0` means
    /// [`default_parallelism`] (all cores).
    pub max_partitions: usize,
    /// `straggler_pct` bound (largest ÷ median partition load × 100) above
    /// which the straggler partition is re-split at runtime.
    pub resplit_straggler_pct: usize,
    /// Maximum partition re-splits per join (a convergence backstop).
    pub max_resplits: usize,
    /// Rows per morsel — the unit of work submitted to the worker pool by
    /// probe scans, fused pipelines and output writes. Smaller morsels
    /// steal better under skew; larger ones amortize task overhead
    /// (CLI `--morsel-rows`).
    pub morsel_rows: usize,
}

impl Default for JoinConfig {
    fn default() -> Self {
        JoinConfig {
            serial_row_threshold: PARALLEL_ROW_THRESHOLD,
            broadcast_rows: 1 << 13,
            broadcast_bytes: 256 << 10,
            target_partition_rows: 1 << 14,
            max_partitions: 0,
            resplit_straggler_pct: 150,
            max_resplits: 4,
            morsel_rows: 1 << 14,
        }
    }
}

/// The join strategy an adaptive decision picked.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JoinStrategy {
    /// Single-threaded hash join (small probe side).
    Serial,
    /// Broadcast-hash join: one shared build index, chunked parallel probe.
    Broadcast,
    /// Partitioned (shuffle-style) hash join.
    Partitioned,
}

impl fmt::Display for JoinStrategy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            JoinStrategy::Serial => "serial",
            JoinStrategy::Broadcast => "broadcast",
            JoinStrategy::Partitioned => "partitioned",
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

/// The auditable record of one adaptive join: which strategy ran, which
/// side was built on (chosen by cardinality, not position), how many
/// partitions were used and how many were re-split at runtime. Engines
/// thread this into `Explain` so `query --profile` can show the policy.
#[derive(Debug, Clone, Copy)]
pub struct JoinDecision {
    /// Strategy that executed.
    pub strategy: JoinStrategy,
    /// Build side, chosen by smaller cardinality.
    pub build_side: BuildSide,
    /// Worker partitions used (1 for the serial path).
    pub partitions: usize,
    /// Straggler partitions dissolved by runtime re-partitioning.
    pub resplits: usize,
    /// Build-side input rows.
    pub build_rows: usize,
    /// Probe-side input rows.
    pub probe_rows: usize,
    /// Output rows.
    pub out_rows: usize,
}

impl JoinDecision {
    /// One-line human-readable form for Explain/trace output.
    pub fn summary(&self) -> String {
        let mut s = format!(
            "{} build={}({} rows) probe={} rows parts={}",
            self.strategy, self.build_side, self.build_rows, self.probe_rows, self.partitions
        );
        if self.resplits > 0 {
            s.push_str(&format!(" resplits={}", self.resplits));
        }
        s
    }
}

/// Fibonacci-hash a key value into one of `parts` partitions.
#[inline]
fn partition_of(key: u64, parts: usize) -> usize {
    let h = key.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    ((h >> 32) as usize) % parts
}

/// Folds a row's join-key columns into a `u64`.
///
/// For one or two key columns the fold is *exact* (injective), so the value
/// doubles as both the partitioning key and the per-partition hash-map key,
/// and hot-key detection can trust it as the key's identity. Wider keys fold
/// lossily — fine for partitioning (a collision merely co-locates two keys),
/// but the per-partition maps then match on the exact `Vec<u32>` key instead
/// and skew mitigation is skipped.
#[inline]
fn fold_key(table: &Table, keys: &[usize], row: usize) -> u64 {
    match keys {
        [k] => table.value(row, *k) as u64,
        [k1, k2] => ((table.value(row, *k1) as u64) << 32) | table.value(row, *k2) as u64,
        _ => {
            let mut h = 0xcbf2_9ce4_8422_2325u64;
            for &c in keys {
                h = (h ^ table.value(row, c) as u64).wrapping_mul(0x100_0000_01B3);
            }
            h
        }
    }
}

/// Concatenates tables with identical schemas.
///
/// Each input is appended with one bulk `extend_from_slice` per column
/// (a memcpy), not row-by-row scalar pushes. Since the partition-native
/// rewrite of [`par_natural_join`] this is **no longer on the join path** —
/// partitions write straight into the pre-sized output — so the
/// `columnar.concat.bytes_copied` counter must stay zero across parallel
/// joins (asserted by tests and the PR-3 bench). It remains available for
/// genuine multi-table appends (e.g. UNION-style accumulation).
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

/// Derives a partition count from probe cardinality and core count
/// (replacing the fixed constant callers used to pass): one partition per
/// [`JoinConfig::target_partition_rows`] probe rows, clamped to the core
/// count (or [`JoinConfig::max_partitions`] when set). Inputs below two
/// targets degrade to 1, i.e. the serial path.
pub fn adaptive_partitions(probe_rows: usize, cfg: &JoinConfig) -> usize {
    let cap = if cfg.max_partitions == 0 {
        // The pool caches the parallelism probe at construction — hot paths
        // read the cached count instead of re-probing env/cgroup state.
        crate::pool::current().workers()
    } else {
        cfg.max_partitions
    };
    (probe_rows / cfg.target_partition_rows.max(1)).clamp(1, cap.max(1))
}

/// Statistics-driven natural join: picks serial, broadcast-hash or
/// partitioned execution per [`JoinConfig`], choosing the build side by
/// cardinality, and returns the executed [`JoinDecision`] alongside the
/// result — the shared-memory analogue of Spark planning broadcast vs
/// shuffle-hash joins from table statistics.
pub fn natural_join_adaptive(
    left: &Table,
    right: &Table,
    cfg: &JoinConfig,
) -> (Table, JoinDecision) {
    let left_is_build = left.num_rows() <= right.num_rows();
    let (build, probe) = if left_is_build {
        (left, right)
    } else {
        (right, left)
    };
    let mut decision = JoinDecision {
        strategy: JoinStrategy::Serial,
        build_side: if left_is_build {
            BuildSide::Left
        } else {
            BuildSide::Right
        },
        partitions: 1,
        resplits: 0,
        build_rows: build.num_rows(),
        probe_rows: probe.num_rows(),
        out_rows: 0,
    };
    let common = left.schema().common_columns(right.schema());
    if common.is_empty()
        || left.is_empty()
        || right.is_empty()
        || probe.num_rows() < cfg.serial_row_threshold
    {
        let out = ops::natural_join(left, right);
        decision.out_rows = out.num_rows();
        return (out, decision);
    }
    if build.num_rows() <= cfg.broadcast_rows || build.byte_size() <= cfg.broadcast_bytes {
        let parts = adaptive_partitions(probe.num_rows(), cfg);
        metric_counter!("columnar.join.broadcast_joins").inc();
        let out = broadcast_join_morsels(left, right, parts, cfg.morsel_rows);
        decision.strategy = JoinStrategy::Broadcast;
        decision.partitions = parts;
        decision.out_rows = out.num_rows();
        return (out, decision);
    }
    let parts = adaptive_partitions(probe.num_rows(), cfg);
    metric_gauge!("columnar.join.adaptive_partitions").set(parts as u64);
    let (out, resplits) = partitioned_natural_join(left, right, parts, cfg);
    decision.strategy = if parts <= 1 {
        JoinStrategy::Serial
    } else {
        JoinStrategy::Partitioned
    };
    decision.partitions = parts.max(1);
    decision.resplits = resplits;
    decision.out_rows = out.num_rows();
    (out, decision)
}

/// A shared build-side index for broadcast joins and fused pipelines:
/// exact `u64` folds for 1–2 key columns, exact `Vec<u32>` keys for wider
/// ones.
pub(crate) enum BcastIndex {
    Narrow(FxHashMap<u64, Vec<u32>>),
    Wide(FxHashMap<Vec<u32>, Vec<u32>>),
}

/// Builds a [`BcastIndex`] over every row of `build`.
pub(crate) fn build_bcast_index(build: &Table, build_keys: &[usize]) -> BcastIndex {
    if build_keys.len() <= 2 {
        let mut map: FxHashMap<u64, Vec<u32>> = FxHashMap::default();
        map.reserve(build.num_rows());
        for r in 0..build.num_rows() {
            map.entry(fold_key(build, build_keys, r))
                .or_default()
                .push(r as u32);
        }
        BcastIndex::Narrow(map)
    } else {
        let mut map: FxHashMap<Vec<u32>, Vec<u32>> = FxHashMap::default();
        for r in 0..build.num_rows() {
            let key: Vec<u32> = build_keys.iter().map(|&c| build.value(r, c)).collect();
            map.entry(key).or_default().push(r as u32);
        }
        BcastIndex::Wide(map)
    }
}

/// Probes `rows` of `probe` against a shared [`BcastIndex`], returning
/// match pairs in `(left_row, right_row)` orientation. This is the
/// per-morsel body shared by the broadcast join and the fused
/// filter→probe pipeline ([`crate::pipeline`]).
pub(crate) fn probe_bcast(
    index: &BcastIndex,
    probe: &Table,
    probe_keys: &[usize],
    rows: impl Iterator<Item = usize>,
    left_is_build: bool,
) -> Vec<(u32, u32)> {
    let orient = |b: u32, p: u32| if left_is_build { (b, p) } else { (p, b) };
    let mut pairs: Vec<(u32, u32)> = Vec::new();
    match index {
        BcastIndex::Narrow(map) => {
            for r in rows {
                if let Some(matches) = map.get(&fold_key(probe, probe_keys, r)) {
                    for &b in matches {
                        pairs.push(orient(b, r as u32));
                    }
                }
            }
        }
        BcastIndex::Wide(map) => {
            let mut scratch: Vec<u32> = Vec::new();
            for r in rows {
                scratch.clear();
                scratch.extend(probe_keys.iter().map(|&c| probe.value(r, c)));
                if let Some(matches) = map.get(scratch.as_slice()) {
                    for &b in matches {
                        pairs.push(orient(b, r as u32));
                    }
                }
            }
        }
    }
    pairs
}

/// Broadcast-hash natural join with the default morsel size. See
/// [`broadcast_join_morsels`].
pub fn broadcast_natural_join(left: &Table, right: &Table, parts: usize) -> Table {
    broadcast_join_morsels(left, right, parts, JoinConfig::default().morsel_rows)
}

/// Broadcast-hash natural join: builds one hash index over the *entire*
/// smaller side and probes morsel-sized contiguous chunks of the larger
/// side on the shared worker pool — no hash split of either input, no
/// per-row routing, and (morsels being equal-sized ranges picked up by
/// whichever worker is free) no possibility of probe-side skew. Each
/// morsel's match pairs are written into disjoint slices of one pre-sized
/// output, like the partitioned join's pass 2. Spark's broadcast-hash
/// join, minus the network. `parts` is a lower bound on the task count for
/// small inputs; large probes are cut at `morsel_rows`.
fn broadcast_join_morsels(left: &Table, right: &Table, parts: usize, morsel_rows: usize) -> Table {
    let common = left.schema().common_columns(right.schema());
    if common.is_empty() || left.is_empty() || right.is_empty() {
        return ops::natural_join(left, right);
    }
    let _span = SpanTimer::start(metric_histogram!("columnar.broadcast_join.wall_micros"));
    let left_keys: Vec<usize> = common
        .iter()
        .map(|c| left.schema().index_of(c).unwrap())
        .collect();
    let right_keys: Vec<usize> = common
        .iter()
        .map(|c| right.schema().index_of(c).unwrap())
        .collect();
    let (schema, right_payload) = ops::join_schema(left, right, &right_keys);

    let left_is_build = left.num_rows() <= right.num_rows();
    let (build, probe) = if left_is_build {
        (left, right)
    } else {
        (right, left)
    };
    let (build_keys, probe_keys) = if left_is_build {
        (&left_keys, &right_keys)
    } else {
        (&right_keys, &left_keys)
    };

    metric_counter!("columnar.broadcast_join.calls").inc();
    metric_counter!("columnar.broadcast_join.build_rows").add(build.num_rows() as u64);
    metric_counter!("columnar.broadcast_join.probe_rows").add(probe.num_rows() as u64);

    let index = build_bcast_index(build, build_keys);

    // Contiguous probe morsels: trivially balanced, no routing pass.
    // `parts` floors the task count so small probes still spread; large
    // probes are cut at `morsel_rows` so the pool can steal stragglers.
    let parts = parts.clamp(1, probe.num_rows());
    let chunk = probe
        .num_rows()
        .div_ceil(parts)
        .clamp(1, morsel_rows.max(1));
    let n_morsels = probe.num_rows().div_ceil(chunk);
    metric_counter!("columnar.pool.morsels").add(n_morsels as u64);
    let tasks: Vec<_> = (0..n_morsels)
        .map(|m| {
            let (index, probe_keys) = (&index, probe_keys);
            let range = m * chunk..((m + 1) * chunk).min(probe.num_rows());
            move |_worker: usize| probe_bcast(index, probe, probe_keys, range, left_is_build)
        })
        .collect();
    let pair_lists = crate::pool::current().run(tasks);
    let out = write_pairs(
        schema,
        left,
        right,
        &right_payload,
        &pair_lists,
        morsel_rows,
    );
    metric_counter!("columnar.broadcast_join.out_rows").add(out.num_rows() as u64);
    out
}

/// Collects the exact matching `(left_row, right_row)` pairs of one
/// partition: a hash join over the partition's build rows probed by its
/// probe rows, plus the partition's share of hot probe rows matched against
/// the shared broadcast index.
#[allow(clippy::too_many_arguments)]
fn collect_pairs(
    build: &Table,
    probe: &Table,
    build_keys: &[usize],
    probe_keys: &[usize],
    build_rows: &[u32],
    probe_rows: &[u32],
    hot_probe_rows: &[u32],
    build_hash: &[u64],
    probe_hash: &[u64],
    bcast: &FxHashMap<u64, Vec<u32>>,
    left_is_build: bool,
) -> Vec<(u32, u32)> {
    let orient = |b: u32, p: u32| if left_is_build { (b, p) } else { (p, b) };
    let mut pairs: Vec<(u32, u32)> = Vec::new();
    if build_keys.len() <= 2 {
        // Exact u64 keys: the fold is injective for 1–2 columns.
        let mut index: FxHashMap<u64, Vec<u32>> = FxHashMap::default();
        index.reserve(build_rows.len());
        for &r in build_rows {
            index.entry(build_hash[r as usize]).or_default().push(r);
        }
        for &r in probe_rows {
            if let Some(matches) = index.get(&probe_hash[r as usize]) {
                for &b in matches {
                    pairs.push(orient(b, r));
                }
            }
        }
    } else {
        // Wide keys: partitioned by the lossy fold, matched on exact values.
        let mut index: FxHashMap<Vec<u32>, Vec<u32>> = FxHashMap::default();
        for &r in build_rows {
            let key: Vec<u32> = build_keys
                .iter()
                .map(|&c| build.value(r as usize, c))
                .collect();
            index.entry(key).or_default().push(r);
        }
        let mut scratch: Vec<u32> = Vec::new();
        for &r in probe_rows {
            scratch.clear();
            scratch.extend(probe_keys.iter().map(|&c| probe.value(r as usize, c)));
            if let Some(matches) = index.get(scratch.as_slice()) {
                for &b in matches {
                    pairs.push(orient(b, r));
                }
            }
        }
    }
    // Hot probe rows match only through the broadcast index: every build row
    // of a hot key was excluded from the hashed partitions, so each
    // (probe, build) pair is produced exactly once.
    for &r in hot_probe_rows {
        if let Some(matches) = bcast.get(&probe_hash[r as usize]) {
            for &b in matches {
                pairs.push(orient(b, r));
            }
        }
    }
    pairs
}

/// Pass 2 of the partition-native joins — the late-materialization sink.
/// Payload columns are only touched here: every pair list is cut into
/// `morsel_rows` chunks, each chunk owns disjoint slices of one pre-sized
/// output table (chained `split_at_mut`), and the chunks gather on the
/// worker pool — zero reassembly, zero `concat` bytes. Pairs are in
/// `(left_row, right_row)` orientation.
pub(crate) fn write_pairs(
    schema: Schema,
    left: &Table,
    right: &Table,
    right_payload: &[usize],
    pair_lists: &[Vec<(u32, u32)>],
    morsel_rows: usize,
) -> Table {
    let total: usize = pair_lists.iter().map(Vec::len).sum();
    let ncols = schema.len();
    let left_ncols = left.schema().len();
    let mut cols: Vec<Vec<u32>> = (0..ncols).map(|_| vec![0u32; total]).collect();
    let chunks: Vec<&[(u32, u32)]> = pair_lists
        .iter()
        .flat_map(|p| p.chunks(morsel_rows.max(1)))
        .collect();
    let mut per_chunk: Vec<Vec<&mut [u32]>> =
        chunks.iter().map(|_| Vec::with_capacity(ncols)).collect();
    for col in &mut cols {
        let mut rest: &mut [u32] = col.as_mut_slice();
        for (t, chunk) in chunks.iter().enumerate() {
            let (head, tail) = rest.split_at_mut(chunk.len());
            per_chunk[t].push(head);
            rest = tail;
        }
    }
    metric_counter!("columnar.pool.morsels").add(chunks.len() as u64);
    let tasks: Vec<_> = per_chunk
        .into_iter()
        .zip(&chunks)
        .map(|(slices, &pairs)| {
            move |_worker: usize| {
                for (c, out_col) in slices.into_iter().enumerate() {
                    if c < left_ncols {
                        let src = left.column(c);
                        for (j, &(lr, _)) in pairs.iter().enumerate() {
                            out_col[j] = src[lr as usize];
                        }
                    } else {
                        let src = right.column(right_payload[c - left_ncols]);
                        for (j, &(_, rr)) in pairs.iter().enumerate() {
                            out_col[j] = src[rr as usize];
                        }
                    }
                }
            }
        })
        .collect();
    crate::pool::current().run(tasks);
    Table::from_columns(schema, cols)
}

/// Natural join that partitions both sides by join-key hash, collects match
/// pairs as worker-pool tasks, and writes each partition's output directly into
/// disjoint slices of one pre-sized result table (no reassembly copy). Row
/// order of the result is partition-major (a permutation of the serial
/// join's bag). Hot keys are broadcast when the hash split would produce a
/// straggler partition, and a partition that is still a straggler after
/// hot-key mitigation is re-split at runtime (default [`JoinConfig`]
/// bounds).
pub fn par_natural_join(left: &Table, right: &Table, parts: usize) -> Table {
    partitioned_natural_join(left, right, parts, &JoinConfig::default()).0
}

/// [`par_natural_join`] with explicit re-split bounds; returns the number
/// of straggler partitions dissolved by runtime re-partitioning.
pub fn partitioned_natural_join(
    left: &Table,
    right: &Table,
    parts: usize,
    cfg: &JoinConfig,
) -> (Table, usize) {
    let common = left.schema().common_columns(right.schema());
    if common.is_empty() || parts <= 1 || left.is_empty() || right.is_empty() {
        return (ops::natural_join(left, right), 0);
    }
    let _span = SpanTimer::start(metric_histogram!("columnar.par_join.wall_micros"));
    let left_keys: Vec<usize> = common
        .iter()
        .map(|c| left.schema().index_of(c).unwrap())
        .collect();
    let right_keys: Vec<usize> = common
        .iter()
        .map(|c| right.schema().index_of(c).unwrap())
        .collect();
    let (schema, right_payload) = ops::join_schema(left, right, &right_keys);

    // Build on the smaller side, probe with the larger.
    let left_is_build = left.num_rows() <= right.num_rows();
    let (build, probe) = if left_is_build {
        (left, right)
    } else {
        (right, left)
    };
    let (build_keys, probe_keys) = if left_is_build {
        (&left_keys, &right_keys)
    } else {
        (&right_keys, &left_keys)
    };
    let narrow = build_keys.len() <= 2;

    metric_counter!("columnar.par_join.calls").inc();
    metric_counter!("columnar.par_join.partitions").add(parts as u64);
    metric_counter!("columnar.par_join.build_rows").add(build.num_rows() as u64);
    metric_counter!("columnar.par_join.probe_rows").add(probe.num_rows() as u64);

    let build_hash: Vec<u64> = (0..build.num_rows())
        .map(|r| fold_key(build, build_keys, r))
        .collect();
    let probe_hash: Vec<u64> = (0..probe.num_rows())
        .map(|r| fold_key(probe, probe_keys, r))
        .collect();

    // Pre-split histogram: the partition loads a pure hash split would get.
    let presplit = |hashes: &[u64]| -> usize {
        let mut counts = vec![0usize; parts];
        for &h in hashes {
            counts[partition_of(h, parts)] += 1;
        }
        counts.into_iter().max().unwrap_or(0)
    };
    let presplit_pct = (presplit(&probe_hash) * parts * 100 / probe.num_rows())
        .max(presplit(&build_hash) * parts * 100 / build.num_rows());
    metric_gauge!("columnar.par_join.presplit_skew_pct").set_max(presplit_pct as u64);

    // Hot keys: frequency above the ideal partition size on either side.
    // The probe-side histogram catches classic probe stragglers; the
    // build-side histogram catches high-multiplicity build keys whose
    // *output* would explode one partition.
    let probe_ideal = (probe.num_rows() / parts).max(1);
    let build_ideal = (build.num_rows() / parts).max(1);
    let hot: FxHashSet<u64> = if narrow && presplit_pct > SKEW_TRIGGER_PCT {
        let mut freq: FxHashMap<u64, usize> = FxHashMap::default();
        for &k in &probe_hash {
            *freq.entry(k).or_default() += 1;
        }
        let mut hot: FxHashSet<u64> = freq
            .iter()
            .filter(|&(_, &c)| c > probe_ideal)
            .map(|(&k, _)| k)
            .collect();
        freq.clear();
        for &k in &build_hash {
            *freq.entry(k).or_default() += 1;
        }
        hot.extend(
            freq.iter()
                .filter(|&(_, &c)| c > build_ideal)
                .map(|(&k, _)| k),
        );
        hot
    } else {
        FxHashSet::default()
    };
    metric_counter!("columnar.par_join.hot_keys").add(hot.len() as u64);

    // Split rows (by index — no gather copies): hot build rows go to the
    // broadcast list, hot probe rows are dealt round-robin, the rest hash.
    let mut build_parts: Vec<Vec<u32>> = vec![Vec::new(); parts];
    let mut bcast_rows: Vec<u32> = Vec::new();
    for (r, &k) in build_hash.iter().enumerate() {
        if hot.contains(&k) {
            bcast_rows.push(r as u32);
        } else {
            build_parts[partition_of(k, parts)].push(r as u32);
        }
    }
    let mut probe_parts: Vec<Vec<u32>> = vec![Vec::new(); parts];
    let mut hot_probe_parts: Vec<Vec<u32>> = vec![Vec::new(); parts];
    let mut deal = 0usize;
    for (r, &k) in probe_hash.iter().enumerate() {
        if hot.contains(&k) {
            hot_probe_parts[deal % parts].push(r as u32);
            deal += 1;
        } else {
            probe_parts[partition_of(k, parts)].push(r as u32);
        }
    }

    // AQE-style runtime re-partitioning: hot-key broadcasting cannot fix a
    // straggler made of many *distinct* keys that co-hash (each under the
    // per-key threshold). If the post-split straggler bound is still
    // exceeded, dissolve the largest partition: its build rows join the
    // broadcast index and its probe rows are dealt round-robin — each
    // (probe, build) pair still produced exactly once because a build row
    // lives in exactly one partition or the broadcast list.
    let mut resplits = 0usize;
    if narrow && cfg.max_resplits > 0 {
        loop {
            let loads: Vec<usize> = (0..parts)
                .map(|p| probe_parts[p].len() + hot_probe_parts[p].len())
                .collect();
            let (worst, &largest) = loads
                .iter()
                .enumerate()
                .max_by_key(|&(_, l)| *l)
                .expect("parts >= 1");
            let mut sorted = loads.clone();
            sorted.sort_unstable();
            let median = sorted[parts / 2].max(1);
            if largest * 100 / median <= cfg.resplit_straggler_pct
                || resplits >= cfg.max_resplits
                || probe_parts[worst].is_empty()
            {
                break;
            }
            for r in std::mem::take(&mut build_parts[worst]) {
                bcast_rows.push(r);
            }
            for r in std::mem::take(&mut probe_parts[worst]) {
                hot_probe_parts[deal % parts].push(r);
                deal += 1;
            }
            resplits += 1;
        }
    }
    metric_counter!("columnar.join.resplits").add(resplits as u64);
    metric_counter!("columnar.par_join.broadcast_rows").add(bcast_rows.len() as u64);

    let mut bcast_index: FxHashMap<u64, Vec<u32>> = FxHashMap::default();
    for &r in &bcast_rows {
        bcast_index
            .entry(build_hash[r as usize])
            .or_default()
            .push(r);
    }

    // Post-mitigation probe load per partition — what the skew-join
    // microbench asserts on (straggler ≤ 1.5× median).
    let mut loads: Vec<usize> = (0..parts)
        .map(|p| probe_parts[p].len() + hot_probe_parts[p].len())
        .collect();
    let largest = loads.iter().copied().max().unwrap_or(0);
    metric_gauge!("columnar.par_join.max_skew_pct")
        .set_max((largest * parts * 100 / probe.num_rows()) as u64);
    loads.sort_unstable();
    let median = loads[parts / 2].max(1);
    metric_gauge!("columnar.par_join.straggler_pct").set_max((largest * 100 / median) as u64);

    // Pass 1: per-partition exact match-pair collection as pool tasks —
    // partitions are already near `target_partition_rows` granularity, and
    // work stealing (plus the re-split above) absorbs residual imbalance.
    // Pairs are stored in (left_row, right_row) orientation so pass 2 is
    // orientation-free.
    let tasks: Vec<_> = (0..parts)
        .map(|p| {
            let (build_rows, probe_rows, hot_rows) =
                (&build_parts[p], &probe_parts[p], &hot_probe_parts[p]);
            let (build_hash, probe_hash, bcast) = (&build_hash, &probe_hash, &bcast_index);
            move |_worker: usize| {
                collect_pairs(
                    build,
                    probe,
                    build_keys,
                    probe_keys,
                    build_rows,
                    probe_rows,
                    hot_rows,
                    build_hash,
                    probe_hash,
                    bcast,
                    left_is_build,
                )
            }
        })
        .collect();
    let pair_lists = crate::pool::current().run(tasks);

    // Exact output size is now known; pass 2 pre-sizes the result once and
    // writes disjoint slices.
    let total: usize = pair_lists.iter().map(Vec::len).sum();
    metric_counter!("columnar.par_join.out_rows").add(total as u64);
    (
        write_pairs(
            schema,
            left,
            right,
            &right_payload,
            &pair_lists,
            cfg.morsel_rows,
        ),
        resplits,
    )
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

    /// A probe side where `skew_pct`% of rows share one hot key.
    fn skewed_table(schema: &[&str], n: usize, hot_key: u32, skew_pct: usize, seed: u64) -> Table {
        let base = random_table(schema, n, 97, seed);
        let rows: Vec<Vec<u32>> = (0..n)
            .map(|i| {
                let mut row = base.row_vec(i);
                if i * 100 / n < skew_pct {
                    row[0] = hot_key;
                }
                row
            })
            .collect();
        table(schema, &rows)
    }

    #[test]
    fn parallel_matches_serial() {
        let l = random_table(&["a", "k"], 5000, 64, 1);
        let r = random_table(&["k", "b"], 5000, 64, 2);
        let serial = ops::natural_join(&l, &r);
        for parts in [2, 3, 8] {
            let par = par_natural_join(&l, &r, parts);
            assert_eq!(row_multiset(&par), row_multiset(&serial), "parts={parts}");
        }
    }

    #[test]
    fn parallel_multi_key_matches_serial() {
        let l = random_table(&["a", "k1", "k2"], 2000, 8, 3);
        let r = random_table(&["k1", "k2", "b"], 2000, 8, 4);
        let serial = ops::natural_join(&l, &r);
        let par = par_natural_join(&l, &r, 4);
        assert_eq!(row_multiset(&par), row_multiset(&serial));
    }

    #[test]
    fn parallel_wide_key_matches_serial() {
        let l = random_table(&["k1", "k2", "k3", "a"], 1500, 4, 5);
        let r = random_table(&["k1", "k2", "k3", "b"], 1500, 4, 6);
        let serial = ops::natural_join(&l, &r);
        let par = par_natural_join(&l, &r, 4);
        assert_eq!(row_multiset(&par), row_multiset(&serial));
    }

    #[test]
    fn broadcast_matches_serial() {
        let l = random_table(&["a", "k"], 400, 64, 21);
        let r = random_table(&["k", "b"], 6000, 64, 22);
        let serial = ops::natural_join(&l, &r);
        for parts in [1, 3, 8] {
            let bc = broadcast_natural_join(&l, &r, parts);
            assert_eq!(bc.schema(), serial.schema());
            assert_eq!(row_multiset(&bc), row_multiset(&serial), "parts={parts}");
        }
        // Orientation-independent (build side flips).
        let bc = broadcast_natural_join(&r, &l, 4);
        assert_eq!(row_multiset(&bc), row_multiset(&ops::natural_join(&r, &l)));
    }

    #[test]
    fn broadcast_wide_key_matches_serial() {
        let l = random_table(&["k1", "k2", "k3", "a"], 300, 4, 23);
        let r = random_table(&["k1", "k2", "k3", "b"], 2500, 4, 24);
        let serial = ops::natural_join(&l, &r);
        let bc = broadcast_natural_join(&l, &r, 4);
        assert_eq!(row_multiset(&bc), row_multiset(&serial));
    }

    #[test]
    fn adaptive_picks_serial_for_small_inputs() {
        let l = table(&["a", "k"], &[vec![1, 2]]);
        let r = table(&["k", "b"], &[vec![2, 3]]);
        let (j, d) = natural_join_adaptive(&l, &r, &JoinConfig::default());
        assert_eq!(j.num_rows(), 1);
        assert_eq!(d.strategy, JoinStrategy::Serial);
        assert_eq!(d.partitions, 1);
    }

    #[test]
    fn adaptive_picks_broadcast_for_small_build_side() {
        let cfg = JoinConfig {
            serial_row_threshold: 1000,
            ..JoinConfig::default()
        };
        let build = random_table(&["k", "b"], 200, 64, 25);
        let probe = random_table(&["a", "k"], 5000, 64, 26);
        let (j, d) = natural_join_adaptive(&probe, &build, &cfg);
        assert_eq!(d.strategy, JoinStrategy::Broadcast);
        assert_eq!(d.build_side, BuildSide::Right);
        assert_eq!(d.build_rows, 200);
        assert_eq!(
            row_multiset(&j),
            row_multiset(&ops::natural_join(&probe, &build))
        );
        // Build side is positional-independent: flipped operands flip the label.
        let (_, d) = natural_join_adaptive(&build, &probe, &cfg);
        assert_eq!(d.build_side, BuildSide::Left);
    }

    #[test]
    fn adaptive_picks_partitioned_above_thresholds() {
        let cfg = JoinConfig {
            serial_row_threshold: 1000,
            broadcast_rows: 100,
            broadcast_bytes: 100,
            target_partition_rows: 1000,
            max_partitions: 4,
            ..JoinConfig::default()
        };
        let l = random_table(&["a", "k"], 4000, 64, 27);
        let r = random_table(&["k", "b"], 4000, 64, 28);
        let (j, d) = natural_join_adaptive(&l, &r, &cfg);
        assert_eq!(d.strategy, JoinStrategy::Partitioned);
        assert_eq!(d.partitions, 4); // 4000/1000 capped at 4
        assert_eq!(row_multiset(&j), row_multiset(&ops::natural_join(&l, &r)));
    }

    #[test]
    fn adaptive_partition_count_scales_and_clamps() {
        let cfg = JoinConfig {
            target_partition_rows: 1000,
            max_partitions: 8,
            ..JoinConfig::default()
        };
        assert_eq!(adaptive_partitions(10, &cfg), 1);
        assert_eq!(adaptive_partitions(2500, &cfg), 2);
        assert_eq!(adaptive_partitions(1_000_000, &cfg), 8);
        let uncapped = JoinConfig {
            max_partitions: 0,
            ..cfg
        };
        assert_eq!(
            adaptive_partitions(1_000_000, &uncapped),
            default_parallelism()
        );
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
        let j = par_natural_join(&l, &r, 8);
        let jb = broadcast_natural_join(&l, &r, 8);
        let delta = (bytes.get() - before.0, calls.get() - before.1);
        metrics::set_enabled(false);
        assert!(j.num_rows() > 0);
        assert_eq!(j.num_rows(), jb.num_rows());
        // Partition-native writes: concat is never invoked on the join path.
        assert_eq!(delta, (0, 0));
    }

    #[test]
    fn skewed_hot_key_matches_serial_and_bounds_straggler() {
        use crate::metrics;
        let _guard = metrics::test_lock();
        // 90% of probe rows share key 42; the build side holds several rows
        // for it, so the naive hash split would send 90% of all probe work
        // (and more of the output) to one partition.
        let probe = skewed_table(&["k", "a"], 20_000, 42, 90, 11);
        let build = random_table(&["k", "b"], 300, 97, 12);
        let serial = ops::natural_join(&probe, &build);
        metrics::set_enabled(true);
        metrics::gauge("columnar.par_join.presplit_skew_pct").set(0);
        metrics::gauge("columnar.par_join.max_skew_pct").set(0);
        metrics::gauge("columnar.par_join.straggler_pct").set(0);
        let par = par_natural_join(&probe, &build, 8);
        let presplit = metrics::gauge("columnar.par_join.presplit_skew_pct").get();
        let skew = metrics::gauge("columnar.par_join.max_skew_pct").get();
        let straggler = metrics::gauge("columnar.par_join.straggler_pct").get();
        metrics::set_enabled(false);
        assert_eq!(row_multiset(&par), row_multiset(&serial));
        assert!(
            presplit > SKEW_TRIGGER_PCT as u64,
            "input not actually skewed: {presplit}%"
        );
        assert!(skew <= 150, "post-mitigation skew {skew}% > 150%");
        assert!(
            straggler <= 150,
            "straggler partition {straggler}% > 150% of median"
        );
    }

    #[test]
    fn resplit_flattens_partition_level_skew() {
        use crate::metrics;
        let _guard = metrics::test_lock();
        const PARTS: usize = 8;
        // Many *distinct* keys that all co-hash into partition 0, each under
        // the hot-key threshold: per-key broadcasting cannot balance this,
        // only dissolving the partition can.
        let colliding: Vec<u32> = (0u32..)
            .filter(|&k| partition_of(k as u64, PARTS) == 0)
            .take(64)
            .collect();
        let n = 24_000;
        let probe_rows: Vec<Vec<u32>> = (0..n)
            .map(|i| {
                // 80% of rows cycle through the colliding keys, the rest
                // spread over the full key space.
                let k = if i % 5 != 0 {
                    colliding[i % 64]
                } else {
                    i as u32 % 797
                };
                vec![k, i as u32]
            })
            .collect();
        let probe = table(&["k", "a"], &probe_rows);
        let build_rows: Vec<Vec<u32>> = (0..797u32).map(|k| vec![k, k + 1]).collect();
        let build = table(&["k", "b"], &build_rows);
        let serial = ops::natural_join(&probe, &build);

        metrics::set_enabled(true);
        metrics::gauge("columnar.par_join.straggler_pct").set(0);
        let resplit_counter = metrics::counter("columnar.join.resplits");
        let before = resplit_counter.get();
        let (par, resplits) =
            partitioned_natural_join(&probe, &build, PARTS, &JoinConfig::default());
        let straggler = metrics::gauge("columnar.par_join.straggler_pct").get();
        let counted = resplit_counter.get() - before;
        metrics::set_enabled(false);

        assert_eq!(row_multiset(&par), row_multiset(&serial));
        assert!(
            resplits >= 1,
            "partition-level skew should trigger a re-split"
        );
        assert_eq!(counted, resplits as u64);
        assert!(
            straggler <= 150,
            "straggler {straggler}% > 150% after re-split"
        );

        // With re-splitting disabled the same input is a straggler.
        metrics::set_enabled(true);
        metrics::gauge("columnar.par_join.straggler_pct").set(0);
        let cfg = JoinConfig {
            max_resplits: 0,
            ..JoinConfig::default()
        };
        let (par, resplits) = partitioned_natural_join(&probe, &build, PARTS, &cfg);
        let unsplit = metrics::gauge("columnar.par_join.straggler_pct").get();
        metrics::set_enabled(false);
        assert_eq!(resplits, 0);
        assert_eq!(row_multiset(&par), row_multiset(&serial));
        assert!(
            unsplit > 150,
            "expected an unmitigated straggler, got {unsplit}%"
        );
    }

    #[test]
    fn build_side_hot_key_matches_serial() {
        // Hot on the *build* side: one key with huge multiplicity multiplies
        // output rows; the build-side histogram must broadcast it too.
        let build = skewed_table(&["k", "b"], 4000, 7, 80, 13);
        let probe = random_table(&["k", "a"], 8000, 97, 14);
        let serial = ops::natural_join(&probe, &build);
        let par = par_natural_join(&probe, &build, 8);
        assert_eq!(row_multiset(&par), row_multiset(&serial));
    }

    #[test]
    fn empty_partitions_are_fine() {
        let l = table(&["a", "k"], &[vec![1, 7]]);
        let r = table(&["k", "b"], &[vec![7, 9]]);
        let j = par_natural_join(&l, &r, 16);
        assert_eq!(j.num_rows(), 1);
        assert_eq!(j.row_vec(0), vec![1, 7, 9]);
        let j = broadcast_natural_join(&l, &r, 16);
        assert_eq!(j.num_rows(), 1);
        assert_eq!(j.row_vec(0), vec![1, 7, 9]);
    }

    #[test]
    fn empty_input_short_circuits() {
        let l = table(&["a", "k"], &[]);
        let r = random_table(&["k", "b"], 100, 8, 15);
        assert_eq!(par_natural_join(&l, &r, 8).num_rows(), 0);
        assert_eq!(par_natural_join(&r, &l, 8).num_rows(), 0);
        assert_eq!(broadcast_natural_join(&l, &r, 8).num_rows(), 0);
        assert_eq!(broadcast_natural_join(&r, &l, 8).num_rows(), 0);
    }
}
