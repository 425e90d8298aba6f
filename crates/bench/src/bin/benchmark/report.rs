//! Metric names, units and bounds (the same list `BENCHMARK.json` carries),
//! the order statistics the metrics are built from, and the printed report.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::json;

/// One metric of `BENCHMARK.json`. `bound` is the relative worsening that
/// counts as a regression; per-layer metrics carry none and never gate.
pub struct Spec {
    pub name: &'static str,
    pub unit: &'static str,
    pub higher_is_better: bool,
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, higher: bool, bound: f64) -> Spec {
    Spec {
        name,
        unit,
        higher_is_better: higher,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, higher: bool) -> Spec {
    Spec {
        name,
        unit,
        higher_is_better: higher,
        bound: None,
    }
}

/// What a user of `s2rdf load` / `query` / `update` pays. Every workload
/// reports every one of them.
pub const END_TO_END: &[Spec] = &[
    e2e("setup_s", "s", false, 0.25),
    e2e("open_p50_ms", "ms", false, 0.25),
    e2e("query_p50_ms", "ms", false, 0.25),
    e2e("query_tail_ms", "ms", false, 0.25),
    e2e("queries_per_s", "1/s", true, 0.25),
    e2e("result_rows_per_s", "1/s", true, 0.25),
    e2e("store_bytes_per_triple", "B", false, 0.02),
    e2e("peak_rss_mb", "MB", false, 0.20),
];

/// Single layers, named after the repository's modules. Printed by the
/// traced run only.
pub const PER_LAYER: &[Spec] = &[
    // benchmark
    layer("setup.generate_s", "s", false),
    layer("setup.verify_s", "s", false),
    layer("setup.wall_s", "s", false),
    // model
    layer("model.ntriples_parse_s", "s", false),
    layer("model.dict_terms", "count", false),
    // core.layout / core.store (build)
    layer("store.build_s", "s", false),
    layer("store.save_s", "s", false),
    layer("store.bytes_total", "B", false),
    layer("store.bytes_extvp", "B", false),
    layer("store.tables", "count", false),
    layer("store.small_table_bytes_share", "ratio", false),
    layer("extvp.tuples_per_vp_tuple", "ratio", false),
    // sparql
    layer("sparql.parse_us", "us", false),
    layer("sparql.optimize_us", "us", false),
    // core.compiler
    layer("compiler.plan_us", "us", false),
    layer("compiler.plan_p99_us", "us", false),
    layer("compiler.frontend_share", "ratio", false),
    layer("compiler.dp_share", "ratio", false),
    layer("compiler.replans", "count", false),
    layer("compiler.est_error_log2_p50", "log2", false),
    layer("compiler.extvp_step_share", "ratio", true),
    layer("compiler.input_rows_ratio", "ratio", false),
    layer("compiler.join_comparisons_ratio", "ratio", false),
    // core.exec
    layer("exec.eval_pattern_ms", "ms", false),
    layer("exec.scan_ms", "ms", false),
    layer("exec.finish_ms", "ms", false),
    layer("exec.finish_share", "ratio", false),
    layer("exec.rows_out", "count", false),
    layer("exec.intermediate_rows", "count", false),
    layer("exec.statically_empty_share", "ratio", true),
    layer("exec.unattributed_share", "ratio", false),
    // columnar.exec / ops
    layer("join.calls", "count", false),
    layer("join.build_rows", "count", false),
    layer("join.probe_rows", "count", false),
    layer("join.out_rows", "count", false),
    layer("join.busy_ms", "ms", false),
    layer("join.broadcast_share", "ratio", true),
    layer("join.index_reuses", "count", true),
    // columnar.pool
    layer("pool.workers", "count", true),
    layer("pool.tasks", "count", false),
    layer("pool.steals", "count", false),
    layer("pool.busy_share", "ratio", true),
    layer("pool.skew", "ratio", false),
    layer("pool.speedup", "ratio", true),
    // columnar.io / chunk
    layer("io.manifest_open_ms", "ms", false),
    layer("io.fetch_us", "us", false),
    layer("io.tables_read", "count", false),
    layer("io.bytes_read", "B", false),
    layer("io.checksum_verifies", "count", false),
    layer("io.cache_hit_ratio", "ratio", true),
    layer("io.chunks_decoded", "count", false),
    layer("io.prune_ratio", "ratio", true),
    // core.store (write) / columnar.wal
    layer("update.batch_p50_ms", "ms", false),
    layer("update.triples_per_s", "1/s", true),
    layer("store.insert_ms", "ms", false),
    layer("store.delete_ms", "ms", false),
    layer("store.checkpoint_ms", "ms", false),
    layer("store.checkpoint_cpu_ms", "ms", false),
    layer("store.checkpoint_tables_flushed", "count", false),
    layer("extvp.recomputed_per_batch", "count", false),
    layer("wal.bytes_per_triple", "B", false),
    layer("io.bytes_written_per_user_byte", "ratio", false),
    layer("store.reopen_replay_ms", "ms", false),
    layer("wal.replayed_records", "count", false),
    // trace
    layer("trace.unattributed_share", "ratio", false),
    layer("trace.overhead_share", "ratio", false),
    layer("trace.spans", "count", false),
];

/// The value at quantile `q` of an ascending slice (nearest rank).
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of an empty sample");
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Sorts a non-empty sample and returns its quantile.
pub fn quantile_of(mut sample: Vec<f64>, q: f64) -> f64 {
    sample.sort_by(f64::total_cmp);
    quantile(&sample, q)
}

pub fn median(sample: &[f64]) -> f64 {
    quantile_of(sample.to_vec(), 0.5)
}

/// What an operation that ran several times costs when the machine is left
/// alone: the lower quartile of its latencies. Other tenants of the sandbox
/// only ever add time, for seconds or for minutes, so the lower quartile is
/// steadier from run to run than the median; a slower program moves every
/// execution and the quartile with them.
pub fn typical(sample: &[f64]) -> f64 {
    quantile_of(sample.to_vec(), 0.25)
}

/// The geometric mean of a non-empty sample of positive values.
pub fn geometric_mean(sample: &[f64]) -> f64 {
    (sample.iter().map(|v| v.ln()).sum::<f64>() / sample.len() as f64).exp()
}

/// The highest of a few percentiles that still has at least ten samples
/// beyond it in a sample of `n`; the maximum when none has, which among
/// the seven queries of `bulk` is the slowest query.
///
/// The levels avoid multiples of 5 %. The workloads mix 20 (or 12)
/// equally weighted templates whose latencies cluster by template, so p95,
/// p90 and p75 fall on the boundary between two templates' clusters and
/// flip between them from run to run; p97.5, p92.5 and p87.5 fall inside a
/// cluster.
pub fn tail_level(n: usize) -> f64 {
    [990, 975, 925, 875, 750]
        .into_iter()
        .find(|permille| n * (1000 - permille) >= 10_000)
        .map_or(1.0, |permille| permille as f64 / 1000.0)
}

/// Metric values by name, with the sample count behind each.
#[derive(Default)]
pub struct Values(BTreeMap<&'static str, (f64, u64)>);

impl Values {
    pub fn set(&mut self, name: &'static str, value: f64, samples: u64) {
        self.0.insert(name, (value, samples));
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).map(|v| v.0)
    }

    /// The `metrics` object of the result line: every metric of `specs`, in
    /// their order. A metric the run did not measure is reported as 0.
    pub fn to_json(&self, specs: &[Spec]) -> String {
        let mut out = String::from("{");
        for (i, spec) in specs.iter().enumerate() {
            let value = self.get(spec.name).unwrap_or(0.0);
            let _ = write!(
                out,
                "{}{}: {{\"value\": {}, \"unit\": {}}}",
                if i > 0 { ", " } else { "" },
                json::string(spec.name),
                json::number(value),
                json::string(spec.unit),
            );
        }
        out.push('}');
        out
    }

    /// One line per metric: name, value, unit, sample count.
    pub fn to_table(&self, specs: &[Spec]) -> String {
        let mut out = String::new();
        for spec in specs {
            let (value, samples) = self.0.get(spec.name).copied().unwrap_or((0.0, 0));
            let _ = writeln!(
                out,
                "{:<36} {:>16} {:<6} n={samples}",
                spec.name,
                json::number(value),
                spec.unit
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_level_keeps_ten_samples_beyond() {
        assert_eq!(tail_level(1000), 0.99);
        assert_eq!(tail_level(999), 0.975);
        assert_eq!(tail_level(400), 0.975);
        assert_eq!(tail_level(399), 0.925);
        assert_eq!(tail_level(134), 0.925);
        assert_eq!(tail_level(133), 0.875);
        assert_eq!(tail_level(80), 0.875);
        assert_eq!(tail_level(79), 0.75);
        assert_eq!(tail_level(40), 0.75);
        assert_eq!(tail_level(39), 1.0);
        assert_eq!(tail_level(7), 1.0);
        for n in [40usize, 42, 80, 120, 400, 520, 1200, 50_000] {
            let q = tail_level(n);
            let sorted: Vec<f64> = (1..=n).map(|v| v as f64).collect();
            let beyond = n - quantile(&sorted, q) as usize;
            assert!(beyond >= 10, "n={n} q={q} leaves {beyond} beyond");
        }
    }

    #[test]
    fn quantile_is_nearest_rank() {
        let s = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(quantile(&s, 0.5), 2.0);
        assert_eq!(quantile(&s, 0.75), 3.0);
        assert_eq!(quantile(&s, 0.99), 4.0);
        assert_eq!(quantile(&s, 0.0), 1.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(typical(&[5.0, 1.0, 2.0, 9.0, 3.0, 4.0, 8.0, 7.0]), 2.0);
        assert_eq!(typical(&[5.0, 1.0, 2.0]), 1.0);
        assert!((geometric_mean(&[1.0, 4.0, 16.0]) - 4.0).abs() < 1e-12);
    }

    #[test]
    fn metric_names_are_unique_and_well_formed() {
        let mut seen = std::collections::BTreeSet::new();
        for spec in END_TO_END.iter().chain(PER_LAYER) {
            assert!(seen.insert(spec.name), "{} listed twice", spec.name);
            assert!(spec.name.len() <= 64 && spec.unit.len() <= 16);
            assert!(spec
                .name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
        }
        assert!(END_TO_END.iter().all(|s| s.bound.is_some()));
        assert!(PER_LAYER.iter().all(|s| s.bound.is_none()));
    }
}
