//! The traced run: the per-layer numbers of one workload. The repository's
//! code is not touched, so every layer is measured from outside: spans
//! around public calls (the same query once as the client issues it, then
//! stage by stage: `parse_query`, `optimize`, `compile_bgp`, `eval_pattern`,
//! `eval_query`), and the counts those calls already return (`Explain`,
//! `DeltaSummary`, `CheckpointReport`, the `columnar::metrics` registry).
//! Counts are divided by the number of passes, so they repeat exactly for
//! one seed however long the run is.

use std::path::Path;
use std::time::Instant;

use s2rdf_columnar::exec::JoinStrategy;
use s2rdf_columnar::pool::{self, WorkerPool};
use s2rdf_columnar::TableStore;
use s2rdf_core::compiler::bgp::{compile_bgp, CompileOptions};
use s2rdf_core::engines::s2rdf::S2rdfEngine;
use s2rdf_core::engines::SparqlEngine;
use s2rdf_core::exec::{eval_pattern, eval_query, ExecContext, QueryOptions};
use s2rdf_core::{Explain, S2rdfStore};
use s2rdf_sparql::{optimizer, parse_query, GraphPattern};

use crate::inputs::{Inputs, Query};
use crate::oracle::State;
use crate::report::{median, quantile_of, Values};
use crate::setup::Setup;
use crate::spans::Tracer;
use crate::workloads::{self, Measured, Plan, Workload};

/// Staged passes of a full traced run.
const STAGED_PASSES: usize = 2;

fn ratio(part: f64, whole: f64) -> f64 {
    if whole == 0.0 {
        0.0
    } else {
        part / whole
    }
}

fn mean(sample: &[f64]) -> f64 {
    ratio(sample.iter().sum(), sample.len() as f64)
}

/// What the `Explain`s of the staged passes add up to.
#[derive(Default)]
struct Counts {
    queries: u64,
    client_us: f64,
    rows_out: u64,
    intermediate_rows: u64,
    statically_empty: u64,
    steps: u64,
    extvp_steps: u64,
    input_rows: u64,
    comparisons: u64,
    replans: u64,
    est_errors_log2: Vec<f64>,
    joins: u64,
    build_rows: u64,
    probe_rows: u64,
    out_rows: u64,
    broadcast_joins: u64,
    index_reuses: u64,
    pool_tasks: u64,
    pool_steals: u64,
    pool_busy_us: Vec<u64>,
    /// Scan and join time inside the staged `eval_pattern` calls.
    scan_us: f64,
    join_us: f64,
}

impl Counts {
    fn add(&mut self, rows: usize, e: &Explain) {
        self.queries += 1;
        self.rows_out += rows as u64;
        self.intermediate_rows += e.intermediate_rows.iter().sum::<usize>() as u64;
        self.statically_empty += e.statically_empty as u64;
        self.steps += e.bgp_steps.len() as u64;
        self.extvp_steps += e
            .bgp_steps
            .iter()
            .filter(|s| s.table.starts_with("ExtVP"))
            .count() as u64;
        self.input_rows += e.bgp_steps.iter().map(|s| s.rows as u64).sum::<u64>();
        self.comparisons += e.naive_join_comparisons;
        self.replans += e.replans.len() as u64;
        self.index_reuses += e.index_reuses as u64;
        for join in &e.join_steps {
            self.joins += 1;
            self.build_rows += join.decision.build_rows as u64;
            self.probe_rows += join.decision.probe_rows as u64;
            self.out_rows += join.decision.out_rows as u64;
            self.broadcast_joins += (join.decision.strategy == JoinStrategy::Broadcast) as u64;
            if let Some(est) = join.est_out_rows {
                let (est, seen) = (est.max(1) as f64, join.decision.out_rows.max(1) as f64);
                self.est_errors_log2.push((est / seen).log2().abs());
            }
        }
        if let Some(p) = &e.pool {
            self.pool_tasks += p.tasks;
            self.pool_steals += p.steals;
            self.pool_busy_us
                .resize(p.busy_micros.len().max(self.pool_busy_us.len()), 0);
            for (total, busy) in self.pool_busy_us.iter_mut().zip(&p.busy_micros) {
                *total += busy;
            }
        }
    }
}

/// One pass as the client issues it: the microseconds inside `query_opt`
/// (dropping a large answer takes as long as producing it, and no loop of
/// this benchmark counts that), and what its `Explain`s report.
fn client_pass(engine: &S2rdfEngine<'_>, queries: &[Query], m: &mut Measured) -> Counts {
    let mut counts = Counts::default();
    for q in queries {
        let started = Instant::now();
        let answer = engine.query_opt(&q.text, &QueryOptions::default());
        counts.client_us += started.elapsed().as_secs_f64() * 1e6;
        m.issued(&answer);
        if let Ok((solutions, explain)) = &answer {
            counts.add(solutions.len(), explain);
        }
    }
    counts
}

/// One staged pass: every query once through `query_opt`, then the same
/// query as one public call per layer, each in its own span below the
/// query's span.
fn staged_pass(
    store: &S2rdfStore,
    queries: &[Query],
    tracer: &mut Tracer,
    c: &mut Counts,
    m: &mut Measured,
) {
    let engine = store.engine(true);
    let options = QueryOptions::default();
    for (no, q) in queries.iter().enumerate() {
        let (root, id) = (tracer.open("query", None, Some(no)), Some(no));
        let parent = Some(root);

        let started = Instant::now();
        let answer = tracer.time("engine.query_opt", parent, id, || {
            engine.query_opt(&q.text, &options)
        });
        c.client_us += started.elapsed().as_secs_f64() * 1e6;
        m.issued(&answer);
        if let Ok((solutions, explain)) = &answer {
            c.add(solutions.len(), explain);
        }
        drop(answer);

        let parsed = tracer.time("sparql.parse_query", parent, id, || parse_query(&q.text));
        let Ok(parsed) = parsed else { continue };
        let optimized = tracer.time("sparql.optimize", parent, id, || {
            let mut query = parsed.clone();
            optimizer::optimize(&mut query);
            query
        });
        if let GraphPattern::Bgp(bgp) = &optimized.pattern {
            for (name, dp_max_patterns) in [
                ("compiler.compile_bgp", options.dp_max_patterns),
                ("compiler.compile_bgp.greedy", 0),
            ] {
                let compile = CompileOptions {
                    use_extvp: true,
                    optimize_join_order: options.optimize_join_order,
                    dp_max_patterns,
                };
                tracer.time(name, parent, id, || {
                    compile_bgp(bgp, store.catalog(), store.dict(), compile)
                });
            }
        }
        let mut ctx = ExecContext::new(store.dict(), options);
        let _ = tracer.time("exec.eval_pattern", parent, id, || {
            eval_pattern(&engine, &optimized.pattern, &mut ctx)
        });
        c.scan_us += ctx
            .explain
            .bgp_steps
            .iter()
            .map(|s| s.wall_micros as f64)
            .sum::<f64>();
        c.join_us += ctx
            .explain
            .join_steps
            .iter()
            .map(|j| j.wall_micros as f64)
            .sum::<f64>();
        let mut ctx = ExecContext::new(store.dict(), options);
        let _ = tracer.time("exec.eval_query", parent, id, || {
            eval_query(&engine, &parsed, &mut ctx)
        });
        tracer.close(root);
    }
}

/// Reads every VP and every materialized ExtVP table once on a fresh
/// handle: file read, checksum and decode of a first touch, in microseconds.
fn first_touches(dir: &Path, tracer: &mut Tracer) -> Vec<f64> {
    let store = S2rdfStore::load(dir).expect("the saved store opens");
    let predicates: Vec<_> = store.catalog().vp_sizes().map(|(p, _)| p).collect();
    for p in predicates {
        let _ = tracer.time("store.try_vp_table", None, None, || store.try_vp_table(p));
    }
    let keys: Vec<_> = store
        .catalog()
        .extvp_stats()
        .filter(|(_, s)| s.materialized)
        .map(|(k, _)| *k)
        .collect();
    for key in keys {
        let _ = tracer.time("store.try_extvp_table", None, None, || {
            store.try_extvp_table(&key)
        });
    }
    let mut touches = tracer.micros("store.try_vp_table");
    touches.extend(tracer.micros("store.try_extvp_table"));
    touches
}

/// The layers set-up already measured.
fn setup_layers(v: &mut Values, inputs: &Inputs, setup: &Setup) {
    v.set("setup.generate_s", inputs.generate_s, 1);
    v.set("setup.wall_s", setup.wall_s, 1);
    v.set("model.ntriples_parse_s", setup.parse_s, 1);
    v.set("model.dict_terms", setup.dict_terms as f64, 1);
    v.set("store.build_s", setup.build_s, 1);
    v.set("store.save_s", setup.save_s, 1);
    v.set("store.bytes_total", setup.bytes_total as f64, 1);
    v.set("store.bytes_extvp", setup.bytes_extvp as f64, 1);
    v.set("store.tables", setup.tables as f64, 1);
    v.set(
        "store.small_table_bytes_share",
        setup.small_table_bytes_share,
        1,
    );
    v.set(
        "extvp.tuples_per_vp_tuple",
        setup.extvp_tuples_per_vp_tuple,
        1,
    );
}

/// The write side, from what `update`'s rounds returned and counted.
fn write_layers(v: &mut Values, m: &Measured) {
    let (w, counted) = (&m.writes, &m.counted);
    let batches: Vec<f64> = w.delete_ms.iter().chain(&w.insert_ms).copied().collect();
    if batches.is_empty() {
        return;
    }
    let n = batches.len() as u64;
    let write_s = (batches.iter().sum::<f64>() + w.checkpoint_ms.iter().sum::<f64>()) / 1e3;
    v.set("update.batch_p50_ms", median(&batches), n);
    v.set(
        "update.triples_per_s",
        ratio(w.triples_applied as f64, write_s),
        n,
    );
    v.set(
        "store.insert_ms",
        median(&w.insert_ms),
        w.insert_ms.len() as u64,
    );
    v.set(
        "store.delete_ms",
        median(&w.delete_ms),
        w.delete_ms.len() as u64,
    );
    let checkpoints = w.checkpoint_ms.len() as u64;
    if checkpoints > 0 {
        v.set("store.checkpoint_ms", median(&w.checkpoint_ms), checkpoints);
        v.set(
            "store.checkpoint_cpu_ms",
            median(&w.checkpoint_cpu_s) * 1e3,
            checkpoints,
        );
    }
    v.set(
        "store.checkpoint_tables_flushed",
        ratio(w.tables_flushed as f64, checkpoints as f64),
        checkpoints,
    );
    v.set(
        "extvp.recomputed_per_batch",
        w.extvp_recomputed as f64 / n as f64,
        n,
    );
    let wal_bytes = counted.get("wal.append_bytes");
    v.set(
        "wal.bytes_per_triple",
        ratio(wal_bytes, w.triples_applied as f64),
        n,
    );
    v.set(
        "io.bytes_written_per_user_byte",
        ratio(
            wal_bytes + counted.get("io.bytes_written"),
            w.user_bytes as f64,
        ),
        n,
    );
    v.set("store.reopen_replay_ms", w.reopen_ms, 1);
    v.set("wal.replayed_records", w.replayed_records as f64, 1);
}

/// A pool of one worker, for `pool.speedup`. `with_pool` wants a `'static`
/// pool; one worker spawns no thread, so leaking it leaves nothing running.
fn one_worker_pool() -> &'static WorkerPool {
    Box::leak(Box::new(WorkerPool::with_workers(1)))
}

pub fn run(
    workload: Workload,
    inputs: &Inputs,
    setup: &Setup,
    plan: Plan,
    tracer: &mut Tracer,
) -> (Values, Measured) {
    let queries = workload.queries(inputs, 0);
    let dir = setup.dir.as_path();
    let mut v = Values::default();
    setup_layers(&mut v, inputs, setup);

    let touches = first_touches(dir, tracer);
    v.set("io.fetch_us", mean(&touches), touches.len() as u64);
    let _ = tracer.time("io.manifest_open", None, None, || {
        TableStore::open(dir.join("tables"))
    });
    v.set(
        "io.manifest_open_ms",
        tracer.total_micros("io.manifest_open") / 1e3,
        1,
    );

    // `cold` and `update` are more than warm reads: their own loop runs
    // first and supplies the io and write layers, counted inside its timed
    // cycles and rounds only.
    let mut m = match workload {
        Workload::Cold => workloads::run_cold(dir, inputs, plan, tracer),
        Workload::Update => workloads::run_update(dir, inputs, plan, tracer),
        _ => Measured::default(),
    };
    let loop_passes = m.passes;
    write_layers(&mut v, &m);

    let store = tracer
        .time("store.load", None, None, || S2rdfStore::load(dir))
        .expect("the saved store opens");
    workloads::checked_pass(&store, &queries, State::Full, &mut m);
    let engine = store.engine(true);
    let passes = plan.min_passes.min(STAGED_PASSES);
    let mut c = Counts::default();
    let counting = tracer.count();
    for _ in 0..passes {
        staged_pass(&store, &queries, tracer, &mut c, &mut m);
    }
    let staged_counted = counting.stop();
    // The untraced reference runs after the staged passes, as warm as they
    // were: right after the checked pass, whose fingerprints churn through
    // more memory than the queries, a pass takes up to twice as long.
    let untraced_us = client_pass(&engine, &queries, &mut m).client_us;
    let vp = client_pass(&store.engine(false), &queries, &mut m);
    let single_us =
        pool::with_pool(one_worker_pool(), || client_pass(&engine, &queries, &mut m)).client_us;

    let t = passes as f64;
    let n = c.queries;
    let total = |name: &str| tracer.total_micros(name);
    let (parse, optimize, plan_us) = (
        total("sparql.parse_query"),
        total("sparql.optimize"),
        total("compiler.compile_bgp"),
    );
    let (pattern, whole) = (total("exec.eval_pattern"), total("exec.eval_query"));
    v.set("sparql.parse_us", parse / n as f64, n);
    v.set("sparql.optimize_us", optimize / n as f64, n);
    let plans = tracer.micros("compiler.compile_bgp");
    v.set("compiler.plan_us", mean(&plans), plans.len() as u64);
    v.set(
        "compiler.plan_p99_us",
        quantile_of(plans.clone(), 0.99),
        plans.len() as u64,
    );
    v.set(
        "compiler.frontend_share",
        ratio(parse + optimize + plan_us, c.client_us),
        n,
    );
    v.set(
        "compiler.dp_share",
        (1.0 - ratio(total("compiler.compile_bgp.greedy"), plan_us)).max(0.0),
        n,
    );
    v.set("compiler.replans", c.replans as f64 / t, n);
    if !c.est_errors_log2.is_empty() {
        v.set(
            "compiler.est_error_log2_p50",
            median(&c.est_errors_log2),
            c.est_errors_log2.len() as u64,
        );
    }
    v.set(
        "compiler.extvp_step_share",
        ratio(c.extvp_steps as f64, c.steps as f64),
        c.steps,
    );
    v.set(
        "compiler.input_rows_ratio",
        ratio(c.input_rows as f64 / t, vp.input_rows as f64),
        n,
    );
    v.set(
        "compiler.join_comparisons_ratio",
        ratio(c.comparisons as f64 / t, vp.comparisons as f64),
        n,
    );

    let finish = (whole - pattern - optimize).max(0.0);
    v.set("exec.eval_pattern_ms", pattern / t / 1e3, n);
    v.set("exec.scan_ms", c.scan_us / t / 1e3, n);
    v.set("exec.finish_ms", finish / t / 1e3, n);
    v.set("exec.finish_share", ratio(finish, whole), n);
    v.set("exec.rows_out", c.rows_out as f64 / t, n);
    v.set("exec.intermediate_rows", c.intermediate_rows as f64 / t, n);
    v.set(
        "exec.statically_empty_share",
        ratio(c.statically_empty as f64, n as f64),
        n,
    );
    v.set(
        "exec.unattributed_share",
        ratio(pattern - plan_us - c.scan_us - c.join_us, pattern),
        n,
    );

    v.set("join.calls", c.joins as f64 / t, c.joins);
    v.set("join.build_rows", c.build_rows as f64 / t, c.joins);
    v.set("join.probe_rows", c.probe_rows as f64 / t, c.joins);
    v.set("join.out_rows", c.out_rows as f64 / t, c.joins);
    v.set("join.busy_ms", c.join_us / t / 1e3, c.joins);
    v.set(
        "join.broadcast_share",
        ratio(c.broadcast_joins as f64, c.joins as f64),
        c.joins,
    );
    v.set("join.index_reuses", c.index_reuses as f64 / t, c.joins);

    let workers = pool::global().workers();
    let busy: Vec<f64> = c.pool_busy_us.iter().map(|&us| us as f64).collect();
    v.set("pool.workers", workers as f64, 1);
    v.set("pool.tasks", c.pool_tasks as f64 / t, n);
    v.set("pool.steals", c.pool_steals as f64 / t, n);
    v.set(
        "pool.busy_share",
        ratio(busy.iter().sum(), workers as f64 * c.client_us),
        n,
    );
    v.set(
        "pool.skew",
        ratio(busy.iter().copied().fold(0.0, f64::max), mean(&busy)),
        n,
    );
    v.set("pool.speedup", ratio(single_us, untraced_us), 1);

    // Per cycle of `cold`, per round of `update`, per staged pass otherwise.
    let (counted, io_passes) = if loop_passes > 0 {
        (&m.counted, loop_passes as f64)
    } else {
        (&staged_counted, t)
    };
    let io = |name: &str| counted.get(name);
    v.set("io.tables_read", io("io.tables_read") / io_passes, 1);
    v.set("io.bytes_read", io("io.bytes_read") / io_passes, 1);
    v.set(
        "io.checksum_verifies",
        io("io.checksum_verifies") / io_passes,
        1,
    );
    v.set(
        "io.cache_hit_ratio",
        ratio(
            io("io.cache_hits"),
            io("io.cache_hits") + io("io.cache_misses"),
        ),
        1,
    );
    v.set("io.chunks_decoded", io("io.chunks_decoded") / io_passes, 1);
    v.set(
        "io.prune_ratio",
        ratio(
            io("io.chunks_pruned"),
            io("io.chunks_pruned") + io("io.chunks_decoded"),
        ),
        1,
    );

    v.set(
        "trace.unattributed_share",
        1.0 - ratio(parse + whole, c.client_us),
        n,
    );
    v.set(
        "trace.overhead_share",
        ratio(c.client_us / t, untraced_us) - 1.0,
        n,
    );
    v.set("trace.spans", tracer.len() as f64, 1);
    (v, m)
}
