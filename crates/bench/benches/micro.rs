//! Micro/ablation benches for the design choices DESIGN.md calls out:
//! join-order optimization on/off (paper Fig. 12), serial vs
//! morsel-parallel hash joins, ExtVP construction, and SPARQL parsing.

use criterion::{criterion_group, criterion_main, Criterion};

use rand::rngs::StdRng;
use rand::SeedableRng;

use s2rdf_bench::dataset;
use s2rdf_columnar::exec::{natural_join_adaptive, JoinConfig};
use s2rdf_columnar::ops::natural_join;
use s2rdf_columnar::{Schema, Table};
use s2rdf_core::engines::SparqlEngine;
use s2rdf_core::exec::QueryOptions;
use s2rdf_core::{BuildOptions, S2rdfStore};
use s2rdf_watdiv::Workload;

fn bench_join_order_ablation(c: &mut Criterion) {
    let data = dataset(1);
    let store = S2rdfStore::build(&data.graph, &BuildOptions::default());
    let engine = store.engine(true);
    let mut rng = StdRng::seed_from_u64(3);
    let query = Workload::basic_testing()
        .get("C2")
        .unwrap()
        .instantiate(&data, &mut rng);

    let mut group = c.benchmark_group("micro_join_order");
    group.sample_size(10);
    group.bench_function("optimized", |b| {
        let opts = QueryOptions {
            optimize_join_order: true,
            ..Default::default()
        };
        b.iter(|| engine.query_opt(&query, &opts).unwrap())
    });
    group.bench_function("as_written", |b| {
        let opts = QueryOptions {
            optimize_join_order: false,
            ..Default::default()
        };
        b.iter(|| engine.query_opt(&query, &opts).unwrap())
    });
    group.finish();
}

fn bench_parallel_join(c: &mut Criterion) {
    // Two synthetic 200k-row tables with join keys of cardinality 50k.
    let mut rng_state = 0x12345u64;
    let mut next = move || {
        rng_state = rng_state.wrapping_mul(6364136223846793005).wrapping_add(1);
        ((rng_state >> 33) as u32) % 50_000
    };
    let n = 200_000;
    let left = Table::from_columns(
        Schema::new(["a", "k"]),
        vec![(0..n).collect(), (0..n).map(|_| next()).collect()],
    );
    let right = Table::from_columns(
        Schema::new(["k", "b"]),
        vec![(0..n).map(|_| next()).collect(), (0..n).collect()],
    );

    let mut group = c.benchmark_group("micro_parallel_join");
    group.sample_size(10);
    group.bench_function("serial", |b| b.iter(|| natural_join(&left, &right)));
    for morsel_rows in [1 << 12, 1 << 14, 1 << 16] {
        let cfg = JoinConfig { morsel_rows };
        group.bench_function(format!("morsel_rows_{morsel_rows}"), |b| {
            b.iter(|| natural_join_adaptive(&left, &right, &cfg))
        });
    }
    group.finish();
}

fn bench_extvp_build(c: &mut Criterion) {
    let data = dataset(1);
    let mut group = c.benchmark_group("micro_extvp_build");
    group.sample_size(10);
    group.bench_function("build_extvp_sf1", |b| {
        b.iter(|| S2rdfStore::build(&data.graph, &BuildOptions::default()))
    });
    group.finish();
}

fn bench_parser(c: &mut Criterion) {
    let data = dataset(1);
    let mut rng = StdRng::seed_from_u64(9);
    let query = Workload::basic_testing()
        .get("C2")
        .unwrap()
        .instantiate(&data, &mut rng);
    c.bench_function("micro_parse_c2", |b| {
        b.iter(|| s2rdf_sparql::parse_query(&query).unwrap())
    });
}

fn bench_extvp_modes(c: &mut Criterion) {
    // Ablation of the ExtVP physical representation: materialized tables
    // (the paper's scheme) vs bitmaps (§8 future work) vs lazy
    // materialization (§7 "pay as you go") — build cost and query cost.
    use s2rdf_core::layout::extvp::ExtVpMode;
    let data = dataset(1);
    let mut rng = StdRng::seed_from_u64(13);
    let query = Workload::basic_testing()
        .get("F5")
        .unwrap()
        .instantiate(&data, &mut rng);

    let mut group = c.benchmark_group("micro_extvp_modes");
    group.sample_size(10);
    for mode in [
        ExtVpMode::Materialized,
        ExtVpMode::BitVector,
        ExtVpMode::Lazy,
    ] {
        group.bench_function(format!("build/{mode:?}"), |b| {
            b.iter(|| {
                S2rdfStore::build(
                    &data.graph,
                    &BuildOptions {
                        mode,
                        ..Default::default()
                    },
                )
            })
        });
        let store = S2rdfStore::build(
            &data.graph,
            &BuildOptions {
                mode,
                ..Default::default()
            },
        );
        let engine = store.engine(true);
        engine.query(&query).unwrap(); // warm the lazy cache once
        group.bench_function(format!("query_f5/{mode:?}"), |b| {
            b.iter(|| engine.query(&query).unwrap())
        });
    }
    group.finish();
}

fn bench_intersection_ablation(c: &mut Criterion) {
    // The §8 future-work correlation-intersection optimization: tighter
    // scans bought with query-time hash-set intersection.
    let data = dataset(1);
    let store = S2rdfStore::build(&data.graph, &BuildOptions::default());
    let engine = store.engine(true);
    let mut rng = StdRng::seed_from_u64(17);
    let query = Workload::basic_testing()
        .get("F3")
        .unwrap()
        .instantiate(&data, &mut rng);
    let mut group = c.benchmark_group("micro_intersect_correlations");
    group.sample_size(10);
    for (label, on) in [("best_table_only", false), ("intersect_all", true)] {
        let opts = QueryOptions {
            intersect_correlations: on,
            ..Default::default()
        };
        group.bench_function(label, |b| {
            b.iter(|| engine.query_opt(&query, &opts).unwrap())
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_join_order_ablation,
    bench_intersection_ablation,
    bench_parallel_join,
    bench_extvp_build,
    bench_extvp_modes,
    bench_parser
);
criterion_main!(benches);
