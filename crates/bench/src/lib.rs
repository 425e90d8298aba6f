//! Benchmark harness for regenerating the paper's evaluation (§7).
//!
//! The `repro_*` binaries in `src/bin/` print paper-style tables:
//!
//! | Binary | Paper artifact |
//! |---|---|
//! | `repro_table2` | Table 2 (load times and store sizes) |
//! | `repro_table3_st` | Table 3 / Fig. 13 (Selectivity Testing, ExtVP vs VP) |
//! | `repro_table4_basic` | Table 4 / Fig. 14 (Basic Testing across engines) |
//! | `repro_table5_il` | Table 5 / Fig. 15 (Incremental Linear across engines) |
//! | `repro_table6_threshold` | Table 6 / Fig. 16 (SF-threshold sweep) |
//!
//! `benches/micro.rs` holds the Criterion micro/ablation benches
//! (join-order on/off, parallel vs serial joins, ExtVP construction).
//! End-to-end and per-layer performance numbers come from the `benchmark`
//! binary declared in `BENCHMARK.json`.

use std::time::{Duration, Instant};

use s2rdf_core::engines::adaptive::AdaptiveEngine;
use s2rdf_core::engines::batch::{BatchEngine, JobGranularity};
use s2rdf_core::engines::centralized::CentralizedEngine;
use s2rdf_core::engines::property_table::PropertyTableEngine;
use s2rdf_core::engines::triples_table::TriplesTableEngine;
use s2rdf_core::engines::SparqlEngine;
use s2rdf_core::exec::QueryOptions;
use s2rdf_core::{BuildOptions, CoreError, S2rdfStore};
use s2rdf_watdiv::{generate, Config, Dataset};

/// A measured query run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Measurement {
    /// Completed in the given time with the given result cardinality.
    Ok(Duration, usize),
    /// Hit the deadline (the paper's "F" entries).
    Timeout,
    /// Failed with an error (reported, should not happen).
    Error,
}

impl Measurement {
    /// Milliseconds for table cells; `None` for timeouts/errors.
    pub fn millis(&self) -> Option<f64> {
        match self {
            Measurement::Ok(d, _) => Some(d.as_secs_f64() * 1e3),
            _ => None,
        }
    }
}

/// Runs one query with a deadline and wall-clock timing.
pub fn time_query(engine: &dyn SparqlEngine, query: &str, timeout: Duration) -> Measurement {
    let options = QueryOptions {
        deadline: Some(Instant::now() + timeout),
        ..Default::default()
    };
    let start = Instant::now();
    match engine.query_opt(query, &options) {
        Ok((solutions, _)) => Measurement::Ok(start.elapsed(), solutions.len()),
        Err(CoreError::Timeout) => Measurement::Timeout,
        Err(e) => {
            eprintln!("[{}] query failed: {e}", engine.name());
            Measurement::Error
        }
    }
}

/// Arithmetic mean of the successful runs; `None` if any run failed
/// (mirroring the paper's handling: an "F" makes the aggregate N/A).
pub fn aggregate(ms: &[Measurement]) -> Option<f64> {
    let mut total = 0.0;
    for m in ms {
        total += m.millis()?;
    }
    Some(total / ms.len() as f64)
}

/// Formats a table cell: milliseconds, or "F" for failures (timeouts), as
/// in the paper's Table 5.
pub fn cell(value: Option<f64>) -> String {
    match value {
        Some(ms) => format!("{ms:.1}"),
        None => "F".to_string(),
    }
}

/// The full engine lineup of the paper's comparison, built over one
/// dataset.
pub struct Engines {
    /// S2RDF store (ExtVP + VP paths).
    pub store: S2rdfStore,
    /// Triples-table baseline.
    pub triples_table: TriplesTableEngine,
    /// Property-table (Sempala-style) baseline.
    pub property_table: PropertyTableEngine,
    /// H2RDF+-style adaptive engine.
    pub adaptive: AdaptiveEngine,
    /// SHARD-style batch engine.
    pub shard: BatchEngine,
    /// PigSPARQL-style batch engine.
    pub pigsparql: BatchEngine,
    /// Centralized (Virtuoso-style) engine.
    pub centralized: CentralizedEngine,
    work_dir: std::path::PathBuf,
}

impl Engines {
    /// Builds every engine over a dataset. `batch_overhead` is the
    /// simulated per-job latency of the MapReduce engines.
    pub fn build(data: &Dataset, batch_overhead: Duration) -> Engines {
        let work_dir = std::env::temp_dir().join(format!(
            "s2rdf-bench-{}-{}",
            std::process::id(),
            data.graph.len()
        ));
        let store = S2rdfStore::build(&data.graph, &BuildOptions::default());
        let triples_table = TriplesTableEngine::new(&data.graph);
        let property_table = PropertyTableEngine::new(&data.graph);
        let shard = BatchEngine::new(
            &data.graph,
            work_dir.join("shard"),
            batch_overhead,
            JobGranularity::PerPattern,
        )
        .expect("batch engine setup");
        let pigsparql = BatchEngine::new(
            &data.graph,
            work_dir.join("pig"),
            batch_overhead,
            JobGranularity::MultiJoin,
        )
        .expect("batch engine setup");
        let centralized = CentralizedEngine::new(&data.graph);
        // H2RDF+-style budget: ~5% of the triples; larger patterns go to
        // the batch path like H2RDF+'s MapReduce fallback.
        let adaptive = AdaptiveEngine::new(
            &data.graph,
            work_dir.join("adaptive"),
            batch_overhead,
            data.graph.len() / 20,
        )
        .expect("adaptive engine setup");
        Engines {
            store,
            triples_table,
            property_table,
            adaptive,
            shard,
            pigsparql,
            centralized,
            work_dir,
        }
    }

    /// Iterates `(label, engine)` pairs in the paper's reporting order.
    pub fn for_each(&self, mut f: impl FnMut(&str, &dyn SparqlEngine)) {
        let extvp = self.store.engine(true);
        f("S2RDF ExtVP", &extvp);
        let vp = self.store.engine(false);
        f("S2RDF VP", &vp);
        f("H2RDF+-sim", &self.adaptive);
        f("Sempala-sim (PT)", &self.property_table);
        f("TriplesTable", &self.triples_table);
        f("PigSPARQL-sim", &self.pigsparql);
        f("SHARD-sim", &self.shard);
        f("Virtuoso-sim", &self.centralized);
    }

    /// Engine labels in reporting order.
    pub fn labels() -> Vec<&'static str> {
        vec![
            "S2RDF ExtVP",
            "S2RDF VP",
            "H2RDF+-sim",
            "Sempala-sim (PT)",
            "TriplesTable",
            "PigSPARQL-sim",
            "SHARD-sim",
            "Virtuoso-sim",
        ]
    }
}

impl Drop for Engines {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.work_dir);
    }
}

/// Generates the WatDiv-style dataset for a scale factor (fixed seed so
/// every binary sees the same data).
pub fn dataset(scale: u32) -> Dataset {
    generate(&Config { scale, seed: 42 })
}

/// Tiny CLI-argument reader: `--key value` flags with defaults, used by
/// all `repro_*` binaries.
pub struct Args {
    args: Vec<String>,
}

impl Args {
    /// Reads the process arguments.
    pub fn parse() -> Args {
        Args {
            args: std::env::args().skip(1).collect(),
        }
    }

    /// The value of `--name <v>`, or the default.
    pub fn get<T: std::str::FromStr>(&self, name: &str, default: T) -> T {
        let flag = format!("--{name}");
        self.args
            .iter()
            .position(|a| a == &flag)
            .and_then(|i| self.args.get(i + 1))
            .and_then(|v| v.parse().ok())
            .unwrap_or(default)
    }
}

/// Right-aligned fixed-width table printing.
pub fn print_row(cells: &[String], widths: &[usize]) {
    let line: Vec<String> = cells
        .iter()
        .zip(widths)
        .map(|(c, w)| format!("{c:>w$}", w = w))
        .collect();
    println!("{}", line.join("  "));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn aggregate_handles_failures() {
        let ok = Measurement::Ok(Duration::from_millis(10), 1);
        assert_eq!(aggregate(&[ok, ok]), Some(10.0));
        assert_eq!(aggregate(&[ok, Measurement::Timeout]), None);
        assert_eq!(cell(None), "F");
        assert_eq!(cell(Some(1.25)), "1.2");
    }

    #[test]
    fn engines_build_and_agree_on_a_small_query() {
        let data = dataset(1);
        let engines = Engines::build(&data, Duration::ZERO);
        let q = "PREFIX wsdbm: <http://db.uwaterloo.ca/~galuc/wsdbm/>
                 SELECT * WHERE { ?x wsdbm:subscribes ?w . ?x wsdbm:likes ?p }";
        let mut canon: Vec<Vec<String>> = Vec::new();
        engines.for_each(|label, e| {
            let s = e.query(q).unwrap_or_else(|err| panic!("{label}: {err}"));
            canon.push(s.canonical());
        });
        for c in &canon[1..] {
            assert_eq!(c, &canon[0]);
        }
    }
}
