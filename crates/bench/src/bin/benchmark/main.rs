//! The one benchmark of this repository (ROADMAP item 1).
//!
//! ```text
//! benchmark --workload <basic|chain|bulk|cold|update> [--seed 42] [--seconds 8]
//!           [--trace 0|1] [--smoke] [--out runs.jsonl]
//! benchmark compare <a.jsonl> <b.jsonl>
//! benchmark expected        # regenerates expected_seed42.tsv on stdout
//! ```
//!
//! A run generates its inputs from the seed, sets the store up the way
//! `s2rdf load` does, runs one workload against the saved store, checks
//! every first execution against an independent oracle, and prints every
//! metric by name; the last line of its output is the result as JSON. See
//! README.md next to this file.

mod compare;
mod inputs;
mod json;
mod layers;
mod oracle;
mod report;
mod setup;
mod spans;
mod workloads;

use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

use inputs::{Inputs, Query};
use report::{
    geometric_mean, median, quantile_of, tail_level, typical, Spec, Values, END_TO_END, PER_LAYER,
};
use setup::Setup;
use spans::Tracer;
use workloads::{Measured, Plan, Workload};

/// WatDiv scale factor of a run: about 466 000 triples.
pub const SCALE: u32 = 5;
/// `--seconds` when it is not given: `run_seconds` of `BENCHMARK.json`.
const DEFAULT_SECONDS: f64 = 8.0;

const USAGE: &str = "usage: benchmark --workload <basic|chain|bulk|cold|update> [--seed <n>] \
[--seconds <s>] [--trace <0|1>] [--smoke] [--out <file>]\n       \
benchmark compare <a.jsonl> <b.jsonl> | expected";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    /// One pass at scale 1: checks the harness, measures nothing.
    smoke: bool,
    out: Option<PathBuf>,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args {
        workload: Workload::Basic,
        seed: 42,
        seconds: DEFAULT_SECONDS,
        trace: false,
        smoke: false,
        out: None,
    };
    let mut workload = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if flag == "--smoke" {
            parsed.smoke = true;
            continue;
        }
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => workload = Some(Workload::parse(value).ok_or_else(bad)?),
            "--seed" => parsed.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => parsed.seconds = value.parse().map_err(|_| bad())?,
            "--trace" => parsed.trace = matches!(value.as_str(), "1" | "true"),
            "--out" => parsed.out = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    parsed.workload = workload.ok_or("--workload is required")?;
    Ok(parsed)
}

/// One finished run.
struct Outcome {
    specs: &'static [Spec],
    values: Values,
    attempted: u64,
    failed: u64,
}

impl Outcome {
    /// The result line of the contract.
    fn to_json(&self) -> String {
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
            self.failed == 0,
            self.attempted,
            self.failed,
            self.values.to_json(self.specs)
        )
    }
}

/// The end-to-end metrics of an untraced loop. Every query instance counts
/// with one latency, the typical one of its executions, and the percentiles
/// are over the instances: the queries of the mix that are slow, not the
/// executions that were unlucky.
fn end_to_end(m: &Measured, setup: &Setup) -> Values {
    let mut v = Values::default();
    v.set("setup_s", setup.cpu_s, setup.setups as u64);
    v.set("open_p50_ms", median(&m.opens_ms), m.opens_ms.len() as u64);
    let executions: usize = m.query_ms.values().map(Vec::len).sum();
    let instances = m.query_ms.len() as u64;
    let mut by_template: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    for (id, ms) in &m.query_ms {
        by_template
            .entry(Query::template_of(id))
            .or_default()
            .push(typical(ms));
    }
    // Every workload weights its templates equally and latencies cluster by
    // template, so the median over all instances sits where two clusters
    // meet and flips between them, and so does the median of the templates'
    // medians. Their geometric mean does not, and every template moves it
    // by its ratio.
    let medians: Vec<f64> = by_template.values().map(|ms| median(ms)).collect();
    v.set("query_p50_ms", geometric_mean(&medians), instances);
    let typicals: Vec<f64> = by_template.into_values().flatten().collect();
    let sweep_s = (typicals.iter().sum::<f64>() + m.sweep_other_ms) / 1e3;
    v.set(
        "query_tail_ms",
        quantile_of(typicals, tail_level(instances as usize)),
        instances,
    );
    // A sweep runs every instance once, each at its typical latency, plus
    // whatever else the workload times.
    let queries_per_s = instances as f64 / sweep_s;
    v.set("queries_per_s", queries_per_s, executions as u64);
    v.set(
        "result_rows_per_s",
        m.rows as f64 / executions as f64 * queries_per_s,
        executions as u64,
    );
    v.set("store_bytes_per_triple", setup.bytes_per_triple(), 1);
    v
}

/// Runs one workload on a saved store and checks it. A traced run writes
/// its spans to `trace_path`.
fn measure(args: &Args, inputs: &Inputs, setup: &Setup, trace_path: &Path) -> Outcome {
    let workload = args.workload;
    // A smoke run is one pass; the loops of a traced run only supply counts
    // and spans, so they stop at their minimum.
    let plan = if args.smoke {
        Plan {
            seconds: 0.0,
            min_passes: 1,
            sweep: 1,
        }
    } else {
        Plan {
            seconds: if args.trace { 0.0 } else { args.seconds },
            min_passes: workload.min_passes(),
            sweep: workload.sweep(),
        }
    };
    let (specs, mut values, m) = if args.trace {
        let mut tracer = Tracer::new();
        let (values, m) = layers::run(workload, inputs, setup, plan, &mut tracer);
        std::fs::write(trace_path, tracer.to_json()).expect("write trace.json");
        (PER_LAYER, values, m)
    } else {
        let m = match workload {
            Workload::Cold => {
                workloads::run_cold(&setup.dir, inputs, plan, &mut Tracer::disabled())
            }
            Workload::Update => {
                workloads::run_update(&setup.dir, inputs, plan, &mut Tracer::disabled())
            }
            _ => workloads::run_warm(&setup.dir, &workload.queries(inputs, 0), plan),
        };
        let values = end_to_end(&m, setup);
        (END_TO_END, values, m)
    };
    // Read before the oracle runs: from here on memory is the harness's.
    let peak_rss_mb = setup::peak_rss_mb();
    let verdict = oracle::verify(inputs, &m.checks);
    if args.trace {
        values.set("setup.verify_s", verdict.verify_s, verdict.checked);
    } else {
        values.set("peak_rss_mb", peak_rss_mb, 1);
    }
    eprintln!(
        "{}: {} pass(es), {} operations, {} checked against the oracle in {:.2} s",
        workload.name(),
        m.passes,
        m.operations,
        verdict.checked,
        verdict.verify_s
    );
    Outcome {
        specs,
        values,
        attempted: m.operations + verdict.checked,
        failed: m.errors + verdict.failed,
    }
}

/// Scratch space inside the current directory, which is the checkout.
const WORK_ROOT: &str = ".bench_work";

fn run(args: &Args) -> Outcome {
    let dir = Path::new(WORK_ROOT).join(format!(
        "{}-{}-{}",
        args.workload.name(),
        args.seed,
        std::process::id()
    ));
    std::fs::create_dir_all(&dir).expect("create the work directory");
    let scale = if args.smoke { 1 } else { SCALE };
    let inputs = Inputs::generate(scale, args.seed, &dir);
    // Only an untraced full run reports `setup_s` and repeats for it.
    let setup = if args.smoke || args.trace {
        setup::load_dataset(&inputs.nt_path, dir.join("store"))
    } else {
        setup::set_up(&inputs.nt_path, dir.join("store"))
    };
    eprintln!(
        "scale {scale} seed {}: {} triples generated in {:.2} s; set up {} time(s), the last in {:.2} s ({:.2} s on CPU)",
        args.seed, inputs.triples, inputs.generate_s, setup.setups, setup.wall_s, setup.cpu_s
    );
    let outcome = measure(
        args,
        &inputs,
        &setup,
        &Path::new(WORK_ROOT).join("trace.json"),
    );
    std::fs::remove_dir_all(&dir).expect("remove the work directory");
    outcome
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match argv.first().map(String::as_str) {
        Some("compare") if argv.len() == 3 => match compare::compare(&argv[1], &argv[2]) {
            Ok(true) => ExitCode::SUCCESS,
            Ok(false) => ExitCode::FAILURE,
            Err(e) => {
                eprintln!("{e}");
                ExitCode::from(2)
            }
        },
        Some("expected") => {
            let dir = Path::new(WORK_ROOT).join(format!("expected-{}", std::process::id()));
            std::fs::create_dir_all(&dir).expect("create the work directory");
            print!(
                "{}",
                oracle::expected_tsv(&Inputs::generate(SCALE, 42, &dir))
            );
            std::fs::remove_dir_all(&dir).expect("remove the work directory");
            ExitCode::SUCCESS
        }
        _ => {
            let args = match parse_args(&argv) {
                Ok(args) => args,
                Err(e) => {
                    eprintln!("{e}\n{USAGE}");
                    return ExitCode::from(2);
                }
            };
            let outcome = run(&args);
            let line = outcome.to_json();
            if let Some(path) = &args.out {
                let mut file = std::fs::OpenOptions::new()
                    .create(true)
                    .append(true)
                    .open(path)
                    .expect("open the --out file");
                writeln!(
                    file,
                    "{{\"workload\": {}, \"seed\": {}, \"trace\": {}, \"result\": {line}}}",
                    json::string(args.workload.name()),
                    args.seed,
                    args.trace as u8
                )
                .expect("append to the --out file");
            }
            print!("{}", outcome.values.to_table(outcome.specs));
            println!("{line}");
            if outcome.failed == 0 {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use json::Json;

    /// `BENCHMARK.json` is the only place that says why a workload exists
    /// and how long a run is; what it says about names, units, directions
    /// and bounds must be what this program reports and `compare` applies.
    #[test]
    fn benchmark_json_lists_what_this_program_reports() {
        let doc = json::parse(include_str!("../../../../../BENCHMARK.json")).unwrap();
        assert_eq!(
            doc.get("run_seconds").and_then(Json::as_f64),
            Some(DEFAULT_SECONDS)
        );
        let workloads = doc.get("workloads").unwrap().as_array().unwrap();
        let names: Vec<&str> = workloads
            .iter()
            .map(|w| w.get("name").unwrap().as_str().unwrap())
            .collect();
        assert_eq!(names, Workload::ALL.map(Workload::name));
        for w in workloads {
            assert!(w.get("why").unwrap().as_str().unwrap().len() <= 200);
        }
        for (key, specs) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let listed = doc.get(key).unwrap().as_array().unwrap();
            assert_eq!(listed.len(), specs.len(), "{key}");
            for (metric, spec) in listed.iter().zip(specs) {
                let text = |field| metric.get(field).and_then(Json::as_str);
                assert_eq!(text("name"), Some(spec.name));
                assert_eq!(text("unit"), Some(spec.unit), "{}", spec.name);
                let better = if spec.higher_is_better {
                    "higher"
                } else {
                    "lower"
                };
                assert_eq!(text("better"), Some(better), "{}", spec.name);
                assert_eq!(
                    metric.get("bound").and_then(Json::as_f64),
                    spec.bound,
                    "{}",
                    spec.name
                );
            }
        }
    }

    fn copy_dir(from: &Path, to: &Path) {
        std::fs::create_dir_all(to).unwrap();
        for entry in std::fs::read_dir(from).unwrap() {
            let entry = entry.unwrap();
            let target = to.join(entry.file_name());
            if entry.metadata().unwrap().is_dir() {
                copy_dir(&entry.path(), &target);
            } else {
                std::fs::copy(entry.path(), target).unwrap();
            }
        }
    }

    /// `--smoke` of every workload, traced and not, on one set-up: each
    /// emits exactly the metrics `BENCHMARK.json` lists, and nothing fails.
    #[test]
    fn smoke_runs_emit_exactly_the_listed_metrics() {
        let dir = Path::new(WORK_ROOT).join(format!("smoke-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let inputs = Inputs::generate(1, 7, &dir);
        let setup = setup::load_dataset(&inputs.nt_path, dir.join("store"));
        for workload in Workload::ALL {
            for trace in [false, true] {
                let args = Args {
                    workload,
                    seed: 7,
                    seconds: 0.0,
                    trace,
                    smoke: true,
                    out: None,
                };
                // `update` changes its store; give it a copy each time.
                let copy = dir.join(format!("{}-{trace}", workload.name()));
                copy_dir(&setup.dir, &copy);
                let setup = Setup {
                    dir: copy,
                    ..setup.clone()
                };
                let outcome = measure(&args, &inputs, &setup, &dir.join("trace.json"));
                assert_eq!(outcome.failed, 0, "{} trace={trace}", workload.name());
                assert!(outcome.attempted > 0);
                let doc = json::parse(&outcome.to_json()).unwrap();
                assert_eq!(doc.get("correct"), Some(&Json::Bool(true)));
                let Some(Json::Object(metrics)) = doc.get("metrics") else {
                    panic!("no metrics")
                };
                let listed = if trace { PER_LAYER } else { END_TO_END };
                let mut names: Vec<&str> = listed.iter().map(|s| s.name).collect();
                names.sort_unstable();
                assert_eq!(
                    metrics.keys().map(String::as_str).collect::<Vec<_>>(),
                    names
                );
                if !trace {
                    for (name, metric) in metrics {
                        let value = metric.get("value").and_then(Json::as_f64).unwrap();
                        assert!(value > 0.0, "{} {name} = {value}", workload.name());
                    }
                } else {
                    assert!(
                        json::parse(&std::fs::read_to_string(dir.join("trace.json")).unwrap())
                            .is_ok()
                    );
                }
            }
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
