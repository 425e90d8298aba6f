//! `s2rdf` — command-line front end for the S2RDF reproduction.
//!
//! ```text
//! s2rdf generate --scale 1 [--seed 42] --out data.nt
//! s2rdf load     --data data.nt --store ./db [--threshold 1.0]
//!                [--mode rows|bits|lazy] [--no-extvp] [--oo]
//!                [--chunk-rows 4096] [--no-bloom]
//! s2rdf stats    --store ./db [--json]
//! s2rdf query    --store ./db --query 'SELECT/ASK/CONSTRUCT/DESCRIBE …' | --file q.rq
//!                [--explain] [--profile] [--no-extvp] [--intersect]
//!                [--max-print <N>] [--morsel-rows <N>]
//!                [--dp-max-patterns <N>] [--replan-threshold <ratio>]
//! s2rdf update   --store ./db [--insert add.nt] [--delete del.nt]
//!                [--checkpoint] [--chunk-rows <N>] [--no-bloom]
//! s2rdf checkpoint --store ./db [--chunk-rows <N>] [--no-bloom]
//! s2rdf verify   --store ./db [--repair] [--json]
//! ```
//!
//! Any option a subcommand does not accept, and any stray word, is an
//! error.

use std::io::Read;
use std::path::Path;
use std::process::ExitCode;
use std::time::Instant;

use s2rdf_core::engines::{QueryResult, SparqlEngine};
use s2rdf_core::exec::QueryOptions;
use s2rdf_core::layout::extvp::ExtVpMode;
use s2rdf_core::{BuildOptions, S2rdfStore};
use s2rdf_model::ntriples;
use s2rdf_watdiv::{generate, Config};

mod args;
use args::Args;

const USAGE: &str = "usage:
  s2rdf generate --scale <N> [--seed <S>] --out <file.nt>
  s2rdf load     --data <file.nt> --store <dir> [--threshold <0..1>]
                 [--mode rows|bits|lazy] [--no-extvp] [--oo]
                 [--chunk-rows <N>] [--no-bloom]
  s2rdf stats    --store <dir> [--json]
  s2rdf query    --store <dir> (--query <sparql> | --file <q.rq> | --stdin)
                 [--explain] [--profile] [--no-extvp] [--intersect]
                 [--max-print <N>] [--morsel-rows <N>]
                 [--dp-max-patterns <N>] [--replan-threshold <ratio>]
  s2rdf update   --store <dir> [--insert <file.nt>] [--delete <file.nt>]
                 [--checkpoint] [--chunk-rows <N>] [--no-bloom]
  s2rdf checkpoint --store <dir> [--chunk-rows <N>] [--no-bloom]
  s2rdf verify   --store <dir> [--repair] [--json]";

type Command = fn(&Args) -> Result<(), String>;

/// Every subcommand: its name, the options it accepts (each takes a
/// value), its bare flags, and what runs it.
const COMMANDS: &[(&str, &[&str], &[&str], Command)] = &[
    ("generate", &["scale", "seed", "out"], &[], cmd_generate),
    (
        "load",
        &["data", "store", "threshold", "mode", "chunk-rows"],
        &["no-extvp", "oo", "no-bloom"],
        cmd_load,
    ),
    ("stats", &["store"], &["json"], cmd_stats),
    (
        "query",
        &[
            "store",
            "query",
            "file",
            "max-print",
            "morsel-rows",
            "dp-max-patterns",
            "replan-threshold",
        ],
        &["explain", "profile", "no-extvp", "intersect", "stdin"],
        cmd_query,
    ),
    (
        "update",
        &["store", "insert", "delete", "chunk-rows"],
        &["checkpoint", "no-bloom"],
        cmd_update,
    ),
    (
        "checkpoint",
        &["store", "chunk-rows"],
        &["no-bloom"],
        cmd_checkpoint,
    ),
    ("verify", &["store"], &["repair", "json"], cmd_verify),
];

fn main() -> ExitCode {
    let args = Args::parse(std::env::args().skip(1));
    let Some(&(_, options, flags, run)) = COMMANDS.iter().find(|c| args.command() == Some(c.0))
    else {
        eprintln!("{USAGE}");
        return ExitCode::from(2);
    };
    match args.check(options, flags).and_then(|()| run(&args)) {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("error: {message}");
            ExitCode::FAILURE
        }
    }
}

/// The v3 encoder knobs, when the user overrides either default.
fn write_options_from(args: &Args) -> Result<Option<s2rdf_columnar::WriteOptions>, String> {
    let chunk_rows = args
        .opt_value("chunk-rows")
        .map(|s| match s.parse::<usize>() {
            Ok(n) if n > 0 => Ok(n),
            _ => Err("bad --chunk-rows (need a positive integer)".to_string()),
        })
        .transpose()?;
    let no_bloom = args.flag("no-bloom");
    if chunk_rows.is_none() && !no_bloom {
        return Ok(None);
    }
    let defaults = s2rdf_columnar::WriteOptions::default();
    Ok(Some(s2rdf_columnar::WriteOptions {
        chunk_rows: chunk_rows.unwrap_or(defaults.chunk_rows),
        bloom: !no_bloom,
    }))
}

fn cmd_generate(args: &Args) -> Result<(), String> {
    let scale: u32 = args.value("scale")?.parse().map_err(|_| "bad --scale")?;
    let seed: u64 = args
        .opt_value("seed")
        .map_or(Ok(42), |s| s.parse().map_err(|_| "bad --seed".to_string()))?;
    let out = args.value("out")?;
    eprintln!("generating WatDiv-style data at SF{scale} (seed {seed})…");
    let start = Instant::now();
    let data = generate(&Config { scale, seed });
    let mut file = std::fs::File::create(&out).map_err(|e| e.to_string())?;
    ntriples::write_graph(&data.graph, &mut file).map_err(|e| e.to_string())?;
    eprintln!(
        "wrote {} triples to {out} in {:.2?}",
        data.graph.len(),
        start.elapsed()
    );
    Ok(())
}

fn cmd_load(args: &Args) -> Result<(), String> {
    let data_path = args.value("data")?;
    let store_dir = args.value("store")?;
    let threshold: f64 = args.opt_value("threshold").map_or(Ok(1.0), |s| {
        s.parse().map_err(|_| "bad --threshold".to_string())
    })?;
    let mode_label = args.opt_value("mode").unwrap_or("rows");
    let mode = ExtVpMode::from_label(mode_label)
        .ok_or(format!("bad --mode {mode_label} (rows|bits|lazy)"))?;
    let options = BuildOptions {
        threshold,
        build_extvp: !args.flag("no-extvp"),
        mode,
        include_oo: args.flag("oo"),
    };

    eprintln!("reading {data_path}…");
    let file = std::fs::File::open(&data_path).map_err(|e| e.to_string())?;
    let graph = ntriples::read_graph(std::io::BufReader::new(file)).map_err(|e| e.to_string())?;
    eprintln!("{} triples; building store ({options:?})…", graph.len());
    let start = Instant::now();
    let mut store = S2rdfStore::build(&graph, &options);
    if let Some(opts) = write_options_from(args)? {
        store.set_write_options(opts);
    }
    eprintln!(
        "built in {:.2?}: {} VP tables, {} ExtVP partitions ({} tuples)",
        start.elapsed(),
        store.catalog().num_predicates(),
        store.num_extvp_tables(),
        store.extvp_tuples()
    );
    store
        .save(Path::new(&store_dir))
        .map_err(|e| e.to_string())?;
    eprintln!("saved to {store_dir}");
    Ok(())
}

/// On-disk vs decoded footprint of every table in the store, plus how
/// many are in the chunked v3 format.
struct StorageStats {
    tables: usize,
    chunked: usize,
    bytes_on_disk: u64,
    bytes_logical: u64,
}

impl StorageStats {
    fn ratio(&self) -> f64 {
        if self.bytes_on_disk == 0 {
            1.0
        } else {
            self.bytes_logical as f64 / self.bytes_on_disk as f64
        }
    }
}

/// Parses every table file (headers + bodies, never materialized) to sum
/// compressed and logical sizes. Runs with metrics suppressed so a
/// `stats --json` dump reflects the store load alone, not this sweep.
fn storage_stats(dir: &Path) -> Result<StorageStats, String> {
    let metrics_were_on = s2rdf_columnar::metrics::enabled();
    s2rdf_columnar::metrics::set_enabled(false);
    let sweep = (|| {
        let tables =
            s2rdf_columnar::TableStore::open(dir.join("tables")).map_err(|e| e.to_string())?;
        let mut out = StorageStats {
            tables: 0,
            chunked: 0,
            bytes_on_disk: tables.total_size().map_err(|e| e.to_string())?,
            bytes_logical: 0,
        };
        for name in tables.names() {
            let ct = tables.load_compressed(&name).map_err(|e| e.to_string())?;
            out.tables += 1;
            out.chunked += ct.is_chunked() as usize;
            out.bytes_logical += ct.logical_bytes() as u64;
        }
        Ok(out)
    })();
    s2rdf_columnar::metrics::set_enabled(metrics_were_on);
    sweep
}

fn cmd_stats(args: &Args) -> Result<(), String> {
    let store_dir = args.value("store")?;
    // With --json, operator metrics are recorded while loading the store so
    // the dump includes the I/O counters (tables read, bytes, checksum
    // verifies) of the load itself.
    if args.flag("json") {
        s2rdf_columnar::metrics::set_enabled(true);
        s2rdf_columnar::metrics::reset();
    }
    let store = S2rdfStore::load(Path::new(&store_dir)).map_err(|e| e.to_string())?;
    let catalog = store.catalog();
    // Body-cache effectiveness of the load itself, captured before the
    // storage sweep so the ratio is not skewed by our own re-reads.
    let cache_hits = s2rdf_columnar::metrics::counter("columnar.io.cache_hits").get();
    let cache_misses = s2rdf_columnar::metrics::counter("columnar.io.cache_misses").get();
    let hit_ratio = if cache_hits + cache_misses == 0 {
        0.0
    } else {
        cache_hits as f64 / (cache_hits + cache_misses) as f64
    };
    let storage = storage_stats(Path::new(&store_dir))?;
    if args.flag("json") {
        let summary = catalog.extvp_summary();
        println!("{{");
        println!(
            "  \"store\": \"{}\",",
            s2rdf_columnar::metrics::json_escape(&store_dir)
        );
        println!("  \"triples\": {},", catalog.total_triples);
        println!("  \"predicates\": {},", catalog.num_predicates());
        println!("  \"extvp_built\": {},", catalog.extvp_built);
        println!("  \"extvp_mode\": \"{:?}\",", store.mode());
        println!("  \"oo_built\": {},", catalog.oo_built);
        println!("  \"threshold\": {},", catalog.threshold);
        println!("  \"extvp_partitions\": {},", store.num_extvp_tables());
        println!("  \"extvp_tuples\": {},", store.extvp_tuples());
        println!("  \"sf_one_tables\": {},", summary.sf_one_tables);
        println!(
            "  \"over_threshold_tables\": {},",
            summary.over_threshold_tables
        );
        println!(
            "  \"storage\": {{\"tables\": {}, \"chunked_tables\": {}, \
             \"bytes_on_disk\": {}, \"bytes_logical\": {}, \"compression_ratio\": {:.3}}},",
            storage.tables,
            storage.chunked,
            storage.bytes_on_disk,
            storage.bytes_logical,
            storage.ratio()
        );
        println!(
            "  \"cache\": {{\"hits\": {cache_hits}, \"misses\": {cache_misses}, \
             \"hit_ratio\": {hit_ratio:.3}}},"
        );
        println!(
            "  \"metrics\": {}",
            s2rdf_columnar::metrics::snapshot().to_json()
        );
        println!("}}");
        return Ok(());
    }
    println!("store: {store_dir}");
    println!("  triples (|G|):        {}", catalog.total_triples);
    println!("  predicates:           {}", catalog.num_predicates());
    println!("  ExtVP built:          {}", catalog.extvp_built);
    println!("  ExtVP mode:           {:?}", store.mode());
    println!("  OO correlations:      {}", catalog.oo_built);
    println!("  SF threshold:         {}", catalog.threshold);
    println!("  ExtVP partitions:     {}", store.num_extvp_tables());
    println!("  ExtVP tuples:         {}", store.extvp_tuples());
    let summary = catalog.extvp_summary();
    println!("  SF=1 (not stored):    {}", summary.sf_one_tables);
    println!("  over threshold:       {}", summary.over_threshold_tables);
    println!(
        "  on-disk bytes:        {} ({} tables, {} chunked v3)",
        storage.bytes_on_disk, storage.tables, storage.chunked
    );
    println!(
        "  logical bytes:        {} ({:.2}x compression)",
        storage.bytes_logical,
        storage.ratio()
    );
    println!("\nlargest VP tables:");
    let mut sizes: Vec<_> = catalog.vp_sizes().collect();
    sizes.sort_by_key(|&(_, n)| std::cmp::Reverse(n));
    for (p, n) in sizes.into_iter().take(10) {
        let share = n as f64 / catalog.total_triples as f64;
        println!(
            "  {:>9} ({:>5.1}%)  {}",
            n,
            100.0 * share,
            store.dict().term(p)
        );
    }
    Ok(())
}

fn cmd_query(args: &Args) -> Result<(), String> {
    let store_dir = args.value("store")?;
    let sparql = read_query_text(args)?;
    let max_print: usize = args.opt_value("max-print").map_or(Ok(20), |s| {
        s.parse().map_err(|_| "bad --max-print".to_string())
    })?;

    let profile = args.flag("profile");
    if profile {
        // Operator-level counters for the profile report.
        s2rdf_columnar::metrics::set_enabled(true);
        s2rdf_columnar::metrics::reset();
    }
    let store = S2rdfStore::load(Path::new(&store_dir)).map_err(|e| e.to_string())?;
    let engine = store.engine(!args.flag("no-extvp"));
    let mut join = s2rdf_columnar::exec::JoinConfig::default();
    if let Some(s) = args.opt_value("morsel-rows") {
        join.morsel_rows = s.parse().map_err(|_| "bad --morsel-rows")?;
        if join.morsel_rows == 0 {
            return Err("bad --morsel-rows (must be ≥ 1)".to_string());
        }
    }
    let mut options = QueryOptions {
        intersect_correlations: args.flag("intersect"),
        profile,
        join,
        ..Default::default()
    };
    if let Some(s) = args.opt_value("dp-max-patterns") {
        options.dp_max_patterns = s.parse().map_err(|_| "bad --dp-max-patterns")?;
    }
    if let Some(s) = args.opt_value("replan-threshold") {
        options.replan_threshold = s.parse().map_err(|_| "bad --replan-threshold")?;
    }
    let start = Instant::now();
    let (result, explain) = engine
        .query_result_opt(&sparql, &options)
        .map_err(|e| e.to_string())?;
    let elapsed = start.elapsed();

    if profile {
        if let Some(trace) = &explain.trace {
            println!("-- operator span tree:");
            print!("{}", trace.render());
        }
        let snap = s2rdf_columnar::metrics::snapshot();
        println!("-- operator metrics:");
        println!("{}", snap.to_json());
        if let Some(pool) = &explain.pool {
            let busy: u64 = pool.busy_micros.iter().sum();
            println!(
                "-- worker pool: {} workers, {} tasks ({} stolen), \
                 max queue depth {}, {} µs busy total",
                pool.workers, pool.tasks, pool.steals, pool.max_queue_depth, busy
            );
        }
    }
    if args.flag("explain") || profile {
        if explain.statically_empty {
            println!("-- proven empty from ExtVP statistics; nothing executed");
        }
        for step in &explain.path_steps {
            let deltas: Vec<String> = step.iteration_rows.iter().map(|n| n.to_string()).collect();
            println!(
                "-- path {} [{}]: {} iteration(s) ({}) → {} rows",
                step.path,
                step.mode,
                step.iteration_rows.len(),
                deltas.join(", "),
                step.total_rows
            );
        }
        for step in &explain.bgp_steps {
            if step.rationale.is_empty() {
                println!(
                    "-- scan {} → {} rows (SF {:.2})",
                    step.table, step.rows, step.sf
                );
            } else {
                println!(
                    "-- scan {} → {} rows (SF {:.2}, {} µs) [{}]",
                    step.table, step.rows, step.sf, step.wall_micros, step.rationale
                );
            }
        }
        if !explain.join_order_method.is_empty() {
            println!("-- join order: {}", explain.join_order_method);
        }
        for join in &explain.join_steps {
            let est = join.est_out_rows.map_or(String::new(), |e| {
                format!(", est {e} vs observed {} rows", join.decision.out_rows)
            });
            println!(
                "-- join [{}] {}{} ({} µs){}",
                join.context,
                join.decision.summary(),
                est,
                join.wall_micros,
                if join.reused_index {
                    " (index reused)"
                } else {
                    ""
                }
            );
        }
        for replan in &explain.replans {
            println!(
                "-- replan after step {}: est {:.0} vs observed {} rows → {}tail [{}]",
                replan.after_step,
                replan.estimated_rows,
                replan.observed_rows,
                if replan.changed {
                    "re-ordered "
                } else {
                    "unchanged "
                },
                replan.new_order.join(", ")
            );
        }
        println!(
            "-- naive join comparisons: {}",
            explain.naive_join_comparisons
        );
        for step in &explain.degraded_steps {
            println!(
                "-- DEGRADED: {} unavailable after {} attempt(s) ({}); used {}",
                step.planned, step.attempts, step.reason, step.fallback
            );
        }
        for err in &explain.recovered_errors {
            println!("-- recovered: {err}");
        }
        if !explain.fully_healthy() {
            println!("-- results are exact; degraded steps only affect cost");
        }
    }
    match &result {
        QueryResult::Solutions(solutions) => {
            println!(
                "{} solutions in {elapsed:.2?} [{}]",
                solutions.len(),
                engine.name()
            );
            if !solutions.is_empty() {
                println!("{}", solutions.vars.join("\t"));
                for (i, row) in solutions.iter().enumerate() {
                    if i >= max_print {
                        println!("… ({} more rows)", solutions.len() - max_print);
                        break;
                    }
                    let cells: Vec<String> = row
                        .iter()
                        .map(|(_, t)| t.map_or("∅".to_string(), |t| t.to_string()))
                        .collect();
                    println!("{}", cells.join("\t"));
                }
            }
        }
        QueryResult::Bool(b) => {
            println!("{b} in {elapsed:.2?} [{}]", engine.name());
        }
        QueryResult::Graph(triples) => {
            println!(
                "{} triples in {elapsed:.2?} [{}]",
                triples.len(),
                engine.name()
            );
            for (i, triple) in triples.iter().enumerate() {
                if i >= max_print {
                    println!("… ({} more triples)", triples.len() - max_print);
                    break;
                }
                println!("{} {} {} .", triple.s, triple.p, triple.o);
            }
        }
    }
    Ok(())
}

/// Reads the triples of an N-Triples file named by `--<flag>`, or an empty
/// batch when the flag is absent.
fn read_delta_file(args: &Args, flag: &str) -> Result<Vec<s2rdf_model::Triple>, String> {
    match args.opt_value(flag) {
        None => Ok(Vec::new()),
        Some(path) => {
            let file = std::fs::File::open(path).map_err(|e| format!("{path}: {e}"))?;
            let graph =
                ntriples::read_graph(std::io::BufReader::new(file)).map_err(|e| e.to_string())?;
            Ok(graph.iter_decoded().collect())
        }
    }
}

fn cmd_update(args: &Args) -> Result<(), String> {
    let store_dir = args.value("store")?;
    let inserts = read_delta_file(args, "insert")?;
    let deletes = read_delta_file(args, "delete")?;
    if inserts.is_empty() && deletes.is_empty() {
        return Err("need --insert and/or --delete".to_string());
    }
    let mut store = S2rdfStore::load(Path::new(&store_dir)).map_err(|e| e.to_string())?;
    if let Some(opts) = write_options_from(args)? {
        store.set_write_options(opts);
    }
    if store.wal_replayed() > 0 {
        eprintln!(
            "recovered {} WAL record(s) from an earlier interrupted session",
            store.wal_replayed()
        );
    }
    let start = Instant::now();
    let summary = store
        .update_batch(&inserts, &deletes)
        .map_err(|e| e.to_string())?;
    println!(
        "applied in {:.2?}: +{} -{} triples ({} ExtVP partitions recomputed), {} total",
        start.elapsed(),
        summary.inserted,
        summary.deleted,
        summary.extvp_recomputed,
        store.catalog().total_triples
    );
    if args.flag("checkpoint") {
        let report = store.checkpoint().map_err(|e| e.to_string())?;
        println!(
            "checkpointed: {} tables flushed, {} removed, {} WAL record(s) truncated",
            report.tables_flushed, report.tables_removed, report.wal_records_truncated
        );
    } else {
        println!(
            "{} WAL record(s) pending (run `s2rdf checkpoint` to flush)",
            store.wal_pending()
        );
    }
    Ok(())
}

fn cmd_checkpoint(args: &Args) -> Result<(), String> {
    let store_dir = args.value("store")?;
    let mut store = S2rdfStore::load(Path::new(&store_dir)).map_err(|e| e.to_string())?;
    if let Some(opts) = write_options_from(args)? {
        store.set_write_options(opts);
    }
    if store.wal_replayed() > 0 {
        eprintln!(
            "recovered {} WAL record(s) from an earlier interrupted session",
            store.wal_replayed()
        );
    }
    let start = Instant::now();
    let report = store.checkpoint().map_err(|e| e.to_string())?;
    println!(
        "checkpointed in {:.2?}: {} tables flushed, {} removed, {} legacy table(s) \
         rewritten as v3, {} orphan(s) swept, {} dictionary term(s) appended, \
         {} WAL record(s) truncated",
        start.elapsed(),
        report.tables_flushed,
        report.tables_removed,
        report.tables_upgraded,
        report.orphans_removed,
        report.dict_terms_appended,
        report.wal_records_truncated
    );
    Ok(())
}

/// `[{"table": …, "bad_chunks": […], "total_chunks": N}, …]` for the
/// chunk-granular corruption localization of the v3 format.
fn chunks_json(chunks: &[(String, Vec<String>, usize)]) -> String {
    let entries: Vec<String> = chunks
        .iter()
        .map(|(name, bad, total)| {
            let bad: Vec<String> = bad
                .iter()
                .map(|c| format!("\"{}\"", s2rdf_columnar::metrics::json_escape(c)))
                .collect();
            format!(
                "{{\"table\": \"{}\", \"bad_chunks\": [{}], \"total_chunks\": {total}}}",
                s2rdf_columnar::metrics::json_escape(name),
                bad.join(", ")
            )
        })
        .collect();
    format!("[{}]", entries.join(", "))
}

fn print_chunk_detail(chunks: &[(String, Vec<String>, usize)]) {
    for (name, bad, total) in chunks {
        println!(
            "  {name}: {}/{total} chunk(s) damaged ({})",
            bad.len(),
            bad.join("; ")
        );
    }
}

fn cmd_verify(args: &Args) -> Result<(), String> {
    let store_dir = args.value("store")?;
    let dir = Path::new(&store_dir);
    // WAL state is part of the durability picture either way: pending
    // records are uncheckpointed-but-durable updates, torn bytes are the
    // residue of an append interrupted mid-write (truncated at next open).
    let wal = S2rdfStore::wal_status(dir).map_err(|e| e.to_string())?;
    if args.flag("json") {
        let (repaired, unrecoverable, clean, chunk_detail) = if args.flag("repair") {
            let report = S2rdfStore::verify_and_repair(dir).map_err(|e| e.to_string())?;
            (
                report.repaired.len(),
                report.unrecoverable.len(),
                report.clean_after,
                chunks_json(&report.corrupt_chunks),
            )
        } else {
            let tables =
                s2rdf_columnar::TableStore::open(dir.join("tables")).map_err(|e| e.to_string())?;
            let report = tables.verify_all();
            (
                0,
                report.corrupt.len() + report.missing.len(),
                report.is_clean(),
                chunks_json(&report.corrupt_chunks),
            )
        };
        let (wal_records, wal_torn) = wal.map_or((0, 0), |w| (w.records, w.torn_bytes));
        println!(
            "{{\"store\": \"{}\", \"clean\": {clean}, \"repaired\": {repaired}, \
             \"unrecoverable\": {unrecoverable}, \"corrupt_chunks\": {chunk_detail}, \
             \"wal_pending_records\": {wal_records}, \"wal_torn_bytes\": {wal_torn}}}",
            s2rdf_columnar::metrics::json_escape(&store_dir)
        );
        return if clean {
            Ok(())
        } else {
            Err("integrity scan found damage".to_string())
        };
    }
    match wal {
        Some(w) if w.records > 0 || w.torn_bytes > 0 => println!(
            "WAL: {} pending record(s), {} torn byte(s){}",
            w.records,
            w.torn_bytes,
            if w.torn_bytes > 0 {
                " (interrupted append; truncated at next open)"
            } else {
                ""
            }
        ),
        _ => {}
    }
    if args.flag("repair") {
        let report = S2rdfStore::verify_and_repair(dir).map_err(|e| e.to_string())?;
        println!("scanned {} tables", report.scanned);
        print_chunk_detail(&report.corrupt_chunks);
        for name in &report.repaired {
            println!("  rebuilt {name} from its VP base tables");
        }
        for orphan in &report.removed_orphans {
            println!("  removed orphaned file {orphan}");
        }
        for (name, why) in &report.unrecoverable {
            println!("  UNRECOVERABLE {name}: {why}");
        }
        if report.clean_after {
            println!("store is clean");
            Ok(())
        } else {
            Err("store is still damaged after repair".to_string())
        }
    } else {
        let tables =
            s2rdf_columnar::TableStore::open(dir.join("tables")).map_err(|e| e.to_string())?;
        let report = tables.verify_all();
        println!(
            "scanned {} tables: {} ok, {} corrupt, {} missing, {} orphaned files",
            report.ok.len() + report.corrupt.len() + report.missing.len(),
            report.ok.len(),
            report.corrupt.len(),
            report.missing.len(),
            report.orphans.len()
        );
        for (name, why) in &report.corrupt {
            println!("  CORRUPT {name}: {why}");
        }
        print_chunk_detail(&report.corrupt_chunks);
        for name in &report.missing {
            println!("  MISSING {name}");
        }
        for orphan in &report.orphans {
            println!("  orphan  {orphan}");
        }
        if report.is_clean() {
            println!("store is clean");
            Ok(())
        } else {
            Err("integrity scan found damage (run with --repair to rebuild)".to_string())
        }
    }
}

fn read_query_text(args: &Args) -> Result<String, String> {
    if let Some(q) = args.opt_value("query") {
        return Ok(q.to_string());
    }
    if let Some(path) = args.opt_value("file") {
        return std::fs::read_to_string(path).map_err(|e| e.to_string());
    }
    if args.flag("stdin") {
        let mut buf = String::new();
        std::io::stdin()
            .read_to_string(&mut buf)
            .map_err(|e| e.to_string())?;
        return Ok(buf);
    }
    Err("need --query, --file or --stdin".to_string())
}
