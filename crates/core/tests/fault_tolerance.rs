//! End-to-end fault-tolerance tests: disk corruption of ExtVP partitions,
//! transient read faults, and offline verify/repair.
//!
//! The invariant under test is the paper's lineage argument transplanted to
//! shared memory: every ExtVP partition is a semi-join *reduction* of its
//! VP table (§5), so losing one can change query **cost** but never query
//! **results** — the engine degrades to the VP superset and produces the
//! exact same solutions.
//!
//! Every test holds [`metrics::test_lock`]: `load_decodes_no_table_body`
//! asserts exact registry deltas, which a concurrent load or query in this
//! binary would perturb.

use std::path::{Path, PathBuf};
use std::sync::Arc;

use s2rdf_columnar::{metrics, FaultConfig, FaultInjector};
use s2rdf_core::engines::SparqlEngine;
use s2rdf_core::exec::QueryOptions;
use s2rdf_core::{BuildOptions, CoreError, S2rdfStore};
use s2rdf_model::{Graph, Term, Triple};

fn t(s: &str, p: &str, o: &str) -> Triple {
    Triple::new(Term::iri(s), Term::iri(p), Term::iri(o))
}

/// G1 from the paper (§2.1).
fn g1() -> Graph {
    Graph::from_triples([
        t("A", "follows", "B"),
        t("B", "follows", "C"),
        t("B", "follows", "D"),
        t("C", "follows", "D"),
        t("A", "likes", "I1"),
        t("A", "likes", "I2"),
        t("C", "likes", "I2"),
    ])
}

/// Q1 from the paper: friends-of-friends liking the same thing.
const Q1: &str = "SELECT * WHERE {
    ?x <likes> ?w . ?x <follows> ?y .
    ?y <follows> ?z . ?z <likes> ?w
}";

fn temp_store(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("s2rdf-ft-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Flips one byte in the middle of every saved table whose logical name
/// matches `prefix`; returns how many files were damaged.
fn corrupt_tables(dir: &Path, prefix: &str) -> usize {
    let manifest = std::fs::read_to_string(dir.join("tables/manifest.tsv")).unwrap();
    let mut hit = 0;
    for line in manifest.lines() {
        let (name, file) = line.split_once('\t').unwrap();
        if !name.starts_with(prefix) {
            continue;
        }
        let path = dir.join("tables").join(file);
        let mut data = std::fs::read(&path).unwrap();
        let mid = data.len() / 2;
        data[mid] ^= 0x40;
        std::fs::write(&path, &data).unwrap();
        hit += 1;
    }
    assert!(hit > 0, "no tables matched prefix {prefix}");
    hit
}

/// Disk corruption of ExtVP partitions is quarantined at load; queries
/// degrade to the VP tables with byte-identical solutions and the damage
/// is reported in the explain trace.
#[test]
fn corrupted_extvp_partitions_degrade_to_exact_results() {
    let _serial = metrics::test_lock();
    let dir = temp_store("degrade");
    let built = S2rdfStore::build(&g1(), &BuildOptions::default());
    let expected = built.query(Q1).unwrap().canonical();
    built.save(&dir).unwrap();

    corrupt_tables(&dir, "ExtVP_");
    let store = S2rdfStore::load(&dir).unwrap();
    assert!(
        !store.quarantined().is_empty(),
        "corrupt partitions must be quarantined, not silently loaded"
    );

    let (solutions, explain) = store
        .engine(true)
        .query_opt(Q1, &QueryOptions::default())
        .unwrap();
    assert_eq!(
        solutions.canonical(),
        expected,
        "degraded results must be exact"
    );
    assert!(
        !explain.degraded_steps.is_empty(),
        "degradation must be traced"
    );
    assert!(!explain.fully_healthy());
    for step in &explain.degraded_steps {
        assert!(
            step.planned.starts_with("ExtVP_"),
            "planned {}",
            step.planned
        );
        assert!(
            step.fallback.starts_with("VP/"),
            "fallback {}",
            step.fallback
        );
        assert!(step.attempts >= 1);
    }
    // Every degraded step runs at VP selectivity.
    for step in explain
        .bgp_steps
        .iter()
        .filter(|s| s.table.contains("degraded"))
    {
        assert_eq!(step.sf, 1.0);
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

/// A fault injector that fails every ExtVP partition access exercises the
/// retry-then-fallback path end to end: results stay exact, the failed
/// attempts are logged, and detaching the injector restores healthy runs.
#[test]
fn injected_read_faults_are_absorbed_by_vp_fallback() {
    let _serial = metrics::test_lock();
    let dir = temp_store("inject");
    let built = S2rdfStore::build(&g1(), &BuildOptions::default());
    let expected = built.query(Q1).unwrap().canonical();
    built.save(&dir).unwrap();

    let mut store = S2rdfStore::load(&dir).unwrap();
    assert!(store.quarantined().is_empty());
    let injector = Arc::new(FaultInjector::new(FaultConfig {
        seed: 7,
        read_error: 1.0,
        ..FaultConfig::default()
    }));
    store.set_fault_injector(Some(injector.clone()));

    let options = QueryOptions {
        max_retries: 2,
        ..QueryOptions::default()
    };
    let (solutions, explain) = store.engine(true).query_opt(Q1, &options).unwrap();
    assert_eq!(solutions.canonical(), expected);
    assert!(!explain.degraded_steps.is_empty());
    // max_retries = 2 → three attempts per degraded partition.
    assert!(explain.degraded_steps.iter().all(|s| s.attempts == 3));
    assert!(
        !explain.recovered_errors.is_empty(),
        "attempt failures must be logged"
    );
    assert!(injector.stats().read_errors > 0);

    // Healthy again once the injector is removed.
    store.set_fault_injector(None);
    let (solutions, explain) = store
        .engine(true)
        .query_opt(Q1, &QueryOptions::default())
        .unwrap();
    assert_eq!(solutions.canonical(), expected);
    assert!(explain.fully_healthy());
    std::fs::remove_dir_all(&dir).unwrap();
}

/// `verify_and_repair` rebuilds damaged ExtVP partitions from their VP
/// base tables and leaves the store fully clean.
#[test]
fn verify_and_repair_rebuilds_extvp_from_vp() {
    let _serial = metrics::test_lock();
    let dir = temp_store("repair");
    let built = S2rdfStore::build(&g1(), &BuildOptions::default());
    let expected = built.query(Q1).unwrap().canonical();
    built.save(&dir).unwrap();

    let damaged = corrupt_tables(&dir, "ExtVP_");
    let report = S2rdfStore::verify_and_repair(&dir).unwrap();
    assert_eq!(report.repaired.len(), damaged);
    assert!(
        report.unrecoverable.is_empty(),
        "{:?}",
        report.unrecoverable
    );
    assert!(report.clean_after, "repair must leave a clean store");

    // The repaired store loads without quarantine and runs fully healthy.
    let store = S2rdfStore::load(&dir).unwrap();
    assert!(store.quarantined().is_empty());
    let (solutions, explain) = store
        .engine(true)
        .query_opt(Q1, &QueryOptions::default())
        .unwrap();
    assert_eq!(solutions.canonical(), expected);
    assert!(explain.fully_healthy());
    assert!(explain.degraded_steps.is_empty());
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Ground-truth damage (a VP table) cannot be rebuilt: load fails loudly
/// and repair reports it as unrecoverable rather than faking a fix.
#[test]
fn damaged_vp_table_is_unrecoverable() {
    let _serial = metrics::test_lock();
    let dir = temp_store("vp-damage");
    let built = S2rdfStore::build(&g1(), &BuildOptions::default());
    built.save(&dir).unwrap();

    corrupt_tables(&dir, "VP/<follows>");
    let err = S2rdfStore::load(&dir).unwrap_err();
    assert!(
        matches!(err, CoreError::Columnar(_)),
        "VP corruption must fail the load: {err:?}"
    );
    let report = S2rdfStore::verify_and_repair(&dir).unwrap();
    assert!(!report.clean_after);
    assert!(
        report
            .unrecoverable
            .iter()
            .any(|(name, _)| name == "VP/<follows>"),
        "{:?}",
        report.unrecoverable
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

/// The triples table is ground truth like VP: a damaged body fails the load
/// through the open-time CRC sweep, although no body is decoded there.
#[test]
fn damaged_triples_table_fails_the_load() {
    let _serial = metrics::test_lock();
    let dir = temp_store("tt-damage");
    S2rdfStore::build(&g1(), &BuildOptions::default())
        .save(&dir)
        .unwrap();

    corrupt_tables(&dir, "TT");
    let err = S2rdfStore::load(&dir).unwrap_err();
    assert!(
        matches!(err, CoreError::Columnar(_)),
        "TT corruption must fail the load: {err:?}"
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

/// `dictionary.nt` numbers terms by line, so a line that repeats an earlier
/// term is corruption: merging it would shift every later id.
#[test]
fn repeated_dictionary_line_fails_the_load() {
    let _serial = metrics::test_lock();
    let dir = temp_store("dict-repeat");
    S2rdfStore::build(&g1(), &BuildOptions::default())
        .save(&dir)
        .unwrap();
    assert!(S2rdfStore::load(&dir).is_ok());

    let path = dir.join("dictionary.nt");
    let text = std::fs::read_to_string(&path).unwrap();
    let mut lines: Vec<&str> = text.lines().collect();
    lines[1] = lines[0];
    std::fs::write(&path, lines.join("\n") + "\n").unwrap();

    let err = S2rdfStore::load(&dir).unwrap_err();
    assert!(
        matches!(&err, CoreError::Catalog(m) if m.contains("line 2 repeats a term")),
        "{err:?}"
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Opening a store checks CRCs but reads no table body: the triples table
/// is served on demand like VP and ExtVP.
#[test]
fn load_decodes_no_table_body() {
    let _serial = metrics::test_lock();
    let dir = temp_store("no-body");
    S2rdfStore::build(&g1(), &BuildOptions::default())
        .save(&dir)
        .unwrap();

    let reads = metrics::counter("columnar.io.tables_read");
    let decoded = metrics::counter("columnar.io.chunks_decoded");
    let (reads0, decoded0) = (reads.get(), decoded.get());
    metrics::set_enabled(true);
    let store = S2rdfStore::load(&dir);
    metrics::set_enabled(false);
    assert!(store.is_ok());
    assert_eq!(reads.get() - reads0, 0, "load read a table body");
    assert_eq!(decoded.get() - decoded0, 0, "load decoded a chunk");
    std::fs::remove_dir_all(&dir).unwrap();
}

/// A loaded store serves every triples-table reader from disk on demand: a
/// variable-predicate scan, a save, and an update all agree with the built
/// store.
#[test]
fn triples_table_on_demand_matches_built_store() {
    let _serial = metrics::test_lock();
    let dir = temp_store("tt-demand");
    let copy = temp_store("tt-demand-copy");
    let mut built = S2rdfStore::build(&g1(), &BuildOptions::default());
    built.save(&dir).unwrap();
    const Q: &str = "SELECT * WHERE { <A> ?p ?o }";
    let expected = built.query(Q).unwrap().canonical();
    assert_eq!(expected.len(), 3);

    let loaded = S2rdfStore::load(&dir).unwrap();
    assert_eq!(loaded.query(Q).unwrap().canonical(), expected);
    assert_eq!(
        *loaded.triples_table().unwrap(),
        *built.triples_table().unwrap()
    );

    loaded.save(&copy).unwrap();
    drop(loaded);
    let resaved = S2rdfStore::load(&copy).unwrap();
    assert_eq!(resaved.query(Q).unwrap().canonical(), expected);
    drop(resaved);

    let mut loaded = S2rdfStore::load(&dir).unwrap();
    let ins = [t("A", "knows", "E")];
    assert_eq!(loaded.insert(&ins).unwrap(), built.insert(&ins).unwrap());
    for q in [Q, "SELECT * WHERE { ?s ?p ?o }", Q1] {
        assert_eq!(
            loaded.query(q).unwrap().canonical(),
            built.query(q).unwrap().canonical(),
            "{q}"
        );
    }
    std::fs::remove_dir_all(&dir).unwrap();
    std::fs::remove_dir_all(&copy).unwrap();
}

/// An update reads the triples table before it interns or logs anything,
/// so a failed read leaves the dictionary and the WAL as they were, and the
/// same update succeeds once the fault is gone.
#[test]
fn failed_triples_table_read_leaves_update_state_untouched() {
    let _serial = metrics::test_lock();
    let dir = temp_store("tt-read-fault");
    S2rdfStore::build(&g1(), &BuildOptions::default())
        .save(&dir)
        .unwrap();

    let mut store = S2rdfStore::load(&dir).unwrap();
    let (terms, pending) = (store.dict().len(), store.wal_pending());
    store.set_fault_injector_deep(Some(Arc::new(FaultInjector::new(FaultConfig {
        seed: 3,
        read_error: 1.0,
        ..FaultConfig::default()
    }))));
    let ins = [t("A", "likes", "NEW")];
    assert!(
        store.insert(&ins).is_err(),
        "the triples table read must fail"
    );
    assert_eq!(store.dict().len(), terms, "the dictionary grew");
    assert_eq!(store.wal_pending(), pending, "a WAL record was written");

    store.set_fault_injector_deep(None);
    assert_eq!(store.insert(&ins).unwrap().inserted, 1);
    assert_eq!(store.dict().len(), terms + 1);
    assert_eq!(store.wal_pending(), pending + 1);
    std::fs::remove_dir_all(&dir).unwrap();
}
