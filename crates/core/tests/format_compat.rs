//! Backward compatibility of the on-disk table formats: a store written
//! in the legacy v2 (whole-column) format — checked in as a fixture —
//! must load and answer queries identically, and a checkpoint must
//! converge its files to the current chunked v3 format without changing
//! any result. Nothing writes v2 any more, so the fixture is frozen.

use std::path::{Path, PathBuf};

use s2rdf_core::{BuildOptions, S2rdfStore};
use s2rdf_model::{Graph, Term, Triple};

fn t(s: &str, p: &str, o: &str) -> Triple {
    Triple::new(Term::iri(s), Term::iri(p), Term::iri(o))
}

/// The fixture's graph: small but exercising VP + ExtVP tables, an SS and
/// an OS correlation, and enough rows that every table is non-trivial.
fn fixture_graph() -> Graph {
    let mut triples = Vec::new();
    for i in 0..20 {
        triples.push(t(
            &format!("person{i}"),
            "follows",
            &format!("person{}", (i + 1) % 20),
        ));
        triples.push(t(&format!("person{i}"), "likes", &format!("post{}", i % 7)));
        if i % 2 == 0 {
            triples.push(t(&format!("post{}", i % 7), "taggedWith", "topic1"));
        }
    }
    Graph::from_triples(triples)
}

const QUERIES: &[&str] = &[
    "SELECT * WHERE { ?x <follows> ?y . ?y <likes> ?z }",
    "SELECT * WHERE { <person3> <follows> ?y }",
    "SELECT * WHERE { ?x <likes> ?p . ?p <taggedWith> <topic1> }",
];

fn fixture_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/v2_store")
}

fn copy_dir(src: &Path, dst: &Path) {
    std::fs::create_dir_all(dst).unwrap();
    for entry in std::fs::read_dir(src).unwrap() {
        let entry = entry.unwrap();
        let to = dst.join(entry.file_name());
        if entry.file_type().unwrap().is_dir() {
            copy_dir(&entry.path(), &to);
        } else {
            std::fs::copy(entry.path(), &to).unwrap();
        }
    }
}

/// Version bytes of every table file in `dir/tables` (manifest excluded).
fn table_versions(dir: &Path) -> Vec<u8> {
    let mut versions = Vec::new();
    for entry in std::fs::read_dir(dir.join("tables")).unwrap() {
        let path = entry.unwrap().path();
        if path.file_name().and_then(|n| n.to_str()) == Some("manifest.tsv") {
            continue;
        }
        let data = std::fs::read(&path).unwrap();
        assert_eq!(&data[..4], b"S2CT", "{path:?}");
        versions.push(data[4]);
    }
    assert!(!versions.is_empty(), "fixture has no table files");
    versions
}

#[test]
fn v2_fixture_loads_queries_and_checkpoints_to_v3() {
    let work = std::env::temp_dir().join(format!("s2rdf-v2compat-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&work);
    copy_dir(&fixture_dir(), &work);
    assert!(
        table_versions(&work).iter().all(|&v| v == 2),
        "fixture must stay v2 on disk"
    );

    // Ground truth from a fresh in-memory build of the same graph.
    let reference = S2rdfStore::build(&fixture_graph(), &BuildOptions::default());
    let expected: Vec<_> = QUERIES
        .iter()
        .map(|q| reference.query(q).unwrap().canonical())
        .collect();

    // The legacy store loads and answers identically.
    let mut store = S2rdfStore::load(&work).unwrap();
    for (q, want) in QUERIES.iter().zip(&expected) {
        assert_eq!(
            &store.query(q).unwrap().canonical(),
            want,
            "pre-upgrade: {q}"
        );
    }

    // Checkpoint rewrites every legacy file in the current chunked format…
    let report = store.checkpoint().unwrap();
    assert!(report.tables_upgraded > 0, "{report:?}");
    assert!(
        table_versions(&work).iter().all(|&v| v == 3),
        "checkpoint must leave only v3 files"
    );
    // …without changing any result, in the same session…
    for (q, want) in QUERIES.iter().zip(&expected) {
        assert_eq!(
            &store.query(q).unwrap().canonical(),
            want,
            "post-upgrade: {q}"
        );
    }
    // …or after a reload of the upgraded store.
    let reloaded = S2rdfStore::load(&work).unwrap();
    for (q, want) in QUERIES.iter().zip(&expected) {
        assert_eq!(
            &reloaded.query(q).unwrap().canonical(),
            want,
            "reloaded: {q}"
        );
    }
    // A second checkpoint finds nothing left to upgrade.
    let mut store = reloaded;
    assert_eq!(store.checkpoint().unwrap().tables_upgraded, 0);
    std::fs::remove_dir_all(&work).unwrap();
}

/// A selective scan over a loaded v3 store must actually skip chunks:
/// the zone maps rule out every chunk whose subject range excludes the
/// bound constant, so `columnar.io.chunks_pruned` advances.
#[test]
fn selective_scan_on_loaded_store_prunes_chunks() {
    use s2rdf_columnar::metrics;

    // Many rows under one predicate so the VP table spans several chunks;
    // subjects are grouped, so zone maps separate cleanly.
    let mut triples = Vec::new();
    for i in 0..4000u32 {
        triples.push(t(
            &format!("s{:05}", i / 4),
            "edge",
            &format!("o{:05}", i % 97),
        ));
    }
    let graph = Graph::from_triples(triples);
    let mut store = S2rdfStore::build(&graph, &BuildOptions::default());
    store.set_write_options(s2rdf_columnar::WriteOptions {
        chunk_rows: 256,
        bloom: true,
    });

    let work = std::env::temp_dir().join(format!("s2rdf-prune-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&work);
    store.save(&work).unwrap();
    let loaded = S2rdfStore::load(&work).unwrap();

    let _guard = metrics::test_lock();
    metrics::set_enabled(true);
    let pruned = metrics::counter("columnar.io.chunks_pruned");
    let before = pruned.get();
    let result = loaded
        .query("SELECT * WHERE { <s00007> <edge> ?o }")
        .unwrap();
    metrics::set_enabled(false);

    assert_eq!(result.canonical().len(), 4);
    assert!(
        pruned.get() > before,
        "bound-constant scan must skip chunks via zone maps"
    );
    std::fs::remove_dir_all(&work).unwrap();
}
