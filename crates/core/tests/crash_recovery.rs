//! Kill-and-recover harness for the incremental-update path (WAL +
//! delta-wise ExtVP maintenance + checkpoint).
//!
//! The invariant under test: a crash at *any* write-side fault point during
//! an update/checkpoint workload leaves the store directory in a state from
//! which [`S2rdfStore::load`] recovers a **batch-prefix** of the workload —
//! the triples, VP partitions, ExtVP reductions and catalog statistics are
//! all byte-equivalent (in query results and summary statistics) to a store
//! rebuilt from scratch on that prefix graph. Nothing torn, nothing
//! half-applied, nothing silently lost after its WAL append completed *and*
//! a later batch survived.
//!
//! The enumeration works like the classic "CrashMonkey" style harnesses:
//! a fault-free baseline run counts the write-side fault points the
//! workload crosses (`FaultInjector::op_count`); the kill loop then replays
//! the same workload once per fault point with `kill_after_ops = k`,
//! reopens the directory without any injector, and checks the recovered
//! store against every admissible prefix state.

use std::path::{Path, PathBuf};
use std::sync::Arc;

use s2rdf_columnar::{FaultConfig, FaultInjector};
use s2rdf_core::{BuildOptions, CoreError, ExtVpMode, S2rdfStore};
use s2rdf_model::{Graph, Term, Triple};

fn t(s: &str, p: &str, o: &str) -> Triple {
    Triple::new(Term::iri(s), Term::iri(p), Term::iri(o))
}

/// G1 from the paper (§2.1).
fn g1() -> Vec<Triple> {
    vec![
        t("A", "follows", "B"),
        t("B", "follows", "C"),
        t("B", "follows", "D"),
        t("C", "follows", "D"),
        t("A", "likes", "I1"),
        t("A", "likes", "I2"),
        t("C", "likes", "I2"),
    ]
}

/// One update step of the workload: a batch of inserts and deletes,
/// optionally followed by a checkpoint.
struct Step {
    ins: Vec<Triple>,
    del: Vec<Triple>,
    checkpoint_after: bool,
}

/// The workload: three batches (touching existing predicates, introducing
/// a brand-new predicate with new dictionary terms, and draining rows) with
/// checkpoints interleaved so the kill loop crosses both WAL-append and
/// checkpoint fault points. Each prefix leaves a distinct triple count
/// (7 → 9 → 8 → 10) so the recovered state is identifiable.
fn workload() -> Vec<Step> {
    vec![
        Step {
            ins: vec![
                t("D", "likes", "I3"), // new object term
                t("E", "knows", "A"),  // new predicate + new subject
                t("A", "likes", "I1"), // duplicate: must be a no-op
            ],
            del: vec![],
            checkpoint_after: false,
        },
        Step {
            ins: vec![],
            del: vec![
                t("B", "follows", "C"),
                t("X", "follows", "Y"), // absent: must be a no-op
            ],
            checkpoint_after: true,
        },
        Step {
            ins: vec![
                t("C", "knows", "E"),
                t("E", "likes", "I3"),
                t("D", "knows", "A"),
            ],
            del: vec![t("A", "likes", "I2")],
            checkpoint_after: true,
        },
    ]
}

/// Queries probing every maintained structure: the full chain query (ExtVP
/// SS/OS/SO reductions), the predicate introduced by the deltas, and a
/// two-pattern join over predicates the deltas drain.
const PROBES: &[&str] = &[
    "SELECT * WHERE { ?x <likes> ?w . ?x <follows> ?y . ?y <follows> ?z . ?z <likes> ?w }",
    "SELECT * WHERE { ?a <knows> ?b }",
    "SELECT * WHERE { ?x <follows> ?y . ?y <likes> ?o }",
    "SELECT * WHERE { ?s ?p ?o }",
];

/// Expected state after a prefix of the workload: the prefix graph plus
/// the canonical probe answers of a store rebuilt from scratch on it.
struct PrefixState {
    total_triples: usize,
    probes: Vec<Vec<String>>,
    num_extvp_tables: usize,
    extvp_tuples: usize,
}

fn prefix_states(options: &BuildOptions) -> Vec<PrefixState> {
    let mut triples = g1();
    let mut states = Vec::new();
    let snapshot = |triples: &[Triple]| {
        let rebuilt = S2rdfStore::build(&Graph::from_triples(triples.iter().cloned()), options);
        PrefixState {
            total_triples: triples.len(),
            probes: PROBES
                .iter()
                .map(|q| rebuilt.query(q).unwrap().canonical())
                .collect(),
            num_extvp_tables: rebuilt.num_extvp_tables(),
            extvp_tuples: rebuilt.extvp_tuples(),
        }
    };
    states.push(snapshot(&triples));
    for step in workload() {
        for ins in &step.ins {
            if !triples.contains(ins) {
                triples.push(ins.clone());
            }
        }
        triples.retain(|x| !step.del.contains(x));
        states.push(snapshot(&triples));
    }
    // The prefix detector keys on the triple count; the workload is
    // constructed so every prefix is distinguishable.
    let counts: Vec<usize> = states.iter().map(|s| s.total_triples).collect();
    for (i, c) in counts.iter().enumerate() {
        assert_eq!(
            counts.iter().position(|x| x == c),
            Some(i),
            "workload prefixes must have distinct triple counts, got {counts:?}"
        );
    }
    states
}

/// Applies the whole workload; the first fault aborts (as a real process
/// death would, mid-sequence).
fn run_workload(store: &mut S2rdfStore) -> Result<(), CoreError> {
    for step in workload() {
        store.update_batch(&step.ins, &step.del)?;
        if step.checkpoint_after {
            store.checkpoint()?;
        }
    }
    Ok(())
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("s2rdf-crash-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
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

/// Checks a recovered store against the admissible prefix states and
/// returns the index of the state it matched.
fn assert_prefix_state(store: &S2rdfStore, states: &[PrefixState], ctx: &str) -> usize {
    let total = store.catalog().total_triples;
    let idx = states
        .iter()
        .position(|s| s.total_triples == total)
        .unwrap_or_else(|| panic!("{ctx}: recovered {total} triples, not any workload prefix"));
    let state = &states[idx];
    for (q, expected) in PROBES.iter().zip(&state.probes) {
        let got = store
            .query(q)
            .unwrap_or_else(|e| panic!("{ctx}: probe failed after recovery: {e}"))
            .canonical();
        assert_eq!(&got, expected, "{ctx}: probe {q} diverged from rebuild");
    }
    assert_eq!(
        store.num_extvp_tables(),
        state.num_extvp_tables,
        "{ctx}: materialized ExtVP set diverged from rebuild"
    );
    assert_eq!(
        store.extvp_tuples(),
        state.extvp_tuples,
        "{ctx}: ExtVP tuple count diverged from rebuild"
    );
    idx
}

/// The full enumeration: kill the process (via the injector's kill switch)
/// after every write-side fault point the workload crosses, reopen, and
/// require a consistent batch-prefix state plus a clean offline verify.
fn kill_at_every_fault_point(tag: &str, options: &BuildOptions) {
    let pristine = temp_dir(&format!("{tag}-pristine"));
    S2rdfStore::build(&Graph::from_triples(g1()), options)
        .save(&pristine)
        .unwrap();
    let states = prefix_states(options);
    let final_state = states.len() - 1;

    // Fault-free baseline: count the write-side fault points and prove the
    // workload itself lands on the final state.
    let work = temp_dir(&format!("{tag}-work"));
    copy_dir(&pristine, &work);
    let injector = Arc::new(FaultInjector::new(FaultConfig::default()));
    let total_ops = {
        let mut store = S2rdfStore::load(&work).unwrap();
        store.set_fault_injector_deep(Some(injector.clone()));
        run_workload(&mut store).unwrap();
        assert_eq!(
            assert_prefix_state(&store, &states, "baseline"),
            final_state
        );
        injector.op_count()
    };
    assert!(
        (5..500).contains(&(total_ops as usize)),
        "implausible fault-point count {total_ops}"
    );
    // The baseline ends checkpointed: a plain reopen must also be final.
    let reopened = S2rdfStore::load(&work).unwrap();
    assert_eq!(reopened.wal_pending(), 0, "baseline left WAL records");
    assert_eq!(
        assert_prefix_state(&reopened, &states, "baseline reopen"),
        final_state
    );
    drop(reopened);

    let mut reached = vec![false; states.len()];
    for k in 0..total_ops {
        let ctx = format!("{tag} kill at op {k}/{total_ops}");
        let dir = temp_dir(&format!("{tag}-kill"));
        copy_dir(&pristine, &dir);
        {
            let mut store = S2rdfStore::load(&dir).unwrap();
            store.set_fault_injector_deep(Some(Arc::new(FaultInjector::new(FaultConfig {
                kill_after_ops: Some(k),
                ..FaultConfig::default()
            }))));
            let died = run_workload(&mut store);
            assert!(died.is_err(), "{ctx}: kill did not surface an error");
            // The process is gone: whatever the in-memory store held is
            // lost. Only the directory survives.
        }

        // Recovery pass 1: reopen replays the WAL. No injector attached.
        let recovered =
            S2rdfStore::load(&dir).unwrap_or_else(|e| panic!("{ctx}: store did not reopen: {e}"));
        let idx = assert_prefix_state(&recovered, &states, &ctx);
        reached[idx] = true;
        drop(recovered);

        // Offline verify must find nothing unrecoverable; interrupted
        // flushes may only have left orphan files, which repair sweeps.
        let report = S2rdfStore::verify_and_repair(&dir).unwrap();
        assert!(
            report.unrecoverable.is_empty(),
            "{ctx}: unrecoverable damage {:?}",
            report.unrecoverable
        );
        assert!(report.clean_after, "{ctx}: verify not clean after repair");

        // Recovery pass 2: checkpoint the recovered store and reopen once
        // more — the state must be stable (same prefix, empty WAL).
        let mut recovered = S2rdfStore::load(&dir).unwrap();
        recovered
            .checkpoint()
            .unwrap_or_else(|e| panic!("{ctx}: post-recovery checkpoint failed: {e}"));
        drop(recovered);
        let settled = S2rdfStore::load(&dir).unwrap();
        assert_eq!(
            settled.wal_pending(),
            0,
            "{ctx}: checkpoint left WAL records"
        );
        assert_eq!(
            assert_prefix_state(&settled, &states, &format!("{ctx} (settled)")),
            idx,
            "{ctx}: state changed across checkpoint+reopen"
        );
        drop(settled);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    // The enumeration must actually exercise partial progress: the initial
    // state (early kills) and the final state (late kills) are both
    // reachable. Intermediate prefixes appear unless every fault point of
    // a batch shares its fate with the next — with interleaved checkpoints
    // they do not.
    assert!(reached[0], "{tag}: no kill preserved the initial state");
    assert!(
        reached[final_state],
        "{tag}: no kill reached the final state"
    );
    assert!(
        reached.iter().filter(|r| **r).count() >= 3,
        "{tag}: kill enumeration visited too few distinct prefixes: {reached:?}"
    );

    std::fs::remove_dir_all(&pristine).unwrap();
    std::fs::remove_dir_all(&work).unwrap();
}

#[test]
fn kill_and_recover_materialized_mode() {
    kill_at_every_fault_point("rows", &BuildOptions::default());
}

#[test]
fn kill_and_recover_bitvector_mode() {
    kill_at_every_fault_point(
        "bits",
        &BuildOptions {
            mode: ExtVpMode::BitVector,
            ..BuildOptions::default()
        },
    );
}

/// A torn WAL append (the crash window *inside* `Wal::append`) loses the
/// uncommitted batch and everything after it — never a prefix violation,
/// never an error at reopen.
#[test]
fn torn_wal_append_loses_only_uncommitted_batches() {
    let options = BuildOptions::default();
    let pristine = temp_dir("torn-append");
    S2rdfStore::build(&Graph::from_triples(g1()), &options)
        .save(&pristine)
        .unwrap();
    let states = prefix_states(&options);

    let mut store = S2rdfStore::load(&pristine).unwrap();
    store.set_fault_injector_deep(Some(Arc::new(FaultInjector::new(FaultConfig {
        torn_append: 1.0,
        seed: 7,
        ..FaultConfig::default()
    }))));
    // The very first append is torn mid-record — the injector surfaces the
    // crash as an error, exactly like a process death inside `append`.
    let step = &workload()[0];
    let died = store.update_batch(&step.ins, &step.del);
    assert!(died.is_err(), "torn append must surface as an error");
    drop(store);

    let recovered = S2rdfStore::load(&pristine).unwrap();
    assert_eq!(
        assert_prefix_state(&recovered, &states, "torn append"),
        0,
        "torn WAL records must not replay"
    );
    assert_eq!(recovered.wal_pending(), 0, "residue must be truncated");
    drop(recovered);
    std::fs::remove_dir_all(&pristine).unwrap();
}

/// A bit flip inside a later WAL record (decay, not a crash) cuts replay at
/// the damaged record: earlier batches survive, later ones are dropped, and
/// the reopen still succeeds.
#[test]
fn wal_bit_flip_cuts_replay_at_damaged_record() {
    let options = BuildOptions::default();
    let dir = temp_dir("bitflip");
    S2rdfStore::build(&Graph::from_triples(g1()), &options)
        .save(&dir)
        .unwrap();
    let states = prefix_states(&options);

    let mut store = S2rdfStore::load(&dir).unwrap();
    for step in workload().into_iter().take(2) {
        store.update_batch(&step.ins, &step.del).unwrap();
    }
    assert_eq!(store.wal_pending(), 2);
    drop(store);

    // Flip a payload bit inside the *second* record (offsets: 5-byte file
    // header, then [len][crc][payload] per record).
    let wal_path = dir.join("wal.log");
    let mut bytes = std::fs::read(&wal_path).unwrap();
    let len1 = u32::from_le_bytes(bytes[5..9].try_into().unwrap()) as usize;
    let second_payload = 5 + 8 + len1 + 8;
    assert!(second_payload < bytes.len(), "second record must exist");
    bytes[second_payload] ^= 0x01;
    std::fs::write(&wal_path, &bytes).unwrap();

    let recovered = S2rdfStore::load(&dir).unwrap();
    assert_eq!(
        assert_prefix_state(&recovered, &states, "bit flip"),
        1,
        "replay must stop exactly at the damaged record"
    );
    drop(recovered);
    std::fs::remove_dir_all(&dir).unwrap();
}

/// A failed WAL append may leave a torn record that replay stops at, so a
/// later batch appended behind it would be acknowledged and then lost at
/// reopen. The store must refuse further updates until it is reopened (or,
/// if it accepts one, make it survive the reopen); queries keep working.
#[test]
fn updates_after_a_failed_wal_append_are_refused_until_reopen() {
    let options = BuildOptions::default();
    let dir = temp_dir("append-poison");
    S2rdfStore::build(&Graph::from_triples(g1()), &options)
        .save(&dir)
        .unwrap();

    let mut store = S2rdfStore::load(&dir).unwrap();
    store.set_fault_injector_deep(Some(Arc::new(FaultInjector::new(FaultConfig {
        torn_append: 1.0,
        seed: 7,
        ..FaultConfig::default()
    }))));
    let first = [t("D", "likes", "I3")];
    assert!(store.insert(&first).is_err(), "torn append must surface");

    store.set_fault_injector_deep(None);
    let retry = [t("E", "likes", "I1")];
    let q = "SELECT * WHERE { <E> <likes> ?o }";
    let accepted = match store.insert(&retry) {
        Err(CoreError::ReopenRequired(_)) => false,
        Err(e) => panic!("unexpected error: {e:?}"),
        Ok(_) => true,
    };
    assert_eq!(store.query(q).unwrap().len(), usize::from(accepted));
    drop(store);

    let mut reopened = S2rdfStore::load(&dir).unwrap();
    assert_eq!(
        reopened.query(q).unwrap().len(),
        usize::from(accepted),
        "an acknowledged update was lost at reopen"
    );
    // Reopening trims the torn tail: updates are accepted and durable again.
    reopened.insert(&retry).unwrap();
    drop(reopened);
    assert_eq!(S2rdfStore::load(&dir).unwrap().query(q).unwrap().len(), 1);
    std::fs::remove_dir_all(&dir).unwrap();
}
