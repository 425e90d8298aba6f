//! The five workloads as closed loops of one client: the next operation
//! starts when the previous one has returned. Every query goes through
//! `S2rdfStore::load` + `engine(true).query_opt(text, default options)`,
//! the path behind `s2rdf query`. The same loops serve the traced run,
//! which passes an enabled tracer.
//!
//! A loop runs every query instance several times and keeps every latency.
//! The end-to-end metrics are built from one latency per instance, the
//! lower quartile of its executions (`report::typical`).

use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;

use s2rdf_core::engines::s2rdf::S2rdfEngine;
use s2rdf_core::engines::SparqlEngine;
use s2rdf_core::exec::QueryOptions;
use s2rdf_core::{CoreError, Explain, S2rdfStore, Solutions};

use crate::inputs::{Inputs, Query, BASIC_INSTANCES, BATCHES, CHAIN_INSTANCES};
use crate::oracle::{fingerprint, Check, State};
use crate::report::{median, typical};
use crate::setup::on_cpu_seconds;
use crate::spans::{Counted, Tracer};

/// Times `S2rdfStore::load` this often before a workload starts, for
/// `open_p50_ms`. `cold` opens once per cycle instead.
const OPEN_REPEATS: usize = 30;
/// `update` checkpoints before every third round, so the last round's
/// batches are always still in the WAL when the store is reopened.
const CHECKPOINT_EVERY: usize = 3;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    Basic,
    Chain,
    Bulk,
    Cold,
    Update,
}

impl Workload {
    pub const ALL: [Workload; 5] = [
        Workload::Basic,
        Workload::Chain,
        Workload::Bulk,
        Workload::Cold,
        Workload::Update,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Basic => "basic",
            Workload::Chain => "chain",
            Workload::Bulk => "bulk",
            Workload::Cold => "cold",
            Workload::Update => "update",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The queries of pass number `round`: every instance on the warm
    /// workloads; in a cycle of `cold` two instances of every `basic` and
    /// one of every `chain` template; in a read phase of `update` five of
    /// every `basic` template.
    pub fn queries(self, inputs: &Inputs, round: usize) -> Vec<Query> {
        match self {
            Workload::Basic => inputs.basic.clone(),
            Workload::Chain => inputs.chain.clone(),
            Workload::Bulk => inputs.bulk.clone(),
            Workload::Cold => {
                let mut queries = Inputs::instances(&inputs.basic, BASIC_INSTANCES, round, 2);
                queries.extend(Inputs::instances(&inputs.chain, CHAIN_INSTANCES, round, 1));
                queries
            }
            Workload::Update => Inputs::instances(&inputs.basic, BASIC_INSTANCES, round, 5),
        }
    }

    /// Passes (cycles, rounds) a run makes even when `--seconds` is over
    /// sooner.
    pub fn min_passes(self) -> usize {
        match self {
            Workload::Basic => 3,
            // One checkpoint at least.
            Workload::Update => CHECKPOINT_EVERY + 1,
            Workload::Chain | Workload::Bulk => 6,
            Workload::Cold => 10,
        }
    }

    /// Passes after which `queries` has gone through every instance once.
    /// A run makes a multiple of them, so that its mix of queries does not
    /// depend on how many passes fit into `--seconds`.
    pub fn sweep(self) -> usize {
        match self {
            Workload::Cold => 10,
            Workload::Update => 2,
            _ => 1,
        }
    }
}

/// How long a loop runs: whole sweeps of `sweep` passes until `seconds`
/// are over, and at least `min_passes`.
#[derive(Debug, Clone, Copy)]
pub struct Plan {
    pub seconds: f64,
    pub min_passes: usize,
    pub sweep: usize,
}

impl Plan {
    fn goes_on(&self, passes: usize, started: Instant) -> bool {
        !passes.is_multiple_of(self.sweep)
            || passes < self.min_passes
            || started.elapsed().as_secs_f64() < self.seconds
    }
}

/// The write side of `update`.
#[derive(Default)]
pub struct Writes {
    pub delete_ms: Vec<f64>,
    pub insert_ms: Vec<f64>,
    pub checkpoint_ms: Vec<f64>,
    /// On-CPU seconds of every checkpoint.
    pub checkpoint_cpu_s: Vec<f64>,
    pub triples_applied: u64,
    pub extvp_recomputed: u64,
    pub tables_flushed: u64,
    /// N-Triples bytes of the batches applied.
    pub user_bytes: u64,
    pub reopen_ms: f64,
    pub replayed_records: u64,
}

/// What one loop measured.
#[derive(Default)]
pub struct Measured {
    /// Latency of every timed execution, by query instance (`Query::id`).
    pub query_ms: BTreeMap<String, Vec<f64>>,
    pub opens_ms: Vec<f64>,
    /// Result rows of the timed executions.
    pub rows: u64,
    /// Timed passes (cycles, rounds) finished.
    pub passes: usize,
    /// What the timed operations of a sweep other than queries typically
    /// take, in milliseconds: the opens on `cold`; on `update` the batches
    /// and the rounds' shares of a checkpoint (see `run_update`).
    pub sweep_other_ms: f64,
    /// Operations issued, and those that returned an error.
    pub operations: u64,
    pub errors: u64,
    /// First executions, to be compared with the oracle.
    pub checks: Vec<Check>,
    pub writes: Writes,
    /// What the registry counted inside the timed cycles of `cold` and
    /// rounds of `update`, in a traced run.
    pub counted: Counted,
}

type Answer = Result<(Solutions, Explain), CoreError>;

impl Measured {
    fn timed(&mut self, query: &Query, ms: f64, answer: &Answer) {
        self.query_ms.entry(query.id.clone()).or_default().push(ms);
        if let Ok((solutions, _)) = answer {
            self.rows += solutions.len() as u64;
        }
    }

    pub fn issued<T>(&mut self, result: &Result<T, CoreError>) {
        self.operations += 1;
        if let Err(e) = result {
            self.errors += 1;
            eprintln!("FAILED operation: {e}");
        }
    }

    fn check(&mut self, query: &Query, state: State, answer: &Answer) {
        self.checks.push(Check {
            id: query.id.clone(),
            text: query.text.clone(),
            state,
            got: answer
                .as_ref()
                .map(|(solutions, _)| fingerprint(solutions))
                .map_err(|e| e.to_string()),
        });
    }
}

fn millis(started: Instant) -> f64 {
    started.elapsed().as_secs_f64() * 1e3
}

/// One query as the client issues it, and its latency in milliseconds.
pub fn query(engine: &S2rdfEngine<'_>, text: &str, tracer: &mut Tracer) -> (f64, Answer) {
    let started = Instant::now();
    let answer = tracer.time("engine.query_opt", None, None, || {
        engine.query_opt(text, &QueryOptions::default())
    });
    (millis(started), answer)
}

fn open(dir: &Path, m: &mut Measured, tracer: &mut Tracer) -> S2rdfStore {
    let started = Instant::now();
    let store = tracer.time("store.load", None, None, || S2rdfStore::load(dir));
    m.opens_ms.push(millis(started));
    m.issued(&store);
    store.expect("the saved store opens")
}

/// Opens the store `OPEN_REPEATS` times and keeps the last handle.
fn opened(dir: &Path, m: &mut Measured) -> S2rdfStore {
    for _ in 1..OPEN_REPEATS {
        open(dir, m, &mut Tracer::disabled());
    }
    open(dir, m, &mut Tracer::disabled())
}

/// One pass whose answers are checked and not timed: first executions.
pub fn checked_pass(store: &S2rdfStore, queries: &[Query], state: State, m: &mut Measured) {
    let engine = store.engine(true);
    for q in queries {
        let (_, answer) = query(&engine, &q.text, &mut Tracer::disabled());
        m.issued(&answer);
        m.check(q, state, &answer);
    }
}

/// One pass whose answers are timed; `check` also records them for the
/// oracle, where every execution is the first on its state of the store.
fn timed_pass(
    store: &S2rdfStore,
    queries: &[Query],
    check: Option<State>,
    m: &mut Measured,
    tracer: &mut Tracer,
) {
    let engine = store.engine(true);
    for q in queries {
        let (ms, answer) = query(&engine, &q.text, tracer);
        m.issued(&answer);
        m.timed(q, ms, &answer);
        if let Some(state) = check {
            m.check(q, state, &answer);
        }
    }
}

/// `basic`, `chain`, `bulk`: the same queries again and again on one warm
/// handle.
pub fn run_warm(dir: &Path, queries: &[Query], plan: Plan) -> Measured {
    let mut m = Measured::default();
    let tracer = &mut Tracer::disabled();
    let store = opened(dir, &mut m);
    checked_pass(&store, queries, State::Full, &mut m);
    let started = Instant::now();
    while plan.goes_on(m.passes, started) {
        timed_pass(&store, queries, None, &mut m, tracer);
        m.passes += 1;
    }
    m
}

/// `cold`: every cycle opens the store, runs two instances of every `basic`
/// and one of every `chain` template and drops the handle, so every query is the first
/// execution on its handle, and is checked. A first cycle is not timed,
/// like the warm-up pass of the others.
pub fn run_cold(dir: &Path, inputs: &Inputs, plan: Plan, tracer: &mut Tracer) -> Measured {
    let mut m = Measured::default();
    let warm_up = open(dir, &mut m, &mut Tracer::disabled());
    checked_pass(
        &warm_up,
        &Workload::Cold.queries(inputs, 0),
        State::Full,
        &mut m,
    );
    drop(warm_up);
    m.opens_ms.clear();
    let counting = tracer.count();
    let started = Instant::now();
    while plan.goes_on(m.passes, started) {
        let store = open(dir, &mut m, tracer);
        let queries = Workload::Cold.queries(inputs, m.passes);
        timed_pass(&store, &queries, Some(State::Full), &mut m, tracer);
        m.passes += 1;
    }
    m.counted = counting.stop();
    m.sweep_other_ms = plan.sweep as f64 * median(&m.opens_ms);
    m
}

/// `update`: each round deletes a batch of existing triples, reads, inserts
/// the batch again and reads again; every read is checked against the
/// oracle on the same state of the data. Then the store is dropped and
/// reopened, which replays the WAL, and every `basic` query is checked.
///
/// A checkpoint serves `CHECKPOINT_EVERY` rounds, so a round carries that
/// share of one. The share is on-CPU time, not wall time: a checkpoint is
/// some 800 `fsync`s, whose cost in this sandbox drifts by a factor of ten
/// within minutes (see `on_cpu_seconds`); its wall time is reported per
/// layer.
pub fn run_update(dir: &Path, inputs: &Inputs, plan: Plan, tracer: &mut Tracer) -> Measured {
    let mut m = Measured::default();
    let mut store = opened(dir, &mut m);
    let counting = tracer.count();
    let started = Instant::now();
    while plan.goes_on(m.passes, started) {
        if m.passes > 0 && m.passes % CHECKPOINT_EVERY == 0 {
            let (t, cpu) = (Instant::now(), on_cpu_seconds());
            let report = tracer.time("store.checkpoint", None, None, || store.checkpoint());
            m.writes.checkpoint_cpu_s.push(on_cpu_seconds() - cpu);
            m.writes.checkpoint_ms.push(millis(t));
            m.issued(&report);
            m.writes.tables_flushed += report.map_or(0, |r| r.tables_flushed as u64);
        }
        let batch_no = m.passes % BATCHES;
        let batch = &inputs.batches[batch_no];
        for (delete, state) in [(true, State::Without(batch_no)), (false, State::Full)] {
            let t = Instant::now();
            let summary = if delete {
                tracer.time("store.delete", None, None, || store.delete(batch))
            } else {
                tracer.time("store.insert", None, None, || store.insert(batch))
            };
            let ms = millis(t);
            m.issued(&summary);
            let summary = summary.unwrap_or_default();
            let w = &mut m.writes;
            (if delete {
                &mut w.delete_ms
            } else {
                &mut w.insert_ms
            })
            .push(ms);
            w.triples_applied += (summary.inserted + summary.deleted) as u64;
            w.extvp_recomputed += summary.extvp_recomputed as u64;
            w.user_bytes += batch
                .iter()
                .map(|t| t.to_string().len() as u64 + 1)
                .sum::<u64>();
            let reads = Workload::Update.queries(inputs, 2 * m.passes + !delete as usize);
            timed_pass(&store, &reads, Some(state), &mut m, tracer);
        }
        m.passes += 1;
    }
    m.counted = counting.stop();
    let w = &m.writes;
    let checkpoint_ms = if w.checkpoint_cpu_s.is_empty() {
        0.0
    } else {
        typical(&w.checkpoint_cpu_s) * 1e3
    };
    m.sweep_other_ms = plan.sweep as f64
        * (typical(&w.delete_ms) + typical(&w.insert_ms) + checkpoint_ms / CHECKPOINT_EVERY as f64);
    drop(store);
    let t = Instant::now();
    let reopened = tracer.time("store.load.replay", None, None, || S2rdfStore::load(dir));
    m.writes.reopen_ms = millis(t);
    m.issued(&reopened);
    let reopened = reopened.expect("the updated store reopens");
    m.writes.replayed_records = reopened.wal_replayed();
    checked_pass(&reopened, &inputs.basic, State::Full, &mut m);
    m
}
