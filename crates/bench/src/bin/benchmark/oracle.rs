//! The correctness oracle. Expected results come from the independent
//! `TriplesTableEngine` (full scans of one three-column table, no ExtVP, no
//! VP, no statistics) over a freshly generated copy of the dataset. It runs
//! after the measurement so that its memory does not count towards
//! `peak_rss_mb`.

use std::collections::BTreeMap;
use std::time::Instant;

use s2rdf_core::engines::triples_table::TriplesTableEngine;
use s2rdf_core::engines::SparqlEngine;
use s2rdf_core::Solutions;

use crate::inputs::{self, Inputs};

/// The rows of a result as a multiset: their number and an
/// order-independent hash.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fingerprint {
    pub rows: u64,
    pub hash: u64,
}

/// Sums a 64-bit FNV-1a hash of every canonical row. A sum does not depend
/// on row order and, unlike xor, does not cancel duplicate rows.
pub fn fingerprint(solutions: &Solutions) -> Fingerprint {
    let mut hash = 0u64;
    for row in solutions.canonical() {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for byte in row.bytes() {
            h = (h ^ byte as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
        hash = hash.wrapping_add(h);
    }
    Fingerprint {
        rows: solutions.len() as u64,
        hash,
    }
}

/// The data a checked query ran on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum State {
    /// The generated dataset.
    Full,
    /// The dataset without the triples of update batch `n`.
    Without(usize),
}

/// What the measured store answered for one query.
pub struct Check {
    pub id: String,
    pub text: String,
    pub state: State,
    pub got: Result<Fingerprint, String>,
}

pub struct Verdict {
    pub checked: u64,
    pub failed: u64,
    pub verify_s: f64,
}

/// The checked-in expectations of a full run's scale and seed 42, so that a
/// drift of the generator or of the oracle itself is caught too.
const EXPECTED_SEED42: &str = include_str!("expected_seed42.tsv");

fn pinned() -> BTreeMap<&'static str, Fingerprint> {
    EXPECTED_SEED42
        .lines()
        .filter(|line| !line.starts_with('#') && !line.is_empty())
        .map(|line| {
            let mut cells = line.split('\t');
            let mut next = || cells.next().expect("expected_seed42.tsv: id, rows, hash");
            let id = next();
            let rows = next().parse().expect("expected_seed42.tsv: rows");
            let hash = u64::from_str_radix(next(), 16).expect("expected_seed42.tsv: hash");
            (id, Fingerprint { rows, hash })
        })
        .collect()
}

/// Compares every check with the oracle, and on the pinned inputs the
/// oracle with the checked-in file. Reports each failure on stderr.
pub fn verify(inputs: &Inputs, checks: &[Check]) -> Verdict {
    let started = Instant::now();
    let mut graph = inputs::dataset(inputs.scale).graph;
    let pinned = if inputs.scale == crate::SCALE && inputs.seed == 42 {
        pinned()
    } else {
        BTreeMap::new()
    };
    let mut states: Vec<State> = checks.iter().map(|c| c.state).collect();
    states.sort();
    states.dedup();
    let mut failed = 0;
    for state in states {
        if let State::Without(batch) = state {
            for triple in &inputs.batches[batch] {
                graph.remove(triple);
            }
        }
        let engine = TriplesTableEngine::new(&graph);
        let mut expected: BTreeMap<&str, Fingerprint> = BTreeMap::new();
        for check in checks.iter().filter(|c| c.state == state) {
            let want = *expected.entry(&check.text).or_insert_with(|| {
                fingerprint(
                    &engine
                        .query(&check.text)
                        .expect("the oracle answers every query"),
                )
            });
            if check.got.as_ref() != Ok(&want) {
                failed += 1;
                eprintln!(
                    "FAILED {} on {state:?}: got {:?}, oracle {want:?}",
                    check.id, check.got
                );
            } else if state == State::Full
                && pinned.get(check.id.as_str()).is_some_and(|p| *p != want)
            {
                failed += 1;
                eprintln!(
                    "FAILED {}: oracle {want:?} differs from expected_seed42.tsv",
                    check.id
                );
            }
        }
        if let State::Without(batch) = state {
            for triple in &inputs.batches[batch] {
                graph.insert(triple);
            }
        }
    }
    Verdict {
        checked: checks.len() as u64,
        failed,
        verify_s: started.elapsed().as_secs_f64(),
    }
}

/// `expected_seed42.tsv`: one line per query of the pinned inputs.
pub fn expected_tsv(inputs: &Inputs) -> String {
    let graph = inputs::dataset(inputs.scale).graph;
    let engine = TriplesTableEngine::new(&graph);
    let mut out = format!(
        "# id\trows\thash: TriplesTableEngine results at scale {}, seed {}. Regenerate: benchmark expected\n",
        inputs.scale, inputs.seed
    );
    for query in inputs.basic.iter().chain(&inputs.chain).chain(&inputs.bulk) {
        let f = fingerprint(
            &engine
                .query(&query.text)
                .expect("the oracle answers every query"),
        );
        out.push_str(&format!("{}\t{}\t{:016x}\n", query.id, f.rows, f.hash));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use s2rdf_model::Term;

    fn solutions(rows: &[[&str; 2]]) -> Solutions {
        Solutions {
            vars: vec!["a".into(), "b".into()],
            rows: rows
                .iter()
                .map(|r| r.iter().map(|v| Some(Term::iri(*v))).collect())
                .collect(),
        }
    }

    #[test]
    fn fingerprint_ignores_row_order_but_not_content() {
        let a = fingerprint(&solutions(&[["x", "y"], ["p", "q"], ["x", "y"]]));
        let b = fingerprint(&solutions(&[["x", "y"], ["x", "y"], ["p", "q"]]));
        assert_eq!(a, b);
        assert_eq!(a.rows, 3);
        // A duplicate row must not cancel out, and a swapped column must show.
        assert_ne!(a.hash, fingerprint(&solutions(&[["p", "q"]])).hash);
        assert_ne!(
            a,
            fingerprint(&solutions(&[["y", "x"], ["p", "q"], ["x", "y"]]))
        );
        // Column order is not content: canonical rows sort by variable name.
        let swapped = Solutions {
            vars: vec!["b".into(), "a".into()],
            rows: vec![vec![Some(Term::iri("y")), Some(Term::iri("x"))]],
        };
        assert_eq!(
            fingerprint(&swapped),
            fingerprint(&solutions(&[["x", "y"]]))
        );
    }

    #[test]
    fn pinned_file_parses_and_covers_every_pinned_query() {
        let pinned = pinned();
        assert!(pinned.contains_key("L1#00") && pinned.contains_key("ST-7-2#00"));
        let chains = 12 * inputs::CHAIN_INSTANCES;
        assert_eq!(pinned.len(), 20 * inputs::BASIC_INSTANCES + chains + 7);
    }
}
