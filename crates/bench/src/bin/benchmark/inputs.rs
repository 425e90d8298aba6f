//! Everything a run feeds the store, derived from `--scale` and `--seed`:
//! the WatDiv dataset as an N-Triples file, the query texts of every
//! workload, and the update batches. The store only ever sees these.

use std::io::BufWriter;
use std::path::{Path, PathBuf};
use std::time::Instant;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use s2rdf_model::{ntriples, Term, Triple};
use s2rdf_watdiv::vocab::{self, PREFIX_HEADER};
use s2rdf_watdiv::{generate, Config, Dataset, EntityType, QueryTemplate, Workload as Templates};

/// Instantiations per Basic Testing template.
pub const BASIC_INSTANCES: usize = 20;
/// Instantiations per bound Incremental Linear template.
pub const CHAIN_INSTANCES: usize = 10;
/// The unbound Selectivity Testing templates whose results are large enough
/// for decoding ids into terms to dominate, and small enough to leave
/// several passes per run. ST-3-1 and ST-5-2 return 6-14 M rows and mostly
/// measure the allocator.
const BULK_TEMPLATES: [&str; 7] = [
    "ST-1-1", "ST-1-2", "ST-3-2", "ST-4-1", "ST-5-1", "ST-7-1", "ST-7-2",
];
/// Triples per update batch.
const BATCH_TRIPLES: usize = 100;
/// Update batches drawn per run; a run that fits more rounds reuses them.
pub const BATCHES: usize = 16;

/// One query instance. `id` is `<template>#<instance>`, the key of
/// `expected_seed42.tsv`.
#[derive(Debug, Clone)]
pub struct Query {
    pub id: String,
    pub text: String,
}

impl Query {
    /// The template of a query id.
    pub fn template_of(id: &str) -> &str {
        id.split('#')
            .next()
            .expect("split yields at least one part")
    }
}

pub struct Inputs {
    pub scale: u32,
    pub seed: u64,
    pub triples: usize,
    pub nt_path: PathBuf,
    pub basic: Vec<Query>,
    pub chain: Vec<Query>,
    pub bulk: Vec<Query>,
    pub batches: Vec<Vec<Triple>>,
    pub generate_s: f64,
}

/// The generator's seed. It is fixed because the generator draws the
/// dataset's very shape from it (how many users follow, like or review, and
/// how much), and queries cost up to twice as much on one shape as on
/// another. `--seed` picks the entities queries bind and the triples
/// batches touch; the data they run on is part of the benchmark.
const DATA_SEED: u64 = 42;

/// The dataset of a scale. The oracle generates it a second time rather
/// than keeping it alive through the measurement.
pub fn dataset(scale: u32) -> Dataset {
    generate(&Config {
        scale,
        seed: DATA_SEED,
    })
}

/// The entities the instances of a chain template start from. IL-1 chains
/// start at a user and the seed draws the users. IL-2 chains start at a
/// retailer, and retailers are too few to sample: there are 25 at scale 5
/// and one of them returns three times the rows of any other, so whether a
/// seed drew it decided the pass, its row count and the peak memory of the
/// run. IL-2 instances therefore start at every `retailers / 10`-th
/// retailer whatever the seed.
fn chain_starts(data: &Dataset, template: &QueryTemplate, rng: &mut StdRng) -> Vec<Term> {
    (0..CHAIN_INSTANCES)
        .map(|instance| match template.mappings {
            [("v0", EntityType::User)] => data.random_entity(EntityType::User, rng),
            [("v0", EntityType::Retailer)] => vocab::entity(
                "Retailer",
                instance * data.counts.retailers / CHAIN_INSTANCES,
            ),
            other => panic!(
                "{}: chains start at a user or a retailer, not {other:?}",
                template.name
            ),
        })
        .collect()
}

impl Inputs {
    /// Generates the dataset, writes it to `<dir>/data.nt`, and draws the
    /// queries and batches. Every workload draws from the same stream in
    /// the same order, so a query id means the same text in all of them.
    pub fn generate(scale: u32, seed: u64, dir: &Path) -> Inputs {
        let started = Instant::now();
        let data = dataset(scale);
        let nt_path = dir.join("data.nt");
        let file = std::fs::File::create(&nt_path).expect("create data.nt in the work directory");
        ntriples::write_graph(&data.graph, &mut BufWriter::new(file)).expect("write data.nt");

        let mut rng = StdRng::seed_from_u64(seed);
        let mut instantiate = |templates: &Templates, keep: &dyn Fn(&str) -> bool, n: usize| {
            let mut queries = Vec::new();
            for template in templates.templates.iter().filter(|t| keep(t.name)) {
                for instance in 0..n {
                    queries.push(Query {
                        id: format!("{}#{instance:02}", template.name),
                        text: template.instantiate(&data, &mut rng),
                    });
                }
            }
            queries
        };
        let basic = instantiate(&Templates::basic_testing(), &|_| true, BASIC_INSTANCES);
        let bulk = instantiate(
            &Templates::selectivity_testing(),
            &|name| BULK_TEMPLATES.contains(&name),
            1,
        );
        // IL-3 is unbound: seconds to minutes per query at this scale.
        let mut chain = Vec::new();
        for template in &Templates::incremental_linear().templates {
            if template.name.starts_with("IL-3") {
                continue;
            }
            for (instance, start) in chain_starts(&data, template, &mut rng).iter().enumerate() {
                chain.push(Query {
                    id: format!("{}#{instance:02}", template.name),
                    text: format!(
                        "{PREFIX_HEADER}{}",
                        template.body.replace("%v0%", &start.to_string())
                    ),
                });
            }
        }

        let stored = data.graph.triples();
        let batches = (0..BATCHES)
            .map(|_| {
                let mut picked = std::collections::BTreeSet::new();
                while picked.len() < BATCH_TRIPLES.min(stored.len()) {
                    picked.insert(rng.gen_range(0..stored.len()));
                }
                picked
                    .into_iter()
                    .map(|i| data.graph.decode(stored[i]))
                    .collect()
            })
            .collect();

        Inputs {
            scale,
            seed,
            triples: data.graph.len(),
            nt_path,
            basic,
            chain,
            bulk,
            batches,
            generate_s: started.elapsed().as_secs_f64(),
        }
    }

    /// `take` instances of every template of `queries`, starting at number
    /// `round * take` and wrapping around the `per_template` a template
    /// has. `cold` and `update` run other instances in each cycle or read
    /// phase, so that a run covers them all equally often and does not
    /// hang on the ones a seed drew first.
    pub fn instances(
        queries: &[Query],
        per_template: usize,
        round: usize,
        take: usize,
    ) -> Vec<Query> {
        let wanted: Vec<String> = (round * take..(round + 1) * take)
            .map(|i| format!("#{:02}", i % per_template))
            .collect();
        queries
            .iter()
            .filter(|q| wanted.iter().any(|suffix| q.id.ends_with(suffix)))
            .cloned()
            .collect()
    }
}
