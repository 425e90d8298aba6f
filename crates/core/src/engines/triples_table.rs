//! Baseline engine over a single triples table (paper §4.1).
//!
//! Every triple pattern is a selection over the full TT — the layout whose
//! "whole dataset has to be touched at least once, even if the query only
//! selects a very small subset". Joins and everything above them reuse the
//! shared executor, so the measured difference to S2RDF isolates the
//! layout.

use rustc_hash::FxHashMap;

use s2rdf_columnar::exec::natural_join_adaptive;
use s2rdf_columnar::Table;
use s2rdf_model::{Dictionary, Graph, TermId};
use s2rdf_sparql::{TermPattern, TriplePattern};

use crate::compiler::bgp::order_patterns_by;
use crate::error::CoreError;
use crate::exec::{BgpEvaluator, ExecContext, Explain, QueryOptions, Solutions, StepExplain};
use crate::layout::triples_table::build_triples_table;
use crate::layout::TT_NAME;

use super::{run_query, run_query_result, scan_pattern, QueryResult, SparqlEngine};

/// Triples-table baseline engine.
#[derive(Debug)]
pub struct TriplesTableEngine {
    dict: Dictionary,
    tt: Table,
    pred_counts: FxHashMap<TermId, usize>,
}

impl TriplesTableEngine {
    /// Builds the engine from a graph.
    pub fn new(graph: &Graph) -> TriplesTableEngine {
        TriplesTableEngine {
            dict: graph.dict().clone(),
            tt: build_triples_table(graph),
            pred_counts: graph.predicate_counts().into_iter().collect(),
        }
    }

    /// Size estimate used for join ordering: the predicate's triple count,
    /// or the full table for unbound predicates.
    fn estimate(&self, tp: &TriplePattern) -> usize {
        match &tp.p {
            TermPattern::Var(_) => self.tt.num_rows(),
            TermPattern::Term(t) => self
                .dict
                .id(t)
                .and_then(|p| self.pred_counts.get(&p).copied())
                .unwrap_or(0),
        }
    }
}

impl BgpEvaluator for TriplesTableEngine {
    fn dict(&self) -> &Dictionary {
        &self.dict
    }

    fn eval_bgp(
        &self,
        bgp: &[TriplePattern],
        ctx: &mut ExecContext<'_>,
    ) -> Result<Table, CoreError> {
        let ordered = if ctx.options.optimize_join_order {
            order_patterns_by(bgp, |tp| self.estimate(tp), ctx.options.dp_max_patterns)
        } else {
            bgp.to_vec()
        };
        let mut result: Option<Table> = None;
        for tp in &ordered {
            ctx.check_deadline()?;
            let span = ctx.span_open("scan");
            let started = std::time::Instant::now();
            let scanned = scan_pattern(&self.tt, &[(0, &tp.s), (1, &tp.p), (2, &tp.o)], &self.dict);
            let rationale = "single triples table: the only physical layout".to_string();
            ctx.span_close(
                span,
                format!("{TT_NAME}: {rationale}"),
                Some(scanned.num_rows()),
            );
            ctx.explain.bgp_steps.push(StepExplain {
                table: TT_NAME.to_string(),
                rows: scanned.num_rows(),
                sf: 1.0,
                wall_micros: started.elapsed().as_micros() as u64,
                rationale,
                est_rows: 0,
            });
            result = Some(match result {
                None => scanned,
                Some(acc) => {
                    let span = ctx.span_open("join");
                    let joined = natural_join_adaptive(&acc, &scanned, &ctx.options.join).0;
                    ctx.span_close(
                        span,
                        format!(
                            "build={} probe={}",
                            acc.num_rows().min(scanned.num_rows()),
                            acc.num_rows().max(scanned.num_rows())
                        ),
                        Some(joined.num_rows()),
                    );
                    ctx.note_join(acc.num_rows(), scanned.num_rows(), joined.num_rows())?;
                    joined
                }
            });
        }
        Ok(result.expect("non-empty BGP"))
    }
}

impl SparqlEngine for TriplesTableEngine {
    fn name(&self) -> String {
        "TriplesTable".to_string()
    }

    fn query_opt(
        &self,
        sparql: &str,
        options: &QueryOptions,
    ) -> Result<(Solutions, Explain), CoreError> {
        run_query(self, sparql, options)
    }

    fn query_result_opt(
        &self,
        sparql: &str,
        options: &QueryOptions,
    ) -> Result<(QueryResult, Explain), CoreError> {
        run_query_result(self, sparql, options)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use s2rdf_model::{Term, Triple};

    fn t(s: &str, p: &str, o: &str) -> Triple {
        Triple::new(Term::iri(s), Term::iri(p), Term::iri(o))
    }

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

    #[test]
    fn q1_matches_paper() {
        let e = TriplesTableEngine::new(&g1());
        let s = e
            .query(
                "SELECT * WHERE { ?x <likes> ?w . ?x <follows> ?y .
                                  ?y <follows> ?z . ?z <likes> ?w }",
            )
            .unwrap();
        assert_eq!(s.len(), 1);
        assert_eq!(s.binding(0, "x"), Some(&Term::iri("A")));
    }

    #[test]
    fn var_predicate_query() {
        let e = TriplesTableEngine::new(&g1());
        let s = e.query("SELECT DISTINCT ?p WHERE { ?s ?p ?o }").unwrap();
        assert_eq!(s.len(), 2);
    }

    #[test]
    fn estimate_prefers_smaller_predicates() {
        let e = TriplesTableEngine::new(&g1());
        let follows = TriplePattern::new(
            TermPattern::Var("a".into()),
            TermPattern::Term(Term::iri("follows")),
            TermPattern::Var("b".into()),
        );
        let likes = TriplePattern::new(
            TermPattern::Var("b".into()),
            TermPattern::Term(Term::iri("likes")),
            TermPattern::Var("c".into()),
        );
        assert_eq!(e.estimate(&follows), 4);
        assert_eq!(e.estimate(&likes), 3);
    }
}
