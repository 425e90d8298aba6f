//! Sempala-style engine over a property table (paper §4.3 / §3.2).
//!
//! The BGP is decomposed into *triple groups* — maximal sets of patterns
//! sharing a subject — exactly like Sempala: each star group is answered
//! from the property table without joins, and the groups are then joined.
//! Patterns with unbound predicates fall back to the triples table (as in
//! S2RDF itself).

use s2rdf_columnar::exec::natural_join_adaptive;
use s2rdf_columnar::{Schema, Table};
use s2rdf_model::{Dictionary, Graph, TermId};
use s2rdf_sparql::{TermPattern, TriplePattern};

use crate::error::CoreError;
use crate::exec::{BgpEvaluator, ExecContext, Explain, QueryOptions, Solutions, StepExplain};
use crate::layout::property_table::PropertyTable;
use crate::layout::triples_table::build_triples_table;

use super::{run_query, run_query_result, scan_pattern, QueryResult, SparqlEngine};

/// Property-table (Sempala-style) engine.
#[derive(Debug)]
pub struct PropertyTableEngine {
    dict: Dictionary,
    pt: PropertyTable,
    tt: Table,
}

impl PropertyTableEngine {
    /// Builds the engine from a graph.
    pub fn new(graph: &Graph) -> PropertyTableEngine {
        PropertyTableEngine {
            dict: graph.dict().clone(),
            pt: PropertyTable::build(graph),
            tt: build_triples_table(graph),
        }
    }

    /// The property table (exposed for size reporting in benches).
    pub fn property_table(&self) -> &PropertyTable {
        &self.pt
    }

    /// Evaluates one star group: patterns sharing the same subject
    /// position. Candidate subjects come from the rarest predicate column;
    /// the per-subject cross product of object lists reproduces the formal
    /// property-table rows lazily.
    fn eval_star(
        &self,
        subject: &TermPattern,
        star: &[(TermId, &TermPattern)],
        ctx: &mut ExecContext<'_>,
    ) -> Result<Table, CoreError> {
        let started = std::time::Instant::now();
        // Output schema: subject variable (if any) then object variables in
        // first-occurrence order.
        let mut var_names: Vec<&str> = Vec::new();
        if let Some(v) = subject.as_var() {
            var_names.push(v);
        }
        for (_, obj) in star {
            if let Some(v) = obj.as_var() {
                if !var_names.contains(&v) {
                    var_names.push(v);
                }
            }
        }
        // A fully bound star binds nothing; carry its match count in the
        // unit column (see `exec::pattern::UNIT_COL`).
        let unit_mode = var_names.is_empty();
        if unit_mode {
            var_names.push(crate::exec::pattern::UNIT_COL);
        }
        let schema = Schema::new(var_names.iter().map(|v| v.to_string()));
        let mut out = Table::empty(schema);

        // Candidate subjects.
        let candidates: Vec<u32> = match subject {
            TermPattern::Term(t) => match self.dict.id(t) {
                Some(id) => vec![id.0],
                None => return Ok(out),
            },
            TermPattern::Var(_) => {
                // Rarest column drives the iteration.
                let Some((_, rarest)) = star
                    .iter()
                    .map(|&(p, _)| (self.pt.column_subjects(p), p))
                    .min()
                else {
                    return Ok(out);
                };
                match self.pt.column(rarest) {
                    Some(col) => col.keys().copied().collect(),
                    None => return Ok(out),
                }
            }
        };

        let span = ctx.span_open("star_scan");
        let mut row: Vec<u32> = Vec::with_capacity(out.schema().len());
        for (i, &s) in candidates.iter().enumerate() {
            if i % 4096 == 0 {
                ctx.check_deadline()?;
            }
            row.clear();
            if subject.is_var() {
                row.push(s);
            } else if unit_mode {
                row.push(0);
            }
            self.expand_subject(s, star, subject, &mut row, 0, &mut out);
        }
        let rationale = format!(
            "property table star: {} pattern(s) answered join-free, candidates from rarest column",
            star.len()
        );
        ctx.span_close(span, rationale.clone(), Some(out.num_rows()));
        ctx.explain.bgp_steps.push(StepExplain {
            table: "PropertyTable".to_string(),
            rows: out.num_rows(),
            sf: 1.0,
            wall_micros: started.elapsed().as_micros() as u64,
            rationale,
            est_rows: 0,
        });
        Ok(out)
    }

    /// Depth-first expansion of one subject's object lists (the lazy cross
    /// product), honouring bound objects and repeated variables.
    fn expand_subject(
        &self,
        s: u32,
        star: &[(TermId, &TermPattern)],
        subject: &TermPattern,
        row: &mut Vec<u32>,
        depth: usize,
        out: &mut Table,
    ) {
        if depth == star.len() {
            out.push_row(row);
            return;
        }
        let (p, obj) = &star[depth];
        let objects = self.pt.objects(s, *p);
        match obj {
            TermPattern::Term(t) => {
                // Bound object: pure filter.
                let Some(id) = self.dict.id(t) else { return };
                if objects.contains(&id.0) {
                    self.expand_subject(s, star, subject, row, depth + 1, out);
                }
            }
            TermPattern::Var(v) => {
                // Repeated variable (earlier column or the subject itself)
                // constrains instead of extending.
                let existing = self.var_column_before(v, subject, star, depth);
                match existing {
                    Some(col) => {
                        let required = row[col];
                        if objects.contains(&required) {
                            self.expand_subject(s, star, subject, row, depth + 1, out);
                        }
                    }
                    None => {
                        for &o in objects {
                            row.push(o);
                            self.expand_subject(s, star, subject, row, depth + 1, out);
                            row.pop();
                        }
                    }
                }
            }
        }
    }

    /// If variable `v` is already bound by the subject or an earlier star
    /// column, returns its index in the row being built.
    fn var_column_before(
        &self,
        v: &str,
        subject: &TermPattern,
        star: &[(TermId, &TermPattern)],
        depth: usize,
    ) -> Option<usize> {
        let mut idx = 0;
        if let Some(sv) = subject.as_var() {
            if sv == v {
                return Some(0);
            }
            idx += 1;
        }
        for (_, obj) in &star[..depth] {
            if let Some(ov) = obj.as_var() {
                if ov == v {
                    return Some(idx);
                }
                idx += 1;
            }
        }
        None
    }
}

/// Groups BGP patterns into star groups by subject pattern, preserving
/// first-occurrence order. Patterns with unbound predicates go into
/// `fallback`.
fn star_groups(
    bgp: &[TriplePattern],
) -> (
    Vec<(&TermPattern, Vec<&TriplePattern>)>,
    Vec<&TriplePattern>,
) {
    let mut groups: Vec<(&TermPattern, Vec<&TriplePattern>)> = Vec::new();
    let mut fallback = Vec::new();
    for tp in bgp {
        if tp.p.is_var() {
            fallback.push(tp);
            continue;
        }
        match groups.iter_mut().find(|(s, _)| *s == &tp.s) {
            Some((_, members)) => members.push(tp),
            None => groups.push((&tp.s, vec![tp])),
        }
    }
    (groups, fallback)
}

impl BgpEvaluator for PropertyTableEngine {
    fn dict(&self) -> &Dictionary {
        &self.dict
    }

    fn eval_bgp(
        &self,
        bgp: &[TriplePattern],
        ctx: &mut ExecContext<'_>,
    ) -> Result<Table, CoreError> {
        let (groups, fallback) = star_groups(bgp);

        let mut parts: Vec<Table> = Vec::new();
        for (subject, members) in &groups {
            // Unknown predicate ⇒ empty group ⇒ empty BGP result.
            let mut star: Vec<(TermId, &TermPattern)> = Vec::with_capacity(members.len());
            let mut known = true;
            for tp in members {
                let term =
                    tp.p.as_term()
                        .expect("grouped patterns have bound predicates");
                match self.dict.id(term) {
                    Some(p) => star.push((p, &tp.o)),
                    None => {
                        known = false;
                        break;
                    }
                }
            }
            if !known {
                return Ok(super::empty_bgp_table(bgp));
            }
            parts.push(self.eval_star(subject, &star, ctx)?);
        }
        for tp in fallback {
            parts.push(scan_pattern(
                &self.tt,
                &[(0, &tp.s), (1, &tp.p), (2, &tp.o)],
                &self.dict,
            ));
        }

        // Join groups smallest-first among those sharing a variable with
        // the accumulated result (Sempala joins its triple groups; avoiding
        // cross joins between disconnected groups keeps linear chains from
        // exploding).
        let mut remaining = parts;
        let start = remaining
            .iter()
            .enumerate()
            .min_by_key(|(_, t)| t.num_rows())
            .map(|(i, _)| i)
            .expect("non-empty BGP has at least one group");
        let mut result = remaining.swap_remove(start);
        while !remaining.is_empty() {
            ctx.check_deadline()?;
            let connected = |t: &Table| {
                t.schema()
                    .names()
                    .iter()
                    .any(|c| result.schema().contains(c))
            };
            let next = remaining
                .iter()
                .enumerate()
                .filter(|(_, t)| connected(t))
                .min_by_key(|(_, t)| t.num_rows())
                .map(|(i, _)| i)
                // Forced cross join only when nothing connects.
                .unwrap_or_else(|| {
                    remaining
                        .iter()
                        .enumerate()
                        .min_by_key(|(_, t)| t.num_rows())
                        .map(|(i, _)| i)
                        .unwrap()
                });
            let part = remaining.swap_remove(next);
            let span = ctx.span_open("join");
            let joined = natural_join_adaptive(&result, &part, &ctx.options.join).0;
            ctx.span_close(
                span,
                format!(
                    "build={} probe={}",
                    result.num_rows().min(part.num_rows()),
                    result.num_rows().max(part.num_rows())
                ),
                Some(joined.num_rows()),
            );
            ctx.note_join(result.num_rows(), part.num_rows(), joined.num_rows())?;
            result = joined;
        }
        Ok(result)
    }
}

impl SparqlEngine for PropertyTableEngine {
    fn name(&self) -> String {
        "PropertyTable (Sempala-sim)".to_string()
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
    fn star_answered_without_joins() {
        let e = PropertyTableEngine::new(&g1());
        // The first star group of the paper's Fig. 7 mapping: ?x likes ?w
        // and ?x follows ?y, no join needed.
        let (s, explain) = e
            .query_opt(
                "SELECT * WHERE { ?x <likes> ?w . ?x <follows> ?y }",
                &Default::default(),
            )
            .unwrap();
        // A: 2 likes × 1 follows; C: 1 likes × 1 follows.
        assert_eq!(s.len(), 3);
        assert_eq!(explain.naive_join_comparisons, 0);
    }

    #[test]
    fn q1_matches_paper() {
        let e = PropertyTableEngine::new(&g1());
        let s = e
            .query(
                "SELECT * WHERE { ?x <likes> ?w . ?x <follows> ?y .
                                  ?y <follows> ?z . ?z <likes> ?w }",
            )
            .unwrap();
        assert_eq!(s.len(), 1);
        assert_eq!(s.binding(0, "w"), Some(&Term::iri("I2")));
    }

    #[test]
    fn bound_subject_star() {
        let e = PropertyTableEngine::new(&g1());
        let s = e
            .query("SELECT ?w WHERE { <A> <likes> ?w . <A> <follows> ?y }")
            .unwrap();
        assert_eq!(s.len(), 2);
    }

    #[test]
    fn repeated_object_variable() {
        let e = PropertyTableEngine::new(&g1());
        // ?x likes ?w twice is the identity; with different predicates the
        // shared variable constrains.
        let s = e
            .query("SELECT * WHERE { ?x <follows> ?w . ?x <likes> ?w }")
            .unwrap();
        assert!(s.is_empty()); // nobody follows what they like in G1
    }

    #[test]
    fn var_predicate_falls_back_to_tt() {
        let e = PropertyTableEngine::new(&g1());
        let s = e.query("SELECT DISTINCT ?p WHERE { ?x ?p ?o }").unwrap();
        assert_eq!(s.len(), 2);
    }

    #[test]
    fn unknown_predicate_empty() {
        let e = PropertyTableEngine::new(&g1());
        let s = e.query("SELECT * WHERE { ?x <ghost> ?y }").unwrap();
        assert!(s.is_empty());
    }
}
