//! Query engines: S2RDF itself plus the baseline and competitor-style
//! engines used in the paper's evaluation (§7).
//!
//! | Engine | Stands in for | Mechanism |
//! |---|---|---|
//! | [`s2rdf::S2rdfEngine`] (ExtVP) | S2RDF | statistics-driven ExtVP selection + parallel hash joins |
//! | [`s2rdf::S2rdfEngine`] (VP mode) | S2RDF VP | plain vertical partitioning |
//! | [`triples_table::TriplesTableEngine`] | naive triples-table SQL (§4.1) | full-table scans per pattern |
//! | [`property_table::PropertyTableEngine`] | Sempala | star-shaped groups answered without joins from a property table |
//! | [`batch::BatchEngine`] | SHARD / PigSPARQL | left-deep disk-materialized jobs with per-job startup latency |
//! | [`adaptive::AdaptiveEngine`] | H2RDF+ | statistics-driven choice between centralized and batch execution |
//! | [`centralized::CentralizedEngine`] | Virtuoso / RDF-3X | single-threaded six-permutation sorted indexes, index-nested-loop joins |

pub mod adaptive;
pub mod batch;
pub mod centralized;
pub mod property_table;
pub mod s2rdf;
pub mod triples_table;

use rustc_hash::FxHashSet;
use s2rdf_columnar::{Schema, Table};
use s2rdf_model::{Dictionary, Term, Triple};
use s2rdf_sparql::{GraphPattern, QueryForm, Selection, TermPattern, TriplePattern};

use crate::error::CoreError;
use crate::exec::{
    eval_query, eval_query_table, BgpEvaluator, ExecContext, Explain, QueryOptions, Solutions,
};

/// The result of a SPARQL query, shaped by its query form.
#[derive(Debug, Clone, PartialEq)]
pub enum QueryResult {
    /// `SELECT`: a solution sequence.
    Solutions(Solutions),
    /// `ASK`: whether the pattern has at least one solution.
    Bool(bool),
    /// `CONSTRUCT`/`DESCRIBE`: a deduplicated set of triples.
    Graph(Vec<Triple>),
}

/// The common engine interface: parse + evaluate a SPARQL query.
pub trait SparqlEngine {
    /// Engine name for reports ("S2RDF ExtVP", "Sempala-sim", …).
    fn name(&self) -> String;

    /// Runs a query with options, returning solutions and the execution
    /// trace. Errors with [`CoreError::Unsupported`] on non-`SELECT` forms;
    /// use [`SparqlEngine::query_result_opt`] for those.
    fn query_opt(
        &self,
        sparql: &str,
        options: &QueryOptions,
    ) -> Result<(Solutions, Explain), CoreError>;

    /// Runs a query of any form (`SELECT`/`ASK`/`CONSTRUCT`/`DESCRIBE`)
    /// with options, returning the form-shaped result and the trace.
    fn query_result_opt(
        &self,
        sparql: &str,
        options: &QueryOptions,
    ) -> Result<(QueryResult, Explain), CoreError>;

    /// Runs a query with default options.
    fn query(&self, sparql: &str) -> Result<Solutions, CoreError> {
        self.query_opt(sparql, &QueryOptions::default())
            .map(|(s, _)| s)
    }

    /// Runs a query of any form with default options.
    fn query_result(&self, sparql: &str) -> Result<QueryResult, CoreError> {
        self.query_result_opt(sparql, &QueryOptions::default())
            .map(|(r, _)| r)
    }
}

/// Shared `SELECT` driver: every engine is a [`BgpEvaluator`]; this parses
/// the query and runs the algebra evaluator on top of it.
pub(crate) fn run_query(
    ev: &dyn BgpEvaluator,
    sparql: &str,
    options: &QueryOptions,
) -> Result<(Solutions, Explain), CoreError> {
    let (result, explain) = run_query_result(ev, sparql, options)?;
    match result {
        QueryResult::Solutions(s) => Ok((s, explain)),
        _ => Err(CoreError::Unsupported(
            "ASK/CONSTRUCT/DESCRIBE queries return no solution sequence; use query_result".into(),
        )),
    }
}

/// Shared driver for every query form.
pub(crate) fn run_query_result(
    ev: &dyn BgpEvaluator,
    sparql: &str,
    options: &QueryOptions,
) -> Result<(QueryResult, Explain), CoreError> {
    let query = s2rdf_sparql::parse_query(sparql)?;
    let pool = s2rdf_columnar::pool::current();
    let before = pool.stats();
    let mut ctx = ExecContext::new(ev.dict(), *options);
    let span = ctx.span_open("query");
    // ASK, CONSTRUCT and DESCRIBE consume the `SELECT *` id table over the
    // same pattern and modifiers; only SELECT decodes a solution sequence.
    let result = match &query.form {
        QueryForm::Select => QueryResult::Solutions(eval_query(ev, &query, &mut ctx)?),
        QueryForm::Ask => {
            // Modifiers cannot change emptiness except LIMIT 0 or an
            // OFFSET past the end, which the id table's slice honours.
            let table = eval_query_table(ev, &as_select_all(&query), &mut ctx)?;
            QueryResult::Bool(table.num_rows() > 0)
        }
        QueryForm::Construct(template) => {
            let table = eval_query_table(ev, &as_select_all(&query), &mut ctx)?;
            QueryResult::Graph(instantiate_template(template, &table, &ctx))
        }
        QueryForm::Describe(targets) => {
            let table = if targets.iter().any(|t| matches!(t, TermPattern::Var(_))) {
                Some(eval_query_table(ev, &as_select_all(&query), &mut ctx)?)
            } else {
                None
            };
            QueryResult::Graph(describe_terms(ev, targets, table.as_ref(), &mut ctx)?)
        }
    };
    let out_rows = match &result {
        QueryResult::Solutions(s) => s.len(),
        QueryResult::Bool(_) => 1,
        QueryResult::Graph(g) => g.len(),
    };
    ctx.span_close(span, String::new(), Some(out_rows));
    // Attribute the pool's activity delta to this query — every engine's
    // joins and pipelines submit morsels to the same shared pool.
    let after = pool.stats();
    ctx.explain.pool = Some(crate::exec::PoolExplain {
        workers: after.workers,
        tasks: after.tasks.saturating_sub(before.tasks),
        steals: after.steals.saturating_sub(before.steals),
        max_queue_depth: after.max_queue_depth,
        busy_micros: after
            .busy_micros
            .iter()
            .zip(&before.busy_micros)
            .map(|(a, b)| a.saturating_sub(*b))
            .collect(),
    });
    Ok((result, ctx.explain))
}

/// Reshapes an ASK/CONSTRUCT/DESCRIBE query into the `SELECT *` over the
/// same pattern and modifiers, so the shared evaluator produces the binding
/// table the form consumes.
fn as_select_all(query: &s2rdf_sparql::Query) -> s2rdf_sparql::Query {
    let mut q = query.clone();
    q.form = QueryForm::Select;
    q.selection = Selection::All;
    q.distinct = false;
    q
}

/// A template position resolved against the solution table once per
/// query: a constant term, a column index, or a variable the table does
/// not bind.
enum Slot<'t> {
    Term(&'t Term),
    Column(usize),
    Unbound,
}

fn slot<'t>(p: &'t TermPattern, table: &Table) -> Slot<'t> {
    match p {
        TermPattern::Term(t) => Slot::Term(t),
        TermPattern::Var(v) => table
            .schema()
            .index_of(v)
            .map_or(Slot::Unbound, Slot::Column),
    }
}

/// Instantiates a CONSTRUCT template once per solution row; triples with
/// an unbound or missing variable are skipped (SPARQL §16.2), duplicates
/// are eliminated.
fn instantiate_template(
    template: &[TriplePattern],
    table: &Table,
    ctx: &ExecContext<'_>,
) -> Vec<Triple> {
    let slots: Vec<[Slot<'_>; 3]> = template
        .iter()
        .map(|tp| [slot(&tp.s, table), slot(&tp.p, table), slot(&tp.o, table)])
        .collect();
    let mut triples = Vec::new();
    let mut seen: FxHashSet<Triple> = FxHashSet::default();
    for row in 0..table.num_rows() {
        for [s, p, o] in &slots {
            let resolve = |slot: &Slot<'_>| -> Option<Term> {
                match *slot {
                    Slot::Term(t) => Some(t.clone()),
                    Slot::Column(c) => ctx.term_of(table.value(row, c)).cloned(),
                    Slot::Unbound => None,
                }
            };
            if let (Some(s), Some(p), Some(o)) = (resolve(s), resolve(p), resolve(o)) {
                let triple = Triple::new(s, p, o);
                if seen.insert(triple.clone()) {
                    triples.push(triple);
                }
            }
        }
    }
    triples
}

/// DESCRIBE: for every target term (IRI targets directly, variable targets
/// via their bindings in the pattern's solution table), emit all triples
/// where the term appears as subject or object.
fn describe_terms(
    ev: &dyn BgpEvaluator,
    targets: &[TermPattern],
    table: Option<&Table>,
    ctx: &mut ExecContext<'_>,
) -> Result<Vec<Triple>, CoreError> {
    let mut terms: Vec<Term> = Vec::new();
    let mut seen_terms: FxHashSet<Term> = FxHashSet::default();
    for target in targets {
        match target {
            TermPattern::Term(t) => {
                if seen_terms.insert(t.clone()) {
                    terms.push(t.clone());
                }
            }
            TermPattern::Var(v) => {
                let column = table.and_then(|t| Some(t.column(t.schema().index_of(v)?)));
                for &id in column.unwrap_or_default() {
                    if let Some(t) = ctx.term_of(id) {
                        if seen_terms.insert(t.clone()) {
                            terms.push(t.clone());
                        }
                    }
                }
            }
        }
    }
    let mut triples = Vec::new();
    let mut seen: FxHashSet<Triple> = FxHashSet::default();
    for term in terms {
        // Triples with the term as subject, then as object. `#`-prefixed
        // variable names keep these probes out of user-visible schemas.
        for as_subject in [true, false] {
            let (s, o) = if as_subject {
                (
                    TermPattern::Term(term.clone()),
                    TermPattern::Var("#do".to_string()),
                )
            } else {
                (
                    TermPattern::Var("#ds".to_string()),
                    TermPattern::Term(term.clone()),
                )
            };
            let tp = TriplePattern::new(s, TermPattern::Var("#dp".to_string()), o);
            let table = ev.eval_bgp(&[tp], ctx)?;
            let pi = table.schema().index_of("#dp").expect("predicate column");
            let vi = table
                .schema()
                .index_of(if as_subject { "#do" } else { "#ds" })
                .expect("endpoint column");
            for row in 0..table.num_rows() {
                let (Some(p), Some(v)) = (
                    ctx.term_of(table.value(row, pi)),
                    ctx.term_of(table.value(row, vi)),
                ) else {
                    continue;
                };
                let triple = if as_subject {
                    Triple::new(term.clone(), p.clone(), v.clone())
                } else {
                    Triple::new(v.clone(), p.clone(), term.clone())
                };
                if seen.insert(triple.clone()) {
                    triples.push(triple);
                }
            }
        }
    }
    Ok(triples)
}

/// An empty solution table with one column per BGP variable (used when
/// statistics prove emptiness).
pub(crate) fn empty_bgp_table(bgp: &[TriplePattern]) -> Table {
    let vars = GraphPattern::Bgp(bgp.to_vec()).vars();
    Table::empty(Schema::new(vars))
}

/// Evaluates one triple pattern against a physical table.
///
/// `cols` maps physical column indices to the pattern positions they hold
/// (e.g. `[(0, s), (1, o)]` for a VP table, `[(0, s), (1, p), (2, o)]` for
/// the triples table). Implements the paper's Algorithm 2: bound terms
/// become selections, variables become projections-with-rename; a repeated
/// variable adds a column-equality selection.
///
/// Since the morsel-driven executor PR this is a **fused** scan: every
/// selection (all bound constants plus repeated-variable equalities) folds
/// into one bitmap via the vectorized kernels, and only the *projected*
/// columns are gathered, once, at the end — late materialization instead of
/// one intermediate table per `select_eq`. Used by every engine.
pub(crate) fn scan_pattern(
    table: &Table,
    cols: &[(usize, &TermPattern)],
    dict: &Dictionary,
) -> Table {
    use s2rdf_columnar::ops::kernels;
    use s2rdf_columnar::Bitmap;

    // Resolve bound terms to dictionary ids (unknown term → empty scan).
    let mut bounds: Vec<(usize, u32)> = Vec::new();
    for &(col, pat) in cols {
        if let Some(term) = pat.as_term() {
            let Some(id) = dict.id(term) else {
                return Table::empty(scan_schema(cols));
            };
            bounds.push((col, id.0));
        }
    }

    // Variable projections; repeated variables become equality selections.
    let mut proj: Vec<(usize, &str)> = Vec::new();
    let mut eq_pairs: Vec<(usize, usize)> = Vec::new();
    for &(col, pat) in cols {
        if let Some(var) = pat.as_var() {
            match proj.iter().find(|(_, v)| *v == var) {
                Some(&(first_col, _)) => eq_pairs.push((first_col, col)),
                None => proj.push((col, var)),
            }
        }
    }

    // Fold every selection into one filter bitmap over the base table —
    // no intermediate table per predicate.
    let selection: Option<Bitmap> = if bounds.is_empty() && eq_pairs.is_empty() {
        None
    } else {
        let mut bm = match bounds.split_first() {
            Some((&(c, v), rest)) => {
                let mut bm = kernels::eq_const(table.column(c), v);
                for &(c, v) in rest {
                    kernels::and_eq_const(&mut bm, table.column(c), v);
                }
                bm
            }
            None => Bitmap::full(table.num_rows()),
        };
        for &(a, b) in &eq_pairs {
            kernels::and_eq_cols(&mut bm, table.column(a), table.column(b));
        }
        Some(bm)
    };
    let out_rows = selection
        .as_ref()
        .map_or(table.num_rows(), Bitmap::count_ones);

    if proj.is_empty() {
        // Fully bound pattern: solutions bind nothing, but their count
        // matters. Zero-column tables cannot carry a row count, so emit the
        // unit column instead — without ever materializing the selection.
        return Table::from_columns(
            Schema::new([crate::exec::pattern::UNIT_COL]),
            vec![vec![0; out_rows]],
        );
    }
    // Late materialization: gather only the projected columns, once.
    let schema = Schema::new(proj.iter().map(|(_, v)| v.to_string()));
    let cols_out: Vec<Vec<u32>> = proj
        .iter()
        .map(|&(c, _)| match &selection {
            Some(bm) => kernels::gather_column(table.column(c), bm),
            None => table.column(c).to_vec(),
        })
        .collect();
    Table::from_columns(schema, cols_out)
}

/// [`scan_pattern`] over a chunked compressed table, with zone-map pruning:
/// chunks whose min/max range cannot contain a bound constant (or overlap a
/// sideways semi-join filter passed from the other side of an upcoming
/// join) are skipped *before decode*; survivors decode straight into the
/// same 64-row bitmap kernels, preserving late materialization.
///
/// `sideways` names a variable of this pattern plus the filter built from
/// the already-evaluated join side; a variable the pattern doesn't bind is
/// ignored (filter applicability is the caller's heuristic, correctness is
/// local). Returns `None` for non-chunked (legacy v2) bodies, where the
/// caller should fall back to the materialized path.
pub(crate) fn scan_pattern_pruned(
    ct: &s2rdf_columnar::CompressedTable,
    cols: &[(usize, &TermPattern)],
    dict: &Dictionary,
    sideways: Option<(&str, &s2rdf_columnar::SidewaysFilter)>,
) -> Option<Result<Table, CoreError>> {
    if !ct.is_chunked() {
        return None;
    }

    // Resolve bound terms to dictionary ids (unknown term → empty scan).
    let mut bounds: Vec<(usize, u32)> = Vec::new();
    for &(col, pat) in cols {
        if let Some(term) = pat.as_term() {
            let Some(id) = dict.id(term) else {
                return Some(Ok(Table::empty(scan_schema(cols))));
            };
            bounds.push((col, id.0));
        }
    }

    // Variable projections; repeated variables become equality selections.
    let mut proj: Vec<(usize, &str)> = Vec::new();
    let mut eq_pairs: Vec<(usize, usize)> = Vec::new();
    for &(col, pat) in cols {
        if let Some(var) = pat.as_var() {
            match proj.iter().find(|(_, v)| *v == var) {
                Some(&(first_col, _)) => eq_pairs.push((first_col, col)),
                None => proj.push((col, var)),
            }
        }
    }
    let sw =
        sideways.and_then(|(var, f)| proj.iter().find(|&&(_, v)| v == var).map(|&(c, _)| (c, f)));

    let proj_cols: Vec<usize> = proj.iter().map(|&(c, _)| c).collect();
    let (cols_out, out_rows, _stats) =
        match s2rdf_columnar::chunk::scan_chunks(ct, &bounds, &eq_pairs, &proj_cols, sw) {
            Ok(r) => r,
            Err(e) => return Some(Err(e.into())),
        };

    if proj.is_empty() {
        return Some(Ok(Table::from_columns(
            Schema::new([crate::exec::pattern::UNIT_COL]),
            vec![vec![0; out_rows]],
        )));
    }
    let schema = Schema::new(proj.iter().map(|(_, v)| v.to_string()));
    Some(Ok(Table::from_columns(schema, cols_out)))
}

fn scan_schema(cols: &[(usize, &TermPattern)]) -> Schema {
    let mut names: Vec<String> = Vec::new();
    for &(_, pat) in cols {
        if let Some(v) = pat.as_var() {
            if !names.iter().any(|n| n == v) {
                names.push(v.to_string());
            }
        }
    }
    if names.is_empty() {
        names.push(crate::exec::pattern::UNIT_COL.to_string());
    }
    Schema::new(names)
}

#[cfg(test)]
mod tests {
    use super::*;
    use s2rdf_model::Term;

    fn dict_with(terms: &[&str]) -> Dictionary {
        let mut d = Dictionary::new();
        for t in terms {
            d.intern(&Term::iri(*t));
        }
        d
    }

    #[test]
    fn scan_projects_variables() {
        let dict = dict_with(&["a", "b", "c"]);
        let table = Table::from_rows(Schema::new(["s", "o"]), &[[0, 1], [1, 2]]);
        let s_var = TermPattern::Var("x".into());
        let o_var = TermPattern::Var("y".into());
        let out = scan_pattern(&table, &[(0, &s_var), (1, &o_var)], &dict);
        assert_eq!(out.schema().names()[0].as_ref(), "x");
        assert_eq!(out.num_rows(), 2);
    }

    #[test]
    fn scan_selects_bound_terms() {
        let dict = dict_with(&["a", "b", "c"]);
        let table = Table::from_rows(Schema::new(["s", "o"]), &[[0, 1], [1, 2]]);
        let bound = TermPattern::Term(Term::iri("b"));
        let o_var = TermPattern::Var("y".into());
        let out = scan_pattern(&table, &[(0, &bound), (1, &o_var)], &dict);
        assert_eq!(out.num_rows(), 1);
        assert_eq!(out.value(0, 0), 2);
        assert_eq!(out.schema().len(), 1); // bound position not projected
    }

    #[test]
    fn scan_unknown_constant_is_empty() {
        let dict = dict_with(&["a"]);
        let table = Table::from_rows(Schema::new(["s", "o"]), &[[0, 0]]);
        let bound = TermPattern::Term(Term::iri("ghost"));
        let o_var = TermPattern::Var("y".into());
        let out = scan_pattern(&table, &[(0, &bound), (1, &o_var)], &dict);
        assert!(out.is_empty());
        assert!(out.schema().contains("y"));
    }

    #[test]
    fn scan_repeated_variable_enforces_equality() {
        let dict = dict_with(&["a", "b"]);
        let table = Table::from_rows(Schema::new(["s", "o"]), &[[0, 0], [0, 1]]);
        let v = TermPattern::Var("x".into());
        let out = scan_pattern(&table, &[(0, &v), (1, &v)], &dict);
        assert_eq!(out.num_rows(), 1);
        assert_eq!(out.schema().len(), 1);
        assert_eq!(out.value(0, 0), 0);
    }

    fn forms_store() -> crate::S2rdfStore {
        let t = |s: &str, p: &str, o: &str| Triple::new(Term::iri(s), Term::iri(p), Term::iri(o));
        crate::S2rdfStore::build(
            &s2rdf_model::Graph::from_triples([
                t("A", "follows", "B"),
                t("A", "follows", "C"),
                t("B", "likes", "I1"),
            ]),
            &crate::BuildOptions::default(),
        )
    }

    #[test]
    fn ask_answers_from_the_id_table() {
        let store = forms_store();
        let ask = |q: &str| store.query_result(q).unwrap();
        assert_eq!(ask("ASK { ?x <follows> ?y }"), QueryResult::Bool(true));
        assert_eq!(ask("ASK { ?x <follows> <A> }"), QueryResult::Bool(false));
        assert_eq!(
            ask("ASK { ?x <follows> ?y } LIMIT 0"),
            QueryResult::Bool(false)
        );
        assert_eq!(
            ask("ASK { ?x <follows> ?y } OFFSET 1"),
            QueryResult::Bool(true)
        );
        assert_eq!(
            ask("ASK { ?x <follows> ?y } OFFSET 2"),
            QueryResult::Bool(false)
        );
        assert!(matches!(
            store.query_result("ASK { ?x <follows> ?y } GROUP BY ?x"),
            Err(CoreError::Unsupported(_))
        ));
    }

    #[test]
    fn construct_resolves_template_columns() {
        let store = forms_store();
        let r = store
            .query_result(
                "CONSTRUCT { ?y <followedBy> ?x . ?x <is> <Person> . ?x <knows> ?nope }
                 WHERE { ?x <follows> ?y }",
            )
            .unwrap();
        let QueryResult::Graph(mut triples) = r else {
            panic!("CONSTRUCT returns a graph, got {r:?}");
        };
        triples.sort_by_key(|t| t.to_string());
        let rendered: Vec<String> = triples.iter().map(Triple::to_string).collect();
        // ?nope is not bound by the pattern, so its template triple is
        // skipped; both rows bind ?x to <A>, so <A> <is> <Person> is
        // deduplicated.
        assert_eq!(
            rendered,
            [
                "<A> <is> <Person> .",
                "<B> <followedBy> <A> .",
                "<C> <followedBy> <A> .",
            ]
        );
    }

    /// The baseline engines join through the caller's `QueryOptions.join`:
    /// with one-row morsels the probe is cut into several morsels (a
    /// broadcast join), and the answer is the one default options give.
    #[test]
    fn baseline_engines_honour_join_options() {
        use s2rdf_columnar::exec::JoinConfig;
        use s2rdf_columnar::metrics;

        let t = |s: &str, p: &str, o: &str| Triple::new(Term::iri(s), Term::iri(p), Term::iri(o));
        let graph = s2rdf_model::Graph::from_triples([
            t("A", "follows", "B"),
            t("B", "follows", "C"),
            t("C", "likes", "I1"),
            t("C", "likes", "I2"),
        ]);
        let engines: [Box<dyn SparqlEngine>; 2] = [
            Box::new(triples_table::TriplesTableEngine::new(&graph)),
            Box::new(property_table::PropertyTableEngine::new(&graph)),
        ];
        let forced = QueryOptions {
            join: JoinConfig { morsel_rows: 1 },
            ..QueryOptions::default()
        };
        let q = "SELECT * WHERE { ?x <follows> ?y . ?y <likes> ?z }";
        let _guard = metrics::test_lock();
        let broadcasts = metrics::counter("columnar.join.broadcast_joins");
        for engine in &engines {
            let want = engine.query(q).unwrap().canonical();
            assert_eq!(want.len(), 2, "{}", engine.name());
            metrics::set_enabled(true);
            let before = broadcasts.get();
            let (got, _) = engine.query_opt(q, &forced).unwrap();
            metrics::set_enabled(false);
            assert!(
                broadcasts.get() > before,
                "{} ignored the join options",
                engine.name()
            );
            assert_eq!(got.canonical(), want, "{}", engine.name());
        }
    }
}
