//! The S2RDF engine: ExtVP-aware BGP evaluation (paper §6).

use rustc_hash::{FxHashMap, FxHashSet};
use s2rdf_columnar::exec::{natural_join_adaptive, BuildSide, JoinDecision};
use s2rdf_columnar::{ops, SidewaysFilter, Table};
use s2rdf_model::{Dictionary, TermId};
use s2rdf_sparql::{TermPattern, TriplePattern};

use crate::catalog::ExtVpKey;
use crate::compiler::bgp::{compile_bgp, CompileOptions};
use crate::compiler::cost::{self, CostModel};
use crate::compiler::{TableSource, TpPlan};
use crate::error::CoreError;
use crate::exec::{
    BgpEvaluator, DegradedStep, ExecContext, Explain, QueryOptions, ReplanExplain, Solutions,
    StepExplain,
};
use crate::layout::{extvp_table_name, vp_table_name, TT_NAME};
use crate::store::S2rdfStore;

use super::{
    empty_bgp_table, run_query, run_query_result, scan_pattern, scan_pattern_pruned, QueryResult,
    SparqlEngine,
};

/// The S2RDF query engine over a built store.
///
/// With `use_extvp = true` it compiles BGPs against the ExtVP statistics
/// (Algorithms 1–4); with `false` it restricts table selection to VP — the
/// paper's "S2RDF VP" configuration used throughout §7.1's comparison.
#[derive(Debug, Clone, Copy)]
pub struct S2rdfEngine<'a> {
    store: &'a S2rdfStore,
    use_extvp: bool,
}

impl<'a> S2rdfEngine<'a> {
    /// Creates an engine over a store.
    pub fn new(store: &'a S2rdfStore, use_extvp: bool) -> S2rdfEngine<'a> {
        S2rdfEngine { store, use_extvp }
    }

    /// Whether this engine uses ExtVP candidates.
    pub fn uses_extvp(&self) -> bool {
        self.use_extvp
    }

    /// Executes one scan step. Returns the scanned table plus, when the
    /// scan is a *pure rename* of a stored table (every pattern position a
    /// distinct variable, no bound constants, no correlation
    /// intersection), the stored table's name: successive scans of the
    /// same source are then row-identical, so `eval_bgp` can reuse a join
    /// hash index built over one of them for the others.
    fn exec_step(
        &self,
        step: &TpPlan,
        ctx: &mut ExecContext<'_>,
        sideways: Option<(&str, &SidewaysFilter)>,
    ) -> Result<(Table, Option<String>), CoreError> {
        let dict = self.store.dict();
        let started = std::time::Instant::now();
        let span = ctx.span_open("scan");
        let intersected = ctx.options.intersect_correlations && !step.extra_reducers.is_empty();
        // Zone-map pruned fast path: for VP/ExtVP steps with a bound
        // constant (or an applicable sideways semi-join filter) over a
        // chunked on-disk body, scan the compressed form directly,
        // skipping whole chunks before decode. Falls through to the
        // materialized path in every other case.
        let pruned = if intersected {
            None
        } else {
            self.pruned_scan(step, sideways)?
        };
        let (out, name, sf, rationale, source) = match step.source {
            _ if pruned.is_some() => {
                let out = pruned.expect("guard checked");
                let (name, rationale) = match step.source {
                    TableSource::Vp(p) => (
                        vp_table_name(dict, p),
                        "VP: zone-map pruned chunk scan".to_string(),
                    ),
                    TableSource::ExtVp(key) => (
                        extvp_table_name(dict, &key),
                        format!(
                            "ExtVP (SF {:.3} ≤ threshold): zone-map pruned chunk scan",
                            step.sf
                        ),
                    ),
                    _ => unreachable!("pruned scans only serve VP/ExtVP sources"),
                };
                (out, name, step.sf, rationale, None)
            }
            TableSource::TriplesTable => {
                let cols = [(0, &step.tp.s), (1, &step.tp.p), (2, &step.tp.o)];
                let out = scan_pattern(&*self.store.triples_table()?, &cols, dict);
                let source = (!intersected && distinct_vars(&cols)).then(|| TT_NAME.to_string());
                let rationale = "triples table: predicate unbound, no VP candidate".to_string();
                (out, TT_NAME.to_string(), step.sf, rationale, source)
            }
            TableSource::Vp(p) => {
                let name = vp_table_name(dict, p);
                let table = self.store.try_vp_table(p)?.ok_or_else(|| {
                    CoreError::Catalog(format!(
                        "VP table {name} missing though the compiler selected it"
                    ))
                })?;
                let table = self.apply_intersection(table, step, ctx);
                let cols = [(0, &step.tp.s), (1, &step.tp.o)];
                let out = scan_pattern(&table, &cols, dict);
                let source = (!intersected && distinct_vars(&cols)).then(|| name.clone());
                let rationale = if self.use_extvp {
                    "VP: no ExtVP reduction under threshold for this pattern".to_string()
                } else {
                    "VP: ExtVP disabled for this engine".to_string()
                };
                (out, name, step.sf, rationale, source)
            }
            TableSource::ExtVp(key) => {
                let planned = extvp_table_name(dict, &key);
                match self.load_extvp_with_retry(&key, &planned, ctx) {
                    Ok(table) => {
                        let table = self.apply_intersection(table, step, ctx);
                        let cols = [(0, &step.tp.s), (1, &step.tp.o)];
                        let out = scan_pattern(&table, &cols, dict);
                        let source =
                            (!intersected && distinct_vars(&cols)).then(|| planned.clone());
                        let rationale = format!(
                            "ExtVP: most selective correlation (SF {:.3} ≤ threshold)",
                            step.sf
                        );
                        (out, planned, step.sf, rationale, source)
                    }
                    Err((attempts, reason)) => {
                        // Degraded execution: every ExtVP partition is a
                        // subset of its VP table that contains all rows
                        // which can survive the join, so scanning the VP
                        // table instead changes cost, never results (the
                        // shared-memory analogue of Spark recomputing a
                        // lost partition from lineage).
                        let p1 = TermId(key.p1);
                        let fallback = vp_table_name(dict, p1);
                        let table = self.store.try_vp_table(p1)?.ok_or_else(|| {
                            CoreError::Catalog(format!(
                                "VP table {fallback} missing; cannot degrade {planned}"
                            ))
                        })?;
                        ctx.explain.degraded_steps.push(DegradedStep {
                            planned: planned.clone(),
                            fallback: fallback.clone(),
                            reason,
                            attempts,
                        });
                        let table = self.apply_intersection(table, step, ctx);
                        let cols = [(0, &step.tp.s), (1, &step.tp.o)];
                        let out = scan_pattern(&table, &cols, dict);
                        let source =
                            (!intersected && distinct_vars(&cols)).then(|| fallback.clone());
                        let rationale =
                            format!("degraded: {planned} unavailable, VP base table used");
                        (
                            out,
                            format!("{fallback} (degraded)"),
                            1.0,
                            rationale,
                            source,
                        )
                    }
                }
            }
            TableSource::Empty => unreachable!("empty plans short-circuit earlier"),
        };
        let table_label = if intersected {
            format!("{name} ∩ {} reducers", step.extra_reducers.len())
        } else {
            name
        };
        ctx.span_close(
            span,
            format!("{table_label}: {rationale}"),
            Some(out.num_rows()),
        );
        ctx.explain.bgp_steps.push(StepExplain {
            table: table_label,
            rows: out.num_rows(),
            sf,
            wall_micros: started.elapsed().as_micros() as u64,
            rationale,
            est_rows: self
                .store
                .zone_estimated_rows(&step.source, &step.tp)
                .unwrap_or_else(|| self.store.estimated_rows(&step.source)),
        });
        Ok((out, source))
    }

    /// The zone-map-pruned scan for one step, or `None` to use the
    /// materialized path. Engaged only when pruning can pay — the pattern
    /// binds a constant, or a sideways filter targets one of its
    /// variables — over a chunked on-disk VP/ExtVP body, with no fault
    /// injector attached (the injector's deterministic op counting is
    /// calibrated to the materialized path). Decode errors also fall back:
    /// the materialized path re-reads and runs the full retry/degradation
    /// machinery.
    fn pruned_scan(
        &self,
        step: &TpPlan,
        sideways: Option<(&str, &SidewaysFilter)>,
    ) -> Result<Option<Table>, CoreError> {
        let cols = [(0, &step.tp.s), (1, &step.tp.o)];
        let has_bound = cols.iter().any(|(_, p)| !p.is_var());
        let sw_applies =
            sideways.is_some_and(|(var, _)| cols.iter().any(|&(_, p)| p.as_var() == Some(var)));
        if (!has_bound && !sw_applies) || !self.store.pruned_scans_enabled() {
            return Ok(None);
        }
        let ct = match step.source {
            TableSource::Vp(p) => self.store.try_vp_compressed(p)?,
            TableSource::ExtVp(key) => self.store.try_extvp_compressed(&key)?,
            TableSource::TriplesTable | TableSource::Empty => None,
        };
        let Some(ct) = ct else {
            return Ok(None);
        };
        match scan_pattern_pruned(&ct, &cols, self.store.dict(), sideways) {
            Some(Ok(out)) => Ok(Some(out)),
            Some(Err(_)) | None => Ok(None),
        }
    }

    /// The stored-table name [`S2rdfEngine::exec_step`] would expose for
    /// index reuse — computed from the plan alone, before any scan, so
    /// `eval_bgp` can count how often each source repeats. Degraded
    /// fallbacks can rename a source at runtime; the count is then merely
    /// conservative (reuse caching is a pure optimization).
    fn planned_source(&self, step: &TpPlan, ctx: &ExecContext<'_>) -> Option<String> {
        let dict = self.store.dict();
        if ctx.options.intersect_correlations && !step.extra_reducers.is_empty() {
            return None;
        }
        match step.source {
            TableSource::TriplesTable => {
                let cols = [(0, &step.tp.s), (1, &step.tp.p), (2, &step.tp.o)];
                distinct_vars(&cols).then(|| TT_NAME.to_string())
            }
            TableSource::Vp(p) => {
                let cols = [(0, &step.tp.s), (1, &step.tp.o)];
                distinct_vars(&cols).then(|| vp_table_name(dict, p))
            }
            TableSource::ExtVp(key) => {
                let cols = [(0, &step.tp.s), (1, &step.tp.o)];
                distinct_vars(&cols).then(|| extvp_table_name(dict, &key))
            }
            TableSource::Empty => None,
        }
    }

    /// Loads an ExtVP partition with bounded retries
    /// ([`QueryOptions::max_retries`], exponential backoff from
    /// [`QueryOptions::retry_backoff_ms`]). Transient failures are recorded
    /// in [`Explain::recovered_errors`]; on exhaustion (or a non-retryable
    /// miss, e.g. a quarantined partition) returns `Err((attempts,
    /// reason))` so the caller can degrade to the VP table.
    fn load_extvp_with_retry(
        &self,
        key: &ExtVpKey,
        planned: &str,
        ctx: &mut ExecContext<'_>,
    ) -> Result<std::sync::Arc<Table>, (u32, String)> {
        let max_attempts = ctx.options.max_retries.saturating_add(1);
        let mut backoff_ms = ctx.options.retry_backoff_ms;
        for attempt in 1..=max_attempts {
            match self.store.try_extvp_table(key) {
                Ok(Some(table)) => {
                    if attempt > 1 {
                        ctx.explain
                            .recovered_errors
                            .push(format!("{planned}: recovered on attempt {attempt}"));
                    }
                    return Ok(table);
                }
                Ok(None) => {
                    return Err((
                        attempt,
                        "partition not materialized or quarantined".to_string(),
                    ))
                }
                Err(e) => {
                    ctx.explain
                        .recovered_errors
                        .push(format!("{planned}: attempt {attempt} failed: {e}"));
                    if attempt < max_attempts && backoff_ms > 0 {
                        std::thread::sleep(std::time::Duration::from_millis(backoff_ms));
                        backoff_ms = backoff_ms.saturating_mul(2);
                    }
                }
            }
        }
        Err((
            max_attempts,
            format!("all {max_attempts} load attempts failed"),
        ))
    }

    /// The §8 future-work "unification" optimization: every materialized
    /// reduction applicable to the pattern is a superset of the rows that
    /// can contribute, so their intersection is a tighter input than the
    /// single best table. Computed here at query time via hash-set
    /// filtering against the chosen table.
    fn apply_intersection(
        &self,
        chosen: std::sync::Arc<Table>,
        step: &TpPlan,
        ctx: &ExecContext<'_>,
    ) -> std::sync::Arc<Table> {
        if !ctx.options.intersect_correlations || step.extra_reducers.is_empty() {
            return chosen;
        }
        let mut keep: Option<Vec<bool>> = None;
        for key in &step.extra_reducers {
            let Some(reducer) = self.store.extvp_table(key) else {
                continue;
            };
            let mut set: FxHashSet<(u32, u32)> = FxHashSet::default();
            set.reserve(reducer.num_rows());
            for row in 0..reducer.num_rows() {
                set.insert((reducer.value(row, 0), reducer.value(row, 1)));
            }
            let keep = keep.get_or_insert_with(|| vec![true; chosen.num_rows()]);
            for (row, flag) in keep.iter_mut().enumerate() {
                if *flag && !set.contains(&(chosen.value(row, 0), chosen.value(row, 1))) {
                    *flag = false;
                }
            }
        }
        match keep {
            Some(keep) if keep.iter().any(|&k| !k) => {
                let indices: Vec<usize> = keep
                    .iter()
                    .enumerate()
                    .filter_map(|(i, &k)| k.then_some(i))
                    .collect();
                std::sync::Arc::new(chosen.gather(&indices))
            }
            _ => chosen,
        }
    }
}

impl BgpEvaluator for S2rdfEngine<'_> {
    fn dict(&self) -> &Dictionary {
        self.store.dict()
    }

    fn eval_bgp(
        &self,
        bgp: &[TriplePattern],
        ctx: &mut ExecContext<'_>,
    ) -> Result<Table, CoreError> {
        let options = CompileOptions {
            use_extvp: self.use_extvp,
            optimize_join_order: ctx.options.optimize_join_order,
            dp_max_patterns: ctx.options.dp_max_patterns,
        };
        let mut plan = compile_bgp(bgp, self.store.catalog(), self.store.dict(), options);
        ctx.explain.join_order_method = plan.order_method.label().to_string();
        if plan.statically_empty {
            ctx.explain.statically_empty = true;
            return Ok(empty_bgp_table(bgp));
        }
        // Refine per-node estimates with zone-map evidence: bound-constant
        // scans over chunked on-disk bodies report the surviving-chunk row
        // sum, usually far below the catalog's whole-table count. The
        // compiler's initial order stands (estimates refine, they don't
        // re-litigate the plan); the tightened graph feeds the AQE replans
        // below, which start from observed cardinalities anyway.
        if plan.graph.len() == plan.steps.len() {
            for (i, step) in plan.steps.iter().enumerate() {
                if let Some(rows) = self.store.zone_estimated_rows(&step.source, &step.tp) {
                    plan.graph.set_node_estimate(i, rows as f64);
                }
            }
        }
        // Build-side hash indexes keyed by (stored table name, key column
        // positions). A star query scans the same VP/ExtVP table for
        // several patterns with the same join variable; the scans are pure
        // renames of the stored table, so one build pass serves them all.
        // Count each source's planned occurrences up front: a source that
        // repeats is worth building on even when the planner's
        // cardinality rule would put the build on the other (smaller)
        // side, because the cached index pays for itself on every later
        // scan. (Keying the cache on the size-preferred build side alone
        // broke reuse whenever the accumulator was smaller — e.g. a star
        // whose first pattern has a bound subject.)
        let mut source_uses: FxHashMap<String, usize> = FxHashMap::default();
        for step in &plan.steps {
            if let Some(src) = self.planned_source(step, ctx) {
                *source_uses.entry(src).or_insert(0) += 1;
            }
        }
        let mut index_cache: FxHashMap<(String, Vec<usize>), ops::BuildIndex> =
            FxHashMap::default();
        let mut result: Option<Table> = None;
        // Execution worklist over `plan.steps` indices. The compiler fixed
        // the initial order; the AQE feedback loop below may permute the
        // not-yet-executed tail when the materialized cardinality after a
        // step diverges from the planner's estimate. `prefix_est[pos]` is
        // the planner's estimate for the accumulator after executing
        // `sequence[pos]` (re-spliced on every re-plan).
        let mut sequence: Vec<usize> = (0..plan.steps.len()).collect();
        let mut prefix_est = plan.prefix_est.clone();
        let mut executed: Vec<usize> = Vec::with_capacity(plan.steps.len());
        let mut pos = 0;
        while pos < sequence.len() {
            let step_no = sequence[pos];
            let step = &plan.steps[step_no];
            ctx.check_deadline()?;
            // Sideways semi-join filter: when the accumulator is small,
            // hand its join-key column (the first variable shared with the
            // pattern) to the scan — chunks outside the accumulator's key
            // range are pruned before decode, and surviving rows are
            // Bloom-tested before they reach the join. Purely a reduction:
            // false positives are dropped by the join as always.
            let sideways_built: Option<(&str, SidewaysFilter)> = result.as_ref().and_then(|acc| {
                let vars = step.tp.vars();
                let (col, var) = acc
                    .schema()
                    .names()
                    .iter()
                    .enumerate()
                    .find(|(_, n)| vars.contains(&n.as_ref()))
                    .map(|(i, n)| (i, n.as_ref()))?;
                SidewaysFilter::build(acc.column(col)).map(|f| (var, f))
            });
            let (scanned, source) =
                self.exec_step(step, ctx, sideways_built.as_ref().map(|(v, f)| (*v, f)))?;
            result = Some(match result {
                None => scanned,
                Some(acc) => {
                    let span = ctx.span_open("join");
                    // Natural-join key columns, paired by variable name.
                    let mut scan_keys = Vec::new();
                    let mut acc_keys = Vec::new();
                    for (i, name) in scanned.schema().names().iter().enumerate() {
                        if let Some(j) = acc.schema().index_of(name.as_ref()) {
                            scan_keys.push(i);
                            acc_keys.push(j);
                        }
                    }
                    let mut reused = false;
                    // Index-join decision for the cache paths below: one
                    // build index over `scanned`, probed by `acc` in
                    // morsels.
                    let join = ctx.options.join;
                    let indexed_decision = |out_rows: usize| {
                        JoinDecision::new(
                            BuildSide::Right,
                            scanned.num_rows(),
                            acc.num_rows(),
                            join.morsels(acc.num_rows()),
                            out_rows,
                        )
                    };
                    let join_started = std::time::Instant::now();
                    let (joined, decision) = match source {
                        Some(src) if !scan_keys.is_empty() => {
                            let cache_key = (src.clone(), scan_keys.clone());
                            if let Some(index) = index_cache.get(&cache_key) {
                                // The cached index was built over a
                                // row-identical scan of the same source,
                                // so its row ids address `scanned`
                                // directly (which supplies this step's
                                // column names).
                                reused = true;
                                ctx.explain.index_reuses += 1;
                                s2rdf_columnar::metrics::counter("columnar.join.index_reuses")
                                    .inc();
                                let out = ops::hash_join_probe(
                                    &scanned,
                                    index,
                                    &acc,
                                    &acc_keys,
                                    false,
                                    join.morsel_rows,
                                );
                                let decision = indexed_decision(out.num_rows());
                                (out, decision)
                            } else if source_uses.get(&src).copied().unwrap_or(0) >= 2
                                || scanned.num_rows() <= acc.num_rows()
                            {
                                let index = ops::build_join_index(&scanned, &scan_keys);
                                let out = ops::hash_join_probe(
                                    &scanned,
                                    &index,
                                    &acc,
                                    &acc_keys,
                                    false,
                                    join.morsel_rows,
                                );
                                index_cache.insert(cache_key, index);
                                let decision = indexed_decision(out.num_rows());
                                (out, decision)
                            } else {
                                natural_join_adaptive(&acc, &scanned, &join)
                            }
                        }
                        _ => natural_join_adaptive(&acc, &scanned, &join),
                    };
                    ctx.note_join_decision(
                        format!("bgp step {step_no}"),
                        decision,
                        reused,
                        prefix_est.get(pos).map(|e| e.round().max(0.0) as u64),
                        join_started.elapsed().as_micros() as u64,
                    );
                    ctx.span_close(
                        span,
                        format!(
                            "{}{}",
                            decision.summary(),
                            if reused { ", index reused" } else { "" }
                        ),
                        Some(joined.num_rows()),
                    );
                    ctx.note_join(acc.num_rows(), scanned.num_rows(), joined.num_rows())?;
                    // Re-check after the join as well: a single large join can
                    // dominate the step time, and checking only at step entry
                    // would let the engine overrun the deadline by one full
                    // join before noticing.
                    ctx.check_deadline()?;
                    joined
                }
            });
            executed.push(step_no);
            // AQE feedback (paper §8 "adaptive optimization" direction):
            // when the materialized accumulator diverges from the estimate
            // by more than `replan_threshold` (in either direction) and at
            // least two steps remain — with one remaining step there is
            // nothing to reorder — re-run ordering over the tail with the
            // observed cardinality as the known start. The graph is empty
            // when ordering was disabled or the BGP exceeded the planner's
            // 64-pattern limit; replanning is off in both cases.
            let remaining = sequence.len() - pos - 1;
            if ctx.options.replan_threshold > 0.0
                && remaining >= 2
                && plan.graph.len() == plan.steps.len()
            {
                if let (Some(est), Some(acc)) = (prefix_est.get(pos), result.as_ref()) {
                    let observed = acc.num_rows();
                    let lo = est.min(observed as f64).max(1.0);
                    let hi = est.max(observed as f64).max(1.0);
                    if hi / lo > ctx.options.replan_threshold {
                        let new = cost::replan_remaining(
                            &plan.graph,
                            &executed,
                            observed,
                            &CostModel::default(),
                            ctx.options.dp_max_patterns,
                        );
                        let changed = new.order != sequence[pos + 1..];
                        ctx.explain.replans.push(ReplanExplain {
                            after_step: pos,
                            estimated_rows: *est,
                            observed_rows: observed,
                            changed,
                            new_order: new
                                .order
                                .iter()
                                .map(|&i| plan.steps[i].tp.to_string())
                                .collect(),
                        });
                        sequence.truncate(pos + 1);
                        sequence.extend(new.order);
                        prefix_est.truncate(pos + 1);
                        prefix_est.extend(new.prefix_est);
                    }
                }
            }
            pos += 1;
        }
        Ok(result.expect("eval_bgp called with non-empty BGP"))
    }
}

/// True when every pattern position is a variable and no variable repeats
/// — exactly the case where [`scan_pattern`] is a pure column rename of
/// the stored table (same rows, same order), making its hash index
/// shareable across scans of the same source.
fn distinct_vars(cols: &[(usize, &TermPattern)]) -> bool {
    let mut names: Vec<&str> = Vec::new();
    for (_, pat) in cols {
        match pat.as_var() {
            Some(v) if !names.contains(&v) => names.push(v),
            _ => return false,
        }
    }
    true
}

impl SparqlEngine for S2rdfEngine<'_> {
    fn name(&self) -> String {
        if self.use_extvp {
            "S2RDF ExtVP".to_string()
        } else {
            "S2RDF VP".to_string()
        }
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
    use crate::store::BuildOptions;
    use s2rdf_model::{Graph, Term, Triple};

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

    /// Q1 from the paper (§2.1): "friends of friends who like the same
    /// things" — exactly one solution on G1.
    const Q1: &str = "SELECT * WHERE {
        ?x <likes> ?w . ?x <follows> ?y .
        ?y <follows> ?z . ?z <likes> ?w
    }";

    #[test]
    fn q1_on_g1() {
        let store = S2rdfStore::build(&g1(), &BuildOptions::default());
        let s = store.query(Q1).unwrap();
        assert_eq!(s.len(), 1);
        assert_eq!(s.binding(0, "x"), Some(&Term::iri("A")));
        assert_eq!(s.binding(0, "y"), Some(&Term::iri("B")));
        assert_eq!(s.binding(0, "z"), Some(&Term::iri("C")));
        assert_eq!(s.binding(0, "w"), Some(&Term::iri("I2")));
    }

    #[test]
    fn extvp_and_vp_agree() {
        let store = S2rdfStore::build(&g1(), &BuildOptions::default());
        let a = store.engine(true).query(Q1).unwrap();
        let b = store.engine(false).query(Q1).unwrap();
        assert_eq!(a.canonical(), b.canonical());
    }

    /// Fig. 8: the single BGP join of (?x follows ?y . ?y likes ?z) costs
    /// 12 naive comparisons on VP but 1 on ExtVP.
    #[test]
    fn fig8_join_comparisons() {
        let store = S2rdfStore::build(&g1(), &BuildOptions::default());
        let q = "SELECT * WHERE { ?x <follows> ?y . ?y <likes> ?z }";
        let (s_ext, ex_ext) = store
            .engine(true)
            .query_opt(q, &Default::default())
            .unwrap();
        let (s_vp, ex_vp) = store
            .engine(false)
            .query_opt(q, &Default::default())
            .unwrap();
        assert_eq!(s_ext.canonical(), s_vp.canonical());
        assert_eq!(s_ext.len(), 1);
        assert_eq!(ex_vp.naive_join_comparisons, 12); // 4 × 3
        assert_eq!(ex_ext.naive_join_comparisons, 1); // 1 × 1
    }

    /// Fig. 12: with join-order optimization Q1 does 6 naive comparisons
    /// instead of 10.
    #[test]
    fn fig12_join_order_comparisons() {
        let store = S2rdfStore::build(&g1(), &BuildOptions::default());
        let engine = store.engine(true);
        let (_, unopt) = engine
            .query_opt(
                Q1,
                &QueryOptions {
                    optimize_join_order: false,
                    ..Default::default()
                },
            )
            .unwrap();
        let (_, opt) = engine.query_opt(Q1, &QueryOptions::default()).unwrap();
        assert_eq!(unopt.naive_join_comparisons, 10); // (3·2) + (2·1) + (2·1)
        assert_eq!(opt.naive_join_comparisons, 6); // (1·1) + (1·2) + (1·3)
    }

    #[test]
    fn statistics_answer_empty_queries() {
        let store = S2rdfStore::build(&g1(), &BuildOptions::default());
        // likes → likes chains don't exist in G1 (ST-8-style query).
        let q = "SELECT * WHERE { ?a <likes> ?b . ?b <likes> ?c }";
        let (s, explain) = store
            .engine(true)
            .query_opt(q, &Default::default())
            .unwrap();
        assert!(s.is_empty());
        assert!(explain.statically_empty);
        assert!(explain.bgp_steps.is_empty()); // nothing was executed

        // The VP engine cannot know statically.
        let (s_vp, ex_vp) = store
            .engine(false)
            .query_opt(q, &Default::default())
            .unwrap();
        assert!(s_vp.is_empty());
        assert!(!ex_vp.statically_empty);
    }

    #[test]
    fn bound_constants_and_var_predicates() {
        let store = S2rdfStore::build(&g1(), &BuildOptions::default());
        let s = store.query("SELECT ?y WHERE { <A> <follows> ?y }").unwrap();
        assert_eq!(s.len(), 1);
        // Var predicate goes through the triples table.
        let s = store.query("SELECT ?p WHERE { <A> ?p ?o }").unwrap();
        assert_eq!(s.len(), 3);
        // Fully bound pattern.
        let s = store.query("SELECT * WHERE { <A> <follows> <B> }").unwrap();
        assert_eq!(s.len(), 1);
        let s = store.query("SELECT * WHERE { <A> <follows> <C> }").unwrap();
        assert!(s.is_empty());
    }

    #[test]
    fn correlation_intersection_is_semantics_preserving_and_tighter() {
        let store = S2rdfStore::build(&g1(), &BuildOptions::default());
        let engine = store.engine(true);
        let plain = engine.query_opt(Q1, &QueryOptions::default()).unwrap();
        let inter = engine
            .query_opt(
                Q1,
                &QueryOptions {
                    intersect_correlations: true,
                    ..Default::default()
                },
            )
            .unwrap();
        assert_eq!(plain.0.canonical(), inter.0.canonical());
        // The intersected plan never scans more rows than the plain one…
        let rows = |ex: &Explain| ex.bgp_steps.iter().map(|s| s.rows).sum::<usize>();
        assert!(rows(&inter.1) <= rows(&plain.1));
        // …and Q1's TP2 has two applicable reductions (OS follows|follows,
        // SS follows|likes), whose intersection {(A,B)} is strictly
        // smaller than either (size 2). The explain notes the reducers.
        assert!(
            inter.1.bgp_steps.iter().any(|s| s.table.contains("∩")),
            "no intersected step in {:?}",
            inter.1.bgp_steps
        );
        assert!(rows(&inter.1) < rows(&plain.1));
    }

    #[test]
    fn expired_deadline_aborts_with_timeout() {
        let store = S2rdfStore::build(&g1(), &BuildOptions::default());
        for use_extvp in [true, false] {
            let err = store
                .engine(use_extvp)
                .query_opt(
                    Q1,
                    &QueryOptions {
                        deadline: Some(std::time::Instant::now()),
                        ..Default::default()
                    },
                )
                .unwrap_err();
            assert!(matches!(err, CoreError::Timeout), "got {err:?}");
        }
    }

    #[test]
    fn intermediate_row_budget_aborts_with_resource_exhausted() {
        let store = S2rdfStore::build(&g1(), &BuildOptions::default());
        // Q1 on G1 needs at least one non-empty intermediate join, so a
        // zero-row budget must trip on the VP engine.
        let err = store
            .engine(false)
            .query_opt(
                Q1,
                &QueryOptions {
                    max_intermediate_rows: Some(0),
                    ..Default::default()
                },
            )
            .unwrap_err();
        assert!(
            matches!(err, CoreError::ResourceExhausted(_)),
            "got {err:?}"
        );
        // A generous budget changes nothing.
        let (s, _) = store
            .engine(false)
            .query_opt(
                Q1,
                &QueryOptions {
                    max_intermediate_rows: Some(1_000_000),
                    ..Default::default()
                },
            )
            .unwrap();
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn star_query_reuses_join_index_across_patterns() {
        // Three patterns share the object variable ?x and (with OO not
        // built) all scan the same VP table as pure renames, so the third
        // join can probe the hash index built for the second.
        let store = S2rdfStore::build(&g1(), &BuildOptions::default());
        let q = "SELECT * WHERE { ?a <likes> ?x . ?b <likes> ?x . ?c <likes> ?x }";
        let (ext, ex_ext) = store
            .engine(true)
            .query_opt(q, &Default::default())
            .unwrap();
        let (vp, ex_vp) = store
            .engine(false)
            .query_opt(q, &Default::default())
            .unwrap();
        assert_eq!(ext.canonical(), vp.canonical());
        // likes = {(A,I1),(A,I2),(C,I2)}: I1 contributes 1³, I2 2³.
        assert_eq!(ext.len(), 9);
        assert!(
            ex_ext.index_reuses >= 1 && ex_vp.index_reuses >= 1,
            "expected index reuse, got ext={} vp={}",
            ex_ext.index_reuses,
            ex_vp.index_reuses
        );
        // Non-star queries never reuse (every source is scanned once).
        let (_, ex_q1) = store
            .engine(true)
            .query_opt(Q1, &Default::default())
            .unwrap();
        assert_eq!(ex_q1.index_reuses, 0);
    }

    #[test]
    fn bound_star_reuses_index_after_build_side_flip() {
        // Regression test for the build-side-selection bug in index reuse:
        // a bound first pattern makes the accumulator the smaller join
        // input, so the size-preferred build side is the accumulator — and
        // the old code, which only cached when the scanned side happened
        // to be smaller, never cached and never reused. The repeated
        // source (VP likes, scanned by the ?b and ?c patterns) must be
        // built on and reused regardless of which side is smaller.
        let store = S2rdfStore::build(&g1(), &BuildOptions::default());
        let q = "SELECT * WHERE { <A> <likes> ?x . ?b <likes> ?x . ?c <likes> ?x }";
        for use_extvp in [true, false] {
            let (s, ex) = store
                .engine(use_extvp)
                .query_opt(q, &Default::default())
                .unwrap();
            // A likes {I1, I2}; I1 has 1 liker, I2 has 2 → 1·1 + 2·2.
            assert_eq!(s.len(), 5);
            assert!(
                ex.index_reuses >= 1,
                "extvp={use_extvp}: expected index reuse, got {}",
                ex.index_reuses
            );
            // Both joins record a planner decision, one of them a reuse.
            assert_eq!(ex.join_steps.len(), 2, "{:?}", ex.join_steps);
            assert!(ex.join_steps.iter().any(|j| j.reused_index));
        }
    }

    #[test]
    fn threshold_store_still_correct() {
        // With a harsh threshold nothing is materialized but results match.
        let full = S2rdfStore::build(&g1(), &BuildOptions::default());
        let th = S2rdfStore::build(
            &g1(),
            &BuildOptions {
                threshold: 0.3,
                build_extvp: true,
                ..Default::default()
            },
        );
        assert!(th.num_extvp_tables() < full.num_extvp_tables());
        assert_eq!(
            th.query(Q1).unwrap().canonical(),
            full.query(Q1).unwrap().canonical()
        );
    }

    /// Seeded mis-estimate: a bound-subject star scan where the heuristic
    /// (`size × 0.1`) underestimates the scan by 10× — every `p` triple
    /// has subject `Hub`, so the bound constant filters nothing. The
    /// divergence exceeds the default threshold (4.0), the AQE loop
    /// re-plans the remaining two steps, and the result multiset is
    /// unchanged against a run with re-planning disabled.
    #[test]
    fn replanning_fires_on_misestimate_and_preserves_results() {
        let mut triples = Vec::new();
        for i in 0..30 {
            triples.push(t("Hub", "p", &format!("X{i}")));
            triples.push(t(&format!("X{i}"), "q", &format!("Y{i}")));
            triples.push(t(&format!("Y{i}"), "r", &format!("Z{i}")));
        }
        let store = S2rdfStore::build(&Graph::from_triples(triples), &BuildOptions::default());
        let q = "SELECT * WHERE { <Hub> <p> ?a . ?a <q> ?b . ?b <r> ?c }";
        let engine = store.engine(true);
        let (with_replan, ex) = engine.query_opt(q, &QueryOptions::default()).unwrap();
        let (without, ex_off) = engine
            .query_opt(
                q,
                &QueryOptions {
                    replan_threshold: 0.0,
                    ..Default::default()
                },
            )
            .unwrap();
        assert_eq!(with_replan.canonical(), without.canonical());
        assert_eq!(with_replan.len(), 30);
        assert!(ex_off.replans.is_empty());
        assert_eq!(ex.replans.len(), 1, "{:?}", ex.replans);
        let replan = &ex.replans[0];
        assert_eq!(replan.after_step, 0);
        assert_eq!(replan.observed_rows, 30);
        assert!(
            replan.estimated_rows < 30.0 / 4.0,
            "estimate {} should diverge beyond the threshold",
            replan.estimated_rows
        );
        assert_eq!(replan.new_order.len(), 2);
        // The join steps carry the (re-spliced) estimates for --profile.
        assert!(ex.join_steps.iter().all(|j| j.est_out_rows.is_some()));
    }

    /// `StepExplain::est_rows` is resolved from the catalog at execution
    /// time, so a delta applied between two runs of the same query must be
    /// reflected in the second explain (regression guard for the PR 6
    /// incremental-update path).
    #[test]
    fn explain_estimates_follow_deltas() {
        let mut store = S2rdfStore::build(&g1(), &BuildOptions::default());
        let q = "SELECT * WHERE { ?x <follows> ?y }";
        let (_, before) = store
            .engine(false)
            .query_opt(q, &Default::default())
            .unwrap();
        assert_eq!(before.bgp_steps[0].est_rows, 4);
        let inserts: Vec<Triple> = (0..20)
            .map(|i| t(&format!("N{i}"), "follows", &format!("N{}", i + 1)))
            .collect();
        store.insert(&inserts).unwrap();
        let (s, after) = store
            .engine(false)
            .query_opt(q, &Default::default())
            .unwrap();
        assert_eq!(s.len(), 24);
        assert_eq!(after.bgp_steps[0].est_rows, 24);
    }
}
