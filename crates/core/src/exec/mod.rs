//! Evaluation of the SPARQL algebra over the columnar substrate.
//!
//! A [`BgpEvaluator`] supplies BGP evaluation (each engine implements its
//! own layout-specific strategy); this module supplies everything above
//! BGPs — FILTER, OPTIONAL (left outer join), UNION, DISTINCT, ORDER BY,
//! LIMIT/OFFSET and projection — which the paper maps "more or less
//! directly … to the appropriate counterparts in Spark SQL" (§6.1).

pub mod aggregate;
pub mod path;
pub mod pattern;
pub mod solution;
pub mod trace;

use std::time::Instant;

use rustc_hash::FxHashMap;
use s2rdf_columnar::exec::{JoinConfig, JoinDecision};
use s2rdf_columnar::{Table, NULL_ID};
use s2rdf_model::{Dictionary, Term, TermId};
use s2rdf_sparql::TriplePattern;

use crate::error::CoreError;

pub(crate) use pattern::eval_query_table;
pub use pattern::{compat_join, compat_left_outer_join, eval_pattern, eval_query, unit_table};
pub use solution::Solutions;
pub use trace::{SpanId, Trace, TraceNode};

/// Per-query evaluation options shared by all engines.
#[derive(Debug, Clone, Copy)]
pub struct QueryOptions {
    /// Hard deadline: long-running engines (centralized, batch) poll it and
    /// abort with [`CoreError::Timeout`] — the paper's "F" entries.
    pub deadline: Option<Instant>,
    /// Join-order optimization (paper Alg. 4 / §6.2). Disabling reproduces
    /// the naive Alg. 3 behaviour for ablations.
    pub optimize_join_order: bool,
    /// Intersect *all* applicable ExtVP reductions for each triple pattern
    /// instead of only the most selective one — the paper's §8 future-work
    /// "unification strategy … able to consider the intersections of all
    /// correlations for a triple pattern". Computed at query time against
    /// the chosen table (the paper proposes precomputing the unification;
    /// the input reduction achieved is the same).
    pub intersect_correlations: bool,
    /// Number of retries after a failed ExtVP partition load before the
    /// engine degrades to the VP table (Spark's `spark.task.maxFailures`
    /// analogue; retries use bounded exponential backoff starting at
    /// [`QueryOptions::retry_backoff_ms`]).
    pub max_retries: u32,
    /// Initial backoff between partition-load retries, in milliseconds
    /// (doubled per attempt). `0` retries immediately.
    pub retry_backoff_ms: u64,
    /// Abort with [`CoreError::ResourceExhausted`] if any intermediate join
    /// result exceeds this many rows — a guard against runaway queries on a
    /// shared store, akin to a cluster manager killing an over-budget job.
    pub max_intermediate_rows: Option<usize>,
    /// Collect a per-operator span tree ([`Trace`]) for this query,
    /// returned in [`Explain::trace`] — the `s2rdf query --profile` path
    /// and the analogue of inspecting a job in Spark's UI.
    pub profile: bool,
    /// Join execution settings: the probe rows per morsel submitted to the
    /// worker pool.
    pub join: JoinConfig,
    /// Largest BGP whose join order is chosen by exact left-deep DP
    /// enumeration over the ExtVP-derived cost model
    /// ([`crate::compiler::cost`]); larger BGPs use the greedy Algorithm 4
    /// order. `0` disables the DP planner entirely.
    pub dp_max_patterns: usize,
    /// AQE-style mid-query re-planning trigger: after each join
    /// materializes, if observed/estimated cardinality (either direction)
    /// exceeds this ratio and at least two steps remain, the remaining
    /// join order is re-derived with the accumulator pinned to its
    /// observed size. `0.0` disables re-planning.
    pub replan_threshold: f64,
}

impl Default for QueryOptions {
    fn default() -> Self {
        QueryOptions {
            deadline: None,
            optimize_join_order: true,
            intersect_correlations: false,
            max_retries: 2,
            retry_backoff_ms: 0,
            max_intermediate_rows: None,
            profile: false,
            join: JoinConfig::default(),
            dp_max_patterns: 10,
            replan_threshold: 4.0,
        }
    }
}

/// Explain record for one BGP join step.
#[derive(Debug, Clone)]
pub struct StepExplain {
    /// Human-readable table name (e.g. `ExtVP_OS/<follows>|<likes>`).
    pub table: String,
    /// Rows read from that table after bound-constant selections.
    pub rows: usize,
    /// Selectivity factor of the chosen table (1.0 for VP/TT).
    pub sf: f64,
    /// Wall time spent scanning (and, for engines that fold the join into
    /// the step, joining) this step, in microseconds.
    pub wall_micros: u64,
    /// Why this table was selected (e.g. "smallest ExtVP among 3
    /// candidates", "VP fallback: no correlated pattern"). Mirrors the
    /// table-selection argument of paper Alg. 2.
    pub rationale: String,
    /// Catalog cardinality estimate for the chosen table before scanning
    /// (the number the join-order planner sees); `0` when the engine
    /// has no estimate.
    pub est_rows: usize,
}

impl StepExplain {
    /// Step record with timing/rationale defaults (filled in by engines
    /// that track them; older call sites get zero/empty values).
    pub fn new(table: impl Into<String>, rows: usize, sf: f64) -> StepExplain {
        StepExplain {
            table: table.into(),
            rows,
            sf,
            wall_micros: 0,
            rationale: String::new(),
            est_rows: 0,
        }
    }
}

/// Explain record for one executed join: its decision (strategy, build
/// side, morsel count) plus whether a cached hash index was reused for the
/// build side.
#[derive(Debug, Clone)]
pub struct JoinExplain {
    /// Where the join ran (e.g. `bgp step 3` or `pattern join`).
    pub context: String,
    /// The planner's decision record.
    pub decision: JoinDecision,
    /// True when the build-side hash index came from the star-pattern
    /// index cache instead of being rebuilt.
    pub reused_index: bool,
    /// The cost model's estimated output cardinality for this join,
    /// before it ran — compare against `decision.out_rows` (the observed
    /// count) to see how far the statistics were off. `None` when the
    /// engine had no estimate (baseline engines, pattern-level joins).
    pub est_out_rows: Option<u64>,
    /// Measured wall time of the join in microseconds — the per-join
    /// sample the default [`crate::compiler::cost::CostModel`] constants
    /// were fitted to.
    pub wall_micros: u64,
}

/// Record of one AQE-style mid-query re-plan: a join's observed
/// cardinality diverged from the estimate beyond
/// [`QueryOptions::replan_threshold`], so the remaining steps were
/// re-ordered with the accumulator pinned to its observed size.
#[derive(Debug, Clone)]
pub struct ReplanExplain {
    /// 0-based index of the BGP step whose join triggered the re-plan.
    pub after_step: usize,
    /// What the planner expected the join to produce.
    pub estimated_rows: f64,
    /// What it actually produced.
    pub observed_rows: usize,
    /// True when re-ordering actually changed the remaining sequence
    /// (a triggered re-plan can confirm the current order is still best).
    pub changed: bool,
    /// The remaining steps' new execution order, as pattern text.
    pub new_order: Vec<String>,
}

/// Worker-pool activity attributed to one query: the delta of the shared
/// [`s2rdf_columnar::pool::WorkerPool`] stats between query start and end.
/// Tasks here are probe morsels and write chunks submitted by joins and
/// filters; `steals` shows how much work stealing rebalanced them.
/// Concurrent queries on the same process share the pool, so under
/// contention the delta can include a neighbour's tasks — it is an
/// attribution aid, not an exact ledger.
#[derive(Debug, Clone, Default)]
pub struct PoolExplain {
    /// Pool execution slots (the cached parallelism probe,
    /// `columnar.pool.workers`).
    pub workers: usize,
    /// Pool tasks executed during the query.
    pub tasks: u64,
    /// Tasks taken from another worker's queue.
    pub steals: u64,
    /// High-water queue depth (process lifetime, not per query).
    pub max_queue_depth: u64,
    /// Busy microseconds per worker slot during the query; the last slot
    /// is the submitting (caller-helper) thread.
    pub busy_micros: Vec<u64>,
}

/// Explain record for one evaluated property-path pattern: the fixpoint's
/// shape and its per-iteration delta sizes (the Spark-iterative-job
/// analogue — each entry is one "job" of the semi-join fixpoint).
#[derive(Debug, Clone)]
pub struct PathStepExplain {
    /// The path expression, rendered.
    pub path: String,
    /// How it was evaluated: `"forward-bfs"`/`"backward-bfs"` (one endpoint
    /// bound, bitmap-deduped frontier), `"closure"` (both endpoints open,
    /// delta-set pair iteration), or `"relation"` (no fixpoint needed).
    pub mode: String,
    /// New pairs (or frontier nodes) discovered per fixpoint iteration;
    /// empty for non-closure paths.
    pub iteration_rows: Vec<usize>,
    /// Rows in the path pattern's result table.
    pub total_rows: usize,
}

/// Record of one BGP step that executed in degraded mode: the planned ExtVP
/// partition could not be loaded and the engine fell back to the base VP
/// table. Because every ExtVP partition is a subset of its VP table
/// containing all join-surviving rows, the fallback changes cost, never
/// results — the shared-memory analogue of Spark recomputing a lost
/// partition from lineage.
#[derive(Debug, Clone)]
pub struct DegradedStep {
    /// The table the compiler selected (e.g. `ExtVP_OS/<follows>|<likes>`).
    pub planned: String,
    /// The table actually scanned instead (e.g. `VP/<follows>`).
    pub fallback: String,
    /// Why the planned table was unavailable.
    pub reason: String,
    /// Load attempts made (1 + retries) before degrading.
    pub attempts: u32,
}

/// Execution trace collected alongside a query result.
#[derive(Debug, Clone, Default)]
pub struct Explain {
    /// One entry per executed triple pattern, in join order.
    pub bgp_steps: Vec<StepExplain>,
    /// Σ |left| · |right| over all pairwise joins — the paper's "join
    /// comparisons" metric from Figs. 8 and 12.
    pub naive_join_comparisons: u64,
    /// Cardinality after each join.
    pub intermediate_rows: Vec<usize>,
    /// True if statistics alone proved the result empty (§6.1).
    pub statically_empty: bool,
    /// Steps that fell back from a planned ExtVP partition to its VP table.
    /// Empty on a healthy store.
    pub degraded_steps: Vec<DegradedStep>,
    /// Transient partition-load errors that a retry or fallback absorbed;
    /// the query still produced exact results despite them.
    pub recovered_errors: Vec<String>,
    /// BGP joins that reused a previously built hash index because the
    /// build side was a repeated pure-rename scan of the same stored table
    /// (star patterns sharing a join variable).
    pub index_reuses: usize,
    /// One entry per executed pairwise join, in execution order: its
    /// strategy, build side and morsel count.
    pub join_steps: Vec<JoinExplain>,
    /// How the BGP join order was chosen: `"dp"` (exact enumeration),
    /// `"greedy"` (Algorithm 4) or `"input"` (ordering disabled / trivial
    /// BGP). Empty when no BGP was compiled.
    pub join_order_method: String,
    /// Mid-query re-plans triggered by observed-vs-estimated cardinality
    /// divergence, in execution order. Empty when re-planning is disabled
    /// or estimates held up.
    pub replans: Vec<ReplanExplain>,
    /// One entry per evaluated property-path pattern, with per-iteration
    /// fixpoint row counts.
    pub path_steps: Vec<PathStepExplain>,
    /// Per-operator span tree, collected when [`QueryOptions::profile`] is
    /// set (otherwise `None`).
    pub trace: Option<Trace>,
    /// Worker-pool activity during this query (always collected — reading
    /// the pool counters is a handful of atomic loads).
    pub pool: Option<PoolExplain>,
}

impl Explain {
    /// True if every step ran on the planned table with no recovered
    /// faults.
    pub fn fully_healthy(&self) -> bool {
        self.degraded_steps.is_empty() && self.recovered_errors.is_empty()
    }
}

/// Shared evaluation state threaded through pattern evaluation.
pub struct ExecContext<'a> {
    /// The dictionary for decoding ids in filters and results.
    pub dict: &'a Dictionary,
    /// Options for this query.
    pub options: QueryOptions,
    /// Trace being collected.
    pub explain: Explain,
    /// Query-local term overlay: terms introduced by the query itself
    /// (VALUES data, BIND results) that are absent from the immutable store
    /// dictionary. Overlay ids start at `dict.len()` so they never collide
    /// with stored ids; [`ExecContext::term_of`] resolves both ranges.
    extra_terms: Vec<Term>,
    extra_ids: FxHashMap<Term, u32>,
}

impl<'a> ExecContext<'a> {
    /// Creates a context. When [`QueryOptions::profile`] is set, the
    /// context carries a [`Trace`] sink that operators append spans to via
    /// [`ExecContext::span_open`]/[`ExecContext::span_close`].
    pub fn new(dict: &'a Dictionary, options: QueryOptions) -> ExecContext<'a> {
        let mut explain = Explain::default();
        if options.profile {
            explain.trace = Some(Trace::new());
        }
        ExecContext {
            dict,
            options,
            explain,
            extra_terms: Vec::new(),
            extra_ids: FxHashMap::default(),
        }
    }

    /// Resolves an id to a term, consulting the store dictionary first and
    /// the query-local overlay above it. `NULL_ID` (unbound) is `None`.
    pub fn term_of(&self, id: u32) -> Option<&Term> {
        if id == NULL_ID {
            return None;
        }
        let base = self.dict.len() as u32;
        if id < base {
            self.dict.get(TermId(id))
        } else {
            self.extra_terms.get((id - base) as usize)
        }
    }

    /// Returns an id for `term`, interning it into the query-local overlay
    /// if the store dictionary does not know it.
    pub fn intern_term(&mut self, term: &Term) -> u32 {
        if let Some(id) = self.dict.id(term) {
            return id.0;
        }
        if let Some(&id) = self.extra_ids.get(term) {
            return id;
        }
        let id = (self.dict.len() + self.extra_terms.len()) as u32;
        self.extra_terms.push(term.clone());
        self.extra_ids.insert(term.clone(), id);
        id
    }

    /// The query-local overlay terms (index 0 is id `dict.len()`), for
    /// decode paths that only hold immutable borrows.
    pub fn overlay(&self) -> &[Term] {
        &self.extra_terms
    }

    /// Resolves an id against split dictionary/overlay borrows — for
    /// closures (parallel filter predicates, sort key extraction) that
    /// cannot capture the whole context.
    pub fn term_at<'b>(dict: &'b Dictionary, overlay: &'b [Term], id: u32) -> Option<&'b Term> {
        if id == NULL_ID {
            return None;
        }
        let base = dict.len() as u32;
        if id < base {
            dict.get(TermId(id))
        } else {
            overlay.get((id - base) as usize)
        }
    }

    /// Opens a trace span (no-op returning [`SpanId::NONE`] when profiling
    /// is off).
    #[inline]
    pub fn span_open(&mut self, label: &str) -> SpanId {
        match &mut self.explain.trace {
            Some(trace) => trace.open(label),
            None => SpanId::NONE,
        }
    }

    /// Closes a trace span with a detail string and output cardinality.
    #[inline]
    pub fn span_close(&mut self, id: SpanId, detail: String, rows_out: Option<usize>) {
        if let Some(trace) = &mut self.explain.trace {
            trace.close(id, detail, rows_out);
        }
    }

    /// Returns `Err(Timeout)` if the deadline has passed.
    pub fn check_deadline(&self) -> Result<(), CoreError> {
        if let Some(deadline) = self.options.deadline {
            if Instant::now() > deadline {
                return Err(CoreError::Timeout);
            }
        }
        Ok(())
    }

    /// Records a pairwise join for the comparison counter and enforces the
    /// intermediate-result budget: returns
    /// [`CoreError::ResourceExhausted`] if `out_rows` exceeds
    /// [`QueryOptions::max_intermediate_rows`].
    pub fn note_join(
        &mut self,
        left_rows: usize,
        right_rows: usize,
        out_rows: usize,
    ) -> Result<(), CoreError> {
        self.explain.naive_join_comparisons += left_rows as u64 * right_rows as u64;
        self.explain.intermediate_rows.push(out_rows);
        if let Some(limit) = self.options.max_intermediate_rows {
            if out_rows > limit {
                return Err(CoreError::ResourceExhausted(format!(
                    "intermediate join result of {out_rows} rows exceeds limit {limit}"
                )));
            }
        }
        Ok(())
    }

    /// Records the decision for one executed join in
    /// [`Explain::join_steps`], together with the cost model's output
    /// estimate (when one exists) and the measured wall time.
    pub fn note_join_decision(
        &mut self,
        context: impl Into<String>,
        decision: JoinDecision,
        reused_index: bool,
        est_out_rows: Option<u64>,
        wall_micros: u64,
    ) {
        self.explain.join_steps.push(JoinExplain {
            context: context.into(),
            decision,
            reused_index,
            est_out_rows,
            wall_micros,
        });
    }
}

/// Layout-specific BGP evaluation, implemented by each engine.
pub trait BgpEvaluator {
    /// The dictionary encoding this evaluator's data.
    fn dict(&self) -> &Dictionary;

    /// Evaluates a non-empty BGP to a solution table whose columns are the
    /// BGP's variable names.
    fn eval_bgp(
        &self,
        bgp: &[TriplePattern],
        ctx: &mut ExecContext<'_>,
    ) -> Result<Table, CoreError>;
}
