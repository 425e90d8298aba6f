//! Cost-based join ordering (ROADMAP item 3).
//!
//! The paper's Algorithm 4 orders joins greedily: most bound values first,
//! ties by smallest selected table. That heuristic looks at each pattern in
//! isolation — it never asks what a *join* will produce. This module adds
//! the missing machinery:
//!
//! * a [`JoinGraph`] whose nodes are the compiled triple-pattern plans and
//!   whose edges carry pairwise join selectivities derived from the same
//!   ExtVP statistics that drive table selection (the SF of the
//!   `ExtVP_p1|p2` reduction *is* the fraction of `VP_p1` that survives a
//!   join with `VP_p2` — paper §5.3),
//! * a [`CostModel`] mapping (build, probe, output) row counts to
//!   microseconds, with constants fitted to measured per-join wall times,
//! * [`plan_order`]: exact left-deep enumeration (DPsize over subsets) for
//!   small BGPs, falling back to the greedy Algorithm 4 order — with the
//!   cross-join fallback fixed to prefer the smallest table — above the
//!   cutoff, and
//! * [`replan_remaining`]: the AQE-style feedback hook — once a join has
//!   materialized and its observed cardinality diverged from the estimate,
//!   the executor re-runs ordering over the not-yet-joined patterns with
//!   the accumulator pinned to its *observed* size.
//!
//! All tie-breaks are canonical (the caller pre-sorts nodes by bound
//! count, size, then pattern text), so plans are invariant under
//! permutation of the input BGP.

use s2rdf_model::Dictionary;
use s2rdf_sparql::TermPattern;

use crate::catalog::{Catalog, Correlation, ExtVpKey};

use super::{TableSource, TpPlan};

/// Hard ceiling on DP enumeration width: `2^16` subset states. The
/// configured cutoff ([`plan_order`]'s `dp_max`) is clamped to this.
pub const DP_ABSOLUTE_MAX: usize = 16;

/// Estimated selectivity of one bound subject/object constant against its
/// table. The catalog tracks table sizes, not per-value frequencies, so a
/// bound constant's reduction is a fixed heuristic — chosen so that a
/// bound pattern beats an unbound one of the same table size (matching the
/// greedy rule "most bound values first") without letting a bound scan of
/// a huge table beat a tiny unbound one.
pub const BOUND_CONST_SELECTIVITY: f64 = 0.1;

/// Floor for cardinality estimates, so products of selectivities never
/// collapse to zero and ratios stay meaningful.
const EST_FLOOR: f64 = 1e-3;

/// How the final step order was produced.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum OrderMethod {
    /// Input order kept (ordering disabled or trivial BGP).
    #[default]
    Input,
    /// Greedy Algorithm 4 (most-bound-first, smallest-table ties,
    /// connected-first; cross-join fallback by smallest table).
    Greedy,
    /// Exact left-deep dynamic programming over subsets (DPsize).
    Dp,
}

impl OrderMethod {
    /// Short label for explain output.
    pub fn label(self) -> &'static str {
        match self {
            OrderMethod::Input => "input",
            OrderMethod::Greedy => "greedy",
            OrderMethod::Dp => "dp",
        }
    }
}

/// Linear per-row cost model for one hash join:
/// `cost = build·c_build + probe·c_probe + out·c_out` (microseconds).
///
/// The defaults are a least-squares fit of the three constants to
/// measured per-join wall times (the `wall_micros` of
/// [`crate::exec::JoinExplain`]) on the WatDiv SF1 IL workload. Only the
/// *ratios* matter for ordering; the absolute scale matters only when
/// reading reported costs as time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostModel {
    /// Microseconds per build-side row (hash insert).
    pub build_micros_per_row: f64,
    /// Microseconds per probe-side row (hash lookup).
    pub probe_micros_per_row: f64,
    /// Microseconds per output row (materialization).
    pub out_micros_per_row: f64,
}

impl Default for CostModel {
    fn default() -> Self {
        // Fitted on WatDiv SF1: building a hash table costs roughly 2.5×
        // a probe, materializing an output row roughly 1.5× a probe.
        CostModel {
            build_micros_per_row: 0.025,
            probe_micros_per_row: 0.010,
            out_micros_per_row: 0.015,
        }
    }
}

impl CostModel {
    /// Predicted cost of one join, in microseconds.
    pub fn join_cost(&self, build_rows: f64, probe_rows: f64, out_rows: f64) -> f64 {
        build_rows * self.build_micros_per_row
            + probe_rows * self.probe_micros_per_row
            + out_rows * self.out_micros_per_row
    }
}

/// One node of the join graph: a triple pattern with its cardinality
/// estimate and the greedy comparator's inputs.
#[derive(Debug, Clone, Default)]
pub struct JoinNode {
    /// Estimated rows the scan produces (selected-table size, discounted
    /// by [`BOUND_CONST_SELECTIVITY`] per bound subject/object constant).
    pub est_rows: f64,
    /// Selected-table cardinality (undiscounted; the greedy tie-break).
    pub size: usize,
    /// Bound positions in the pattern (the greedy primary key).
    pub bound_count: usize,
}

/// Join graph over a BGP's compiled steps: per-node cardinality estimates
/// and pairwise selectivities from ExtVP statistics.
///
/// The selectivity `sel[i][j]` is defined so that the estimated size of
/// `T_i ⋈ T_j` is `est_i · est_j · sel[i][j]`; `NaN` encodes "no shared
/// variable" (a cross product, estimated as `est_i · est_j`). Estimates
/// for larger sets compose by the standard independence model:
/// `card(S) = Π est_i · Π_{(i,j) ⊆ S} sel[i][j]` — order-independent, so
/// the DP can memoize one cardinality per subset.
#[derive(Debug, Clone, Default)]
pub struct JoinGraph {
    /// Nodes, in the caller's (canonical) order.
    pub nodes: Vec<JoinNode>,
    /// Pairwise selectivities; `NaN` = no shared variable.
    sel: Vec<f64>,
    /// Adjacency bitmask per node (bit `j` set iff `i` and `j` share a
    /// variable).
    adj: Vec<u64>,
}

impl JoinGraph {
    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True when the graph has no nodes.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Whether nodes `i` and `j` share a variable.
    pub fn connected(&self, i: usize, j: usize) -> bool {
        self.adj[i] & (1u64 << j) != 0
    }

    /// Replaces node `i`'s cardinality estimate with better evidence than
    /// the catalog heuristic — e.g. a zone-map scan estimate summing only
    /// the chunks a bound constant can survive. Selectivity edges are
    /// untouched: they are ratios and compose with any node estimate.
    pub fn set_node_estimate(&mut self, i: usize, est_rows: f64) {
        self.nodes[i].est_rows = est_rows.max(EST_FLOOR);
    }

    /// Whether node `i` shares a variable with any node in `mask`.
    pub fn connected_to_set(&self, i: usize, mask: u64) -> bool {
        self.adj[i] & mask != 0
    }

    /// Estimated cardinality of joining node `r` into a set with
    /// cardinality `card` (the independence model: multiply by `est_r` and
    /// every selectivity edge from `r` into the set).
    pub fn extend_card(&self, card: f64, mask: u64, r: usize) -> f64 {
        let mut out = card * self.nodes[r].est_rows;
        for j in 0..self.len() {
            if j != r && mask & (1u64 << j) != 0 {
                let s = self.sel[r * self.len() + j];
                if !s.is_nan() {
                    out *= s;
                }
            }
        }
        out.max(EST_FLOOR)
    }

    /// Builds the graph from compiled steps. With `stats`, edge
    /// selectivities come from the catalog's ExtVP reduction ratios;
    /// without (the baseline engines have no per-pair statistics), shared
    /// variables get the conservative containment default
    /// `|T_i ⋈ T_j| ≈ max(est_i, est_j)`.
    pub fn build(steps: &[TpPlan], stats: Option<(&Catalog, &Dictionary)>) -> JoinGraph {
        let n = steps.len();
        let mut nodes = Vec::with_capacity(n);
        for step in steps {
            let mut est = step.size as f64;
            for pos in [&step.tp.s, &step.tp.o] {
                if !pos.is_var() {
                    est *= BOUND_CONST_SELECTIVITY;
                }
            }
            nodes.push(JoinNode {
                est_rows: est.max(EST_FLOOR),
                size: step.size,
                bound_count: step.tp.bound_count(),
            });
        }
        let mut sel = vec![f64::NAN; n * n];
        let mut adj = vec![0u64; n];
        for i in 0..n {
            for j in (i + 1)..n {
                let shares_var = steps[i]
                    .tp
                    .vars()
                    .iter()
                    .any(|v| steps[j].tp.vars().contains(v));
                if !shares_var {
                    continue;
                }
                adj[i] |= 1u64 << j;
                adj[j] |= 1u64 << i;
                let (ei, ej) = (nodes[i].est_rows, nodes[j].est_rows);
                // Estimated join output: for every position pair that
                // shares a variable, the survivors on each side are
                // `est · SF` of the matching ExtVP reduction (SF = 1 when
                // the chosen table is already that reduction, or when no
                // statistic exists); the pair's output is bounded by the
                // larger surviving side (each surviving row matches at
                // least once), and multiple shared variables keep the
                // tightest bound.
                let mut out = ei.max(ej);
                for (corr_ij, si, sj) in [
                    (Correlation::SS, &steps[i].tp.s, &steps[j].tp.s),
                    (Correlation::SO, &steps[i].tp.s, &steps[j].tp.o),
                    (Correlation::OS, &steps[i].tp.o, &steps[j].tp.s),
                    (Correlation::OO, &steps[i].tp.o, &steps[j].tp.o),
                ] {
                    if !same_var(si, sj) {
                        continue;
                    }
                    let sf_i = pair_sf(&steps[i], &steps[j], corr_ij, stats);
                    let sf_j = pair_sf(&steps[j], &steps[i], corr_ij.transpose(), stats);
                    let pair_out = (ei * sf_i).max(ej * sf_j);
                    out = out.min(pair_out);
                }
                let s = (out.max(EST_FLOOR) / (ei * ej)).min(1.0);
                sel[i * n + j] = s;
                sel[j * n + i] = s;
            }
        }
        JoinGraph { nodes, sel, adj }
    }
}

fn same_var(a: &TermPattern, b: &TermPattern) -> bool {
    match (a.as_var(), b.as_var()) {
        (Some(x), Some(y)) => x == y,
        _ => false,
    }
}

impl Correlation {
    /// The same position pair seen from the other pattern (SS↔SS, OO↔OO,
    /// SO↔OS).
    fn transpose(self) -> Correlation {
        match self {
            Correlation::SS => Correlation::SS,
            Correlation::OO => Correlation::OO,
            Correlation::SO => Correlation::OS,
            Correlation::OS => Correlation::SO,
        }
    }
}

/// The fraction of `a`'s rows that survive a semi-join with `b` over the
/// given correlation: the catalog's SF for `ExtVP^corr_{p_a|p_b}`, or 1.0
/// when `a`'s chosen table *is* that reduction (already filtered) or no
/// statistic is available.
fn pair_sf(
    a: &TpPlan,
    b: &TpPlan,
    corr: Correlation,
    stats: Option<(&Catalog, &Dictionary)>,
) -> f64 {
    let Some((catalog, dict)) = stats else {
        return 1.0;
    };
    let (Some(pa), Some(pb)) = (
        a.tp.p.as_term().and_then(|t| dict.id(t)),
        b.tp.p.as_term().and_then(|t| dict.id(t)),
    ) else {
        return 1.0;
    };
    if matches!(corr, Correlation::SS | Correlation::OO) && pa == pb {
        // Self-correlations are the identity (selection.rs skips them too).
        return 1.0;
    }
    let key = ExtVpKey::new(corr, pa, pb);
    if a.source == TableSource::ExtVp(key) {
        // The chosen table is already this exact reduction: every row
        // survives by construction.
        return 1.0;
    }
    match catalog.extvp_stat(&key) {
        Some(stat) => stat.sf.clamp(0.0, 1.0),
        None => 1.0,
    }
}

/// The outcome of ordering: a permutation of the node indices, the
/// estimated accumulator cardinality after each prefix, and which
/// algorithm produced it.
#[derive(Debug, Clone, Default)]
pub struct PlannedOrder {
    /// Node indices in execution order.
    pub order: Vec<usize>,
    /// `prefix_est[k]` = estimated rows after joining `order[0..=k]`
    /// (`prefix_est[0]` is the first scan's estimate).
    pub prefix_est: Vec<f64>,
    /// The algorithm that produced the order.
    pub method: OrderMethod,
}

/// Orders all nodes of the graph. Uses exact left-deep DP when
/// `2 ≤ n ≤ min(dp_max, 16)`, the greedy Algorithm 4 otherwise. Callers
/// must present nodes in canonical order (bound count desc, size asc,
/// pattern text) — both algorithms break exact ties toward lower indices,
/// which makes plans permutation-invariant.
pub fn plan_order(graph: &JoinGraph, cost: &CostModel, dp_max: usize) -> PlannedOrder {
    order_from(graph, cost, dp_max, 0, 1.0)
}

/// Re-orders the nodes *not* in `executed` after the accumulator
/// materialized with `observed_rows` — the AQE feedback path. The
/// already-joined set acts as a virtual relation of known cardinality:
/// connectivity and selectivity edges from remaining nodes into it still
/// apply, only its size is no longer an estimate.
pub fn replan_remaining(
    graph: &JoinGraph,
    executed: &[usize],
    observed_rows: usize,
    cost: &CostModel,
    dp_max: usize,
) -> PlannedOrder {
    let mut mask = 0u64;
    for &i in executed {
        mask |= 1u64 << i;
    }
    order_from(
        graph,
        cost,
        dp_max,
        mask,
        (observed_rows as f64).max(EST_FLOOR),
    )
}

/// Shared entry: orders the nodes outside `start_mask`, with the executed
/// set pinned to cardinality `start_card` (ignored when `start_mask` is
/// empty — ordering then starts from single relations).
fn order_from(
    graph: &JoinGraph,
    cost: &CostModel,
    dp_max: usize,
    start_mask: u64,
    start_card: f64,
) -> PlannedOrder {
    let n = graph.len();
    let free: Vec<usize> = (0..n).filter(|&i| start_mask & (1u64 << i) == 0).collect();
    if free.len() <= 1 {
        let mut prefix_est = Vec::new();
        let mut card = start_card;
        for &i in &free {
            card = if start_mask == 0 {
                graph.nodes[i].est_rows
            } else {
                graph.extend_card(card, start_mask, i)
            };
            prefix_est.push(card);
        }
        return PlannedOrder {
            order: free,
            prefix_est,
            method: OrderMethod::Input,
        };
    }
    if free.len() >= 2 && free.len() <= dp_max.min(DP_ABSOLUTE_MAX) {
        dp_order(graph, cost, start_mask, start_card, &free)
    } else {
        greedy_order(graph, start_mask, start_card, &free)
    }
}

/// Exact left-deep enumeration (DPsize): `best[S]` is the cheapest
/// left-deep join of the set `S`, built by extending `best[S \ {r}]` with
/// every candidate `r`. Cardinalities are per-subset (the independence
/// model is order-free), so each of the `2^m` states is solved once.
/// Cross-join extensions are only admitted when a state has no connected
/// candidate, preserving Algorithm 4's connected-first invariant.
fn dp_order(
    graph: &JoinGraph,
    cost: &CostModel,
    start_mask: u64,
    start_card: f64,
    free: &[usize],
) -> PlannedOrder {
    let m = free.len();
    let states = 1usize << m;
    // Compact bit i ↔ graph node free[i].
    let expand = |bits: usize| -> u64 {
        let mut mask = start_mask;
        for (i, &node) in free.iter().enumerate() {
            if bits & (1 << i) != 0 {
                mask |= 1u64 << node;
            }
        }
        mask
    };
    let mut card = vec![f64::NAN; states];
    let mut best_cost = vec![f64::INFINITY; states];
    let mut best_last = vec![usize::MAX; states];
    card[0] = start_card;
    best_cost[0] = 0.0;
    let rooted = start_mask != 0;
    for bits in 1..states {
        // Subset cardinality: extend from the lowest set bit (any bit
        // gives the same value — the model is order-independent).
        let low = bits.trailing_zeros() as usize;
        let prev_bits = bits & !(1 << low);
        let prev_mask = expand(prev_bits);
        card[bits] = if prev_bits == 0 && !rooted {
            graph.nodes[free[low]].est_rows
        } else {
            graph.extend_card(card[prev_bits], prev_mask, free[low])
        };
        // Transition: which relation joins last? Prefer extensions that
        // connect to the rest of the subset; accept cross joins only when
        // no member connects (a disconnected BGP).
        let candidates: Vec<usize> = (0..m).filter(|&i| bits & (1 << i) != 0).collect();
        let connected: Vec<usize> = candidates
            .iter()
            .copied()
            .filter(|&i| {
                let rest = expand(bits & !(1 << i));
                rest != 0 && graph.connected_to_set(free[i], rest)
            })
            .collect();
        let pool = if connected.is_empty() {
            &candidates
        } else {
            &connected
        };
        // Reverse iteration + strict improvement: on exact cost ties the
        // lowest canonical index joins last to be examined and is kept,
        // which biases full ties toward the canonical node order.
        for &i in pool.iter().rev() {
            let prev_bits = bits & !(1 << i);
            if best_cost[prev_bits].is_infinite() {
                continue;
            }
            let prev_card = if prev_bits == 0 && !rooted {
                // First relation: no join yet, only its scan.
                let c = 0.0;
                if c < best_cost[bits] {
                    best_cost[bits] = c;
                    best_last[bits] = i;
                }
                continue;
            } else {
                card[prev_bits]
            };
            let r_est = graph.nodes[free[i]].est_rows;
            let join = cost.join_cost(prev_card.min(r_est), prev_card.max(r_est), card[bits]);
            let total = best_cost[prev_bits] + join;
            if total < best_cost[bits] {
                best_cost[bits] = total;
                best_last[bits] = i;
            }
        }
    }
    // Reconstruct the order by walking `best_last` back from the full set.
    let full = states - 1;
    let mut seq = Vec::with_capacity(m);
    let mut bits = full;
    while bits != 0 {
        let last = best_last[bits];
        debug_assert!(last != usize::MAX, "unreached DP state");
        seq.push(free[last]);
        bits &= !(1 << last);
    }
    seq.reverse();
    // Prefix cardinalities along the chosen order.
    let mut prefix_est = Vec::with_capacity(m);
    let mut bits = 0usize;
    for &node in &seq {
        let i = free.iter().position(|&f| f == node).expect("node in free");
        bits |= 1 << i;
        prefix_est.push(card[bits]);
    }
    PlannedOrder {
        order: seq,
        prefix_est,
        method: OrderMethod::Dp,
    }
}

/// The paper's greedy Algorithm 4 over graph nodes: among candidates
/// connected to the already-chosen set, pick most-bound-first, ties by
/// smallest table, ties by lowest (canonical) index. When *no* candidate
/// connects — a forced cross join — pick the smallest table first instead:
/// the cross product's size is the product of its inputs, so starting a
/// new component anywhere but its smallest table multiplies everything
/// downstream (this is the PR's cross-join ordering fix; bound counts
/// don't bound a cross product's cost).
fn greedy_order(
    graph: &JoinGraph,
    start_mask: u64,
    start_card: f64,
    free: &[usize],
) -> PlannedOrder {
    let mut chosen_mask = start_mask;
    let mut remaining: Vec<usize> = free.to_vec();
    let mut order = Vec::with_capacity(free.len());
    let mut prefix_est = Vec::with_capacity(free.len());
    let mut card = start_card;
    let rooted = start_mask != 0;
    while !remaining.is_empty() {
        let first_pick = chosen_mask == 0;
        let connected: Vec<usize> = remaining
            .iter()
            .copied()
            .filter(|&i| first_pick || graph.connected_to_set(i, chosen_mask))
            .collect();
        let forced_cross = connected.is_empty();
        let pool = if forced_cross { &remaining } else { &connected };
        // First minimum wins: candidates are in canonical order, so exact
        // ties resolve to the canonical earliest — permutation-invariant.
        let mut best = pool[0];
        for &i in &pool[1..] {
            let (cur, cand) = (&graph.nodes[best], &graph.nodes[i]);
            let better = if forced_cross {
                cand.size.cmp(&cur.size).is_lt()
            } else {
                cand.bound_count
                    .cmp(&cur.bound_count) // more bound values first
                    .reverse()
                    .then(cand.size.cmp(&cur.size)) // then smaller tables
                    .is_lt()
            };
            if better {
                best = i;
            }
        }
        card = if order.is_empty() && !rooted {
            graph.nodes[best].est_rows
        } else {
            graph.extend_card(card, chosen_mask, best)
        };
        prefix_est.push(card);
        chosen_mask |= 1u64 << best;
        remaining.retain(|&i| i != best);
        order.push(best);
    }
    PlannedOrder {
        order,
        prefix_est,
        method: OrderMethod::Greedy,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use s2rdf_sparql::TriplePattern;

    fn plan(tp: TriplePattern, size: usize) -> TpPlan {
        TpPlan {
            tp,
            source: TableSource::TriplesTable,
            size,
            sf: 1.0,
            extra_reducers: Vec::new(),
        }
    }

    fn v(name: &str) -> TermPattern {
        TermPattern::Var(name.into())
    }

    fn c(name: &str) -> TermPattern {
        TermPattern::Term(s2rdf_model::Term::iri(name))
    }

    #[test]
    fn dp_prefers_selective_start_over_bound_heavy_big_table() {
        // Chain a—b—c: a huge bound pattern, then two tiny unbound ones.
        // Greedy starts at the bound pattern (most-bound-first); DP starts
        // at the cheap end because the chain's total cost is lower.
        let steps = vec![
            plan(TriplePattern::new(c("U1"), c("p"), v("x")), 100_000),
            plan(TriplePattern::new(v("x"), c("q"), v("y")), 10),
            plan(TriplePattern::new(v("y"), c("r"), v("z")), 10),
        ];
        let graph = JoinGraph::build(&steps, None);
        let dp = plan_order(&graph, &CostModel::default(), 10);
        assert_eq!(dp.method, OrderMethod::Dp);
        let greedy = greedy_order(&graph, 0, 1.0, &[0, 1, 2]);
        assert_eq!(greedy.order[0], 0, "greedy starts at the bound pattern");
        assert_ne!(dp.order, greedy.order, "DP must diverge from greedy here");
        // DP keeps connectivity: consecutive prefixes always share a var.
        let mut mask = 1u64 << dp.order[0];
        for &i in &dp.order[1..] {
            assert!(graph.connected_to_set(i, mask), "cross join in DP plan");
            mask |= 1u64 << i;
        }
    }

    #[test]
    fn greedy_forced_cross_join_picks_smallest_table() {
        // Two components: {0} (bound, tiny) and {1 huge-bound, 2 tiny}.
        // After exhausting component one, the forced cross join must pick
        // the *smallest* table (node 2), not the most-bound one (node 1).
        let steps = vec![
            plan(TriplePattern::new(c("A"), c("p"), c("B")), 1),
            plan(TriplePattern::new(c("C"), c("q"), v("x")), 1_000_000),
            plan(TriplePattern::new(v("x"), c("r"), v("y")), 5),
        ];
        let graph = JoinGraph::build(&steps, None);
        let out = greedy_order(&graph, 0, 1.0, &[0, 1, 2]);
        assert_eq!(out.order, vec![0, 2, 1]);
    }

    #[test]
    fn replan_orders_remaining_around_observed_cardinality() {
        // Star on ?x: node 0 executed; the replan must order the remaining
        // two and keep them connected to the accumulator.
        let steps = vec![
            plan(TriplePattern::new(v("x"), c("p"), v("a")), 100),
            plan(TriplePattern::new(v("x"), c("q"), v("b")), 2000),
            plan(TriplePattern::new(v("x"), c("r"), v("c")), 50),
        ];
        let graph = JoinGraph::build(&steps, None);
        let out = replan_remaining(&graph, &[0], 3, &CostModel::default(), 10);
        assert_eq!(out.order.len(), 2);
        assert!(out.order.contains(&1) && out.order.contains(&2));
        // The small table joins before the big one against a 3-row
        // accumulator.
        assert_eq!(out.order[0], 2);
        assert_eq!(out.prefix_est.len(), 2);
    }

    #[test]
    fn dp_and_greedy_agree_on_trivial_inputs() {
        let steps = vec![
            plan(TriplePattern::new(v("x"), c("p"), v("y")), 10),
            plan(TriplePattern::new(v("y"), c("q"), v("z")), 20),
        ];
        let graph = JoinGraph::build(&steps, None);
        let dp = plan_order(&graph, &CostModel::default(), 10);
        let greedy = plan_order(&graph, &CostModel::default(), 0);
        assert_eq!(dp.order, greedy.order);
        assert_eq!(greedy.method, OrderMethod::Greedy);
        let single = JoinGraph::build(&steps[..1], None);
        let one = plan_order(&single, &CostModel::default(), 10);
        assert_eq!(one.order, vec![0]);
        assert_eq!(one.method, OrderMethod::Input);
    }
}
