//! Pattern- and query-level evaluation above BGPs.

use std::cmp::Ordering;

use rustc_hash::FxHashMap;
use s2rdf_columnar::exec::{natural_join_adaptive, BuildSide, JoinDecision};
use s2rdf_columnar::{ops, Schema, Table, NULL_ID};
use s2rdf_model::{Dictionary, Term};
use s2rdf_sparql::{optimizer, Expression, GraphPattern, Query, Value};

use crate::error::CoreError;

use super::{BgpEvaluator, ExecContext, Solutions};

/// Internal column name for solutions that bind no variable (the result of
/// an empty BGP, or of a fully bound triple pattern). The `#` prefix cannot
/// appear in variable names, so it never collides, and such columns are
/// dropped on projection. Joining two unit columns is an identity join (all
/// values are 0).
pub const UNIT_COL: &str = "#unit";

/// The unit table: one row, no variable bindings.
pub fn unit_table() -> Table {
    Table::from_rows(Schema::new([UNIT_COL]), &[[0u32]])
}

/// Evaluates a graph pattern to a solution table (columns = variables).
pub fn eval_pattern(
    ev: &dyn BgpEvaluator,
    pattern: &GraphPattern,
    ctx: &mut ExecContext<'_>,
) -> Result<Table, CoreError> {
    ctx.check_deadline()?;
    match pattern {
        GraphPattern::Bgp(tps) => {
            if tps.is_empty() {
                Ok(unit_table())
            } else {
                let span = ctx.span_open("bgp");
                let out = ev.eval_bgp(tps, ctx)?;
                ctx.span_close(
                    span,
                    format!("{} triple pattern(s)", tps.len()),
                    Some(out.num_rows()),
                );
                Ok(out)
            }
        }
        GraphPattern::Filter { expr, inner } => {
            let span = ctx.span_open("filter");
            let table = eval_pattern(ev, inner, ctx)?;
            let rows_in = table.num_rows();
            let out = filter_table(&table, expr, ctx)?;
            ctx.span_close(span, format!("in={rows_in}"), Some(out.num_rows()));
            Ok(out)
        }
        GraphPattern::Join(l, r) => {
            let span = ctx.span_open("join");
            let left = eval_pattern(ev, l, ctx)?;
            let right = eval_pattern(ev, r, ctx)?;
            ctx.check_deadline()?;
            // SPARQL compatibility semantics: an unbound shared variable
            // (possible under UNION/OPTIONAL inputs) joins with anything.
            // Hash joins treat NULL_ID as a value, so fall back to the
            // compatibility join when shared columns contain NULLs.
            let compat = needs_compat_join(&left, &right);
            let join_started = std::time::Instant::now();
            let (out, decision) = if compat {
                // The nested-loop compatibility join has no planner choice
                // to make; record it as a serial decision so join_steps
                // stays one-entry-per-join.
                let out = compat_join(&left, &right);
                let decision = JoinDecision::new(
                    BuildSide::Left,
                    left.num_rows(),
                    right.num_rows(),
                    1,
                    out.num_rows(),
                );
                (out, decision)
            } else {
                natural_join_adaptive(&left, &right, &ctx.options.join)
            };
            ctx.note_join(left.num_rows(), right.num_rows(), out.num_rows())?;
            // Pattern-level joins (between sub-patterns of JOIN/OPTIONAL
            // groups) have no cost-model estimate: the planner works per
            // BGP. Their wall time still feeds cost-model calibration.
            ctx.note_join_decision(
                if compat {
                    "pattern join (compat)"
                } else {
                    "pattern join"
                },
                decision,
                false,
                None,
                join_started.elapsed().as_micros() as u64,
            );
            ctx.span_close(
                span,
                format!(
                    "left={} right={}{} [{}]",
                    left.num_rows(),
                    right.num_rows(),
                    if compat { " compat(NULL-joinable)" } else { "" },
                    decision.summary(),
                ),
                Some(out.num_rows()),
            );
            Ok(out)
        }
        GraphPattern::LeftJoin(l, r) => {
            let span = ctx.span_open("left_join");
            let left = eval_pattern(ev, l, ctx)?;
            let right = eval_pattern(ev, r, ctx)?;
            ctx.check_deadline()?;
            // Same NULL-compatibility guard as Join above: an OPTIONAL
            // whose left input already contains unbound shared variables
            // (OPTIONAL after UNION / nested OPTIONAL) must not hash-join
            // NULL_ID as a literal value.
            let compat = needs_compat_join(&left, &right);
            let out = if compat {
                compat_left_outer_join(&left, &right)
            } else {
                ops::left_outer_join(&left, &right)
            };
            ctx.note_join(left.num_rows(), right.num_rows(), out.num_rows())?;
            ctx.span_close(
                span,
                format!(
                    "left={} right={}{}",
                    left.num_rows(),
                    right.num_rows(),
                    if compat { " compat(NULL-joinable)" } else { "" }
                ),
                Some(out.num_rows()),
            );
            Ok(out)
        }
        GraphPattern::Union(l, r) => {
            let span = ctx.span_open("union");
            let left = eval_pattern(ev, l, ctx)?;
            let right = eval_pattern(ev, r, ctx)?;
            let out = ops::union(&left, &right);
            ctx.span_close(
                span,
                format!("left={} right={}", left.num_rows(), right.num_rows()),
                Some(out.num_rows()),
            );
            Ok(out)
        }
        GraphPattern::Path {
            subject,
            path,
            object,
        } => {
            let span = ctx.span_open("path");
            let out = super::path::eval_path(ev, subject, path, object, ctx)?;
            ctx.span_close(
                span,
                format!("{subject} {path} {object}"),
                Some(out.num_rows()),
            );
            Ok(out)
        }
        GraphPattern::Bind { expr, var, inner } => {
            let span = ctx.span_open("bind");
            let table = eval_pattern(ev, inner, ctx)?;
            if table.schema().contains(var) {
                return Err(CoreError::Unsupported(format!(
                    "BIND would rebind already-bound variable ?{var}"
                )));
            }
            // Evaluate the expression per row; errors bind nothing (SPARQL
            // §10.1). New terms (arithmetic results, derived literals) are
            // interned into the query-local overlay.
            let mut ids: Vec<u32> = Vec::with_capacity(table.num_rows());
            for row in 0..table.num_rows() {
                let term: Option<Term> = {
                    let lookup = |v: &str| -> Option<&Term> {
                        let col = table.schema().index_of(v)?;
                        ctx.term_of(table.value(row, col))
                    };
                    expr.eval(&lookup).ok().and_then(value_to_term)
                };
                ids.push(match &term {
                    Some(t) => ctx.intern_term(t),
                    None => NULL_ID,
                });
            }
            let mut names: Vec<String> = table
                .schema()
                .names()
                .iter()
                .map(|c| c.to_string())
                .collect();
            names.push(var.clone());
            let mut cols: Vec<Vec<u32>> = table.columns().to_vec();
            cols.push(ids);
            let out = Table::from_columns(Schema::new(names), cols);
            ctx.span_close(span, format!("?{var}"), Some(out.num_rows()));
            Ok(out)
        }
        GraphPattern::Values { vars, rows } => {
            if vars.is_empty() {
                return Ok(unit_table());
            }
            let span = ctx.span_open("values");
            let mut cols: Vec<Vec<u32>> = vec![Vec::with_capacity(rows.len()); vars.len()];
            for row in rows {
                for (i, cell) in row.iter().enumerate() {
                    cols[i].push(match cell {
                        Some(t) => ctx.intern_term(t),
                        None => NULL_ID, // UNDEF joins with anything
                    });
                }
            }
            let out = Table::from_columns(Schema::new(vars.iter().cloned()), cols);
            ctx.span_close(span, format!("{} row(s)", rows.len()), Some(out.num_rows()));
            Ok(out)
        }
    }
}

/// True when the pair must use compatibility-join semantics: the inputs
/// share columns and at least one shared column contains [`NULL_ID`]
/// (unbound values), which hash joins would treat as an ordinary value.
fn needs_compat_join(left: &Table, right: &Table) -> bool {
    let shared = left.schema().common_columns(right.schema());
    if shared.is_empty() {
        return false;
    }
    let has_nulls = |t: &Table| {
        shared
            .iter()
            .any(|c| t.column(t.schema().index_of(c).unwrap()).contains(&NULL_ID))
    };
    has_nulls(left) || has_nulls(right)
}

/// Column bookkeeping shared by the compatibility joins: shared-column
/// index pairs, the merged output schema, and the right-only column
/// indices.
struct CompatShape {
    shared_idx: Vec<(usize, usize)>,
    schema: Schema,
    right_extra: Vec<usize>,
}

fn compat_shape(left: &Table, right: &Table) -> CompatShape {
    let shared = left.schema().common_columns(right.schema());
    let shared_idx: Vec<(usize, usize)> = shared
        .iter()
        .map(|c| {
            (
                left.schema().index_of(c).unwrap(),
                right.schema().index_of(c).unwrap(),
            )
        })
        .collect();
    let mut names: Vec<String> = left
        .schema()
        .names()
        .iter()
        .map(|c| c.to_string())
        .collect();
    let right_extra: Vec<usize> = right
        .schema()
        .names()
        .iter()
        .enumerate()
        .filter(|(_, c)| !left.schema().contains(c))
        .map(|(i, c)| {
            names.push(c.to_string());
            i
        })
        .collect();
    CompatShape {
        shared_idx,
        schema: Schema::new(names),
        right_extra,
    }
}

/// SPARQL §2.1 compatibility: mappings agree on the variables *bound in
/// both*; NULL (unbound) on either side of a shared column matches
/// anything.
fn rows_compatible(left: &Table, lr: usize, right: &Table, rr: usize, shape: &CompatShape) -> bool {
    shape.shared_idx.iter().all(|&(lc, rc)| {
        let (lv, rv) = (left.value(lr, lc), right.value(rr, rc));
        lv == NULL_ID || rv == NULL_ID || lv == rv
    })
}

/// Merges a compatible row pair: left bindings win where bound, unbound
/// shared columns take the right side's binding, right-only columns append.
fn push_compat_row(
    out: &mut Table,
    left: &Table,
    lr: usize,
    right: &Table,
    rr: usize,
    shape: &CompatShape,
) {
    let mut row: Vec<u32> = (0..left.schema().len())
        .map(|c| {
            let lv = left.value(lr, c);
            if lv != NULL_ID {
                return lv;
            }
            // Take the right side's binding for shared columns the left
            // leaves unbound.
            match shape.shared_idx.iter().find(|&&(lc, _)| lc == c) {
                Some(&(_, rc)) => right.value(rr, rc),
                None => NULL_ID,
            }
        })
        .collect();
    row.extend(shape.right_extra.iter().map(|&c| right.value(rr, c)));
    out.push_row(&row);
}

/// Join under full SPARQL compatibility semantics (§2.1: two mappings are
/// compatible iff they agree on the variables *bound in both*): a
/// nested-loop join where NULL on either side of a shared column matches
/// anything and the merged value is the bound one. Only used when shared
/// columns actually contain NULLs — after UNION branches with disjoint
/// variables — so inputs are small.
pub fn compat_join(left: &Table, right: &Table) -> Table {
    let shape = compat_shape(left, right);
    let mut out = Table::empty(shape.schema.clone());
    for lr in 0..left.num_rows() {
        for rr in 0..right.num_rows() {
            if rows_compatible(left, lr, right, rr, &shape) {
                push_compat_row(&mut out, left, lr, right, rr, &shape);
            }
        }
    }
    out
}

/// Left outer join under full SPARQL compatibility semantics: like
/// [`compat_join`], but a left row with no compatible right row survives
/// once, with right-only columns padded to [`NULL_ID`].
///
/// This is the OPTIONAL counterpart of the NULL-compatibility fallback:
/// `ops::left_outer_join` hash-joins shared columns and would treat an
/// unbound (`NULL_ID`) shared variable on the left — possible when the
/// OPTIONAL's left input comes from UNION or a nested OPTIONAL — as a
/// literal key, silently dropping or mismatching rows.
pub fn compat_left_outer_join(left: &Table, right: &Table) -> Table {
    let shape = compat_shape(left, right);
    let mut out = Table::empty(shape.schema.clone());
    for lr in 0..left.num_rows() {
        let mut matched = false;
        for rr in 0..right.num_rows() {
            if rows_compatible(left, lr, right, rr, &shape) {
                push_compat_row(&mut out, left, lr, right, rr, &shape);
                matched = true;
            }
        }
        if !matched {
            let mut row: Vec<u32> = (0..left.schema().len())
                .map(|c| left.value(lr, c))
                .collect();
            row.extend(std::iter::repeat_n(NULL_ID, shape.right_extra.len()));
            out.push_row(&row);
        }
    }
    out
}

/// Applies a FILTER to a solution table. Rows whose condition errors (type
/// error / unbound) are dropped, per SPARQL semantics.
///
/// Evaluation is split into morsels on the shared worker pool: expression
/// evaluation is row-independent, so each morsel tests its row range in
/// parallel and the survivors are gathered once at the end.
pub fn filter_table(
    table: &Table,
    expr: &Expression,
    ctx: &mut ExecContext<'_>,
) -> Result<Table, CoreError> {
    ctx.check_deadline()?;
    let dict = ctx.dict;
    let overlay = ctx.overlay();
    let morsel_rows = ctx.options.join.morsel_rows;
    Ok(s2rdf_columnar::pipeline::parallel_filter(
        table,
        |t, row| {
            let lookup = |var: &str| -> Option<&Term> {
                let col = t.schema().index_of(var)?;
                ExecContext::term_at(dict, overlay, t.value(row, col))
            };
            matches!(expr.eval(&lookup).and_then(|v| v.ebv()), Ok(true))
        },
        morsel_rows,
    ))
}

/// Evaluates a full SELECT query: optimize, evaluate the pattern, then
/// apply ORDER BY → projection → DISTINCT → LIMIT/OFFSET and decode.
pub fn eval_query(
    ev: &dyn BgpEvaluator,
    query: &Query,
    ctx: &mut ExecContext<'_>,
) -> Result<Solutions, CoreError> {
    if !query.is_aggregate() {
        let table = eval_query_table(ev, query, ctx)?;
        return Ok(decode(&table, ctx));
    }
    // Aggregation path (SPARQL 1.1): group + aggregate on the binding
    // table, then apply the solution modifiers on the decoded rows.
    let mut query = query.clone();
    optimizer::optimize(&mut query);
    let table = eval_pattern(ev, &query.pattern, ctx)?;
    let mut solutions = super::aggregate::aggregate_table(&table, &query, ctx)?;
    super::aggregate::apply_modifiers(&mut solutions, &query);
    ctx.check_deadline()?;
    Ok(solutions)
}

/// The id-level part of [`eval_query`] for a query without aggregation:
/// optimize, evaluate the pattern, then apply ORDER BY → projection →
/// DISTINCT → LIMIT/OFFSET. The result has one column per projected
/// variable and still holds dictionary ids; forms that need no decoded
/// solutions (ASK, CONSTRUCT, DESCRIBE) consume it directly.
pub(crate) fn eval_query_table(
    ev: &dyn BgpEvaluator,
    query: &Query,
    ctx: &mut ExecContext<'_>,
) -> Result<Table, CoreError> {
    if query.is_aggregate() {
        return Err(CoreError::Unsupported(
            "GROUP BY/aggregates are only supported with SELECT".into(),
        ));
    }
    let mut query = query.clone();
    optimizer::optimize(&mut query);
    let mut table = eval_pattern(ev, &query.pattern, ctx)?;

    if !query.order_by.is_empty() {
        table = order_table(&table, &query.order_by, ctx)?;
    }

    let vars = query.projected_vars();
    let mut table = project_to_vars(&table, &vars);

    if query.distinct {
        table = ops::distinct(&table);
    }
    if query.offset.is_some() || query.limit.is_some() {
        table = ops::slice(&table, query.offset.unwrap_or(0), query.limit);
    }

    ctx.check_deadline()?;
    Ok(table)
}

/// Projects a solution table to the given variables, adding an all-NULL
/// column for variables the pattern never binds.
fn project_to_vars(table: &Table, vars: &[String]) -> Table {
    let n = table.num_rows();
    if vars.is_empty() {
        // Zero-column tables cannot carry a row count; keep the solution
        // count in a unit column (e.g. `SELECT * { <a> <p> <b> }`).
        return Table::from_columns(Schema::new([UNIT_COL]), vec![vec![0; n]]);
    }
    let cols: Vec<Vec<u32>> = vars
        .iter()
        .map(|v| match table.schema().index_of(v) {
            Some(idx) => table.column(idx).to_vec(),
            None => vec![NULL_ID; n],
        })
        .collect();
    Table::from_columns(Schema::new(vars.iter().cloned()), cols)
}

/// ORDER BY: precomputes per-row sort keys (decoded terms / evaluated
/// expressions) and sorts stably. Unbound/error keys sort first, per
/// SPARQL's ordering of unbound before bound.
fn order_table(
    table: &Table,
    conditions: &[s2rdf_sparql::OrderCondition],
    ctx: &mut ExecContext<'_>,
) -> Result<Table, CoreError> {
    ctx.check_deadline()?;
    let dict = ctx.dict;
    let overlay = ctx.overlay();
    // Fast path: when every condition is a plain variable bound by the
    // pattern (`ORDER BY ?a DESC(?b) …`), each column sorts by a per-id
    // rank, so the O(n·k) composite radix sort replaces the O(n log n)
    // comparison sort. Expression conditions (and variables the pattern
    // never binds, which need the unbound-first rule relative to
    // expression results) fall through to the general path below.
    let var_cols: Option<Vec<(usize, bool)>> = conditions
        .iter()
        .map(|cond| match &cond.expr {
            Expression::Var(v) => table.schema().index_of(v).map(|col| (col, cond.descending)),
            _ => None,
        })
        .collect();
    if let Some(var_cols) = var_cols {
        let keys: Vec<Vec<u32>> = var_cols
            .iter()
            .map(|&(col, descending)| rank_keys(table, col, descending, dict, overlay))
            .collect();
        return Ok(ops::sort_by_keys_radix(table, &keys));
    }
    let mut keys: Vec<Vec<Option<Term>>> = Vec::with_capacity(table.num_rows());
    for row in 0..table.num_rows() {
        let lookup = |var: &str| -> Option<&Term> {
            let col = table.schema().index_of(var)?;
            ExecContext::term_at(dict, overlay, table.value(row, col))
        };
        let row_keys = conditions
            .iter()
            .map(|c| c.expr.eval(&lookup).ok().and_then(value_to_term))
            .collect();
        keys.push(row_keys);
    }
    Ok(ops::sort_by(table, |a, b| {
        for (cond, (ka, kb)) in conditions.iter().zip(keys[a].iter().zip(&keys[b])) {
            let ord = match (ka, kb) {
                (None, None) => Ordering::Equal,
                (None, Some(_)) => Ordering::Less,
                (Some(_), None) => Ordering::Greater,
                (Some(x), Some(y)) => x.value_cmp(y),
            };
            let ord = if cond.descending { ord.reverse() } else { ord };
            if ord != Ordering::Equal {
                return ord;
            }
        }
        Ordering::Equal
    }))
}

/// Per-row radix key for one ORDER BY variable: the column's distinct ids
/// are ranked by SPARQL value order (unbound first), with value-equal terms
/// collapsed onto one rank so ties keep input order exactly as the stable
/// comparison sort would; DESC negates the ranks, which reverses the total
/// order while preserving stability. One key vector per condition feeds
/// [`ops::sort_by_keys_radix`].
fn rank_keys(
    table: &Table,
    col: usize,
    descending: bool,
    dict: &Dictionary,
    overlay: &[Term],
) -> Vec<u32> {
    let column = table.column(col);
    let mut distinct: Vec<u32> = column.to_vec();
    distinct.sort_unstable();
    distinct.dedup();
    let term_of = |id: u32| -> Option<&Term> { ExecContext::term_at(dict, overlay, id) };
    let cmp = |a: Option<&Term>, b: Option<&Term>| match (a, b) {
        (None, None) => Ordering::Equal,
        (None, Some(_)) => Ordering::Less,
        (Some(_), None) => Ordering::Greater,
        (Some(x), Some(y)) => x.value_cmp(y),
    };
    distinct.sort_by(|&a, &b| cmp(term_of(a), term_of(b)));
    let mut rank_of: FxHashMap<u32, u32> = FxHashMap::default();
    rank_of.reserve(distinct.len());
    let mut rank = 0u32;
    let mut prev: Option<u32> = None;
    for &id in &distinct {
        if let Some(p) = prev {
            if cmp(term_of(p), term_of(id)) != Ordering::Equal {
                rank += 1;
            }
        }
        rank_of.insert(id, if descending { !rank } else { rank });
        prev = Some(id);
    }
    column.iter().map(|v| rank_of[v]).collect()
}

fn format_number(n: f64) -> String {
    if n.fract() == 0.0 && n.abs() < 1e15 {
        format!("{}", n as i64)
    } else {
        format!("{n}")
    }
}

/// Converts an expression [`Value`] to a sortable/aggregatable term.
pub(crate) fn value_to_term(value: Value) -> Option<Term> {
    match value {
        Value::Term(t) => Some(t),
        Value::Bool(b) => Some(Term::literal(if b { "true" } else { "false" })),
        Value::Number(n) => Some(Term::typed_literal(
            format_number(n),
            "http://www.w3.org/2001/XMLSchema#decimal",
        )),
        Value::String(s) => Some(Term::literal(s)),
    }
}

/// Decodes a solution table to terms, skipping internal columns.
///
/// A cell is a shared-string [`Term`] clone, so decoding copies no text.
fn decode(table: &Table, ctx: &ExecContext<'_>) -> Solutions {
    let mut vars = Vec::new();
    let mut cols = Vec::new();
    for (idx, name) in table.schema().names().iter().enumerate() {
        if name.starts_with('#') {
            continue;
        }
        vars.push(name.to_string());
        cols.push(idx);
    }
    let rows = (0..table.num_rows())
        .map(|row| {
            cols.iter()
                .map(|&c| ctx.term_of(table.value(row, c)).cloned())
                .collect()
        })
        .collect();
    Solutions { vars, rows }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::QueryOptions;
    use s2rdf_model::Dictionary;

    /// A trivial evaluator over a fixed solution table, for exercising the
    /// operator plumbing without a store.
    struct Fixed {
        dict: Dictionary,
        table: Table,
    }

    impl BgpEvaluator for Fixed {
        fn dict(&self) -> &Dictionary {
            &self.dict
        }
        fn eval_bgp(
            &self,
            bgp: &[s2rdf_sparql::TriplePattern],
            _ctx: &mut ExecContext<'_>,
        ) -> Result<Table, CoreError> {
            // Expose the fixed rows under the first pattern's variable
            // names, so different BGPs bind different variables (the union
            // test relies on this).
            let vars: Vec<String> = bgp[0].vars().iter().map(|v| v.to_string()).collect();
            assert_eq!(vars.len(), 2, "fixture supports two-variable patterns");
            Ok(self.table.clone().with_schema(Schema::new(vars)))
        }
    }

    fn fixture() -> Fixed {
        let mut dict = Dictionary::new();
        let ids: Vec<u32> = (0..4).map(|i| dict.intern(&Term::integer(i)).0).collect();
        let table = Table::from_rows(
            Schema::new(["x", "y"]),
            &[[ids[0], ids[3]], [ids[1], ids[2]], [ids[2], ids[1]]],
        );
        Fixed { dict, table }
    }

    fn run(q: &str, f: &Fixed) -> Solutions {
        let query = s2rdf_sparql::parse_query(q).unwrap();
        let mut ctx = ExecContext::new(&f.dict, QueryOptions::default());
        eval_query(f, &query, &mut ctx).unwrap()
    }

    #[test]
    fn filter_drops_rows() {
        let f = fixture();
        let s = run("SELECT * WHERE { ?x <p> ?y FILTER(?x < 2) }", &f);
        assert_eq!(s.len(), 2);
    }

    #[test]
    fn order_by_numeric() {
        let f = fixture();
        let s = run("SELECT ?x WHERE { ?x <p> ?y } ORDER BY DESC(?y)", &f);
        let xs: Vec<i64> = (0..s.len())
            .map(|i| s.binding(i, "x").unwrap().numeric_value().unwrap() as i64)
            .collect();
        assert_eq!(xs, vec![0, 1, 2]);
    }

    #[test]
    fn order_by_multi_key_mixed_directions() {
        // Primary-key ties force the secondary condition to decide, with
        // opposite directions per key (the composite radix fast path).
        let mut dict = Dictionary::new();
        let ids: Vec<u32> = (0..4).map(|i| dict.intern(&Term::integer(i)).0).collect();
        let table = Table::from_rows(
            Schema::new(["x", "y"]),
            &[
                [ids[1], ids[0]],
                [ids[0], ids[1]],
                [ids[1], ids[2]],
                [ids[0], ids[3]],
            ],
        );
        let f = Fixed { dict, table };
        let s = run("SELECT ?x ?y WHERE { ?x <p> ?y } ORDER BY ?x DESC(?y)", &f);
        let pairs: Vec<(i64, i64)> = (0..s.len())
            .map(|i| {
                (
                    s.binding(i, "x").unwrap().numeric_value().unwrap() as i64,
                    s.binding(i, "y").unwrap().numeric_value().unwrap() as i64,
                )
            })
            .collect();
        assert_eq!(pairs, vec![(0, 3), (0, 1), (1, 2), (1, 0)]);
    }

    #[test]
    fn limit_offset() {
        let f = fixture();
        let s = run(
            "SELECT ?x WHERE { ?x <p> ?y } ORDER BY ?x LIMIT 1 OFFSET 1",
            &f,
        );
        assert_eq!(s.len(), 1);
        assert_eq!(s.binding(0, "x").unwrap().numeric_value(), Some(1.0));
    }

    #[test]
    fn projection_of_unbound_var() {
        let f = fixture();
        let s = run("SELECT ?x ?nope WHERE { ?x <p> ?y } LIMIT 1", &f);
        assert_eq!(s.vars, vec!["x", "nope"]);
        assert_eq!(s.binding(0, "nope"), None);
    }

    #[test]
    fn distinct_after_projection() {
        let f = fixture();
        // All three rows project onto a single constant after dropping ?x/?y.
        let s = run("SELECT DISTINCT ?z WHERE { ?x <p> ?y }", &f);
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn empty_group_yields_unit() {
        let f = fixture();
        let s = run("SELECT ?z WHERE { }", &f);
        assert_eq!(s.len(), 1);
        assert_eq!(s.binding(0, "z"), None);
    }

    #[test]
    fn union_join_uses_compatibility_semantics() {
        // { {?x p ?y} UNION {?z p ?w} } joined with ?x p ?y: the right
        // union branch binds neither ?x nor ?y, so its rows are compatible
        // with every row of the second pattern and inherit its bindings.
        let f = fixture(); // table has 3 rows over (x, y)
        let s = run(
            "SELECT ?x ?y ?z WHERE { { ?x <p> ?y } UNION { ?z <p> ?w } ?x <p> ?y }",
            &f,
        );
        // Left branch: 3 rows join with themselves on (x, y) → 3.
        // Right branch: 3 rows (z, w) × 3 rows (x, y), all compatible → 9.
        assert_eq!(s.len(), 12);
        // Every solution has ?x bound (from the mandatory second pattern).
        for i in 0..s.len() {
            assert!(s.binding(i, "x").is_some());
        }
        // And the right-branch rows carry ?z bindings.
        let with_z = (0..s.len())
            .filter(|&i| s.binding(i, "z").is_some())
            .count();
        assert_eq!(with_z, 9);
    }

    #[test]
    fn optional_after_union_uses_compatibility_semantics() {
        // Regression test for the OPTIONAL NULL-join bug: LeftJoin used to
        // call ops::left_outer_join unconditionally, so a left input whose
        // shared variable ?x is unbound (the right UNION branch binds only
        // ?z/?w) hash-joined NULL_ID as a literal key and the unbound rows
        // never inherited the OPTIONAL's bindings. With the pre-fix path
        // this query returns 6 solutions (3 of them padded); the
        // compatibility semantics require 12, all with ?v bound.
        let f = fixture();
        let s = run(
            "SELECT * WHERE { { ?x <p> ?y } UNION { ?z <p> ?w } OPTIONAL { ?x <p> ?v } }",
            &f,
        );
        // Left branch: 3 rows, each ?x matches exactly one (x, v) row → 3.
        // Right branch: 3 rows with ?x unbound, compatible with all 3
        // OPTIONAL rows → 9.
        assert_eq!(s.len(), 12);
        for i in 0..s.len() {
            assert!(
                s.binding(i, "v").is_some(),
                "row {i}: OPTIONAL must bind ?v for every compatible row"
            );
        }
        let with_z = (0..s.len())
            .filter(|&i| s.binding(i, "z").is_some())
            .count();
        assert_eq!(with_z, 9);
    }

    #[test]
    fn compat_left_outer_join_matches_definition_and_differs_from_hash_path() {
        use s2rdf_columnar::exec::row_multiset;
        const N: u32 = NULL_ID;
        let left = Table::from_rows(Schema::new(["x", "y"]), &[[1, 10], [N, 11], [2, 12]]);
        let right = Table::from_rows(Schema::new(["x", "v"]), &[[1, 20], [3, 21]]);
        let out = compat_left_outer_join(&left, &right);
        let expected = vec![
            vec![1, 10, 20], // bound match
            vec![1, 11, 20], // unbound ?x: compatible with both right rows,
            vec![3, 11, 21], //   inheriting the right side's ?x binding
            vec![2, 12, N],  // no compatible right row: padded
        ];
        let mut expected_sorted = expected;
        expected_sorted.sort_unstable();
        assert_eq!(row_multiset(&out), expected_sorted);
        // The plain hash-based left outer join gives a different (wrong)
        // answer on this input — the bug this path guards against.
        let buggy = ops::left_outer_join(&left, &right);
        assert_ne!(row_multiset(&buggy), row_multiset(&out));
        assert_eq!(buggy.num_rows(), 3, "hash path drops the NULL-x matches");
    }

    #[test]
    fn compat_left_outer_equals_hash_left_outer_without_nulls() {
        let left = Table::from_rows(Schema::new(["x", "y"]), &[[1, 10], [2, 12], [9, 13]]);
        let right = Table::from_rows(Schema::new(["x", "v"]), &[[1, 20], [1, 21], [3, 22]]);
        use s2rdf_columnar::exec::row_multiset;
        assert_eq!(
            row_multiset(&compat_left_outer_join(&left, &right)),
            row_multiset(&ops::left_outer_join(&left, &right))
        );
    }

    #[test]
    fn profile_collects_span_tree() {
        let f = fixture();
        let query = s2rdf_sparql::parse_query(
            "SELECT * WHERE { { ?x <p> ?y } UNION { ?z <p> ?w } ?x <p> ?y }",
        )
        .unwrap();
        let mut ctx = ExecContext::new(
            &f.dict,
            QueryOptions {
                profile: true,
                ..Default::default()
            },
        );
        eval_query(&f, &query, &mut ctx).unwrap();
        let trace = ctx.explain.trace.as_ref().expect("profiling enabled");
        let labels: Vec<&str> = trace.nodes().iter().map(|n| n.label.as_str()).collect();
        assert!(labels.contains(&"join"), "{labels:?}");
        assert!(labels.contains(&"union"), "{labels:?}");
        assert!(labels.contains(&"bgp"), "{labels:?}");
        let rendered = trace.render();
        assert!(rendered.contains("µs"), "{rendered}");
        // Without profiling, no trace is collected.
        let mut ctx = ExecContext::new(&f.dict, QueryOptions::default());
        eval_query(&f, &query, &mut ctx).unwrap();
        assert!(ctx.explain.trace.is_none());
    }

    #[test]
    fn deadline_aborts() {
        let f = fixture();
        let query = s2rdf_sparql::parse_query("SELECT * WHERE { ?x <p> ?y }").unwrap();
        let mut ctx = ExecContext::new(
            &f.dict,
            QueryOptions {
                deadline: Some(std::time::Instant::now() - std::time::Duration::from_secs(1)),
                ..Default::default()
            },
        );
        match eval_query(&f, &query, &mut ctx) {
            Err(CoreError::Timeout) => {}
            other => panic!("expected timeout, got {other:?}"),
        }
    }
}
