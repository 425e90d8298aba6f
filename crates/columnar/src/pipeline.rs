//! Morsel-driven pipelines: row-independent work cut into
//! [`crate::exec::JoinConfig::morsel_rows`]-sized ranges on the persistent
//! worker pool ([`crate::pool`]), the shared-memory analogue of Spark
//! running one task per partition of a stage.
//!
//! [`morsel_ranges`] cuts the ranges: the join kernel ([`crate::ops`])
//! probes one per task, and [`parallel_filter`] tests one per task, then
//! gathers the survivors once.

use crate::metric_counter;
use crate::ops;
use crate::pool;
use crate::table::Table;

/// Minimum table size for which cutting morsels (and paying task overhead)
/// is worthwhile; below it the serial operators run directly.
pub const MIN_PARALLEL_ROWS: usize = 4096;

/// Splits `0..n` into `morsel_rows`-sized ranges (at least one when
/// `n > 0`).
pub fn morsel_ranges(n: usize, morsel_rows: usize) -> Vec<std::ops::Range<usize>> {
    let step = morsel_rows.max(1);
    (0..n.div_ceil(step))
        .map(|m| m * step..((m + 1) * step).min(n))
        .collect()
}

/// Morsel-parallel row filter: evaluates `pred` over `morsel_rows`-sized
/// ranges on the worker pool, then gathers the surviving rows once (the
/// sink). Semantics and row order match [`ops::filter`]; small inputs run
/// it directly. Used by FILTER evaluation in the core engine, where `pred`
/// decodes dictionary terms and is the expensive part.
pub fn parallel_filter<P>(table: &Table, pred: P, morsel_rows: usize) -> Table
where
    P: Fn(&Table, usize) -> bool + Sync,
{
    let n = table.num_rows();
    if n < MIN_PARALLEL_ROWS || pool::current().workers() <= 1 {
        return ops::filter(table, pred);
    }
    let ranges = morsel_ranges(n, morsel_rows);
    metric_counter!("columnar.pipeline.morsels").add(ranges.len() as u64);
    let pred = &pred;
    let tasks: Vec<_> = ranges
        .into_iter()
        .map(|range| {
            move |_worker: usize| range.filter(|&i| pred(table, i)).collect::<Vec<usize>>()
        })
        .collect();
    let lists = pool::current().run(tasks);
    let indices: Vec<usize> = lists.concat();
    metric_counter!("columnar.filter.calls").inc();
    metric_counter!("columnar.filter.in_rows").add(n as u64);
    metric_counter!("columnar.filter.out_rows").add(indices.len() as u64);
    table.gather(&indices)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::row_multiset;
    use crate::schema::Schema;

    fn random_table(schema: &[&str], n: usize, card: u32, seed: u64) -> Table {
        let mut state = seed.wrapping_add(0x853c49e6748fea9b);
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 33) as u32) % card
        };
        let rows: Vec<Vec<u32>> = (0..n)
            .map(|_| (0..schema.len()).map(|_| next()).collect())
            .collect();
        Table::from_rows(Schema::new(schema.iter().map(|s| s.to_string())), &rows)
    }

    #[test]
    fn parallel_filter_matches_serial() {
        let t = random_table(&["a", "b"], 25_000, 100, 11);
        let pred = |t: &Table, i: usize| t.value(i, 0).is_multiple_of(3);
        let serial = ops::filter(&t, pred);
        let par = parallel_filter(&t, pred, 1000);
        assert_eq!(par.num_rows(), serial.num_rows());
        assert_eq!(row_multiset(&par), row_multiset(&serial));
        // Order is preserved too (morsels are concatenated in range order).
        assert_eq!(par.column(0), serial.column(0));
    }

    #[test]
    fn morsel_ranges_cover_exactly() {
        assert_eq!(morsel_ranges(0, 10).len(), 0);
        assert_eq!(morsel_ranges(10, 3), vec![0..3, 3..6, 6..9, 9..10]);
        assert_eq!(morsel_ranges(5, 100), vec![0..5]);
    }
}
