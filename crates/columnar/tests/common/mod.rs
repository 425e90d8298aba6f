//! The nested-loop natural join every join test is checked against.

use s2rdf_columnar::Table;

/// Naive nested-loop natural join on every shared column name (a cross
/// product when there is none): the left row followed by the right
/// non-shared columns, as a sorted multiset of rows.
pub fn reference_join(left: &Table, right: &Table) -> Vec<Vec<u32>> {
    let shared: Vec<(usize, usize)> = right
        .schema()
        .names()
        .iter()
        .enumerate()
        .filter_map(|(r, name)| Some((left.schema().index_of(name)?, r)))
        .collect();
    let mut out = Vec::new();
    for l in 0..left.num_rows() {
        for r in 0..right.num_rows() {
            if shared
                .iter()
                .all(|&(lc, rc)| left.value(l, lc) == right.value(r, rc))
            {
                let mut row = left.row_vec(l);
                for c in 0..right.schema().len() {
                    if !shared.iter().any(|&(_, rc)| rc == c) {
                        row.push(right.value(r, c));
                    }
                }
                out.push(row);
            }
        }
    }
    out.sort();
    out
}
