//! Hash joins: inner (natural), semi, and left outer.
//!
//! Every inner join runs one kernel: a [`JoinIndex`] over the smaller
//! input, probed by the larger one in `morsel_rows`-sized ranges on the
//! worker pool ([`crate::pool`]). Each range yields `(left_row, right_row)`
//! pairs in probe-row order, and one sink ([`write_pairs`]) gathers every
//! output column from them into disjoint slices of one pre-sized table. A
//! probe that fits in one morsel runs inline on the caller, and the output
//! row order is the same at every morsel size and worker count.
//!
//! Join keys of one or two columns fold exactly into a `u64` (the common
//! case in SPARQL BGPs); wider keys are matched as `Vec<u32>`, reusing one
//! scratch buffer across probe rows.
//!
//! Every operator records once-per-call metrics (build/probe/output rows
//! and wall time) into the global [`crate::metrics`] registry — the
//! shared-memory analogue of Spark's per-stage shuffle read/write stats.

use std::ops::Range;

use rustc_hash::{FxHashMap, FxHashSet};

use crate::metrics::SpanTimer;
use crate::pipeline::morsel_ranges;
use crate::pool;
use crate::schema::Schema;
use crate::table::{Table, NULL_ID};
use crate::{metric_counter, metric_histogram};

/// Right row of a left-outer miss in a pair list: [`write_pairs`] writes
/// [`NULL_ID`] for its right columns.
const NO_ROW: u32 = u32::MAX;

/// The exact `u64` fold of a 1–2-column join key, read row by row.
struct NarrowKey<'a>(&'a [u32], Option<&'a [u32]>);

impl<'a> NarrowKey<'a> {
    fn new(table: &'a Table, keys: &[usize]) -> Self {
        NarrowKey(table.column(keys[0]), keys.get(1).map(|&k| table.column(k)))
    }

    #[inline]
    fn at(&self, row: usize) -> u64 {
        match self.1 {
            None => self.0[row] as u64,
            Some(second) => ((self.0[row] as u64) << 32) | second[row] as u64,
        }
    }
}

/// Hash index from a join key to the (ascending) build rows holding it.
pub(crate) enum JoinIndex {
    /// Keys of one or two columns, folded exactly into a `u64`.
    Narrow(FxHashMap<u64, Vec<u32>>),
    /// Keys of three or more columns.
    Wide(FxHashMap<Vec<u32>, Vec<u32>>),
}

impl JoinIndex {
    /// Indexes every row of `table` by its `keys` columns.
    fn build(table: &Table, keys: &[usize]) -> JoinIndex {
        let index = if keys.len() <= 2 {
            let key = NarrowKey::new(table, keys);
            let mut map: FxHashMap<u64, Vec<u32>> = FxHashMap::default();
            map.reserve(table.num_rows());
            for row in 0..table.num_rows() {
                map.entry(key.at(row)).or_default().push(row as u32);
            }
            JoinIndex::Narrow(map)
        } else {
            let mut map: FxHashMap<Vec<u32>, Vec<u32>> = FxHashMap::default();
            for row in 0..table.num_rows() {
                let key: Vec<u32> = keys.iter().map(|&k| table.value(row, k)).collect();
                map.entry(key).or_default().push(row as u32);
            }
            JoinIndex::Wide(map)
        };
        metric_counter!("columnar.join.build_distinct_keys").add(index.num_keys() as u64);
        index
    }

    fn num_keys(&self) -> usize {
        match self {
            JoinIndex::Narrow(map) => map.len(),
            JoinIndex::Wide(map) => map.len(),
        }
    }

    /// Calls `f(row, matches)` for every row of `rows` of `probe`, in order;
    /// `matches` is empty when the row's key is not in the index.
    fn for_each_match(
        &self,
        probe: &Table,
        probe_keys: &[usize],
        rows: Range<usize>,
        mut f: impl FnMut(u32, &[u32]),
    ) {
        match self {
            JoinIndex::Narrow(map) => {
                let key = NarrowKey::new(probe, probe_keys);
                for row in rows {
                    f(row as u32, map.get(&key.at(row)).map_or(&[], Vec::as_slice));
                }
            }
            JoinIndex::Wide(map) => {
                let mut scratch: Vec<u32> = Vec::with_capacity(probe_keys.len());
                for row in rows {
                    scratch.clear();
                    scratch.extend(probe_keys.iter().map(|&k| probe.value(row, k)));
                    f(row as u32, map.get(&scratch).map_or(&[], Vec::as_slice));
                }
            }
        }
    }
}

/// Output schema of a join: all left columns plus the right columns that are
/// not join keys. Panics on residual name collisions (the compiler never
/// produces them).
fn join_schema(left: &Table, right: &Table, right_keys: &[usize]) -> (Schema, Vec<usize>) {
    let mut names: Vec<String> = left
        .schema()
        .names()
        .iter()
        .map(|c| c.to_string())
        .collect();
    let mut right_payload = Vec::new();
    for (idx, name) in right.schema().names().iter().enumerate() {
        if right_keys.contains(&idx) {
            continue;
        }
        assert!(
            !left.schema().contains(name),
            "non-key column name collision in join: {name}"
        );
        names.push(name.to_string());
        right_payload.push(idx);
    }
    (Schema::new(names), right_payload)
}

/// Positions of the columns `left` and `right` share, in `left`'s order.
fn shared_keys(left: &Table, right: &Table) -> (Vec<usize>, Vec<usize>) {
    left.schema()
        .common_columns(right.schema())
        .iter()
        .map(|c| {
            (
                left.schema().index_of(c).unwrap(),
                right.schema().index_of(c).unwrap(),
            )
        })
        .unzip()
}

/// The inner-join kernel: probes the build side's `index` with the other
/// side in `morsel_rows`-sized ranges on the worker pool and writes the
/// matches in probe-row order. The output is the left columns followed by
/// the right non-key columns.
fn join_on_index(
    left: (&Table, &[usize]),
    right: (&Table, &[usize]),
    index: &JoinIndex,
    build_is_left: bool,
    morsel_rows: usize,
) -> Table {
    let _span = SpanTimer::start(metric_histogram!("columnar.join.wall_micros"));
    let ((left, left_keys), (right, right_keys)) = (left, right);
    let (schema, right_payload) = join_schema(left, right, right_keys);
    let (build, probe, probe_keys) = if build_is_left {
        (left, right, right_keys)
    } else {
        (right, left, left_keys)
    };
    // An empty build side matches nothing: skip the probe.
    let probe_rows = if build.is_empty() {
        0
    } else {
        probe.num_rows()
    };
    let ranges = morsel_ranges(probe_rows, morsel_rows);
    if ranges.len() > 1 {
        metric_counter!("columnar.join.broadcast_joins").inc();
        metric_counter!("columnar.pool.morsels").add(ranges.len() as u64);
    }
    let tasks: Vec<_> = ranges
        .into_iter()
        .map(|rows| {
            move |_worker: usize| {
                let mut pairs: Vec<(u32, u32)> = Vec::new();
                index.for_each_match(probe, probe_keys, rows, |p, matches| {
                    if build_is_left {
                        pairs.extend(matches.iter().map(|&b| (b, p)));
                    } else {
                        pairs.extend(matches.iter().map(|&b| (p, b)));
                    }
                });
                pairs
            }
        })
        .collect();
    let pair_lists = pool::current().run(tasks);
    let out = write_pairs(
        schema,
        left,
        right,
        &right_payload,
        &pair_lists,
        morsel_rows,
    );
    metric_counter!("columnar.join.calls").inc();
    metric_counter!("columnar.join.build_rows").add(build.num_rows() as u64);
    metric_counter!("columnar.join.probe_rows").add(probe.num_rows() as u64);
    metric_counter!("columnar.join.out_rows").add(out.num_rows() as u64);
    out
}

/// The join sink: gathers the left columns and the `right_payload` columns
/// of every `(left_row, right_row)` pair into one pre-sized table, in pair
/// order. The pair lists are cut into `morsel_rows` chunks, each owning
/// disjoint slices of the output (chained `split_at_mut`), and the chunks
/// gather on the worker pool — no reassembly, no `concat`. A right row of
/// [`NO_ROW`] writes [`NULL_ID`].
fn write_pairs(
    schema: Schema,
    left: &Table,
    right: &Table,
    right_payload: &[usize],
    pair_lists: &[Vec<(u32, u32)>],
    morsel_rows: usize,
) -> Table {
    let total: usize = pair_lists.iter().map(Vec::len).sum();
    let ncols = schema.len();
    let left_ncols = left.schema().len();
    let mut cols: Vec<Vec<u32>> = (0..ncols).map(|_| vec![0u32; total]).collect();
    let chunks: Vec<&[(u32, u32)]> = pair_lists
        .iter()
        .flat_map(|p| p.chunks(morsel_rows.max(1)))
        .collect();
    let mut per_chunk: Vec<Vec<&mut [u32]>> =
        chunks.iter().map(|_| Vec::with_capacity(ncols)).collect();
    for col in &mut cols {
        let mut rest: &mut [u32] = col.as_mut_slice();
        for (t, chunk) in chunks.iter().enumerate() {
            let (head, tail) = rest.split_at_mut(chunk.len());
            per_chunk[t].push(head);
            rest = tail;
        }
    }
    let tasks: Vec<_> = per_chunk
        .into_iter()
        .zip(&chunks)
        .map(|(slices, &pairs)| {
            move |_worker: usize| {
                for (c, out_col) in slices.into_iter().enumerate() {
                    if c < left_ncols {
                        let src = left.column(c);
                        for (j, &(lr, _)) in pairs.iter().enumerate() {
                            out_col[j] = src[lr as usize];
                        }
                    } else {
                        let src = right.column(right_payload[c - left_ncols]);
                        for (j, &(_, rr)) in pairs.iter().enumerate() {
                            out_col[j] = src.get(rr as usize).copied().unwrap_or(NULL_ID);
                        }
                    }
                }
            }
        })
        .collect();
    pool::current().run(tasks);
    Table::from_columns(schema, cols)
}

/// A reusable build-side hash index for [`hash_join_probe`].
///
/// Engines evaluate left-deep BGP plans where consecutive triple patterns
/// often share the same join variable (star-shaped queries around one
/// subject are the common case in WatDiv and the paper's workloads). The
/// build side of those joins can be indexed once and probed by every
/// subsequent pattern — the shared-memory analogue of Spark reusing one
/// broadcast relation across consecutive stages. The index remembers the
/// key-column positions it was built on so stale reuse fails loudly.
pub struct BuildIndex {
    index: JoinIndex,
    keys: Vec<usize>,
}

impl BuildIndex {
    /// Key column positions (in the build-side table) the index covers.
    pub fn key_positions(&self) -> &[usize] {
        &self.keys
    }

    /// Number of distinct join keys in the index.
    pub fn num_keys(&self) -> usize {
        self.index.num_keys()
    }
}

/// Builds a hash index over `keys` (at least one) of `table` for repeated
/// probing with [`hash_join_probe`]. The caller is responsible for not
/// mutating (or replacing) the build table between probes.
pub fn build_join_index(table: &Table, keys: &[usize]) -> BuildIndex {
    assert!(
        !keys.is_empty(),
        "a join index needs at least one key column"
    );
    metric_counter!("columnar.join.index_builds").inc();
    BuildIndex {
        index: JoinIndex::build(table, keys),
        keys: keys.to_vec(),
    }
}

/// Inner hash join probing a prebuilt [`BuildIndex`] in `morsel_rows`-sized
/// ranges.
///
/// `build_is_left` fixes the output orientation: when `true` the result is
/// the build columns followed by the probe non-key columns — identical to
/// `natural_join(build, probe)` — otherwise the probe columns followed
/// by the build non-key columns. Probing an index built on a different
/// table/key arity is a logic error (asserted).
pub fn hash_join_probe(
    build: &Table,
    index: &BuildIndex,
    probe: &Table,
    probe_keys: &[usize],
    build_is_left: bool,
    morsel_rows: usize,
) -> Table {
    assert_eq!(
        index.keys.len(),
        probe_keys.len(),
        "probe key arity does not match the prebuilt index"
    );
    let (build, probe) = ((build, index.keys.as_slice()), (probe, probe_keys));
    let (left, right) = if build_is_left {
        (build, probe)
    } else {
        (probe, build)
    };
    join_on_index(left, right, &index.index, build_is_left, morsel_rows)
}

/// Natural inner join on all shared column names. Falls back to a cross
/// product when the schemas are disjoint (SPARQL cross join).
///
/// ```
/// use s2rdf_columnar::{ops, Schema, Table};
///
/// let follows = Table::from_rows(Schema::new(["x", "y"]), &[[0, 1], [1, 2]]);
/// let likes = Table::from_rows(Schema::new(["y", "w"]), &[[2, 9]]);
/// let joined = ops::natural_join(&follows, &likes);
/// assert_eq!(joined.num_rows(), 1);
/// assert_eq!(joined.row_vec(0), vec![1, 2, 9]);
/// ```
pub fn natural_join(left: &Table, right: &Table) -> Table {
    natural_join_in_morsels(left, right, usize::MAX)
}

/// [`natural_join`] probing in `morsel_rows`-sized ranges: the index is
/// built over the smaller input (the left one on a tie). The result is
/// row-for-row the same at every morsel size.
pub(crate) fn natural_join_in_morsels(left: &Table, right: &Table, morsel_rows: usize) -> Table {
    let (left_keys, right_keys) = shared_keys(left, right);
    if left_keys.is_empty() {
        return cross_join(left, right);
    }
    let build_is_left = left.num_rows() <= right.num_rows();
    let index = if build_is_left {
        JoinIndex::build(left, &left_keys)
    } else {
        JoinIndex::build(right, &right_keys)
    };
    join_on_index(
        (left, &left_keys),
        (right, &right_keys),
        &index,
        build_is_left,
        morsel_rows,
    )
}

/// Every `(left, right)` row pair, left-major.
fn cross_join(left: &Table, right: &Table) -> Table {
    metric_counter!("columnar.cross_join.calls").inc();
    let (schema, right_payload) = join_schema(left, right, &[]);
    let right_rows = right.num_rows() as u32;
    let pairs: Vec<(u32, u32)> = (0..left.num_rows() as u32)
        .flat_map(|l| (0..right_rows).map(move |r| (l, r)))
        .collect();
    write_pairs(schema, left, right, &right_payload, &[pairs], usize::MAX)
}

/// Left semi join `left ⋉ right` on a single key pair: the rows of `left`
/// whose key value appears in `right`'s key column. This is the primitive
/// that materializes ExtVP partitions (paper §5.2).
pub fn semi_join_on(left: &Table, left_key: usize, right: &Table, right_key: usize) -> Table {
    let _span = SpanTimer::start(metric_histogram!("columnar.semi_join.wall_micros"));
    let mut probe: FxHashSet<u32> = FxHashSet::default();
    probe.reserve(right.num_rows());
    probe.extend(right.column(right_key).iter().copied());
    let col = left.column(left_key);
    let indices: Vec<usize> = col
        .iter()
        .enumerate()
        .filter_map(|(i, &v)| probe.contains(&v).then_some(i))
        .collect();
    metric_counter!("columnar.semi_join.calls").inc();
    metric_counter!("columnar.semi_join.in_rows").add(left.num_rows() as u64);
    metric_counter!("columnar.semi_join.out_rows").add(indices.len() as u64);
    left.gather(&indices)
}

/// Natural left outer join (SPARQL OPTIONAL): left rows without a match are
/// emitted once with the right-only columns set to [`NULL_ID`].
pub fn left_outer_join(left: &Table, right: &Table) -> Table {
    let _span = SpanTimer::start(metric_histogram!("columnar.left_outer.wall_micros"));
    metric_counter!("columnar.left_outer.calls").inc();
    let (left_keys, right_keys) = shared_keys(left, right);
    let (schema, right_payload) = join_schema(left, right, &right_keys);
    let mut pairs: Vec<(u32, u32)> = Vec::new();
    let mut padded = 0u64;
    if left_keys.is_empty() {
        // OPTIONAL with no shared variables is a cross product, unless the
        // right side is empty: then every left row survives, padded.
        if !right.is_empty() {
            return cross_join(left, right);
        }
        pairs.extend((0..left.num_rows() as u32).map(|l| (l, NO_ROW)));
        padded = pairs.len() as u64;
    } else {
        let index = JoinIndex::build(right, &right_keys);
        index.for_each_match(left, &left_keys, 0..left.num_rows(), |l, matches| {
            if matches.is_empty() {
                pairs.push((l, NO_ROW));
                padded += 1;
            } else {
                pairs.extend(matches.iter().map(|&r| (l, r)));
            }
        });
    }
    let out = write_pairs(schema, left, right, &right_payload, &[pairs], usize::MAX);
    metric_counter!("columnar.left_outer.padded_rows").add(padded);
    metric_counter!("columnar.left_outer.out_rows").add(out.num_rows() as u64);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn follows() -> Table {
        // VP_follows from the paper's running example G1 (ids: A=0 B=1 C=2 D=3).
        Table::from_rows(Schema::new(["x", "y"]), &[[0, 1], [1, 2], [1, 3], [2, 3]])
    }

    fn likes() -> Table {
        // VP_likes (I1=4, I2=5).
        Table::from_rows(Schema::new(["y", "w"]), &[[0, 4], [0, 5], [2, 5]])
    }

    #[test]
    fn natural_join_single_key() {
        // follows(x,y) ⋈ likes(y,w): y ∈ {1,2,3} from follows, likes has y ∈ {0,2}.
        let j = natural_join(&follows(), &likes());
        assert_eq!(j.schema().names().len(), 3);
        assert_eq!(j.num_rows(), 1); // only y=2 matches: (1,2)⋈(2,5)
        assert_eq!(j.row_vec(0), vec![1, 2, 5]);
    }

    #[test]
    fn join_is_symmetric_in_cardinality() {
        let a = natural_join(&follows(), &likes());
        let b = natural_join(&likes(), &follows());
        assert_eq!(a.num_rows(), b.num_rows());
    }

    #[test]
    fn multi_key_join() {
        let l = Table::from_rows(Schema::new(["a", "b", "c"]), &[[1, 2, 9], [1, 3, 8]]);
        let r = Table::from_rows(Schema::new(["a", "b", "d"]), &[[1, 2, 7], [1, 9, 6]]);
        let j = natural_join(&l, &r);
        assert_eq!(j.num_rows(), 1);
        assert_eq!(j.row_vec(0), vec![1, 2, 9, 7]);
    }

    #[test]
    fn wide_key_join_falls_back() {
        let l = Table::from_rows(
            Schema::new(["a", "b", "c", "x"]),
            &[[1, 2, 3, 10], [4, 5, 6, 11]],
        );
        let r = Table::from_rows(
            Schema::new(["a", "b", "c", "y"]),
            &[[1, 2, 3, 20], [4, 5, 0, 21]],
        );
        let j = natural_join(&l, &r);
        assert_eq!(j.num_rows(), 1);
        assert_eq!(j.row_vec(0), vec![1, 2, 3, 10, 20]);
    }

    #[test]
    fn duplicate_keys_multiply() {
        let l = Table::from_rows(Schema::new(["k", "a"]), &[[1, 0], [1, 1]]);
        let r = Table::from_rows(Schema::new(["k", "b"]), &[[1, 2], [1, 3], [1, 4]]);
        let j = natural_join(&l, &r);
        assert_eq!(j.num_rows(), 6);
    }

    #[test]
    fn disjoint_schemas_cross_join() {
        let l = Table::from_rows(Schema::new(["a"]), &[[1], [2]]);
        let r = Table::from_rows(Schema::new(["b"]), &[[3], [4], [5]]);
        let j = natural_join(&l, &r);
        assert_eq!(j.num_rows(), 6);
        assert_eq!(j.schema().len(), 2);
    }

    #[test]
    fn semi_join_reduces() {
        // The paper's Fig. 8: VP_follows ⋉(o=s) VP_likes = {(B,C)}.
        let f = follows().with_schema(Schema::new(["s", "o"]));
        let l = likes().with_schema(Schema::new(["s", "o"]));
        let red = semi_join_on(&f, 1, &l, 0);
        assert_eq!(red.num_rows(), 1);
        assert_eq!(red.row_vec(0), vec![1, 2]); // (B, C)
    }

    #[test]
    fn semi_join_keeps_duplicates_of_left() {
        let l = Table::from_rows(Schema::new(["s", "o"]), &[[1, 5], [1, 5], [2, 6]]);
        let r = Table::from_rows(Schema::new(["s", "o"]), &[[5, 0]]);
        let red = semi_join_on(&l, 1, &r, 0);
        assert_eq!(red.num_rows(), 2);
    }

    #[test]
    fn left_outer_pads_nulls() {
        let l = Table::from_rows(Schema::new(["x", "y"]), &[[1, 2], [3, 4]]);
        let r = Table::from_rows(Schema::new(["y", "z"]), &[[2, 9]]);
        let j = left_outer_join(&l, &r);
        assert_eq!(j.num_rows(), 2);
        let rows: Vec<Vec<u32>> = (0..2).map(|i| j.row_vec(i)).collect();
        assert!(rows.contains(&vec![1, 2, 9]));
        assert!(rows.contains(&vec![3, 4, NULL_ID]));
    }

    #[test]
    fn left_outer_with_empty_right() {
        let l = Table::from_rows(Schema::new(["x"]), &[[1]]);
        let r = Table::empty(Schema::new(["y", "z"]));
        let j = left_outer_join(&l, &r);
        assert_eq!(j.num_rows(), 1);
        assert_eq!(j.row_vec(0), vec![1, NULL_ID, NULL_ID]);
    }

    #[test]
    fn prebuilt_index_matches_natural_join_both_orientations() {
        let acc = follows().with_schema(Schema::new(["x", "j"]));
        let pat = likes().with_schema(Schema::new(["j", "w"]));
        let j = acc.schema().index_of("j").unwrap();
        let pj = pat.schema().index_of("j").unwrap();
        let index = build_join_index(&acc, &[j]);
        assert_eq!(index.key_positions(), &[j]);

        for morsel_rows in [1, 2, usize::MAX] {
            // build-as-left: the columns of natural_join(acc, pat).
            let via_index = hash_join_probe(&acc, &index, &pat, &[pj], true, morsel_rows);
            assert_eq!(via_index, natural_join(&acc, &pat));

            // build-as-right: the columns of natural_join(pat, acc).
            let via_index = hash_join_probe(&acc, &index, &pat, &[pj], false, morsel_rows);
            assert_eq!(via_index, natural_join(&pat, &acc));
        }
    }

    #[test]
    fn prebuilt_index_is_reusable_across_probes() {
        // One build, two probes — the star-query pattern the engine cache
        // exploits for consecutive patterns sharing a join variable.
        let acc = Table::from_rows(Schema::new(["s", "a"]), &[[1, 10], [2, 20], [2, 21]]);
        let index = build_join_index(&acc, &[0]);
        let p1 = Table::from_rows(Schema::new(["s", "b"]), &[[2, 30]]);
        let p2 = Table::from_rows(Schema::new(["s", "c"]), &[[1, 40], [2, 41]]);
        let j1 = hash_join_probe(&acc, &index, &p1, &[0], true, usize::MAX);
        assert_eq!(j1, natural_join(&acc, &p1));
        let j2 = hash_join_probe(&acc, &index, &p2, &[0], true, usize::MAX);
        assert_eq!(j2, natural_join(&acc, &p2));
        assert_eq!(j1.num_rows(), 2);
        assert_eq!(j2.num_rows(), 3);
    }

    #[test]
    fn join_decomposition_identity() {
        // T1 ⋈ T2 = (T1 ⋉ T2) ⋈ T2 on the join key — the §5.2 identity ExtVP
        // relies on (restricted form; the full property test lives in the
        // integration suite).
        let t1 = follows().with_schema(Schema::new(["a", "j"]));
        let t2 = likes().with_schema(Schema::new(["j", "b"]));
        let direct = natural_join(&t1, &t2);
        let reduced = semi_join_on(&t1, 1, &t2, 0);
        let via_semi = natural_join(&reduced, &t2);
        assert_eq!(direct.num_rows(), via_semi.num_rows());
    }
}
