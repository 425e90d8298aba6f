//! Relational operators over [`Table`](crate::Table).
//!
//! The operator set is exactly what the SPARQL compiler in `s2rdf-core`
//! needs: selections/projections for triple patterns (paper Alg. 2), hash
//! joins for BGP evaluation (Alg. 3/4), semi joins for ExtVP construction
//! (§5.2), left outer join for OPTIONAL, union/distinct/sort/slice for the
//! remaining SPARQL 1.0 solution modifiers (§6.1).

mod basic;
mod join;
pub mod kernels;
mod set;
mod sort;

pub use basic::{filter, project, project_rename, select_eq};
pub(crate) use join::natural_join_in_morsels;
pub use join::{
    build_join_index, hash_join_probe, left_outer_join, natural_join, semi_join_on, BuildIndex,
};
pub use set::{distinct, union};
pub use sort::{slice, sort_by, sort_by_key_radix, sort_by_keys_radix};
