//! Columnar relational execution substrate.
//!
//! This crate is the stand-in for Spark SQL + Parquet in the S2RDF paper: a
//! small in-memory columnar engine over `u32` (dictionary-id) columns with
//! the relational operators the SPARQL compiler needs — scans with
//! selections, projections/renames, natural hash joins (one kernel whose
//! probe is cut into morsels on a shared worker pool), semi joins, left outer joins, union, distinct, sort and slice — plus a
//! compressed on-disk table store standing in for Parquet files on HDFS.
//!
//! All values are dictionary ids; [`NULL_ID`] marks an unbound value (used
//! by OPTIONAL's left outer join).

pub mod bitmap;
pub mod chunk;
pub mod crc32;
pub mod error;
pub mod exec;
pub mod fault;
pub mod io;
pub mod metrics;
pub mod ops;
pub mod pipeline;
pub mod pool;
pub mod schema;
pub mod table;
pub mod wal;

pub use bitmap::Bitmap;
pub use chunk::{CompressedTable, ScanStats, SidewaysFilter, WriteOptions};
pub use error::ColumnarError;
pub use fault::{FaultConfig, FaultInjector, FaultStats};
pub use io::{TableStore, VerifyReport};
pub use metrics::{MetricsSnapshot, SpanTimer};
pub use pool::{PoolStats, WorkerPool};
pub use schema::{ColName, Schema};
pub use table::{Table, NULL_ID};
pub use wal::{Wal, WalStatus};
