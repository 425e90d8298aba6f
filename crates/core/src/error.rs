//! Error type for query compilation and execution.

use std::fmt;

use s2rdf_columnar::ColumnarError;
use s2rdf_model::ModelError;
use s2rdf_sparql::ParseError;

/// Errors raised while building stores or answering queries.
#[derive(Debug)]
pub enum CoreError {
    /// SPARQL syntax error.
    Parse(ParseError),
    /// RDF model error (loading data).
    Model(ModelError),
    /// Substrate error (persistence, operators).
    Columnar(ColumnarError),
    /// The query uses a feature outside the supported SPARQL 1.0 subset.
    Unsupported(String),
    /// The query exceeded its deadline (used by the benchmark harness for
    /// engines that cannot finish, mirroring the paper's "F" entries).
    Timeout,
    /// The query exceeded a configured resource bound
    /// ([`crate::exec::QueryOptions::max_intermediate_rows`]) and was
    /// aborted before exhausting memory — the shared-memory analogue of a
    /// Spark job killed by the cluster manager.
    ResourceExhausted(String),
    /// Catalog (statistics) persistence failure.
    Catalog(String),
    /// The store refuses updates until it is reopened: an earlier WAL
    /// append failed and may have left a torn record that replay stops at.
    ReopenRequired(String),
}

impl fmt::Display for CoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CoreError::Parse(e) => write!(f, "{e}"),
            CoreError::Model(e) => write!(f, "{e}"),
            CoreError::Columnar(e) => write!(f, "{e}"),
            CoreError::Unsupported(m) => write!(f, "unsupported query feature: {m}"),
            CoreError::Timeout => write!(f, "query timed out"),
            CoreError::ResourceExhausted(m) => write!(f, "resource limit exceeded: {m}"),
            CoreError::Catalog(m) => write!(f, "catalog error: {m}"),
            CoreError::ReopenRequired(m) => write!(f, "reopen required: {m}"),
        }
    }
}

impl std::error::Error for CoreError {}

impl From<ParseError> for CoreError {
    fn from(e: ParseError) -> Self {
        CoreError::Parse(e)
    }
}

impl From<ModelError> for CoreError {
    fn from(e: ModelError) -> Self {
        CoreError::Model(e)
    }
}

impl From<ColumnarError> for CoreError {
    fn from(e: ColumnarError) -> Self {
        CoreError::Columnar(e)
    }
}
