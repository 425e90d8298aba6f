//! The persistent S2RDF database: VP + ExtVP tables, the triples table,
//! the dictionary, and the statistics catalog.

use std::collections::BTreeSet;
use std::io::{BufWriter, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use parking_lot::RwLock;
use rustc_hash::{FxHashMap, FxHashSet};

use s2rdf_columnar::{
    metric_counter, Bitmap, ColumnarError, CompressedTable, FaultInjector, Schema, Table,
    TableStore, Wal, WalStatus,
};
use s2rdf_model::{DeltaBatch, DeltaRecord, Dictionary, Graph, Term, TermId, Triple};

use crate::catalog::{Catalog, Correlation, ExtVpKey};
use crate::engines::s2rdf::S2rdfEngine;
use crate::engines::SparqlEngine;
use crate::error::CoreError;
use crate::exec::{Explain, QueryOptions, Solutions};
use crate::layout::extvp::{
    build_extvp, compute_partition, compute_partition_indices, compute_partition_with,
    ExtVpBuildOptions, ExtVpMode, ExtVpStorage,
};
use crate::layout::{
    extvp_table_name, triples_table::build_triples_table, vp::build_vp, vp_table_name, COL_O,
    COL_P, COL_S, TT_NAME,
};

/// Options controlling store construction.
#[derive(Debug, Clone, Copy)]
pub struct BuildOptions {
    /// Selectivity-factor threshold `SF_TH` (paper §5.3): only ExtVP tables
    /// with `SF < threshold` are materialized. `1.0` (the default) stores
    /// every proper reduction; `0.0` yields a plain VP store with ExtVP
    /// statistics.
    pub threshold: f64,
    /// Whether to compute ExtVP at all. `false` builds the paper's
    /// "S2RDF VP" baseline configuration.
    pub build_extvp: bool,
    /// Physical representation of the ExtVP partitions (tables, bitmaps,
    /// or lazy on-demand materialization).
    pub mode: ExtVpMode,
    /// Also precompute OO correlations (the paper's §5.2 opt-in design
    /// choice).
    pub include_oo: bool,
}

impl Default for BuildOptions {
    fn default() -> Self {
        BuildOptions {
            threshold: 1.0,
            build_extvp: true,
            mode: ExtVpMode::Materialized,
            include_oo: false,
        }
    }
}

/// An S2RDF store over one RDF dataset.
///
/// Freshly [`build`](S2rdfStore::build)-t stores hold every table in
/// memory. [`load`](S2rdfStore::load)-ed stores are *demand-driven*: only
/// the manifest, catalog and dictionary are read eagerly (plus a raw CRC
/// sweep over the ground-truth triples/VP files); table bodies — the
/// triples table included — stay on disk behind `disk` and are decoded —
/// and checksum-verified — on first access, the shared-memory analogue of
/// Spark reading Parquet column chunks per query rather than at session
/// start.
#[derive(Debug)]
pub struct S2rdfStore {
    dict: Dictionary,
    /// The triples table when it is resident: always for built stores, and
    /// for loaded stores once an update has pinned it. `None` means it is
    /// served on demand from `disk`.
    tt: Option<Arc<Table>>,
    /// In-memory VP tables (built stores). Empty for loaded stores, which
    /// serve VP bodies on demand from `disk`.
    vp: FxHashMap<TermId, Arc<Table>>,
    extvp: ExtVpStorage,
    /// Backing table store of a loaded database: serves VP and ExtVP
    /// bodies lazily, with an internal `Arc<Table>` cache.
    disk: Option<TableStore>,
    /// Cache for lazily computed partitions (the "pay as you go" mode).
    lazy_cache: RwLock<FxHashMap<ExtVpKey, Arc<Table>>>,
    catalog: Catalog,
    /// ExtVP partitions whose persisted form failed verification (checksum
    /// mismatch, corrupt file). Discovered on first touch under lazy
    /// loading (or by the sweep in [`S2rdfStore::quarantined`]); queries
    /// transparently fall back to the VP tables for these and
    /// [`S2rdfStore::verify_and_repair`] rebuilds them.
    quarantine: RwLock<FxHashSet<ExtVpKey>>,
    /// One-shot flag for the corruption sweep behind
    /// [`S2rdfStore::quarantined`].
    swept: AtomicBool,
    /// Optional deterministic fault injection on the partition access path
    /// (see [`s2rdf_columnar::fault`]).
    faults: Option<Arc<FaultInjector>>,
    /// Durable-update bookkeeping: WAL handle, dirty sets, overlays (see
    /// the update subsystem below).
    update: UpdateState,
    /// Chunked-format write options applied to every table flush
    /// ([`S2rdfStore::save`], checkpoints).
    write_opts: s2rdf_columnar::WriteOptions,
}

/// Mutable bookkeeping of the update subsystem.
///
/// Consistency note: every mutation (`insert`, `delete`, `checkpoint`)
/// takes `&mut self` on the store, so the borrow checker guarantees no
/// engine holds a snapshot across an update — an [`S2rdfEngine`] borrows
/// the store immutably for its whole life. Tables an engine already
/// resolved stay alive through their `Arc`s; the store swapping in new
/// `Arc`s cannot tear a running query.
#[derive(Debug, Default)]
struct UpdateState {
    /// The write-ahead log of a disk-backed store (absent for purely
    /// in-memory built stores, whose updates are not durable).
    wal: Option<Wal>,
    /// Directory the store was loaded from (checkpoint target).
    dir: Option<PathBuf>,
    /// Dictionary length already persisted in `dictionary.nt`.
    dict_persisted: usize,
    /// Triples table changed since the last checkpoint.
    tt_dirty: bool,
    /// VP partitions changed since the last checkpoint.
    vp_dirty: FxHashSet<TermId>,
    /// ExtVP partitions changed since the last checkpoint.
    extvp_dirty: FxHashSet<ExtVpKey>,
    /// Overlay over on-disk ExtVP bodies (Disk storage only):
    /// `Some(table)` is an updated body not yet flushed, `None` a partition
    /// dematerialized by the delta (pending file removal). Consulted before
    /// the table store on every access, so queries see updates immediately.
    extvp_overlay: FxHashMap<ExtVpKey, Option<Arc<Table>>>,
    /// Membership index over the triples table, built on first update and
    /// maintained since: makes replay idempotent (RDF graphs are sets).
    membership: Option<FxHashSet<(u32, u32, u32)>>,
    /// WAL records replayed when the store was opened.
    replayed: u64,
    /// Set when a WAL append failed: the log may end in a torn record that
    /// replay stops at, so no later batch may be acknowledged until the
    /// store is reopened (which trims the tail).
    wal_failed: bool,
}

/// Outcome of one [`S2rdfStore::insert`]/[`S2rdfStore::delete`] batch.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DeltaSummary {
    /// Triples actually added (duplicates of existing triples are no-ops).
    pub inserted: usize,
    /// Triples actually removed (absent triples are no-ops).
    pub deleted: usize,
    /// ExtVP partitions recomputed delta-wise.
    pub extvp_recomputed: usize,
}

/// Outcome of one [`S2rdfStore::checkpoint`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CheckpointReport {
    /// Dirty tables flushed through the temp+rename path.
    pub tables_flushed: usize,
    /// Tables removed from disk (drained VP partitions, dematerialized
    /// ExtVP reductions).
    pub tables_removed: usize,
    /// Orphaned table files from interrupted earlier flushes deleted.
    pub orphans_removed: usize,
    /// Legacy-format (v2) table files rewritten in the current chunked
    /// v3 format.
    pub tables_upgraded: usize,
    /// New dictionary terms persisted.
    pub dict_terms_appended: usize,
    /// WAL records dropped by the final truncation.
    pub wal_records_truncated: u64,
}

impl S2rdfStore {
    /// Builds a store from a graph (the paper's data load phase, Table 2).
    pub fn build(graph: &Graph, options: &BuildOptions) -> S2rdfStore {
        let tt = build_triples_table(graph);
        let vp: FxHashMap<TermId, Arc<Table>> = build_vp(graph)
            .into_iter()
            .map(|(p, t)| (p, Arc::new(t)))
            .collect();
        let mut catalog = Catalog::new(graph.len(), options.threshold, options.build_extvp);
        for (&p, table) in &vp {
            catalog.set_vp_size(p, table.num_rows());
        }
        let extvp = if options.build_extvp {
            build_extvp(
                graph,
                &vp,
                &mut catalog,
                ExtVpBuildOptions {
                    threshold: options.threshold,
                    mode: options.mode,
                    include_oo: options.include_oo,
                },
            )
        } else {
            ExtVpStorage::None
        };
        S2rdfStore {
            dict: graph.dict().clone(),
            tt: Some(Arc::new(tt)),
            vp,
            extvp,
            disk: None,
            lazy_cache: RwLock::new(FxHashMap::default()),
            catalog,
            quarantine: RwLock::new(FxHashSet::default()),
            swept: AtomicBool::new(true), // nothing on disk to sweep
            faults: None,
            update: UpdateState::default(),
            write_opts: s2rdf_columnar::WriteOptions::default(),
        }
    }

    /// Sets the chunked-format write options (chunk rows, Bloom filters)
    /// used by every subsequent table flush — [`S2rdfStore::save`],
    /// update checkpoints, and legacy-format upgrades.
    pub fn set_write_options(&mut self, opts: s2rdf_columnar::WriteOptions) {
        self.write_opts = opts;
        if let Some(disk) = &mut self.disk {
            disk.set_write_options(opts);
        }
    }

    /// The dictionary.
    pub fn dict(&self) -> &Dictionary {
        &self.dict
    }

    /// The statistics catalog.
    pub fn catalog(&self) -> &Catalog {
        &self.catalog
    }

    /// Catalog cardinality estimate for a compiled table source, before
    /// any scan: exactly the number the join-order planner would see.
    /// Costs one catalog lookup — no table is touched.
    pub fn estimated_rows(&self, source: &crate::compiler::TableSource) -> usize {
        use crate::compiler::TableSource;
        match source {
            TableSource::TriplesTable => self.catalog.total_triples,
            TableSource::Vp(p) => self.catalog.vp_size(*p),
            TableSource::ExtVp(key) => self.catalog.extvp_stat(key).map(|s| s.count).unwrap_or(0),
            TableSource::Empty => 0,
        }
    }

    /// The ExtVP storage mode of this store.
    pub fn mode(&self) -> ExtVpMode {
        match &self.extvp {
            ExtVpStorage::Rows(_) | ExtVpStorage::Disk | ExtVpStorage::None => {
                ExtVpMode::Materialized
            }
            ExtVpStorage::Bits(_) => ExtVpMode::BitVector,
            ExtVpStorage::Lazy => ExtVpMode::Lazy,
        }
    }

    /// The base triples table, loading the body from disk on first access
    /// for [`S2rdfStore::load`]-ed stores (like
    /// [`S2rdfStore::try_vp_table`]); `Err` is a read failure.
    pub fn triples_table(&self) -> Result<Arc<Table>, CoreError> {
        if let Some(tt) = &self.tt {
            return Ok(tt.clone());
        }
        let disk = self
            .disk
            .as_ref()
            .expect("only a loaded store leaves the triples table on disk");
        Ok(disk.load(TT_NAME)?)
    }

    /// Makes the triples table resident (see [`S2rdfStore::triples_table`])
    /// so that updates can rebuild it in memory.
    fn pin_triples_table(&mut self) -> Result<Arc<Table>, CoreError> {
        let tt = self.triples_table()?;
        self.tt = Some(tt.clone());
        Ok(tt)
    }

    /// A VP table by predicate id. Infallible convenience over
    /// [`S2rdfStore::try_vp_table`]: transient read errors surface as
    /// `None` (callers that must distinguish use the fallible variant).
    pub fn vp_table(&self, p: TermId) -> Option<Arc<Table>> {
        self.try_vp_table(p).ok().flatten()
    }

    /// A VP table by predicate id, loading the body from disk on first
    /// access for [`S2rdfStore::load`]-ed stores. `Ok(None)` means the
    /// predicate has no VP table; `Err` is a read failure worth
    /// surfacing/retrying.
    pub fn try_vp_table(&self, p: TermId) -> Result<Option<Arc<Table>>, CoreError> {
        if let Some(table) = self.vp.get(&p) {
            return Ok(Some(table.clone()));
        }
        let Some(disk) = &self.disk else {
            return Ok(None);
        };
        let name = vp_table_name(&self.dict, p);
        if !disk.contains(&name) {
            return Ok(None);
        }
        Ok(Some(disk.load(&name)?))
    }

    /// A VP table body in compressed chunked form, for zone-map-pruned
    /// scans. `Ok(None)` when the body lives in memory (built stores,
    /// un-checkpointed update overlays) or the on-disk file is a legacy
    /// non-chunked format — callers fall back to the materialized path,
    /// which this never replaces, only bypasses.
    pub fn try_vp_compressed(&self, p: TermId) -> Result<Option<Arc<CompressedTable>>, CoreError> {
        if self.vp.contains_key(&p) {
            return Ok(None);
        }
        let Some(disk) = &self.disk else {
            return Ok(None);
        };
        let name = vp_table_name(&self.dict, p);
        if !disk.contains(&name) {
            return Ok(None);
        }
        let ct = disk.load_compressed(&name)?;
        Ok(ct.is_chunked().then_some(ct))
    }

    /// An ExtVP partition body in compressed chunked form (see
    /// [`S2rdfStore::try_vp_compressed`]). Quarantine-aware and
    /// overlay-aware: corrupt bodies quarantine and return `Ok(None)`
    /// exactly like the materialized demand-load path, so the engine's
    /// VP-degradation logic stays the single fallback.
    pub fn try_extvp_compressed(
        &self,
        key: &ExtVpKey,
    ) -> Result<Option<Arc<CompressedTable>>, CoreError> {
        if !matches!(self.extvp, ExtVpStorage::Disk)
            || self.quarantine.read().contains(key)
            || self.update.extvp_overlay.contains_key(key)
        {
            return Ok(None);
        }
        let Some(disk) = &self.disk else {
            return Ok(None);
        };
        let name = extvp_table_name(&self.dict, key);
        if !disk.contains(&name) {
            return Ok(None);
        }
        match disk.load_compressed(&name) {
            Ok(ct) => Ok(ct.is_chunked().then_some(ct)),
            Err(ColumnarError::ChecksumMismatch { .. } | ColumnarError::CorruptFile(_)) => {
                self.quarantine.write().insert(*key);
                Ok(None)
            }
            Err(e) => Err(CoreError::Columnar(e)),
        }
    }

    /// Whether the engine may take the zone-map-pruned scan path. Disabled
    /// while a fault injector is attached anywhere on the read path: the
    /// injector's deterministic op counter is the contract of the
    /// kill-and-recover harnesses, and the pruned path would consume ops
    /// the materialized path then never sees.
    pub fn pruned_scans_enabled(&self) -> bool {
        self.faults.is_none()
            && self
                .disk
                .as_ref()
                .is_none_or(|d| d.fault_injector().is_none())
    }

    /// Zone-map-tightened cardinality estimate for one compiled scan:
    /// with a chunked on-disk body and at least one bound constant, the
    /// sum of the chunks whose `[min, max]` range can contain the constant
    /// (Bloom-consulted, distinct-flagged chunks counting one row)
    /// replaces the whole-table catalog count. `None` when no zone
    /// information applies — the caller keeps the catalog estimate.
    pub fn zone_estimated_rows(
        &self,
        source: &crate::compiler::TableSource,
        tp: &s2rdf_sparql::TriplePattern,
    ) -> Option<usize> {
        use crate::compiler::TableSource;
        if !self.pruned_scans_enabled() {
            return None;
        }
        let ct = match source {
            TableSource::Vp(p) => self.try_vp_compressed(*p).ok().flatten()?,
            TableSource::ExtVp(key) => self.try_extvp_compressed(key).ok().flatten()?,
            TableSource::TriplesTable | TableSource::Empty => return None,
        };
        // VP/ExtVP physical layout: column 0 = subject, column 1 = object.
        let mut est: Option<usize> = None;
        for (col, pat) in [(0usize, &tp.s), (1, &tp.o)] {
            if let Some(term) = pat.as_term() {
                let rows = match self.dict.id(term) {
                    Some(id) => ct.estimate_eq_rows(col, id.0),
                    None => 0,
                };
                est = Some(est.map_or(rows, |e| e.min(rows)));
            }
        }
        est
    }

    /// Attaches (or detaches) a deterministic fault injector on the ExtVP
    /// partition access path, for resilience testing.
    pub fn set_fault_injector(&mut self, faults: Option<Arc<FaultInjector>>) {
        self.faults = faults;
    }

    /// Attaches one fault injector to *every* fault point of the store —
    /// the ExtVP access path (like [`S2rdfStore::set_fault_injector`]),
    /// the backing table store's read/write/rename points, and the WAL's
    /// append/truncate points. Sharing a single injector gives one global
    /// op counter, which is what lets a kill-and-recover harness enumerate
    /// `kill_after_ops = 0, 1, 2, …` and visit every crash point of an
    /// update + checkpoint sequence deterministically.
    pub fn set_fault_injector_deep(&mut self, faults: Option<Arc<FaultInjector>>) {
        self.faults = faults.clone();
        if let Some(disk) = &mut self.disk {
            disk.set_fault_injector(faults.clone());
        }
        if let Some(wal) = &mut self.update.wal {
            wal.set_fault_injector(faults);
        }
    }

    /// The attached fault injector, if any.
    pub fn fault_injector(&self) -> Option<&Arc<FaultInjector>> {
        self.faults.as_ref()
    }

    /// ExtVP partitions quarantined because their persisted form was
    /// corrupt, sorted for stable output.
    ///
    /// Under demand-driven loading corruption is normally discovered on
    /// first touch; this accessor additionally runs a one-time raw CRC
    /// sweep over the on-disk ExtVP files (no decode, no caching) so that
    /// administrative callers see the full damage set without having to
    /// query every partition first.
    pub fn quarantined(&self) -> Vec<ExtVpKey> {
        self.ensure_quarantine_sweep();
        let mut keys: Vec<ExtVpKey> = self.quarantine.read().iter().copied().collect();
        keys.sort();
        keys
    }

    /// One-shot raw-CRC sweep of on-disk ExtVP bodies feeding the
    /// quarantine set (see [`S2rdfStore::quarantined`]).
    fn ensure_quarantine_sweep(&self) {
        if self.swept.swap(true, Ordering::SeqCst) {
            return;
        }
        let Some(disk) = &self.disk else { return };
        if !matches!(self.extvp, ExtVpStorage::Disk) {
            return;
        }
        let mut quarantine = self.quarantine.write();
        for name in disk.names() {
            if name.starts_with("ExtVP_") && disk.verify_checksum(&name).is_err() {
                if let Ok(key) = parse_extvp_name(&name, &self.dict) {
                    quarantine.insert(key);
                }
            }
        }
    }

    /// Resolves an ExtVP partition to a queryable table, whatever the
    /// storage mode: materialized tables are shared, bitmaps are gathered
    /// on access, and lazy partitions are computed by semi-join on first
    /// use and cached (paper §7's "pay as you go" deployment).
    ///
    /// Returns `None` for quarantined partitions (corrupt at load time);
    /// callers fall back to the VP table, which is always a superset.
    pub fn extvp_table(&self, key: &ExtVpKey) -> Option<Arc<Table>> {
        if self.quarantine.read().contains(key) {
            return None;
        }
        match &self.extvp {
            ExtVpStorage::None => None,
            ExtVpStorage::Rows(tables) => tables.get(key).cloned(),
            ExtVpStorage::Disk => self.disk_extvp(key).ok().flatten(),
            ExtVpStorage::Bits(bits) => {
                let bitmap = bits.get(key)?;
                let base = self.vp_table(TermId(key.p1))?;
                Some(Arc::new(bitmap.gather(&base)))
            }
            ExtVpStorage::Lazy => {
                let eligible = self.catalog.extvp_stat(key)?.materialized;
                if !eligible {
                    return None;
                }
                if let Some(hit) = self.lazy_cache.read().get(key) {
                    return Some(hit.clone());
                }
                let computed = Arc::new(compute_partition_with(|p| self.vp_table(p), key)?);
                self.lazy_cache
                    .write()
                    .entry(*key)
                    .or_insert_with(|| computed.clone());
                Some(computed)
            }
        }
    }

    /// Demand-loads an on-disk ExtVP body. `Ok(None)` when the partition
    /// was never materialized *or* its body is corrupt (the partition is
    /// quarantined as a side effect — non-retryable, the engine degrades
    /// to VP); `Err` for transient I/O failures worth retrying.
    fn disk_extvp(&self, key: &ExtVpKey) -> Result<Option<Arc<Table>>, CoreError> {
        // Un-checkpointed updates shadow the on-disk body: `Some` is the
        // recomputed partition, `None` says the delta dematerialized it.
        if let Some(entry) = self.update.extvp_overlay.get(key) {
            return Ok(entry.clone());
        }
        let Some(disk) = &self.disk else {
            return Ok(None);
        };
        let name = extvp_table_name(&self.dict, key);
        if !disk.contains(&name) {
            return Ok(None);
        }
        match disk.load(&name) {
            Ok(table) => Ok(Some(table)),
            Err(ColumnarError::ChecksumMismatch { .. } | ColumnarError::CorruptFile(_)) => {
                // Derived data failed verification on first touch: a
                // permanent fault. Quarantine so the planner's fallback is
                // stable, never an error the engine keeps retrying.
                self.quarantine.write().insert(*key);
                Ok(None)
            }
            Err(e) => Err(CoreError::Columnar(e)),
        }
    }

    /// Fallible variant of [`S2rdfStore::extvp_table`] exercised by the
    /// query engine: an attached fault injector can fail the access
    /// (modelling a lost partition read), which the engine retries with
    /// backoff before degrading to the VP table.
    ///
    /// `Ok(None)` is *non-retryable* (the partition is not materialized or
    /// is quarantined); `Err` is a transient access failure worth retrying.
    pub fn try_extvp_table(&self, key: &ExtVpKey) -> Result<Option<Arc<Table>>, CoreError> {
        if let Some(faults) = &self.faults {
            faults
                .before_read(&extvp_table_name(&self.dict, key))
                .map_err(|e| CoreError::Columnar(e.into()))?;
        }
        if matches!(self.extvp, ExtVpStorage::Disk) && !self.quarantine.read().contains(key) {
            // Preserve the transient/permanent distinction of demand
            // loading: I/O errors are retryable `Err`s, corruption
            // quarantines and returns `Ok(None)`.
            return self.disk_extvp(key);
        }
        Ok(self.extvp_table(key))
    }

    /// Number of materialized (or materializable, for lazy stores) ExtVP
    /// partitions.
    pub fn num_extvp_tables(&self) -> usize {
        match &self.extvp {
            ExtVpStorage::None => 0,
            ExtVpStorage::Rows(tables) => tables.len(),
            ExtVpStorage::Bits(bits) => bits.len(),
            // Counted from the manifest (no body is decoded), adjusted by
            // the un-checkpointed overlay.
            ExtVpStorage::Disk => {
                let Some(disk) = &self.disk else { return 0 };
                let mut names: FxHashSet<String> = disk
                    .names()
                    .into_iter()
                    .filter(|n| n.starts_with("ExtVP_"))
                    .collect();
                for (key, entry) in &self.update.extvp_overlay {
                    let name = extvp_table_name(&self.dict, key);
                    if entry.is_some() {
                        names.insert(name);
                    } else {
                        names.remove(&name);
                    }
                }
                names.len()
            }
            ExtVpStorage::Lazy => self
                .catalog
                .extvp_stats()
                .filter(|(_, s)| s.materialized)
                .count(),
        }
    }

    /// Total tuples across VP tables (= |G|). Answered from the catalog so
    /// that demand-driven stores need not load any VP body for statistics.
    pub fn vp_tuples(&self) -> usize {
        self.catalog.vp_sizes().map(|(_, n)| n).sum()
    }

    /// Total (logical) tuples across materialized ExtVP partitions.
    /// Statistics-only: answered from catalog/bitmap metadata, never by
    /// decoding table bodies.
    pub fn extvp_tuples(&self) -> usize {
        match &self.extvp {
            ExtVpStorage::None => 0,
            ExtVpStorage::Rows(tables) => tables.values().map(|t| t.num_rows()).sum(),
            ExtVpStorage::Bits(bits) => bits.values().map(Bitmap::count_ones).sum(),
            ExtVpStorage::Disk | ExtVpStorage::Lazy => self
                .catalog
                .extvp_stats()
                .filter(|(_, s)| s.materialized)
                .map(|(_, s)| s.count)
                .sum(),
        }
    }

    /// In-memory bytes the ExtVP representation occupies (8 B/tuple for
    /// tables, one bit per VP row for bitmaps, cache contents for lazy and
    /// disk-backed stores) — the quantity the paper's §8 bit-vector idea
    /// targets.
    pub fn extvp_payload_bytes(&self) -> usize {
        match &self.extvp {
            ExtVpStorage::None => 0,
            ExtVpStorage::Rows(tables) => tables.values().map(|t| t.byte_size()).sum(),
            ExtVpStorage::Bits(bits) => bits.values().map(Bitmap::byte_size).sum(),
            // Approximation: the bodies resident in the demand-load cache
            // (includes TT/VP bodies cached by the same store).
            ExtVpStorage::Disk => self
                .disk
                .as_ref()
                .map(|d| d.cached_bytes() as usize)
                .unwrap_or(0),
            ExtVpStorage::Lazy => self.lazy_cache.read().values().map(|t| t.byte_size()).sum(),
        }
    }

    /// An engine over this store. `use_extvp = false` forces the VP-only
    /// execution path (the paper's "S2RDF VP" rows).
    pub fn engine(&self, use_extvp: bool) -> S2rdfEngine<'_> {
        S2rdfEngine::new(self, use_extvp && self.catalog.extvp_built)
    }

    /// Convenience: parse and run a query with default options on the best
    /// available layout.
    pub fn query(&self, sparql: &str) -> Result<Solutions, CoreError> {
        self.engine(true).query(sparql)
    }

    /// Convenience: run with options, returning the execution trace too.
    pub fn query_opt(
        &self,
        sparql: &str,
        options: &QueryOptions,
    ) -> Result<(Solutions, Explain), CoreError> {
        self.engine(true).query_opt(sparql, options)
    }

    /// Convenience: run a query of any form (SELECT/ASK/CONSTRUCT/DESCRIBE)
    /// with default options on the best available layout.
    pub fn query_result(&self, sparql: &str) -> Result<crate::engines::QueryResult, CoreError> {
        self.engine(true).query_result(sparql)
    }

    /// Persists the store into a directory (tables, bitmaps, dictionary,
    /// catalog).
    pub fn save(&self, dir: &Path) -> Result<(), CoreError> {
        std::fs::create_dir_all(dir).map_err(|e| CoreError::Catalog(e.to_string()))?;
        let mut tables = TableStore::open(dir.join("tables"))?;
        tables.set_write_options(self.write_opts);
        tables.save(TT_NAME, &*self.triples_table()?)?;
        // Catalog-driven so demand-driven stores (empty in-memory VP map)
        // round-trip too: each body is pulled — possibly from disk — and
        // re-persisted.
        let preds: Vec<TermId> = self.catalog.vp_sizes().map(|(p, _)| p).collect();
        for p in preds {
            debug_assert!(
                self.dict.term(p).is_iri(),
                "predicates must be IRIs for name round-tripping"
            );
            let table = self.try_vp_table(p)?.ok_or_else(|| {
                CoreError::Catalog(format!("VP table for predicate {} missing", p.0))
            })?;
            tables.save(&vp_table_name(&self.dict, p), &table)?;
        }
        match &self.extvp {
            ExtVpStorage::Rows(rows) => {
                for (key, table) in rows {
                    tables.save(&extvp_table_name(&self.dict, key), table)?;
                }
            }
            ExtVpStorage::Disk => {
                // The un-checkpointed overlay takes precedence over the
                // backing store: updated bodies are written from memory,
                // dematerialized partitions are skipped entirely.
                let mut handled: FxHashSet<String> = FxHashSet::default();
                for (key, entry) in &self.update.extvp_overlay {
                    let name = extvp_table_name(&self.dict, key);
                    if let Some(table) = entry {
                        tables.save(&name, table)?;
                    }
                    handled.insert(name);
                }
                if let Some(disk) = &self.disk {
                    for name in disk.names() {
                        if name.starts_with("ExtVP_") && !handled.contains(&name) {
                            let table = disk.load(&name)?;
                            tables.save(&name, &table)?;
                        }
                    }
                }
            }
            ExtVpStorage::Bits(bits) => {
                self.save_bitmaps(dir, bits)?;
            }
            ExtVpStorage::Lazy | ExtVpStorage::None => {}
        }
        self.catalog.save(&dir.join("catalog.json"))?;
        // Dictionary: one term per line in N-Triples syntax, id = line no.
        let file = std::fs::File::create(dir.join("dictionary.nt"))
            .map_err(|e| CoreError::Catalog(e.to_string()))?;
        let mut out = BufWriter::new(file);
        for (_, term) in self.dict.iter() {
            writeln!(out, "{term}").map_err(|e| CoreError::Catalog(e.to_string()))?;
        }
        out.flush().map_err(|e| CoreError::Catalog(e.to_string()))?;
        Ok(())
    }

    /// Writes the bitmap sidecar directory of a bit-vector store: one file
    /// per partition plus a name→file manifest. Crash safety rests on two
    /// rules: every body file is named by a hash of its *table name* (so a
    /// surviving old manifest can only ever point at content computed for
    /// that same partition, possibly a newer version of it — never at a
    /// different partition's bits), and every write is temp + fsync +
    /// rename, the manifest last. Bodies a stale manifest then mispoints
    /// at are additionally caught by the length check on load and
    /// quarantined, never served. Files no new manifest references are
    /// swept after the rename commits.
    fn save_bitmaps(
        &self,
        dir: &Path,
        bits: &FxHashMap<ExtVpKey, Bitmap>,
    ) -> Result<(), CoreError> {
        let bm_dir = dir.join("bitmaps");
        std::fs::create_dir_all(&bm_dir).map_err(|e| CoreError::Catalog(e.to_string()))?;
        // Deterministic order: sorted by table name (stable fault-point
        // enumeration for the kill harness).
        let mut entries: Vec<(String, &Bitmap)> = bits
            .iter()
            .map(|(key, bm)| (extvp_table_name(&self.dict, key), bm))
            .collect();
        entries.sort_by(|a, b| a.0.cmp(&b.0));
        let mut manifest = String::new();
        let mut live: FxHashSet<String> = FxHashSet::default();
        for (name, bitmap) in &entries {
            let file = format!("b{:016x}.bits", {
                use std::hash::{Hash, Hasher};
                let mut h = rustc_hash::FxHasher::default();
                name.hash(&mut h);
                h.finish()
            });
            let tmp = bm_dir.join(format!("{file}.tmp"));
            let write = || -> std::io::Result<()> {
                let mut f = std::fs::File::create(&tmp)?;
                f.write_all(&bitmap.to_bytes())?;
                f.sync_all()?;
                if let Some(faults) = &self.faults {
                    faults.crash_point(&format!("bitmap:{file}"))?;
                }
                std::fs::rename(&tmp, bm_dir.join(&file))
            };
            write().map_err(|e| {
                let _ = std::fs::remove_file(&tmp);
                CoreError::Catalog(e.to_string())
            })?;
            manifest.push_str(name);
            manifest.push('\t');
            manifest.push_str(&file);
            manifest.push('\n');
            live.insert(file);
        }
        let tmp = bm_dir.join("manifest.tsv.tmp");
        let write = || -> std::io::Result<()> {
            let mut f = std::fs::File::create(&tmp)?;
            f.write_all(manifest.as_bytes())?;
            f.sync_all()?;
            if let Some(faults) = &self.faults {
                faults.crash_point("bitmaps/manifest.tsv")?;
            }
            std::fs::rename(&tmp, bm_dir.join("manifest.tsv"))
        };
        write().map_err(|e| {
            let _ = std::fs::remove_file(&tmp);
            CoreError::Catalog(e.to_string())
        })?;
        // The manifest committed: sweep body files it no longer references
        // (left by dropped partitions or interrupted earlier saves). A
        // crash mid-sweep only leaves unreferenced files for next time.
        if let Ok(dirents) = std::fs::read_dir(&bm_dir) {
            for entry in dirents.flatten() {
                let fname = entry.file_name().to_string_lossy().into_owned();
                if fname.ends_with(".bits") && !live.contains(&fname) || fname.ends_with(".tmp") {
                    let _ = std::fs::remove_file(entry.path());
                }
            }
        }
        Ok(())
    }

    /// Loads a store previously written by [`S2rdfStore::save`].
    ///
    /// Reads the catalog, the dictionary and the table manifest, and
    /// checks the raw CRCs of the triples table and every VP table; no
    /// table body is decoded (WAL replay aside).
    ///
    /// Corruption of the triples table or a VP table is fatal (they are the
    /// ground truth), but a corrupt ExtVP partition — a derived semi-join
    /// reduction — is *quarantined* instead: the store loads, queries over
    /// the damaged partition transparently degrade to the VP table with
    /// identical results, and [`S2rdfStore::verify_and_repair`] can rebuild
    /// the partition from its definition. This mirrors Spark recomputing a
    /// lost RDD partition from lineage rather than failing the job.
    pub fn load(dir: &Path) -> Result<S2rdfStore, CoreError> {
        let catalog = Catalog::load(&dir.join("catalog.json"))?;
        let mode = ExtVpMode::from_label(&catalog.extvp_mode)
            .ok_or_else(|| CoreError::Catalog(format!("bad mode {}", catalog.extvp_mode)))?;
        let mut dict = load_dictionary(dir)?;
        // Only the terms read from dictionary.nt are durable; WAL-recovered
        // growth below must still count as unpersisted so the next
        // checkpoint rewrites the dictionary before truncating the log.
        let dict_persisted = dict.len();
        // Table and bitmap names on disk may already use terms whose
        // dictionary rewrite a crashed checkpoint never reached; their ids
        // live in the WAL's `new_terms`, so recover that growth before any
        // name is parsed (replay below re-interns them — a no-op).
        if let Ok(bytes) = std::fs::read(dir.join("wal.log")) {
            if let Ok((records, _)) = s2rdf_columnar::wal::scan_records(&bytes) {
                for payload in &records {
                    for term in &DeltaBatch::decode(payload)?.new_terms {
                        dict.intern(term);
                    }
                }
            }
        }
        let dict = dict;
        let tables = TableStore::open(dir.join("tables"))?;
        // The ground truth (triples table + VP tables) must be intact for
        // the store to be usable at all, so sweep its raw CRCs up front —
        // a footer check per file, no body is decoded or cached. Derived
        // ExtVP partitions are *not* swept here: they are verified on
        // first touch and quarantined then (demand-driven loading).
        tables.verify_checksum(TT_NAME)?;
        for name in tables.names() {
            if name.starts_with("VP/") {
                tables.verify_checksum(&name)?;
            }
        }
        let mut quarantine = FxHashSet::default();
        let extvp = if !catalog.extvp_built {
            ExtVpStorage::None
        } else {
            match mode {
                ExtVpMode::Materialized => ExtVpStorage::Disk,
                ExtVpMode::Lazy => ExtVpStorage::Lazy,
                ExtVpMode::BitVector => {
                    let bm_dir = dir.join("bitmaps");
                    let manifest = std::fs::read_to_string(bm_dir.join("manifest.tsv"))
                        .map_err(|e| CoreError::Catalog(e.to_string()))?;
                    let mut bits = FxHashMap::default();
                    for line in manifest.lines() {
                        let (name, file) = line
                            .split_once('\t')
                            .ok_or_else(|| CoreError::Catalog("bad bitmap manifest".to_string()))?;
                        let key = parse_extvp_name(name, &dict)?;
                        match std::fs::read(bm_dir.join(file))
                            .map_err(|e| CoreError::Catalog(e.to_string()))
                            .and_then(|data| Bitmap::from_bytes(&data).map_err(CoreError::from))
                        {
                            // A bitmap must be exactly one bit per base-VP
                            // row; a torn body that still decodes (e.g. a
                            // file a crashed rewrite half-replaced) is
                            // quarantined, not served.
                            Ok(bitmap) if bitmap.len() == catalog.vp_size(TermId(key.p1)) => {
                                bits.insert(key, bitmap);
                            }
                            Ok(_) | Err(_) => {
                                quarantine.insert(key);
                            }
                        }
                    }
                    ExtVpStorage::Bits(bits)
                }
            }
        };
        let mut store = S2rdfStore {
            dict,
            tt: None,
            vp: FxHashMap::default(),
            extvp,
            disk: Some(tables),
            lazy_cache: RwLock::new(FxHashMap::default()),
            catalog,
            quarantine: RwLock::new(quarantine),
            swept: AtomicBool::new(false),
            faults: None,
            update: UpdateState {
                dir: Some(dir.to_path_buf()),
                dict_persisted,
                ..UpdateState::default()
            },
            write_opts: s2rdf_columnar::WriteOptions::default(),
        };
        // Crash recovery: replay whatever the WAL still holds through the
        // same apply path live updates use. Replay is conservative (every
        // predicate a record *mentions* is recomputed, effective or not):
        // a crash mid-checkpoint can leave the triples table flushed but a
        // VP or ExtVP partition stale, and only the mention set still
        // names the partitions that must be reconciled against the
        // replayed triples table.
        let (wal, payloads) = Wal::open(&dir.join("wal.log"))?;
        store.update.wal = Some(wal);
        for payload in &payloads {
            let batch = DeltaBatch::decode(payload)?;
            store.apply_batch(&batch, true)?;
            store.update.replayed += 1;
        }
        Ok(store)
    }

    /// Number of WAL records replayed when this store was opened (0 for a
    /// cleanly checkpointed store).
    pub fn wal_replayed(&self) -> u64 {
        self.update.replayed
    }

    /// Number of WAL records currently pending (durable but not yet
    /// checkpointed).
    pub fn wal_pending(&self) -> u64 {
        self.update.wal.as_ref().map(Wal::records).unwrap_or(0)
    }

    /// Read-only WAL probe of a saved store directory, for `verify`-style
    /// reporting without opening the store. `Ok(None)` when the store has
    /// no WAL file.
    pub fn wal_status(dir: &Path) -> Result<Option<WalStatus>, CoreError> {
        Ok(Wal::inspect(&dir.join("wal.log"))?)
    }

    /// On-disk byte sizes by table family, for Tables 2 and 6. Returns
    /// `(tt, vp, extvp)` bytes from a saved store directory (bitmap files
    /// count toward the ExtVP family).
    pub fn disk_sizes(dir: &Path) -> Result<(u64, u64, u64), CoreError> {
        let tables = TableStore::open(dir.join("tables"))?;
        let (mut tt, mut vp, mut extvp) = (0, 0, 0);
        for name in tables.names() {
            let size = tables.file_size(&name)?;
            if name == TT_NAME {
                tt += size;
            } else if name.starts_with("VP/") {
                vp += size;
            } else if name.starts_with("ExtVP_") {
                extvp += size;
            }
        }
        let bm_dir = dir.join("bitmaps");
        if bm_dir.is_dir() {
            for entry in
                std::fs::read_dir(&bm_dir).map_err(|e| CoreError::Catalog(e.to_string()))?
            {
                let entry = entry.map_err(|e| CoreError::Catalog(e.to_string()))?;
                extvp += entry
                    .metadata()
                    .map_err(|e| CoreError::Catalog(e.to_string()))?
                    .len();
            }
        }
        Ok((tt, vp, extvp))
    }

    /// Scans a saved store for corrupt, missing or orphaned table files and
    /// repairs what is derivable: ExtVP partitions are semi-join reductions
    /// of the VP tables (paper §5.2), so a damaged partition is rebuilt
    /// from its definition and atomically rewritten — the offline analogue
    /// of Spark's lineage recovery. Orphaned files from interrupted saves
    /// are deleted. Damage to the triples table or a VP table (the ground
    /// truth) is reported as unrecoverable.
    pub fn verify_and_repair(dir: &Path) -> Result<RepairReport, CoreError> {
        let mut dict = load_dictionary(dir)?;
        // A checkpoint that crashed after flushing tables but before the
        // dictionary rewrite leaves table names whose terms only exist in
        // the WAL; recover that growth the same way `load` does (read-only
        // — torn-residue truncation is left to the next real open).
        if let Ok(bytes) = std::fs::read(dir.join("wal.log")) {
            if let Ok((records, _)) = s2rdf_columnar::wal::scan_records(&bytes) {
                for payload in &records {
                    for term in &DeltaBatch::decode(payload)?.new_terms {
                        dict.intern(term);
                    }
                }
            }
        }
        let dict = dict;
        let mut tables = TableStore::open(dir.join("tables"))?;
        let scan = tables.verify_all();
        let mut report = RepairReport {
            scanned: scan.ok.len() + scan.corrupt.len() + scan.missing.len(),
            // Chunk-granular localization for corrupt v3 bodies whose
            // chunk directory survived: names the damaged row ranges so
            // operators see "2 of 160 chunks" instead of writing off the
            // whole table.
            corrupt_chunks: scan.corrupt_chunks.clone(),
            ..RepairReport::default()
        };

        // Base VP tables, for rebuilding reductions. Corrupt VP tables are
        // themselves in the damage list and unrecoverable.
        let mut vp: FxHashMap<TermId, Arc<Table>> = FxHashMap::default();
        for name in &scan.ok {
            if let Some(term_text) = name.strip_prefix("VP/") {
                let term = Term::parse_ntriples(term_text)?;
                let p = dict
                    .id(&term)
                    .ok_or_else(|| CoreError::Catalog(format!("unknown predicate {term}")))?;
                vp.insert(p, tables.load(name)?);
            }
        }

        let damaged = scan.corrupt.iter().cloned().chain(
            scan.missing
                .iter()
                .map(|n| (n.clone(), "file missing".to_string())),
        );
        for (name, why) in damaged {
            if !name.starts_with("ExtVP_") {
                report.unrecoverable.push((name, why));
                continue;
            }
            let rebuilt = parse_extvp_name(&name, &dict)
                .ok()
                .and_then(|key| compute_partition(&vp, &key));
            match rebuilt {
                Some(table) => {
                    tables.save(&name, &table)?;
                    report.repaired.push(name);
                }
                None => report.unrecoverable.push((
                    name,
                    format!("{why}; base VP tables unavailable for rebuild"),
                )),
            }
        }

        for orphan in &scan.orphans {
            std::fs::remove_file(tables.root().join(orphan))
                .map_err(|e| CoreError::Catalog(e.to_string()))?;
            report.removed_orphans.push(orphan.clone());
        }

        // Re-open (clears the orphan list) and re-verify to confirm.
        let tables = TableStore::open(dir.join("tables"))?;
        report.clean_after = tables.verify_all().is_clean() && report.unrecoverable.is_empty();
        Ok(report)
    }
}

/// The durable-update subsystem (WAL + delta-wise ExtVP maintenance).
///
/// An update batch is (1) appended to the write-ahead log — one CRC-32
/// checksummed record holding the dictionary growth and the encoded triple
/// ops — and fsynced, (2) applied in memory: the triples table and the VP
/// tables of the touched predicates are rebuilt (VP is a pure function of
/// the triples table), and every ExtVP reduction one of those predicates
/// participates in is recomputed delta-wise, (3) eventually flushed by
/// [`S2rdfStore::checkpoint`], whose last step truncates the WAL. A crash
/// anywhere before that truncation is recovered on the next
/// [`S2rdfStore::load`] by replaying the surviving records through the
/// same apply path, conservatively: every predicate a record *mentions* is
/// reconciled against the replayed triples table, effective or not,
/// because a crash mid-checkpoint can leave the triples table flushed
/// while a VP or ExtVP body is still stale.
impl S2rdfStore {
    /// Inserts a batch of triples durably (triples already present are
    /// no-ops). See [`S2rdfStore::update_batch`].
    pub fn insert(&mut self, triples: &[Triple]) -> Result<DeltaSummary, CoreError> {
        self.update_batch(triples, &[])
    }

    /// Deletes a batch of triples durably (absent triples are no-ops).
    /// See [`S2rdfStore::update_batch`].
    pub fn delete(&mut self, triples: &[Triple]) -> Result<DeltaSummary, CoreError> {
        self.update_batch(&[], triples)
    }

    /// Applies one insert+delete batch: WAL first (durability), then the
    /// in-memory tables and statistics. Inserts are applied before
    /// deletes. On a [`S2rdfStore::build`]-t store (no backing directory)
    /// the update is applied in memory only and is *not* durable.
    ///
    /// The triples table is pinned before anything else, so a failed read
    /// leaves the dictionary and the WAL untouched. After a failed WAL
    /// append every later call fails with [`CoreError::ReopenRequired`]
    /// until the store is reopened; queries keep working.
    pub fn update_batch(
        &mut self,
        inserts: &[Triple],
        deletes: &[Triple],
    ) -> Result<DeltaSummary, CoreError> {
        if self.update.wal_failed {
            return Err(CoreError::ReopenRequired(
                "an earlier WAL append failed".to_string(),
            ));
        }
        self.pin_triples_table()?;
        let dict_before = self.dict.len();
        let mut ops = Vec::with_capacity(inserts.len() + deletes.len());
        for t in inserts {
            let (s, p, o) = (
                self.dict.intern(&t.s),
                self.dict.intern(&t.p),
                self.dict.intern(&t.o),
            );
            ops.push(DeltaRecord {
                insert: true,
                s: s.0,
                p: p.0,
                o: o.0,
            });
        }
        for t in deletes {
            // A term the dictionary has never seen cannot occur in any
            // triple, so the delete is a no-op — and must not grow the
            // dictionary.
            let (Some(s), Some(p), Some(o)) =
                (self.dict.id(&t.s), self.dict.id(&t.p), self.dict.id(&t.o))
            else {
                continue;
            };
            ops.push(DeltaRecord {
                insert: false,
                s: s.0,
                p: p.0,
                o: o.0,
            });
        }
        let new_terms: Vec<Term> = (dict_before..self.dict.len())
            .map(|i| self.dict.term(TermId(i as u32)).clone())
            .collect();
        let batch = DeltaBatch { new_terms, ops };
        if batch.is_empty() {
            return Ok(DeltaSummary::default());
        }
        // Durability first: the record is on disk (fsynced) before any
        // table changes. A crash from here on replays it at next open.
        if let Some(wal) = &mut self.update.wal {
            if let Err(e) = wal.append(&batch.encode()) {
                self.update.wal_failed = true;
                return Err(e.into());
            }
        }
        self.apply_batch(&batch, false)
    }

    /// Applies a decoded batch to the in-memory store. `conservative` is
    /// the replay mode: rebuild every predicate the batch *mentions* even
    /// if its ops turn out to be no-ops against the current triples table
    /// (the triples table on disk may already include them while VP/ExtVP
    /// bodies do not — only the mention set still names what to
    /// reconcile). Live updates pass `false` and rebuild only effectively
    /// changed predicates.
    fn apply_batch(
        &mut self,
        batch: &DeltaBatch,
        conservative: bool,
    ) -> Result<DeltaSummary, CoreError> {
        let mut tt = self.pin_triples_table()?;
        // Replay re-interns the batch's dictionary growth: `new_terms` is
        // in id order, so a recovering store reproduces identical ids;
        // for a live store these terms are already interned (no-op).
        for term in &batch.new_terms {
            self.dict.intern(term);
        }
        // Membership index over the triples table, built on first update:
        // RDF graphs are sets, and set semantics is what makes replay
        // idempotent.
        if self.update.membership.is_none() {
            let (s, p, o) = (tt.column(0), tt.column(1), tt.column(2));
            self.update.membership = Some((0..tt.num_rows()).map(|i| (s[i], p[i], o[i])).collect());
        }
        let membership = self.update.membership.as_mut().expect("just built");

        let mut summary = DeltaSummary::default();
        let mut mentioned: BTreeSet<u32> = BTreeSet::new();
        let mut effective: BTreeSet<u32> = BTreeSet::new();
        // First-time inserts in op order (deduplicated, delete-aware), for
        // the triples-table append below.
        let mut added_order: Vec<(u32, u32, u32)> = Vec::new();
        let mut added_set: FxHashSet<(u32, u32, u32)> = FxHashSet::default();
        for op in &batch.ops {
            let key = (op.s, op.p, op.o);
            mentioned.insert(op.p);
            if op.insert {
                if membership.insert(key) {
                    summary.inserted += 1;
                    effective.insert(op.p);
                    if added_set.insert(key) {
                        added_order.push(key);
                    }
                }
            } else if membership.remove(&key) {
                summary.deleted += 1;
                effective.insert(op.p);
                if added_set.remove(&key) {
                    added_order.retain(|k| k != &key);
                }
            }
        }

        // Rebuild the triples table when the delta changed it: survivors
        // keep their original order, first-time inserts append. Keys both
        // deleted and re-inserted within the batch survive in place.
        if !effective.is_empty() {
            let n = tt.num_rows();
            let mut old_keys: FxHashSet<(u32, u32, u32)> =
                FxHashSet::with_capacity_and_hasher(n, Default::default());
            let (mut ns, mut np, mut no) = (Vec::new(), Vec::new(), Vec::new());
            {
                let (s, p, o) = (tt.column(0), tt.column(1), tt.column(2));
                for i in 0..n {
                    let key = (s[i], p[i], o[i]);
                    if membership.contains(&key) {
                        ns.push(s[i]);
                        np.push(p[i]);
                        no.push(o[i]);
                    }
                    old_keys.insert(key);
                }
            }
            for &(s, p, o) in added_order.iter().filter(|k| !old_keys.contains(*k)) {
                ns.push(s);
                np.push(p);
                no.push(o);
            }
            tt = Arc::new(Table::from_columns(
                Schema::new([COL_S, COL_P, COL_O]),
                vec![ns, np, no],
            ));
            self.tt = Some(tt.clone());
            self.update.tt_dirty = true;
            self.catalog.total_triples = tt.num_rows();
        }
        if conservative {
            // A checkpoint that crashed after flushing the triples table
            // but before the catalog leaves the statistic stale while every
            // replayed op reads as a no-op; resync it from the table.
            self.catalog.total_triples = tt.num_rows();
        }

        let touched: BTreeSet<u32> = if conservative { mentioned } else { effective };
        if touched.is_empty() {
            return Ok(summary);
        }

        // Rebuild the VP tables of every touched predicate from one pass
        // over the (post-apply) triples table. VP is recomputed from the
        // triples table — never patched incrementally — so that replay
        // converges to the rebuild-from-scratch state no matter which
        // tables an interrupted checkpoint already flushed.
        let mut per_pred: FxHashMap<u32, (Vec<u32>, Vec<u32>)> = touched
            .iter()
            .map(|&p| (p, (Vec::new(), Vec::new())))
            .collect();
        {
            let (s, p, o) = (tt.column(0), tt.column(1), tt.column(2));
            for i in 0..tt.num_rows() {
                if let Some((vs, vo)) = per_pred.get_mut(&p[i]) {
                    vs.push(s[i]);
                    vo.push(o[i]);
                }
            }
        }
        for &pred in &touched {
            let (vs, vo) = per_pred.remove(&pred).expect("seeded above");
            let table = Table::from_columns(Schema::new([COL_S, COL_O]), vec![vs, vo]);
            self.catalog.set_vp_size(TermId(pred), table.num_rows());
            // Kept in the in-memory map even when drained empty: it
            // shadows the stale disk body until checkpoint removes the
            // file.
            self.vp.insert(TermId(pred), Arc::new(table));
            self.update.vp_dirty.insert(TermId(pred));
        }

        // Delta-wise ExtVP maintenance: only reductions a touched
        // predicate participates in — on either side — can change.
        // Partners include already-drained predicates so stale entries are
        // cleaned, and correlations follow what the store precomputes.
        if self.catalog.extvp_built {
            let mut partners: BTreeSet<u32> = self.catalog.vp_sizes().map(|(p, _)| p.0).collect();
            partners.extend(touched.iter().copied());
            let mut corrs = vec![Correlation::SS, Correlation::OS, Correlation::SO];
            if self.catalog.oo_built {
                corrs.push(Correlation::OO);
            }
            let mut candidates: BTreeSet<ExtVpKey> = BTreeSet::new();
            for &p in &touched {
                for &q in &partners {
                    for &corr in &corrs {
                        // SS/OO self-correlations are the identity and
                        // never stored (OS/SO self-pairs are real).
                        if matches!(corr, Correlation::SS | Correlation::OO) && p == q {
                            continue;
                        }
                        candidates.insert(ExtVpKey { corr, p1: p, p2: q });
                        candidates.insert(ExtVpKey { corr, p1: q, p2: p });
                    }
                }
            }
            for key in candidates {
                self.recompute_extvp(&key)?;
                summary.extvp_recomputed += 1;
            }
        }
        Ok(summary)
    }

    /// Recomputes one ExtVP reduction from the current VP tables and
    /// routes the result into whatever representation the store uses,
    /// updating catalog statistics (including draining to absence) and
    /// lifting any quarantine — a fresh recompute supersedes a corrupt
    /// on-disk body.
    fn recompute_extvp(&mut self, key: &ExtVpKey) -> Result<(), CoreError> {
        metric_counter!("core.extvp.delta_recomputes").inc();
        let vp1 = self.try_vp_table(TermId(key.p1))?;
        let vp2 = self.try_vp_table(TermId(key.p2))?;
        let indices = match (&vp1, &vp2) {
            (Some(a), Some(b)) => compute_partition_indices(a, b, key.corr),
            _ => Vec::new(),
        };
        let count = indices.len();
        let vp_size = self.catalog.vp_size(TermId(key.p1));
        let sf = if vp_size == 0 {
            0.0
        } else {
            count as f64 / vp_size as f64
        };
        // Same materialization rule as the initial build: proper (SF < 1)
        // and selective enough (SF < threshold) — and non-empty.
        let materialized = count > 0 && sf < 1.0 && sf < self.catalog.threshold;
        self.catalog.set_extvp(*key, count, materialized);
        self.quarantine.write().remove(key);
        let gathered = || -> Arc<Table> {
            let idx: Vec<usize> = indices.iter().map(|&i| i as usize).collect();
            Arc::new(vp1.as_ref().expect("materialized implies vp1").gather(&idx))
        };
        match &mut self.extvp {
            ExtVpStorage::None => {}
            ExtVpStorage::Rows(tables) => {
                if materialized {
                    tables.insert(*key, gathered());
                    self.update.extvp_dirty.insert(*key);
                } else if tables.remove(key).is_some() {
                    self.update.extvp_dirty.insert(*key);
                }
            }
            ExtVpStorage::Bits(bits) => {
                if materialized {
                    bits.insert(*key, Bitmap::from_indices(vp_size, &indices));
                    self.update.extvp_dirty.insert(*key);
                } else if bits.remove(key).is_some() {
                    self.update.extvp_dirty.insert(*key);
                }
            }
            ExtVpStorage::Disk => {
                let stored = self.update.extvp_overlay.contains_key(key)
                    || self
                        .disk
                        .as_ref()
                        .is_some_and(|d| d.contains(&extvp_table_name(&self.dict, key)));
                if materialized {
                    self.update.extvp_overlay.insert(*key, Some(gathered()));
                    self.update.extvp_dirty.insert(*key);
                } else if stored {
                    // `None` overlays the on-disk body until checkpoint
                    // deletes the file.
                    self.update.extvp_overlay.insert(*key, None);
                    self.update.extvp_dirty.insert(*key);
                }
            }
            ExtVpStorage::Lazy => {
                // Statistics above are the source of truth; just drop a
                // stale cached materialization.
                self.lazy_cache.write().remove(key);
            }
        }
        Ok(())
    }

    /// Flushes every un-checkpointed update to disk and truncates the WAL.
    ///
    /// Protocol (each table write is itself temp + fsync + rename):
    /// 1. sweep orphan files an interrupted earlier flush left behind,
    /// 2. flush the dirty triples table, then dirty VP tables (drained
    ///    ones are deleted), then dirty ExtVP state per representation,
    /// 3. write the catalog, then the dictionary (atomic rewrites),
    /// 4. truncate the WAL — the commit point.
    ///
    /// A crash anywhere before step 4 leaves the WAL intact; the next
    /// [`S2rdfStore::load`] replays it conservatively and converges. The
    /// order is deterministic (sorted), so a kill-switch harness can
    /// enumerate every crash point.
    pub fn checkpoint(&mut self) -> Result<CheckpointReport, CoreError> {
        let Some(dir) = self.update.dir.clone() else {
            return Err(CoreError::Unsupported(
                "checkpoint requires a store with a backing directory (use save + load)"
                    .to_string(),
            ));
        };
        let mut report = CheckpointReport::default();
        if let Some(disk) = &mut self.disk {
            report.orphans_removed = disk.sweep_orphans()?.len();
        }
        if self.update.tt_dirty {
            let tt = self.triples_table()?;
            let disk = self.disk.as_mut().expect("loaded store has a table store");
            disk.save(TT_NAME, &tt)?;
            report.tables_flushed += 1;
        }
        let mut preds: Vec<TermId> = self.update.vp_dirty.iter().copied().collect();
        preds.sort_by_key(|p| p.0);
        for p in preds {
            let name = vp_table_name(&self.dict, p);
            let table = self.vp.get(&p).cloned().expect("dirty VP is resident");
            let disk = self.disk.as_mut().expect("loaded store has a table store");
            if table.num_rows() > 0 {
                disk.save(&name, &table)?;
                report.tables_flushed += 1;
            } else if disk.contains(&name) {
                disk.remove(&name)?;
                report.tables_removed += 1;
            }
        }
        let mut keys: Vec<ExtVpKey> = self.update.extvp_dirty.iter().copied().collect();
        keys.sort();
        match &self.extvp {
            ExtVpStorage::Rows(tables) => {
                for key in &keys {
                    let name = extvp_table_name(&self.dict, key);
                    let disk = self.disk.as_mut().expect("loaded store has a table store");
                    if let Some(table) = tables.get(key) {
                        disk.save(&name, table)?;
                        report.tables_flushed += 1;
                    } else if disk.contains(&name) {
                        disk.remove(&name)?;
                        report.tables_removed += 1;
                    }
                }
            }
            ExtVpStorage::Disk => {
                for key in &keys {
                    let name = extvp_table_name(&self.dict, key);
                    let entry = self.update.extvp_overlay.get(key).cloned();
                    let disk = self.disk.as_mut().expect("loaded store has a table store");
                    match entry {
                        Some(Some(table)) => {
                            disk.save(&name, &table)?;
                            report.tables_flushed += 1;
                        }
                        Some(None) if disk.contains(&name) => {
                            disk.remove(&name)?;
                            report.tables_removed += 1;
                        }
                        Some(None) | None => {}
                    }
                }
            }
            ExtVpStorage::Bits(bits) => {
                if !keys.is_empty() {
                    self.save_bitmaps(&dir, bits)?;
                    report.tables_flushed += keys.len();
                }
            }
            ExtVpStorage::Lazy | ExtVpStorage::None => {}
        }
        // Format convergence: any table file still in the legacy v2
        // format — loaded from a store built before the chunked format —
        // is rewritten as v3. Runs after the dirty flushes so freshly
        // saved tables are probed (and skipped) as already-current.
        if let Some(disk) = &mut self.disk {
            report.tables_upgraded = disk.upgrade_legacy()?;
        }
        if let Some(faults) = &self.faults {
            faults
                .crash_point("catalog.json")
                .map_err(|e| CoreError::Columnar(e.into()))?;
        }
        self.catalog.save(&dir.join("catalog.json"))?;
        let new_terms = self.dict.len().saturating_sub(self.update.dict_persisted);
        if new_terms > 0 {
            let tmp = dir.join("dictionary.nt.tmp");
            let write = || -> std::io::Result<()> {
                let mut out = BufWriter::new(std::fs::File::create(&tmp)?);
                for (_, term) in self.dict.iter() {
                    writeln!(out, "{term}")?;
                }
                let f = out
                    .into_inner()
                    .map_err(std::io::IntoInnerError::into_error)?;
                f.sync_all()?;
                if let Some(faults) = &self.faults {
                    faults.crash_point("dictionary.nt")?;
                }
                std::fs::rename(&tmp, dir.join("dictionary.nt"))
            };
            write().map_err(|e| {
                let _ = std::fs::remove_file(&tmp);
                CoreError::Catalog(e.to_string())
            })?;
            report.dict_terms_appended = new_terms;
            self.update.dict_persisted = self.dict.len();
        }
        // The commit point: dropping the WAL records declares everything
        // above durable. Dirty state is cleared only after it succeeds.
        if let Some(wal) = &mut self.update.wal {
            report.wal_records_truncated = wal.records();
            wal.truncate()?;
        }
        self.update.tt_dirty = false;
        self.update.vp_dirty.clear();
        self.update.extvp_dirty.clear();
        self.update.extvp_overlay.clear();
        Ok(report)
    }
}

/// Outcome of [`S2rdfStore::verify_and_repair`].
#[derive(Debug, Clone, Default)]
pub struct RepairReport {
    /// Manifest entries examined.
    pub scanned: usize,
    /// ExtVP partitions rebuilt from their VP base tables.
    pub repaired: Vec<String>,
    /// Damaged tables that could not be rebuilt (triples table, VP tables,
    /// or reductions whose base tables are themselves damaged), with the
    /// reason.
    pub unrecoverable: Vec<(String, String)>,
    /// Chunk-level localization of the damage, for corrupt v3 files whose
    /// chunk directory still parsed: `(table, corrupt chunk labels, total
    /// chunks)`. Legacy-format files cannot localize and never appear.
    pub corrupt_chunks: Vec<(String, Vec<String>, usize)>,
    /// Orphaned table files deleted.
    pub removed_orphans: Vec<String>,
    /// True if a final verification pass found the store fully clean.
    pub clean_after: bool,
}

/// Reads the dictionary file of a saved store (one N-Triples term per line,
/// id = line number). A term on two lines is corruption, not a merge: it
/// would shift the id of every later term.
fn load_dictionary(dir: &Path) -> Result<Dictionary, CoreError> {
    let bytes =
        std::fs::read(dir.join("dictionary.nt")).map_err(|e| CoreError::Catalog(e.to_string()))?;
    let text = std::str::from_utf8(&bytes)
        .map_err(|e| CoreError::Catalog(format!("dictionary.nt: {e}")))?;
    let terms = text
        .lines()
        .map(Term::parse_ntriples)
        .collect::<Result<Vec<_>, _>>()?;
    Dictionary::from_terms(terms)
        .map_err(|i| CoreError::Catalog(format!("dictionary.nt: line {} repeats a term", i + 1)))
}

/// Parses `ExtVP_<corr>/<p1>|<p2>` names back into keys. Predicates are
/// IRIs rendered as `<...>`, so the separator is the `|` between `>` and
/// `<`.
fn parse_extvp_name(name: &str, dict: &Dictionary) -> Result<ExtVpKey, CoreError> {
    let rest = name
        .strip_prefix("ExtVP_")
        .ok_or_else(|| CoreError::Catalog(format!("bad table name {name}")))?;
    let (corr_label, pair) = rest
        .split_once('/')
        .ok_or_else(|| CoreError::Catalog(format!("bad table name {name}")))?;
    let corr = match corr_label {
        "SS" => Correlation::SS,
        "OS" => Correlation::OS,
        "SO" => Correlation::SO,
        "OO" => Correlation::OO,
        other => return Err(CoreError::Catalog(format!("bad correlation {other}"))),
    };
    let sep = pair
        .find(">|<")
        .ok_or_else(|| CoreError::Catalog(format!("bad table name {name}")))?;
    let p1 = Term::parse_ntriples(&pair[..sep + 1])?;
    let p2 = Term::parse_ntriples(&pair[sep + 2..])?;
    let p1 = dict
        .id(&p1)
        .ok_or_else(|| CoreError::Catalog(format!("unknown predicate {p1}")))?;
    let p2 = dict
        .id(&p2)
        .ok_or_else(|| CoreError::Catalog(format!("unknown predicate {p2}")))?;
    Ok(ExtVpKey::new(corr, p1, p2))
}

#[cfg(test)]
mod tests {
    use super::*;
    use s2rdf_model::Triple;

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

    const Q_CHAIN: &str = "SELECT * WHERE { ?x <follows> ?y . ?y <likes> ?w }";

    #[test]
    fn build_counts() {
        let store = S2rdfStore::build(&g1(), &BuildOptions::default());
        assert_eq!(store.vp_tuples(), 7);
        assert_eq!(store.catalog().num_predicates(), 2);
        // Fig. 10: 5 green ExtVP tables for G1.
        assert_eq!(store.num_extvp_tables(), 5);
    }

    #[test]
    fn vp_only_build() {
        let store = S2rdfStore::build(
            &g1(),
            &BuildOptions {
                build_extvp: false,
                ..Default::default()
            },
        );
        assert_eq!(store.num_extvp_tables(), 0);
        assert!(!store.catalog().extvp_built);
        // Queries still work through VP.
        let s = store.query(Q_CHAIN).unwrap();
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn all_modes_answer_identically() {
        let reference = S2rdfStore::build(&g1(), &BuildOptions::default());
        let expected = reference.query(Q_CHAIN).unwrap().canonical();
        for mode in [ExtVpMode::BitVector, ExtVpMode::Lazy] {
            let store = S2rdfStore::build(
                &g1(),
                &BuildOptions {
                    mode,
                    ..Default::default()
                },
            );
            assert_eq!(store.num_extvp_tables(), reference.num_extvp_tables());
            assert_eq!(store.extvp_tuples(), reference.extvp_tuples());
            assert_eq!(
                store.query(Q_CHAIN).unwrap().canonical(),
                expected,
                "{mode:?}"
            );
        }
    }

    #[test]
    fn bitvector_payload_is_smaller() {
        // With large VP tables the bitmap payload undercuts 8 B/tuple — on
        // tiny G1 the advantage is absent, so synthesize a wider graph.
        let mut triples = Vec::new();
        for i in 0..2000 {
            triples.push(t(
                &format!("u{i}"),
                "follows",
                &format!("u{}", (i + 1) % 2000),
            ));
        }
        for i in 0..500 {
            triples.push(t(&format!("u{i}"), "likes", &format!("m{}", i % 50)));
        }
        let g = Graph::from_triples(triples);
        let rows = S2rdfStore::build(&g, &BuildOptions::default());
        let bits = S2rdfStore::build(
            &g,
            &BuildOptions {
                mode: ExtVpMode::BitVector,
                ..Default::default()
            },
        );
        assert_eq!(rows.extvp_tuples(), bits.extvp_tuples());
        assert!(
            bits.extvp_payload_bytes() * 4 < rows.extvp_payload_bytes(),
            "bitmaps {}B vs tables {}B",
            bits.extvp_payload_bytes(),
            rows.extvp_payload_bytes()
        );
    }

    #[test]
    fn lazy_cache_fills_on_use() {
        let store = S2rdfStore::build(
            &g1(),
            &BuildOptions {
                mode: ExtVpMode::Lazy,
                ..Default::default()
            },
        );
        assert_eq!(store.extvp_payload_bytes(), 0); // nothing materialized yet
        let s = store.query(Q_CHAIN).unwrap();
        assert_eq!(s.len(), 1);
        assert!(store.extvp_payload_bytes() > 0); // warm cache
                                                  // Second run hits the cache and still agrees.
        assert_eq!(store.query(Q_CHAIN).unwrap().len(), 1);
    }

    #[test]
    fn oo_correlation_improves_oo_queries() {
        let store_oo = S2rdfStore::build(
            &g1(),
            &BuildOptions {
                include_oo: true,
                ..Default::default()
            },
        );
        let store_plain = S2rdfStore::build(&g1(), &BuildOptions::default());
        // ?a follows ?w . ?c likes ?w — an OO correlation.
        let q = "SELECT * WHERE { ?a <follows> ?w . ?c <likes> ?w }";
        let a = store_oo.query(q).unwrap();
        let b = store_plain.query(q).unwrap();
        assert_eq!(a.canonical(), b.canonical());
        // With OO built, the follows-side scan reads the OO reduction
        // (follows tuples whose object is liked: only (B,D)? — objects of
        // likes are I1/I2, no follows object is liked, so SF = 0 and the
        // query is answered from statistics).
        let (_, explain) = store_oo
            .engine(true)
            .query_opt(q, &Default::default())
            .unwrap();
        assert!(explain.statically_empty);
        assert!(a.is_empty());
        // Without OO the plain store must execute the join.
        let (_, plain_explain) = store_plain
            .engine(true)
            .query_opt(q, &Default::default())
            .unwrap();
        assert!(!plain_explain.statically_empty);
    }

    /// Queries that together cover VP scans, ExtVP reductions and the
    /// statically-empty path.
    const PROBES: [&str; 3] = [
        Q_CHAIN,
        "SELECT * WHERE { ?x <follows> ?y }",
        "SELECT * WHERE { ?x <likes> ?y . ?y <follows> ?z }",
    ];

    /// Asserts a store answers every probe exactly like a from-scratch
    /// build over `expected` would.
    fn assert_matches_rebuild(store: &S2rdfStore, expected: &Graph, options: &BuildOptions) {
        let fresh = S2rdfStore::build(expected, options);
        for q in PROBES {
            assert_eq!(
                store.query(q).unwrap().canonical(),
                fresh.query(q).unwrap().canonical(),
                "{q}"
            );
        }
        assert_eq!(store.catalog().total_triples, expected.len());
        assert_eq!(store.vp_tuples(), expected.len());
        assert_eq!(store.extvp_tuples(), fresh.extvp_tuples());
        assert_eq!(store.num_extvp_tables(), fresh.num_extvp_tables());
    }

    #[test]
    fn in_memory_updates_match_rebuild_all_modes() {
        for mode in [
            ExtVpMode::Materialized,
            ExtVpMode::BitVector,
            ExtVpMode::Lazy,
        ] {
            let options = BuildOptions {
                mode,
                ..Default::default()
            };
            let mut store = S2rdfStore::build(&g1(), &options);
            // Insert: D likes I1 (new subject for likes, new ExtVP links).
            let summary = store.insert(&[t("D", "likes", "I1")]).unwrap();
            assert_eq!(summary.inserted, 1, "{mode:?}");
            assert!(summary.extvp_recomputed > 0);
            // Duplicate insert is a no-op.
            assert_eq!(
                store.insert(&[t("D", "likes", "I1")]).unwrap(),
                DeltaSummary::default()
            );
            // Delete one follows edge; deleting an absent triple no-ops.
            let summary = store
                .delete(&[t("B", "follows", "C"), t("B", "follows", "nope")])
                .unwrap();
            assert_eq!(summary.deleted, 1);
            let mut expected = g1();
            expected.insert(&t("D", "likes", "I1"));
            expected.remove(&t("B", "follows", "C"));
            assert_matches_rebuild(&store, &expected, &options);
        }
    }

    #[test]
    fn update_drains_predicate_and_statistics() {
        let mut store = S2rdfStore::build(&g1(), &BuildOptions::default());
        let likes: Vec<Triple> = [
            t("A", "likes", "I1"),
            t("A", "likes", "I2"),
            t("C", "likes", "I2"),
        ]
        .to_vec();
        store.delete(&likes).unwrap();
        assert_eq!(store.catalog().num_predicates(), 1);
        assert_eq!(store.query(Q_CHAIN).unwrap().len(), 0);
        let mut expected = g1();
        for tr in &likes {
            expected.remove(tr);
        }
        assert_matches_rebuild(&store, &expected, &BuildOptions::default());
        // Re-inserting brings everything back.
        store.insert(&likes).unwrap();
        assert_matches_rebuild(&store, &g1(), &BuildOptions::default());
    }

    #[test]
    fn estimated_rows_follow_deltas() {
        use crate::compiler::TableSource;
        let mut store = S2rdfStore::build(&g1(), &BuildOptions::default());
        let follows = store.dict().id(&Term::iri("follows")).unwrap();
        assert_eq!(store.estimated_rows(&TableSource::Vp(follows)), 4);
        assert_eq!(store.estimated_rows(&TableSource::TriplesTable), 7);
        store
            .insert(&[t("D", "follows", "A"), t("E", "follows", "A")])
            .unwrap();
        assert_eq!(store.estimated_rows(&TableSource::Vp(follows)), 6);
        assert_eq!(store.estimated_rows(&TableSource::TriplesTable), 9);
        store.delete(&[t("A", "follows", "B")]).unwrap();
        assert_eq!(store.estimated_rows(&TableSource::Vp(follows)), 5);
        let key = ExtVpKey::new(
            Correlation::OS,
            follows,
            store.dict().id(&Term::iri("likes")).unwrap(),
        );
        // OS follows|likes grew: D follows A and A likes things.
        let fresh_count = store.catalog().extvp_stat(&key).unwrap().count;
        assert_eq!(store.estimated_rows(&TableSource::ExtVp(key)), fresh_count);
        assert!(fresh_count > 1);
    }

    /// Joins read the tables the deltas grew: a join whose probe side fits
    /// in one morsel runs serially, and flips to a multi-morsel
    /// (broadcast) probe once a large delta grows that side past
    /// `morsel_rows` — without rebuilding the store.
    #[test]
    fn join_strategy_flips_after_large_delta() {
        use s2rdf_columnar::exec::{JoinConfig, JoinStrategy};
        let mut triples = Vec::new();
        for i in 0..8 {
            triples.push(t(&format!("s{i}"), "p", &format!("m{i}")));
            triples.push(t(&format!("m{i}"), "q", &format!("o{i}")));
        }
        let mut store = S2rdfStore::build(&Graph::from_triples(triples), &BuildOptions::default());
        let options = QueryOptions {
            join: JoinConfig { morsel_rows: 64 },
            ..QueryOptions::default()
        };
        let q = "SELECT * WHERE { ?x <p> ?y . ?y <q> ?z }";
        let (solutions, explain) = store.query_opt(q, &options).unwrap();
        assert_eq!(solutions.len(), 8);
        assert!(
            !explain.join_steps.is_empty()
                && explain
                    .join_steps
                    .iter()
                    .all(|j| j.decision.strategy == JoinStrategy::Serial),
            "an 8-row probe fits in one morsel: {:?}",
            explain.join_steps
        );

        let mut delta = Vec::new();
        for i in 0..500 {
            delta.push(t(&format!("S{i}"), "p", &format!("M{i}")));
            delta.push(t(&format!("M{i}"), "q", &format!("O{i}")));
        }
        store.insert(&delta).unwrap();
        let (solutions, explain) = store.query_opt(q, &options).unwrap();
        assert_eq!(solutions.len(), 508);
        assert!(
            explain
                .join_steps
                .iter()
                .any(|j| j.decision.strategy == JoinStrategy::Broadcast && j.decision.morsels > 1),
            "a 508-row probe must be cut into morsels: {:?}",
            explain.join_steps
        );
    }

    #[test]
    fn durable_update_recovers_without_checkpoint() {
        let dir = std::env::temp_dir().join(format!("s2rdf-wal-replay-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        S2rdfStore::build(&g1(), &BuildOptions::default())
            .save(&dir)
            .unwrap();
        let mut store = S2rdfStore::load(&dir).unwrap();
        assert_eq!(store.wal_replayed(), 0);
        store.insert(&[t("D", "likes", "I1")]).unwrap();
        store.delete(&[t("B", "follows", "C")]).unwrap();
        assert_eq!(store.wal_pending(), 2);
        let expected: Vec<_> = PROBES
            .iter()
            .map(|q| store.query(q).unwrap().canonical())
            .collect();
        drop(store); // "crash": no checkpoint, WAL survives
        let reopened = S2rdfStore::load(&dir).unwrap();
        assert_eq!(reopened.wal_replayed(), 2);
        for (q, want) in PROBES.iter().zip(&expected) {
            assert_eq!(&reopened.query(q).unwrap().canonical(), want, "{q}");
        }
        let mut graph = g1();
        graph.insert(&t("D", "likes", "I1"));
        graph.remove(&t("B", "follows", "C"));
        assert_matches_rebuild(&reopened, &graph, &BuildOptions::default());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn checkpoint_truncates_wal_and_persists() {
        let dir = std::env::temp_dir().join(format!("s2rdf-ckpt-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        S2rdfStore::build(&g1(), &BuildOptions::default())
            .save(&dir)
            .unwrap();
        let mut store = S2rdfStore::load(&dir).unwrap();
        store.insert(&[t("D", "likes", "I1")]).unwrap();
        store.delete(&[t("A", "likes", "I1")]).unwrap();
        let report = store.checkpoint().unwrap();
        assert_eq!(report.wal_records_truncated, 2);
        assert!(report.tables_flushed > 0);
        assert_eq!(report.dict_terms_appended, 0); // D, I1 already interned
        assert_eq!(store.wal_pending(), 0);
        // A second checkpoint with nothing dirty is a no-op.
        let report = store.checkpoint().unwrap();
        assert_eq!(report.tables_flushed, 0);
        let expected: Vec<_> = PROBES
            .iter()
            .map(|q| store.query(q).unwrap().canonical())
            .collect();
        drop(store);
        let reopened = S2rdfStore::load(&dir).unwrap();
        assert_eq!(reopened.wal_replayed(), 0);
        for (q, want) in PROBES.iter().zip(&expected) {
            assert_eq!(&reopened.query(q).unwrap().canonical(), want, "{q}");
        }
        // The checkpointed store verifies clean.
        let report = S2rdfStore::verify_and_repair(&dir).unwrap();
        assert!(report.clean_after, "{report:?}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn checkpoint_persists_new_dictionary_terms() {
        let dir = std::env::temp_dir().join(format!("s2rdf-dict-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        S2rdfStore::build(&g1(), &BuildOptions::default())
            .save(&dir)
            .unwrap();
        let mut store = S2rdfStore::load(&dir).unwrap();
        store.insert(&[t("E", "knows", "F")]).unwrap();
        let report = store.checkpoint().unwrap();
        assert_eq!(report.dict_terms_appended, 3);
        drop(store);
        let reopened = S2rdfStore::load(&dir).unwrap();
        let q = "SELECT * WHERE { ?x <knows> ?y }";
        assert_eq!(reopened.query(q).unwrap().len(), 1);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn checkpoint_requires_backing_directory() {
        let mut store = S2rdfStore::build(&g1(), &BuildOptions::default());
        assert!(store.checkpoint().is_err());
    }

    #[test]
    fn save_load_roundtrip_all_modes() {
        for (idx, options) in [
            BuildOptions::default(),
            BuildOptions {
                mode: ExtVpMode::BitVector,
                ..Default::default()
            },
            BuildOptions {
                mode: ExtVpMode::Lazy,
                ..Default::default()
            },
            BuildOptions {
                include_oo: true,
                ..Default::default()
            },
        ]
        .iter()
        .enumerate()
        {
            let dir =
                std::env::temp_dir().join(format!("s2rdf-store-{}-{idx}", std::process::id()));
            let _ = std::fs::remove_dir_all(&dir);
            let store = S2rdfStore::build(&g1(), options);
            store.save(&dir).unwrap();
            let loaded = S2rdfStore::load(&dir).unwrap();
            assert_eq!(loaded.mode(), store.mode(), "mode {idx}");
            assert_eq!(loaded.vp_tuples(), store.vp_tuples());
            assert_eq!(loaded.extvp_tuples(), store.extvp_tuples());
            assert_eq!(loaded.num_extvp_tables(), store.num_extvp_tables());
            assert_eq!(loaded.catalog().oo_built, store.catalog().oo_built);
            assert_eq!(
                loaded.query(Q_CHAIN).unwrap().canonical(),
                store.query(Q_CHAIN).unwrap().canonical()
            );
            let (tt, vp, _) = S2rdfStore::disk_sizes(&dir).unwrap();
            assert!(tt > 0 && vp > 0);
            std::fs::remove_dir_all(&dir).unwrap();
        }
    }
}
