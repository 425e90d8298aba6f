//! Persistent table store: the stand-in for Parquet files on HDFS.
//!
//! Tables are serialized one file per table into a store directory, in a
//! chunked columnar format (v3) with per-chunk lightweight compression,
//! zone maps and optional per-column Bloom filters — standing in for
//! Parquet's row groups + column statistics, see DESIGN.md and
//! [`crate::chunk`]. A `manifest.tsv` maps logical table names (which
//! contain characters like `|` that the ExtVP naming scheme uses) to
//! on-disk file names.
//!
//! # Format versions
//!
//! * **v3** (current): `magic | version | header | header CRC-32 | chunk
//!   bodies | file CRC-32`. The header carries the schema plus per-chunk
//!   zone maps (min/max/distinct), encodings, body lengths and per-chunk
//!   CRCs, so [`TableStore::load_compressed`] can plan chunk skipping
//!   without decoding anything; the trailing whole-file CRC still catches
//!   every bit flip or truncation up front.
//! * **v2**: one varint/RLE stream per column with a whole-file CRC-32
//!   footer. Read-only: nothing writes v2 any more, and `checkpoint`
//!   transparently rewrites v2 tables as v3.
//!
//! Any other version byte — including the footer-less v1 of the earliest
//! stores — fails as `unsupported version`.
//!
//! # Durability
//!
//! Any bit flip or truncation of a stored table surfaces as
//! [`ColumnarError::ChecksumMismatch`] instead of silently decoding to wrong
//! data (or worse, decoding "successfully"). v3 per-chunk CRCs additionally
//! localize the damage: [`TableStore::verify_chunks`] reports exactly which
//! chunks of which columns are corrupt, so repair can quarantine at chunk
//! granularity instead of whole-table.
//!
//! All writes — table files and the manifest — go through a
//! temp-file-then-rename sequence, so a crash mid-save leaves either the old
//! or the new content, never a torn file. Table files are written before the
//! manifest that references them; a crash between the two leaves an
//! unreferenced `t*.col` file, which [`TableStore::open`] detects and
//! reports via [`TableStore::orphans`]. Stale `*.tmp` files are cleaned up
//! on open.
//!
//! A [`FaultInjector`] can be attached to exercise all of those paths
//! deterministically; see [`crate::fault`].

use std::fmt::Write as _;
use std::fs;
use std::io::{BufReader, Read, Write};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, MutexGuard};

use rustc_hash::FxHashMap;

use crate::chunk::{self, Bloom, ChunkMeta, ColMeta, CompressedTable, WriteOptions};
use crate::crc32::crc32;
use crate::error::ColumnarError;
use crate::fault::FaultInjector;
use crate::schema::Schema;
use crate::table::Table;
use crate::{metric_counter, metric_gauge};

const MAGIC: &[u8; 4] = b"S2CT";
/// Current format version: chunked columns with zone maps (see
/// [`crate::chunk`]), per-chunk CRCs, a header CRC and a whole-file footer.
const VERSION_V3: u8 = 3;
/// Monolithic per-column varint/RLE streams with a CRC-32 footer; read-only.
const VERSION_V2: u8 = 2;
/// Footer: little-endian CRC-32 of all preceding bytes.
const FOOTER_LEN: usize = 4;
const ENC_PLAIN: u8 = 0;
const ENC_RLE: u8 = 1;

/// Upper bound on `nrows * ncols` accepted from untrusted bytes (2^28 cells
/// = 1 GiB of u32 values). Prevents a corrupted header from driving huge
/// allocations before the row-count cross-checks can fire.
const MAX_CELLS: u64 = 1 << 28;
/// Cap on speculative `Vec::with_capacity` hints while decoding, so a
/// corrupt row count cannot pre-allocate unbounded memory.
const MAX_CAPACITY_HINT: usize = 1 << 22;

pub(crate) fn write_varint(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

pub(crate) fn read_varint(data: &[u8], pos: &mut usize) -> Result<u64, ColumnarError> {
    let mut v: u64 = 0;
    let mut shift = 0;
    loop {
        let byte = *data
            .get(*pos)
            .ok_or_else(|| ColumnarError::CorruptFile("truncated varint".into()))?;
        *pos += 1;
        v |= ((byte & 0x7f) as u64) << shift;
        if byte & 0x80 == 0 {
            return Ok(v);
        }
        shift += 7;
        if shift >= 64 {
            return Err(ColumnarError::CorruptFile("varint overflow".into()));
        }
    }
}

/// Decodes one v2 column stream (a plain-varint or RLE body).
fn decode_column(data: &[u8], pos: &mut usize, nrows: usize) -> Result<Vec<u32>, ColumnarError> {
    let tag = *data
        .get(*pos)
        .ok_or_else(|| ColumnarError::CorruptFile("missing column tag".into()))?;
    *pos += 1;
    let body_len = read_varint(data, pos)? as usize;
    let end = pos
        .checked_add(body_len)
        .ok_or_else(|| ColumnarError::CorruptFile("column body length overflow".into()))?;
    if end > data.len() {
        return Err(ColumnarError::CorruptFile("truncated column body".into()));
    }
    let mut col = Vec::with_capacity(nrows.min(MAX_CAPACITY_HINT));
    match tag {
        ENC_PLAIN => {
            while *pos < end {
                col.push(read_varint(data, pos)? as u32);
            }
        }
        ENC_RLE => {
            while *pos < end {
                let value = read_varint(data, pos)? as u32;
                let run = read_varint(data, pos)?;
                // Bound before extending: a corrupt run length must not
                // drive an allocation past the declared row count.
                if run > nrows as u64 - col.len() as u64 {
                    return Err(ColumnarError::CorruptFile(format!(
                        "RLE run of {run} overflows {nrows}-row column"
                    )));
                }
                col.extend(std::iter::repeat_n(value, run as usize));
            }
        }
        other => {
            return Err(ColumnarError::CorruptFile(format!(
                "unknown column encoding {other}"
            )))
        }
    }
    if col.len() != nrows {
        return Err(ColumnarError::CorruptFile(format!(
            "column decoded to {} rows, expected {nrows}",
            col.len()
        )));
    }
    Ok(col)
}

/// Serializes a table into the current columnar file format (v3, chunked
/// with zone maps) using default write options.
pub fn serialize_table(table: &Table) -> Vec<u8> {
    serialize_table_opts(table, &WriteOptions::default())
}

/// Serializes a table as format v3 with explicit chunking/Bloom options.
pub fn serialize_table_opts(table: &Table, opts: &WriteOptions) -> Vec<u8> {
    serialize_compressed(&CompressedTable::from_table(table, opts))
}

/// Serializes an already-encoded [`CompressedTable`] (v3 layout: header,
/// header CRC, chunk bodies, whole-file CRC footer).
fn serialize_compressed(ct: &CompressedTable) -> Vec<u8> {
    let mut out = Vec::with_capacity(ct.body.len() + 64);
    out.extend_from_slice(MAGIC);
    out.push(VERSION_V3);
    write_varint(&mut out, ct.schema.len() as u64);
    for name in ct.schema.names() {
        write_varint(&mut out, name.len() as u64);
        out.extend_from_slice(name.as_bytes());
    }
    write_varint(&mut out, ct.nrows as u64);
    write_varint(&mut out, ct.chunk_rows as u64);
    // Chunk counts and per-chunk row counts are derived from
    // `nrows`/`chunk_rows` at parse time, so only the zone maps, encodings,
    // body lengths and CRCs are written per chunk.
    for col in &ct.cols {
        match &col.bloom {
            Some(bloom) => {
                out.push(1);
                bloom.write(&mut out);
            }
            None => out.push(0),
        }
        for m in &col.chunks {
            out.push(m.enc);
            write_varint(&mut out, m.min as u64);
            write_varint(&mut out, (m.max - m.min) as u64);
            out.push(m.distinct as u8);
            write_varint(&mut out, m.len as u64);
            out.extend_from_slice(&m.crc.to_le_bytes());
        }
    }
    let header_crc = crc32(&out);
    out.extend_from_slice(&header_crc.to_le_bytes());
    out.extend_from_slice(&ct.body);
    let footer = crc32(&out);
    out.extend_from_slice(&footer.to_le_bytes());
    out
}

/// Verifies the whole-file CRC-32 footer shared by v2 and v3 images.
fn check_footer(data: &[u8]) -> Result<usize, ColumnarError> {
    if data.len() < 5 + FOOTER_LEN {
        return Err(ColumnarError::CorruptFile(
            "truncated checksum footer".into(),
        ));
    }
    let body_end = data.len() - FOOTER_LEN;
    let expected = u32::from_le_bytes(data[body_end..].try_into().expect("4-byte footer"));
    let actual = crc32(&data[..body_end]);
    if actual != expected {
        metric_counter!("columnar.io.checksum_failures").inc();
        return Err(ColumnarError::ChecksumMismatch { expected, actual });
    }
    metric_counter!("columnar.io.checksum_verifies").inc();
    Ok(body_end)
}

/// Parses a v3 image into its compressed form without decoding any chunk.
/// Verifies the header CRC (the zone maps and chunk directory must be
/// trustworthy before any pruning decision); the whole-file footer is the
/// caller's concern — [`TableStore::load_compressed`] checks it on every
/// physical read, while chunk-granular diagnostics
/// ([`TableStore::verify_chunks`]) deliberately skip it to localize
/// damage.
///
/// Total over arbitrary bytes: corrupt input of any shape produces an
/// `Err`, never a panic or unbounded allocation.
fn parse_compressed_v3(data: &[u8]) -> Result<CompressedTable, ColumnarError> {
    debug_assert!(data.len() >= 5 && &data[..4] == MAGIC && data[4] == VERSION_V3);
    let mut pos = 5usize;
    let ncols = read_varint(data, &mut pos)? as usize;
    if ncols > data.len() {
        return Err(ColumnarError::CorruptFile(format!(
            "implausible column count {ncols} for {}-byte file",
            data.len()
        )));
    }
    let mut names = Vec::with_capacity(ncols);
    for _ in 0..ncols {
        let len = read_varint(data, &mut pos)? as usize;
        let end = pos
            .checked_add(len)
            .ok_or_else(|| ColumnarError::CorruptFile("column name length overflow".into()))?;
        let bytes = data
            .get(pos..end)
            .ok_or_else(|| ColumnarError::CorruptFile("truncated column name".into()))?;
        names.push(
            std::str::from_utf8(bytes)
                .map_err(|_| ColumnarError::CorruptFile("non-utf8 column name".into()))?
                .to_string(),
        );
        pos = end;
    }
    // `Schema::new` treats duplicate names as a caller bug (panic); from
    // untrusted bytes they are corruption.
    let unique: std::collections::HashSet<&str> = names.iter().map(String::as_str).collect();
    if unique.len() != names.len() {
        return Err(ColumnarError::CorruptFile("duplicate column name".into()));
    }
    let nrows = read_varint(data, &mut pos)? as usize;
    let cells = (nrows as u64)
        .checked_mul(ncols.max(1) as u64)
        .ok_or_else(|| ColumnarError::CorruptFile("table dimensions overflow".into()))?;
    if cells > MAX_CELLS {
        return Err(ColumnarError::CorruptFile(format!(
            "table dimensions {nrows}x{ncols} exceed cell limit"
        )));
    }
    let chunk_rows = read_varint(data, &mut pos)? as usize;
    if chunk_rows == 0 || chunk_rows as u64 > MAX_CELLS {
        return Err(ColumnarError::CorruptFile(format!(
            "implausible chunk size {chunk_rows}"
        )));
    }
    let nchunks = if nrows == 0 {
        0
    } else {
        nrows.div_ceil(chunk_rows)
    };
    let mut cols = Vec::with_capacity(ncols.min(MAX_CAPACITY_HINT));
    let mut offset = 0usize;
    for _ in 0..ncols {
        let has_bloom = *data
            .get(pos)
            .ok_or_else(|| ColumnarError::CorruptFile("truncated Bloom flag".into()))?;
        pos += 1;
        let bloom = match has_bloom {
            0 => None,
            1 => Some(Bloom::read(data, &mut pos)?),
            other => {
                return Err(ColumnarError::CorruptFile(format!(
                    "bad Bloom flag {other}"
                )))
            }
        };
        let mut chunks = Vec::with_capacity(nchunks.min(MAX_CAPACITY_HINT));
        for k in 0..nchunks {
            let enc = *data
                .get(pos)
                .ok_or_else(|| ColumnarError::CorruptFile("truncated chunk encoding".into()))?;
            pos += 1;
            if enc > chunk::ENC_CHUNK_DELTA {
                return Err(ColumnarError::CorruptFile(format!(
                    "unknown chunk encoding {enc}"
                )));
            }
            let min = read_varint(data, &mut pos)?;
            let span = read_varint(data, &mut pos)?;
            let max = min
                .checked_add(span)
                .filter(|&m| m <= u32::MAX as u64)
                .ok_or_else(|| ColumnarError::CorruptFile("zone map exceeds u32".into()))?;
            let distinct = *data
                .get(pos)
                .ok_or_else(|| ColumnarError::CorruptFile("truncated distinct flag".into()))?;
            pos += 1;
            if distinct > 1 {
                return Err(ColumnarError::CorruptFile("bad distinct flag".into()));
            }
            let len = read_varint(data, &mut pos)? as usize;
            let crc_bytes = data
                .get(pos..pos + 4)
                .ok_or_else(|| ColumnarError::CorruptFile("truncated chunk CRC".into()))?;
            pos += 4;
            let rows = if k + 1 == nchunks {
                nrows - (nchunks - 1) * chunk_rows
            } else {
                chunk_rows
            };
            chunks.push(ChunkMeta {
                rows,
                min: min as u32,
                max: max as u32,
                distinct: distinct == 1,
                enc,
                offset,
                len,
                crc: u32::from_le_bytes(crc_bytes.try_into().expect("4-byte CRC")),
            });
            offset = offset
                .checked_add(len)
                .ok_or_else(|| ColumnarError::CorruptFile("chunk offsets overflow".into()))?;
        }
        cols.push(ColMeta { chunks, bloom });
    }
    let header_end = pos;
    let declared = u32::from_le_bytes(
        data.get(header_end..header_end + 4)
            .ok_or_else(|| ColumnarError::CorruptFile("truncated header CRC".into()))?
            .try_into()
            .expect("4-byte CRC"),
    );
    let actual = crc32(&data[..header_end]);
    if actual != declared {
        metric_counter!("columnar.io.checksum_failures").inc();
        return Err(ColumnarError::ChecksumMismatch {
            expected: declared,
            actual,
        });
    }
    let bodies_start = header_end + 4;
    // Exact-length check: anything shorter is torn, anything longer is
    // appended garbage (and would also defeat the footer).
    if data.len() != bodies_start + offset + FOOTER_LEN {
        return Err(ColumnarError::CorruptFile(format!(
            "file length {} does not match declared chunk bodies",
            data.len()
        )));
    }
    Ok(CompressedTable {
        schema: Schema::new(names),
        nrows,
        chunk_rows,
        cols,
        body: data[bodies_start..bodies_start + offset].to_vec(),
        file_bytes: data.len(),
        materialized: std::sync::OnceLock::new(),
    })
}

/// Parses any supported format into the compressed representation: v3
/// stays compressed (chunks decode on demand); v2 decodes fully and is
/// wrapped via [`CompressedTable::from_plain`]. `verify_footer` controls
/// whether the v3 whole-file CRC is checked (physical reads do; chunk
/// diagnostics do not).
fn parse_compressed(data: &[u8], verify_footer: bool) -> Result<CompressedTable, ColumnarError> {
    if data.len() >= 5 && &data[..4] == MAGIC && data[4] == VERSION_V3 {
        if verify_footer {
            check_footer(data)?;
        }
        parse_compressed_v3(data)
    } else {
        let table = Arc::new(deserialize_table(data)?);
        Ok(CompressedTable::from_plain(table, data.len()))
    }
}

/// Deserializes a table from the columnar file format.
///
/// Accepts the current v3 chunked format and legacy v2. Both are
/// checksum-verified — the whole-file footer is checked *first*, so any
/// single corrupt byte yields
/// [`ColumnarError::ChecksumMismatch`] regardless of where it landed.
/// Designed to be total over arbitrary input bytes: corrupt data of any
/// shape produces an `Err`, never a panic or unbounded allocation.
pub fn deserialize_table(data: &[u8]) -> Result<Table, ColumnarError> {
    if data.len() < 5 || &data[..4] != MAGIC {
        return Err(ColumnarError::CorruptFile("bad magic".into()));
    }
    let body_end = match data[4] {
        VERSION_V2 => check_footer(data)?,
        VERSION_V3 => {
            check_footer(data)?;
            let ct = parse_compressed_v3(data)?;
            let table = ct.materialize()?;
            drop(ct);
            return Ok(Arc::try_unwrap(table).unwrap_or_else(|t| (*t).clone()));
        }
        other => {
            return Err(ColumnarError::CorruptFile(format!(
                "unsupported version {other}"
            )))
        }
    };
    let data = &data[..body_end];
    let mut pos = 5;
    let ncols = read_varint(data, &mut pos)? as usize;
    // Each column needs at least a 1-byte name length in the header, so a
    // column count beyond the file size is structurally impossible.
    if ncols > data.len() {
        return Err(ColumnarError::CorruptFile(format!(
            "implausible column count {ncols} for {}-byte file",
            data.len()
        )));
    }
    let mut names = Vec::with_capacity(ncols);
    for _ in 0..ncols {
        let len = read_varint(data, &mut pos)? as usize;
        let end = pos
            .checked_add(len)
            .ok_or_else(|| ColumnarError::CorruptFile("column name length overflow".into()))?;
        let bytes = data
            .get(pos..end)
            .ok_or_else(|| ColumnarError::CorruptFile("truncated column name".into()))?;
        names.push(
            std::str::from_utf8(bytes)
                .map_err(|_| ColumnarError::CorruptFile("non-utf8 column name".into()))?
                .to_string(),
        );
        pos = end;
    }
    let nrows = read_varint(data, &mut pos)? as usize;
    let cells = (nrows as u64)
        .checked_mul(ncols.max(1) as u64)
        .ok_or_else(|| ColumnarError::CorruptFile("table dimensions overflow".into()))?;
    if cells > MAX_CELLS {
        return Err(ColumnarError::CorruptFile(format!(
            "table dimensions {nrows}x{ncols} exceed cell limit"
        )));
    }
    let mut cols = Vec::with_capacity(ncols);
    for _ in 0..ncols {
        cols.push(decode_column(data, &mut pos, nrows)?);
    }
    // Reject trailing bytes: the declared columns must account for the
    // whole checksummed body, so nothing unread can hide before the footer.
    if pos != data.len() {
        return Err(ColumnarError::CorruptFile(format!(
            "{} trailing bytes after table body",
            data.len() - pos
        )));
    }
    Ok(Table::from_columns(Schema::new(names), cols))
}

/// Outcome of a full-store integrity scan ([`TableStore::verify_all`]).
#[derive(Debug, Clone, Default)]
pub struct VerifyReport {
    /// Tables that decoded and checksum-verified cleanly.
    pub ok: Vec<String>,
    /// Tables whose file failed to read or decode, with the error text.
    /// These are the quarantine candidates for repair.
    pub corrupt: Vec<(String, String)>,
    /// Chunk-level localization for corrupt v3 tables: `(name, corrupt
    /// chunk labels, total chunks)`. A table appears here (in addition to
    /// `corrupt`) when its header still parses, so the damage can be
    /// pinned to specific chunks instead of quarantining blind.
    pub corrupt_chunks: Vec<(String, Vec<String>, usize)>,
    /// Tables referenced by the manifest whose file is missing entirely.
    pub missing: Vec<String>,
    /// `t*.col` files present on disk but referenced by no manifest entry
    /// (e.g. from a crash between writing a table and its manifest).
    pub orphans: Vec<String>,
}

impl VerifyReport {
    /// True when every manifest entry verified and no orphans exist.
    pub fn is_clean(&self) -> bool {
        self.corrupt.is_empty() && self.missing.is_empty() && self.orphans.is_empty()
    }
}

/// Chunk-granular integrity report for one v3 table
/// ([`TableStore::verify_chunks`]).
#[derive(Debug, Clone, Default)]
pub struct ChunkVerifyReport {
    /// Labels (`col <name> chunk <k>`) of chunks whose CRC or decode
    /// failed.
    pub corrupt: Vec<String>,
    /// Total chunks checked (columns × row ranges).
    pub total: usize,
}

/// Pins corruption inside a v3 image to specific chunks: parses the
/// header (skipping the whole-file footer — it is known bad or the caller
/// would not be here) and CRC-checks every chunk body. Returns `None`
/// when the image is not v3 or its header itself is damaged (nothing to
/// localize — the zone maps can't be trusted).
fn locate_corrupt_chunks(data: &[u8]) -> Option<ChunkVerifyReport> {
    if data.len() < 5 || &data[..4] != MAGIC || data[4] != VERSION_V3 {
        return None;
    }
    let ct = parse_compressed_v3(data).ok()?;
    let mut report = ChunkVerifyReport::default();
    for (c, col) in ct.cols.iter().enumerate() {
        for k in 0..col.chunks.len() {
            report.total += 1;
            if ct.decode_chunk(c, k).is_err() {
                report
                    .corrupt
                    .push(format!("col {} chunk {k}", ct.schema.name(c)));
            }
        }
    }
    Some(report)
}

/// Extracts the sequence number from a store-managed file name (`t%06d.col`).
fn table_file_seq(file: &str) -> Option<u64> {
    file.strip_prefix('t')
        .and_then(|f| f.strip_suffix(".col"))
        .and_then(|n| n.parse::<u64>().ok())
}

/// One manifest entry: the backing file plus its cached on-disk size.
///
/// The size is recorded in the manifest itself (a `#size` line) so that
/// [`TableStore::file_size`]/[`TableStore::total_size`] answer without a
/// `stat` per call — the analogue of Parquet footers carrying file-level
/// stats that planners consult without touching row groups.
#[derive(Debug, Clone)]
struct ManifestEntry {
    file: String,
    /// On-disk bytes; `None` only for legacy manifests whose file vanished
    /// before the open-time directory scan could observe it.
    bytes: Option<u64>,
}

/// A table body held by the demand cache — in **compressed** form since
/// format v3, so the byte budget admits more tables for the same memory
/// (chunks decode on demand; one full materialization is memoized inside
/// the [`CompressedTable`]).
#[derive(Debug)]
struct CachedBody {
    table: Arc<CompressedTable>,
    bytes: u64,
    last_used: u64,
}

/// Interior-mutable cache of table bodies, keyed by logical name.
///
/// `load` fills it on first touch (which is also where checksum
/// verification happens); an optional byte budget — counted over
/// *compressed* bytes — evicts least-recently-used bodies. Handed-out
/// `Arc`s keep evicted tables alive for their users — eviction only drops
/// the cache's reference.
#[derive(Debug, Default)]
struct BodyCache {
    map: FxHashMap<String, CachedBody>,
    clock: u64,
    total_bytes: u64,
    budget: Option<u64>,
}

impl BodyCache {
    fn touch(&mut self, name: &str) -> Option<Arc<CompressedTable>> {
        self.clock += 1;
        let clock = self.clock;
        self.map.get_mut(name).map(|e| {
            e.last_used = clock;
            e.table.clone()
        })
    }

    fn insert(&mut self, name: String, table: Arc<CompressedTable>) {
        let bytes = table.compressed_bytes() as u64;
        self.clock += 1;
        let entry = CachedBody {
            table,
            bytes,
            last_used: self.clock,
        };
        if let Some(old) = self.map.insert(name, entry) {
            self.total_bytes -= old.bytes;
        }
        self.total_bytes += bytes;
        self.evict_to_budget();
        metric_gauge!("columnar.io.cache_bytes").set(self.total_bytes);
    }

    fn remove(&mut self, name: &str) {
        if let Some(old) = self.map.remove(name) {
            self.total_bytes -= old.bytes;
            metric_gauge!("columnar.io.cache_bytes").set(self.total_bytes);
        }
    }

    /// Evicts least-recently-used bodies until the cache fits its budget.
    /// The most recent entry always survives (a single over-budget table
    /// stays resident until something else displaces it).
    fn evict_to_budget(&mut self) {
        let Some(budget) = self.budget else { return };
        while self.total_bytes > budget && self.map.len() > 1 {
            let victim = self
                .map
                .iter()
                .min_by_key(|(_, e)| e.last_used)
                .map(|(n, _)| n.clone())
                .expect("cache checked non-empty");
            self.remove(&victim);
            metric_counter!("columnar.io.cache_evictions").inc();
        }
    }

    fn clear(&mut self) {
        self.map.clear();
        self.total_bytes = 0;
        metric_gauge!("columnar.io.cache_bytes").set(0);
    }
}

/// Auxiliary manifest line carrying a file's size: `#size\t<file>\t<bytes>`.
const SIZE_PREFIX: &str = "#size\t";
/// Trailing manifest integrity line: `#crc\t<hex crc32 of entry+size lines>`.
const CRC_PREFIX: &str = "#crc\t";

/// A directory of persisted tables with an eagerly-read, checksummed
/// manifest and on-demand (lazy) table bodies.
///
/// Opening a store reads **only** the manifest: table bodies are read,
/// checksum-verified and decoded on first [`TableStore::load`], then shared
/// as [`Arc<Table>`] handles through an interior-mutability cache with an
/// optional byte-budget LRU eviction policy
/// ([`TableStore::set_cache_budget`]). This is the shared-memory analogue of
/// Spark SQL reading Parquet footers at planning time and column chunks
/// on demand during execution.
#[derive(Debug)]
pub struct TableStore {
    root: PathBuf,
    /// logical name -> backing file + cached size
    manifest: FxHashMap<String, ManifestEntry>,
    next_file: u64,
    /// Unreferenced `t*.col` files found on open (crash leftovers).
    orphans: Vec<String>,
    /// Optional deterministic fault injection; `None` costs one branch.
    faults: Option<Arc<FaultInjector>>,
    /// Demand cache of compressed bodies (interior mutability: `load`
    /// takes `&self` so engines can share the store behind an `Arc`).
    cache: Mutex<BodyCache>,
    /// Chunking/Bloom knobs for subsequent saves (`--chunk-rows`,
    /// `--no-bloom`).
    write_opts: WriteOptions,
}

impl TableStore {
    /// Creates (or opens, if it already exists) a store rooted at `root`.
    ///
    /// Reads and integrity-checks the manifest (a corrupt manifest fails
    /// the open), cleans up stale `*.tmp` files from interrupted writes and
    /// records any orphaned table files (see [`TableStore::orphans`]).
    /// Table bodies are **not** read here — they load on demand.
    pub fn open(root: impl Into<PathBuf>) -> Result<TableStore, ColumnarError> {
        let root = root.into();
        fs::create_dir_all(&root)?;
        let mut store = TableStore {
            root,
            manifest: FxHashMap::default(),
            next_file: 0,
            orphans: Vec::new(),
            faults: None,
            cache: Mutex::new(BodyCache::default()),
            write_opts: WriteOptions::default(),
        };
        let manifest_path = store.manifest_path();
        if manifest_path.exists() {
            let mut content = String::new();
            BufReader::new(fs::File::open(&manifest_path)?).read_to_string(&mut content)?;
            store.parse_manifest(&content)?;
        }
        store.scan_directory()?;
        Ok(store)
    }

    /// Parses manifest content: entry lines (`name\tfile`), `#size` lines
    /// and an optional trailing `#crc` line. When the checksum line is
    /// present it must match the CRC-32 of the canonical re-serialization
    /// of the parsed entries; legacy manifests without it still load.
    fn parse_manifest(&mut self, content: &str) -> Result<(), ColumnarError> {
        let mut sizes: FxHashMap<String, u64> = FxHashMap::default();
        let mut declared_crc: Option<u32> = None;
        for line in content.lines() {
            if let Some(rest) = line.strip_prefix(SIZE_PREFIX) {
                if let Some((file, bytes)) = rest.split_once('\t') {
                    if let Ok(bytes) = bytes.parse::<u64>() {
                        sizes.insert(file.to_string(), bytes);
                    }
                }
            } else if let Some(hex) = line.strip_prefix(CRC_PREFIX) {
                declared_crc = u32::from_str_radix(hex.trim(), 16).ok();
            } else if line.starts_with('#') {
                // Unknown annotation from a future version: ignore.
            } else if let Some((name, file)) = line.split_once('\t') {
                if let Some(num) = table_file_seq(file) {
                    self.next_file = self.next_file.max(num + 1);
                }
                self.manifest.insert(
                    name.to_string(),
                    ManifestEntry {
                        file: file.to_string(),
                        bytes: None,
                    },
                );
            }
        }
        for entry in self.manifest.values_mut() {
            entry.bytes = sizes.get(&entry.file).copied();
        }
        if let Some(expected) = declared_crc {
            let actual = crc32(self.manifest_body().as_bytes());
            if actual != expected {
                metric_counter!("columnar.io.checksum_failures").inc();
                return Err(ColumnarError::ChecksumMismatch { expected, actual });
            }
        }
        Ok(())
    }

    /// Removes stale temp files, records orphaned table files (advancing
    /// the file counter past them so they are never silently overwritten),
    /// and backfills manifest sizes for legacy manifests from the same
    /// directory walk — no per-table `stat` calls afterwards.
    fn scan_directory(&mut self) -> Result<(), ColumnarError> {
        let referenced: std::collections::HashSet<&str> =
            self.manifest.values().map(|e| e.file.as_str()).collect();
        let mut orphans = Vec::new();
        let mut observed_sizes: FxHashMap<String, u64> = FxHashMap::default();
        let needs_sizes = self.manifest.values().any(|e| e.bytes.is_none());
        for entry in fs::read_dir(&self.root)? {
            let entry = entry?;
            let name = entry.file_name().to_string_lossy().into_owned();
            if name.ends_with(".tmp") {
                // Leftover from an interrupted atomic write; the rename
                // never happened so this content was never visible.
                let _ = fs::remove_file(entry.path());
                continue;
            }
            if let Some(num) = table_file_seq(&name) {
                self.next_file = self.next_file.max(num + 1);
                if needs_sizes {
                    if let Ok(meta) = entry.metadata() {
                        observed_sizes.insert(name.clone(), meta.len());
                    }
                }
                if !referenced.contains(name.as_str()) {
                    orphans.push(name);
                }
            }
        }
        if needs_sizes {
            for entry in self.manifest.values_mut() {
                if entry.bytes.is_none() {
                    entry.bytes = observed_sizes.get(&entry.file).copied();
                }
            }
        }
        orphans.sort();
        self.orphans = orphans;
        Ok(())
    }

    fn manifest_path(&self) -> PathBuf {
        self.root.join("manifest.tsv")
    }

    fn cache_lock(&self) -> MutexGuard<'_, BodyCache> {
        self.cache.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Writes `data` to `root/file` atomically: temp file in the same
    /// directory, fsync, then rename over the target.
    fn write_atomic(&self, file: &str, data: &[u8]) -> Result<(), ColumnarError> {
        let tmp = self.root.join(format!("{file}.tmp"));
        let target = self.root.join(file);
        {
            let mut f = fs::File::create(&tmp)?;
            f.write_all(data)?;
            f.sync_all()?;
        }
        // Crash point between fsync and rename: an injected kill here leaves
        // the synced temp file behind (exactly what a real crash would), so
        // recovery and orphan handling can be exercised deterministically.
        if let Some(faults) = &self.faults {
            faults.crash_point(&format!("rename:{file}"))?;
        }
        if let Err(e) = fs::rename(&tmp, &target) {
            let _ = fs::remove_file(&tmp);
            return Err(e.into());
        }
        Ok(())
    }

    /// The canonical entry + `#size` section of the manifest (the bytes the
    /// `#crc` integrity line covers). Entry lines stay exactly
    /// `name\tfile` for compatibility with v1 manifests and external
    /// tooling; sizes ride on `#size\tfile\tbytes` annotation lines.
    fn manifest_body(&self) -> String {
        let mut entries: Vec<_> = self.manifest.iter().collect();
        entries.sort_by(|a, b| a.0.cmp(b.0));
        let mut out = String::new();
        for (name, entry) in &entries {
            out.push_str(name);
            out.push('\t');
            out.push_str(&entry.file);
            out.push('\n');
        }
        for (_, entry) in &entries {
            if let Some(bytes) = entry.bytes {
                let _ = writeln!(out, "{SIZE_PREFIX}{}\t{bytes}", entry.file);
            }
        }
        out
    }

    fn flush_manifest(&self) -> Result<(), ColumnarError> {
        let mut out = self.manifest_body();
        let crc = crc32(out.as_bytes());
        let _ = writeln!(out, "{CRC_PREFIX}{crc:08x}");
        self.write_atomic("manifest.tsv", out.as_bytes())
    }

    /// The store's root directory.
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// Attaches (or with `None`, detaches) a deterministic fault injector
    /// applied to subsequent loads and saves.
    ///
    /// Also clears the body cache: cached bodies would otherwise satisfy
    /// loads without touching the (now fault-injected) read path, making
    /// injected faults fire nondeterministically depending on cache state.
    pub fn set_fault_injector(&mut self, faults: Option<Arc<FaultInjector>>) {
        self.faults = faults;
        self.cache_lock().clear();
    }

    /// The currently attached fault injector, if any.
    pub fn fault_injector(&self) -> Option<&Arc<FaultInjector>> {
        self.faults.as_ref()
    }

    /// Sets the chunking/Bloom options for subsequent saves.
    pub fn set_write_options(&mut self, opts: WriteOptions) {
        self.write_opts = opts;
    }

    /// The chunking/Bloom options subsequent saves use.
    pub fn write_options(&self) -> WriteOptions {
        self.write_opts
    }

    /// Orphaned `t*.col` files discovered when the store was opened: present
    /// on disk but referenced by no manifest entry. A non-empty list
    /// indicates an interrupted save (the table file landed but its manifest
    /// update did not).
    pub fn orphans(&self) -> &[String] {
        &self.orphans
    }

    /// Persists a table under a logical name, replacing any previous
    /// version.
    ///
    /// The table file is written atomically first, the manifest second; a
    /// crash in between leaves an orphan file, never a manifest entry
    /// pointing at missing or torn data.
    pub fn save(&mut self, name: &str, table: &Table) -> Result<(), ColumnarError> {
        assert!(
            !name.contains(['\t', '\n']),
            "table names must not contain tabs or newlines"
        );
        let file = match self.manifest.get(name) {
            Some(e) => e.file.clone(),
            None => {
                let f = format!("t{:06}.col", self.next_file);
                self.next_file += 1;
                f
            }
        };
        let mut data = serialize_table_opts(table, &self.write_opts);
        if let Some(faults) = &self.faults {
            if let Err(e) = faults.before_write(name) {
                metric_counter!("columnar.io.fault_write_errors").inc();
                return Err(e.into());
            }
            // Media-side corruption: the store writes what it was handed,
            // silently damaged. The checksum footer catches it at read time.
            faults.mutate(&mut data);
        }
        metric_counter!("columnar.io.tables_written").inc();
        metric_counter!("columnar.io.bytes_written").add(data.len() as u64);
        self.write_atomic(&file, &data)?;
        self.manifest.insert(
            name.to_string(),
            ManifestEntry {
                file,
                bytes: Some(data.len() as u64),
            },
        );
        // The cached body (if any) no longer reflects disk.
        self.cache_lock().remove(name);
        self.flush_manifest()
    }

    /// Loads a table by logical name, sharing the decoded body.
    ///
    /// Built on [`TableStore::load_compressed`]: the cache holds the
    /// compressed form, and this fully materializes it (memoized inside
    /// the [`CompressedTable`], so repeat loads share one `Arc<Table>`
    /// without re-decoding).
    pub fn load(&self, name: &str) -> Result<Arc<Table>, ColumnarError> {
        self.load_compressed(name)?.materialize()
    }

    /// Loads a table in compressed form, sharing the body through the
    /// cache without decoding any chunk.
    ///
    /// First touch reads the file, checksum-verifies the whole image (v3
    /// footer / header CRCs; v2 footer) and parses the chunk directory;
    /// repeat loads return the cached `Arc` without I/O. An optional byte
    /// budget ([`TableStore::set_cache_budget`]) bounds resident bodies —
    /// counted in *compressed* bytes, so the same budget keeps more tables
    /// warm than it did for decoded bodies — with LRU eviction.
    /// `columnar.io.{tables_read,bytes_read}` therefore count *demanded*
    /// tables, not store size — the quantity the ExtVP design optimizes.
    pub fn load_compressed(&self, name: &str) -> Result<Arc<CompressedTable>, ColumnarError> {
        let entry = self
            .manifest
            .get(name)
            .ok_or_else(|| ColumnarError::NoSuchTable(name.to_string()))?;
        if let Some(hit) = self.cache_lock().touch(name) {
            metric_counter!("columnar.io.cache_hits").inc();
            return Ok(hit);
        }
        metric_counter!("columnar.io.cache_misses").inc();
        let mut data = {
            if let Some(faults) = &self.faults {
                if let Err(e) = faults.before_read(name) {
                    metric_counter!("columnar.io.fault_read_errors").inc();
                    return Err(e.into());
                }
            }
            fs::read(self.root.join(&entry.file))?
        };
        if let Some(faults) = &self.faults {
            faults.mutate(&mut data);
        }
        metric_counter!("columnar.io.tables_read").inc();
        metric_counter!("columnar.io.bytes_read").add(data.len() as u64);
        let table = Arc::new(parse_compressed(&data, true)?);
        metric_counter!("columnar.io.bytes_compressed").add(table.compressed_bytes() as u64);
        metric_counter!("columnar.io.bytes_logical").add(table.logical_bytes() as u64);
        self.cache_lock().insert(name.to_string(), table.clone());
        Ok(table)
    }

    /// Fast integrity probe of one table's on-disk bytes: verifies the
    /// whole-file CRC footer over the raw file **without decoding**. Reads
    /// the actual disk state,
    /// bypassing any attached fault injector — this is a diagnostic for
    /// sweeps (quarantine scans, `verify`), not a data access, and is
    /// counted separately from `columnar.io.tables_read`.
    pub fn verify_checksum(&self, name: &str) -> Result<(), ColumnarError> {
        let entry = self
            .manifest
            .get(name)
            .ok_or_else(|| ColumnarError::NoSuchTable(name.to_string()))?;
        let data = fs::read(self.root.join(&entry.file))?;
        metric_counter!("columnar.io.sweep_files").inc();
        metric_counter!("columnar.io.sweep_bytes").add(data.len() as u64);
        verify_raw_checksum(&data)
    }

    /// Sets (or with `None`, removes) the byte budget for cached table
    /// bodies, counted in *compressed* (on-disk) bytes. Shrinking below
    /// current residency evicts LRU bodies immediately; handed-out `Arc`s
    /// stay valid.
    pub fn set_cache_budget(&self, bytes: Option<u64>) {
        let mut cache = self.cache_lock();
        cache.budget = bytes;
        cache.evict_to_budget();
    }

    /// Total compressed bytes currently resident in the body cache.
    pub fn cached_bytes(&self) -> u64 {
        self.cache_lock().total_bytes
    }

    /// Number of table bodies currently resident in the body cache.
    pub fn cached_tables(&self) -> usize {
        self.cache_lock().map.len()
    }

    /// Drops all cached bodies (handed-out `Arc`s stay valid).
    pub fn clear_cache(&self) {
        self.cache_lock().clear();
    }

    /// Verifies every table in the manifest by reading and fully decoding
    /// it (which checks the whole-file CRC footer on v2/v3 and every
    /// per-chunk CRC on v3), reporting corrupt entries, missing files and
    /// orphans. For corrupt v3 files whose chunk directory is still
    /// parseable, the damage is additionally localized to individual
    /// chunks in [`VerifyReport::corrupt_chunks`], so a repair pass can
    /// report (and a rebuild can target) the affected row ranges instead
    /// of writing off the whole table.
    ///
    /// Reads the files directly, bypassing any attached fault injector:
    /// verification must observe the actual on-disk state so that a repair
    /// pass can converge.
    pub fn verify_all(&self) -> VerifyReport {
        let mut report = VerifyReport {
            orphans: self.orphans.clone(),
            ..VerifyReport::default()
        };
        let mut entries: Vec<_> = self.manifest.iter().collect();
        entries.sort_by(|a, b| a.0.cmp(b.0));
        for (name, entry) in entries {
            match fs::read(self.root.join(&entry.file)) {
                Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
                    report.missing.push(name.clone());
                }
                Err(e) => report.corrupt.push((name.clone(), e.to_string())),
                Ok(data) => match deserialize_table(&data) {
                    Ok(_) => report.ok.push(name.clone()),
                    Err(e) => {
                        report.corrupt.push((name.clone(), e.to_string()));
                        if let Some(chunks) = locate_corrupt_chunks(&data) {
                            report.corrupt_chunks.push((
                                name.clone(),
                                chunks.corrupt,
                                chunks.total,
                            ));
                        }
                    }
                },
            }
        }
        report
    }

    /// Chunk-granular integrity check of one table, read directly from
    /// disk (bypassing cache and fault injector). For v3 files whose
    /// header parses, returns which chunks fail their CRC — an intact
    /// chunk directory with a damaged body localizes corruption to a few
    /// row ranges. For v2 files (no per-chunk CRCs) the whole file is
    /// one "chunk": the report has `total == 1` and lists it as corrupt
    /// iff the full decode fails.
    pub fn verify_chunks(&self, name: &str) -> Result<ChunkVerifyReport, ColumnarError> {
        let entry = self
            .manifest
            .get(name)
            .ok_or_else(|| ColumnarError::NoSuchTable(name.to_string()))?;
        let data = fs::read(self.root.join(&entry.file))?;
        if let Some(report) = locate_corrupt_chunks(&data) {
            return Ok(report);
        }
        // Legacy format (or a v3 header too damaged to parse): all-or-nothing.
        Ok(match deserialize_table(&data) {
            Ok(_) => ChunkVerifyReport {
                corrupt: Vec::new(),
                total: 1,
            },
            Err(e) => ChunkVerifyReport {
                corrupt: vec![format!("whole file: {e}")],
                total: 1,
            },
        })
    }

    /// Rewrites every v2 file in the store in the current (v3) format,
    /// returning how many were upgraded. Called from checkpoints so stores
    /// created before the chunked format converge to it without an
    /// explicit migration step. Files already in v3 are left untouched
    /// (their bytes are not rewritten, preserving mtimes and avoiding
    /// needless churn).
    pub fn upgrade_legacy(&mut self) -> Result<usize, ColumnarError> {
        let mut legacy: Vec<String> = Vec::new();
        for (name, entry) in &self.manifest {
            let path = self.root.join(&entry.file);
            let mut head = [0u8; 5];
            let ok = fs::File::open(&path)
                .and_then(|mut f| std::io::Read::read_exact(&mut f, &mut head))
                .is_ok();
            if ok && &head[..4] == MAGIC && head[4] != VERSION_V3 {
                legacy.push(name.clone());
            }
        }
        legacy.sort();
        for name in &legacy {
            let table = self.load(name)?;
            self.save(name, &table)?;
        }
        Ok(legacy.len())
    }

    /// True if a table with this name exists.
    pub fn contains(&self, name: &str) -> bool {
        self.manifest.contains_key(name)
    }

    /// Logical names of all stored tables (sorted).
    pub fn names(&self) -> Vec<String> {
        let mut names: Vec<String> = self.manifest.keys().cloned().collect();
        names.sort();
        names
    }

    /// Number of stored tables.
    pub fn len(&self) -> usize {
        self.manifest.len()
    }

    /// True if the store holds no tables.
    pub fn is_empty(&self) -> bool {
        self.manifest.is_empty()
    }

    /// On-disk size of one table in bytes, answered from the manifest's
    /// cached size (no `stat`). Falls back to one `stat` only for legacy
    /// manifests whose size annotation is absent.
    pub fn file_size(&self, name: &str) -> Result<u64, ColumnarError> {
        let entry = self
            .manifest
            .get(name)
            .ok_or_else(|| ColumnarError::NoSuchTable(name.to_string()))?;
        match entry.bytes {
            Some(bytes) => Ok(bytes),
            None => Ok(fs::metadata(self.root.join(&entry.file))?.len()),
        }
    }

    /// Total on-disk size of all tables (the "HDFS size" of paper Tables 2
    /// and 6), summed from manifest-cached sizes — O(tables) map reads, not
    /// O(tables) `stat` syscalls per call.
    pub fn total_size(&self) -> Result<u64, ColumnarError> {
        let mut total = 0;
        for entry in self.manifest.values() {
            total += match entry.bytes {
                Some(bytes) => bytes,
                None => fs::metadata(self.root.join(&entry.file))?.len(),
            };
        }
        Ok(total)
    }

    /// Removes a table, invalidating its cached body and size.
    ///
    /// The manifest is flushed *before* the file is deleted: a crash in
    /// between leaves an unreferenced file (an orphan, swept at the next
    /// checkpoint), never a manifest entry pointing at missing data.
    pub fn remove(&mut self, name: &str) -> Result<(), ColumnarError> {
        let entry = self
            .manifest
            .remove(name)
            .ok_or_else(|| ColumnarError::NoSuchTable(name.to_string()))?;
        self.cache_lock().remove(name);
        self.flush_manifest()?;
        match fs::remove_file(self.root.join(&entry.file)) {
            Ok(()) => Ok(()),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(()),
            Err(e) => Err(e.into()),
        }
    }

    /// Deletes the orphaned table files recorded at open time (residue of a
    /// save interrupted between table write and manifest update) and clears
    /// the orphan list. Returns the deleted file names. Checkpoints call
    /// this so a store that crashed mid-flush verifies clean again after
    /// the next successful checkpoint.
    pub fn sweep_orphans(&mut self) -> Result<Vec<String>, ColumnarError> {
        let orphans = std::mem::take(&mut self.orphans);
        for file in &orphans {
            match fs::remove_file(self.root.join(file)) {
                Ok(()) => {}
                Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
                Err(e) => return Err(e.into()),
            }
        }
        Ok(orphans)
    }
}

/// Checks a raw serialized table image's integrity without decoding it:
/// magic, version, and the whole-file CRC-32 footer.
fn verify_raw_checksum(data: &[u8]) -> Result<(), ColumnarError> {
    if data.len() < 5 || &data[..4] != MAGIC {
        return Err(ColumnarError::CorruptFile("bad magic".into()));
    }
    match data[4] {
        VERSION_V2 | VERSION_V3 => {
            if data.len() < 5 + FOOTER_LEN {
                return Err(ColumnarError::CorruptFile(
                    "truncated checksum footer".into(),
                ));
            }
            let body_end = data.len() - FOOTER_LEN;
            let expected = u32::from_le_bytes(data[body_end..].try_into().expect("4-byte footer"));
            let actual = crc32(&data[..body_end]);
            if actual != expected {
                metric_counter!("columnar.io.checksum_failures").inc();
                return Err(ColumnarError::ChecksumMismatch { expected, actual });
            }
            Ok(())
        }
        other => Err(ColumnarError::CorruptFile(format!(
            "unsupported version {other}"
        ))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::FaultConfig;
    use proptest::prelude::*;

    fn sample() -> Table {
        Table::from_rows(
            Schema::new(["s", "o"]),
            &[[1, 100], [1, 100], [1, 100], [2, 5], [3, 7]],
        )
    }

    fn lcg_column(n: usize, card: u32, mut state: u64) -> Vec<u32> {
        (0..n)
            .map(|_| {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                ((state >> 33) as u32) % card
            })
            .collect()
    }

    #[test]
    fn serialize_roundtrip() {
        let t = sample();
        let bytes = serialize_table(&t);
        let back = deserialize_table(&bytes).unwrap();
        assert_eq!(back, t);
    }

    #[test]
    fn corrupt_inputs_rejected() {
        assert!(deserialize_table(b"oops").is_err());
        let mut bytes = serialize_table(&sample());
        bytes[4] = 99; // bad version
        assert!(deserialize_table(&bytes).is_err());
        let bytes = serialize_table(&sample());
        assert!(deserialize_table(&bytes[..bytes.len() - 2]).is_err());
    }

    #[test]
    fn checksum_detects_body_corruption() {
        let bytes = serialize_table(&sample());
        // Flip every body byte in turn (skip magic/version so the error is
        // specifically the checksum, and skip the footer itself).
        for i in 5..bytes.len() - FOOTER_LEN {
            let mut m = bytes.clone();
            m[i] ^= 0x40;
            match deserialize_table(&m) {
                Err(ColumnarError::ChecksumMismatch { .. }) => {}
                other => panic!("byte {i}: expected checksum mismatch, got {other:?}"),
            }
        }
        // Corrupting the footer itself must also fail.
        let mut m = bytes.clone();
        let last = m.len() - 1;
        m[last] ^= 0xff;
        assert!(matches!(
            deserialize_table(&m),
            Err(ColumnarError::ChecksumMismatch { .. })
        ));
    }

    /// Hand-builds a v2 image of one column `c` with a correct CRC-32
    /// footer: `nrows` as declared, then one `enc`-tagged column body.
    fn v2_one_column(nrows: u64, enc: u8, body: &[u8]) -> Vec<u8> {
        let mut bytes = MAGIC.to_vec();
        bytes.push(VERSION_V2);
        write_varint(&mut bytes, 1); // 1 column
        write_varint(&mut bytes, 1);
        bytes.push(b'c');
        write_varint(&mut bytes, nrows);
        bytes.push(enc);
        write_varint(&mut bytes, body.len() as u64);
        bytes.extend_from_slice(body);
        let crc = crc32(&bytes);
        bytes.extend_from_slice(&crc.to_le_bytes());
        bytes
    }

    #[test]
    fn v1_files_are_rejected() {
        let v2 = v2_one_column(2, ENC_RLE, &[7, 2]);
        let expected = Table::from_columns(Schema::new(["c"]), vec![vec![7, 7]]);
        assert_eq!(deserialize_table(&v2).unwrap(), expected);
        // v1 was the same body without the footer, under version byte 1.
        let mut v1 = v2[..v2.len() - FOOTER_LEN].to_vec();
        v1[4] = 1;
        match deserialize_table(&v1) {
            Err(ColumnarError::CorruptFile(msg)) => assert_eq!(msg, "unsupported version 1"),
            other => panic!("v1 image must be rejected, got {other:?}"),
        }
    }

    #[test]
    fn hostile_dimensions_rejected_not_allocated() {
        // Header claiming u64::MAX rows must fail fast, not abort on OOM.
        let mut body = Vec::new();
        write_varint(&mut body, 7);
        write_varint(&mut body, u64::MAX); // absurd run length
        let bytes = v2_one_column(u64::MAX, ENC_RLE, &body);
        // The footer is valid, so decoding reaches the cell-limit check.
        match deserialize_table(&bytes) {
            Err(ColumnarError::CorruptFile(msg)) => assert!(msg.contains("cell limit"), "{msg}"),
            other => panic!("hostile dimensions must be rejected, got {other:?}"),
        }
    }

    #[test]
    fn store_save_load_cycle() {
        let dir = std::env::temp_dir().join(format!("s2ct-store-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        {
            let mut store = TableStore::open(&dir).unwrap();
            store.save("VP/follows", &sample()).unwrap();
            store.save("ExtVP_OS/follows|likes", &sample()).unwrap();
            assert_eq!(store.len(), 2);
            assert!(store.file_size("VP/follows").unwrap() > 0);
            assert!(store.total_size().unwrap() > 0);
        }
        {
            // Re-open and read back.
            let mut store = TableStore::open(&dir).unwrap();
            assert_eq!(store.len(), 2);
            assert!(store.orphans().is_empty());
            assert_eq!(*store.load("ExtVP_OS/follows|likes").unwrap(), sample());
            store.remove("VP/follows").unwrap();
            assert!(!store.contains("VP/follows"));
            assert!(store.load("VP/follows").is_err());
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn save_replaces_without_leaking_files() {
        let dir = std::env::temp_dir().join(format!("s2ct-replace-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let mut store = TableStore::open(&dir).unwrap();
        store.save("t", &sample()).unwrap();
        let before = store.file_size("t").unwrap();
        let bigger = Table::from_columns(
            Schema::new(["s", "o"]),
            vec![(0..999).collect(), (0..999).collect()],
        );
        store.save("t", &bigger).unwrap();
        assert!(store.file_size("t").unwrap() > before);
        assert_eq!(store.len(), 1);
        assert_eq!(fs::read_dir(&dir).unwrap().count(), 2); // table + manifest
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn orphan_files_detected_and_not_overwritten() {
        let dir = std::env::temp_dir().join(format!("s2ct-orphan-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        {
            let mut store = TableStore::open(&dir).unwrap();
            store.save("keep", &sample()).unwrap();
        }
        // Simulate a crash between table write and manifest update: a table
        // file lands with no manifest entry.
        fs::write(dir.join("t000007.col"), serialize_table(&sample())).unwrap();
        // And an interrupted atomic write leaves a temp file.
        fs::write(dir.join("t000008.col.tmp"), b"partial").unwrap();
        let mut store = TableStore::open(&dir).unwrap();
        assert_eq!(store.orphans(), ["t000007.col"]);
        assert!(!dir.join("t000008.col.tmp").exists(), "stale tmp cleaned");
        // New saves must not reuse the orphan's file name.
        store.save("new", &sample()).unwrap();
        assert_eq!(*store.load("new").unwrap(), sample());
        assert!(dir.join("t000007.col").exists());
        let report = store.verify_all();
        assert_eq!(report.orphans, ["t000007.col"]);
        assert_eq!(report.ok.len(), 2);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn verify_all_flags_corrupt_and_missing() {
        let dir = std::env::temp_dir().join(format!("s2ct-verify-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let mut store = TableStore::open(&dir).unwrap();
        store.save("good", &sample()).unwrap();
        store.save("bad", &sample()).unwrap();
        store.save("gone", &sample()).unwrap();
        // Corrupt "bad" in place, delete "gone"'s file.
        let bad_file = store.manifest.get("bad").unwrap().file.clone();
        let mut data = fs::read(dir.join(&bad_file)).unwrap();
        let mid = data.len() / 2;
        data[mid] ^= 0x10;
        fs::write(dir.join(&bad_file), &data).unwrap();
        let gone_file = store.manifest.get("gone").unwrap().file.clone();
        fs::remove_file(dir.join(&gone_file)).unwrap();

        let report = store.verify_all();
        assert_eq!(report.ok, ["good"]);
        assert_eq!(report.corrupt.len(), 1);
        assert_eq!(report.corrupt[0].0, "bad");
        assert!(
            report.corrupt[0].1.contains("checksum"),
            "{}",
            report.corrupt[0].1
        );
        assert_eq!(report.missing, ["gone"]);
        assert!(!report.is_clean());
        assert!(matches!(
            store.load("bad"),
            Err(ColumnarError::ChecksumMismatch { .. })
        ));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn fault_injector_write_errors_surface() {
        let dir = std::env::temp_dir().join(format!("s2ct-fault-w-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let mut store = TableStore::open(&dir).unwrap();
        let inj = Arc::new(FaultInjector::new(FaultConfig {
            seed: 3,
            write_error: 1.0,
            ..FaultConfig::default()
        }));
        store.set_fault_injector(Some(inj.clone()));
        assert!(store.save("t", &sample()).is_err());
        assert_eq!(inj.stats().write_errors, 1);
        // The failed save must not have registered the table.
        store.set_fault_injector(None);
        assert!(!store.contains("t"));
        assert!(store.verify_all().is_clean());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn fault_injector_bit_flips_caught_by_checksum() {
        let dir = std::env::temp_dir().join(format!("s2ct-fault-r-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let mut store = TableStore::open(&dir).unwrap();
        store.save("t", &sample()).unwrap();
        let inj = Arc::new(FaultInjector::new(FaultConfig {
            seed: 11,
            bit_flip: 1.0,
            ..FaultConfig::default()
        }));
        store.set_fault_injector(Some(inj.clone()));
        let err = store.load("t").unwrap_err();
        assert!(
            matches!(
                err,
                ColumnarError::ChecksumMismatch { .. } | ColumnarError::CorruptFile(_)
            ),
            "bit flip must not decode silently: {err:?}"
        );
        assert_eq!(inj.stats().bit_flips, 1);
        // Detaching the injector restores clean reads: the disk was fine.
        store.set_fault_injector(None);
        assert_eq!(*store.load("t").unwrap(), sample());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn lazy_open_reads_no_bodies_and_caches_loads() {
        use crate::metrics;
        let dir = std::env::temp_dir().join(format!("s2ct-lazy-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        {
            let mut store = TableStore::open(&dir).unwrap();
            for i in 0..20 {
                store.save(&format!("t{i}"), &sample()).unwrap();
            }
        }
        let _guard = metrics::test_lock();
        let reads = metrics::counter("columnar.io.tables_read");
        let hits = metrics::counter("columnar.io.cache_hits");
        metrics::set_enabled(true);
        let reads0 = reads.get();
        let hits0 = hits.get();
        let store = TableStore::open(&dir).unwrap();
        assert_eq!(reads.get(), reads0, "open must not read table bodies");
        assert_eq!(store.cached_tables(), 0);
        // First touch reads + decodes once; repeats are cache hits sharing
        // the same body.
        let a = store.load("t3").unwrap();
        let b = store.load("t3").unwrap();
        metrics::set_enabled(false);
        assert!(Arc::ptr_eq(&a, &b), "cache must share one body");
        assert_eq!(reads.get() - reads0, 1, "one physical read for two loads");
        assert_eq!(hits.get() - hits0, 1);
        assert_eq!(store.cached_tables(), 1);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn byte_budget_evicts_lru_bodies() {
        let dir = std::env::temp_dir().join(format!("s2ct-evict-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let mut store = TableStore::open(&dir).unwrap();
        let body = Table::from_columns(
            Schema::new(["a"]),
            vec![(0..1000u32).collect()], // 4000 payload bytes
        );
        for i in 0..4 {
            store.save(&format!("t{i}"), &body).unwrap();
        }
        // The cache accounts *compressed* bytes; budget two files' worth.
        let unit = store.file_size("t0").unwrap();
        store.set_cache_budget(Some(2 * unit));
        let keep = store.load("t0").unwrap();
        store.load("t1").unwrap();
        assert_eq!(store.cached_tables(), 2);
        store.load("t2").unwrap(); // evicts t0 (LRU)
        assert_eq!(store.cached_tables(), 2);
        assert!(store.cached_bytes() <= 2 * unit);
        // The evicted body's Arc handle stays usable.
        assert_eq!(keep.num_rows(), 1000);
        // Touch order matters: reload t1 (hit), then t3 must evict t2.
        store.load("t1").unwrap();
        store.load("t3").unwrap();
        assert_eq!(store.cached_tables(), 2);
        // Budget removal stops eviction.
        store.set_cache_budget(None);
        store.load("t0").unwrap();
        store.load("t2").unwrap();
        assert_eq!(store.cached_tables(), 4);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn verify_chunks_localizes_corruption() {
        let dir = std::env::temp_dir().join(format!("s2ct-chunkverify-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let mut store = TableStore::open(&dir).unwrap();
        store.set_write_options(WriteOptions {
            chunk_rows: 64,
            bloom: false,
        });
        let t = Table::from_columns(Schema::new(["a"]), vec![lcg_column(1000, 1 << 20, 7)]);
        store.save("t", &t).unwrap();
        let report = store.verify_chunks("t").unwrap();
        assert_eq!(report.total, 1000usize.div_ceil(64));
        assert!(report.corrupt.is_empty());
        // Flip one byte in the last chunk's body: only that chunk reports.
        let file = store.manifest.get("t").unwrap().file.clone();
        let path = dir.join(&file);
        let mut raw = fs::read(&path).unwrap();
        let n = raw.len();
        raw[n - FOOTER_LEN - 2] ^= 0x01;
        fs::write(&path, &raw).unwrap();
        let report = store.verify_chunks("t").unwrap();
        assert_eq!(report.corrupt.len(), 1, "damage must localize: {report:?}");
        assert!(report.corrupt[0].contains("chunk 15"), "{report:?}");
        // verify_all reports the table corrupt AND drills into chunks.
        let all = store.verify_all();
        assert_eq!(all.corrupt.len(), 1);
        assert_eq!(all.corrupt_chunks.len(), 1);
        let (name, chunks, total) = &all.corrupt_chunks[0];
        assert_eq!(name, "t");
        assert_eq!(chunks.len(), 1);
        assert_eq!(*total, 1000usize.div_ceil(64));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn sizes_come_from_manifest_not_stat() {
        let dir = std::env::temp_dir().join(format!("s2ct-sizes-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let mut store = TableStore::open(&dir).unwrap();
        store.save("a", &sample()).unwrap();
        store.save("b", &sample()).unwrap();
        let a_size = store.file_size("a").unwrap();
        assert_eq!(a_size, serialize_table(&sample()).len() as u64);
        assert_eq!(store.total_size().unwrap(), 2 * a_size);
        // Delete a backing file behind the store's back: sizes must still
        // answer (from the manifest), proving no per-call stat.
        let a_file = store.manifest.get("a").unwrap().file.clone();
        fs::remove_file(dir.join(&a_file)).unwrap();
        assert_eq!(store.file_size("a").unwrap(), a_size);
        assert_eq!(store.total_size().unwrap(), 2 * a_size);
        // Invalidation on save: a replacement updates the cached size…
        let bigger = Table::from_columns(
            Schema::new(["s", "o"]),
            vec![(0..999).collect(), (0..999).collect()],
        );
        store.save("b", &bigger).unwrap();
        let b_size = store.file_size("b").unwrap();
        assert_eq!(b_size, serialize_table(&bigger).len() as u64);
        assert_eq!(store.total_size().unwrap(), a_size + b_size);
        // …and on remove the size disappears with the entry.
        store.save("a", &sample()).unwrap(); // restore the deleted file first
        store.remove("a").unwrap();
        assert!(matches!(
            store.file_size("a"),
            Err(ColumnarError::NoSuchTable(_))
        ));
        assert_eq!(store.total_size().unwrap(), b_size);
        // Cached sizes persist in the manifest across a reopen.
        let reopened = TableStore::open(&dir).unwrap();
        assert_eq!(reopened.file_size("b").unwrap(), b_size);
        assert_eq!(reopened.total_size().unwrap(), b_size);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn manifest_checksum_detects_tampering() {
        let dir = std::env::temp_dir().join(format!("s2ct-mancrc-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        {
            let mut store = TableStore::open(&dir).unwrap();
            store.save("t", &sample()).unwrap();
        }
        let path = dir.join("manifest.tsv");
        let content = fs::read_to_string(&path).unwrap();
        assert!(
            content.contains("#crc\t"),
            "manifest must carry a checksum line"
        );
        // Tamper with an entry line without updating the checksum.
        let tampered = content.replace("t\t", "u\t");
        assert_ne!(tampered, content);
        fs::write(&path, &tampered).unwrap();
        assert!(matches!(
            TableStore::open(&dir),
            Err(ColumnarError::ChecksumMismatch { .. })
        ));
        // Legacy manifests without the checksum line still open.
        let legacy: String =
            content
                .lines()
                .filter(|l| !l.starts_with('#'))
                .fold(String::new(), |mut s, l| {
                    s.push_str(l);
                    s.push('\n');
                    s
                });
        fs::write(&path, &legacy).unwrap();
        let store = TableStore::open(&dir).unwrap();
        assert_eq!(*store.load("t").unwrap(), sample());
        assert!(store.file_size("t").unwrap() > 0);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn verify_checksum_probes_without_decoding() {
        use crate::metrics;
        let dir = std::env::temp_dir().join(format!("s2ct-probe-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let mut store = TableStore::open(&dir).unwrap();
        store.save("ok", &sample()).unwrap();
        store.save("bad", &sample()).unwrap();
        let bad_file = store.manifest.get("bad").unwrap().file.clone();
        let mut data = fs::read(dir.join(&bad_file)).unwrap();
        let mid = data.len() / 2;
        data[mid] ^= 0x20;
        fs::write(dir.join(&bad_file), &data).unwrap();

        let _guard = metrics::test_lock();
        let reads = metrics::counter("columnar.io.tables_read");
        metrics::set_enabled(true);
        let reads0 = reads.get();
        assert!(store.verify_checksum("ok").is_ok());
        assert!(matches!(
            store.verify_checksum("bad"),
            Err(ColumnarError::ChecksumMismatch { .. })
        ));
        metrics::set_enabled(false);
        assert_eq!(reads.get(), reads0, "sweeps must not count as table reads");
        assert!(matches!(
            store.verify_checksum("gone"),
            Err(ColumnarError::NoSuchTable(_))
        ));
        fs::remove_dir_all(&dir).unwrap();
    }

    proptest! {
        #[test]
        fn prop_serialize_roundtrip(rows in proptest::collection::vec((any::<u32>(), 0u32..50), 0..200)) {
            let cols = vec![
                rows.iter().map(|r| r.0).collect::<Vec<_>>(),
                rows.iter().map(|r| r.1).collect::<Vec<_>>(),
            ];
            let t = Table::from_columns(Schema::new(["a", "b"]), cols);
            let back = deserialize_table(&serialize_table(&t)).unwrap();
            prop_assert_eq!(back, t);
        }
    }
}
