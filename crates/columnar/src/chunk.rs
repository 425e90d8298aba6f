//! Chunked column compression for table format v3 — the crate's analogue
//! of a Parquet row group.
//!
//! Format v2 encodes each column as one monolithic varint/RLE stream: a
//! scan must decode every row of every touched column before the kernels
//! see a single value. v3 splits each column into fixed-size **chunks**
//! (default [`DEFAULT_CHUNK_ROWS`] rows, tunable via `--chunk-rows`), and
//! for each chunk independently picks the cheapest of five encodings:
//!
//! | tag | encoding | wins on |
//! |---|---|---|
//! | [`ENC_CHUNK_PLAIN`] | varint stream | incompressible ids |
//! | [`ENC_CHUNK_RLE`] | varint (value, run) pairs | long runs |
//! | [`ENC_CHUNK_CONST`] | single varint | single-valued chunks |
//! | [`ENC_CHUNK_FOR`] | frame-of-reference bit-packing | narrow value ranges |
//! | [`ENC_CHUNK_DELTA`] | delta + bit-packed gaps | sorted/monotone ids |
//!
//! Each chunk carries a **zone map** (min/max id plus an all-distinct
//! flag) and its own CRC-32; each column optionally carries a **Bloom
//! filter** over its values (high-cardinality join keys). The scan path
//! ([`scan_chunks`]) consults zone maps and Bloom filters to skip whole
//! chunks *before* decoding them — for bound-constant selections and for
//! runtime semi-join filters passed sideways from the smaller join side
//! ([`SidewaysFilter`]) — and feeds surviving chunks straight into the
//! 64-row bitmap kernels, so late materialization keeps working.

use std::sync::{Arc, OnceLock};

use rustc_hash::FxHashSet;

use crate::bitmap::Bitmap;
use crate::crc32::crc32;
use crate::error::ColumnarError;
use crate::io::{read_varint, write_varint};
use crate::metric_counter;
use crate::ops::kernels;
use crate::schema::Schema;
use crate::table::Table;

/// Chunk encoding tags (one byte each in the v3 header).
pub const ENC_CHUNK_PLAIN: u8 = 0;
/// Run-length: varint (value, run) pairs.
pub const ENC_CHUNK_RLE: u8 = 1;
/// Single-value chunk: one varint.
pub const ENC_CHUNK_CONST: u8 = 2;
/// Frame-of-reference: varint base + bit width + packed `value - base`.
pub const ENC_CHUNK_FOR: u8 = 3;
/// Delta (monotone non-decreasing chunks): varint first value + bit width
/// + packed gaps.
pub const ENC_CHUNK_DELTA: u8 = 4;

/// Default rows per chunk. A power of two aligned with the morsel/bitmap
/// kernels' 64-row words; `--chunk-rows` overrides it at write time.
pub const DEFAULT_CHUNK_ROWS: usize = 4096;

/// Columns shorter than this never get a Bloom filter — zone maps alone
/// are enough, and the filter bytes would erode the compression win.
const BLOOM_MIN_ROWS: usize = 4096;
/// Bloom sizing: bits per value (rounded up to a power of two of bytes).
const BLOOM_BITS_PER_KEY: usize = 4;
/// Bloom hash count (≈ ln 2 · bits-per-key).
const BLOOM_HASHES: u8 = 3;
/// Values sampled for the distinct-ratio gate: Bloom filters only pay off
/// on high-cardinality columns (join keys), not on enum-like columns
/// where the zone map already tells the whole story.
const BLOOM_SAMPLE: usize = 4096;
/// Minimum distinct ratio over the sample for a column to get a Bloom
/// filter.
const BLOOM_MIN_DISTINCT_RATIO: f64 = 0.5;

/// Write-time knobs for the v3 encoder.
#[derive(Debug, Clone, Copy)]
pub struct WriteOptions {
    /// Rows per chunk (zone-map granularity).
    pub chunk_rows: usize,
    /// Build per-column Bloom filters for high-cardinality columns
    /// (`--no-bloom` disables).
    pub bloom: bool,
}

impl Default for WriteOptions {
    fn default() -> Self {
        WriteOptions {
            chunk_rows: DEFAULT_CHUNK_ROWS,
            bloom: true,
        }
    }
}

fn corrupt(msg: &str) -> ColumnarError {
    ColumnarError::CorruptFile(msg.to_string())
}

fn read_u32_varint(data: &[u8], pos: &mut usize) -> Result<u32, ColumnarError> {
    let v = read_varint(data, pos)?;
    u32::try_from(v).map_err(|_| corrupt("chunk value exceeds u32"))
}

// ---------------------------------------------------------------------------
// Bit packing
// ---------------------------------------------------------------------------

/// Packs `vals` LSB-first at `width` bits each onto `out`.
fn pack_bits(vals: &[u32], width: u32, out: &mut Vec<u8>) {
    debug_assert!(width <= 32);
    if width == 0 {
        return;
    }
    let mut acc: u64 = 0;
    let mut nbits: u32 = 0;
    for &v in vals {
        acc |= (v as u64) << nbits;
        nbits += width;
        while nbits >= 8 {
            out.push((acc & 0xff) as u8);
            acc >>= 8;
            nbits -= 8;
        }
    }
    if nbits > 0 {
        out.push((acc & 0xff) as u8);
    }
}

/// Exact byte length of `rows` values packed at `width` bits.
fn packed_len(rows: usize, width: u32) -> usize {
    (rows * width as usize).div_ceil(8)
}

/// Unpacks `rows` values of `width` bits each from `data` (which must be
/// exactly [`packed_len`] bytes — the caller enforces this).
fn unpack_bits(data: &[u8], width: u32, rows: usize) -> Vec<u32> {
    debug_assert!(width <= 32);
    debug_assert_eq!(data.len(), packed_len(rows, width));
    if width == 0 {
        return vec![0; rows];
    }
    let mask: u64 = if width == 32 {
        u32::MAX as u64
    } else {
        (1u64 << width) - 1
    };
    let mut out = Vec::with_capacity(rows);
    let mut acc: u64 = 0;
    let mut nbits: u32 = 0;
    let mut bytes = data.iter();
    for _ in 0..rows {
        while nbits < width {
            acc |= (*bytes.next().unwrap() as u64) << nbits;
            nbits += 8;
        }
        out.push((acc & mask) as u32);
        acc >>= width;
        nbits -= width;
    }
    out
}

/// Bits needed to represent `v` (0 → 0 bits).
fn bit_width(v: u32) -> u32 {
    32 - v.leading_zeros()
}

// ---------------------------------------------------------------------------
// Chunk encode / decode
// ---------------------------------------------------------------------------

/// Encodes one chunk with the cheapest of the five encodings. Returns the
/// encoding tag and the body bytes. `vals` must be non-empty.
pub fn encode_chunk(vals: &[u32]) -> (u8, Vec<u8>) {
    assert!(!vals.is_empty(), "empty chunk");
    let mut min = vals[0];
    let mut max = vals[0];
    let mut monotone = true;
    for w in vals.windows(2) {
        monotone &= w[0] <= w[1];
        min = min.min(w[1]);
        max = max.max(w[1]);
    }
    if min == max {
        let mut body = Vec::with_capacity(5);
        write_varint(&mut body, min as u64);
        return (ENC_CHUNK_CONST, body);
    }

    // Plain: varint stream.
    let mut plain = Vec::with_capacity(vals.len() * 2);
    for &v in vals {
        write_varint(&mut plain, v as u64);
    }
    let (mut best_enc, mut best) = (ENC_CHUNK_PLAIN, plain);

    // RLE: varint (value, run) pairs.
    let mut rle = Vec::new();
    let mut run_val = vals[0];
    let mut run_len: u64 = 1;
    for &v in &vals[1..] {
        if v == run_val {
            run_len += 1;
        } else {
            write_varint(&mut rle, run_val as u64);
            write_varint(&mut rle, run_len);
            run_val = v;
            run_len = 1;
        }
        if rle.len() >= best.len() {
            break; // already lost
        }
    }
    write_varint(&mut rle, run_val as u64);
    write_varint(&mut rle, run_len);
    if rle.len() < best.len() {
        (best_enc, best) = (ENC_CHUNK_RLE, rle);
    }

    // Frame-of-reference: base + fixed-width offsets.
    let width = bit_width(max - min);
    let mut fr = Vec::with_capacity(6 + packed_len(vals.len(), width));
    write_varint(&mut fr, min as u64);
    fr.push(width as u8);
    let offsets: Vec<u32> = vals.iter().map(|&v| v - min).collect();
    pack_bits(&offsets, width, &mut fr);
    if fr.len() < best.len() {
        (best_enc, best) = (ENC_CHUNK_FOR, fr);
    }

    // Delta: first value + bit-packed gaps (monotone chunks only — VP/ExtVP
    // subject columns written in sorted order compress to a few bits/row).
    if monotone {
        let deltas: Vec<u32> = vals.windows(2).map(|w| w[1] - w[0]).collect();
        let dwidth = bit_width(deltas.iter().copied().max().unwrap_or(0));
        let mut dl = Vec::with_capacity(6 + packed_len(deltas.len(), dwidth));
        write_varint(&mut dl, vals[0] as u64);
        dl.push(dwidth as u8);
        pack_bits(&deltas, dwidth, &mut dl);
        if dl.len() < best.len() {
            (best_enc, best) = (ENC_CHUNK_DELTA, dl);
        }
    }

    (best_enc, best)
}

/// Decodes a chunk body. Total: every malformed input (wrong length,
/// overlong runs, out-of-range values, overflow) is a `CorruptFile`
/// error, never a panic or over-allocation.
pub fn decode_chunk_body(enc: u8, body: &[u8], rows: usize) -> Result<Vec<u32>, ColumnarError> {
    let mut pos = 0usize;
    let out = match enc {
        ENC_CHUNK_PLAIN => {
            let mut out = Vec::with_capacity(rows);
            for _ in 0..rows {
                out.push(read_u32_varint(body, &mut pos)?);
            }
            out
        }
        ENC_CHUNK_RLE => {
            let mut out = Vec::with_capacity(rows);
            while out.len() < rows {
                let v = read_u32_varint(body, &mut pos)?;
                let run = read_varint(body, &mut pos)?;
                if run == 0 || run > (rows - out.len()) as u64 {
                    return Err(corrupt("RLE run overflows chunk"));
                }
                out.resize(out.len() + run as usize, v);
            }
            out
        }
        ENC_CHUNK_CONST => {
            let v = read_u32_varint(body, &mut pos)?;
            vec![v; rows]
        }
        ENC_CHUNK_FOR => {
            let base = read_u32_varint(body, &mut pos)?;
            let width = *body
                .get(pos)
                .ok_or_else(|| corrupt("truncated FOR chunk"))? as u32;
            pos += 1;
            if width > 32 {
                return Err(corrupt("FOR bit width exceeds 32"));
            }
            let packed = &body[pos..];
            if packed.len() != packed_len(rows, width) {
                return Err(corrupt("FOR chunk length mismatch"));
            }
            pos = body.len();
            let mut out = unpack_bits(packed, width, rows);
            for v in &mut out {
                *v = v
                    .checked_add(base)
                    .ok_or_else(|| corrupt("FOR offset overflows u32"))?;
            }
            out
        }
        ENC_CHUNK_DELTA => {
            let first = read_u32_varint(body, &mut pos)?;
            let width = *body
                .get(pos)
                .ok_or_else(|| corrupt("truncated delta chunk"))? as u32;
            pos += 1;
            if width > 32 {
                return Err(corrupt("delta bit width exceeds 32"));
            }
            let packed = &body[pos..];
            if packed.len() != packed_len(rows - 1, width) {
                return Err(corrupt("delta chunk length mismatch"));
            }
            pos = body.len();
            let deltas = unpack_bits(packed, width, rows - 1);
            let mut out = Vec::with_capacity(rows);
            let mut cur = first;
            out.push(cur);
            for d in deltas {
                cur = cur
                    .checked_add(d)
                    .ok_or_else(|| corrupt("delta overflows u32"))?;
                out.push(cur);
            }
            out
        }
        _ => return Err(corrupt("unknown chunk encoding")),
    };
    if pos != body.len() {
        return Err(corrupt("trailing bytes after chunk body"));
    }
    Ok(out)
}

// ---------------------------------------------------------------------------
// Bloom filter
// ---------------------------------------------------------------------------

/// A small per-column Bloom filter over dictionary ids, used to skip
/// whole-table scans (and sideways-filter rows) when a sought id is
/// provably absent. ~[`BLOOM_BITS_PER_KEY`] bits per value,
/// [`BLOOM_HASHES`] probes via double hashing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Bloom {
    k: u8,
    bits: Vec<u8>,
}

/// SplitMix64 finalizer — cheap, well-mixed 64-bit hash of an id.
fn mix64(v: u64) -> u64 {
    let mut z = v.wrapping_add(0x9e3779b97f4a7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
    z ^ (z >> 31)
}

impl Bloom {
    /// Builds a filter over `vals` (power-of-two byte count, ≥ 8 bytes).
    pub fn build(vals: &[u32]) -> Bloom {
        let nbytes = (vals.len() * BLOOM_BITS_PER_KEY / 8)
            .next_power_of_two()
            .max(8);
        let mut bloom = Bloom {
            k: BLOOM_HASHES,
            bits: vec![0u8; nbytes],
        };
        for &v in vals {
            let (h1, h2) = bloom.hash_pair(v);
            for i in 0..bloom.k as u64 {
                let bit = (h1.wrapping_add(i.wrapping_mul(h2))) & bloom.bit_mask();
                bloom.bits[(bit / 8) as usize] |= 1 << (bit % 8);
            }
        }
        bloom
    }

    fn bit_mask(&self) -> u64 {
        (self.bits.len() as u64 * 8) - 1
    }

    fn hash_pair(&self, v: u32) -> (u64, u64) {
        let h = mix64(v as u64);
        (h, (h >> 32) | 1) // odd step so double hashing cycles all bits
    }

    /// False means `v` is definitely not in the column; true means maybe.
    pub fn may_contain(&self, v: u32) -> bool {
        let (h1, h2) = self.hash_pair(v);
        (0..self.k as u64).all(|i| {
            let bit = (h1.wrapping_add(i.wrapping_mul(h2))) & self.bit_mask();
            self.bits[(bit / 8) as usize] & (1 << (bit % 8)) != 0
        })
    }

    /// Serialized size in bytes (filter bits only).
    pub fn byte_len(&self) -> usize {
        self.bits.len()
    }

    pub(crate) fn write(&self, out: &mut Vec<u8>) {
        out.push(self.k);
        write_varint(out, self.bits.len() as u64);
        out.extend_from_slice(&self.bits);
    }

    pub(crate) fn read(data: &[u8], pos: &mut usize) -> Result<Bloom, ColumnarError> {
        let k = *data
            .get(*pos)
            .ok_or_else(|| corrupt("truncated Bloom filter"))?;
        *pos += 1;
        if k == 0 || k > 16 {
            return Err(corrupt("implausible Bloom hash count"));
        }
        let nbytes = read_varint(data, pos)? as usize;
        if nbytes < 8 || !nbytes.is_power_of_two() || nbytes > data.len() {
            return Err(corrupt("implausible Bloom filter size"));
        }
        let end = pos
            .checked_add(nbytes)
            .filter(|&e| e <= data.len())
            .ok_or_else(|| corrupt("truncated Bloom filter"))?;
        let bits = data[*pos..end].to_vec();
        *pos = end;
        Ok(Bloom { k, bits })
    }

    /// Whether a column qualifies for a filter: big enough, and
    /// high-cardinality over a sample (join-key-shaped, not enum-shaped).
    fn worthwhile(vals: &[u32]) -> bool {
        if vals.len() < BLOOM_MIN_ROWS {
            return false;
        }
        let sample = &vals[..vals.len().min(BLOOM_SAMPLE)];
        let distinct: FxHashSet<u32> = sample.iter().copied().collect();
        distinct.len() as f64 >= sample.len() as f64 * BLOOM_MIN_DISTINCT_RATIO
    }
}

// ---------------------------------------------------------------------------
// Compressed table
// ---------------------------------------------------------------------------

/// Zone map + location of one encoded chunk.
#[derive(Debug, Clone)]
pub struct ChunkMeta {
    /// Rows in this chunk (`chunk_rows` except possibly the last).
    pub rows: usize,
    /// Smallest id in the chunk.
    pub min: u32,
    /// Largest id in the chunk.
    pub max: u32,
    /// True when every value in the chunk is distinct — a bound-constant
    /// selection matches at most one row here (tightens row estimates).
    pub distinct: bool,
    /// Encoding tag (`ENC_CHUNK_*`).
    pub enc: u8,
    /// Body offset relative to the bodies region.
    pub offset: usize,
    /// Body length in bytes.
    pub len: usize,
    /// CRC-32 of the body bytes.
    pub crc: u32,
}

impl ChunkMeta {
    /// Zone-map test: can this chunk contain `v`?
    #[inline]
    pub fn may_contain(&self, v: u32) -> bool {
        self.min <= v && v <= self.max
    }

    /// Zone-map test: does `[lo, hi]` intersect this chunk's range?
    #[inline]
    pub fn overlaps(&self, lo: u32, hi: u32) -> bool {
        self.min <= hi && lo <= self.max
    }
}

/// Per-column chunk list plus the optional Bloom filter.
#[derive(Debug, Clone, Default)]
pub struct ColMeta {
    /// Chunk metadata in row order.
    pub chunks: Vec<ChunkMeta>,
    /// Optional Bloom filter over the whole column.
    pub bloom: Option<Bloom>,
}

/// A v3 table held in compressed form: schema + per-chunk metadata + the
/// concatenated encoded chunk bodies. This is what the [`TableStore`]
/// byte-budget LRU caches (compressed bytes, so more tables stay
/// resident), decoding chunks on demand and memoizing at most one full
/// materialization.
///
/// [`TableStore`]: crate::io::TableStore
#[derive(Debug)]
pub struct CompressedTable {
    pub(crate) schema: Schema,
    pub(crate) nrows: usize,
    pub(crate) chunk_rows: usize,
    pub(crate) cols: Vec<ColMeta>,
    /// Concatenated chunk bodies (column-major).
    pub(crate) body: Vec<u8>,
    /// Size of the whole serialized file (compressed footprint).
    pub(crate) file_bytes: usize,
    /// Pre-decoded table for v2 files wrapped in this interface, and
    /// the memoized full materialization for v3.
    pub(crate) materialized: OnceLock<Arc<Table>>,
}

impl CompressedTable {
    /// Encodes an in-memory table (the write path).
    pub fn from_table(table: &Table, opts: &WriteOptions) -> CompressedTable {
        let chunk_rows = opts.chunk_rows.max(1);
        let nrows = table.num_rows();
        let mut body = Vec::new();
        let mut cols = Vec::with_capacity(table.schema().len());
        for col in table.columns() {
            let bloom = (opts.bloom && Bloom::worthwhile(col)).then(|| Bloom::build(col));
            let mut chunks = Vec::with_capacity(nrows.div_ceil(chunk_rows));
            for vals in col.chunks(chunk_rows) {
                let (enc, bytes) = encode_chunk(vals);
                let mut seen = FxHashSet::default();
                let distinct = vals.iter().all(|&v| seen.insert(v));
                chunks.push(ChunkMeta {
                    rows: vals.len(),
                    min: *vals.iter().min().unwrap(),
                    max: *vals.iter().max().unwrap(),
                    distinct,
                    enc,
                    offset: body.len(),
                    len: bytes.len(),
                    crc: crc32(&bytes),
                });
                body.extend_from_slice(&bytes);
            }
            cols.push(ColMeta { chunks, bloom });
        }
        CompressedTable {
            schema: table.schema().clone(),
            nrows,
            chunk_rows,
            cols,
            body,
            file_bytes: 0, // set by the serializer
            materialized: OnceLock::new(),
        }
    }

    /// Wraps an already-decoded table (v2 files) so the cache and scan
    /// paths handle every format uniformly. No chunk metadata → no
    /// pruning, but also no re-decode: `materialize` is pre-seeded.
    pub fn from_plain(table: Arc<Table>, file_bytes: usize) -> CompressedTable {
        let ct = CompressedTable {
            schema: table.schema().clone(),
            nrows: table.num_rows(),
            chunk_rows: table.num_rows().max(1),
            cols: Vec::new(),
            body: Vec::new(),
            file_bytes,
            materialized: OnceLock::new(),
        };
        let _ = ct.materialized.set(table);
        ct
    }

    /// The schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Number of rows.
    pub fn num_rows(&self) -> usize {
        self.nrows
    }

    /// Rows per chunk.
    pub fn chunk_rows(&self) -> usize {
        self.chunk_rows
    }

    /// Number of row-range chunks (0 for an empty table).
    pub fn num_chunks(&self) -> usize {
        self.cols.first().map_or(0, |c| c.chunks.len())
    }

    /// True when the table carries chunk metadata (v3) — i.e. the pruning
    /// scan path applies.
    pub fn is_chunked(&self) -> bool {
        !self.cols.is_empty()
    }

    /// Per-column metadata.
    pub fn col_meta(&self, col: usize) -> &ColMeta {
        &self.cols[col]
    }

    /// Compressed on-disk footprint in bytes.
    pub fn compressed_bytes(&self) -> usize {
        self.file_bytes
    }

    /// Decoded (logical) size in bytes: rows × columns × 4.
    pub fn logical_bytes(&self) -> usize {
        self.nrows * self.schema.len() * 4
    }

    /// Bloom-filter membership test; true (maybe) when the column has no
    /// filter.
    pub fn bloom_may_contain(&self, col: usize, v: u32) -> bool {
        self.cols[col]
            .bloom
            .as_ref()
            .is_none_or(|b| b.may_contain(v))
    }

    /// Decodes one chunk of one column, verifying its CRC first — a
    /// corrupt chunk only fails the scans that touch it.
    pub fn decode_chunk(&self, col: usize, k: usize) -> Result<Vec<u32>, ColumnarError> {
        let meta = &self.cols[col].chunks[k];
        let body = &self.body[meta.offset..meta.offset + meta.len];
        let actual = crc32(body);
        if actual != meta.crc {
            return Err(ColumnarError::ChecksumMismatch {
                expected: meta.crc,
                actual,
            });
        }
        decode_chunk_body(meta.enc, body, meta.rows)
    }

    /// Fully decodes the table, memoized: repeated calls (and every cache
    /// hit in [`TableStore::load`]) share one `Arc<Table>`.
    ///
    /// [`TableStore::load`]: crate::io::TableStore::load
    pub fn materialize(&self) -> Result<Arc<Table>, ColumnarError> {
        if let Some(t) = self.materialized.get() {
            return Ok(Arc::clone(t));
        }
        let mut out_cols = Vec::with_capacity(self.cols.len());
        for c in 0..self.cols.len() {
            let mut col = Vec::with_capacity(self.nrows);
            for k in 0..self.cols[c].chunks.len() {
                col.extend_from_slice(&self.decode_chunk(c, k)?);
            }
            out_cols.push(col);
        }
        metric_counter!("columnar.io.chunks_decoded").add(self.num_chunks() as u64);
        let table = Arc::new(Table::from_columns(self.schema.clone(), out_cols));
        Ok(Arc::clone(self.materialized.get_or_init(|| table)))
    }

    /// Zone-map row estimate for a bound-constant selection on `col ==
    /// v`: the sum of surviving chunk row counts (1 for all-distinct
    /// chunks), 0 when the Bloom filter rules the value out, and the full
    /// row count for un-chunked (legacy) tables.
    pub fn estimate_eq_rows(&self, col: usize, v: u32) -> usize {
        if !self.is_chunked() {
            return self.nrows;
        }
        if !self.bloom_may_contain(col, v) {
            return 0;
        }
        self.cols[col]
            .chunks
            .iter()
            .filter(|m| m.may_contain(v))
            .map(|m| if m.distinct { 1 } else { m.rows })
            .sum()
    }
}

// ---------------------------------------------------------------------------
// Sideways semi-join filter + pruning scan
// ---------------------------------------------------------------------------

/// A runtime semi-join filter built from the smaller join side's key
/// column and pushed sideways into the other side's scan (the shared-
/// memory analogue of Spark's runtime DPP/bloom pushdown): chunks whose
/// zone map misses `[min, max]` are skipped before decode, and surviving
/// rows are tested against the Bloom filter before they reach the join.
#[derive(Debug, Clone)]
pub struct SidewaysFilter {
    /// Smallest key on the build side.
    pub min: u32,
    /// Largest key on the build side.
    pub max: u32,
    /// Membership filter over the build keys (false positives only cost a
    /// discarded probe, never a wrong result).
    pub bloom: Option<Bloom>,
}

/// Build-side row cap above which constructing a sideways filter stops
/// paying for itself.
pub const SIDEWAYS_MAX_ROWS: usize = 1 << 16;

impl SidewaysFilter {
    /// Builds a filter from a join-key column; `None` for empty or
    /// oversized columns.
    pub fn build(keys: &[u32]) -> Option<SidewaysFilter> {
        if keys.is_empty() || keys.len() > SIDEWAYS_MAX_ROWS {
            return None;
        }
        Some(SidewaysFilter {
            min: *keys.iter().min().unwrap(),
            max: *keys.iter().max().unwrap(),
            bloom: Some(Bloom::build(keys)),
        })
    }

    /// Row-level test.
    #[inline]
    pub fn may_contain(&self, v: u32) -> bool {
        self.min <= v && v <= self.max && self.bloom.as_ref().is_none_or(|b| b.may_contain(v))
    }
}

/// Counters a pruning scan reports back (also mirrored into the
/// `columnar.io.chunks_{pruned,decoded}` metrics).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ScanStats {
    /// Row-range chunks skipped via zone maps / Bloom / sideways filters.
    pub chunks_pruned: usize,
    /// Row-range chunks decoded.
    pub chunks_decoded: usize,
}

/// Chunk-skipping scan: equivalent to decoding the whole table and
/// running the fused bitmap scan (`eq_const` per bound constant,
/// `and_eq_cols` per repeated variable, gather of `proj` columns) but
/// consults zone maps, column Bloom filters and the optional sideways
/// semi-join filter to skip chunks *before* decode. Returns the projected
/// columns, the matching row count, and pruning stats. Row order matches
/// the unpruned scan exactly (pruned chunks contribute no rows by
/// construction of the zone maps).
pub fn scan_chunks(
    ct: &CompressedTable,
    bounds: &[(usize, u32)],
    eq_pairs: &[(usize, usize)],
    proj: &[usize],
    sideways: Option<(usize, &SidewaysFilter)>,
) -> Result<(Vec<Vec<u32>>, usize, ScanStats), ColumnarError> {
    debug_assert!(ct.is_chunked());
    let mut stats = ScanStats::default();
    let nchunks = ct.num_chunks();
    let mut out_cols: Vec<Vec<u32>> = proj.iter().map(|_| Vec::new()).collect();
    let mut out_rows = 0usize;

    // Whole-column Bloom probe: a provably absent constant prunes the
    // entire table in O(k) probes.
    if bounds.iter().any(|&(c, v)| !ct.bloom_may_contain(c, v)) {
        stats.chunks_pruned = nchunks;
        metric_counter!("columnar.io.chunks_pruned").add(nchunks as u64);
        return Ok((out_cols, 0, stats));
    }

    // Columns the survivor path actually needs to decode.
    let mut needed: Vec<usize> = proj.to_vec();
    needed.extend(bounds.iter().map(|&(c, _)| c));
    needed.extend(eq_pairs.iter().flat_map(|&(a, b)| [a, b]));
    if let Some((c, _)) = sideways {
        needed.push(c);
    }
    needed.sort_unstable();
    needed.dedup();

    let mut decoded: Vec<Option<Vec<u32>>> = vec![None; ct.cols.len()];
    for k in 0..nchunks {
        let zone_miss = bounds
            .iter()
            .any(|&(c, v)| !ct.cols[c].chunks[k].may_contain(v))
            || sideways
                .map(|(c, f)| !ct.cols[c].chunks[k].overlaps(f.min, f.max))
                .unwrap_or(false);
        if zone_miss {
            stats.chunks_pruned += 1;
            continue;
        }
        stats.chunks_decoded += 1;
        for &c in &needed {
            decoded[c] = Some(ct.decode_chunk(c, k)?);
        }
        let rows = ct.cols[0].chunks[k].rows;
        let mut bm = match bounds.first() {
            Some(&(c, v)) => kernels::eq_const(decoded[c].as_deref().unwrap(), v),
            None => Bitmap::full(rows),
        };
        for &(c, v) in bounds.iter().skip(1) {
            kernels::and_eq_const(&mut bm, decoded[c].as_deref().unwrap(), v);
        }
        for &(a, b) in eq_pairs {
            kernels::and_eq_cols(
                &mut bm,
                decoded[a].as_deref().unwrap(),
                decoded[b].as_deref().unwrap(),
            );
        }
        if let Some((c, f)) = sideways {
            kernels::retain_rows(&mut bm, decoded[c].as_deref().unwrap(), |v| {
                f.may_contain(v)
            });
        }
        out_rows += bm.count_ones();
        for (out, &c) in out_cols.iter_mut().zip(proj) {
            out.extend(kernels::gather_column(decoded[c].as_deref().unwrap(), &bm));
        }
    }
    metric_counter!("columnar.io.chunks_pruned").add(stats.chunks_pruned as u64);
    metric_counter!("columnar.io.chunks_decoded").add(stats.chunks_decoded as u64);
    Ok((out_cols, out_rows, stats))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lcg(n: usize, card: u32, mut state: u64) -> Vec<u32> {
        (0..n)
            .map(|_| {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                ((state >> 33) as u32) % card
            })
            .collect()
    }

    fn roundtrip(vals: &[u32]) -> u8 {
        let (enc, body) = encode_chunk(vals);
        let back = decode_chunk_body(enc, &body, vals.len()).unwrap();
        assert_eq!(back, vals, "enc {enc}");
        enc
    }

    #[test]
    fn encodings_roundtrip_and_win_where_expected() {
        assert_eq!(roundtrip(&[7; 1000]), ENC_CHUNK_CONST);
        // Sorted with small gaps → delta.
        let sorted: Vec<u32> = (0..1000u32).map(|i| 10_000 + i * 3).collect();
        assert_eq!(roundtrip(&sorted), ENC_CHUNK_DELTA);
        // Narrow range, unsorted → frame-of-reference.
        let narrow: Vec<u32> = lcg(1000, 16, 5).iter().map(|v| 1_000_000 + v).collect();
        assert_eq!(roundtrip(&narrow), ENC_CHUNK_FOR);
        // Long runs → RLE... unless FOR's packed width is already
        // smaller; just require a correct roundtrip and a small body.
        let runs: Vec<u32> = (0..1000).map(|i| 500_000 + (i / 200) as u32).collect();
        roundtrip(&runs);
        // Single value.
        assert_eq!(roundtrip(&[42]), ENC_CHUNK_CONST);
        // Extremes.
        roundtrip(&[0, u32::MAX]);
        roundtrip(&[u32::MAX - 1, u32::MAX, 0, 3]);
    }

    #[test]
    fn for_beats_plain_varints_on_big_ids() {
        // 1000 ids near 2^27: plain varints spend 4 bytes each, FOR packs
        // the narrow offsets.
        let vals: Vec<u32> = lcg(1000, 256, 9).iter().map(|v| (1 << 27) + v).collect();
        let (enc, body) = encode_chunk(&vals);
        assert_eq!(enc, ENC_CHUNK_FOR);
        assert!(body.len() < 1500, "FOR body too large: {}", body.len());
    }

    #[test]
    fn hostile_chunk_bodies_rejected() {
        // Unknown encoding.
        assert!(decode_chunk_body(9, &[1, 2, 3], 4).is_err());
        // Truncated varint stream.
        assert!(decode_chunk_body(ENC_CHUNK_PLAIN, &[0x80], 1).is_err());
        // RLE run longer than the chunk.
        let mut rle = Vec::new();
        write_varint(&mut rle, 5);
        write_varint(&mut rle, 1000);
        assert!(decode_chunk_body(ENC_CHUNK_RLE, &rle, 10).is_err());
        // RLE zero-length run.
        let mut rle0 = Vec::new();
        write_varint(&mut rle0, 5);
        write_varint(&mut rle0, 0);
        assert!(decode_chunk_body(ENC_CHUNK_RLE, &rle0, 10).is_err());
        // Value exceeding u32.
        let mut big = Vec::new();
        write_varint(&mut big, u64::from(u32::MAX) + 1);
        assert!(decode_chunk_body(ENC_CHUNK_CONST, &big, 3).is_err());
        // FOR with an offset overflowing u32.
        let mut fr = Vec::new();
        write_varint(&mut fr, u32::MAX as u64);
        fr.push(1);
        fr.push(0xff);
        assert!(decode_chunk_body(ENC_CHUNK_FOR, &fr, 8).is_err());
        // Wrong packed length.
        let mut fr2 = Vec::new();
        write_varint(&mut fr2, 0);
        fr2.push(8);
        fr2.extend_from_slice(&[0; 3]);
        assert!(decode_chunk_body(ENC_CHUNK_FOR, &fr2, 8).is_err());
        // Trailing bytes.
        let (enc, mut body) = encode_chunk(&[1, 2, 3]);
        body.push(0);
        assert!(decode_chunk_body(enc, &body, 3).is_err());
    }

    #[test]
    fn bloom_finds_members_and_prunes_absent() {
        let vals: Vec<u32> = (0..10_000u32).map(|i| i * 7).collect();
        let bloom = Bloom::build(&vals);
        for &v in vals.iter().step_by(97) {
            assert!(bloom.may_contain(v));
        }
        // False-positive rate over absent keys stays well under 50 %.
        let fp = (0..10_000u32)
            .map(|i| i * 7 + 3)
            .filter(|&v| bloom.may_contain(v))
            .count();
        assert!(fp < 5_000, "implausible Bloom FP count {fp}");
        // Serialization roundtrip.
        let mut buf = Vec::new();
        bloom.write(&mut buf);
        let mut pos = 0;
        let back = Bloom::read(&buf, &mut pos).unwrap();
        assert_eq!(back, bloom);
        assert_eq!(pos, buf.len());
    }

    #[test]
    fn compressed_table_materialize_matches_source() {
        let schema = Schema::new(["s", "o"]);
        let s: Vec<u32> = (0..10_000).map(|i| i / 3).collect();
        let o = lcg(10_000, 1 << 20, 3);
        let table = Table::from_columns(schema, vec![s, o]);
        for chunk_rows in [64, 1000, 4096, 1 << 20] {
            let ct = CompressedTable::from_table(
                &table,
                &WriteOptions {
                    chunk_rows,
                    bloom: true,
                },
            );
            assert_eq!(*ct.materialize().unwrap(), table, "chunk_rows {chunk_rows}");
        }
    }

    #[test]
    fn scan_chunks_matches_full_scan() {
        let schema = Schema::new(["s", "o"]);
        // Sorted subjects → tight zone maps; random objects.
        let s: Vec<u32> = (0..20_000).map(|i| i / 4).collect();
        let o = lcg(20_000, 1 << 16, 7);
        let table = Table::from_columns(schema, vec![s.clone(), o.clone()]);
        let ct = CompressedTable::from_table(&table, &WriteOptions::default());

        // Bound subject: only one chunk's zone map can contain it.
        let (cols, rows, stats) = scan_chunks(&ct, &[(0, 1234)], &[], &[1], None).unwrap();
        let expect: Vec<u32> = (0..20_000)
            .filter(|&i| s[i] == 1234)
            .map(|i| o[i])
            .collect();
        assert_eq!(cols[0], expect);
        assert_eq!(rows, expect.len());
        assert!(stats.chunks_pruned > 0, "no chunks pruned: {stats:?}");
        assert_eq!(stats.chunks_pruned + stats.chunks_decoded, ct.num_chunks());

        // Out-of-range constant prunes everything.
        let (_, rows, stats) = scan_chunks(&ct, &[(0, 9_999_999)], &[], &[1], None).unwrap();
        assert_eq!(rows, 0);
        assert_eq!(stats.chunks_decoded, 0);

        // Repeated-variable scan (s == o) with no bound constant.
        let (cols, _, _) = scan_chunks(&ct, &[], &[(0, 1)], &[0], None).unwrap();
        let expect: Vec<u32> = (0..20_000)
            .filter(|&i| s[i] == o[i])
            .map(|i| s[i])
            .collect();
        assert_eq!(cols[0], expect);
    }

    #[test]
    fn sideways_filter_prunes_chunks_and_rows() {
        let schema = Schema::new(["s", "o"]);
        let s: Vec<u32> = (0..20_000).map(|i| i as u32).collect();
        let o: Vec<u32> = (0..20_000).map(|i| (i as u32) ^ 1).collect();
        let table = Table::from_columns(schema, vec![s.clone(), o]);
        let ct = CompressedTable::from_table(&table, &WriteOptions::default());
        // Build side holds keys 100..200 → every chunk past the first is
        // zone-pruned.
        let keys: Vec<u32> = (100..200).collect();
        let f = SidewaysFilter::build(&keys).unwrap();
        let (cols, rows, stats) = scan_chunks(&ct, &[], &[], &[0], Some((0, &f))).unwrap();
        assert!(stats.chunks_pruned > 0);
        assert_eq!(rows, cols[0].len());
        // Every build key survives (no false negatives)…
        for k in &keys {
            assert!(cols[0].contains(k), "sideways filter dropped key {k}");
        }
        // …and the survivor set is a small superset of the true keys.
        assert!(rows >= keys.len() && rows < 5_000, "rows {rows}");
    }

    #[test]
    fn estimate_eq_rows_uses_zone_maps() {
        let schema = Schema::new(["s", "o"]);
        let s: Vec<u32> = (0..20_000).map(|i| i as u32).collect(); // distinct
        let o: Vec<u32> = (0..20_000).map(|i| i / 100).collect();
        let table = Table::from_columns(schema, vec![s, o]);
        let ct = CompressedTable::from_table(&table, &WriteOptions::default());
        // Distinct column: estimate collapses to 1 (one surviving chunk,
        // all-distinct).
        assert_eq!(ct.estimate_eq_rows(0, 5000), 1);
        // Absent value: zone maps (or Bloom) report 0.
        assert_eq!(ct.estimate_eq_rows(0, 1 << 30), 0);
        // Non-distinct column: bounded by the surviving chunks' rows.
        let est = ct.estimate_eq_rows(1, 42);
        assert!(est >= 100 && est <= ct.num_rows(), "est {est}");
    }
}
