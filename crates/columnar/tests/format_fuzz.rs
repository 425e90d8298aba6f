//! Adversarial tests for the on-disk formats: the columnar table format
//! (v3 chunked, checksummed; v2 legacy, read-only) and the write-ahead log.
//!
//! Properties the store depends on for fault tolerance:
//!
//! 1. `deserialize_table` is *total*: arbitrary input bytes produce an
//!    `Err`, never a panic or an unbounded allocation.
//! 2. Any single-byte mutation or truncation of a valid current-format
//!    file is detected — the whole-file CRC-32 footer covers the version
//!    byte too, so corrupt data never decodes silently.
//! 3. Legacy v2 files, which nothing writes any more, still load
//!    byte-for-byte identically from a checked-in fixture, and the
//!    footer-less v1 format is rejected as an unsupported version.
//! 4. Every chunk encoding round-trips arbitrary `u32` columns
//!    bit-exactly, at both the chunk and whole-file level.
//! 5. WAL replay (`wal::scan_records`) is total too, and any damage —
//!    truncation at an arbitrary offset, a bit flip, duplicated tail
//!    bytes — recovers a *prefix* of the original records, never panics,
//!    never fabricates a record.

use proptest::prelude::*;
use s2rdf_columnar::chunk::{decode_chunk_body, encode_chunk};
use s2rdf_columnar::io::{deserialize_table, serialize_table, serialize_table_opts, TableStore};
use s2rdf_columnar::wal::{scan_records, WAL_MAGIC, WAL_VERSION};
use s2rdf_columnar::{ColumnarError, Schema, Table, Wal, WriteOptions};

/// A small table exercising both plain and RLE column encodings.
fn sample() -> Table {
    Table::from_columns(
        Schema::new(["s", "p", "o"]),
        vec![
            (0..64).collect(),                    // plain
            std::iter::repeat_n(7, 64).collect(), // RLE
            (0..64).map(|i| i / 8).collect(),     // RLE runs of 8
        ],
    )
}

/// The checked-in v2 fixture (one plain and one RLE column) must keep
/// loading, and re-serializing it must produce a current-format (v3
/// chunked) file.
#[test]
fn v2_fixture_still_loads() {
    let bytes: &[u8] = include_bytes!("fixtures/v2_sample.s2ct");
    assert_eq!(bytes[4], 2, "fixture must stay a v2 file");
    let table = deserialize_table(bytes).expect("v2 fixture must load");
    let expected = Table::from_columns(
        Schema::new(["s", "o"]),
        vec![vec![1, 2, 3, 4, 5], vec![10, 10, 10, 10, 20]],
    );
    assert_eq!(table, expected);
    // Round-tripping upgrades to the current checksummed chunked format.
    let v3 = serialize_table(&table);
    assert_eq!(v3[4], 3);
    assert_eq!(deserialize_table(&v3).unwrap(), expected);
}

/// Flipping the version byte of a current-format file down to v2 must not
/// bypass checksum verification (the CRC covers the version byte), and v1
/// is no longer a readable version at all.
#[test]
fn version_downgrade_is_rejected() {
    let bytes = serialize_table(&sample());
    assert_eq!(bytes[4], 3);
    let mut m = bytes.clone();
    m[4] = 2;
    assert!(matches!(
        deserialize_table(&m),
        Err(ColumnarError::ChecksumMismatch { .. })
    ));
    m[4] = 1;
    match deserialize_table(&m) {
        Err(ColumnarError::CorruptFile(msg)) => assert_eq!(msg, "unsupported version 1"),
        other => panic!("downgrade to v1 must be rejected, got {other:?}"),
    }
}

/// Kill-and-reopen: simulate a crash that tears one table file at every
/// possible truncation point. On reopen, every manifest entry either loads
/// the intact table or fails with a structured error — never panics, never
/// yields wrong data.
#[test]
fn torn_write_reopen_loads_or_fails_cleanly() {
    let dir = std::env::temp_dir().join(format!("s2ct-torn-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let (victim_file, original) = {
        let mut store = TableStore::open(&dir).unwrap();
        store.save("VP/follows", &sample()).unwrap();
        store.save("VP/likes", &sample()).unwrap();
        let manifest = std::fs::read_to_string(dir.join("manifest.tsv")).unwrap();
        let file = manifest
            .lines()
            .find(|l| l.starts_with("VP/follows\t"))
            .and_then(|l| l.split('\t').nth(1))
            .expect("manifest entry for VP/follows")
            .to_string();
        (file.clone(), std::fs::read(dir.join(&file)).unwrap())
    };
    for cut in 0..original.len() {
        std::fs::write(dir.join(&victim_file), &original[..cut]).unwrap();
        let store = TableStore::open(&dir).unwrap();
        // The untouched table always survives the reopen…
        assert_eq!(*store.load("VP/likes").unwrap(), sample());
        // …and the torn one fails loudly rather than decoding garbage.
        match store.load("VP/follows") {
            Err(ColumnarError::ChecksumMismatch { .. } | ColumnarError::CorruptFile(_)) => {}
            Err(other) => panic!("unexpected error class at cut {cut}: {other:?}"),
            Ok(t) => panic!("torn file decoded at cut {cut}: {} rows", t.num_rows()),
        }
    }
    // Restoring the full bytes restores the table: detection is stateless.
    std::fs::write(dir.join(&victim_file), &original).unwrap();
    let store = TableStore::open(&dir).unwrap();
    assert_eq!(*store.load("VP/follows").unwrap(), sample());
    assert!(store.verify_all().is_clean());
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Builds a valid WAL image holding the given payloads.
fn wal_image(payloads: &[Vec<u8>]) -> Vec<u8> {
    let mut out = WAL_MAGIC.to_vec();
    out.push(WAL_VERSION);
    for p in payloads {
        out.extend_from_slice(&(p.len() as u32).to_le_bytes());
        out.extend_from_slice(&s2rdf_columnar::crc32::crc32(p).to_le_bytes());
        out.extend_from_slice(p);
    }
    out
}

/// A duplicated tail record — the image a retried append could leave — is
/// simply two valid records; replay returns both and idempotent apply
/// makes the duplicate harmless.
#[test]
fn wal_duplicate_tail_record_is_tolerated() {
    let payloads = vec![b"first".to_vec(), b"second".to_vec()];
    let mut bytes = wal_image(&payloads);
    let solo = wal_image(&payloads[1..]);
    bytes.extend_from_slice(&solo[5..]); // append the second record again
    let (records, valid) = scan_records(&bytes).unwrap();
    assert_eq!(
        records,
        vec![b"first".to_vec(), b"second".to_vec(), b"second".to_vec()]
    );
    assert_eq!(valid, bytes.len());
}

/// End-to-end kill-and-reopen over the WAL file: tear it at every byte
/// offset; `Wal::open` must recover the longest valid record prefix,
/// truncate the residue, and accept new appends.
#[test]
fn wal_torn_at_every_offset_recovers_prefix() {
    let dir = std::env::temp_dir().join(format!("s2wl-torn-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("wal.log");
    let payloads = vec![b"one".to_vec(), vec![0xAB; 100], b"three".to_vec()];
    let full = wal_image(&payloads);
    // Full extents of each record, for computing the expected survivors.
    let mut ends = vec![5usize];
    for p in &payloads {
        ends.push(ends.last().unwrap() + 8 + p.len());
    }
    for cut in 0..=full.len() {
        std::fs::write(&path, &full[..cut]).unwrap();
        let (mut wal, replayed) = Wal::open(&path).unwrap();
        let expect = ends.iter().filter(|&&e| e > 5 && e <= cut).count();
        assert_eq!(replayed.len(), expect, "cut {cut}");
        assert_eq!(replayed, payloads[..expect].to_vec(), "cut {cut}");
        // The recovered log keeps working.
        wal.append(b"after recovery").unwrap();
        drop(wal);
        let (_, replayed) = Wal::open(&path).unwrap();
        assert_eq!(replayed.len(), expect + 1);
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

proptest! {
    /// Totality over arbitrary bytes.
    #[test]
    fn prop_arbitrary_bytes_never_panic(data in proptest::collection::vec(any::<u8>(), 0..1024)) {
        let _ = deserialize_table(&data);
    }

    /// WAL replay is total over arbitrary bytes: it recovers some prefix
    /// or rejects the file, but never panics and never over-reads.
    #[test]
    fn prop_wal_scan_is_total(data in proptest::collection::vec(any::<u8>(), 0..1024)) {
        if let Ok((records, valid)) = scan_records(&data) {
            prop_assert!(valid <= data.len());
            let replayed: usize =
                records.iter().map(|r| 8 + r.len()).sum::<usize>() + 5;
            prop_assert_eq!(replayed, valid.max(5));
        }
    }

    /// Truncating a valid WAL image anywhere recovers exactly the records
    /// that fit wholly inside the kept prefix.
    #[test]
    fn prop_wal_truncation_recovers_longest_prefix(
        payloads in proptest::collection::vec(
            proptest::collection::vec(any::<u8>(), 0..64), 0..6),
        cut in any::<usize>(),
    ) {
        let full = wal_image(&payloads);
        let cut = cut % (full.len() + 1);
        let mut ends = vec![5usize];
        for p in &payloads {
            ends.push(ends.last().unwrap() + 8 + p.len());
        }
        match scan_records(&full[..cut]) {
            Ok((records, valid)) => {
                let expect = ends.iter().filter(|&&e| e > 5 && e <= cut).count();
                prop_assert_eq!(records.len(), expect);
                prop_assert_eq!(records, payloads[..expect].to_vec());
                // A cut inside the header reads as "reinitialize" (valid
                // length 0); past it, the longest whole-record prefix.
                let expect_valid = if cut < 5 { 0 } else { *ends[..=expect].last().unwrap() };
                prop_assert_eq!(valid, expect_valid);
            }
            // A cut inside the 5-byte header that still matches it is
            // "reinitialize"; only a *mismatching* header may error, and
            // a prefix of the true header never mismatches.
            Err(_) => prop_assert!(false, "prefix of a valid WAL must scan"),
        }
    }

    /// A single flipped bit anywhere in a WAL image never panics and never
    /// corrupts the records *before* the flip.
    #[test]
    fn prop_wal_bit_flip_never_panics(
        payloads in proptest::collection::vec(
            proptest::collection::vec(any::<u8>(), 0..64), 1..6),
        idx in any::<usize>(),
        bit in 0u8..8,
    ) {
        let mut bytes = wal_image(&payloads);
        let idx = idx % bytes.len();
        bytes[idx] ^= 1 << bit;
        if let Ok((records, _)) = scan_records(&bytes) {
            // Records wholly before the flipped byte must survive intact.
            let mut end = 5usize;
            let mut intact = 0;
            for p in &payloads {
                end += 8 + p.len();
                if end <= idx {
                    intact += 1;
                }
            }
            prop_assert!(records.len() >= intact.min(payloads.len()));
            for (r, p) in records.iter().zip(&payloads).take(intact) {
                prop_assert_eq!(r, p);
            }
        }
    }

    /// Totality over byte soup that passes the magic/version gate, so the
    /// fuzzer spends its budget inside the header and column decoders.
    #[test]
    fn prop_framed_garbage_never_panics(
        version in 0u8..4,
        tail in proptest::collection::vec(any::<u8>(), 0..512),
    ) {
        let mut data = b"S2CT".to_vec();
        data.push(version);
        data.extend_from_slice(&tail);
        let _ = deserialize_table(&data);
    }

    /// Every single-byte mutation of a valid v3 file must be detected.
    #[test]
    fn prop_single_byte_mutation_errors(idx in any::<usize>(), xor in 1u8..=255) {
        let mut bytes = serialize_table(&sample());
        let idx = idx % bytes.len();
        bytes[idx] ^= xor;
        prop_assert!(
            deserialize_table(&bytes).is_err(),
            "mutation at byte {idx} (xor {xor:#04x}) decoded silently"
        );
    }

    /// Every proper-prefix truncation of a valid v3 file must be detected.
    #[test]
    fn prop_truncation_errors(cut in any::<usize>()) {
        let bytes = serialize_table(&sample());
        let cut = cut % bytes.len(); // strictly shorter than the original
        prop_assert!(deserialize_table(&bytes[..cut]).is_err());
    }

    /// Arbitrary `u32` columns — any values, any length — round-trip
    /// bit-exactly through the full chunked serializer, across chunk
    /// boundaries (chunk_rows 1..=17 forces many chunks and ragged tails).
    #[test]
    fn prop_v3_roundtrips_arbitrary_columns(
        col in proptest::collection::vec(any::<u32>(), 0..300),
        chunk_rows in 1usize..=17,
        bloom in any::<bool>(),
    ) {
        let table = Table::from_columns(Schema::new(["c"]), vec![col]);
        let bytes = serialize_table_opts(&table, &WriteOptions { chunk_rows, bloom });
        prop_assert_eq!(deserialize_table(&bytes).unwrap(), table);
    }

    /// Every chunk encoding round-trips the shapes that select it:
    /// constant runs (CONST/RLE), monotone sequences (DELTA), narrow
    /// ranges (FOR) and arbitrary values (PLAIN), all checked bit-exactly
    /// at the chunk level.
    #[test]
    fn prop_chunk_encodings_roundtrip(
        shape in 0usize..4,
        base in any::<u32>(),
        deltas in proptest::collection::vec(0u32..64, 1..200),
    ) {
        let vals: Vec<u32> = match shape {
            0 => deltas.iter().map(|_| base).collect(), // constant → CONST
            1 => {
                // Few long runs → RLE.
                deltas.iter().enumerate()
                    .map(|(i, _)| base.wrapping_add((i / 64) as u32)).collect()
            }
            2 => {
                // Monotone non-decreasing → DELTA.
                let mut acc = base / 2;
                deltas.iter().map(|&d| { acc = acc.saturating_add(d); acc }).collect()
            }
            _ => deltas.iter().map(|&d| base.wrapping_add(d)).collect(), // narrow → FOR
        };
        let (enc, body) = encode_chunk(&vals);
        prop_assert!(enc <= 4, "unknown encoding {enc}");
        prop_assert_eq!(decode_chunk_body(enc, &body, vals.len()).unwrap(), vals);
    }
}
