//! Property tests for the one checkpoint reader,
//! `sink::read_checkpoint`: on arbitrary file contents it returns `Ok`
//! or `Err` and never panics, and on valid records followed by one torn
//! final line — the shape a kill mid-`write` leaves — it returns exactly
//! those records and truncates the file to them byte for byte.

use dispersion_sim::sink::{parse_ndjson, read_checkpoint, Record, StatSummary};
use proptest::prelude::*;
use std::fs;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};

/// A scratch file path unique to this call (tests run concurrently).
fn scratch(tag: &str) -> PathBuf {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    // ORDERING: Relaxed — only uniqueness of the returned value matters
    let n = NEXT.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!(
        "sim_checkpoint_reader_{tag}_{}_{n}.ndjson",
        std::process::id()
    ))
}

/// A record whose fields all come from `seed` (floats chosen so their
/// shortest-roundtrip text has many digits).
fn record(cell: usize, seed: u64) -> Record {
    let x = (seed % 1_000_003) as f64 / 7.0;
    Record {
        cell,
        key: format!("cycle:n{}:seq:explicit:t{}", 8 + seed % 64, seed % 100),
        family: "cycle".into(),
        n: 8 + (seed % 64) as usize,
        measure: "seq".into(),
        backend: "explicit".into(),
        trials: seed % 100,
        stats: vec![StatSummary {
            name: "time".into(),
            mean: x,
            var: x * 0.1 + 0.2,
            min: 0.5,
            max: x + 1.0,
        }],
        error: seed
            .is_multiple_of(5)
            .then(|| format!("trial {}: \"cancelled\"", seed % 9)),
    }
}

/// Bytes that stress a line parser: newlines, CR, JSON punctuation, a
/// lone UTF-8 lead byte, a multi-byte character and plain letters.
const ALPHABET: &[&[u8]] = &[
    b"\n",
    b"\r\n",
    b"\r",
    b"{",
    b"}",
    b"\"",
    b":",
    b",",
    b" ",
    b"\\",
    b"0",
    b"a",
    b"\xc3",
    "é".as_bytes(),
    b"{\"cell\":",
];

/// Strategy: valid record lines with random splices from [`ALPHABET`] or
/// raw bytes at random positions — mostly-valid files with damage
/// anywhere, plus plain garbage.
fn damaged_file() -> impl Strategy<Value = Vec<u8>> {
    (
        proptest::collection::vec(any::<u64>(), 0..5),
        proptest::collection::vec((any::<u64>(), any::<u64>(), any::<u8>()), 0..6),
    )
        .prop_map(|(seeds, edits)| {
            let mut bytes: Vec<u8> = seeds
                .iter()
                .enumerate()
                .flat_map(|(i, &s)| format!("{}\n", record(i, s).to_json_line()).into_bytes())
                .collect();
            for (pos, pick, raw) in edits {
                let at = (pos % (bytes.len() as u64 + 1)) as usize;
                let piece: Vec<u8> = if pick.is_multiple_of(4) {
                    vec![raw]
                } else {
                    ALPHABET[(pick % ALPHABET.len() as u64) as usize].to_vec()
                };
                if pick.is_multiple_of(3) && at < bytes.len() {
                    bytes.remove(at); // a deletion, too
                }
                bytes.splice(at..at, piece);
            }
            bytes
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn never_panics_and_ok_leaves_a_clean_checkpoint(bytes in damaged_file()) {
        let path = scratch("any");
        fs::write(&path, &bytes).unwrap();
        if let Ok(records) = read_checkpoint(&path) {
            // whatever was accepted is exactly what the file now holds,
            // so a later append starts on a fresh line
            let text = fs::read_to_string(&path).unwrap();
            prop_assert_eq!(parse_ndjson(&text), Ok(records));
        }
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn arbitrary_bytes_never_panic(bytes in proptest::collection::vec(any::<u8>(), 0..300)) {
        let path = scratch("raw");
        fs::write(&path, &bytes).unwrap();
        let _ = read_checkpoint(&path);
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn torn_final_line_is_truncated_byte_for_byte(
        seeds in proptest::collection::vec(any::<u64>(), 0..6),
        torn_seed in any::<u64>(),
        cut in any::<u64>(),
    ) {
        let records: Vec<Record> = seeds.iter().enumerate().map(|(i, &s)| record(i, s)).collect();
        let intact: String = records.iter().map(|r| format!("{}\n", r.to_json_line())).collect();
        // a kill mid-write leaves a strict, non-empty prefix of the next line
        let torn = record(records.len(), torn_seed).to_json_line();
        let cut = 1 + (cut % (torn.len() as u64 - 1)) as usize;
        let path = scratch("torn");
        fs::write(&path, format!("{intact}{}", &torn[..cut])).unwrap();
        prop_assert_eq!(read_checkpoint(&path), Ok(records));
        prop_assert_eq!(fs::read_to_string(&path).unwrap(), intact);
        let _ = fs::remove_file(&path);
    }
}
