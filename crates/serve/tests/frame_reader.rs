//! Property tests for the shard frame decoder, `shard::proto::read_frame`:
//! on arbitrary bytes — raw, framed with a matching length, or a valid
//! frame stream with damage anywhere — it returns `Ok` or `Err` and never
//! panics, and every `Frame` variant with arbitrary numbers and strings
//! round-trips through `write_frame`/`read_frame`.

use dispersion_serve::shard::proto::{read_frame, write_frame, Frame};
use proptest::prelude::*;

/// Characters that stress a JSON string codec: quotes, escapes, control
/// characters, the JS line separators and multi-byte code points.
const TRICKY: &[char] = &[
    '"', '\\', '/', '\n', '\r', '\t', '\u{0}', '\u{1f}', '\u{7f}', '\u{2028}', '\u{2029}', 'é',
    '\u{ffff}', '😀', '{', '}', ':', ',',
];

/// Strategy: strings over all of Unicode, weighted towards [`TRICKY`].
fn text() -> impl Strategy<Value = String> {
    proptest::collection::vec(any::<u32>(), 0..24).prop_map(|codes| {
        codes
            .iter()
            .filter_map(|&c| {
                if c.is_multiple_of(3) {
                    Some(TRICKY[(c / 3) as usize % TRICKY.len()])
                } else {
                    char::from_u32(c % 0x11_0000)
                }
            })
            .collect()
    })
}

/// Strategy: any `Frame` variant with arbitrary fields.
fn frame() -> impl Strategy<Value = Frame> {
    (
        any::<u64>(),
        (any::<u64>(), any::<u64>(), any::<u64>(), any::<u64>()),
        text(),
    )
        .prop_map(|(pick, (a, b, c, d), s)| match pick % 11 {
            0 => Frame::Hello {
                shard: a,
                shards: b,
            },
            1 => Frame::Ready { shard: a },
            2 => Frame::Assign {
                job: a,
                resume: b,
                spec_json: s,
            },
            3 => Frame::Cancel { job: a },
            4 => Frame::Shutdown,
            5 => Frame::Started { job: a, cell: b },
            6 => Frame::Progress {
                job: a,
                cell: b,
                trials: c,
                steps: d,
            },
            7 => Frame::Record {
                job: a,
                cell: b,
                line: s,
            },
            8 => Frame::JobDone { job: a },
            9 => Frame::Heartbeat,
            _ => Frame::Bye,
        })
}

/// The wire form of `frames`, back to back.
fn encode(frames: &[Frame]) -> Vec<u8> {
    let mut buf = Vec::new();
    for f in frames {
        write_frame(&mut buf, f).unwrap();
    }
    buf
}

/// Reads frames until a clean EOF or the first error. Each `Ok(Some)`
/// consumes at least the 4-byte length prefix, so this terminates.
fn drain(mut bytes: &[u8]) {
    while let Ok(Some(_)) = read_frame(&mut bytes) {}
}

/// Bytes that stress the payload parser once a length prefix admits them.
const ALPHABET: &[&[u8]] = &[
    b"{", b"}", b"[", b"\"", b":", b",", b"\\", b"\\u", b"d8", b"0", b"-", b"e9", b"\xc3", b"\xff",
    b"type", b"null",
];

/// Strategy: a valid frame stream with random splices from [`ALPHABET`],
/// raw bytes and deletions anywhere, length prefixes included.
fn damaged_stream() -> impl Strategy<Value = Vec<u8>> {
    (
        proptest::collection::vec(frame(), 0..4),
        proptest::collection::vec((any::<u64>(), any::<u64>(), any::<u8>()), 0..6),
    )
        .prop_map(|(frames, edits)| {
            let mut bytes = encode(&frames);
            for (pos, pick, raw) in edits {
                let at = (pos % (bytes.len() as u64 + 1)) as usize;
                let piece: Vec<u8> = if pick.is_multiple_of(4) {
                    vec![raw]
                } else {
                    ALPHABET[(pick % ALPHABET.len() as u64) as usize].to_vec()
                };
                if pick.is_multiple_of(3) && at < bytes.len() {
                    bytes.remove(at);
                }
                bytes.splice(at..at, piece);
            }
            bytes
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn every_frame_roundtrips(frames in proptest::collection::vec(frame(), 0..6)) {
        let bytes = encode(&frames);
        let mut r = &bytes[..];
        for f in &frames {
            prop_assert_eq!(read_frame(&mut r).unwrap().as_ref(), Some(f));
        }
        prop_assert_eq!(read_frame(&mut r).unwrap(), None);
    }

    #[test]
    fn arbitrary_bytes_never_panic(bytes in proptest::collection::vec(any::<u8>(), 0..300)) {
        drain(&bytes);
    }

    #[test]
    fn arbitrary_payloads_never_panic(payload in proptest::collection::vec(any::<u8>(), 0..300)) {
        let mut bytes = (payload.len() as u32).to_le_bytes().to_vec();
        bytes.extend_from_slice(&payload);
        drain(&bytes);
    }

    #[test]
    fn damaged_streams_never_panic(bytes in damaged_stream()) {
        drain(&bytes);
    }
}
