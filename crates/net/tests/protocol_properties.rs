//! Property-based tests for the wire frame codec.
//!
//! The promise `docs/protocol.md` makes — and the shard servers rely on to
//! face untrusted peers — is exactly this: whatever bytes arrive, the
//! decoder never panics and never silently accepts a damaged frame.
//! Truncation at any byte, any single-bit flip, an oversized length claim
//! and a foreign version byte each map to their own typed [`NetError`].

use proptest::prelude::*;
use sae_crypto::Digest;
use sae_net::{decode_frame, encode_frame, Message, NetError, MAX_FRAME_PAYLOAD, WIRE_VERSION};
use sae_storage::wal::crc32;
use sae_workload::RangeQuery;

fn arb_query() -> impl Strategy<Value = Message> {
    (any::<u32>(), any::<u32>(), any::<u32>()).prop_map(|(shard, a, b)| Message::Query {
        shard,
        range: RangeQuery::new(a, b),
    })
}

fn arb_slice() -> impl Strategy<Value = Message> {
    (
        any::<u32>(),
        1usize..32,
        any::<u64>(),
        prop::collection::vec(any::<u8>(), 0..6),
        prop::array::uniform20(any::<u8>()),
    )
        .prop_map(|(shard, record_len, epoch, seeds, vt)| Message::Slice {
            shard,
            record_len: record_len as u32,
            epoch,
            records: seeds.iter().map(|&seed| vec![seed; record_len]).collect(),
            vt: Digest(vt),
        })
}

fn arb_status_info() -> impl Strategy<Value = Message> {
    (any::<u32>(), any::<bool>(), any::<u64>()).prop_map(|(shard, synced, epoch)| {
        Message::StatusInfo {
            shard,
            synced,
            epoch,
        }
    })
}

fn arb_snapshot_chunk() -> impl Strategy<Value = Message> {
    (
        any::<u32>(),
        1u32..8,
        any::<u64>(),
        prop::collection::vec(any::<u8>(), 0..48),
    )
        .prop_map(|(shard, chunks, epoch, bytes)| Message::SnapshotChunk {
            shard,
            chunk: chunks - 1,
            chunks,
            epoch,
            bytes,
        })
}

fn arb_tail() -> impl Strategy<Value = Message> {
    (any::<u32>(), prop::collection::vec(any::<u8>(), 0..48))
        .prop_map(|(shard, bytes)| Message::Tail { shard, bytes })
}

fn arb_error() -> impl Strategy<Value = Message> {
    (
        any::<u16>(),
        any::<u8>(),
        prop::collection::vec(32u8..127, 0..24),
    )
        .prop_map(|(code, version, detail)| Message::Error {
            code,
            version,
            detail: String::from_utf8_lossy(&detail).into_owned(),
        })
}

/// One of the six replication-catalog messages, uniformly.
fn arb_replication() -> impl Strategy<Value = Message> {
    (
        0u8..6,
        (any::<u32>(), any::<u64>()),
        arb_status_info(),
        arb_snapshot_chunk(),
        arb_tail(),
    )
        .prop_map(
            |(pick, (shard, from_epoch), info, chunk, tail)| match pick {
                0 => Message::Status { shard },
                1 => info,
                2 => Message::FetchSnapshot {
                    shard,
                    chunk: from_epoch as u32 % 64,
                },
                3 => chunk,
                4 => Message::FetchTail { shard, from_epoch },
                _ => tail,
            },
        )
}

fn arb_message() -> impl Strategy<Value = Message> {
    (
        0u8..5,
        arb_query(),
        arb_slice(),
        arb_error(),
        arb_replication(),
    )
        .prop_map(|(pick, q, s, e, r)| match pick {
            0 => q,
            1 => s,
            2 => e,
            3 => r,
            _ => Message::Ping,
        })
}

/// The two frames printed in `docs/protocol.md` § Worked example, pinned
/// byte for byte, plus a SLICE long enough to run the CRC's 16-byte blocks:
/// a new CRC kernel or encoder must leave the wire unchanged.
#[test]
fn encoder_reproduces_the_documented_frames() {
    let query = encode_frame(&Message::Query {
        shard: 1,
        range: RangeQuery::new(600, 1337),
    });
    let expected_query: [u8; 22] = [
        0x0e, 0x00, 0x00, 0x00, 0xc1, 0x81, 0x33, 0x90, // len = 14, crc = 0x903381c1
        0x01, 0x01, 0x01, 0x00, 0x00, 0x00, 0x58, 0x02, // version, QUERY, shard = 1, lower…
        0x00, 0x00, 0x39, 0x05, 0x00, 0x00, // …lower = 600, upper = 1337
    ];
    assert_eq!(query, expected_query);
    assert_eq!(crc32(&query[8..]), 0x9033_81c1);

    let ping = encode_frame(&Message::Ping);
    assert_eq!(
        ping,
        [0x02, 0x00, 0x00, 0x00, 0xa7, 0xe7, 0xaf, 0x5f, 0x01, 0x04]
    );

    // The header (len = 162, crc = 0xda1999e7) was recorded from the
    // one-table bytewise CRC and the two-buffer encoder.
    let records: Vec<Vec<u8>> = (0..3u8)
        .map(|r| (0..40u8).map(|i| r * 40 + i).collect())
        .collect();
    let slice = encode_frame(&Message::Slice {
        shard: 2,
        record_len: 40,
        epoch: 7,
        records: records.clone(),
        vt: Digest([0xAB; 20]),
    });
    assert_eq!(slice[..8], [0xa2, 0x00, 0x00, 0x00, 0xe7, 0x99, 0x19, 0xda]);
    let mut payload = vec![WIRE_VERSION, 2];
    payload.extend_from_slice(&2u32.to_le_bytes());
    payload.extend_from_slice(&40u32.to_le_bytes());
    payload.extend_from_slice(&3u32.to_le_bytes());
    payload.extend_from_slice(&7u64.to_le_bytes());
    payload.extend_from_slice(&[0xAB; 20]);
    payload.extend_from_slice(&records.concat());
    assert_eq!(slice[8..], payload[..]);
}

proptest! {
    #[test]
    fn every_catalog_message_round_trips(msg in arb_message()) {
        let frame = encode_frame(&msg);
        let decoded = decode_frame(&frame);
        prop_assert!(decoded.is_ok());
        let (decoded, consumed) = decoded.unwrap();
        prop_assert_eq!(consumed, frame.len());
        prop_assert_eq!(decoded, msg);
    }

    #[test]
    fn truncation_at_any_byte_is_typed_never_a_panic(msg in arb_message(), cut in any::<usize>()) {
        let frame = encode_frame(&msg);
        let cut = cut % frame.len(); // strictly shorter than the full frame
        let truncated = matches!(decode_frame(&frame[..cut]), Err(NetError::Truncated { .. }));
        prop_assert!(truncated);
    }

    #[test]
    fn any_single_bit_flip_is_rejected(msg in arb_message(), at in any::<usize>(), bit in 0u8..8) {
        let mut frame = encode_frame(&msg);
        let at = at % frame.len();
        frame[at] ^= 1 << bit;
        // Depending on where the flip landed this is a CRC mismatch, a
        // truncated or oversized length claim — but never an accepted frame
        // and never a panic.
        prop_assert!(decode_frame(&frame).is_err());
    }

    #[test]
    fn oversized_length_claims_are_rejected_before_allocation(extra in 1usize..1_000_000, junk in any::<u32>()) {
        let len = (MAX_FRAME_PAYLOAD + extra) as u32;
        let mut frame = Vec::new();
        frame.extend_from_slice(&len.to_le_bytes());
        frame.extend_from_slice(&junk.to_le_bytes());
        let oversized = matches!(
            decode_frame(&frame),
            Err(NetError::Oversized { len: claimed }) if claimed == len as usize
        );
        prop_assert!(oversized);
    }

    #[test]
    fn foreign_version_bytes_are_typed(msg in arb_message(), version in any::<u8>()) {
        prop_assume!(version != WIRE_VERSION);
        let mut frame = encode_frame(&msg);
        // Rewrite the payload's version byte and re-seal the CRC so the
        // *only* defect is the version — the check the decoder must make
        // first.
        frame[8] = version;
        let crc = crc32(&frame[8..]).to_le_bytes();
        frame[4..8].copy_from_slice(&crc);
        let wrong_version = matches!(
            decode_frame(&frame),
            Err(NetError::WrongVersion { got }) if got == version
        );
        prop_assert!(wrong_version);
    }

    #[test]
    fn arbitrary_garbage_never_panics(bytes in prop::collection::vec(any::<u8>(), 0..64)) {
        if let Ok((_, consumed)) = decode_frame(&bytes) {
            prop_assert!(consumed <= bytes.len());
        }
    }
}
