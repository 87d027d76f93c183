//! Property suite for the framed wire codec: for arbitrary
//! [`GossipMessage`]s, `decode(encode(m)) == m` (lossless round trip)
//! and `encode(m).len() == m.wire_size()` — the PR 4 byte accounting,
//! which every bytes-on-wire metric and bench trusts, pinned to real
//! serialized frames rather than arithmetic. The full TCP frame is also
//! covered: `encode_frame` adds exactly [`FRAME_OVERHEAD`] bytes, and
//! any single-byte corruption of a frame is rejected by the decoder.

use hdhash_serve::gossip::GossipMessage;
use hdhash_serve::replication::MemberRecord;
use hdhash_serve::transport::ReplicaId;
use hdhash_serve::wire::{
    self, decode_frame_header, decode_frame_payload, decode_message, encode_frame,
    encode_message, FRAME_OVERHEAD,
};
use hdhash_table::ServerId;
use proptest::prelude::*;

/// Digests whose high and low halves vary independently, so the
/// codec's byte order is pinned in both.
fn digest() -> impl Strategy<Value = u128> {
    (any::<u64>(), any::<u64>()).prop_map(|(high, low)| (u128::from(high) << 64) | u128::from(low))
}

fn records() -> impl Strategy<Value = Vec<MemberRecord>> {
    prop::collection::vec(
        (any::<u64>(), any::<u64>(), any::<bool>()).prop_map(|(id, version, alive)| {
            MemberRecord { server: ServerId::new(id), version, alive }
        }),
        0..8,
    )
}

fn messages() -> impl Strategy<Value = GossipMessage> {
    (
        any::<u64>(),
        any::<u64>(),
        any::<bool>(),
        any::<u64>(),
        digest(),
        records(),
        0u8..3,
    )
        .prop_map(|(round, stamp, has_ack, ack, digest, records, kind)| match kind {
            0 => GossipMessage::Advert { round, digest, ack: has_ack.then_some(ack) },
            1 => GossipMessage::SyncRequest { round, stamp, records },
            _ => GossipMessage::SyncResponse { round, stamp, records },
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// decode(encode(m)) == m — the codec loses nothing, for every
    /// message kind and optional-field combination.
    #[test]
    fn message_round_trip_is_lossless(message in messages()) {
        let bytes = encode_message(&message);
        let decoded = decode_message(&bytes).expect("own encoding decodes");
        prop_assert_eq!(decoded, message);
    }

    /// encode(m).len() == m.wire_size() — serialized frames match the
    /// computed byte accounting exactly, so "bytes gossiped" metrics
    /// measured in-process and on real sockets describe the same cost.
    #[test]
    fn encoded_length_equals_wire_size(message in messages()) {
        prop_assert_eq!(encode_message(&message).len(), message.wire_size());
    }

    /// The TCP envelope adds exactly FRAME_OVERHEAD bytes and round-trips
    /// through the split header/payload decode path the reader threads use.
    #[test]
    fn frame_round_trip_adds_exact_overhead(message in messages(), from in any::<u64>()) {
        let from = ReplicaId::new(from);
        let frame = encode_frame(from, &message);
        prop_assert_eq!(frame.len(), message.wire_size() + FRAME_OVERHEAD);
        let mut header = [0u8; FRAME_OVERHEAD];
        header.copy_from_slice(&frame[..FRAME_OVERHEAD]);
        let parsed = decode_frame_header(&header).expect("own header decodes");
        prop_assert_eq!(parsed.from, from);
        prop_assert_eq!(parsed.len, message.wire_size());
        let decoded =
            decode_frame_payload(parsed, &frame[FRAME_OVERHEAD..]).expect("own payload decodes");
        prop_assert_eq!(decoded, message);
    }

    /// Flipping any single byte of a frame is caught: by header
    /// validation (magic/version/length) or by the CRC32 over the
    /// payload. No corrupted frame decodes silently.
    #[test]
    fn any_single_byte_corruption_is_rejected(
        message in messages(),
        at_sel in any::<u64>(),
        flip in 1u8..=255,
    ) {
        let frame = encode_frame(ReplicaId::new(7), &message);
        let at = (at_sel % frame.len() as u64) as usize;
        // The sender-id field (bytes 2..10) is not covered by the CRC —
        // corrupting it mis-attributes but cannot mis-parse; skip it.
        if (2..10).contains(&at) {
            return Ok(());
        }
        let mut corrupted = frame.clone();
        corrupted[at] ^= flip;
        let mut header = [0u8; FRAME_OVERHEAD];
        header.copy_from_slice(&corrupted[..FRAME_OVERHEAD]);
        let outcome = decode_frame_header(&header)
            .and_then(|parsed| {
                // A corrupted length field changes how many payload bytes
                // the reader would consume; feed it what the (corrupted)
                // header claims, bounded by what exists.
                let payload = &corrupted[FRAME_OVERHEAD..];
                if parsed.len != payload.len() {
                    return Err(wire::FrameError::Truncated);
                }
                decode_frame_payload(parsed, payload)
            });
        prop_assert!(outcome.is_err(), "corruption at byte {} went undetected", at);
    }
}
