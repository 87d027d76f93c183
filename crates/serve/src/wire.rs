//! The framed wire codec: [`GossipMessage`] ⇄ bytes, plus the TCP frame
//! envelope the socket transport ships them in.
//!
//! [`encode_message`] produces **exactly**
//! [`GossipMessage::wire_size`] bytes — the byte accounting every gossip
//! metric and `BENCH_gossip.json` trajectory has reported since the
//! protocol landed is now the measured serialization, not a model. The
//! round-trip property suite (`tests/wire_roundtrip.rs`) pins both
//! directions: `decode(encode(m)) == m` and
//! `encode(m).len() == m.wire_size()`.
//!
//! ## Message layout (length = `wire_size`)
//!
//! ```text
//! offset size  field
//! 0      1     tag: 0 Advert · 1 SyncRequest · 2 SyncResponse
//! 1      8     round (u64 LE)
//! 9      4     count (u32 LE): digests (Advert) or records (Sync*)
//! 13     …     body (tag-specific, see below)
//! ```
//!
//! * **Advert** body: `ack_present` (1 B, 0/1) + `ack` (8 B, zero when
//!   absent), then one 16-byte membership digest (u128 LE) per shard.
//! * **SyncRequest** body: `stamp` (8 B) + `diverged_count` (u32 LE) +
//!   one u16 LE per diverged shard + `count` × 17-byte member records.
//! * **SyncResponse** body: `stamp` (8 B) + `count` × 17-byte records.
//! * **Member record** (17 B): server id (u64 LE) + version (u64 LE) +
//!   alive (1 B, 0/1).
//!
//! ## TCP frame envelope ([`FRAME_OVERHEAD`] = 18 bytes)
//!
//! ```text
//! offset size  field
//! 0      1     magic 0xC7
//! 1      1     codec version (2)
//! 2      8     sender replica id (u64 LE) — every frame self-identifies
//! 10     4     payload length (u32 LE), capped at MAX_PAYLOAD
//! 14     4     CRC32 (IEEE) of the payload (u32 LE)
//! 18     …     payload = one encoded message
//! ```
//!
//! Decoding is strict: non-canonical bytes (a 2 in a boolean slot, a
//! non-zero ack value marked absent, trailing garbage) are rejected as
//! [`FrameError`]s rather than silently normalized, so `encode ∘ decode`
//! is the identity on valid frames and a corrupted connection is
//! detected instead of trusted.

use crate::gossip::GossipMessage;
use crate::replication::MemberRecord;
use crate::transport::ReplicaId;
use hdhash_table::ServerId;

/// First byte of every TCP frame; anything else is line noise or a
/// foreign protocol and drops the connection.
pub const FRAME_MAGIC: u8 = 0xC7;
/// Codec version stamped into every frame header. Bumps on any layout
/// change; a mismatch is rejected as [`FrameError::BadVersion`] so mixed
/// deployments fail loudly instead of mis-parsing. Version 2 adverts
/// carry 16-byte membership digests.
pub const WIRE_VERSION: u8 = 2;
/// Bytes the TCP frame envelope adds around one encoded message: magic +
/// version + sender id + length + checksum. Measured socket bytes exceed
/// the `wire_size` accounting by exactly this much per frame.
pub const FRAME_OVERHEAD: usize = 18;
/// Upper bound on one frame's payload (64 MiB). A length field past this
/// is garbage (or hostile) and is rejected before any allocation.
pub const MAX_PAYLOAD: usize = 1 << 26;

const TAG_ADVERT: u8 = 0;
const TAG_SYNC_REQUEST: u8 = 1;
const TAG_SYNC_RESPONSE: u8 = 2;
/// Bytes of the common per-message header every payload starts with:
/// tag (1) + round (8) + element count (4). This is the same 13 bytes
/// the gossip `wire_size` accounting budgets as its frame header.
pub const MESSAGE_HEADER: usize = 13;

/// Why a frame or message failed to decode. Any of these on a live
/// connection means the stream can no longer be trusted frame-aligned;
/// the transport's response is to drop the connection (and let the
/// supervisor reconnect), never to kill the process.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameError {
    /// First byte was not [`FRAME_MAGIC`].
    BadMagic(u8),
    /// The version byte named a codec this build does not speak.
    BadVersion(u8),
    /// The payload length field exceeded [`MAX_PAYLOAD`].
    Oversize(usize),
    /// The CRC32 over the payload did not match the header.
    BadChecksum,
    /// The buffer ended mid-field.
    Truncated,
    /// Unknown message tag.
    BadTag(u8),
    /// Structurally valid but non-canonical payload (boolean byte not
    /// 0/1, absent ack with a non-zero value, an element count past
    /// [`MAX_PAYLOAD`], trailing bytes).
    BadPayload,
}

impl core::fmt::Display for FrameError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            FrameError::BadMagic(b) => write!(f, "bad frame magic 0x{b:02X}"),
            FrameError::BadVersion(v) => write!(f, "unsupported wire version {v}"),
            FrameError::Oversize(n) => write!(f, "frame payload of {n} bytes exceeds cap"),
            FrameError::BadChecksum => write!(f, "frame checksum mismatch"),
            FrameError::Truncated => write!(f, "frame truncated mid-field"),
            FrameError::BadTag(t) => write!(f, "unknown message tag {t}"),
            FrameError::BadPayload => write!(f, "non-canonical message payload"),
        }
    }
}

impl std::error::Error for FrameError {}

/// CRC32 (IEEE 802.3 polynomial, bitwise): the frame checksum. ~1 ns/B
/// is plenty for a control-plane protocol whose largest frames are a few
/// KiB of member records.
#[must_use]
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut crc = 0xFFFF_FFFFu32;
    for &byte in bytes {
        crc ^= u32::from(byte);
        for _ in 0..8 {
            let mask = (crc & 1).wrapping_neg();
            crc = (crc >> 1) ^ (0xEDB8_8320 & mask);
        }
    }
    !crc
}

#[allow(clippy::cast_possible_truncation)]
fn push_u32(out: &mut Vec<u8>, value: usize) {
    out.extend_from_slice(&(value as u32).to_le_bytes());
}

/// Serializes one message to exactly [`GossipMessage::wire_size`] bytes.
///
/// # Panics
///
/// Debug-asserts the produced length against `wire_size` — a divergence
/// is a codec bug, and the release path trusts the property suite.
#[must_use]
pub fn encode_message(message: &GossipMessage) -> Vec<u8> {
    let mut out = Vec::with_capacity(message.wire_size());
    match message {
        GossipMessage::Advert { round, digests, ack } => {
            out.push(TAG_ADVERT);
            out.extend_from_slice(&round.to_le_bytes());
            push_u32(&mut out, digests.len());
            out.push(u8::from(ack.is_some()));
            out.extend_from_slice(&ack.unwrap_or(0).to_le_bytes());
            for digest in digests {
                out.extend_from_slice(&digest.to_le_bytes());
            }
        }
        GossipMessage::SyncRequest { round, stamp, records, diverged } => {
            out.push(TAG_SYNC_REQUEST);
            out.extend_from_slice(&round.to_le_bytes());
            push_u32(&mut out, records.len());
            out.extend_from_slice(&stamp.to_le_bytes());
            push_u32(&mut out, diverged.len());
            for &shard in diverged {
                // Shard counts are small (wire_size budgets 2 bytes);
                // saturate rather than alias on a absurd index.
                let shard = u16::try_from(shard).unwrap_or(u16::MAX);
                out.extend_from_slice(&shard.to_le_bytes());
            }
            for record in records {
                encode_record(&mut out, record);
            }
        }
        GossipMessage::SyncResponse { round, stamp, records } => {
            out.push(TAG_SYNC_RESPONSE);
            out.extend_from_slice(&round.to_le_bytes());
            push_u32(&mut out, records.len());
            out.extend_from_slice(&stamp.to_le_bytes());
            for record in records {
                encode_record(&mut out, record);
            }
        }
    }
    debug_assert_eq!(
        out.len(),
        message.wire_size(),
        "encoded length must equal the wire_size accounting"
    );
    out
}

fn encode_record(out: &mut Vec<u8>, record: &MemberRecord) {
    out.extend_from_slice(&record.server.get().to_le_bytes());
    out.extend_from_slice(&record.version.to_le_bytes());
    out.push(u8::from(record.alive));
}

/// A strict cursor over a message payload.
struct Reader<'a> {
    bytes: &'a [u8],
    at: usize,
}

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], FrameError> {
        let end = self.at.checked_add(n).ok_or(FrameError::Truncated)?;
        let slice = self.bytes.get(self.at..end).ok_or(FrameError::Truncated)?;
        self.at = end;
        Ok(slice)
    }

    fn u8(&mut self) -> Result<u8, FrameError> {
        Ok(self.take(1)?[0])
    }

    fn u16(&mut self) -> Result<u16, FrameError> {
        let b = self.take(2)?;
        Ok(u16::from_le_bytes([b[0], b[1]]))
    }

    fn u32(&mut self) -> Result<u32, FrameError> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    fn u64(&mut self) -> Result<u64, FrameError> {
        let b = self.take(8)?;
        let mut word = [0u8; 8];
        word.copy_from_slice(b);
        Ok(u64::from_le_bytes(word))
    }

    fn u128(&mut self) -> Result<u128, FrameError> {
        let b = self.take(16)?;
        let mut word = [0u8; 16];
        word.copy_from_slice(b);
        Ok(u128::from_le_bytes(word))
    }

    fn boolean(&mut self) -> Result<bool, FrameError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(FrameError::BadPayload),
        }
    }

    fn finish(&self) -> Result<(), FrameError> {
        if self.at == self.bytes.len() {
            Ok(())
        } else {
            Err(FrameError::BadPayload)
        }
    }
}

fn decode_record(r: &mut Reader<'_>) -> Result<MemberRecord, FrameError> {
    let server = ServerId::new(r.u64()?);
    let version = r.u64()?;
    let alive = r.boolean()?;
    Ok(MemberRecord { server, version, alive })
}

/// Parses one message payload produced by [`encode_message`].
///
/// # Errors
///
/// [`FrameError`] on truncation, an unknown tag, or any non-canonical
/// byte (see the module docs on strictness).
pub fn decode_message(bytes: &[u8]) -> Result<GossipMessage, FrameError> {
    let mut r = Reader { bytes, at: 0 };
    let tag = r.u8()?;
    let round = r.u64()?;
    let count = r.u32()? as usize;
    if count > MAX_PAYLOAD {
        return Err(FrameError::BadPayload);
    }
    let message = match tag {
        TAG_ADVERT => {
            let present = r.boolean()?;
            let ack_value = r.u64()?;
            if !present && ack_value != 0 {
                return Err(FrameError::BadPayload);
            }
            let ack = present.then_some(ack_value);
            let mut digests = Vec::with_capacity(count.min(1024));
            for _ in 0..count {
                digests.push(r.u128()?);
            }
            GossipMessage::Advert { round, digests, ack }
        }
        TAG_SYNC_REQUEST => {
            let stamp = r.u64()?;
            let diverged_count = r.u32()? as usize;
            if diverged_count > MAX_PAYLOAD {
                return Err(FrameError::BadPayload);
            }
            let mut diverged = Vec::with_capacity(diverged_count.min(1024));
            for _ in 0..diverged_count {
                diverged.push(r.u16()? as usize);
            }
            let mut records = Vec::with_capacity(count.min(1024));
            for _ in 0..count {
                records.push(decode_record(&mut r)?);
            }
            GossipMessage::SyncRequest { round, stamp, records, diverged }
        }
        TAG_SYNC_RESPONSE => {
            let stamp = r.u64()?;
            let mut records = Vec::with_capacity(count.min(1024));
            for _ in 0..count {
                records.push(decode_record(&mut r)?);
            }
            GossipMessage::SyncResponse { round, stamp, records }
        }
        other => return Err(FrameError::BadTag(other)),
    };
    r.finish()?;
    Ok(message)
}

/// Wraps one encoded message in the TCP frame envelope: header (magic,
/// version, sender, length, CRC32) + payload. The result is what one
/// `write_all` puts on the socket — `message.wire_size() +`
/// [`FRAME_OVERHEAD`] bytes.
#[must_use]
pub fn encode_frame(from: ReplicaId, message: &GossipMessage) -> Vec<u8> {
    let payload = encode_message(message);
    let mut out = Vec::with_capacity(FRAME_OVERHEAD + payload.len());
    out.push(FRAME_MAGIC);
    out.push(WIRE_VERSION);
    out.extend_from_slice(&from.get().to_le_bytes());
    push_u32(&mut out, payload.len());
    out.extend_from_slice(&crc32(&payload).to_le_bytes());
    out.extend_from_slice(&payload);
    out
}

/// A validated frame header: who sent it and what the payload must be.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FrameHeader {
    /// The sender stamped into the frame.
    pub from: ReplicaId,
    /// Payload byte length (`≤` [`MAX_PAYLOAD`]).
    pub len: usize,
    /// Expected CRC32 of the payload.
    pub crc: u32,
}

/// Validates the fixed 18-byte frame header.
///
/// # Errors
///
/// [`FrameError`] on a short buffer, wrong magic/version, or an
/// oversize length claim.
pub fn decode_frame_header(bytes: &[u8; FRAME_OVERHEAD]) -> Result<FrameHeader, FrameError> {
    if bytes[0] != FRAME_MAGIC {
        return Err(FrameError::BadMagic(bytes[0]));
    }
    if bytes[1] != WIRE_VERSION {
        return Err(FrameError::BadVersion(bytes[1]));
    }
    let mut word = [0u8; 8];
    word.copy_from_slice(&bytes[2..10]);
    let from = ReplicaId::new(u64::from_le_bytes(word));
    let len = u32::from_le_bytes([bytes[10], bytes[11], bytes[12], bytes[13]]) as usize;
    if len > MAX_PAYLOAD {
        return Err(FrameError::Oversize(len));
    }
    let crc = u32::from_le_bytes([bytes[14], bytes[15], bytes[16], bytes[17]]);
    Ok(FrameHeader { from, len, crc })
}

/// Verifies a payload against its header's checksum and decodes it.
///
/// # Errors
///
/// [`FrameError::BadChecksum`] on CRC mismatch, else whatever
/// [`decode_message`] rejects.
pub fn decode_frame_payload(
    header: FrameHeader,
    payload: &[u8],
) -> Result<GossipMessage, FrameError> {
    if payload.len() != header.len {
        return Err(FrameError::Truncated);
    }
    if crc32(payload) != header.crc {
        return Err(FrameError::BadChecksum);
    }
    decode_message(payload)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(id: u64, version: u64, alive: bool) -> MemberRecord {
        MemberRecord { server: ServerId::new(id), version, alive }
    }

    #[test]
    fn message_round_trips_and_matches_wire_size() {
        let messages = vec![
            GossipMessage::Advert { round: 0, digests: vec![], ack: None },
            GossipMessage::Advert { round: 7, digests: vec![0, u128::MAX, 1 << 64], ack: Some(42) },
            GossipMessage::SyncRequest {
                round: 3,
                stamp: 11,
                records: vec![record(1, 4, true), record(9, 2, false)],
                diverged: vec![0, 3],
            },
            GossipMessage::SyncResponse {
                round: u64::MAX,
                stamp: 0,
                records: vec![record(u64::MAX, u64::MAX, true)],
            },
        ];
        for message in messages {
            let bytes = encode_message(&message);
            assert_eq!(bytes.len(), message.wire_size(), "{message:?}");
            assert_eq!(decode_message(&bytes).expect("round trip"), message);
        }
    }

    #[test]
    fn frame_round_trips_with_exact_overhead() {
        let message = GossipMessage::Advert { round: 5, digests: vec![0xC0FFEE], ack: Some(3) };
        let from = ReplicaId::new(77);
        let frame = encode_frame(from, &message);
        assert_eq!(frame.len(), message.wire_size() + FRAME_OVERHEAD);
        let mut header = [0u8; FRAME_OVERHEAD];
        header.copy_from_slice(&frame[..FRAME_OVERHEAD]);
        let header = decode_frame_header(&header).expect("valid header");
        assert_eq!(header.from, from);
        assert_eq!(header.len, message.wire_size());
        let decoded =
            decode_frame_payload(header, &frame[FRAME_OVERHEAD..]).expect("valid payload");
        assert_eq!(decoded, message);
    }

    #[test]
    fn corrupt_frames_are_rejected_not_normalized() {
        let message =
            GossipMessage::SyncResponse { round: 1, stamp: 2, records: vec![record(3, 4, true)] };
        let frame = encode_frame(ReplicaId::new(1), &message);
        let header = |bytes: &[u8]| {
            let mut h = [0u8; FRAME_OVERHEAD];
            h.copy_from_slice(&bytes[..FRAME_OVERHEAD]);
            decode_frame_header(&h)
        };
        // Magic.
        let mut bad = frame.clone();
        bad[0] = 0x00;
        assert_eq!(header(&bad), Err(FrameError::BadMagic(0)));
        // Version.
        let mut bad = frame.clone();
        bad[1] = 9;
        assert_eq!(header(&bad), Err(FrameError::BadVersion(9)));
        // Oversize length claim.
        let mut bad = frame.clone();
        bad[10..14].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(header(&bad), Err(FrameError::Oversize(_))));
        // Flipped payload bit fails the checksum.
        let mut bad = frame.clone();
        *bad.last_mut().expect("payload") ^= 0x40;
        let h = header(&bad).expect("header untouched");
        assert_eq!(decode_frame_payload(h, &bad[FRAME_OVERHEAD..]), Err(FrameError::BadChecksum));
        // Truncated payload.
        let h = header(&frame).expect("header");
        assert_eq!(
            decode_frame_payload(h, &frame[FRAME_OVERHEAD..frame.len() - 1]),
            Err(FrameError::Truncated)
        );
    }

    #[test]
    fn non_canonical_payloads_are_rejected() {
        // Boolean slot holding a 2 (alive byte).
        let message =
            GossipMessage::SyncResponse { round: 1, stamp: 2, records: vec![record(3, 4, true)] };
        let mut bytes = encode_message(&message);
        *bytes.last_mut().expect("alive byte") = 2;
        assert_eq!(decode_message(&bytes), Err(FrameError::BadPayload));
        // Absent ack with a non-zero value.
        let advert = GossipMessage::Advert { round: 1, digests: vec![5], ack: None };
        let mut bytes = encode_message(&advert);
        bytes[MESSAGE_HEADER + 1] = 0xFF;
        assert_eq!(decode_message(&bytes), Err(FrameError::BadPayload));
        // Trailing garbage.
        let mut bytes = encode_message(&advert);
        bytes.push(0);
        assert_eq!(decode_message(&bytes), Err(FrameError::BadPayload));
        // Unknown tag.
        let mut bytes = encode_message(&advert);
        bytes[0] = 9;
        assert_eq!(decode_message(&bytes), Err(FrameError::BadTag(9)));
        // Truncation mid-record.
        let bytes = encode_message(&message);
        assert_eq!(decode_message(&bytes[..bytes.len() - 3]), Err(FrameError::Truncated));
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // IEEE 802.3 test vectors.
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b"The quick brown fox jumps over the lazy dog"), 0x414F_A339);
    }
}
