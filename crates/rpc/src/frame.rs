//! The length-prefixed binary wire protocol between PS and workers.
//!
//! Every message is one frame (little-endian):
//!
//! ```text
//! magic   "MAMDRRPC1"            9 bytes
//! version u8   (= WIRE_VERSION)  op-codes are versioned by this byte
//! opcode  u8
//! flags   u8
//! seq     u64                    request id, echoed by the response
//! len     u32                    payload length, <= MAX_PAYLOAD
//! payload len bytes
//! crc     u64                    FNV-1a over version..payload (not magic)
//! ```
//!
//! Design points:
//!
//! * **Checksummed.** The trailing FNV-1a digest covers the header (after
//!   the magic) and the payload, so a flipped bit anywhere in a frame is a
//!   typed [`FrameError::Checksum`] — never a silently corrupted update.
//! * **Length-capped.** `len` is validated against [`MAX_PAYLOAD`] *before*
//!   any payload allocation; attacker-controlled declared lengths cannot
//!   make the decoder over-allocate.
//! * **Zero-copy f32 sections.** Row payloads move through
//!   [`mamdr_util::write_f32_section`] / [`read_f32_into`], which on
//!   little-endian hosts write and read the f32 memory block directly.
//! * **Sequence-numbered.** `seq` pairs responses with requests (a client
//!   discards stale responses after a retry) and makes pushes idempotent:
//!   the server applies each `(client, seq)` push at most once.

use mamdr_obs::Tracer;
use mamdr_ps::ParamKey;
use mamdr_util::sealed::{Cursor, SealError};
use mamdr_util::Checksum;
use std::io::{Read, Write};

/// The 9-byte frame magic.
pub const MAGIC: &[u8; 9] = b"MAMDRRPC1";

/// Wire-protocol version. Bumped whenever op-codes or payload layouts
/// change; a server rejects frames from a different version with a typed
/// error instead of misparsing them. Version 2 added the vectorized
/// `PullMany`/`PushMany` family (multi-row payloads, one frame per key
/// batch instead of one per key); version 3 retired the single-row
/// `Pull`/`Push` op-codes (bytes 1–4), so one row travels as a 1-row batch.
pub const WIRE_VERSION: u8 = 3;

/// Hard cap on a frame's declared payload length (16 MiB). Validated
/// before allocation: a malicious or corrupt length field cannot force an
/// absurd allocation.
pub const MAX_PAYLOAD: u32 = 16 << 20;

/// Bytes of framing around the payload: 9 magic + 1 version + 1 opcode +
/// 1 flags + 8 seq + 4 len + 8 crc.
pub const FRAME_OVERHEAD: usize = 32;

/// `PullMany` flag: respond with the rows' versions only (no value
/// section, no traffic accounting server-side) — used by staleness probes.
pub const FLAG_VERSION_ONLY: u8 = 0b0000_0001;

/// Trace flag: the payload is prefixed by a [`TraceContext`] extension
/// ([`TRACE_EXT_LEN`] bytes) carrying the sender's trace/span ids, so a
/// server-side span can parent to the worker-side span that caused it.
/// The extension is stripped (and the flag cleared) by
/// [`Frame::take_trace_context`] before any payload codec runs; frames
/// without the flag are byte-identical to the untraced protocol.
pub const FLAG_TRACE: u8 = 0b0000_0010;

/// Version byte of the trace-context extension (independent of
/// [`WIRE_VERSION`] so the extension can evolve without a protocol bump).
pub const TRACE_EXT_VERSION: u8 = 1;

/// Encoded size of the trace-context extension: 1 version + 8 trace id +
/// 8 span id.
pub const TRACE_EXT_LEN: usize = 17;

/// The trace identity a traced request carries across the wire: which
/// trace the request belongs to and which sender-side span is the logical
/// parent of all server-side work it causes. Retries re-send the *same*
/// context (the logical span's), so deduplicated and retried attempts all
/// land under one logical span in the trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceContext {
    /// Trace id shared by every causally related span.
    pub trace_id: u64,
    /// The sender-side logical span the receiver parents to.
    pub span_id: u64,
}

impl TraceContext {
    /// Encodes the extension (version byte + ids, little-endian).
    pub fn encode(&self) -> [u8; TRACE_EXT_LEN] {
        let mut out = [0u8; TRACE_EXT_LEN];
        out[0] = TRACE_EXT_VERSION;
        out[1..9].copy_from_slice(&self.trace_id.to_le_bytes());
        out[9..17].copy_from_slice(&self.span_id.to_le_bytes());
        out
    }

    /// Decodes the extension, rejecting unknown extension versions.
    pub fn decode(bytes: &[u8]) -> Result<Self, FrameError> {
        decode_all(bytes, |c| {
            let version = c.u8()?;
            if version != TRACE_EXT_VERSION {
                return Err(FrameError::Malformed(format!(
                    "unknown trace extension version {version}"
                )));
            }
            Ok(TraceContext { trace_id: c.u64()?, span_id: c.u64()? })
        })
    }
}

/// Operation codes of wire version 3. Bytes 1–4 belonged to the retired
/// single-row `Pull`/`Push` pair and decode as [`FrameError::UnknownOpcode`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum OpCode {
    /// Worker → PS: block until every worker reached this round boundary.
    BarrierSync = 5,
    /// PS → worker: barrier released.
    BarrierOk = 6,
    /// Worker → PS: snapshot the store to the server's checkpoint dir.
    Checkpoint = 7,
    /// PS → worker: checkpoint written (payload carries the path).
    CheckpointOk = 8,
    /// Driver → PS: begin graceful drain.
    Shutdown = 9,
    /// PS → driver: drain acknowledged.
    ShutdownOk = 10,
    /// PS → worker: request-level failure (message payload).
    Error = 11,
    /// Worker → PS: read many rows in one frame (optionally version-only).
    PullMany = 12,
    /// PS → worker: versions + concatenated values for a `PullMany`.
    PullManyOk = 13,
    /// Worker → PS: apply many outer-gradient rows atomically (one seq
    /// dedups the whole batch).
    PushMany = 14,
    /// PS → worker: batch push acknowledged (applied or deduplicated).
    PushManyOk = 15,
}

impl OpCode {
    /// Every op-code of the current wire version, in byte order. This is
    /// the single table both wire directions share: encode casts the
    /// variant (`as u8`), decode scans this table — adding a variant here
    /// makes it decodable, and a variant missing from the table fails the
    /// exhaustive roundtrip test, so the two directions cannot drift.
    pub const ALL: [OpCode; 11] = [
        OpCode::BarrierSync,
        OpCode::BarrierOk,
        OpCode::Checkpoint,
        OpCode::CheckpointOk,
        OpCode::Shutdown,
        OpCode::ShutdownOk,
        OpCode::Error,
        OpCode::PullMany,
        OpCode::PullManyOk,
        OpCode::PushMany,
        OpCode::PushManyOk,
    ];

    /// Decodes an op-code byte of the current wire version by table
    /// lookup — the inverse of `op as u8`.
    pub fn from_byte(b: u8) -> Result<Self, FrameError> {
        OpCode::ALL.iter().copied().find(|op| *op as u8 == b).ok_or(FrameError::UnknownOpcode(b))
    }
}

/// A decode/transport error. Every way untrusted bytes can be malformed
/// maps to a typed variant — the decoder never panics.
#[derive(Debug)]
pub enum FrameError {
    /// Underlying I/O failure (includes truncation mid-frame).
    Io(std::io::Error),
    /// The stream does not start with [`MAGIC`].
    BadMagic([u8; 9]),
    /// The frame's version byte is not [`WIRE_VERSION`].
    UnsupportedVersion(u8),
    /// The op-code byte is not defined in this wire version.
    UnknownOpcode(u8),
    /// The declared payload length exceeds [`MAX_PAYLOAD`].
    TooLarge(u32),
    /// The FNV-1a digest does not match the received bytes.
    Checksum { stored: u64, computed: u64 },
    /// A payload body is shorter/longer than its op-code requires.
    Malformed(String),
}

impl From<std::io::Error> for FrameError {
    fn from(e: std::io::Error) -> Self {
        FrameError::Io(e)
    }
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::Io(e) => write!(f, "I/O error: {e}"),
            FrameError::BadMagic(m) => write!(f, "bad frame magic {m:?}"),
            FrameError::UnsupportedVersion(v) => write!(f, "unsupported wire version {v}"),
            FrameError::UnknownOpcode(b) => write!(f, "unknown op-code {b}"),
            FrameError::TooLarge(n) => {
                write!(f, "declared payload length {n} exceeds cap {MAX_PAYLOAD}")
            }
            FrameError::Checksum { stored, computed } => {
                write!(
                    f,
                    "frame checksum mismatch: stored {stored:#018x}, computed {computed:#018x}"
                )
            }
            FrameError::Malformed(m) => write!(f, "malformed payload: {m}"),
        }
    }
}

impl std::error::Error for FrameError {}

/// One wire frame.
#[derive(Debug, Clone, PartialEq)]
pub struct Frame {
    /// Operation code.
    pub opcode: OpCode,
    /// Op-specific flags (e.g. [`FLAG_VERSION_ONLY`]).
    pub flags: u8,
    /// Request id; responses echo the request's `seq`.
    pub seq: u64,
    /// Op-specific payload.
    pub payload: Vec<u8>,
}

impl Frame {
    /// A frame with no flags.
    pub fn new(opcode: OpCode, seq: u64, payload: Vec<u8>) -> Self {
        Frame { opcode, flags: 0, seq, payload }
    }

    /// Prepends a trace-context extension to the payload and sets
    /// [`FLAG_TRACE`]. The inverse of [`Frame::take_trace_context`].
    pub fn with_trace_context(mut self, ctx: TraceContext) -> Self {
        let mut payload = Vec::with_capacity(TRACE_EXT_LEN + self.payload.len());
        payload.extend_from_slice(&ctx.encode());
        payload.append(&mut self.payload);
        self.payload = payload;
        self.flags |= FLAG_TRACE;
        self
    }

    /// Splits the trace-context extension off the payload when
    /// [`FLAG_TRACE`] is set, clearing the flag — afterwards the frame is
    /// byte-equivalent to its untraced form, so payload codecs and
    /// traffic accounting see identical bytes with tracing on or off.
    pub fn take_trace_context(&mut self) -> Result<Option<TraceContext>, FrameError> {
        if self.flags & FLAG_TRACE == 0 {
            return Ok(None);
        }
        if self.payload.len() < TRACE_EXT_LEN {
            return Err(FrameError::Malformed(format!(
                "FLAG_TRACE set but payload has only {} bytes",
                self.payload.len()
            )));
        }
        let ctx = TraceContext::decode(&self.payload[..TRACE_EXT_LEN])?;
        self.payload.drain(..TRACE_EXT_LEN);
        self.flags &= !FLAG_TRACE;
        Ok(Some(ctx))
    }

    /// Total encoded size in bytes.
    pub fn wire_len(&self) -> usize {
        FRAME_OVERHEAD + self.payload.len()
    }

    /// Encodes the frame into `w`.
    pub fn encode(&self, mut w: impl Write) -> Result<(), FrameError> {
        if self.payload.len() > MAX_PAYLOAD as usize {
            return Err(FrameError::TooLarge(self.payload.len() as u32));
        }
        let mut head = [0u8; 15];
        head[0] = WIRE_VERSION;
        head[1] = self.opcode as u8;
        head[2] = self.flags;
        head[3..11].copy_from_slice(&self.seq.to_le_bytes());
        head[11..15].copy_from_slice(&(self.payload.len() as u32).to_le_bytes());
        let mut crc = Checksum::new();
        crc.update(&head);
        crc.update(&self.payload);
        w.write_all(MAGIC)?;
        w.write_all(&head)?;
        w.write_all(&self.payload)?;
        w.write_all(&crc.digest().to_le_bytes())?;
        Ok(())
    }

    /// Encodes into a fresh buffer.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut buf = Vec::with_capacity(self.wire_len());
        self.encode(&mut buf).expect("Vec write is infallible");
        buf
    }

    /// Decodes one frame from `r`.
    ///
    /// Validation order matters for robustness against untrusted bytes:
    /// magic, version and the length cap are all checked *before* the
    /// payload allocation, and the checksum is verified before the frame is
    /// handed to any payload parser.
    pub fn decode(mut r: impl Read) -> Result<Self, FrameError> {
        Self::read_magic(&mut r)?;
        Self::decode_after_magic(&mut r)
    }

    /// Like [`Frame::decode`], but also reports how long decoding took
    /// *after* the frame's first bytes arrived — i.e. header parsing,
    /// payload read, checksum verification — excluding the (potentially
    /// long) wait for the peer to start sending. This is the number the
    /// wire-overhead attribution wants: deserialization cost, not
    /// request/response latency.
    pub fn decode_timed(mut r: impl Read) -> Result<(Self, std::time::Duration), FrameError> {
        Self::read_magic(&mut r)?;
        let start = std::time::Instant::now();
        let frame = Self::decode_after_magic(&mut r)?;
        Ok((frame, start.elapsed()))
    }

    /// Encodes into a fresh buffer, recording the encode time as the
    /// `wire.encode` phase when a tracer is attached — the bytes are the
    /// same either way.
    pub fn to_bytes_traced(&self, tracer: Option<&Tracer>) -> Vec<u8> {
        let t0 = std::time::Instant::now();
        let buf = self.to_bytes();
        if let Some(t) = tracer {
            t.record_phase("wire.encode", t0.elapsed());
        }
        buf
    }

    /// [`Frame::decode_timed`], recording the measured time as the
    /// `wire.decode` phase when a tracer is attached. Both connection
    /// sides read every frame through this one call.
    pub fn decode_traced(r: impl Read, tracer: Option<&Tracer>) -> Result<Self, FrameError> {
        let (frame, took) = Self::decode_timed(r)?;
        if let Some(t) = tracer {
            t.record_phase("wire.decode", took);
        }
        Ok(frame)
    }

    fn read_magic(r: &mut impl Read) -> Result<(), FrameError> {
        let mut magic = [0u8; 9];
        r.read_exact(&mut magic)?;
        if &magic != MAGIC {
            return Err(FrameError::BadMagic(magic));
        }
        Ok(())
    }

    fn decode_after_magic(r: &mut impl Read) -> Result<Self, FrameError> {
        let mut head = [0u8; 15];
        r.read_exact(&mut head)?;
        if head[0] != WIRE_VERSION {
            return Err(FrameError::UnsupportedVersion(head[0]));
        }
        let opcode_byte = head[1];
        let flags = head[2];
        let seq = u64::from_le_bytes(head[3..11].try_into().expect("8 bytes"));
        let len = u32::from_le_bytes(head[11..15].try_into().expect("4 bytes"));
        if len > MAX_PAYLOAD {
            return Err(FrameError::TooLarge(len));
        }
        let mut payload = vec![0u8; len as usize];
        r.read_exact(&mut payload)?;
        let mut crc_bytes = [0u8; 8];
        r.read_exact(&mut crc_bytes)?;
        let stored = u64::from_le_bytes(crc_bytes);
        let mut crc = Checksum::new();
        crc.update(&head);
        crc.update(&payload);
        let computed = crc.digest();
        if stored != computed {
            return Err(FrameError::Checksum { stored, computed });
        }
        // The op-code is validated *after* the checksum so corruption inside
        // the opcode byte reports as corruption, not as a protocol gap.
        let opcode = OpCode::from_byte(opcode_byte)?;
        Ok(Frame { opcode, flags, seq, payload })
    }
}

// ---------------------------------------------------------------------------
// Payload codecs. Every decoder reads through the workspace's one
// bounds-checked byte reader, `mamdr_util::sealed::Cursor`, and must consume
// the payload exactly.
// ---------------------------------------------------------------------------

/// The one place a reader error becomes a wire error: a payload too short
/// for its op-code, or one with bytes left over, is malformed.
impl From<SealError> for FrameError {
    fn from(e: SealError) -> Self {
        FrameError::Malformed(match e {
            SealError::Corrupt(m) => m,
            SealError::Io(e) => e.to_string(),
        })
    }
}

/// Decodes a whole payload with `read`, rejecting trailing bytes.
fn decode_all<T>(
    payload: &[u8],
    read: impl FnOnce(&mut Cursor<'_>) -> Result<T, FrameError>,
) -> Result<T, FrameError> {
    let mut cur = Cursor::new(payload);
    let value = read(&mut cur)?;
    cur.finish()?;
    Ok(value)
}

/// Reads a `u32` count of `width`-byte items and checks it against the
/// remaining payload, so a forged count fails before anything is
/// allocated for it.
fn read_count(cur: &mut Cursor<'_>, width: usize, what: &str) -> Result<usize, FrameError> {
    let n = cur.u32()? as usize;
    if n.saturating_mul(width) > cur.remaining() {
        return Err(FrameError::Malformed(format!(
            "{n} {what} declared, {} bytes left",
            cur.remaining()
        )));
    }
    Ok(n)
}

/// Reads a `u32`-counted f32 section.
fn read_counted_f32s(cur: &mut Cursor<'_>) -> Result<Vec<f32>, FrameError> {
    let n = read_count(cur, 4, "f32s")?;
    Ok(cur.f32s(n)?)
}

fn write_counted_f32s(out: &mut Vec<u8>, values: &[f32]) {
    out.extend_from_slice(&(values.len() as u32).to_le_bytes());
    mamdr_util::write_f32_section(&mut *out, values).expect("Vec write is infallible");
}

/// `PushManyOk` response payload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PushResp {
    /// False when the push was recognized as a duplicate and skipped —
    /// the retry saw its original already applied.
    pub applied: bool,
}

impl PushResp {
    /// Encodes into a payload buffer.
    pub fn encode(&self) -> Vec<u8> {
        vec![self.applied as u8]
    }

    /// Decodes from a payload buffer.
    pub fn decode(r: &[u8]) -> Result<Self, FrameError> {
        decode_all(r, |c| Ok(PushResp { applied: c.u8()? != 0 }))
    }
}

/// `BarrierSync` request payload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BarrierReq {
    /// The worker arriving at the barrier (dedup: a retried arrival does
    /// not count twice).
    pub client_id: u32,
    /// The round boundary being synchronized.
    pub round: u64,
    /// Number of distinct workers that must arrive before release.
    pub expected: u32,
}

impl BarrierReq {
    /// Encodes into a payload buffer.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(16);
        out.extend_from_slice(&self.client_id.to_le_bytes());
        out.extend_from_slice(&self.round.to_le_bytes());
        out.extend_from_slice(&self.expected.to_le_bytes());
        out
    }

    /// Decodes from a payload buffer.
    pub fn decode(r: &[u8]) -> Result<Self, FrameError> {
        decode_all(r, |c| {
            Ok(BarrierReq { client_id: c.u32()?, round: c.u64()?, expected: c.u32()? })
        })
    }
}

/// `Checkpoint` request payload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CheckpointReq {
    /// Round label baked into the checkpoint filename.
    pub round: u64,
}

impl CheckpointReq {
    /// Encodes into a payload buffer.
    pub fn encode(&self) -> Vec<u8> {
        self.round.to_le_bytes().to_vec()
    }

    /// Decodes from a payload buffer.
    pub fn decode(r: &[u8]) -> Result<Self, FrameError> {
        decode_all(r, |c| Ok(CheckpointReq { round: c.u64()? }))
    }
}

/// Reads a `u32`-counted key section (table/row pairs).
fn read_counted_keys(cur: &mut Cursor<'_>) -> Result<Vec<ParamKey>, FrameError> {
    let n = read_count(cur, 8, "keys")?;
    let mut keys = Vec::with_capacity(n);
    for _ in 0..n {
        keys.push(ParamKey::new(cur.u32()?, cur.u32()?));
    }
    Ok(keys)
}

fn write_counted_keys(out: &mut Vec<u8>, keys: &[ParamKey]) {
    out.extend_from_slice(&(keys.len() as u32).to_le_bytes());
    for key in keys {
        out.extend_from_slice(&key.table.to_le_bytes());
        out.extend_from_slice(&key.row.to_le_bytes());
    }
}

/// `PullMany` request payload: a key-sorted batch of rows to read in one
/// round trip. [`FLAG_VERSION_ONLY`] turns the whole batch into a silent
/// version probe (no value section in the response, no traffic
/// accounting server-side).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PullManyReq {
    /// The rows to read, sorted by `(table, row)` by the caller.
    pub keys: Vec<ParamKey>,
}

impl PullManyReq {
    /// Encodes into a payload buffer.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(4 + 8 * self.keys.len());
        write_counted_keys(&mut out, &self.keys);
        out
    }

    /// Decodes from a payload buffer.
    pub fn decode(r: &[u8]) -> Result<Self, FrameError> {
        decode_all(r, |c| Ok(PullManyReq { keys: read_counted_keys(c)? }))
    }
}

/// `PullManyOk` response payload: per-key versions in request order, plus
/// one contiguous f32 section holding every row's values back to back
/// (empty for a version-only probe) — a single zero-copy block on
/// little-endian hosts, not one length-prefixed vector per row.
#[derive(Debug, Clone, PartialEq)]
pub struct PullManyResp {
    /// Per-key push versions, in request-key order.
    pub versions: Vec<u64>,
    /// Concatenated row values in request-key order; the row width is
    /// `values.len() / versions.len()`. Empty for version-only probes.
    pub values: Vec<f32>,
}

impl PullManyResp {
    /// Encodes into a payload buffer.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(8 + 8 * self.versions.len() + 4 * self.values.len());
        out.extend_from_slice(&(self.versions.len() as u32).to_le_bytes());
        for v in &self.versions {
            out.extend_from_slice(&v.to_le_bytes());
        }
        write_counted_f32s(&mut out, &self.values);
        out
    }

    /// Decodes from a payload buffer, rejecting value sections that are
    /// not an exact multiple of the key count.
    pub fn decode(r: &[u8]) -> Result<Self, FrameError> {
        let (versions, values) = decode_all(r, |c| {
            let n = read_count(c, 8, "versions")?;
            let mut versions = Vec::with_capacity(n);
            for _ in 0..n {
                versions.push(c.u64()?);
            }
            Ok((versions, read_counted_f32s(c)?))
        })?;
        // Empty values with rows present is the version-only probe shape;
        // otherwise the value section must divide evenly across the rows.
        let n = versions.len();
        if values.is_empty() || (n > 0 && values.len() % n == 0) {
            return Ok(PullManyResp { versions, values });
        }
        Err(FrameError::Malformed(format!("{} values do not divide across {n} rows", values.len())))
    }
}

/// `PushMany` request payload: a key-sorted batch of outer-gradient row
/// updates applied atomically under one `(client, seq)` — a retry of the
/// frame dedups the whole batch, so pipelined pushes are exactly-once.
#[derive(Debug, Clone, PartialEq)]
pub struct PushManyReq {
    /// The pushing worker (dedup namespace for `seq`).
    pub client_id: u32,
    /// Server-side Adagrad learning rate (shared by every row).
    pub lr: f32,
    /// The rows to update, sorted by `(table, row)` by the caller.
    pub keys: Vec<ParamKey>,
    /// Concatenated outer gradients (Θ̃ − Θ) in key order; the row width
    /// is `grads.len() / keys.len()`.
    pub grads: Vec<f32>,
}

impl PushManyReq {
    /// Encodes into a payload buffer.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(16 + 8 * self.keys.len() + 4 * self.grads.len());
        out.extend_from_slice(&self.client_id.to_le_bytes());
        out.extend_from_slice(&self.lr.to_le_bytes());
        write_counted_keys(&mut out, &self.keys);
        write_counted_f32s(&mut out, &self.grads);
        out
    }

    /// Decodes from a payload buffer, rejecting gradient sections that are
    /// not an exact multiple of the key count.
    pub fn decode(r: &[u8]) -> Result<Self, FrameError> {
        let push = decode_all(r, |c| {
            Ok(PushManyReq {
                client_id: c.u32()?,
                lr: c.f32()?,
                keys: read_counted_keys(c)?,
                grads: read_counted_f32s(c)?,
            })
        })?;
        if push.keys.is_empty() || push.grads.is_empty() || push.grads.len() % push.keys.len() != 0
        {
            return Err(FrameError::Malformed(format!(
                "{} gradient values do not divide across {} rows",
                push.grads.len(),
                push.keys.len()
            )));
        }
        Ok(push)
    }
}

/// Encodes an `Error` frame's message payload.
pub fn encode_error(msg: &str) -> Vec<u8> {
    msg.as_bytes().to_vec()
}

/// Decodes an `Error` frame's message payload.
pub fn decode_error(payload: &[u8]) -> String {
    String::from_utf8_lossy(payload).into_owned()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(frame: &Frame) -> Frame {
        Frame::decode(frame.to_bytes().as_slice()).unwrap()
    }

    #[test]
    fn frame_roundtrips_bit_exactly() {
        let frame = Frame::new(OpCode::PushMany, 42, vec![1, 2, 3, 255, 0]);
        assert_eq!(roundtrip(&frame), frame);
        let empty = Frame { opcode: OpCode::Shutdown, flags: 3, seq: u64::MAX, payload: vec![] };
        assert_eq!(roundtrip(&empty), empty);
    }

    #[test]
    fn every_flipped_bit_is_detected() {
        let payload = PullManyReq { keys: vec![ParamKey::new(1, 9)] }.encode();
        let buf = Frame::new(OpCode::PullMany, 7, payload).to_bytes();
        for pos in 0..buf.len() {
            let mut bad = buf.clone();
            bad[pos] ^= 0x10;
            assert!(Frame::decode(bad.as_slice()).is_err(), "flip at byte {pos} went undetected");
        }
    }

    #[test]
    fn truncation_is_an_io_error() {
        let buf = Frame::new(OpCode::PullMany, 1, vec![0u8; 16]).to_bytes();
        for keep in 0..buf.len() {
            let err = Frame::decode(&buf[..keep]).unwrap_err();
            assert!(
                matches!(err, FrameError::Io(_) | FrameError::BadMagic(_)),
                "keep={keep}: {err:?}"
            );
        }
    }

    #[test]
    fn absurd_declared_length_is_rejected_before_allocation() {
        // Hand-build a header declaring a payload over the cap.
        let mut buf = Vec::new();
        buf.extend_from_slice(MAGIC);
        let mut head = [0u8; 15];
        head[0] = WIRE_VERSION;
        head[1] = OpCode::PullMany as u8;
        head[11..15].copy_from_slice(&u32::MAX.to_le_bytes());
        buf.extend_from_slice(&head);
        assert!(matches!(Frame::decode(buf.as_slice()), Err(FrameError::TooLarge(_))));
    }

    #[test]
    fn wrong_version_and_opcode_are_typed_errors() {
        // A frame from the retired v1 protocol is rejected up front.
        // Frames from the retired v1 and v2 protocols are rejected up front.
        for old in [1u8, 2] {
            let mut buf = Frame::new(OpCode::PullMany, 1, vec![]).to_bytes();
            buf[9] = old; // version byte
            assert!(matches!(
                Frame::decode(buf.as_slice()),
                Err(FrameError::UnsupportedVersion(v)) if v == old
            ));
        }

        // A valid checksum over an unknown op-code byte — including the
        // retired single-row `Pull`/`PullOk`/`Push`/`PushOk` bytes 1–4.
        for bad in [1u8, 2, 3, 4, 200] {
            let mut buf = Frame::new(OpCode::PullMany, 1, vec![]).to_bytes();
            buf[10] = bad;
            let mut crc = Checksum::new();
            crc.update(&buf[9..buf.len() - 8]);
            let crc = crc.digest().to_le_bytes();
            let n = buf.len();
            buf[n - 8..].copy_from_slice(&crc);
            assert!(matches!(
                Frame::decode(buf.as_slice()),
                Err(FrameError::UnknownOpcode(b)) if b == bad
            ));
        }
    }

    #[test]
    fn payload_codecs_roundtrip() {
        let bar = BarrierReq { client_id: 1, round: 9, expected: 4 };
        assert_eq!(BarrierReq::decode(&bar.encode()).unwrap(), bar);
        let ck = CheckpointReq { round: 3 };
        assert_eq!(CheckpointReq::decode(&ck.encode()).unwrap(), ck);
        assert!(PushResp::decode(&PushResp { applied: true }.encode()).unwrap().applied);
        assert_eq!(decode_error(&encode_error("boom")), "boom");
    }

    #[test]
    fn opcode_table_covers_both_directions_for_every_byte() {
        // Encode→decode is the identity for every variant in the table …
        for &op in OpCode::ALL.iter() {
            assert_eq!(OpCode::from_byte(op as u8).unwrap(), op);
        }
        // … and every byte outside the table is a typed error, so the
        // table is the complete decode surface.
        let known: Vec<u8> = OpCode::ALL.iter().map(|&op| op as u8).collect();
        for b in 0..=u8::MAX {
            match OpCode::from_byte(b) {
                Ok(op) => assert!(known.contains(&(op as u8))),
                Err(FrameError::UnknownOpcode(bad)) => {
                    assert_eq!(bad, b);
                    assert!(!known.contains(&b));
                }
                Err(other) => panic!("unexpected error for byte {b}: {other:?}"),
            }
        }
        assert_eq!(known.len(), OpCode::ALL.len());
    }

    #[test]
    fn multi_row_codecs_roundtrip() {
        let pull = PullManyReq { keys: vec![ParamKey::new(0, 1), ParamKey::new(3, 77)] };
        assert_eq!(PullManyReq::decode(&pull.encode()).unwrap(), pull);
        let empty = PullManyReq { keys: vec![] };
        assert_eq!(PullManyReq::decode(&empty.encode()).unwrap(), empty);

        let resp = PullManyResp { versions: vec![4, 9], values: vec![1.5, -2.25, 0.0, 7.0] };
        assert_eq!(PullManyResp::decode(&resp.encode()).unwrap(), resp);
        // Version-only probe: versions without values.
        let probe = PullManyResp { versions: vec![4, 9], values: vec![] };
        assert_eq!(PullManyResp::decode(&probe.encode()).unwrap(), probe);

        let push = PushManyReq {
            client_id: 2,
            lr: 0.5,
            keys: vec![ParamKey::new(0, 5), ParamKey::new(1, 6)],
            grads: vec![0.25, -0.125, 1.0, 2.0],
        };
        assert_eq!(PushManyReq::decode(&push.encode()).unwrap(), push);
    }

    #[test]
    fn multi_row_codecs_reject_malformed_payloads() {
        // Declared key count exceeding the remaining bytes errors before
        // any allocation — including u32::MAX, which would be a 32 GiB
        // key vector if the count were trusted.
        let mut lying = PullManyReq { keys: vec![ParamKey::new(0, 1)] }.encode();
        lying[0..4].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(PullManyReq::decode(&lying), Err(FrameError::Malformed(_))));

        let mut lying = PullManyResp { versions: vec![1], values: vec![1.0] }.encode();
        lying[0..4].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(PullManyResp::decode(&lying), Err(FrameError::Malformed(_))));

        // A value section that does not divide across the declared rows.
        let resp = PullManyResp { versions: vec![1, 2], values: vec![1.0, 2.0, 3.0] };
        assert!(matches!(PullManyResp::decode(&resp.encode()), Err(FrameError::Malformed(_))));
        // Values without any rows to attach them to.
        let resp = PullManyResp { versions: vec![], values: vec![1.0] };
        assert!(matches!(PullManyResp::decode(&resp.encode()), Err(FrameError::Malformed(_))));

        // PushMany: gradient section must divide across the keys, and an
        // empty batch is meaningless on the wire.
        let push = PushManyReq {
            client_id: 0,
            lr: 0.1,
            keys: vec![ParamKey::new(0, 0), ParamKey::new(0, 1)],
            grads: vec![1.0, 2.0, 3.0],
        };
        assert!(matches!(PushManyReq::decode(&push.encode()), Err(FrameError::Malformed(_))));
        let empty = PushManyReq { client_id: 0, lr: 0.1, keys: vec![], grads: vec![] };
        assert!(matches!(PushManyReq::decode(&empty.encode()), Err(FrameError::Malformed(_))));

        // Truncation anywhere inside a multi-row payload is typed.
        let bytes = PushManyReq {
            client_id: 2,
            lr: 0.5,
            keys: vec![ParamKey::new(0, 5)],
            grads: vec![0.25, -0.125],
        }
        .encode();
        for keep in 0..bytes.len() {
            assert!(PushManyReq::decode(&bytes[..keep]).is_err(), "keep={keep}");
        }
    }

    #[test]
    fn oversized_batches_hit_the_frame_cap_not_the_allocator() {
        // A key batch whose encoding crosses MAX_PAYLOAD must be refused
        // at encode time (the sender chunks batches well below the cap).
        let too_many = (MAX_PAYLOAD as usize / 8) + 1;
        let keys: Vec<ParamKey> = (0..too_many as u32).map(|i| ParamKey::new(0, i)).collect();
        let payload = PullManyReq { keys }.encode();
        let frame = Frame::new(OpCode::PullMany, 1, payload);
        let mut sink = Vec::new();
        assert!(matches!(frame.encode(&mut sink), Err(FrameError::TooLarge(_))));
    }

    #[test]
    fn trace_context_roundtrips_through_a_frame() {
        let ctx = TraceContext { trace_id: 0xDEAD_BEEF_CAFE, span_id: 42 };
        let inner = PullManyReq { keys: vec![ParamKey::new(1, 9)] }.encode();
        let traced = Frame::new(OpCode::PullMany, 7, inner.clone()).with_trace_context(ctx);
        assert_eq!(traced.flags & FLAG_TRACE, FLAG_TRACE);
        assert_eq!(traced.wire_len(), FRAME_OVERHEAD + TRACE_EXT_LEN + inner.len());

        let mut decoded = roundtrip(&traced);
        let got = decoded.take_trace_context().unwrap();
        assert_eq!(got, Some(ctx));
        // After stripping, the frame is byte-identical to the untraced one.
        assert_eq!(decoded, Frame::new(OpCode::PullMany, 7, inner.clone()));
        assert_eq!(decoded.take_trace_context().unwrap(), None);
        // Payload codecs see the original bytes.
        assert_eq!(PullManyReq::decode(&decoded.payload).unwrap().keys, vec![ParamKey::new(1, 9)]);
    }

    #[test]
    fn trace_context_other_flags_survive_strip() {
        let ctx = TraceContext { trace_id: 1, span_id: 2 };
        let payload = PullManyReq { keys: vec![ParamKey::new(0, 0)] }.encode();
        let mut frame = Frame::new(OpCode::PullMany, 1, payload);
        frame.flags |= FLAG_VERSION_ONLY;
        let mut traced = frame.clone().with_trace_context(ctx);
        assert_eq!(traced.flags, FLAG_VERSION_ONLY | FLAG_TRACE);
        traced.take_trace_context().unwrap();
        assert_eq!(traced.flags, FLAG_VERSION_ONLY);
    }

    #[test]
    fn malformed_trace_extensions_are_typed_errors() {
        // Flag set but payload too short.
        let mut short = Frame::new(OpCode::PullMany, 1, vec![0u8; 4]);
        short.flags |= FLAG_TRACE;
        assert!(matches!(short.take_trace_context(), Err(FrameError::Malformed(_))));
        // Unknown extension version.
        let mut bytes = TraceContext { trace_id: 1, span_id: 2 }.encode();
        bytes[0] = 9;
        assert!(matches!(TraceContext::decode(&bytes), Err(FrameError::Malformed(_))));
        // Wrong length.
        assert!(TraceContext::decode(&bytes[..5]).is_err());
    }

    #[test]
    fn payload_codecs_reject_truncation_and_trailing_garbage() {
        let push = PushManyReq {
            client_id: 2,
            lr: 0.5,
            keys: vec![ParamKey::new(0, 5)],
            grads: vec![0.25, -0.125],
        };
        let bytes = push.encode();
        assert!(PushManyReq::decode(&bytes[..bytes.len() - 1]).is_err());
        let mut long = bytes.clone();
        long.push(0);
        assert!(matches!(PushManyReq::decode(&long), Err(FrameError::Malformed(_))));
        let mut long = BarrierReq { client_id: 1, round: 2, expected: 3 }.encode();
        long.push(0);
        assert!(BarrierReq::decode(&long).is_err());
        assert!(PushResp::decode(&[1, 0]).is_err());
        // A counted f32 section whose count exceeds the remaining bytes
        // must error before allocating.
        let mut lying = PullManyResp { versions: vec![1], values: vec![1.0] }.encode();
        lying[12..16].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(PullManyResp::decode(&lying), Err(FrameError::Malformed(_))));
    }
}
