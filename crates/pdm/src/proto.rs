//! The disk-service wire protocol: [`crate::parallel::Cmd`] /
//! [`crate::parallel::Completion`] as explicit, framed bytes.
//!
//! The in-process disk service moves commands over channels with owned
//! buffers — zero-copy, but inseparable from the address space. This
//! module pins down the *serialized* form of the same request/reply
//! protocol so a disk worker can live behind any byte stream: a
//! Unix-domain socket to a `pdm-diskd` process, a simulated network
//! (the SimNet transport encodes and decodes through exactly this
//! code), or, later, a TCP connection to another host.
//!
//! # Framing
//!
//! Every message is one *frame*: a little-endian `u32` byte length
//! followed by that many body bytes. Frames never exceed
//! [`MAX_FRAME`].
//!
//! # Handshake
//!
//! The client opens with a HELLO frame — magic `"PDMD"`, the client's
//! [`PROTO_VERSION`], and the disk geometry (block records × record
//! bytes, slot count). The worker answers with HELLO-OK (echoing its
//! version) or refuses: a version mismatch surfaces as
//! [`PdmError::ProtocolVersion`] *before any data moves*, a geometry
//! mismatch as [`PdmError::Config`].
//!
//! # Data plane
//!
//! | Request            | Body                                   | Reply (ok)            |
//! |--------------------|----------------------------------------|-----------------------|
//! | READ `slot`        | tag, idx `u64`, slot `u64`             | tag, idx, block bytes |
//! | WRITE `slot`       | tag, idx `u64`, slot `u64`, block bytes| tag, idx              |
//! | STOP               | tag                                    | none (worker exits)   |
//!
//! A run command ([`crate::parallel::Cmd`]) crosses as one READ or
//! WRITE frame per block of its run, `idx` numbering the blocks within
//! the run; the client transport answers the run once the last reply
//! arrives. Frames stay block-granular, so message and byte counts do
//! not depend on how the caller batched its commands.
//!
//! Record payloads serialize through the existing
//! [`crate::record::ByteRecord`] surface — the same fixed-width layout
//! the file backend pins on disk — so a round trip is lossless and
//! placement is byte-identical to the in-process path. Errors travel
//! as typed reply bodies; a worker-side [`PdmError::OutOfRange`] keeps
//! its slot diagnostics across the wire, and, like local disk units,
//! arrives with a placeholder disk index for
//! [`PdmError::with_disk`] to patch.

use crate::error::{PdmError, Result};
use crate::record::ByteRecord;
use std::path::Path;

/// Wire-protocol version; bumped on any incompatible frame change.
pub const PROTO_VERSION: u32 = 1;

/// HELLO magic, so a mis-wired peer fails fast and loudly.
pub const MAGIC: [u8; 4] = *b"PDMD";

/// Frames larger than this are rejected as corrupt (no legitimate
/// message approaches it: the largest frame is one block plus a
/// 17-byte header).
pub const MAX_FRAME: usize = 1 << 26;

/// Bytes of the length prefix preceding every frame body.
pub const FRAME_HEADER: usize = 4;

// Request tags.
const REQ_READ: u8 = 1;
const REQ_WRITE: u8 = 2;
const REQ_STOP: u8 = 3;

// Reply tags. The retryable taxonomy (transient fault, timeout,
// disconnect) crosses the wire structurally so the client's retry
// layer can classify a worker-side failure without string matching.
const REP_OK: u8 = 0;
const REP_ERR_OUT_OF_RANGE: u8 = 1;
const REP_ERR_OTHER: u8 = 2;
const REP_ERR_TRANSIENT: u8 = 3;
const REP_ERR_TIMEOUT: u8 = 4;
const REP_ERR_DISCONNECTED: u8 = 5;

// HELLO reply tags.
const HELLO_OK: u8 = 0;
const HELLO_BAD_VERSION: u8 = 1;
const HELLO_BAD_GEOMETRY: u8 = 2;

/// Appends a little-endian `u32` to a frame under construction.
///
/// The `put_*` helpers, [`begin_frame`]/[`end_frame`], [`Take`], and
/// [`read_frame`] are the reusable framing toolkit: higher-level
/// protocols (the job service's control plane) build their own message
/// sets on the same conventions.
pub fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Appends a little-endian `u64` to a frame under construction.
pub fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Reserves the length prefix of a new frame, returning the position
/// to hand [`end_frame`] once the body is appended.
pub fn begin_frame(out: &mut Vec<u8>) -> usize {
    let at = out.len();
    out.extend_from_slice(&[0u8; FRAME_HEADER]);
    at
}

/// Backpatches the length prefix reserved at `at` by [`begin_frame`].
pub fn end_frame(out: &mut [u8], at: usize) {
    let len = (out.len() - at - FRAME_HEADER) as u32;
    out[at..at + FRAME_HEADER].copy_from_slice(&len.to_le_bytes());
}

/// Reads one frame body into `buf`, returning the total wire bytes
/// consumed (header included). Refuses frames over [`MAX_FRAME`].
pub fn read_frame(r: &mut impl std::io::Read, buf: &mut Vec<u8>) -> std::io::Result<usize> {
    let mut hdr = [0u8; FRAME_HEADER];
    r.read_exact(&mut hdr)?;
    let len = u32::from_le_bytes(hdr) as usize;
    if len > MAX_FRAME {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            format!("frame of {len} bytes exceeds protocol maximum"),
        ));
    }
    buf.resize(len, 0);
    r.read_exact(buf)?;
    Ok(FRAME_HEADER + len)
}

/// A cursor over a frame body that turns truncation into a typed
/// error instead of a panic.
#[derive(Debug)]
pub struct Take<'a>(pub &'a [u8]);

impl<'a> Take<'a> {
    /// Consumes one byte.
    pub fn u8(&mut self) -> Result<u8> {
        let (&b, rest) = self
            .0
            .split_first()
            .ok_or_else(|| PdmError::Io("truncated protocol frame".into()))?;
        self.0 = rest;
        Ok(b)
    }

    /// Consumes a little-endian `u32`.
    pub fn u32(&mut self) -> Result<u32> {
        Ok(u32::from_le_bytes(self.bytes(4)?.try_into().unwrap()))
    }

    /// Consumes a little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64> {
        Ok(u64::from_le_bytes(self.bytes(8)?.try_into().unwrap()))
    }

    /// Consumes exactly `n` bytes.
    pub fn bytes(&mut self, n: usize) -> Result<&'a [u8]> {
        if self.0.len() < n {
            return Err(PdmError::Io("truncated protocol frame".into()));
        }
        let (head, rest) = self.0.split_at(n);
        self.0 = rest;
        Ok(head)
    }

    /// Consumes the remainder of the body.
    pub fn rest(self) -> &'a [u8] {
        self.0
    }
}

// ---------------------------------------------------------------------
// HELLO.

/// Decoded HELLO parameters.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Hello {
    /// Client's wire-protocol version.
    pub version: u32,
    /// Records per block.
    pub block: usize,
    /// Serialized record width.
    pub record_bytes: usize,
    /// Block slots on the disk.
    pub slots: usize,
}

impl Hello {
    /// Bytes per block on the wire (and in the worker's store). Both
    /// factors come from the peer, so a product that overflows `usize`
    /// is a typed [`PdmError::Config`], never a wrapped size that could
    /// match a worker's real one.
    pub fn block_bytes(&self) -> Result<usize> {
        self.block.checked_mul(self.record_bytes).ok_or_else(|| {
            PdmError::Config(format!(
                "HELLO blocks of {} records x {} bytes overflow the address space",
                self.block, self.record_bytes
            ))
        })
    }
}

/// Appends a framed HELLO.
pub fn encode_hello(out: &mut Vec<u8>, block: usize, record_bytes: usize, slots: usize) {
    let at = begin_frame(out);
    out.extend_from_slice(&MAGIC);
    put_u32(out, PROTO_VERSION);
    put_u32(out, block as u32);
    put_u32(out, record_bytes as u32);
    put_u64(out, slots as u64);
    end_frame(out, at);
}

/// Decodes a HELLO body (frame prefix already stripped).
pub fn decode_hello(body: &[u8]) -> Result<Hello> {
    let mut t = Take(body);
    if t.bytes(4)? != MAGIC {
        return Err(PdmError::Io("bad protocol magic in HELLO".into()));
    }
    Ok(Hello {
        version: t.u32()?,
        block: t.u32()? as usize,
        record_bytes: t.u32()? as usize,
        slots: t.u64()? as usize,
    })
}

/// Appends a framed HELLO-OK carrying the worker's version.
pub fn encode_hello_ok(out: &mut Vec<u8>, version: u32) {
    let at = begin_frame(out);
    out.push(HELLO_OK);
    put_u32(out, version);
    end_frame(out, at);
}

/// Appends a framed HELLO refusal for a version mismatch.
pub fn encode_hello_bad_version(out: &mut Vec<u8>, worker_version: u32) {
    let at = begin_frame(out);
    out.push(HELLO_BAD_VERSION);
    put_u32(out, worker_version);
    end_frame(out, at);
}

/// Appends a framed HELLO refusal for a geometry mismatch, echoing the
/// worker's actual geometry for the diagnostic.
pub fn encode_hello_bad_geometry(out: &mut Vec<u8>, block_bytes: usize, slots: usize) {
    let at = begin_frame(out);
    out.push(HELLO_BAD_GEOMETRY);
    put_u64(out, block_bytes as u64);
    put_u64(out, slots as u64);
    end_frame(out, at);
}

/// Decodes a HELLO reply body. `Ok(())` means the worker accepted the
/// connection; errors carry a placeholder disk index for
/// [`PdmError::with_disk`].
pub fn decode_hello_reply(body: &[u8], expected_version: u32) -> Result<()> {
    let mut t = Take(body);
    match t.u8()? {
        HELLO_OK => {
            let v = t.u32()?;
            if v == expected_version {
                Ok(())
            } else {
                Err(PdmError::ProtocolVersion {
                    disk: usize::MAX,
                    expected: expected_version,
                    actual: v,
                })
            }
        }
        HELLO_BAD_VERSION => Err(PdmError::ProtocolVersion {
            disk: usize::MAX,
            expected: expected_version,
            actual: t.u32()?,
        }),
        HELLO_BAD_GEOMETRY => {
            let block_bytes = t.u64()?;
            let slots = t.u64()?;
            Err(PdmError::Config(format!(
                "disk worker geometry mismatch: worker has {block_bytes}-byte blocks × {slots} slots"
            )))
        }
        tag => Err(PdmError::Io(format!("unknown HELLO reply tag {tag}"))),
    }
}

// ---------------------------------------------------------------------
// Requests.

/// A decoded data-plane request.
#[derive(Debug, PartialEq, Eq)]
pub enum Request<'a> {
    /// Read block `slot`; echo `idx` in the reply.
    Read {
        /// Caller's operation index, echoed verbatim in the reply.
        idx: u64,
        /// Block slot to read.
        slot: u64,
    },
    /// Write `payload` (one block of bytes) to `slot`.
    Write {
        /// Caller's operation index, echoed verbatim in the reply.
        idx: u64,
        /// Block slot to write.
        slot: u64,
        /// One block of serialized record bytes.
        payload: &'a [u8],
    },
    /// Shut the worker down.
    Stop,
}

/// Appends a framed READ request.
pub fn encode_read(out: &mut Vec<u8>, idx: u64, slot: u64) {
    let at = begin_frame(out);
    out.push(REQ_READ);
    put_u64(out, idx);
    put_u64(out, slot);
    end_frame(out, at);
}

/// Appends a framed WRITE request, serializing `data` through
/// [`ByteRecord`].
pub fn encode_write<R: ByteRecord>(out: &mut Vec<u8>, idx: u64, slot: u64, data: &[R]) {
    let at = begin_frame(out);
    out.push(REQ_WRITE);
    put_u64(out, idx);
    put_u64(out, slot);
    let base = out.len();
    out.resize(base + data.len() * R::BYTES, 0);
    for (i, r) in data.iter().enumerate() {
        r.to_bytes(&mut out[base + i * R::BYTES..base + (i + 1) * R::BYTES]);
    }
    end_frame(out, at);
}

/// Appends a framed STOP request.
pub fn encode_stop(out: &mut Vec<u8>) {
    let at = begin_frame(out);
    out.push(REQ_STOP);
    end_frame(out, at);
}

/// Decodes a request body (frame prefix already stripped).
pub fn decode_request(body: &[u8]) -> Result<Request<'_>> {
    let mut t = Take(body);
    match t.u8()? {
        REQ_READ => Ok(Request::Read {
            idx: t.u64()?,
            slot: t.u64()?,
        }),
        REQ_WRITE => Ok(Request::Write {
            idx: t.u64()?,
            slot: t.u64()?,
            payload: t.rest(),
        }),
        REQ_STOP => Ok(Request::Stop),
        tag => Err(PdmError::Io(format!("unknown request tag {tag}"))),
    }
}

// ---------------------------------------------------------------------
// Replies.

/// A decoded data-plane reply: the echoed request index and either the
/// read payload (empty for writes) or the worker's error.
#[derive(Debug)]
pub struct Reply<'a> {
    /// The request index this reply answers.
    pub idx: u64,
    /// Payload bytes on success (one block for reads, empty for
    /// writes) or the transfer error.
    pub result: std::result::Result<&'a [u8], PdmError>,
}

/// Appends a framed OK reply with a payload (reads).
pub fn encode_ok(out: &mut Vec<u8>, idx: u64, payload: &[u8]) {
    let at = begin_frame(out);
    out.push(REP_OK);
    put_u64(out, idx);
    out.extend_from_slice(payload);
    end_frame(out, at);
}

/// Appends a framed error reply. [`PdmError::OutOfRange`] and the
/// retryable taxonomy ([`PdmError::TransientFault`],
/// [`PdmError::Timeout`], [`PdmError::Disconnected`]) keep their
/// diagnostics structurally — crucially, they stay *classifiable* by
/// [`PdmError::is_retryable`] on the far side; any other error crosses
/// as its display string.
pub fn encode_err(out: &mut Vec<u8>, idx: u64, err: &PdmError) {
    let at = begin_frame(out);
    match err {
        PdmError::OutOfRange {
            slot,
            slots_per_disk,
            ..
        } => {
            out.push(REP_ERR_OUT_OF_RANGE);
            put_u64(out, idx);
            put_u64(out, *slot as u64);
            put_u64(out, *slots_per_disk as u64);
        }
        PdmError::TransientFault { op, attempt, .. } => {
            out.push(REP_ERR_TRANSIENT);
            put_u64(out, idx);
            put_u64(out, *op);
            put_u32(out, *attempt);
        }
        PdmError::Timeout {
            op, attempt, ms, ..
        } => {
            out.push(REP_ERR_TIMEOUT);
            put_u64(out, idx);
            put_u64(out, *op);
            put_u32(out, *attempt);
            put_u64(out, *ms);
        }
        PdmError::Disconnected { .. } => {
            out.push(REP_ERR_DISCONNECTED);
            put_u64(out, idx);
        }
        other => {
            out.push(REP_ERR_OTHER);
            put_u64(out, idx);
            out.extend_from_slice(other.to_string().as_bytes());
        }
    }
    end_frame(out, at);
}

/// Decodes a reply body (frame prefix already stripped). Worker-side
/// errors arrive with a placeholder disk index, exactly like errors
/// from local disk units.
pub fn decode_reply(body: &[u8]) -> Result<Reply<'_>> {
    let mut t = Take(body);
    let tag = t.u8()?;
    let idx = t.u64()?;
    match tag {
        REP_OK => Ok(Reply {
            idx,
            result: Ok(t.rest()),
        }),
        REP_ERR_OUT_OF_RANGE => {
            let slot = t.u64()? as usize;
            let slots_per_disk = t.u64()? as usize;
            Ok(Reply {
                idx,
                result: Err(PdmError::OutOfRange {
                    disk: usize::MAX,
                    slot,
                    slots_per_disk,
                }),
            })
        }
        REP_ERR_TRANSIENT => {
            let op = t.u64()?;
            let attempt = t.u32()?;
            Ok(Reply {
                idx,
                result: Err(PdmError::TransientFault {
                    op,
                    disk: usize::MAX,
                    attempt,
                }),
            })
        }
        REP_ERR_TIMEOUT => {
            let op = t.u64()?;
            let attempt = t.u32()?;
            let ms = t.u64()?;
            Ok(Reply {
                idx,
                result: Err(PdmError::Timeout {
                    disk: usize::MAX,
                    op,
                    attempt,
                    ms,
                }),
            })
        }
        REP_ERR_DISCONNECTED => Ok(Reply {
            idx,
            result: Err(PdmError::Disconnected { disk: usize::MAX }),
        }),
        REP_ERR_OTHER => Ok(Reply {
            idx,
            result: Err(PdmError::Io(String::from_utf8_lossy(t.rest()).into_owned())),
        }),
        tag => Err(PdmError::Io(format!("unknown reply tag {tag}"))),
    }
}

// ---------------------------------------------------------------------
// The worker.

/// Byte-level storage behind a [`Worker`] — the serialized twin of
/// [`crate::backend::MemDisk`] / [`crate::backend::FileDisk`]. The
/// worker stores blocks as raw bytes because the wire already carries
/// them that way; it never deserializes records.
enum ByteStore {
    Mem(Vec<u8>),
    File(std::fs::File),
}

/// Bytes of a store of `slots` blocks of `block_bytes`, or a typed
/// [`PdmError::Config`] when the product overflows `usize`.
fn store_bytes(block_bytes: usize, slots: usize) -> Result<usize> {
    block_bytes.checked_mul(slots).ok_or_else(|| {
        PdmError::Config(format!(
            "disk store of {slots} slots x {block_bytes}-byte blocks overflows the address space"
        ))
    })
}

/// The server side of the protocol: owns one disk's storage and turns
/// request frames into reply frames. Both the `pdm-diskd` process and
/// the SimNet transport drive this same struct, so the simulated
/// network exercises the identical protocol implementation that runs
/// out of process.
pub struct Worker {
    block_bytes: usize,
    slots: usize,
    store: ByteStore,
    /// Reusable block-sized staging buffer (file reads).
    staging: Vec<u8>,
}

impl Worker {
    /// A memory-backed worker: `slots` zeroed blocks of `block_bytes`.
    /// Both sizes may come from a peer's HELLO, so a store size that
    /// overflows `usize` is a typed [`PdmError::Config`].
    pub fn new_mem(block_bytes: usize, slots: usize) -> Result<Self> {
        Ok(Worker {
            block_bytes,
            slots,
            store: ByteStore::Mem(vec![0u8; store_bytes(block_bytes, slots)?]),
            staging: vec![0u8; block_bytes],
        })
    }

    /// A file-backed worker over a preallocated file at `path`
    /// (created or truncated), byte-compatible with
    /// [`crate::backend::FileDisk`]'s on-disk layout.
    pub fn new_file(path: &Path, block_bytes: usize, slots: usize) -> Result<Self> {
        Self::file_worker(path, block_bytes, slots, true)
    }

    /// A file-backed worker that **reopens** an existing store at
    /// `path` without truncating it — the respawn path: a relaunched
    /// `pdm-diskd` must come back with the blocks its predecessor
    /// already wrote. (`set_len` to the same size preserves content.)
    pub fn open_file(path: &Path, block_bytes: usize, slots: usize) -> Result<Self> {
        Self::file_worker(path, block_bytes, slots, false)
    }

    fn file_worker(path: &Path, block_bytes: usize, slots: usize, truncate: bool) -> Result<Self> {
        let len = store_bytes(block_bytes, slots)?;
        let file = std::fs::OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(truncate)
            .open(path)
            .map_err(|e| PdmError::Io(format!("create {}: {e}", path.display())))?;
        file.set_len(len as u64)
            .map_err(|e| PdmError::Io(format!("set_len {}: {e}", path.display())))?;
        Ok(Worker {
            block_bytes,
            slots,
            store: ByteStore::File(file),
            staging: vec![0u8; block_bytes],
        })
    }

    /// Bytes per block.
    pub fn block_bytes(&self) -> usize {
        self.block_bytes
    }

    /// Block slots on this disk.
    pub fn slots(&self) -> usize {
        self.slots
    }

    fn admit(&self, slot: u64) -> Result<()> {
        if slot as usize >= self.slots {
            return Err(PdmError::OutOfRange {
                disk: usize::MAX,
                slot: slot as usize,
                slots_per_disk: self.slots,
            });
        }
        Ok(())
    }

    #[cfg(unix)]
    fn file_read(file: &std::fs::File, buf: &mut [u8], off: u64) -> std::io::Result<()> {
        use std::os::unix::fs::FileExt;
        file.read_exact_at(buf, off)
    }

    #[cfg(unix)]
    fn file_write(file: &std::fs::File, buf: &[u8], off: u64) -> std::io::Result<()> {
        use std::os::unix::fs::FileExt;
        file.write_all_at(buf, off)
    }

    #[cfg(not(unix))]
    fn file_read(mut file: &std::fs::File, buf: &mut [u8], off: u64) -> std::io::Result<()> {
        use std::io::{Read, Seek, SeekFrom};
        file.seek(SeekFrom::Start(off))?;
        file.read_exact(buf)
    }

    #[cfg(not(unix))]
    fn file_write(mut file: &std::fs::File, buf: &[u8], off: u64) -> std::io::Result<()> {
        use std::io::{Seek, SeekFrom, Write};
        file.seek(SeekFrom::Start(off))?;
        file.write_all(buf)
    }

    fn read_block(&mut self, slot: u64, idx: u64, out: &mut Vec<u8>) {
        if let Err(e) = self.admit(slot) {
            encode_err(out, idx, &e);
            return;
        }
        let off = slot as usize * self.block_bytes;
        match &self.store {
            ByteStore::Mem(data) => {
                encode_ok(out, idx, &data[off..off + self.block_bytes]);
            }
            ByteStore::File(file) => match Self::file_read(file, &mut self.staging, off as u64) {
                Ok(()) => encode_ok(out, idx, &self.staging),
                Err(e) => encode_err(out, idx, &PdmError::Io(format!("read_at slot {slot}: {e}"))),
            },
        }
    }

    fn write_block(&mut self, slot: u64, idx: u64, payload: &[u8], out: &mut Vec<u8>) {
        if let Err(e) = self.admit(slot) {
            encode_err(out, idx, &e);
            return;
        }
        if payload.len() != self.block_bytes {
            encode_err(
                out,
                idx,
                &PdmError::Io(format!(
                    "write payload is {} bytes, block is {}",
                    payload.len(),
                    self.block_bytes
                )),
            );
            return;
        }
        let off = slot as usize * self.block_bytes;
        match &mut self.store {
            ByteStore::Mem(data) => {
                data[off..off + self.block_bytes].copy_from_slice(payload);
                encode_ok(out, idx, &[]);
            }
            ByteStore::File(file) => match Self::file_write(file, payload, off as u64) {
                Ok(()) => encode_ok(out, idx, &[]),
                Err(e) => encode_err(
                    out,
                    idx,
                    &PdmError::Io(format!("write_at slot {slot}: {e}")),
                ),
            },
        }
    }

    /// Handles one request body, appending the framed reply to `out`.
    /// Returns `false` when the request was STOP (no reply is sent;
    /// the serve loop exits). Transfer failures become error *replies*,
    /// not `Err` — only an unparseable frame is a protocol error.
    pub fn handle(&mut self, body: &[u8], out: &mut Vec<u8>) -> Result<bool> {
        match decode_request(body)? {
            Request::Read { idx, slot } => {
                self.read_block(slot, idx, out);
                Ok(true)
            }
            Request::Write { idx, slot, payload } => {
                self.write_block(slot, idx, payload, out);
                Ok(true)
            }
            Request::Stop => Ok(false),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::TaggedRecord;

    fn body(frame: &[u8]) -> &[u8] {
        let len = u32::from_le_bytes(frame[..4].try_into().unwrap()) as usize;
        assert_eq!(frame.len(), FRAME_HEADER + len, "exactly one frame");
        &frame[FRAME_HEADER..]
    }

    #[test]
    fn hello_round_trip() {
        let mut f = Vec::new();
        encode_hello(&mut f, 8, 16, 1024);
        let h = decode_hello(body(&f)).unwrap();
        assert_eq!(
            h,
            Hello {
                version: PROTO_VERSION,
                block: 8,
                record_bytes: 16,
                slots: 1024
            }
        );
        assert_eq!(h.block_bytes(), Ok(128));

        let mut ok = Vec::new();
        encode_hello_ok(&mut ok, PROTO_VERSION);
        decode_hello_reply(body(&ok), PROTO_VERSION).unwrap();

        let mut bad = Vec::new();
        encode_hello_bad_version(&mut bad, 7);
        let err = decode_hello_reply(body(&bad), PROTO_VERSION).unwrap_err();
        assert!(matches!(
            err,
            PdmError::ProtocolVersion {
                expected: PROTO_VERSION,
                actual: 7,
                ..
            }
        ));

        let mut geo = Vec::new();
        encode_hello_bad_geometry(&mut geo, 64, 99);
        assert!(matches!(
            decode_hello_reply(body(&geo), PROTO_VERSION),
            Err(PdmError::Config(_))
        ));
    }

    /// A block size whose byte product overflows must not wrap: at
    /// 2^61 eight-byte records the unchecked product was 0 — a size a
    /// worker could compare equal against instead of refusing.
    #[test]
    fn hello_block_bytes_overflow_is_a_typed_config_error() {
        let h = Hello {
            version: PROTO_VERSION,
            block: 1 << 61,
            record_bytes: 8,
            slots: 4,
        };
        assert!(matches!(h.block_bytes(), Err(PdmError::Config(_))));
    }

    #[test]
    fn hello_ok_with_unexpected_version_is_refused() {
        // A worker that answers OK but with a different version is
        // still a mismatch — the client must not proceed.
        let mut ok = Vec::new();
        encode_hello_ok(&mut ok, 9);
        assert!(matches!(
            decode_hello_reply(body(&ok), PROTO_VERSION),
            Err(PdmError::ProtocolVersion {
                expected: PROTO_VERSION,
                actual: 9,
                ..
            })
        ));
    }

    #[test]
    fn request_round_trips() {
        let mut f = Vec::new();
        encode_read(&mut f, 5, 17);
        assert_eq!(
            decode_request(body(&f)).unwrap(),
            Request::Read { idx: 5, slot: 17 }
        );

        let recs = [TaggedRecord::new(3), TaggedRecord::new(4)];
        let mut w = Vec::new();
        encode_write(&mut w, 9, 2, &recs);
        match decode_request(body(&w)).unwrap() {
            Request::Write { idx, slot, payload } => {
                assert_eq!((idx, slot), (9, 2));
                assert_eq!(payload.len(), 2 * TaggedRecord::BYTES);
                assert_eq!(TaggedRecord::from_bytes(&payload[16..]), recs[1]);
            }
            other => panic!("decoded {other:?}"),
        }

        let mut s = Vec::new();
        encode_stop(&mut s);
        assert_eq!(decode_request(body(&s)).unwrap(), Request::Stop);
    }

    #[test]
    fn reply_round_trips() {
        let mut ok = Vec::new();
        encode_ok(&mut ok, 11, &[1, 2, 3]);
        let r = decode_reply(body(&ok)).unwrap();
        assert_eq!(r.idx, 11);
        assert_eq!(r.result.unwrap(), &[1, 2, 3]);

        let mut range = Vec::new();
        encode_err(
            &mut range,
            4,
            &PdmError::OutOfRange {
                disk: usize::MAX,
                slot: 9,
                slots_per_disk: 8,
            },
        );
        let r = decode_reply(body(&range)).unwrap();
        assert_eq!(r.idx, 4);
        assert!(matches!(
            r.result.unwrap_err(),
            PdmError::OutOfRange {
                slot: 9,
                slots_per_disk: 8,
                ..
            }
        ));

        let mut other = Vec::new();
        encode_err(&mut other, 6, &PdmError::StripedOnly);
        let r = decode_reply(body(&other)).unwrap();
        assert!(matches!(r.result.unwrap_err(), PdmError::Io(_)));
    }

    /// The retryable taxonomy must survive a wire round trip
    /// *structurally*: the far side classifies with `is_retryable`,
    /// not by parsing display strings.
    #[test]
    fn retryable_errors_round_trip_typed() {
        let cases = [
            PdmError::TransientFault {
                op: 42,
                disk: usize::MAX,
                attempt: 1,
            },
            PdmError::Timeout {
                disk: usize::MAX,
                op: 7,
                attempt: 2,
                ms: 125,
            },
            PdmError::Disconnected { disk: usize::MAX },
        ];
        for (i, err) in cases.iter().enumerate() {
            let mut f = Vec::new();
            encode_err(&mut f, i as u64, err);
            let r = decode_reply(body(&f)).unwrap();
            assert_eq!(r.idx, i as u64);
            let back = r.result.unwrap_err();
            assert_eq!(&back, err, "case {i}");
            assert!(back.is_retryable(), "case {i}");
            // And with_disk patches the placeholder as for local units.
            assert!(!matches!(
                back.with_disk(3),
                PdmError::TransientFault {
                    disk: usize::MAX,
                    ..
                } | PdmError::Timeout {
                    disk: usize::MAX,
                    ..
                } | PdmError::Disconnected { disk: usize::MAX }
            ));
        }
    }

    /// `open_file` must *not* zero an existing store — the respawn
    /// path depends on a relaunched worker seeing its predecessor's
    /// blocks.
    #[test]
    fn open_file_preserves_existing_blocks() {
        let dir = crate::tempdir::TempDir::new("pdm-proto-reopen");
        let path = dir.path().join("w.bin");
        let payload: Vec<u8> = (0..8).collect();
        let mut req = Vec::new();
        let mut rep = Vec::new();
        {
            let mut w = Worker::new_file(&path, 8, 3).unwrap();
            encode_write::<u8>(&mut req, 0, 1, &payload);
            w.handle(body(&req), &mut rep).unwrap();
            assert!(decode_reply(body(&rep)).unwrap().result.is_ok());
        } // worker "crashes"
        let mut w = Worker::open_file(&path, 8, 3).unwrap();
        req.clear();
        rep.clear();
        encode_read(&mut req, 1, 1);
        w.handle(body(&req), &mut rep).unwrap();
        let r = decode_reply(body(&rep)).unwrap();
        assert_eq!(r.result.unwrap(), payload.as_slice());
        // new_file, by contrast, truncates.
        let mut w = Worker::new_file(&path, 8, 3).unwrap();
        req.clear();
        rep.clear();
        encode_read(&mut req, 2, 1);
        w.handle(body(&req), &mut rep).unwrap();
        let r = decode_reply(body(&rep)).unwrap();
        assert_eq!(r.result.unwrap(), &[0u8; 8]);
    }

    #[test]
    fn truncated_frames_are_typed_errors() {
        assert!(decode_request(&[]).is_err());
        assert!(decode_request(&[REQ_READ, 0, 0]).is_err());
        assert!(decode_reply(&[REP_OK]).is_err());
        assert!(decode_hello(b"PDMD\x01").is_err());
        assert!(decode_hello(b"XXXX\x01\x00\x00\x00").is_err());
    }

    #[test]
    fn worker_mem_round_trip_and_errors() {
        let mut w = Worker::new_mem(16, 4).unwrap();
        assert_eq!(w.block_bytes(), 16);
        assert_eq!(w.slots(), 4);
        let payload: Vec<u8> = (0..16).collect();

        let mut req = Vec::new();
        encode_write::<u8>(&mut req, 0, 2, &payload);
        let mut rep = Vec::new();
        assert!(w.handle(body(&req), &mut rep).unwrap());
        assert!(decode_reply(body(&rep)).unwrap().result.is_ok());

        req.clear();
        rep.clear();
        encode_read(&mut req, 1, 2);
        assert!(w.handle(body(&req), &mut rep).unwrap());
        let r = decode_reply(body(&rep)).unwrap();
        assert_eq!(r.result.unwrap(), payload.as_slice());

        // Out of range keeps its diagnostics across the wire.
        req.clear();
        rep.clear();
        encode_read(&mut req, 2, 99);
        assert!(w.handle(body(&req), &mut rep).unwrap());
        assert!(matches!(
            decode_reply(body(&rep)).unwrap().result.unwrap_err(),
            PdmError::OutOfRange {
                slot: 99,
                slots_per_disk: 4,
                ..
            }
        ));

        // Short write payloads are rejected, not silently truncated.
        req.clear();
        rep.clear();
        encode_write::<u8>(&mut req, 3, 0, &[1, 2, 3]);
        assert!(w.handle(body(&req), &mut rep).unwrap());
        assert!(decode_reply(body(&rep)).unwrap().result.is_err());

        // Stop ends the session without a reply.
        req.clear();
        rep.clear();
        encode_stop(&mut req);
        assert!(!w.handle(body(&req), &mut rep).unwrap());
        assert!(rep.is_empty());
    }

    #[test]
    fn oversized_store_is_a_typed_config_error() {
        // HELLO-supplied sizes whose product wraps must be refused, not
        // silently shrunk to a tiny store.
        for (block_bytes, slots) in [(16, usize::MAX), (usize::MAX, 2)] {
            assert!(matches!(
                Worker::new_mem(block_bytes, slots),
                Err(PdmError::Config(_))
            ));
        }
        let dir = crate::tempdir::TempDir::new("pdm-proto-overflow");
        let path = dir.path().join("w.bin");
        assert!(matches!(
            Worker::new_file(&path, 16, usize::MAX),
            Err(PdmError::Config(_))
        ));
        assert!(matches!(
            Worker::open_file(&path, 16, usize::MAX),
            Err(PdmError::Config(_))
        ));
    }

    #[test]
    fn worker_file_store_matches_mem() {
        let dir = crate::tempdir::TempDir::new("pdm-proto");
        let mut mem = Worker::new_mem(8, 3).unwrap();
        let mut file = Worker::new_file(&dir.path().join("w.bin"), 8, 3).unwrap();
        let mut req = Vec::new();
        let mut rep_mem = Vec::new();
        let mut rep_file = Vec::new();
        for slot in 0..3u64 {
            req.clear();
            let data: Vec<u8> = (0..8).map(|i| (slot as u8) * 8 + i).collect();
            encode_write::<u8>(&mut req, slot, slot, &data);
            mem.handle(body(&req), &mut rep_mem).unwrap();
            file.handle(body(&req), &mut rep_file).unwrap();
        }
        for slot in 0..3u64 {
            req.clear();
            rep_mem.clear();
            rep_file.clear();
            encode_read(&mut req, slot, slot);
            mem.handle(body(&req), &mut rep_mem).unwrap();
            file.handle(body(&req), &mut rep_file).unwrap();
            assert_eq!(rep_mem, rep_file, "slot {slot}");
        }
    }
}
