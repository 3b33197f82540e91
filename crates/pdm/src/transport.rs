//! Remote disk-service transports: the wire protocol of
//! [`crate::proto`] carried over real sockets or a simulated network.
//!
//! Three [`Transport`] implementations exist:
//!
//! * [`crate::parallel::InProcTransport`] — the default: per-disk
//!   service threads fed over channels, zero serialization
//!   (`crate::parallel`).
//! * [`UdsTransport`] — one `pdm-diskd` worker **process** per disk,
//!   framed messages over a Unix-domain socket. Submission is a channel
//!   send to a per-disk writer thread that expands the run command
//!   into one request frame per block and writes them with a single
//!   socket write (so a memoryload costs the submitting thread one
//!   channel send per disk, like the in-process transport, and the D
//!   socket syscalls run concurrently); a per-disk reader thread
//!   matches reply frames to pending runs in FIFO order and answers
//!   each run once its last frame arrives (sound because one writer
//!   thread per socket writes, the socket is a FIFO byte stream, and
//!   the single-threaded worker replies in request order). Submission
//!   therefore stays split-phase: the engine's read-ahead overlap
//!   pipelines requests over the socket exactly as it pipelines them
//!   over channels.
//! * [`SimNetTransport`] — a deterministic in-process "network": every
//!   block of a run is encoded to its wire frame, handled by the same
//!   [`Worker`] the out-of-process server runs, and decoded back, with
//!   a [`SimNetModel`] charging latency and bandwidth per frame into
//!   the system's [`crate::timing::TimingTracker`]. Placement is
//!   byte-identical to InProc (the `ByteRecord` round trip is
//!   lossless), so CI can gate the full wire path without spawning
//!   processes.
//!
//! Both wire transports keep the per-block frame protocol of
//! [`crate::proto`]: a run of `k` blocks is `k` request frames and `k`
//! reply frames, so message and byte counts do not depend on how the
//! caller batched its commands.
//!
//! The worker loop ([`serve_stream`]) coalesces replies: they collect
//! in one buffer that is written once no whole request frame is left
//! in the read buffer (the next read could block), past 64 KiB, and
//! before the loop returns on STOP. A pipelined batch of requests
//! costs the worker one socket write instead of one per frame; the
//! frames themselves are unchanged.
//!
//! Beside the transports, [`RemoteDisk`] speaks the same protocol as a
//! blocking [`DiskUnit`] with worker respawn, for the job service's
//! disk farm: it moves a whole run in pipelined windows of request
//! frames, one socket write and one in-order reply read per window.
//!
//! The choice is configuration, not code: every algorithm takes
//! `&mut DiskSystem<R>` and runs unmodified on any transport
//! ([`crate::system::DiskSystem::new_with_transport`]). A TCP
//! transport to another host is one more impl of the same trait.

use crate::backend::DiskUnit;
use crate::error::{PdmError, Result};
use crate::parallel::{fail_disconnected, Cmd, Completion, Transport};
use crate::proto::{self, read_frame, Worker, FRAME_HEADER, PROTO_VERSION};
use crate::record::{ByteRecord, Record};
use crate::retry::RetryPolicy;
use crate::stats::MsgStats;
use crate::system::Backend;
use crate::tempdir::TempDir;
use std::io::{BufReader, Write};
use std::marker::PhantomData;
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Which transport a [`crate::system::DiskSystem`] talks to its disk
/// workers over.
#[derive(Clone, Debug, Default, PartialEq)]
pub enum TransportConfig {
    /// In-process service threads (the default; zero-copy,
    /// byte-identical to the pre-transport behaviour).
    #[default]
    InProc,
    /// One `pdm-diskd` worker process per disk over Unix-domain
    /// sockets.
    Uds(UdsConfig),
    /// The deterministic simulated network.
    SimNet(SimNetModel),
}

/// Configuration for the Unix-domain-socket transport.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct UdsConfig {
    /// Directory for the per-disk socket files; a self-cleaning temp
    /// directory when `None`.
    pub socket_dir: Option<PathBuf>,
    /// Path to the `pdm-diskd` worker binary; discovered via
    /// [`find_diskd`] when `None`.
    pub worker_bin: Option<PathBuf>,
    /// Retry/timeout/respawn policy installed on the
    /// [`crate::system::DiskSystem`] built over this transport. The
    /// default keeps PR 6/7's fail-fast behaviour.
    pub retry: RetryPolicy,
}

/// Latency/bandwidth parameters of the simulated network
/// (milliseconds and megabytes per second). Every frame is charged
/// `latency_ms + bytes / mb_per_s`, serialized through the client's
/// single interface — the link-limited bound, deliberately
/// conservative.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SimNetModel {
    /// Per-frame latency in milliseconds.
    pub latency_ms: f64,
    /// Link bandwidth in megabytes per second.
    pub mb_per_s: f64,
}

impl Default for SimNetModel {
    fn default() -> Self {
        Self::lan()
    }
}

impl SimNetModel {
    /// A datacenter-LAN-flavoured default: 50 µs per frame, 1 GB/s.
    pub fn lan() -> Self {
        SimNetModel {
            latency_ms: 0.05,
            mb_per_s: 1000.0,
        }
    }

    /// Simulated time for one frame of `bytes`.
    pub fn transfer_ms(&self, bytes: u64) -> f64 {
        self.latency_ms + bytes as f64 / (self.mb_per_s * 1000.0)
    }
}

// ---------------------------------------------------------------------
// The server side (pdm-diskd and in-process test servers).

/// Serves one client connection over `stream` until STOP or EOF:
/// HELLO handshake (version and geometry validation), then the
/// request/reply loop. This is the entire body of a `pdm-diskd`
/// worker.
pub fn serve_stream(stream: UnixStream, worker: &mut Worker) -> Result<()> {
    serve_stream_with_version(stream, worker, PROTO_VERSION)
}

/// [`serve_stream`] with an explicit version — lets tests stand up a
/// worker speaking the "wrong" protocol to prove the handshake refuses
/// it.
pub fn serve_stream_with_version(
    stream: UnixStream,
    worker: &mut Worker,
    version: u32,
) -> Result<()> {
    let io_err = |what: &str, e: std::io::Error| PdmError::Io(format!("{what}: {e}"));
    // Buffer the read side: pipelined requests arrive in batches, so
    // one syscall often yields many frames.
    let mut reader = BufReader::with_capacity(
        64 * 1024,
        stream
            .try_clone()
            .map_err(|e| io_err("clone worker socket", e))?,
    );
    let mut writer = stream;
    let mut frame = Vec::new();
    let mut reply = Vec::new();

    read_frame(&mut reader, &mut frame).map_err(|e| io_err("read HELLO", e))?;
    let hello = proto::decode_hello(&frame)?;
    if hello.version != version {
        proto::encode_hello_bad_version(&mut reply, version);
        let _ = writer.write_all(&reply);
        return Ok(());
    }
    if hello.block_bytes().ok() != Some(worker.block_bytes()) || hello.slots != worker.slots() {
        proto::encode_hello_bad_geometry(&mut reply, worker.block_bytes(), worker.slots());
        let _ = writer.write_all(&reply);
        return Ok(());
    }
    proto::encode_hello_ok(&mut reply, version);
    writer
        .write_all(&reply)
        .map_err(|e| io_err("write HELLO reply", e))?;

    // Replies accumulate in `reply` and go out in one write once no
    // whole request frame is left in the read buffer (the next read
    // could block, so nothing may stay pending across it) or past
    // REPLY_FLUSH bytes. A pipelined window then costs one write, not
    // one per frame.
    reply.clear();
    let mut flush = |reply: &mut Vec<u8>| {
        let r = writer.write_all(reply);
        reply.clear();
        r.map_err(|e| io_err("write reply", e))
    };
    loop {
        if reply.len() >= REPLY_FLUSH || (!reply.is_empty() && !holds_frame(reader.buffer())) {
            flush(&mut reply)?;
        }
        match read_frame(&mut reader, &mut frame) {
            Ok(_) => {}
            // Client gone (EOF or reset): a normal end of session.
            Err(_) => return Ok(()),
        }
        match worker.handle(&frame, &mut reply) {
            Ok(true) => {}
            // STOP: the replies before it still belong to the client.
            Ok(false) => return flush(&mut reply),
            Err(e) => {
                let _ = flush(&mut reply);
                return Err(e);
            }
        }
    }
}

/// Pending worker replies past this many bytes are written even while
/// more requests are buffered.
const REPLY_FLUSH: usize = 64 * 1024;

/// Whether `buf` starts with a complete frame (header and body).
fn holds_frame(buf: &[u8]) -> bool {
    buf.len() >= FRAME_HEADER
        && buf.len() - FRAME_HEADER
            >= u32::from_le_bytes(buf[..FRAME_HEADER].try_into().unwrap()) as usize
}

/// Entry point for the `pdm-diskd` worker binary: binds the socket,
/// accepts exactly one client, serves it, exits. Usage:
///
/// ```text
/// pdm-diskd --socket PATH --block-bytes N --slots N [--file PATH] [--reopen]
/// ```
///
/// `--reopen` (respawn path) reopens an existing `--file` store
/// without truncating it, so a relaunched worker keeps the blocks its
/// predecessor wrote.
///
/// Returns the process exit code. Kept in the library so the binary is
/// a two-line wrapper and the logic is unit-testable.
pub fn diskd_main(args: impl Iterator<Item = String>) -> i32 {
    let mut socket: Option<PathBuf> = None;
    let mut block_bytes: Option<usize> = None;
    let mut slots: Option<usize> = None;
    let mut file: Option<PathBuf> = None;
    let mut reopen = false;
    let mut args = args.peekable();
    while let Some(flag) = args.next() {
        let mut value = |name: &str| -> Option<String> {
            let v = args.next();
            if v.is_none() {
                eprintln!("pdm-diskd: {name} requires a value");
            }
            v
        };
        match flag.as_str() {
            "--socket" => socket = value("--socket").map(PathBuf::from),
            "--block-bytes" => block_bytes = value("--block-bytes").and_then(|v| v.parse().ok()),
            "--slots" => slots = value("--slots").and_then(|v| v.parse().ok()),
            "--file" => file = value("--file").map(PathBuf::from),
            "--reopen" => reopen = true,
            other => {
                eprintln!("pdm-diskd: unknown flag {other}");
                return 2;
            }
        }
    }
    let (Some(socket), Some(block_bytes), Some(slots)) = (socket, block_bytes, slots) else {
        eprintln!(
            "usage: pdm-diskd --socket PATH --block-bytes N --slots N [--file PATH] [--reopen]"
        );
        return 2;
    };
    let mut worker = match &file {
        Some(path) => {
            let opened = if reopen {
                Worker::open_file(path, block_bytes, slots)
            } else {
                Worker::new_file(path, block_bytes, slots)
            };
            match opened {
                Ok(w) => w,
                Err(e) => {
                    eprintln!("pdm-diskd: {e}");
                    return 1;
                }
            }
        }
        None => match Worker::new_mem(block_bytes, slots) {
            Ok(w) => w,
            Err(e) => {
                eprintln!("pdm-diskd: {e}");
                return 1;
            }
        },
    };
    let _ = std::fs::remove_file(&socket);
    let listener = match UnixListener::bind(&socket) {
        Ok(l) => l,
        Err(e) => {
            eprintln!("pdm-diskd: bind {}: {e}", socket.display());
            return 1;
        }
    };
    let stream = match listener.accept() {
        Ok((s, _)) => s,
        Err(e) => {
            eprintln!("pdm-diskd: accept: {e}");
            return 1;
        }
    };
    // One client per worker; unlink the socket as soon as it is taken.
    let _ = std::fs::remove_file(&socket);
    match serve_stream(stream, &mut worker) {
        Ok(()) => 0,
        Err(e) => {
            eprintln!("pdm-diskd: {e}");
            1
        }
    }
}

/// Bytes per block of `block` records of `R`, checked like the store
/// sizes in [`Worker`].
fn block_bytes<R: ByteRecord>(block: usize) -> Result<usize> {
    block.checked_mul(R::BYTES).ok_or_else(|| {
        PdmError::Config(format!(
            "{block}-record blocks of {}-byte records overflow the address space",
            R::BYTES
        ))
    })
}

/// Locates the `pdm-diskd` worker binary: the `PDM_DISKD_BIN`
/// environment variable if set, else next to the current executable
/// (hopping out of cargo's `deps/` directory for test binaries).
pub fn find_diskd() -> Option<PathBuf> {
    if let Some(p) = std::env::var_os("PDM_DISKD_BIN") {
        let p = PathBuf::from(p);
        return p.is_file().then_some(p);
    }
    let exe = std::env::current_exe().ok()?;
    let mut dir = exe.parent()?.to_path_buf();
    for _ in 0..2 {
        let cand = dir.join("pdm-diskd");
        if cand.is_file() {
            return Some(cand);
        }
        if !dir.pop() {
            break;
        }
    }
    None
}

/// Everything needed to relaunch a dead `pdm-diskd` worker and
/// reconnect to it: the spawn parameters [`spawn_uds_workers`] used,
/// retained on the transport so [`Transport::respawn`] can redo the
/// spawn — with `--reopen`, so a file-backed store survives its
/// worker.
#[derive(Clone, Debug, PartialEq)]
pub struct RespawnSpec {
    /// The worker binary.
    pub bin: PathBuf,
    /// Socket path the worker listens on.
    pub socket: PathBuf,
    /// Records per block.
    pub block: usize,
    /// Block slots on the disk.
    pub slots: usize,
    /// Backing file for file-backed workers. `None` means
    /// memory-backed: the store dies with the process, so respawning
    /// would silently hand back a zeroed disk — refused instead.
    pub file: Option<PathBuf>,
}

impl RespawnSpec {
    /// Spawns a worker per this spec. `reopen` preserves an existing
    /// file-backed store (the respawn path); the initial spawn
    /// truncates for a fresh disk.
    fn launch(&self, block_bytes: usize, reopen: bool) -> Result<Child> {
        let _ = std::fs::remove_file(&self.socket);
        let mut cmd = Command::new(&self.bin);
        cmd.arg("--socket")
            .arg(&self.socket)
            .arg("--block-bytes")
            .arg(block_bytes.to_string())
            .arg("--slots")
            .arg(self.slots.to_string())
            .stdin(Stdio::null())
            .stdout(Stdio::null());
        if let Some(file) = &self.file {
            cmd.arg("--file").arg(file);
            if reopen {
                cmd.arg("--reopen");
            }
        }
        cmd.spawn()
            .map_err(|e| PdmError::Io(format!("spawn {}: {e}", self.bin.display())))
    }
}

// ---------------------------------------------------------------------
// The UDS client transport.

/// Shared request/reply counters (the submitting thread and the reader
/// thread update different halves).
#[derive(Default)]
struct Counters {
    msgs_out: AtomicU64,
    msgs_in: AtomicU64,
    bytes_out: AtomicU64,
    bytes_in: AtomicU64,
}

impl Counters {
    fn snapshot(&self) -> MsgStats {
        MsgStats {
            messages_sent: self.msgs_out.load(Ordering::Relaxed),
            messages_received: self.msgs_in.load(Ordering::Relaxed),
            bytes_sent: self.bytes_out.load(Ordering::Relaxed),
            bytes_received: self.bytes_in.load(Ordering::Relaxed),
        }
    }
}

/// A submitted run awaiting its reply frames (one per slot), queued to
/// the reader thread in submission order.
struct PendingOp<R> {
    idx: usize,
    is_read: bool,
    slots: Vec<usize>,
    buf: Vec<R>,
    done: Sender<Completion<R>>,
}

/// The client side of one disk's Unix-domain-socket connection (see
/// the module docs for the pipelining discipline).
pub struct UdsTransport<R: Record + ByteRecord> {
    disk: usize,
    /// The connected socket, kept for severing on disconnect/teardown
    /// (the writer and reader threads hold their own clones).
    stream: UnixStream,
    cmd_tx: Option<Sender<Cmd<R>>>,
    writer: Option<JoinHandle<()>>,
    reader: Option<JoinHandle<()>>,
    child: Option<Child>,
    counters: Arc<Counters>,
    /// Set by whichever side sees the link die (submit, writer thread,
    /// fault injection); later commands fail without touching the
    /// socket.
    dead: Arc<AtomicBool>,
    /// Keeps an auto-created socket directory alive for the
    /// connection's lifetime.
    _socket_dir: Option<Arc<TempDir>>,
    /// Spawn parameters retained for [`Transport::respawn`]; `None`
    /// for externally managed workers (which this client cannot
    /// relaunch).
    respawn_spec: Option<RespawnSpec>,
}

impl<R: Record + ByteRecord> UdsTransport<R> {
    /// Connects to a listening worker at `path` and performs the
    /// HELLO handshake. `child` is the worker process to reap on
    /// shutdown, if this client spawned it.
    pub fn connect(
        disk: usize,
        path: &Path,
        block: usize,
        slots: usize,
        child: Option<Child>,
        socket_dir: Option<Arc<TempDir>>,
    ) -> Result<Self> {
        let stream =
            connect_with_retry(path, Duration::from_secs(10)).map_err(|e| e.with_disk(disk))?;
        let mut frame = Vec::new();
        proto::encode_hello(&mut frame, block, R::BYTES, slots);
        stream
            .try_clone()
            .and_then(|mut w| w.write_all(&frame))
            .map_err(|e| PdmError::Io(format!("disk {disk} HELLO: {e}")))?;
        let mut reader_stream = stream
            .try_clone()
            .map_err(|e| PdmError::Io(format!("disk {disk} socket clone: {e}")))?;
        read_frame(&mut reader_stream, &mut frame)
            .map_err(|e| PdmError::Io(format!("disk {disk} HELLO reply: {e}")))?;
        proto::decode_hello_reply(&frame, PROTO_VERSION).map_err(|e| e.with_disk(disk))?;

        let counters = Arc::new(Counters::default());
        let dead = Arc::new(AtomicBool::new(false));
        let (pending_tx, pending_rx) = channel::<PendingOp<R>>();
        let (cmd_tx, cmd_rx) = channel::<Cmd<R>>();
        let reader = {
            let counters = Arc::clone(&counters);
            std::thread::Builder::new()
                .name(format!("pdm-uds-{disk}"))
                .spawn(move || reader_loop::<R>(disk, reader_stream, pending_rx, counters, block))
                .map_err(|e| PdmError::Io(format!("spawn uds reader: {e}")))?
        };
        let writer = {
            let counters = Arc::clone(&counters);
            let dead = Arc::clone(&dead);
            let writer_stream = stream
                .try_clone()
                .map_err(|e| PdmError::Io(format!("disk {disk} socket clone: {e}")))?;
            std::thread::Builder::new()
                .name(format!("pdm-uds-w-{disk}"))
                .spawn(move || {
                    writer_loop::<R>(
                        disk,
                        writer_stream,
                        cmd_rx,
                        pending_tx,
                        counters,
                        dead,
                        block,
                    )
                })
                .map_err(|e| PdmError::Io(format!("spawn uds writer: {e}")))?
        };
        Ok(UdsTransport {
            disk,
            stream,
            cmd_tx: Some(cmd_tx),
            writer: Some(writer),
            reader: Some(reader),
            child,
            counters,
            dead,
            _socket_dir: socket_dir,
            respawn_spec: None,
        })
    }

    /// Retains the spawn parameters so a dead worker can be relaunched
    /// by [`Transport::respawn`].
    pub fn set_respawn_spec(&mut self, spec: RespawnSpec) {
        self.respawn_spec = Some(spec);
    }

    fn teardown(&mut self, graceful: bool) {
        if graceful && !self.dead.load(Ordering::Relaxed) {
            if let Some(tx) = self.cmd_tx.as_ref() {
                let _ = tx.send(Cmd::Stop);
            }
        }
        // Dropping the command sender ends the writer loop once the
        // queue drains; the writer dropping the pending sender then
        // ends the reader the same way. Severing the socket unblocks
        // either thread stuck mid-I/O.
        self.cmd_tx = None;
        if !graceful {
            let _ = self.stream.shutdown(std::net::Shutdown::Both);
        }
        if let Some(h) = self.writer.take() {
            let _ = h.join();
        }
        if let Some(h) = self.reader.take() {
            let _ = h.join();
        }
        let _ = self.stream.shutdown(std::net::Shutdown::Both);
        if let Some(mut child) = self.child.take() {
            if self.dead.load(Ordering::Relaxed) {
                let _ = child.kill();
            }
            let _ = child.wait();
        }
    }
}

/// Encodes and writes request frames for one disk — one frame per
/// block of each run, all of a run's frames in one socket write —
/// registering each run with the reader just before its frames go out
/// (one writer per socket, so pending order equals wire order). A
/// write failure marks the link dead and severs the socket, so the
/// reader answers that run with `Disconnected`; every later queued
/// command is answered the same way here, buffers attached.
fn writer_loop<R: Record + ByteRecord>(
    disk: usize,
    mut stream: UnixStream,
    cmd_rx: Receiver<Cmd<R>>,
    pending_tx: Sender<PendingOp<R>>,
    counters: Arc<Counters>,
    dead: Arc<AtomicBool>,
    block: usize,
) {
    let mut frame = Vec::new();
    while let Ok(cmd) = cmd_rx.recv() {
        if dead.load(Ordering::Relaxed) {
            fail_disconnected(cmd, disk);
            continue;
        }
        frame.clear();
        let op = match cmd {
            Cmd::Read {
                slots,
                buf,
                idx,
                done,
            } => {
                for (j, &slot) in slots.iter().enumerate() {
                    proto::encode_read(&mut frame, j as u64, slot as u64);
                }
                PendingOp {
                    idx,
                    is_read: true,
                    slots,
                    buf,
                    done,
                }
            }
            Cmd::Write {
                slots,
                buf,
                idx,
                done,
            } => {
                for (j, (&slot, chunk)) in slots.iter().zip(buf.chunks_exact(block)).enumerate() {
                    proto::encode_write(&mut frame, j as u64, slot as u64, chunk);
                }
                PendingOp {
                    idx,
                    is_read: false,
                    slots,
                    buf,
                    done,
                }
            }
            Cmd::Stop => {
                proto::encode_stop(&mut frame);
                let _ = stream.write_all(&frame);
                break;
            }
        };
        // Count first: once the run is registered, its replies may be
        // answered before this thread gets past the write, and a caller
        // reading the counters must already see the requests. (The
        // hand-offs to the reader and on to the caller are channel
        // sends, so these relaxed updates happen before any answer.)
        let (frames, bytes) = (op.slots.len() as u64, frame.len() as u64);
        counters.msgs_out.fetch_add(frames, Ordering::Relaxed);
        counters.bytes_out.fetch_add(bytes, Ordering::Relaxed);
        let uncount = || {
            counters.msgs_out.fetch_sub(frames, Ordering::Relaxed);
            counters.bytes_out.fetch_sub(bytes, Ordering::Relaxed);
        };
        // Register before writing: the worker starts answering at the
        // first frame, and a long run's replies can outgrow the socket
        // buffer before its last request is written.
        if let Err(send_err) = pending_tx.send(op) {
            // The reader is gone (socket died): answer directly.
            uncount();
            dead.store(true, Ordering::Relaxed);
            let p = send_err.0;
            let _ = p.done.send(Completion {
                idx: p.idx,
                disk,
                buf: p.buf,
                slots: p.slots,
                result: Err(PdmError::Disconnected { disk }),
            });
            continue;
        }
        if stream.write_all(&frame).is_err() {
            // The run is registered, so the reader answers it: severing
            // the socket makes its pending reads fail.
            uncount();
            dead.store(true, Ordering::Relaxed);
            let _ = stream.shutdown(std::net::Shutdown::Both);
        }
    }
    // Dropping pending_tx lets the reader drain in-flight ops and exit.
}

/// Decodes one reply frame of a run into `chunk` (reads) and reports
/// the block's outcome.
fn decode_block_reply<R: ByteRecord>(
    disk: usize,
    frame: &[u8],
    j: usize,
    is_read: bool,
    chunk: &mut [R],
) -> Result<()> {
    let reply = proto::decode_reply(frame)?;
    debug_assert_eq!(reply.idx, j as u64, "reply out of order");
    let payload = reply.result?;
    if !is_read {
        return Ok(());
    }
    if payload.len() != chunk.len() * R::BYTES {
        return Err(PdmError::Io(format!(
            "disk {disk} read reply carries {} bytes, expected {}",
            payload.len(),
            chunk.len() * R::BYTES
        )));
    }
    for (bytes, r) in payload.chunks_exact(R::BYTES).zip(chunk.iter_mut()) {
        *r = R::from_bytes(bytes);
    }
    Ok(())
}

/// Matches reply frames to pending runs in FIFO order — one frame per
/// slot — and answers each run once; a broken socket answers the rest
/// with `Disconnected`.
fn reader_loop<R: Record + ByteRecord>(
    disk: usize,
    stream: UnixStream,
    pending_rx: Receiver<PendingOp<R>>,
    counters: Arc<Counters>,
    block: usize,
) {
    let mut reader = BufReader::with_capacity(64 * 1024, stream);
    let mut frame = Vec::new();
    while let Ok(mut p) = pending_rx.recv() {
        let mut result = Ok(());
        for (j, chunk) in p.buf.chunks_exact_mut(block).enumerate() {
            let r = match read_frame(&mut reader, &mut frame) {
                Ok(wire_bytes) => {
                    counters.msgs_in.fetch_add(1, Ordering::Relaxed);
                    counters
                        .bytes_in
                        .fetch_add(wire_bytes as u64, Ordering::Relaxed);
                    decode_block_reply(disk, &frame, j, p.is_read, chunk)
                }
                // The stream is gone: no later frame of this run (or
                // any other) will arrive.
                Err(_) => {
                    result = Err(PdmError::Disconnected { disk });
                    break;
                }
            };
            if result.is_ok() {
                result = r;
            }
        }
        let _ = p.done.send(Completion {
            idx: p.idx,
            disk,
            buf: p.buf,
            slots: p.slots,
            result,
        });
    }
}

impl<R: Record + ByteRecord> Transport<R> for UdsTransport<R> {
    fn disk(&self) -> usize {
        self.disk
    }

    fn submit(&mut self, cmd: Cmd<R>) {
        if self.dead.load(Ordering::Relaxed) {
            fail_disconnected(cmd, self.disk);
            return;
        }
        if matches!(cmd, Cmd::Stop) {
            // Graceful stop flows through teardown so the threads join.
            return;
        }
        match self.cmd_tx.as_ref().map(|tx| tx.send(cmd)) {
            Some(Ok(())) => {}
            Some(Err(send_err)) => {
                self.dead.store(true, Ordering::Relaxed);
                fail_disconnected(send_err.0, self.disk);
            }
            None => unreachable!("cmd_tx lives until teardown"),
        }
    }

    fn message_stats(&self) -> MsgStats {
        self.counters.snapshot()
    }

    fn inject_disconnect(&mut self) {
        self.dead.store(true, Ordering::Relaxed);
        // Sever the socket (in-flight replies error out on the reader)
        // and kill the worker — the crash we are simulating.
        let _ = self.stream.shutdown(std::net::Shutdown::Both);
        if let Some(child) = self.child.as_mut() {
            let _ = child.kill();
        }
    }

    fn respawn(&mut self) -> Result<bool> {
        if !self.dead.load(Ordering::Relaxed) {
            return Ok(false);
        }
        let Some(spec) = self.respawn_spec.take() else {
            return Err(PdmError::Io(format!(
                "disk {}: worker is externally managed, cannot respawn",
                self.disk
            )));
        };
        if spec.file.is_none() {
            // A relaunched memory-backed worker comes up zeroed —
            // that is data loss dressed as recovery. Refuse.
            self.respawn_spec = Some(spec);
            return Err(PdmError::Io(format!(
                "disk {}: memory-backed worker lost its store with the process, cannot respawn",
                self.disk
            )));
        }
        // Join the dead link's threads and reap the old child, then
        // relaunch with --reopen and redo the handshake.
        self.teardown(false);
        let fresh = spec.launch(spec.block * R::BYTES, true).and_then(|child| {
            Self::connect(
                self.disk,
                &spec.socket,
                spec.block,
                spec.slots,
                Some(child),
                self._socket_dir.clone(),
            )
        });
        match fresh {
            Ok(mut fresh) => {
                // Message counters are per-disk, not per-process: carry
                // the dead incarnation's totals forward.
                let old = self.counters.snapshot();
                fresh
                    .counters
                    .msgs_out
                    .fetch_add(old.messages_sent, Ordering::Relaxed);
                fresh
                    .counters
                    .msgs_in
                    .fetch_add(old.messages_received, Ordering::Relaxed);
                fresh
                    .counters
                    .bytes_out
                    .fetch_add(old.bytes_sent, Ordering::Relaxed);
                fresh
                    .counters
                    .bytes_in
                    .fetch_add(old.bytes_received, Ordering::Relaxed);
                fresh.respawn_spec = Some(spec);
                // The replaced (already torn down) incarnation drops
                // here; its teardown is idempotent.
                *self = fresh;
                Ok(true)
            }
            Err(e) => {
                self.respawn_spec = Some(spec);
                Err(e)
            }
        }
    }

    fn shutdown(&mut self) -> Option<Box<dyn DiskUnit<R>>> {
        self.teardown(true);
        None
    }
}

impl<R: Record + ByteRecord> Drop for UdsTransport<R> {
    fn drop(&mut self) {
        self.teardown(true);
    }
}

fn connect_with_retry(path: &Path, timeout: Duration) -> Result<UnixStream> {
    let start = Instant::now();
    loop {
        match UnixStream::connect(path) {
            Ok(s) => return Ok(s),
            Err(e) => {
                if start.elapsed() > timeout {
                    return Err(PdmError::Io(format!(
                        "connect {}: {e} (worker not listening)",
                        path.display()
                    )));
                }
                std::thread::sleep(Duration::from_millis(2));
            }
        }
    }
}

/// Spawns one `pdm-diskd` worker process per disk and connects a
/// [`UdsTransport`] to each. Workers are spawned first and connected
/// after, so their startups overlap. `slots` is blocks per disk;
/// the `backend` chooses memory- or file-backed worker storage.
pub fn spawn_uds_workers<R: Record + ByteRecord>(
    disks: usize,
    block: usize,
    slots: usize,
    backend: &Backend,
    cfg: &UdsConfig,
) -> Result<Vec<Box<dyn Transport<R>>>> {
    let bin = match &cfg.worker_bin {
        Some(p) => p.clone(),
        None => find_diskd().ok_or_else(|| {
            PdmError::Config(
                "pdm-diskd worker binary not found; build it (cargo build) or set PDM_DISKD_BIN"
                    .into(),
            )
        })?,
    };
    let (socket_base, guard) = match &cfg.socket_dir {
        Some(dir) => {
            std::fs::create_dir_all(dir)
                .map_err(|e| PdmError::Io(format!("create_dir_all {}: {e}", dir.display())))?;
            (dir.clone(), None)
        }
        None => {
            let tmp = Arc::new(TempDir::new("pdm-uds"));
            (tmp.path().to_path_buf(), Some(tmp))
        }
    };
    if let Backend::File { dir } = backend {
        std::fs::create_dir_all(dir)
            .map_err(|e| PdmError::Io(format!("create_dir_all {}: {e}", dir.display())))?;
    }

    let mut children: Vec<(RespawnSpec, Child)> = Vec::with_capacity(disks);
    for d in 0..disks {
        let spec = RespawnSpec {
            bin: bin.clone(),
            socket: socket_base.join(format!("disk{d:03}.sock")),
            block,
            slots,
            file: match backend {
                Backend::File { dir } => Some(dir.join(format!("disk{d:03}.bin"))),
                _ => None,
            },
        };
        match spec.launch(block * R::BYTES, false) {
            Ok(child) => children.push((spec, child)),
            Err(e) => {
                for (_, mut c) in children {
                    let _ = c.kill();
                    let _ = c.wait();
                }
                return Err(e);
            }
        }
    }

    let mut transports: Vec<Box<dyn Transport<R>>> = Vec::with_capacity(disks);
    let mut children = children.into_iter();
    for d in 0..disks {
        let (spec, child) = children.next().expect("one child per disk");
        match UdsTransport::<R>::connect(d, &spec.socket, block, slots, Some(child), guard.clone())
        {
            Ok(mut t) => {
                t.set_respawn_spec(spec);
                transports.push(Box::new(t));
            }
            Err(e) => {
                // Connected transports clean up on drop; reap the rest.
                for (_, mut c) in children {
                    let _ = c.kill();
                    let _ = c.wait();
                }
                return Err(e);
            }
        }
    }
    Ok(transports)
}

// ---------------------------------------------------------------------
// A blocking DiskUnit client (the job service's remote disk farm).

/// Blocks per pipelined [`RemoteDisk`] exchange: one socket write
/// carries the window's request frames, then the client reads their
/// replies in order.
///
/// Both ends block: the client in its request write, the worker in
/// its reply writes. They cannot wait on each other because a window's
/// small direction — its read requests (21 wire bytes each) or its
/// write replies (13 bytes each, a few dozen for an error) — fits in
/// a Unix socket buffer without being read. Even at one kernel buffer
/// per frame (about 1 KiB of accounting apiece), 64 frames stay far
/// below the default ~208 KiB send buffer. So a write window's replies
/// queue unread while the client finishes sending its blocks, and a
/// read window's requests all go out before the client turns to read
/// the large replies.
const RUN_WINDOW: usize = 64;

/// A synchronous [`DiskUnit`] over a `pdm-diskd` socket with bounded
/// transparent worker respawn — the building block of the job
/// service's UDS disk farm, where each farm worker thread drives one
/// remote disk and a killed worker process must not take jobs down
/// with it.
///
/// Unlike [`UdsTransport`] (split-phase, feeding the engine),
/// `RemoteDisk` works on the calling thread, a run at a time
/// ([`DiskUnit::read_run`] / [`DiskUnit::write_run`]): it encodes up to
/// 64 request frames into one reused buffer, sends them with
/// one socket write, and reads the replies in order through a buffered
/// reader straight into the run buffer. The frames are the per-block
/// ones of [`crate::proto`], so message and byte counts match
/// [`UdsTransport`]'s. On a dead socket it relaunches the worker per its
/// [`RespawnSpec`] (file-backed stores reopen without truncation),
/// replays the handshake, and replays the interrupted run once — reads
/// are idempotent and re-sent writes carry the same bytes, so the
/// replay is safe. Respawns are bounded by `max_respawns` over the
/// disk's lifetime, and a run uses at most one; past the budget (or for
/// a memory-backed store, whose contents died with the process) the
/// typed [`PdmError::Disconnected`] surfaces exactly as without
/// recovery.
pub struct RemoteDisk<R: Record + ByteRecord> {
    spec: RespawnSpec,
    /// The worker connection; requests are written through
    /// `get_mut()`, replies read through the buffer.
    stream: Option<BufReader<UnixStream>>,
    child: Option<Child>,
    /// Crash injection: armed by the owner; consumed at the start of
    /// the next run, which kills the worker mid-service and then
    /// recovers through the respawn path.
    kill: Arc<AtomicBool>,
    /// Shared ledger of successful respawns (the farm aggregates one
    /// counter across its disks for service-level reporting).
    respawns: Arc<AtomicU64>,
    max_respawns: u32,
    used_respawns: u32,
    seq: u64,
    req: Vec<u8>,
    rep: Vec<u8>,
    _records: PhantomData<R>,
}

impl<R: Record + ByteRecord> RemoteDisk<R> {
    /// Spawns a fresh worker per `spec` (truncating any existing
    /// store) and connects. `kill` and `respawns` are shared with the
    /// owner for fault injection and accounting.
    pub fn launch(
        spec: RespawnSpec,
        max_respawns: u32,
        kill: Arc<AtomicBool>,
        respawns: Arc<AtomicU64>,
    ) -> Result<Self> {
        let mut child = spec.launch(spec.block * R::BYTES, false)?;
        let stream = match Self::handshake(&spec) {
            Ok(s) => s,
            Err(e) => {
                let _ = child.kill();
                let _ = child.wait();
                return Err(e);
            }
        };
        Ok(RemoteDisk {
            spec,
            stream: Some(stream),
            child: Some(child),
            kill,
            respawns,
            max_respawns,
            used_respawns: 0,
            seq: 0,
            req: Vec::new(),
            rep: Vec::new(),
            _records: PhantomData,
        })
    }

    /// Successful respawns this disk has performed.
    pub fn respawns_used(&self) -> u32 {
        self.used_respawns
    }

    fn handshake(spec: &RespawnSpec) -> Result<BufReader<UnixStream>> {
        let mut stream = connect_with_retry(&spec.socket, Duration::from_secs(10))?;
        let mut frame = Vec::new();
        proto::encode_hello(&mut frame, spec.block, R::BYTES, spec.slots);
        stream
            .write_all(&frame)
            .map_err(|e| PdmError::Io(format!("remote disk HELLO: {e}")))?;
        read_frame(&mut stream, &mut frame)
            .map_err(|e| PdmError::Io(format!("remote disk HELLO reply: {e}")))?;
        proto::decode_hello_reply(&frame, PROTO_VERSION)?;
        Ok(BufReader::with_capacity(64 * 1024, stream))
    }

    /// Consumes an armed kill flag: murders the worker and severs the
    /// socket, so the run's first exchange observes the crash.
    fn maybe_kill(&mut self) {
        if self.kill.swap(false, Ordering::Relaxed) {
            if let Some(c) = self.child.as_mut() {
                let _ = c.kill();
            }
            if let Some(s) = self.stream.take() {
                let _ = s.get_ref().shutdown(std::net::Shutdown::Both);
            }
        }
    }

    /// Relaunches a dead worker (`--reopen`: the file-backed store
    /// survives) and replays the handshake, within the respawn budget.
    fn recover(&mut self) -> Result<()> {
        if self.spec.file.is_none() || self.used_respawns >= self.max_respawns {
            return Err(PdmError::Disconnected { disk: usize::MAX });
        }
        if let Some(mut c) = self.child.take() {
            let _ = c.kill();
            let _ = c.wait();
        }
        self.stream = None;
        let mut child = self.spec.launch(self.spec.block * R::BYTES, true)?;
        let stream = match Self::handshake(&self.spec) {
            Ok(s) => s,
            Err(e) => {
                let _ = child.kill();
                let _ = child.wait();
                return Err(e);
            }
        };
        self.child = Some(child);
        self.stream = Some(stream);
        self.used_respawns += 1;
        self.respawns.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    /// Moves one run over the socket, [`RUN_WINDOW`] blocks per
    /// exchange: `encode` appends block `j`'s request frame under the
    /// given index, `decode` takes block `j`'s reply payload. Every
    /// block is attempted and the first failure is returned, except
    /// that a broken socket returns `Disconnected` at once, with the
    /// stream dropped so the caller's recovery path engages.
    fn exchange_run(
        &mut self,
        blocks: usize,
        mut encode: impl FnMut(&mut Vec<u8>, u64, usize),
        mut decode: impl FnMut(usize, &[u8]) -> Result<()>,
    ) -> Result<()> {
        let mut result = Ok(());
        for start in (0..blocks).step_by(RUN_WINDOW) {
            let window = start..blocks.min(start + RUN_WINDOW);
            let first_seq = self.seq + 1;
            self.req.clear();
            for j in window.clone() {
                self.seq += 1;
                encode(&mut self.req, self.seq, j);
            }
            let Some(stream) = self.stream.as_mut() else {
                return Err(PdmError::Disconnected { disk: usize::MAX });
            };
            if stream.get_mut().write_all(&self.req).is_err() {
                self.stream = None;
                return Err(PdmError::Disconnected { disk: usize::MAX });
            }
            for (seq, j) in (first_seq..).zip(window) {
                if read_frame(stream, &mut self.rep).is_err() {
                    self.stream = None;
                    return Err(PdmError::Disconnected { disk: usize::MAX });
                }
                let r = proto::decode_reply(&self.rep).and_then(|reply| {
                    if reply.idx != seq {
                        return Err(PdmError::Io(format!(
                            "remote disk reply {} answers request {seq}",
                            reply.idx
                        )));
                    }
                    decode(j, reply.result?)
                });
                if result.is_ok() {
                    result = r;
                }
            }
        }
        result
    }

    fn read_run_once(&mut self, slots: &[usize], buf: &mut [R]) -> Result<()> {
        let block = self.spec.block;
        self.exchange_run(
            slots.len(),
            |req, seq, j| proto::encode_read(req, seq, slots[j] as u64),
            |j, payload| {
                let out = &mut buf[j * block..(j + 1) * block];
                if payload.len() != block * R::BYTES {
                    return Err(PdmError::Io(format!(
                        "remote disk read reply carries {} bytes, expected {}",
                        payload.len(),
                        block * R::BYTES
                    )));
                }
                for (bytes, r) in payload.chunks_exact(R::BYTES).zip(out.iter_mut()) {
                    *r = R::from_bytes(bytes);
                }
                Ok(())
            },
        )
    }

    fn write_run_once(&mut self, slots: &[usize], buf: &[R]) -> Result<()> {
        let block = self.spec.block;
        self.exchange_run(
            slots.len(),
            |req, seq, j| {
                proto::encode_write(req, seq, slots[j] as u64, &buf[j * block..(j + 1) * block])
            },
            |_, _| Ok(()),
        )
    }
}

impl<R: Record + ByteRecord> DiskUnit<R> for RemoteDisk<R> {
    fn slots(&self) -> usize {
        self.spec.slots
    }

    fn block(&self) -> usize {
        self.spec.block
    }

    fn read(&mut self, slot: usize, out: &mut [R]) -> Result<()> {
        self.read_run(std::slice::from_ref(&slot), out)
    }

    fn write(&mut self, slot: usize, data: &[R]) -> Result<()> {
        self.write_run(std::slice::from_ref(&slot), data)
    }

    fn read_run(&mut self, slots: &[usize], buf: &mut [R]) -> Result<()> {
        debug_assert_eq!(buf.len(), slots.len() * self.spec.block, "run buffer size");
        self.maybe_kill();
        match self.read_run_once(slots, buf) {
            Err(PdmError::Disconnected { .. }) => {
                self.recover()?;
                self.read_run_once(slots, buf)
            }
            r => r,
        }
    }

    fn write_run(&mut self, slots: &[usize], buf: &[R]) -> Result<()> {
        debug_assert_eq!(buf.len(), slots.len() * self.spec.block, "run buffer size");
        self.maybe_kill();
        match self.write_run_once(slots, buf) {
            Err(PdmError::Disconnected { .. }) => {
                self.recover()?;
                self.write_run_once(slots, buf)
            }
            r => r,
        }
    }
}

impl<R: Record + ByteRecord> Drop for RemoteDisk<R> {
    fn drop(&mut self) {
        let graceful = if let Some(mut s) = self.stream.take() {
            self.req.clear();
            proto::encode_stop(&mut self.req);
            s.get_mut().write_all(&self.req).is_ok()
        } else {
            false
        };
        if let Some(mut c) = self.child.take() {
            if !graceful {
                let _ = c.kill();
            }
            let _ = c.wait();
        }
    }
}

// ---------------------------------------------------------------------
// The simulated-network transport.

/// The deterministic simulated network: request and reply take the
/// full encode → [`Worker::handle`] → decode path of the real wire
/// protocol, synchronously, with [`SimNetModel`] time accrued per
/// frame (collected by
/// [`crate::system::DiskSystem::network_ms`] and, when timing is
/// enabled, folded into the makespan).
pub struct SimNetTransport<R: Record + ByteRecord> {
    disk: usize,
    worker: Worker,
    model: SimNetModel,
    stats: MsgStats,
    sim_ms: f64,
    dead: bool,
    req: Vec<u8>,
    rep: Vec<u8>,
    _records: PhantomData<R>,
}

impl<R: Record + ByteRecord> SimNetTransport<R> {
    /// A memory-backed simulated worker for `disk`.
    pub fn new_mem(disk: usize, block: usize, slots: usize, model: SimNetModel) -> Result<Self> {
        Ok(Self::with_worker(
            disk,
            Worker::new_mem(block_bytes::<R>(block)?, slots)?,
            model,
        ))
    }

    /// A file-backed simulated worker for `disk`, storing at `path`.
    pub fn new_file(
        disk: usize,
        path: &Path,
        block: usize,
        slots: usize,
        model: SimNetModel,
    ) -> Result<Self> {
        Ok(Self::with_worker(
            disk,
            Worker::new_file(path, block_bytes::<R>(block)?, slots)?,
            model,
        ))
    }

    fn with_worker(disk: usize, worker: Worker, model: SimNetModel) -> Self {
        SimNetTransport {
            disk,
            worker,
            model,
            stats: MsgStats::default(),
            sim_ms: 0.0,
            dead: false,
            req: Vec::new(),
            rep: Vec::new(),
            _records: PhantomData,
        }
    }

    /// Sends the single frame in `req` through the worker and decodes
    /// the reply into `chunk` (reads).
    fn round_trip(&mut self, is_read: bool, chunk: &mut [R]) -> Result<()> {
        self.stats.messages_sent += 1;
        self.stats.bytes_sent += self.req.len() as u64;
        self.sim_ms += self.model.transfer_ms(self.req.len() as u64);
        self.rep.clear();
        if !self
            .worker
            .handle(&self.req[FRAME_HEADER..], &mut self.rep)?
        {
            return Err(PdmError::Io("worker answered STOP to a transfer".into()));
        }
        self.stats.messages_received += 1;
        self.stats.bytes_received += self.rep.len() as u64;
        self.sim_ms += self.model.transfer_ms(self.rep.len() as u64);
        let payload = proto::decode_reply(&self.rep[FRAME_HEADER..])?.result?;
        if is_read {
            for (bytes, r) in payload.chunks_exact(R::BYTES).zip(chunk.iter_mut()) {
                *r = R::from_bytes(bytes);
            }
        }
        Ok(())
    }
}

impl<R: Record + ByteRecord> Transport<R> for SimNetTransport<R> {
    fn disk(&self) -> usize {
        self.disk
    }

    /// Expands the run into one frame round trip per block, then
    /// answers once.
    fn submit(&mut self, cmd: Cmd<R>) {
        if self.dead {
            fail_disconnected(cmd, self.disk);
            return;
        }
        let (is_read, slots, mut buf, idx, done) = match cmd {
            Cmd::Read {
                slots,
                buf,
                idx,
                done,
            } => (true, slots, buf, idx, done),
            Cmd::Write {
                slots,
                buf,
                idx,
                done,
            } => (false, slots, buf, idx, done),
            Cmd::Stop => return,
        };
        let block = self.worker.block_bytes() / R::BYTES;
        let mut result = Ok(());
        for (j, (&slot, chunk)) in slots.iter().zip(buf.chunks_exact_mut(block)).enumerate() {
            self.req.clear();
            if is_read {
                proto::encode_read(&mut self.req, j as u64, slot as u64);
            } else {
                proto::encode_write(&mut self.req, j as u64, slot as u64, chunk);
            }
            let r = self.round_trip(is_read, chunk);
            if result.is_ok() {
                result = r;
            }
        }
        let _ = done.send(Completion {
            idx,
            disk: self.disk,
            buf,
            slots,
            result,
        });
    }

    fn message_stats(&self) -> MsgStats {
        self.stats
    }

    fn take_sim_ms(&mut self) -> f64 {
        std::mem::take(&mut self.sim_ms)
    }

    fn inject_disconnect(&mut self) {
        self.dead = true;
    }

    fn respawn(&mut self) -> Result<bool> {
        // The simulated worker lives in this process: its store
        // survived the "crash", so reviving the link is the whole
        // recovery — the deterministic stand-in for a UDS relaunch.
        Ok(std::mem::take(&mut self.dead))
    }

    fn shutdown(&mut self) -> Option<Box<dyn DiskUnit<R>>> {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sim_model_charges_latency_plus_bandwidth() {
        let m = SimNetModel {
            latency_ms: 0.5,
            mb_per_s: 1.0,
        };
        // 1000 bytes at 1 MB/s = 1 ms, plus 0.5 ms latency.
        assert!((m.transfer_ms(1000) - 1.5).abs() < 1e-12);
        assert!((m.transfer_ms(0) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn sim_transport_round_trip_counts_messages_and_time() {
        let mut t = SimNetTransport::<u64>::new_mem(0, 2, 4, SimNetModel::lan()).unwrap();
        let (tx, rx) = channel();
        t.submit(Cmd::Write {
            slots: vec![1],
            buf: vec![10, 11],
            idx: 0,
            done: tx.clone(),
        });
        rx.recv().unwrap().result.unwrap();
        t.submit(Cmd::Read {
            slots: vec![1],
            buf: vec![0, 0],
            idx: 1,
            done: tx,
        });
        let c = rx.recv().unwrap();
        c.result.unwrap();
        assert_eq!(c.buf, vec![10, 11]);
        let s = t.message_stats();
        assert_eq!(s.messages_sent, 2);
        assert_eq!(s.messages_received, 2);
        assert!(s.bytes_sent > 0 && s.bytes_received > 0);
        let ms = t.take_sim_ms();
        assert!(ms > 0.0);
        assert_eq!(t.take_sim_ms(), 0.0, "take resets the accrual");
    }

    #[test]
    fn sim_transport_expands_a_run_into_per_block_frames() {
        let mut t = SimNetTransport::<u64>::new_mem(0, 2, 4, SimNetModel::lan()).unwrap();
        let (tx, rx) = channel();
        t.submit(Cmd::Write {
            slots: vec![3, 0, 2],
            buf: vec![30, 31, 0, 1, 20, 21],
            idx: 0,
            done: tx.clone(),
        });
        rx.recv().unwrap().result.unwrap();
        let writes = t.message_stats();
        assert_eq!((writes.messages_sent, writes.messages_received), (3, 3));
        t.submit(Cmd::Read {
            slots: vec![2, 3],
            buf: vec![0; 4],
            idx: 1,
            done: tx,
        });
        let c = rx.recv().unwrap();
        c.result.unwrap();
        assert_eq!(c.buf, vec![20, 21, 30, 31]);
        assert!(rx.try_recv().is_err(), "one completion per run");
        let s = t.message_stats();
        assert_eq!((s.messages_sent, s.messages_received), (5, 5));
        // Bytes equal five single-block round trips.
        let mut single = SimNetTransport::<u64>::new_mem(0, 2, 4, SimNetModel::lan()).unwrap();
        let (tx, rx) = channel();
        for (slot, buf) in [(3, vec![30, 31]), (0, vec![0, 1]), (2, vec![20, 21])] {
            single.submit(Cmd::Write {
                slots: vec![slot],
                buf,
                idx: 0,
                done: tx.clone(),
            });
        }
        for slot in [2, 3] {
            single.submit(Cmd::Read {
                slots: vec![slot],
                buf: vec![0; 2],
                idx: 0,
                done: tx.clone(),
            });
        }
        for _ in 0..5 {
            rx.recv().unwrap().result.unwrap();
        }
        assert_eq!(single.message_stats(), s);
    }

    #[test]
    fn sim_transport_disconnect_answers_without_worker() {
        let mut t = SimNetTransport::<u64>::new_mem(3, 2, 4, SimNetModel::lan()).unwrap();
        let before = t.message_stats();
        t.inject_disconnect();
        let (tx, rx) = channel();
        t.submit(Cmd::Read {
            slots: vec![0],
            buf: vec![0, 0],
            idx: 0,
            done: tx,
        });
        let c = rx.recv().unwrap();
        assert!(matches!(c.result, Err(PdmError::Disconnected { disk: 3 })));
        assert_eq!(c.buf.len(), 2);
        assert_eq!(t.message_stats(), before, "dead link moves no messages");
    }

    #[test]
    fn serve_stream_over_socketpair_round_trip() {
        // A worker on a plain thread over a socketpair: the same serve
        // loop pdm-diskd runs, no process spawn needed.
        let (client, server) = UnixStream::pair().unwrap();
        let handle = std::thread::spawn(move || {
            let mut worker = Worker::new_mem(16, 8).unwrap();
            serve_stream(server, &mut worker).unwrap();
        });
        let mut frame = Vec::new();
        proto::encode_hello(&mut frame, 2, 8, 8);
        let mut writer = client.try_clone().unwrap();
        writer.write_all(&frame).unwrap();
        let mut reader = client.try_clone().unwrap();
        read_frame(&mut reader, &mut frame).unwrap();
        proto::decode_hello_reply(&frame, PROTO_VERSION).unwrap();
        // One write, one read back.
        let mut req = Vec::new();
        proto::encode_write::<u64>(&mut req, 0, 3, &[111, 222]);
        writer.write_all(&req).unwrap();
        read_frame(&mut reader, &mut frame).unwrap();
        assert!(proto::decode_reply(&frame).unwrap().result.is_ok());
        req.clear();
        proto::encode_read(&mut req, 1, 3);
        writer.write_all(&req).unwrap();
        read_frame(&mut reader, &mut frame).unwrap();
        let reply = proto::decode_reply(&frame).unwrap();
        let payload = reply.result.unwrap();
        assert_eq!(u64::from_bytes(&payload[..8]), 111);
        assert_eq!(u64::from_bytes(&payload[8..]), 222);
        // STOP ends the serve loop.
        req.clear();
        proto::encode_stop(&mut req);
        writer.write_all(&req).unwrap();
        handle.join().unwrap();
    }

    #[test]
    fn serve_stream_refuses_version_mismatch() {
        let (client, server) = UnixStream::pair().unwrap();
        let handle = std::thread::spawn(move || {
            let mut worker = Worker::new_mem(16, 8).unwrap();
            serve_stream_with_version(server, &mut worker, PROTO_VERSION + 1).unwrap();
        });
        let mut frame = Vec::new();
        proto::encode_hello(&mut frame, 2, 8, 8);
        let mut writer = client.try_clone().unwrap();
        writer.write_all(&frame).unwrap();
        let mut reader = client;
        read_frame(&mut reader, &mut frame).unwrap();
        let err = proto::decode_hello_reply(&frame, PROTO_VERSION).unwrap_err();
        assert!(matches!(
            err,
            PdmError::ProtocolVersion {
                expected: PROTO_VERSION,
                ..
            }
        ));
        handle.join().unwrap();
    }

    #[test]
    fn serve_stream_refuses_geometry_mismatch() {
        let (client, server) = UnixStream::pair().unwrap();
        let handle = std::thread::spawn(move || {
            let mut worker = Worker::new_mem(16, 8).unwrap();
            serve_stream(server, &mut worker).unwrap();
        });
        let mut frame = Vec::new();
        proto::encode_hello(&mut frame, 2, 8, 99); // wrong slot count
        let mut writer = client.try_clone().unwrap();
        writer.write_all(&frame).unwrap();
        let mut reader = client;
        read_frame(&mut reader, &mut frame).unwrap();
        assert!(matches!(
            proto::decode_hello_reply(&frame, PROTO_VERSION),
            Err(PdmError::Config(_))
        ));
        handle.join().unwrap();
    }

    #[test]
    fn sim_transport_respawn_revives_the_link_with_data_intact() {
        let mut t = SimNetTransport::<u64>::new_mem(2, 2, 4, SimNetModel::lan()).unwrap();
        let (tx, rx) = channel();
        t.submit(Cmd::Write {
            slots: vec![0],
            buf: vec![5, 6],
            idx: 0,
            done: tx.clone(),
        });
        rx.recv().unwrap().result.unwrap();
        assert!(!t.respawn().unwrap(), "healthy link: nothing to do");
        t.inject_disconnect();
        assert!(t.respawn().unwrap());
        t.submit(Cmd::Read {
            slots: vec![0],
            buf: vec![0, 0],
            idx: 1,
            done: tx,
        });
        let c = rx.recv().unwrap();
        c.result.unwrap();
        assert_eq!(c.buf, vec![5, 6], "store survived the crash");
    }

    /// A [`RemoteDisk`] connected to a memory worker served on a plain
    /// thread: the run exchange without the worker binary (no child,
    /// so nothing to respawn).
    fn remote_disk_on_thread(
        dir: &TempDir,
        block: usize,
        slots: usize,
    ) -> (RemoteDisk<u64>, JoinHandle<()>) {
        let socket = dir.path().join("r.sock");
        let listener = UnixListener::bind(&socket).unwrap();
        let server = std::thread::spawn(move || {
            let (stream, _) = listener.accept().unwrap();
            let mut worker = Worker::new_mem(block * u64::BYTES, slots).unwrap();
            serve_stream(stream, &mut worker).unwrap();
        });
        let spec = RespawnSpec {
            bin: PathBuf::new(),
            socket,
            block,
            slots,
            file: None,
        };
        let stream = RemoteDisk::<u64>::handshake(&spec).unwrap();
        let disk = RemoteDisk {
            spec,
            stream: Some(stream),
            child: None,
            kill: Arc::default(),
            respawns: Arc::default(),
            max_respawns: 0,
            used_respawns: 0,
            seq: 0,
            req: Vec::new(),
            rep: Vec::new(),
            _records: PhantomData,
        };
        (disk, server)
    }

    /// An out-of-range slot inside a pipelined run fails only its own
    /// block: every other block of the run (across several windows)
    /// still moves, and the first failure is the one reported — the
    /// per-block loop's contract.
    #[test]
    fn remote_disk_run_executes_every_block_around_a_bad_slot() {
        let dir = TempDir::new("pdm-remote-run");
        let (block, slots) = (2, 256);
        let (mut disk, server) = remote_disk_on_thread(&dir, block, slots);
        let len = 2 * RUN_WINDOW + 10;
        let mut run: Vec<usize> = (0..len).collect();
        run[RUN_WINDOW + 5] = 999; // first bad slot, in the second window
        run[len - 3] = 1000; // a later one
        let data: Vec<u64> = (0..(len * block) as u64).map(|x| x + 1).collect();
        let first_bad = PdmError::OutOfRange {
            disk: usize::MAX,
            slot: 999,
            slots_per_disk: slots,
        };
        assert_eq!(disk.write_run(&run, &data), Err(first_bad.clone()));
        let mut out = vec![0u64; len * block];
        assert_eq!(disk.read_run(&run, &mut out), Err(first_bad));
        for (j, &slot) in run.iter().enumerate() {
            let (got, want) = (
                &out[j * block..(j + 1) * block],
                &data[j * block..(j + 1) * block],
            );
            if slot < slots {
                assert_eq!(got, want, "block {j} round-trips");
            } else {
                assert_eq!(got, [0, 0], "bad block {j} is left alone");
            }
        }
        // The stream stayed in step: a single-block call still works.
        let mut one = [0u64; 2];
        disk.read(0, &mut one).unwrap();
        assert_eq!(one, [1, 2]);
        drop(disk); // STOP
        server.join().unwrap();
    }

    /// The worker coalesces its replies, but a STOP that arrives in the
    /// same read as earlier requests must not strand their replies.
    #[test]
    fn serve_stream_flushes_pending_replies_before_stop() {
        let (client, server) = UnixStream::pair().unwrap();
        let handle = std::thread::spawn(move || {
            let mut worker = Worker::new_mem(16, 8).unwrap();
            serve_stream(server, &mut worker).unwrap();
        });
        let mut req = Vec::new();
        proto::encode_hello(&mut req, 2, 8, 8);
        for slot in 0..8u64 {
            proto::encode_write::<u64>(&mut req, slot, slot, &[slot, slot + 10]);
        }
        for slot in 0..8u64 {
            proto::encode_read(&mut req, 8 + slot, slot);
        }
        proto::encode_stop(&mut req);
        let mut writer = client.try_clone().unwrap();
        writer.write_all(&req).unwrap();
        let mut reader = BufReader::new(client);
        let mut frame = Vec::new();
        read_frame(&mut reader, &mut frame).unwrap();
        proto::decode_hello_reply(&frame, PROTO_VERSION).unwrap();
        for idx in 0..16u64 {
            read_frame(&mut reader, &mut frame).unwrap();
            let reply = proto::decode_reply(&frame).unwrap();
            assert_eq!(reply.idx, idx);
            let payload = reply.result.unwrap();
            if idx >= 8 {
                assert_eq!(u64::from_bytes(&payload[..8]), idx - 8);
            }
        }
        handle.join().unwrap();
        assert!(
            read_frame(&mut reader, &mut frame).is_err(),
            "nothing after the replies"
        );
    }

    #[test]
    fn remote_disk_respawns_killed_worker_with_data_intact() {
        let Some(bin) = find_diskd() else {
            eprintln!("pdm-diskd not built; skipping");
            return;
        };
        let dir = TempDir::new("pdm-remote-disk");
        let spec = RespawnSpec {
            bin,
            socket: dir.path().join("d.sock"),
            block: 2,
            slots: 4,
            file: Some(dir.path().join("d.bin")),
        };
        let kill = Arc::new(AtomicBool::new(false));
        let respawns = Arc::new(AtomicU64::new(0));
        let mut disk =
            RemoteDisk::<u64>::launch(spec, 2, Arc::clone(&kill), Arc::clone(&respawns)).unwrap();
        assert_eq!(DiskUnit::<u64>::slots(&disk), 4);
        assert_eq!(DiskUnit::<u64>::block(&disk), 2);
        disk.write(1, &[7, 8]).unwrap();
        // Crash the worker; the very next operation recovers it and
        // the file-backed store comes back un-truncated.
        kill.store(true, Ordering::Relaxed);
        let mut out = [0u64; 2];
        disk.read(1, &mut out).unwrap();
        assert_eq!(out, [7, 8]);
        assert_eq!(respawns.load(Ordering::Relaxed), 1);
        assert_eq!(disk.respawns_used(), 1);
        // A second crash exhausts the budget of 2 on its respawn; a
        // third surfaces Disconnected.
        kill.store(true, Ordering::Relaxed);
        disk.read(1, &mut out).unwrap();
        assert_eq!(respawns.load(Ordering::Relaxed), 2);
        kill.store(true, Ordering::Relaxed);
        let err = disk.read(1, &mut out).unwrap_err();
        assert!(matches!(err, PdmError::Disconnected { .. }), "{err}");
    }

    #[test]
    fn find_diskd_respects_env_override() {
        // Missing file → None even when the variable is set.
        std::env::set_var("PDM_DISKD_BIN", "/definitely/not/a/binary");
        assert_eq!(find_diskd(), None);
        std::env::remove_var("PDM_DISKD_BIN");
    }
}
