//! Concurrent servicing of parallel I/O operations.
//!
//! A parallel I/O touches at most one block on each disk; the transfers
//! are independent by construction, so each disk can be serviced by its
//! own worker. The worker is reached through a [`Transport`]: the
//! request/reply protocol ([`Cmd`] / [`Completion`]) is the same
//! whether the worker is a thread in this process, a `pdm-diskd`
//! process behind a Unix-domain socket, or a deterministic simulated
//! network (see [`crate::transport`]).
//!
//! # Run commands
//!
//! A command is *run-shaped*: a list of slots on one disk plus one
//! pooled buffer holding one block per slot, answered by exactly one
//! [`Completion`]. The [`crate::system::DiskSystem`] admits and charges
//! a memoryload's parallel I/Os one by one, then groups their blocks by
//! disk and submits **one command per participating disk**. A
//! memoryload of `M/BD` parallel I/Os therefore costs each worker one
//! request and one reply instead of `M/BD` of each — the message
//! analogue of the paper's one-memoryload-at-a-time I/O bound. A single
//! block is a run of length one; there is no second command kind.
//! Workers that own their disk unit hand the whole run to it
//! ([`serve_cmd`] → [`DiskUnit::read_run`] / [`DiskUnit::write_run`]);
//! the wire transports expand it into one protocol frame per block, so
//! their message and byte counts are those of per-block dispatch.
//!
//! Two disciplines exist:
//!
//! * [`DiskPool`] — **persistent** workers, one per disk, fed through
//!   transports. Commands carry owned buffers (recycled by the caller's
//!   buffer pool). Because submission and completion are decoupled, a
//!   caller can keep an operation in flight while it computes — this is
//!   what the [`crate::engine`] pipeline uses to overlap the permute of
//!   memoryload *k* with the reads of memoryload *k+1*, and the overlap
//!   survives remoteness: over a socket the requests pipeline the same
//!   way.
//! * [`threaded_read`] / [`threaded_write`] — the legacy
//!   spawn-per-operation discipline retained as
//!   [`crate::system::ServiceMode::SpawnPerOp`] for comparison
//!   benchmarks (`engine_sweep`): every parallel I/O pays `D` thread
//!   spawns and joins.
//!
//! For [`crate::backend::MemDisk`] threading buys little beyond the
//! overlap, but for [`crate::backend::FileDisk`] it overlaps real
//! system calls exactly the way a hardware disk array would. The
//! `DiskSystem` chooses the discipline via
//! [`crate::system::DiskSystem::set_service_mode`].

use crate::backend::DiskUnit;
use crate::error::{PdmError, Result};
use crate::record::Record;
use crate::stats::MsgStats;
use parking_lot::Mutex;
use std::sync::mpsc::{channel, Receiver, Sender};
use std::thread::JoinHandle;

/// A command for one disk's worker. Buffers travel by value: the worker
/// fills (read) or drains (write) the buffer and sends it back, with
/// the slot list, in the [`Completion`], so the caller can recycle
/// both.
pub enum Cmd<R: Record> {
    /// Read the blocks at `slots` into consecutive block-sized chunks
    /// of `buf` and reply once on `done`.
    Read {
        /// Block slots on this disk, in buffer order.
        slots: Vec<usize>,
        /// Destination buffer, exactly `slots.len()` blocks long.
        buf: Vec<R>,
        /// Caller's request index, echoed in the completion.
        idx: usize,
        /// Completion channel.
        done: Sender<Completion<R>>,
    },
    /// Write the consecutive block-sized chunks of `buf` to `slots` and
    /// reply once on `done`.
    Write {
        /// Block slots on this disk, in buffer order.
        slots: Vec<usize>,
        /// Source buffer, exactly `slots.len()` blocks long.
        buf: Vec<R>,
        /// Caller's request index, echoed in the completion.
        idx: usize,
        /// Completion channel.
        done: Sender<Completion<R>>,
    },
    /// Shut the worker down (it returns its unit to the joiner).
    Stop,
}

/// The answer to one run command, carrying the buffer and slot list
/// back for reuse.
pub struct Completion<R> {
    /// The request index from the [`Cmd`].
    pub idx: usize,
    /// The disk that serviced the request.
    pub disk: usize,
    /// The run buffer (filled with data for reads).
    pub buf: Vec<R>,
    /// The command's slot list, returned for recycling (a transport may
    /// have rebased its entries).
    pub slots: Vec<usize>,
    /// Transfer outcome: every block of the run is attempted and the
    /// first failure is reported.
    pub result: Result<()>,
}

/// Services one command against a disk unit the calling worker owns:
/// the whole run through [`DiskUnit::read_run`] /
/// [`DiskUnit::write_run`], then one reply. Returns `false` for
/// [`Cmd::Stop`], which services nothing. Public so out-of-crate
/// workers (the service's disk farm) share the loop.
pub fn serve_cmd<R: Record>(unit: &mut dyn DiskUnit<R>, disk: usize, cmd: Cmd<R>) -> bool {
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
        Cmd::Stop => return false,
    };
    debug_assert_eq!(buf.len(), slots.len() * unit.block(), "run buffer size");
    let result = if is_read {
        unit.read_run(&slots, &mut buf)
    } else {
        unit.write_run(&slots, &buf)
    };
    let _ = done.send(Completion {
        idx,
        disk,
        buf,
        slots,
        result,
    });
    true
}

/// One disk's end of the request/reply protocol.
///
/// A transport accepts [`Cmd`]s and eventually answers each on the
/// command's completion channel. The contract that keeps every caller
/// drain-loop transport-agnostic:
///
/// * **Submission never blocks on the reply** (it may block briefly on
///   a socket write).
/// * **Every command is answered exactly once**, however many blocks
///   its run carries, including after the link dies: a transport
///   failure surfaces *through the completion* as
///   [`PdmError::Disconnected`] with the buffer attached, never as a
///   panic or a silently dropped command. Buffer-pool hygiene is
///   therefore identical on every path.
/// * Replies may arrive in any order across disks; per disk they
///   follow submission order.
pub trait Transport<R: Record>: Send {
    /// The disk this transport serves.
    fn disk(&self) -> usize;

    /// Submits a command; the reply arrives on the command's `done`
    /// channel. [`Cmd::Stop`] is a no-op here — shutdown is driven by
    /// [`Transport::shutdown`].
    fn submit(&mut self, cmd: Cmd<R>);

    /// Data-plane messages and bytes moved so far. Identically zero
    /// for in-process transports, where commands cross by reference.
    fn message_stats(&self) -> MsgStats {
        MsgStats::default()
    }

    /// Takes (returns and resets) the simulated network milliseconds
    /// accrued since the last call. Zero for everything but the SimNet
    /// transport.
    fn take_sim_ms(&mut self) -> f64 {
        0.0
    }

    /// Severs the link as a fault-injection action
    /// ([`crate::fault::FaultPlan::disconnect_at`]): in-flight and
    /// subsequent commands complete with [`PdmError::Disconnected`].
    /// The link stays dead (unless revived by [`Transport::respawn`]).
    fn inject_disconnect(&mut self);

    /// Attempts to revive a dead link. `Ok(true)` means the transport
    /// actually relaunched/reconnected its worker, `Ok(false)` means
    /// the link was already healthy, and `Err` means this transport
    /// cannot recover (the default — recovery is opt-in per
    /// transport). The [`crate::system::DiskSystem`] retry layer calls
    /// this on a `Disconnected` completion when the
    /// [`crate::retry::RetryPolicy`] allows respawns, and counts a
    /// respawn in [`crate::retry::RetryStats`] only on `Ok(true)`.
    fn respawn(&mut self) -> Result<bool> {
        Err(PdmError::Io(format!(
            "disk {}: transport does not support respawn",
            self.disk()
        )))
    }

    /// Gracefully shuts the worker down, returning the disk unit when
    /// it lives in this process (`None` for remote workers, whose
    /// storage dies with them). Idempotent.
    fn shutdown(&mut self) -> Option<Box<dyn DiskUnit<R>>>;
}

/// Answers `cmd` with [`PdmError::Disconnected`], returning its buffer
/// and slot list through the completion so the caller can recycle
/// them. Public so out-of-crate [`Transport`] implementations (the
/// service's disk farm) can honour the severed-link contract.
pub fn fail_disconnected<R: Record>(cmd: Cmd<R>, disk: usize) {
    match cmd {
        Cmd::Read {
            slots,
            buf,
            idx,
            done,
        }
        | Cmd::Write {
            slots,
            buf,
            idx,
            done,
        } => {
            let _ = done.send(Completion {
                idx,
                disk,
                buf,
                slots,
                result: Err(PdmError::Disconnected { disk }),
            });
        }
        Cmd::Stop => {}
    }
}

/// The in-process transport: a persistent service thread that owns its
/// [`DiskUnit`] and receives commands over a channel — buffers cross
/// by ownership transfer, no bytes are serialized, and
/// [`Transport::message_stats`] stays zero. This is the default
/// transport and preserves the pre-transport `DiskPool` behaviour
/// exactly.
pub struct InProcTransport<R: Record> {
    disk: usize,
    tx: Sender<Cmd<R>>,
    join: Option<JoinHandle<Box<dyn DiskUnit<R>>>>,
    dead: bool,
}

impl<R: Record> InProcTransport<R> {
    /// Spawns the service thread for `disk` over `unit`.
    pub fn new(disk: usize, mut unit: Box<dyn DiskUnit<R>>) -> Self {
        let (tx, rx): (Sender<Cmd<R>>, Receiver<Cmd<R>>) = channel();
        let join = std::thread::Builder::new()
            .name(format!("pdm-disk-{disk}"))
            .spawn(move || {
                while let Ok(cmd) = rx.recv() {
                    if !serve_cmd(unit.as_mut(), disk, cmd) {
                        break;
                    }
                }
                unit
            })
            .expect("failed to spawn disk service thread");
        InProcTransport {
            disk,
            tx,
            join: Some(join),
            dead: false,
        }
    }
}

impl<R: Record> Transport<R> for InProcTransport<R> {
    fn disk(&self) -> usize {
        self.disk
    }

    fn submit(&mut self, cmd: Cmd<R>) {
        if self.dead || self.join.is_none() {
            fail_disconnected(cmd, self.disk);
            return;
        }
        if let Err(send_err) = self.tx.send(cmd) {
            // Service thread gone: answer the command ourselves.
            self.dead = true;
            fail_disconnected(send_err.0, self.disk);
        }
    }

    fn inject_disconnect(&mut self) {
        // The service thread stays alive (its unit must survive a
        // later shutdown); the *link* is what dies.
        self.dead = true;
    }

    fn respawn(&mut self) -> Result<bool> {
        // The severed link is a flag over a still-running service
        // thread whose unit (and data) survived; reviving it is a
        // reconnect, not a relaunch — but it is a real recovery
        // action, so report Ok(true) when the link was dead.
        if self.join.is_none() {
            return Err(PdmError::Io(format!(
                "disk {}: service thread already shut down",
                self.disk
            )));
        }
        Ok(std::mem::take(&mut self.dead))
    }

    fn shutdown(&mut self) -> Option<Box<dyn DiskUnit<R>>> {
        let join = self.join.take()?;
        let _ = self.tx.send(Cmd::Stop);
        Some(join.join().expect("disk service thread panicked"))
    }
}

impl<R: Record> Drop for InProcTransport<R> {
    fn drop(&mut self) {
        if let Some(join) = self.join.take() {
            let _ = self.tx.send(Cmd::Stop);
            let _ = join.join();
        }
    }
}

/// Persistent per-disk workers behind [`Transport`]s.
///
/// With [`DiskPool::new`] every worker is an in-process service thread
/// owning its [`DiskUnit`] ([`InProcTransport`]);
/// [`DiskPool::from_transports`] generalizes to remote workers (see
/// [`crate::transport`]). [`DiskPool::into_units`] shuts in-process
/// workers down and hands the units back (used when the
/// [`crate::system::DiskSystem`] switches service modes).
pub struct DiskPool<R: Record> {
    transports: Vec<Box<dyn Transport<R>>>,
}

impl<R: Record> DiskPool<R> {
    /// Spawns one in-process service thread per unit.
    pub fn new(units: Vec<Box<dyn DiskUnit<R>>>) -> Self {
        Self::from_transports(
            units
                .into_iter()
                .enumerate()
                .map(|(disk, unit)| {
                    Box::new(InProcTransport::new(disk, unit)) as Box<dyn Transport<R>>
                })
                .collect(),
        )
    }

    /// A pool over pre-built transports, one per disk in disk order.
    pub fn from_transports(transports: Vec<Box<dyn Transport<R>>>) -> Self {
        for (d, t) in transports.iter().enumerate() {
            assert_eq!(t.disk(), d, "transports must be in disk order");
        }
        DiskPool { transports }
    }

    /// Number of disks (workers).
    pub fn disks(&self) -> usize {
        self.transports.len()
    }

    /// Submits a command to `disk`'s worker. Non-blocking; the reply
    /// arrives on the command's `done` channel (a dead link answers
    /// with [`PdmError::Disconnected`] there, buffer attached).
    pub fn submit(&mut self, disk: usize, cmd: Cmd<R>) {
        self.transports[disk].submit(cmd);
    }

    /// Aggregate data-plane message counters across all disks.
    pub fn message_stats(&self) -> MsgStats {
        let mut total = MsgStats::default();
        for t in &self.transports {
            total.merge(&t.message_stats());
        }
        total
    }

    /// Per-disk data-plane message counters, in disk order.
    pub fn message_stats_per_disk(&self) -> Vec<MsgStats> {
        self.transports.iter().map(|t| t.message_stats()).collect()
    }

    /// Takes the simulated network time accrued across all disks since
    /// the last call (SimNet transports only).
    pub fn take_sim_ms(&mut self) -> f64 {
        self.transports.iter_mut().map(|t| t.take_sim_ms()).sum()
    }

    /// Severs the link to `disk` (fault injection).
    pub fn inject_disconnect(&mut self, disk: usize) {
        self.transports[disk].inject_disconnect();
    }

    /// Attempts to revive the link to `disk` (see
    /// [`Transport::respawn`]).
    pub fn respawn(&mut self, disk: usize) -> Result<bool> {
        self.transports[disk].respawn()
    }

    /// Shuts down the workers and returns their disk units in disk
    /// order. Panics if any worker is remote — remote storage cannot
    /// be pulled back into this process, and the `DiskSystem` never
    /// asks to.
    pub fn into_units(mut self) -> Vec<Box<dyn DiskUnit<R>>> {
        self.transports
            .iter_mut()
            .map(|t| {
                t.shutdown()
                    .expect("remote transports host no local disk unit")
            })
            .collect()
    }
}

/// Reads one block from each `(disk, slot)` pair concurrently by
/// spawning one short-lived thread per request (the legacy
/// spawn-per-operation discipline). `outs[i]` receives the block for
/// request `i`; requests must address distinct disks.
pub fn threaded_read<R: Record>(
    units: &mut [Box<dyn DiskUnit<R>>],
    reqs: &[(usize, usize)],
    outs: Vec<&mut [R]>,
) -> Result<()> {
    debug_assert_eq!(reqs.len(), outs.len());
    // Scatter the per-request output buffers into disk-indexed slots so
    // each spawned thread gets a disjoint `&mut`.
    let mut by_disk: Vec<Option<(usize, &mut [R])>> = (0..units.len()).map(|_| None).collect();
    for (&(disk, slot), out) in reqs.iter().zip(outs) {
        by_disk[disk] = Some((slot, out));
    }
    let errors: Mutex<Vec<PdmError>> = Mutex::new(Vec::new());
    std::thread::scope(|s| {
        for (disk, (unit, job)) in units.iter_mut().zip(by_disk).enumerate() {
            if let Some((slot, out)) = job {
                let errors = &errors;
                s.spawn(move || {
                    if let Err(e) = unit.read(slot, out) {
                        // Units report a placeholder disk index; patch
                        // in the real one while we still know it.
                        errors.lock().push(e.with_disk(disk));
                    }
                });
            }
        }
    });
    match errors.into_inner().pop() {
        Some(e) => Err(e),
        None => Ok(()),
    }
}

/// Writes one block to each `(disk, slot)` pair concurrently with one
/// short-lived thread per request (legacy discipline). Requests must
/// address distinct disks.
pub fn threaded_write<R: Record>(
    units: &mut [Box<dyn DiskUnit<R>>],
    writes: &[(usize, usize, &[R])],
) -> Result<()> {
    let mut by_disk: Vec<Option<(usize, &[R])>> = (0..units.len()).map(|_| None).collect();
    for &(disk, slot, data) in writes {
        by_disk[disk] = Some((slot, data));
    }
    let errors: Mutex<Vec<PdmError>> = Mutex::new(Vec::new());
    std::thread::scope(|s| {
        for (disk, (unit, job)) in units.iter_mut().zip(by_disk).enumerate() {
            if let Some((slot, data)) = job {
                let errors = &errors;
                s.spawn(move || {
                    if let Err(e) = unit.write(slot, data) {
                        errors.lock().push(e.with_disk(disk));
                    }
                });
            }
        }
    });
    match errors.into_inner().pop() {
        Some(e) => Err(e),
        None => Ok(()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::MemDisk;

    fn units(block: usize, slots: usize, disks: usize) -> Vec<Box<dyn DiskUnit<u64>>> {
        (0..disks)
            .map(|_| Box::new(MemDisk::<u64>::new(block, slots)) as Box<dyn DiskUnit<u64>>)
            .collect()
    }

    fn read(
        slots: Vec<usize>,
        block: usize,
        idx: usize,
        done: &Sender<Completion<u64>>,
    ) -> Cmd<u64> {
        Cmd::Read {
            buf: vec![0; slots.len() * block],
            slots,
            idx,
            done: done.clone(),
        }
    }

    fn write(
        slots: Vec<usize>,
        buf: Vec<u64>,
        idx: usize,
        done: &Sender<Completion<u64>>,
    ) -> Cmd<u64> {
        Cmd::Write {
            slots,
            buf,
            idx,
            done: done.clone(),
        }
    }

    #[test]
    fn threaded_round_trip() {
        let mut u = units(2, 4, 4);
        let data: Vec<Vec<u64>> = (0..4u64).map(|d| vec![d * 10, d * 10 + 1]).collect();
        let writes: Vec<(usize, usize, &[u64])> = data
            .iter()
            .enumerate()
            .map(|(d, v)| (d, d % 4, v.as_slice()))
            .collect();
        threaded_write(&mut u, &writes).unwrap();

        let reqs: Vec<(usize, usize)> = (0..4).map(|d| (d, d % 4)).collect();
        let mut flat = [0u64; 8];
        threaded_read(&mut u, &reqs, flat.chunks_exact_mut(2).collect()).unwrap();
        let got: Vec<Vec<u64>> = flat.chunks_exact(2).map(|c| c.to_vec()).collect();
        assert_eq!(got, data);
    }

    #[test]
    fn threaded_read_propagates_errors_naming_the_disk() {
        let mut u = units(2, 2, 2);
        let reqs = [(1usize, 5usize)]; // out of range on disk 1
        let mut out = vec![0u64; 2];
        let err = threaded_read(&mut u, &reqs, vec![out.as_mut_slice()]).unwrap_err();
        assert!(
            matches!(
                err,
                PdmError::OutOfRange {
                    disk: 1,
                    slot: 5,
                    ..
                }
            ),
            "diagnostic must name the failing disk, got {err}"
        );
        let err = threaded_write(&mut u, &[(1, 5, &[0u64, 0][..])]).unwrap_err();
        assert!(matches!(err, PdmError::OutOfRange { disk: 1, .. }));
    }

    #[test]
    fn pool_round_trip_and_unit_recovery() {
        let mut pool = DiskPool::new(units(2, 4, 4));
        assert_eq!(pool.disks(), 4);
        // Write a distinct block to each disk, all in flight at once.
        let (tx, rx) = channel();
        for d in 0..4usize {
            pool.submit(
                d,
                write(vec![d], vec![d as u64 * 10, d as u64 * 10 + 1], d, &tx),
            );
        }
        for _ in 0..4 {
            let c = rx.recv().unwrap();
            c.result.unwrap();
        }
        // Read them back concurrently.
        for d in 0..4usize {
            pool.submit(d, read(vec![d], 2, d, &tx));
        }
        let mut got = vec![Vec::new(); 4];
        for _ in 0..4 {
            let c = rx.recv().unwrap();
            c.result.unwrap();
            assert_eq!(c.idx, c.disk);
            got[c.idx] = c.buf;
        }
        for (d, blk) in got.iter().enumerate() {
            assert_eq!(blk, &vec![d as u64 * 10, d as u64 * 10 + 1]);
        }
        // Workers hand their units back intact.
        let mut recovered = pool.into_units();
        let mut out = [0u64; 2];
        recovered[3].read(3, &mut out).unwrap();
        assert_eq!(out, [30, 31]);
    }

    #[test]
    fn one_run_moves_many_blocks_with_one_reply() {
        let mut pool = DiskPool::new(units(2, 8, 1));
        let (tx, rx) = channel();
        // Slots out of order: the buffer follows the slot list.
        pool.submit(
            0,
            write(vec![5, 1, 6], vec![50, 51, 10, 11, 60, 61], 7, &tx),
        );
        let c = rx.recv().unwrap();
        c.result.unwrap();
        assert_eq!((c.idx, c.slots), (7, vec![5, 1, 6]));
        pool.submit(0, read(vec![6, 5, 1], 2, 8, &tx));
        let c = rx.recv().unwrap();
        c.result.unwrap();
        assert_eq!(c.buf, vec![60, 61, 50, 51, 10, 11]);
        assert!(rx.try_recv().is_err(), "exactly one completion per run");
    }

    #[test]
    fn pool_propagates_unit_errors_with_buffer() {
        let mut pool = DiskPool::new(units(2, 2, 1));
        let (tx, rx) = channel();
        // Slot 9 is out of range; the rest of the run is still served.
        pool.submit(0, read(vec![0, 9, 1], 2, 0, &tx));
        let c = rx.recv().unwrap();
        assert!(matches!(
            c.result,
            Err(PdmError::OutOfRange { slot: 9, .. })
        ));
        assert_eq!(c.buf.len(), 6, "buffer must come back even on error");
        assert_eq!(c.slots.len(), 3, "slot list must come back even on error");
    }

    #[test]
    fn pool_drop_joins_workers() {
        let pool = DiskPool::new(units(2, 2, 3));
        drop(pool); // must not hang or leak threads
    }

    #[test]
    fn inproc_transport_reports_zero_messages() {
        let mut pool = DiskPool::new(units(2, 2, 2));
        let (tx, rx) = channel();
        pool.submit(0, write(vec![1], vec![7u64, 8], 0, &tx));
        rx.recv().unwrap().result.unwrap();
        assert!(pool.message_stats().is_zero());
        assert!(pool.message_stats_per_disk().iter().all(MsgStats::is_zero));
        assert_eq!(pool.take_sim_ms(), 0.0);
    }

    #[test]
    fn injected_disconnect_answers_with_buffer_and_stays_dead() {
        let mut pool = DiskPool::new(units(2, 4, 2));
        pool.inject_disconnect(1);
        for _ in 0..2 {
            let (tx, rx) = channel();
            pool.submit(1, read(vec![0, 1], 2, 3, &tx));
            let c = rx.recv().unwrap();
            assert!(matches!(c.result, Err(PdmError::Disconnected { disk: 1 })));
            assert_eq!(c.buf.len(), 4, "buffer must come back on disconnect");
            assert_eq!(c.slots, vec![0, 1]);
            assert_eq!(c.idx, 3);
        }
        // The other disk is unaffected.
        let (tx, rx) = channel();
        pool.submit(0, read(vec![0], 2, 0, &tx));
        rx.recv().unwrap().result.unwrap();
    }

    #[test]
    fn respawn_revives_a_severed_inproc_link_with_data_intact() {
        let mut pool = DiskPool::new(units(2, 4, 2));
        let (tx, rx) = channel();
        pool.submit(1, write(vec![0], vec![41u64, 42], 0, &tx));
        rx.recv().unwrap().result.unwrap();
        // Healthy link: nothing to revive.
        assert!(!pool.respawn(1).unwrap());
        pool.inject_disconnect(1);
        pool.submit(1, read(vec![0], 2, 0, &tx));
        let c = rx.recv().unwrap();
        assert!(matches!(c.result, Err(PdmError::Disconnected { disk: 1 })));
        // Revive and re-read: the unit (and its data) survived.
        assert!(pool.respawn(1).unwrap());
        pool.submit(
            1,
            Cmd::Read {
                slots: c.slots,
                buf: c.buf,
                idx: 0,
                done: tx,
            },
        );
        let c = rx.recv().unwrap();
        c.result.unwrap();
        assert_eq!(c.buf, vec![41, 42]);
    }
}
