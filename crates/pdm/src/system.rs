//! The parallel disk system: `D` disks driven by parallel I/O
//! operations with exact accounting.
//!
//! A [`DiskSystem`] owns one [`DiskUnit`] per
//! disk and exposes the model's two access disciplines:
//!
//! * **striped** — [`DiskSystem::read_stripe`] / [`DiskSystem::write_stripe`]
//!   move the `D` blocks at the same location on every disk;
//! * **independent** — [`DiskSystem::read_blocks`] /
//!   [`DiskSystem::write_blocks`] move at most one block per disk at
//!   arbitrary locations.
//!
//! Either way one call is one parallel I/O (the paper's unit of cost)
//! and is tallied in [`IoStats`]. The system enforces the model: a
//! request that addresses the same disk twice in one operation is an
//! error, not a slower success.
//!
//! Disks are sized as `portions × N/BD` stripes. Algorithms that "map
//! records from one set of N/BD stripes to a different set" (Section 3)
//! use portion 0 as the source and portion 1 as the target, swapping
//! roles between passes.
//!
//! # Service modes and the streaming fast path
//!
//! How a parallel I/O is physically serviced is orthogonal to how it is
//! charged; [`ServiceMode`] selects among a serial loop, the legacy
//! spawn-per-operation threads, and persistent per-disk service threads
//! ([`crate::parallel::DiskPool`]).
//!
//! Transport-backed services (the pool, and lockstep over remote
//! workers) submit **run commands**: a request's blocks are grouped by
//! disk and each participating disk receives one command carrying all
//! of its slots and one pooled multi-block buffer, answered once. The
//! batched split-phase entry points
//! [`DiskSystem::begin_read_batches`] /
//! [`DiskSystem::begin_write_batches`] take a whole memoryload — its
//! flattened block references plus the batch length — admit and charge
//! every parallel I/O in order (so governor grants, fault-plan
//! operation numbers, and the retry ledger are exactly those of
//! issuing the I/Os one by one), and then submit one command per
//! participating disk. A memoryload of `M/BD` parallel I/Os thus costs
//! each disk worker one request and one reply, not `M/BD` of each.
//! [`DiskSystem::read_memoryload_into`] / [`DiskSystem::write_memoryload`]
//! take the same path in [`ServiceMode::Threaded`], and the uncounted
//! staging paths ([`DiskSystem::load_records`],
//! [`DiskSystem::dump_records`]) send one run per disk per memoryload
//! on every transport-backed service.
//!
//! In [`ServiceMode::Threaded`] the split-phase operations
//! ([`DiskSystem::begin_read`] / [`DiskSystem::finish_read`] and the
//! write duals, of which the `_batches` forms are the general case) are
//! validated, charged, and submitted immediately, and the caller
//! collects the data later — the [`crate::engine::PassEngine`] uses this
//! to overlap disk transfers with in-memory permutation. Split-phase
//! operations move data through a pool of reusable run buffers
//! ([`DiskSystem::buffer_pool_stats`]) instead of fresh allocations;
//! every code path, including fault-injection errors, must return its
//! buffers to the pool.

use crate::backend::{DiskUnit, FileDisk, MemDisk};
use crate::config::Geometry;
use crate::error::{PdmError, Result};
use crate::fault::FaultPlan;
use crate::layout::Layout;
use crate::parallel::{threaded_read, threaded_write, Cmd, Completion, DiskPool, Transport};
use crate::record::{ByteRecord, Record};
use crate::retry::{RetryPolicy, RetryStats};
use crate::sched::SchedHandle;
use crate::stats::{IoStats, MsgStats};
use crate::timing::{TimingModel, TimingTracker};
use crate::transport::{spawn_uds_workers, SimNetTransport, TransportConfig};
use std::path::{Path, PathBuf};
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError, Sender};
use std::time::Duration;

/// Which storage backs the disk units of a [`DiskSystem`].
///
/// Every algorithm in this workspace takes `&mut DiskSystem<R>`, so a
/// system built from a `Backend` runs the BMMC passes, fused plans,
/// the BPC baseline, and `extsort` unmodified on either backend; only
/// the wall clock (never the charged parallel-I/O count) differs.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub enum Backend {
    /// In-memory disks ([`MemDisk`]) — the default for experiments:
    /// the paper's cost model counts operations, not bytes.
    #[default]
    Mem,
    /// One preallocated file per disk ([`FileDisk`]), for wall-clock
    /// realism: real positional system calls, serviced by the same
    /// [`ServiceMode`] machinery (including the threaded split-phase
    /// overlap).
    File {
        /// Directory holding the per-disk `disk###.bin` files
        /// (created if missing).
        dir: PathBuf,
    },
}

/// A reference to one block: disk number and block slot on that disk.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct BlockRef {
    /// Disk number, `0 .. D`.
    pub disk: usize,
    /// Block slot on the disk (global across portions).
    pub slot: usize,
}

/// How parallel I/O operations are physically serviced. The charged
/// cost ([`IoStats`]) is identical in every mode.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum ServiceMode {
    /// One thread services all participating disks in sequence.
    #[default]
    Serial,
    /// Legacy threading: spawn one short-lived thread per disk per
    /// operation. Retained for comparison benchmarks; superseded by
    /// [`ServiceMode::Threaded`].
    SpawnPerOp,
    /// Persistent per-disk service threads with asynchronous
    /// submission, fed one run command per participating disk per
    /// request; enables the split-phase
    /// [`DiskSystem::begin_read`]/[`DiskSystem::begin_write`] overlap.
    Threaded,
}

/// The physical host of the disk units, per service mode.
enum Service<R: Record> {
    Serial(Vec<Box<dyn DiskUnit<R>>>),
    SpawnPerOp(Vec<Box<dyn DiskUnit<R>>>),
    Pooled(DiskPool<R>),
    /// A transport pool driven in lockstep: each command's completion
    /// is collected before the next is submitted. This is the serial
    /// discipline over a *remote* transport (whose disks live behind a
    /// [`Transport`] rather than as local units), so
    /// [`ServiceMode::Serial`] keeps its meaning on remote systems.
    Lockstep(DiskPool<R>),
}

impl<R: Record> Service<R> {
    fn mode(&self) -> ServiceMode {
        match self {
            Service::Serial(_) | Service::Lockstep(_) => ServiceMode::Serial,
            Service::SpawnPerOp(_) => ServiceMode::SpawnPerOp,
            Service::Pooled(_) => ServiceMode::Threaded,
        }
    }

    fn into_units(self) -> Vec<Box<dyn DiskUnit<R>>> {
        match self {
            Service::Serial(u) | Service::SpawnPerOp(u) => u,
            Service::Pooled(pool) | Service::Lockstep(pool) => pool.into_units(),
        }
    }
}

/// Pool-accounting snapshot (see [`DiskSystem::buffer_pool_stats`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct BufferPoolStats {
    /// Buffers sitting in the free list.
    pub free: usize,
    /// Buffers currently lent out (in flight or held by a ticket).
    pub outstanding: usize,
    /// Total buffers ever allocated. A steady-state workload should
    /// stop growing this after warm-up; growth under errors indicates
    /// a leak on an error path.
    pub allocated: u64,
}

/// A recycling pool of run buffers. Runs differ in length (one disk's
/// share of a memoryload, or a single block), so a request takes the
/// smallest free buffer that can hold it and resizes it in place; the
/// pool allocates only when no free buffer is large enough.
struct BufferPool<R> {
    free: Vec<Vec<R>>,
    outstanding: usize,
    allocated: u64,
}

impl<R: Record> BufferPool<R> {
    fn new() -> Self {
        BufferPool {
            free: Vec::new(),
            outstanding: 0,
            allocated: 0,
        }
    }

    fn take(&mut self, len: usize) -> Vec<R> {
        self.outstanding += 1;
        let fit = (0..self.free.len())
            .filter(|&i| self.free[i].capacity() >= len)
            .min_by_key(|&i| self.free[i].capacity());
        match fit {
            Some(i) => {
                let mut buf = self.free.swap_remove(i);
                buf.resize(len, R::default());
                buf
            }
            None => {
                self.allocated += 1;
                vec![R::default(); len]
            }
        }
    }

    fn put(&mut self, buf: Vec<R>) {
        self.outstanding -= 1;
        self.free.push(buf);
    }

    fn stats(&self) -> BufferPoolStats {
        BufferPoolStats {
            free: self.free.len(),
            outstanding: self.outstanding,
            allocated: self.allocated,
        }
    }
}

/// One request's block references grouped into one run per disk — the
/// shape in which transport-backed services submit transfers. Tables
/// are recycled through the system's free list, so a steady-state
/// request reuses their storage.
#[derive(Default)]
struct RunTable {
    /// The request, in request order.
    refs: Vec<BlockRef>,
    /// Request positions grouped by disk, in request order per disk.
    order: Vec<usize>,
    /// `order[start[d]..start[d + 1]]` are disk `d`'s positions.
    start: Vec<usize>,
    /// Recovery attempts already spent on each disk's run.
    attempts: Vec<u32>,
}

impl RunTable {
    /// Refills the table with `refs`, every disk of which is `< disks`
    /// (the request was validated).
    fn fill(&mut self, refs: &[BlockRef], disks: usize) {
        self.refs.clear();
        self.refs.extend_from_slice(refs);
        // Counting sort by disk: `start` first holds each disk's first
        // position, is advanced while placing, then shifted back.
        self.start.clear();
        self.start.resize(disks + 1, 0);
        for r in refs {
            self.start[r.disk + 1] += 1;
        }
        for d in 0..disks {
            self.start[d + 1] += self.start[d];
        }
        self.order.clear();
        self.order.resize(refs.len(), 0);
        for (i, r) in refs.iter().enumerate() {
            self.order[self.start[r.disk]] = i;
            self.start[r.disk] += 1;
        }
        for d in (1..disks).rev() {
            self.start[d] = self.start[d - 1];
        }
        self.start[0] = 0;
        self.attempts.clear();
        self.attempts.resize(disks, 0);
    }

    fn disks(&self) -> usize {
        self.attempts.len()
    }

    /// Request positions served by `disk`'s run.
    fn positions(&self, disk: usize) -> &[usize] {
        &self.order[self.start[disk]..self.start[disk + 1]]
    }

    /// Disks with a non-empty run.
    fn participants(&self) -> impl Iterator<Item = usize> + '_ {
        (0..self.disks()).filter(|&d| self.start[d + 1] > self.start[d])
    }

    /// Blocks in the longest run: the most parallel I/Os any one
    /// command of this request carries.
    fn longest_run(&self) -> usize {
        (0..self.disks())
            .map(|d| self.start[d + 1] - self.start[d])
            .max()
            .unwrap_or(0)
    }
}

/// Where a write request's blocks come from, by request position.
#[derive(Clone, Copy)]
enum Payload<'a, R> {
    /// Block `i` is `data[i·B .. (i+1)·B]`.
    Flat(&'a [R]),
    /// Block `i` is `writes[i].1`.
    Pairs(&'a [(BlockRef, &'a [R])]),
}

impl<'a, R> Payload<'a, R> {
    fn block(self, i: usize, block: usize) -> &'a [R] {
        match self {
            Payload::Flat(data) => &data[i * block..(i + 1) * block],
            Payload::Pairs(writes) => writes[i].1,
        }
    }
}

/// Run commands in flight for one split-phase ticket.
struct InFlight<R: Record> {
    rx: Receiver<Completion<R>>,
    /// Completion return address, retained so a recovered run can be
    /// resubmitted to the same drain.
    tx: Sender<Completion<R>>,
    /// The request and its per-disk runs.
    table: RunTable,
    /// Commands not yet answered.
    pending: usize,
}

/// A split-phase parallel read in flight (see
/// [`DiskSystem::begin_read`]). Must be resolved with
/// [`DiskSystem::finish_read`] or [`DiskSystem::discard_read`]; simply
/// dropping the ticket strands its pooled buffers.
#[must_use = "resolve with finish_read/discard_read or the pooled buffers are stranded"]
pub struct ReadTicket<R: Record> {
    /// One run command per participating disk (Threaded mode).
    runs: Option<InFlight<R>>,
    /// The blocks in request order, already transferred into one
    /// pooled buffer (synchronous modes).
    sync: Option<Vec<R>>,
    /// Number of requested blocks.
    count: usize,
}

impl<R: Record> ReadTicket<R> {
    fn done(sync: Option<Vec<R>>, count: usize) -> Self {
        ReadTicket {
            runs: None,
            sync,
            count,
        }
    }

    /// Records transferred by this operation.
    pub fn records(&self, block: usize) -> usize {
        self.count * block
    }
}

/// A split-phase parallel write in flight (see
/// [`DiskSystem::begin_write`]). Must be resolved with
/// [`DiskSystem::finish_write`].
#[must_use = "resolve with finish_write or the staging buffers are stranded"]
pub struct WriteTicket<R: Record> {
    /// One run command per participating disk (Threaded mode); `None`
    /// when the transfer completed at `begin_write`.
    runs: Option<InFlight<R>>,
}

/// A simulated parallel disk system storing records of type `R`.
pub struct DiskSystem<R: Record> {
    geom: Geometry,
    layout: Layout,
    service: Service<R>,
    pool: BufferPool<R>,
    /// Recycled run tables and command slot lists for the
    /// transport-backed paths.
    tables: Vec<RunTable>,
    slot_lists: Vec<Vec<usize>>,
    portions: usize,
    stats: IoStats,
    faults: FaultPlan,
    op_counter: u64,
    timing: Option<TimingTracker>,
    striped_only: bool,
    /// True when the disks live behind remote transports (UDS workers
    /// or the simulated network) instead of local units. Remote
    /// systems map [`ServiceMode::Serial`] onto [`Service::Lockstep`].
    remote: bool,
    /// Simulated network time accrued by a SimNet transport
    /// ([`DiskSystem::network_ms`]).
    net_ms: f64,
    /// When set, every counted operation first acquires a grant from
    /// the fair-share scheduler this handle belongs to
    /// ([`DiskSystem::set_governor`]); the grant is charged to the
    /// handle's job.
    governor: Option<SchedHandle>,
    /// Bounds on the recovery layer ([`DiskSystem::set_retry_policy`]).
    /// The default is fail-fast: one attempt, no timeouts, no respawns.
    retry: RetryPolicy,
    /// The recovery ledger ([`DiskSystem::retry_stats`]).
    retry_stats: RetryStats,
    /// Set when a per-op completion timeout fired during the current
    /// drain; converts a final unrecovered `Disconnected` into
    /// [`PdmError::Timeout`]. Cleared at the end of every operation.
    timeout_fired: Option<u64>,
    /// Reused duplicate-disk scratch for per-operation validation, so
    /// the admission path allocates nothing in steady state.
    seen_disks: Vec<bool>,
    /// Reused reference scratch for [`Self::read_stripe_into`] and the
    /// memoryload-granular paths.
    stripe_scratch: Vec<BlockRef>,
}

impl<R: Record> DiskSystem<R> {
    /// A system over pre-built disk units (one per disk, each sized
    /// `portions × N/BD` block slots).
    fn from_units(geom: Geometry, portions: usize, units: Vec<Box<dyn DiskUnit<R>>>) -> Self {
        assert!(portions >= 1, "need at least one portion");
        assert_eq!(units.len(), geom.disks(), "one unit per disk");
        DiskSystem {
            geom,
            layout: Layout::new(&geom),
            service: Service::Serial(units),
            pool: BufferPool::new(),
            tables: Vec::new(),
            slot_lists: Vec::new(),
            portions,
            stats: IoStats::default(),
            faults: FaultPlan::new(),
            op_counter: 0,
            timing: None,
            striped_only: false,
            remote: false,
            governor: None,
            retry: RetryPolicy::default(),
            retry_stats: RetryStats::default(),
            timeout_fired: None,
            net_ms: 0.0,
            seen_disks: vec![false; geom.disks()],
            stripe_scratch: Vec::with_capacity(geom.disks()),
        }
    }

    /// A system whose disks live behind remote transports. Starts in
    /// lockstep (the serial discipline; see [`Service::Lockstep`]).
    fn from_remote(geom: Geometry, portions: usize, pool: DiskPool<R>) -> Self {
        assert!(portions >= 1, "need at least one portion");
        assert_eq!(pool.disks(), geom.disks(), "one transport per disk");
        DiskSystem {
            geom,
            layout: Layout::new(&geom),
            service: Service::Lockstep(pool),
            pool: BufferPool::new(),
            tables: Vec::new(),
            slot_lists: Vec::new(),
            portions,
            stats: IoStats::default(),
            faults: FaultPlan::new(),
            op_counter: 0,
            timing: None,
            striped_only: false,
            remote: true,
            governor: None,
            retry: RetryPolicy::default(),
            retry_stats: RetryStats::default(),
            timeout_fired: None,
            net_ms: 0.0,
            seen_disks: vec![false; geom.disks()],
            stripe_scratch: Vec::with_capacity(geom.disks()),
        }
    }

    /// A system whose disks live behind caller-supplied transports,
    /// one per disk in disk order. This is the multi-tenant
    /// construction: a service leases each job its own `DiskSystem`
    /// whose transports all feed the *same* shared per-disk workers,
    /// so the physical disks are contended while accounting and
    /// buffer pools stay per-job. Starts in lockstep
    /// ([`ServiceMode::Serial`]); [`DiskSystem::set_threaded`]
    /// switches to the pipelined pool.
    ///
    /// The transports' workers may expose more slots than this
    /// system's `portions × N/BD`; the system still validates every
    /// request against its own geometry, so a job cannot address
    /// outside its lease.
    pub fn new_from_transports(
        geom: Geometry,
        portions: usize,
        transports: Vec<Box<dyn Transport<R>>>,
    ) -> Self {
        Self::from_remote(geom, portions, DiskPool::from_transports(transports))
    }

    /// A memory-backed system with `portions` address spaces of `N/BD`
    /// stripes each (use 2 for the source/target double-buffering of
    /// the one-pass algorithms).
    pub fn new_mem(geom: Geometry, portions: usize) -> Self {
        let slots = portions * geom.stripes();
        let units = (0..geom.disks())
            .map(|_| Box::new(MemDisk::<R>::new(geom.block(), slots)) as Box<dyn DiskUnit<R>>)
            .collect();
        Self::from_units(geom, portions, units)
    }

    /// The geometry this system was built with.
    #[inline]
    pub fn geometry(&self) -> Geometry {
        self.geom
    }

    /// The address layout (Figure 2 field extractor).
    #[inline]
    pub fn layout(&self) -> Layout {
        self.layout
    }

    /// Number of block slots on each disk.
    #[inline]
    pub fn slots_per_disk(&self) -> usize {
        self.portions * self.geom.stripes()
    }

    /// Number of portions (independent N-record address spaces).
    #[inline]
    pub fn portions(&self) -> usize {
        self.portions
    }

    /// First stripe slot of a portion.
    #[inline]
    pub fn portion_base(&self, portion: usize) -> usize {
        assert!(portion < self.portions, "portion {portion} out of range");
        portion * self.geom.stripes()
    }

    /// Cumulative I/O statistics.
    #[inline]
    pub fn stats(&self) -> IoStats {
        self.stats
    }

    /// Resets the I/O statistics (not the operation counter used by
    /// fault plans).
    pub fn reset_stats(&mut self) {
        self.stats = IoStats::default();
    }

    /// Installs a fault-injection plan.
    pub fn set_faults(&mut self, plan: FaultPlan) {
        self.faults = plan;
    }

    /// Selects how parallel I/Os are physically serviced. Charged costs
    /// are identical in every mode; only wall-clock behaviour differs.
    /// Switching modes drains any service threads first.
    pub fn set_service_mode(&mut self, mode: ServiceMode) {
        if self.remote {
            // Remote disks cannot be hosted as local units; the pool of
            // transports *moves* between disciplines. Serial maps onto
            // lockstep; SpawnPerOp has no remote analogue and gets the
            // pipelined pool (the closest in spirit: per-op concurrency).
            let want_lockstep = matches!(mode, ServiceMode::Serial);
            if want_lockstep == matches!(self.service, Service::Lockstep(_)) {
                return;
            }
            let placeholder = Service::Serial(Vec::new());
            let pool = match std::mem::replace(&mut self.service, placeholder) {
                Service::Pooled(pool) | Service::Lockstep(pool) => pool,
                _ => unreachable!("remote systems always hold a transport pool"),
            };
            self.service = if want_lockstep {
                Service::Lockstep(pool)
            } else {
                Service::Pooled(pool)
            };
            return;
        }
        if self.service.mode() == mode {
            return;
        }
        let placeholder = Service::Serial(Vec::new());
        let units = std::mem::replace(&mut self.service, placeholder).into_units();
        self.service = match mode {
            ServiceMode::Serial => Service::Serial(units),
            ServiceMode::SpawnPerOp => Service::SpawnPerOp(units),
            ServiceMode::Threaded => Service::Pooled(DiskPool::new(units)),
        };
    }

    /// The current service mode.
    pub fn service_mode(&self) -> ServiceMode {
        self.service.mode()
    }

    /// Enables or disables threaded (one thread per disk) servicing of
    /// parallel I/Os. `true` selects [`ServiceMode::Threaded`]
    /// (persistent service threads), `false` [`ServiceMode::Serial`].
    pub fn set_threaded(&mut self, on: bool) {
        self.set_service_mode(if on {
            ServiceMode::Threaded
        } else {
            ServiceMode::Serial
        });
    }

    /// Buffer-pool accounting for the split-phase paths. After every
    /// completed (or failed) operation, `outstanding` counts only
    /// buffers held by unresolved tickets.
    pub fn buffer_pool_stats(&self) -> BufferPoolStats {
        self.pool.stats()
    }

    /// Transport message counters, merged over all disks: frames and
    /// wire bytes both ways. Identically zero on in-process systems —
    /// channels move buffers, not messages.
    pub fn message_stats(&self) -> MsgStats {
        match &self.service {
            Service::Pooled(pool) | Service::Lockstep(pool) => pool.message_stats(),
            _ => MsgStats::default(),
        }
    }

    /// Per-disk transport message counters (empty on non-pooled
    /// services).
    pub fn message_stats_per_disk(&self) -> Vec<MsgStats> {
        match &self.service {
            Service::Pooled(pool) | Service::Lockstep(pool) => pool.message_stats_per_disk(),
            _ => Vec::new(),
        }
    }

    /// Simulated network time accrued so far (zero unless a SimNet
    /// transport is in use). Also folded into the timing tracker's
    /// makespan when [`DiskSystem::set_timing`] is active.
    pub fn network_ms(&self) -> f64 {
        self.net_ms
    }

    /// Collects simulated network time accrued by the transports since
    /// the last call (SimNet charges synchronously inside submission).
    fn absorb_network_time(&mut self) {
        let ms = match &mut self.service {
            Service::Pooled(pool) | Service::Lockstep(pool) => pool.take_sim_ms(),
            _ => 0.0,
        };
        if ms > 0.0 {
            self.net_ms += ms;
            if let Some(t) = self.timing.as_mut() {
                t.add_network_ms(ms);
            }
        }
    }

    /// Enables the optional service-time model ([`crate::timing`]);
    /// each subsequent parallel I/O accumulates simulated elapsed
    /// time. Counted operations are unaffected.
    pub fn set_timing(&mut self, model: TimingModel) {
        self.timing = Some(TimingTracker::new(model, self.geom.disks()));
    }

    /// The timing tracker, if [`DiskSystem::set_timing`] was called.
    pub fn timing(&self) -> Option<&TimingTracker> {
        self.timing.as_ref()
    }

    /// Restricts the system to *striped* I/O only (the weaker model
    /// variant the paper contrasts with independent I/O in Section 1).
    /// Subsequent non-striped operations fail with
    /// [`PdmError::StripedOnly`].
    pub fn set_striped_only(&mut self, on: bool) {
        self.striped_only = on;
    }

    /// Installs (or removes) a fair-share governor: every counted
    /// parallel I/O first blocks in [`SchedHandle::acquire`] until the
    /// shared [`crate::sched::FairScheduler`] grants it, and the grant
    /// is charged to the handle's job. The multi-tenant service
    /// installs one per leased job system; solo systems leave it
    /// unset. Cancelling the job makes the next acquisition fail with
    /// [`PdmError::Cancelled`], before the operation is serviced or
    /// charged.
    pub fn set_governor(&mut self, governor: Option<SchedHandle>) {
        self.governor = governor;
    }

    /// The installed fair-share governor, if any.
    pub fn governor(&self) -> Option<&SchedHandle> {
        self.governor.as_ref()
    }

    /// Installs a recovery policy: retryable failures
    /// ([`PdmError::is_retryable`]) are re-attempted with exponential
    /// backoff within `policy.max_attempts`, stuck completions are
    /// timed out per `policy.op_timeout_ms`, and dead transport links
    /// may be revived ([`Transport::respawn`]) when `policy.respawn`.
    /// Recovered operations are **charged once** — a recovered run's
    /// [`IoStats`] equal a clean run's. The default policy is
    /// fail-fast (PR 6/7 behaviour, byte-for-byte).
    pub fn set_retry_policy(&mut self, policy: RetryPolicy) {
        assert!(policy.max_attempts >= 1, "need at least one attempt");
        self.retry = policy;
    }

    /// The installed recovery policy.
    pub fn retry_policy(&self) -> RetryPolicy {
        self.retry
    }

    /// The cumulative recovery ledger: attempts, retries, timeouts,
    /// backoff charged, and worker respawns. All-zero on a clean run.
    pub fn retry_stats(&self) -> RetryStats {
        self.retry_stats
    }

    /// Charges straggler/backoff stall time into the simulated-time
    /// accumulator and (when enabled) the timing tracker's makespan.
    fn charge_stall_ms(&mut self, ms: f64) {
        if ms > 0.0 {
            self.net_ms += ms;
            if let Some(t) = self.timing.as_mut() {
                t.add_network_ms(ms);
            }
        }
    }

    /// Books one admission-level recovery attempt if the policy allows
    /// a retry: counts it, sleeps and charges its backoff, and reports
    /// whether the failure was absorbed. Injected transient faults and
    /// oversized delays are one-shot per operation
    /// ([`crate::fault::FaultPlan`]), so a single retry resolves them.
    fn absorb_retryable_failure(&mut self) -> bool {
        if !self.retry.retries_enabled() {
            return false;
        }
        self.retry_stats.retries += 1;
        self.retry_stats.attempts += 1;
        let backoff = self.retry.backoff_ms(1);
        if backoff > 0 {
            self.retry_stats.backoff_ms += backoff;
            std::thread::sleep(Duration::from_millis(backoff));
            self.charge_stall_ms(backoff as f64);
        }
        true
    }

    /// Submits one command to the transport pool. Callers are the
    /// pooled/lockstep paths only.
    fn submit_cmd(&mut self, disk: usize, cmd: Cmd<R>) {
        match &mut self.service {
            Service::Pooled(pool) | Service::Lockstep(pool) => pool.submit(disk, cmd),
            _ => unreachable!("submit_cmd on a unit-backed service"),
        }
    }

    /// Severs the transport link to `disk`, if there is one.
    fn sever_disk(&mut self, disk: usize) {
        if let Service::Pooled(pool) | Service::Lockstep(pool) = &mut self.service {
            pool.inject_disconnect(disk);
        }
    }

    /// Attempts to revive the transport link to `disk`
    /// ([`Transport::respawn`]).
    fn respawn_disk(&mut self, disk: usize) -> Result<bool> {
        match &mut self.service {
            Service::Pooled(pool) | Service::Lockstep(pool) => pool.respawn(disk),
            _ => Err(PdmError::Io(format!(
                "disk {disk}: unit-backed service has no link to respawn"
            ))),
        }
    }

    /// Receives one answered run command, absorbing recoverable
    /// failures within policy before handing it back:
    ///
    /// * a `Disconnected` answer with respawn budget revives the link
    ///   ([`Transport::respawn`]) and resubmits the whole run — one
    ///   retry per resubmitted command (reads are idempotent; writes
    ///   are replay-safe because the per-disk link is FIFO and the
    ///   payload rides in the returned buffer);
    /// * an answer that outwaits the per-op budget severs the stuck
    ///   request's links so every in-flight buffer comes home as
    ///   `Disconnected` — which the respawn arm may then recover, and
    ///   which [`DiskSystem::finalize_err`] otherwise surfaces as
    ///   [`PdmError::Timeout`]. A run carries up to
    ///   [`RunTable::longest_run`] parallel I/Os, so the wait is
    ///   `op_timeout_ms` times that: a healthy long run never trips
    ///   it, a stalled one still does.
    ///
    /// Returns only answers the caller must resolve (data landed,
    /// buffer to recycle, or an unrecoverable error).
    fn recv_resolved(
        &mut self,
        rx: &Receiver<Completion<R>>,
        tx: &Sender<Completion<R>>,
        table: &mut RunTable,
        is_read: bool,
    ) -> Completion<R> {
        let budget = self
            .retry
            .op_timeout_ms
            .map(|ms| ms.saturating_mul(table.longest_run() as u64));
        let mut severed = false;
        loop {
            let c = if let Some(budget) = budget {
                loop {
                    match rx.recv_timeout(Duration::from_millis(budget)) {
                        Ok(c) => break c,
                        Err(RecvTimeoutError::Timeout) => {
                            if !severed {
                                severed = true;
                                self.retry_stats.timeouts += 1;
                                self.timeout_fired = Some(budget);
                                // Sever the whole request: stuck links
                                // answer their in-flight commands with
                                // `Disconnected`, bringing the buffers
                                // home.
                                for disk in table.participants() {
                                    self.sever_disk(disk);
                                }
                            }
                        }
                        Err(RecvTimeoutError::Disconnected) => {
                            panic!("disk service thread hung up")
                        }
                    }
                }
            } else {
                rx.recv().expect("disk service thread hung up")
            };
            let recoverable = matches!(c.result, Err(PdmError::Disconnected { .. }))
                && self.retry.respawn
                && table.attempts[c.idx] + 1 < self.retry.max_attempts;
            if recoverable {
                if let Ok(revived) = self.respawn_disk(c.disk) {
                    table.attempts[c.idx] += 1;
                    self.retry_stats.retries += 1;
                    self.retry_stats.attempts += 1;
                    self.retry_stats.respawns += revived as u64;
                    let backoff = self.retry.backoff_ms(table.attempts[c.idx]);
                    if backoff > 0 {
                        self.retry_stats.backoff_ms += backoff;
                        std::thread::sleep(Duration::from_millis(backoff));
                        self.charge_stall_ms(backoff as f64);
                    }
                    let Completion {
                        idx,
                        disk,
                        buf,
                        mut slots,
                        ..
                    } = c;
                    // The returned slot list may have been rebased by
                    // the transport; rebuild it from the request.
                    slots.clear();
                    slots.extend(table.positions(idx).iter().map(|&i| table.refs[i].slot));
                    let done = tx.clone();
                    let cmd = if is_read {
                        Cmd::Read {
                            slots,
                            buf,
                            idx,
                            done,
                        }
                    } else {
                        Cmd::Write {
                            slots,
                            buf,
                            idx,
                            done,
                        }
                    };
                    self.submit_cmd(disk, cmd);
                    continue;
                }
            }
            return c;
        }
    }

    /// Final error classification for one drained operation: when a
    /// per-op timeout fired and the survivors still failed with
    /// `Disconnected`, the caller-facing error is the timeout.
    fn finalize_err(&mut self, e: PdmError) -> PdmError {
        match (self.timeout_fired.take(), e) {
            (Some(ms), PdmError::Disconnected { disk }) => PdmError::Timeout {
                disk,
                op: self.op_counter.saturating_sub(1),
                attempt: 0,
                ms,
            },
            (_, e) => e,
        }
    }

    /// A recycled run table holding `refs`.
    fn take_table(&mut self, refs: &[BlockRef]) -> RunTable {
        let mut table = self.tables.pop().unwrap_or_default();
        table.fill(refs, self.geom.disks());
        table
    }

    /// Builds `disk`'s run command for `table`: its slots in request
    /// order and one pooled buffer, staged from `payload` for writes.
    fn run_cmd(
        &mut self,
        table: &RunTable,
        disk: usize,
        payload: Option<Payload<'_, R>>,
        done: &Sender<Completion<R>>,
    ) -> Cmd<R> {
        let block = self.geom.block();
        let positions = table.positions(disk);
        let mut slots = self.slot_lists.pop().unwrap_or_default();
        slots.clear();
        slots.extend(positions.iter().map(|&i| table.refs[i].slot));
        let mut buf = self.pool.take(positions.len() * block);
        let done = done.clone();
        match payload {
            None => Cmd::Read {
                slots,
                buf,
                idx: disk,
                done,
            },
            Some(payload) => {
                for (chunk, &i) in buf.chunks_exact_mut(block).zip(positions) {
                    chunk.copy_from_slice(payload.block(i, block));
                }
                Cmd::Write {
                    slots,
                    buf,
                    idx: disk,
                    done,
                }
            }
        }
    }

    /// Submits one run command per participating disk of `table`,
    /// returning how many were submitted.
    fn submit_runs(
        &mut self,
        table: &RunTable,
        payload: Option<Payload<'_, R>>,
        done: &Sender<Completion<R>>,
    ) -> usize {
        let mut submitted = 0;
        for disk in table.participants() {
            let cmd = self.run_cmd(table, disk, payload, done);
            self.submit_cmd(disk, cmd);
            submitted += 1;
        }
        submitted
    }

    /// Resolves one answered run: read data lands in `out` (request
    /// order), the buffer and slot list are recycled on every path, and
    /// the first error is kept.
    fn absorb(
        &mut self,
        table: &RunTable,
        c: Completion<R>,
        out: Option<&mut [R]>,
        first_err: &mut Option<PdmError>,
    ) {
        match c.result {
            Ok(()) => {
                if let Some(out) = out {
                    let block = self.geom.block();
                    for (chunk, &i) in c.buf.chunks_exact(block).zip(table.positions(c.idx)) {
                        out[i * block..(i + 1) * block].copy_from_slice(chunk);
                    }
                }
            }
            Err(e) if first_err.is_none() => *first_err = Some(e.with_disk(c.disk)),
            Err(_) => {}
        }
        self.pool.put(c.buf);
        self.slot_lists.push(c.slots);
    }

    /// Takes one answer off a drain: through the recovery layer for
    /// counted operations, as it comes for uncounted ones and abort
    /// paths.
    fn answer(
        &mut self,
        rx: &Receiver<Completion<R>>,
        tx: &Sender<Completion<R>>,
        table: &mut RunTable,
        is_read: bool,
        recover: bool,
    ) -> Completion<R> {
        if recover {
            self.recv_resolved(rx, tx, table, is_read)
        } else {
            rx.recv().expect("disk service thread hung up")
        }
    }

    /// Collects every outstanding answer of a split-phase ticket.
    fn drain(
        &mut self,
        runs: &mut InFlight<R>,
        is_read: bool,
        mut out: Option<&mut [R]>,
        recover: bool,
    ) -> Option<PdmError> {
        let mut first_err = None;
        while runs.pending > 0 {
            let c = self.answer(&runs.rx, &runs.tx, &mut runs.table, is_read, recover);
            runs.pending -= 1;
            self.absorb(&runs.table, c, out.as_deref_mut(), &mut first_err);
        }
        first_err
    }

    /// Moves `table`'s blocks through the transport pool and waits for
    /// them: one run command per participating disk, all in flight at
    /// once in the pipelined pool, one at a time in lockstep. `payload`
    /// makes it a write; a read lands in `out` (or is discarded).
    fn transfer(
        &mut self,
        table: &mut RunTable,
        payload: Option<Payload<'_, R>>,
        mut out: Option<&mut [R]>,
        recover: bool,
    ) -> Option<PdmError> {
        let lockstep = matches!(self.service, Service::Lockstep(_));
        let is_read = payload.is_none();
        let (tx, rx) = channel();
        let mut first_err = None;
        let mut pending = 0;
        for disk in 0..table.disks() {
            if table.positions(disk).is_empty() {
                continue;
            }
            let cmd = self.run_cmd(table, disk, payload, &tx);
            self.submit_cmd(disk, cmd);
            pending += 1;
            if lockstep {
                // Serial discipline: one command in flight.
                let c = self.answer(&rx, &tx, table, is_read, recover);
                pending -= 1;
                self.absorb(table, c, out.as_deref_mut(), &mut first_err);
            }
        }
        for _ in 0..pending {
            let c = self.answer(&rx, &tx, table, is_read, recover);
            self.absorb(table, c, out.as_deref_mut(), &mut first_err);
        }
        first_err
    }

    /// [`Self::transfer`] of `refs` for an operation whose outcome is
    /// surfaced now: recycles the table, collects network time, and
    /// classifies the error.
    fn transfer_refs(
        &mut self,
        refs: &[BlockRef],
        payload: Option<Payload<'_, R>>,
        out: Option<&mut [R]>,
        recover: bool,
    ) -> Result<()> {
        let mut table = self.take_table(refs);
        let err = self.transfer(&mut table, payload, out, recover);
        self.tables.push(table);
        self.absorb_network_time();
        match err {
            Some(e) => Err(self.finalize_err(e)),
            None => {
                self.timeout_fired = None;
                Ok(())
            }
        }
    }

    /// Admits and charges the parallel I/Os `refs[k·len .. (k+1)·len]`
    /// in order, stopping at the first refusal. Returns the number of
    /// blocks admitted (the charged prefix) and the refusal, if any.
    fn admit_batches(
        &mut self,
        refs: &[BlockRef],
        batch_len: usize,
        is_read: bool,
    ) -> (usize, Result<()>) {
        for (k, batch) in refs.chunks(batch_len).enumerate() {
            if let Err(e) = self.admit(batch, is_read) {
                return (k * batch_len, Err(e));
            }
            self.charge(batch, is_read);
        }
        (refs.len(), Ok(()))
    }

    /// Runs the charged prefix of a request whose admission was refused
    /// part-way — so charged equals executed — then returns the
    /// refusal.
    fn run_prefix_then_fail<T>(
        &mut self,
        prefix: &[BlockRef],
        payload: Option<Payload<'_, R>>,
        refusal: PdmError,
    ) -> Result<T> {
        if !prefix.is_empty() {
            let _ = self.transfer_refs(prefix, payload, None, true);
        }
        Err(refusal)
    }

    fn validate(&mut self, refs: impl Iterator<Item = BlockRef>) -> Result<()> {
        let slots_per_disk = self.slots_per_disk();
        let disks = self.geom.disks();
        self.seen_disks.fill(false);
        let seen = &mut self.seen_disks;
        for r in refs {
            if r.disk >= disks || r.slot >= slots_per_disk {
                return Err(PdmError::OutOfRange {
                    disk: r.disk,
                    slot: r.slot,
                    slots_per_disk,
                });
            }
            if seen[r.disk] {
                return Err(PdmError::DuplicateDisk { disk: r.disk });
            }
            seen[r.disk] = true;
        }
        Ok(())
    }

    fn is_striped(&self, refs: &[BlockRef]) -> bool {
        refs.len() == self.geom.disks() && refs.windows(2).all(|w| w[0].slot == w[1].slot)
    }

    /// Validation common to every counted operation: model checks,
    /// then the fair-share governor (which may block until the
    /// scheduler grants the I/O, or refuse it on cancellation), then
    /// the fault plan (which consumes one operation number).
    fn admit(&mut self, refs: &[BlockRef], is_read: bool) -> Result<()> {
        self.validate(refs.iter().copied())?;
        let striped = self.is_striped(refs);
        if self.striped_only && !striped {
            return Err(PdmError::StripedOnly);
        }
        if let Some(g) = &self.governor {
            g.acquire(refs, is_read, striped)?;
        }
        let op = self.op_counter;
        self.op_counter += 1;
        if let Some(disk) = self.faults.check(op, refs.iter().map(|r| r.disk)) {
            // Permanent: refused before any attempt, never retried —
            // so `attempts == parallel_ios + retries` holds on this
            // error path too.
            return Err(PdmError::Fault { op, disk });
        }
        self.retry_stats.attempts += 1;
        if let Some(disk) = self.faults.check_transient(op, refs.iter().map(|r| r.disk)) {
            // Transient (point or flaky window): the first attempt
            // fails; within policy the retry absorbs it and the
            // operation proceeds — charged once, like a clean run.
            self.retry_stats.transient_faults += 1;
            if !self.absorb_retryable_failure() {
                return Err(PdmError::TransientFault {
                    op,
                    disk,
                    attempt: 0,
                });
            }
        }
        if let Some((disk, ms)) = self.faults.delay(op, refs.iter().map(|r| r.disk)) {
            match self.retry.op_timeout_ms {
                // A straggler past the per-op budget is a timeout:
                // retryable (the congestion is transient), and the
                // retry proceeds without re-paying the delay.
                Some(budget) if ms > budget => {
                    self.retry_stats.timeouts += 1;
                    if !self.absorb_retryable_failure() {
                        return Err(PdmError::Timeout {
                            disk,
                            op,
                            attempt: 0,
                            ms,
                        });
                    }
                }
                // Within budget (or no budget): the op simply takes
                // `ms` longer — charged to the makespan, not an error.
                _ => self.charge_stall_ms(ms as f64),
            }
        }
        if let Some(disk) = self
            .faults
            .check_disconnect(op, refs.iter().map(|r| r.disk))
        {
            match &mut self.service {
                // Transport-backed services sever the link and let the
                // operation proceed: the disconnect surfaces through
                // the completion path mid-operation (the realistic
                // failure), with every buffer still recycled.
                Service::Pooled(pool) | Service::Lockstep(pool) => pool.inject_disconnect(disk),
                // Unit-backed services have no link to sever; fail the
                // operation up front.
                _ => return Err(PdmError::Disconnected { disk }),
            }
        }
        Ok(())
    }

    /// Charges one parallel I/O to the statistics and timing model.
    fn charge(&mut self, refs: &[BlockRef], is_read: bool) {
        if is_read {
            self.stats.parallel_reads += 1;
            self.stats.blocks_read += refs.len() as u64;
            if self.is_striped(refs) {
                self.stats.striped_reads += 1;
            }
        } else {
            self.stats.parallel_writes += 1;
            self.stats.blocks_written += refs.len() as u64;
            if self.is_striped(refs) {
                self.stats.striped_writes += 1;
            }
        }
        if let Some(t) = self.timing.as_mut() {
            t.record(refs.iter().map(|r| (r.disk, r.slot)));
        }
    }

    /// Reads `refs` straight from locally hosted units into `out`
    /// (block `i` at `out[i·B ..]`), one unit call per block.
    fn units_read(&mut self, refs: &[BlockRef], out: &mut [R]) -> Result<()> {
        let block = self.geom.block();
        let (Service::Serial(units) | Service::SpawnPerOp(units)) = &mut self.service else {
            unreachable!("units_read on a transport-backed service")
        };
        for (r, chunk) in refs.iter().zip(out.chunks_exact_mut(block)) {
            units[r.disk]
                .read(r.slot, chunk)
                .map_err(|e| e.with_disk(r.disk))?;
        }
        Ok(())
    }

    /// Writes `refs` straight to locally hosted units from `payload`.
    fn units_write(&mut self, refs: &[BlockRef], payload: Payload<'_, R>) -> Result<()> {
        let block = self.geom.block();
        let (Service::Serial(units) | Service::SpawnPerOp(units)) = &mut self.service else {
            unreachable!("units_write on a transport-backed service")
        };
        for (i, r) in refs.iter().enumerate() {
            units[r.disk]
                .write(r.slot, payload.block(i, block))
                .map_err(|e| e.with_disk(r.disk))?;
        }
        Ok(())
    }

    /// One parallel read into a contiguous buffer: fetches each
    /// requested block (at most one per disk) into
    /// `out[i*B .. (i+1)*B]` in request order, with no allocation on
    /// the serial path. Counts one parallel I/O (zero if `refs` is
    /// empty).
    pub fn read_blocks_into(&mut self, refs: &[BlockRef], out: &mut [R]) -> Result<()> {
        if refs.is_empty() {
            assert!(out.is_empty(), "output buffer for an empty request");
            return Ok(());
        }
        let block = self.geom.block();
        assert_eq!(
            out.len(),
            refs.len() * block,
            "read_blocks_into requires {} records of output space",
            refs.len() * block
        );
        self.admit(refs, true)?;
        match &mut self.service {
            Service::Serial(_) => self.units_read(refs, out)?,
            Service::SpawnPerOp(units) => {
                let reqs: Vec<(usize, usize)> = refs.iter().map(|r| (r.disk, r.slot)).collect();
                threaded_read(units, &reqs, out.chunks_exact_mut(block).collect())?;
            }
            Service::Pooled(_) | Service::Lockstep(_) => {
                self.transfer_refs(refs, None, Some(out), true)?;
            }
        }
        self.charge(refs, true);
        Ok(())
    }

    /// One parallel read: fetches each requested block (at most one per
    /// disk). Returns the blocks in request order. Counts one parallel
    /// I/O (zero if `refs` is empty). Allocating convenience wrapper
    /// over [`DiskSystem::read_blocks_into`].
    pub fn read_blocks(&mut self, refs: &[BlockRef]) -> Result<Vec<Vec<R>>> {
        if refs.is_empty() {
            return Ok(Vec::new());
        }
        let block = self.geom.block();
        let mut flat = vec![R::default(); refs.len() * block];
        self.read_blocks_into(refs, &mut flat)?;
        Ok(flat.chunks_exact(block).map(|c| c.to_vec()).collect())
    }

    /// One parallel write: stores each block (at most one per disk).
    /// Every block must be exactly `B` records. Counts one parallel I/O
    /// (zero if `writes` is empty).
    pub fn write_blocks(&mut self, writes: &[(BlockRef, &[R])]) -> Result<()> {
        if writes.is_empty() {
            return Ok(());
        }
        let block = self.geom.block();
        for (_, data) in writes {
            assert_eq!(
                data.len(),
                block,
                "write_blocks requires full {block}-record blocks"
            );
        }
        let refs: Vec<BlockRef> = writes.iter().map(|(r, _)| *r).collect();
        self.admit(&refs, false)?;
        let payload = Payload::Pairs(writes);
        match &mut self.service {
            Service::Serial(_) => self.units_write(&refs, payload)?,
            Service::SpawnPerOp(units) => {
                let reqs: Vec<(usize, usize, &[R])> = writes
                    .iter()
                    .map(|(r, data)| (r.disk, r.slot, *data))
                    .collect();
                threaded_write(units, &reqs)?;
            }
            Service::Pooled(_) | Service::Lockstep(_) => {
                self.transfer_refs(&refs, Some(payload), None, true)?;
            }
        }
        self.charge(&refs, false);
        Ok(())
    }

    /// One parallel read of a *single* block into `out` (`B` records)
    /// — the block-granular unit of the forecasting merge. Counts one
    /// parallel I/O (classified striped only when `D = 1`, where one
    /// block is a whole stripe).
    pub fn read_block_into(&mut self, r: BlockRef, out: &mut [R]) -> Result<()> {
        self.read_blocks_into(&[r], out)
    }

    // ------------------------------------------------------------------
    // Split-phase operations (the engine's overlap path).

    /// Begins one parallel read. The operation is validated, charged,
    /// and submitted immediately; in [`ServiceMode::Threaded`] the
    /// transfer proceeds on the service threads while the caller
    /// computes, in the synchronous modes it completes before this
    /// returns. Resolve with [`DiskSystem::finish_read`] (or
    /// [`DiskSystem::discard_read`] on an abort path).
    ///
    /// Unlike the all-at-once operations, a split-phase operation is
    /// charged at submission: a transfer that later fails has still
    /// been issued against the model.
    pub fn begin_read(&mut self, refs: &[BlockRef]) -> Result<ReadTicket<R>> {
        self.begin_read_batches(refs, refs.len())
    }

    /// Begins a batch of parallel reads as one split-phase operation —
    /// the engine's one-memoryload-at-a-time read. `refs` is the
    /// flattened request: batch `k`, `refs[k·batch_len ..
    /// (k+1)·batch_len]`, is one parallel I/O (at most one block per
    /// disk), and block `i` lands at `out[i·B ..]` of
    /// [`DiskSystem::finish_read`].
    ///
    /// Every batch is admitted and charged in order exactly as `begin_read`
    /// would admit it alone, so governor grants, fault-plan operation
    /// numbers, and the retry ledger do not depend on the batching.
    /// Only then is the transfer submitted: in
    /// [`ServiceMode::Threaded`] as **one run command per participating
    /// disk**, in the synchronous modes completed before this returns.
    /// If admission refuses a batch part-way, the already-charged
    /// prefix is still executed (its data discarded) before the error
    /// is returned, so charged equals executed.
    pub fn begin_read_batches(
        &mut self,
        refs: &[BlockRef],
        batch_len: usize,
    ) -> Result<ReadTicket<R>> {
        let count = refs.len();
        if count == 0 {
            return Ok(ReadTicket::done(None, 0));
        }
        assert!(
            batch_len > 0 && count.is_multiple_of(batch_len),
            "ragged batches: {count} blocks in batches of {batch_len}"
        );
        let block = self.geom.block();
        if let Service::Serial(_) | Service::SpawnPerOp(_) = self.service {
            // Synchronous: each parallel I/O is admitted, charged, and
            // transferred in turn into one pooled buffer;
            // `finish_read` just copies out.
            let mut buf = self.pool.take(count * block);
            let mut result = Ok(());
            for (k, batch) in refs.chunks(batch_len).enumerate() {
                let out = &mut buf[k * batch_len * block..(k + 1) * batch_len * block];
                result = self.admit(batch, true).and_then(|()| {
                    self.charge(batch, true);
                    self.units_read(batch, out)
                });
                if result.is_err() {
                    break;
                }
            }
            return match result {
                Ok(()) => Ok(ReadTicket::done(Some(buf), count)),
                Err(e) => {
                    self.pool.put(buf);
                    Err(e)
                }
            };
        }
        let (admitted, refusal) = self.admit_batches(refs, batch_len, true);
        if let Err(e) = refusal {
            return self.run_prefix_then_fail(&refs[..admitted], None, e);
        }
        if let Service::Lockstep(_) = self.service {
            // Serial discipline over the transport: the runs complete
            // one by one now; `finish_read` just copies out.
            let mut buf = self.pool.take(count * block);
            return match self.transfer_refs(refs, None, Some(&mut buf), true) {
                Ok(()) => Ok(ReadTicket::done(Some(buf), count)),
                Err(e) => {
                    self.pool.put(buf);
                    Err(e)
                }
            };
        }
        let table = self.take_table(refs);
        let (tx, rx) = channel();
        let pending = self.submit_runs(&table, None, &tx);
        self.absorb_network_time();
        Ok(ReadTicket {
            runs: Some(InFlight {
                rx,
                tx,
                table,
                pending,
            }),
            sync: None,
            count,
        })
    }

    /// Begins a split-phase read of a single block (see
    /// [`DiskSystem::begin_read`]) — how the forecasting merge keeps
    /// the predicted run's next block in flight while the heap drains.
    pub fn begin_read_block(&mut self, r: BlockRef) -> Result<ReadTicket<R>> {
        self.begin_read(&[r])
    }

    /// Completes a split-phase read, copying block `i` of the request
    /// into `out[i*B .. (i+1)*B]` and recycling the transfer buffers.
    /// On error every buffer is still reclaimed.
    pub fn finish_read(&mut self, ticket: ReadTicket<R>, out: &mut [R]) -> Result<()> {
        assert_eq!(
            out.len(),
            ticket.records(self.geom.block()),
            "finish_read requires {} records of output space",
            ticket.records(self.geom.block())
        );
        let ReadTicket { runs, sync, .. } = ticket;
        if let Some(buf) = sync {
            out.copy_from_slice(&buf);
            self.pool.put(buf);
        }
        let Some(mut runs) = runs else {
            return Ok(());
        };
        let err = self.drain(&mut runs, true, Some(out), true);
        self.tables.push(runs.table);
        match err {
            Some(e) => Err(self.finalize_err(e)),
            None => {
                self.timeout_fired = None;
                Ok(())
            }
        }
    }

    /// Abandons a split-phase read (abort path): waits out the
    /// transfers, discards the data, and reclaims every buffer.
    pub fn discard_read(&mut self, ticket: ReadTicket<R>) {
        // No recovery on the abort path: the data is unwanted, so a
        // failed answer just recycles its buffer.
        let ReadTicket { runs, sync, .. } = ticket;
        if let Some(buf) = sync {
            self.pool.put(buf);
        }
        if let Some(mut runs) = runs {
            self.drain(&mut runs, true, None, false);
            self.tables.push(runs.table);
        }
    }

    /// Begins one parallel write from a contiguous buffer: block `i` of
    /// the request is taken from `data[i*B .. (i+1)*B]`. The data is
    /// staged into pooled buffers, so `data` is reusable as soon as
    /// this returns. Charged at submission; resolve with
    /// [`DiskSystem::finish_write`].
    pub fn begin_write(&mut self, refs: &[BlockRef], data: &[R]) -> Result<WriteTicket<R>> {
        self.begin_write_batches(refs, refs.len(), data)
    }

    /// Begins a batch of parallel writes as one split-phase operation —
    /// the write dual of [`DiskSystem::begin_read_batches`]: batch `k`
    /// of the flattened `refs` is one parallel I/O, block `i` comes
    /// from `data[i·B ..]`, every batch is admitted and charged in
    /// order, and the transfer goes out as one run command per
    /// participating disk. A part-way admission refusal still writes
    /// the charged prefix before the error is returned.
    pub fn begin_write_batches(
        &mut self,
        refs: &[BlockRef],
        batch_len: usize,
        data: &[R],
    ) -> Result<WriteTicket<R>> {
        if refs.is_empty() {
            return Ok(WriteTicket { runs: None });
        }
        let block = self.geom.block();
        assert!(
            batch_len > 0 && refs.len().is_multiple_of(batch_len),
            "ragged batches: {} blocks in batches of {batch_len}",
            refs.len()
        );
        assert_eq!(
            data.len(),
            refs.len() * block,
            "begin_write requires {} records of data",
            refs.len() * block
        );
        let payload = Payload::Flat(data);
        if let Service::Serial(_) | Service::SpawnPerOp(_) = self.service {
            for (batch, data) in refs.chunks(batch_len).zip(data.chunks(batch_len * block)) {
                self.admit(batch, false)?;
                self.charge(batch, false);
                match &mut self.service {
                    Service::SpawnPerOp(units) => {
                        let reqs: Vec<(usize, usize, &[R])> = batch
                            .iter()
                            .zip(data.chunks_exact(block))
                            .map(|(r, chunk)| (r.disk, r.slot, chunk))
                            .collect();
                        threaded_write(units, &reqs)?;
                    }
                    _ => self.units_write(batch, Payload::Flat(data))?,
                }
            }
            return Ok(WriteTicket { runs: None });
        }
        let (admitted, refusal) = self.admit_batches(refs, batch_len, false);
        if let Err(e) = refusal {
            return self.run_prefix_then_fail(&refs[..admitted], Some(payload), e);
        }
        if let Service::Lockstep(_) = self.service {
            self.transfer_refs(refs, Some(payload), None, true)?;
            return Ok(WriteTicket { runs: None });
        }
        let table = self.take_table(refs);
        let (tx, rx) = channel();
        let pending = self.submit_runs(&table, Some(payload), &tx);
        self.absorb_network_time();
        Ok(WriteTicket {
            runs: Some(InFlight {
                rx,
                tx,
                table,
                pending,
            }),
        })
    }

    /// Completes a split-phase write, reclaiming the staging buffers
    /// and surfacing any transfer error.
    pub fn finish_write(&mut self, ticket: WriteTicket<R>) -> Result<()> {
        let Some(mut runs) = ticket.runs else {
            return Ok(());
        };
        let err = self.drain(&mut runs, false, None, true);
        self.tables.push(runs.table);
        match err {
            Some(e) => Err(self.finalize_err(e)),
            None => {
                self.timeout_fired = None;
                Ok(())
            }
        }
    }

    // ------------------------------------------------------------------
    // Striped convenience layers.

    /// The `D` references of the stripe at `slot` (test convenience;
    /// production paths reuse scratch buffers instead).
    #[cfg(test)]
    fn stripe_refs(&self, slot: usize) -> Vec<BlockRef> {
        (0..self.geom.disks())
            .map(|disk| BlockRef { disk, slot })
            .collect()
    }

    /// Striped read of the stripe at `slot` into `out` (`B·D` records
    /// in address order), with no allocation at all in steady state
    /// (the reference scratch is a reused field).
    pub fn read_stripe_into(&mut self, slot: usize, out: &mut [R]) -> Result<()> {
        let mut refs = std::mem::take(&mut self.stripe_scratch);
        refs.clear();
        refs.extend((0..self.geom.disks()).map(|disk| BlockRef { disk, slot }));
        let result = self.read_blocks_into(&refs, out);
        self.stripe_scratch = refs;
        result
    }

    /// Striped read of the stripe at `slot`: the `D` blocks at the same
    /// location on every disk, concatenated in disk order (which is
    /// record-address order within the stripe).
    pub fn read_stripe(&mut self, slot: usize) -> Result<Vec<R>> {
        let mut out = vec![R::default(); self.geom.block() * self.geom.disks()];
        self.read_stripe_into(slot, &mut out)?;
        Ok(out)
    }

    /// Striped write of `data` (`B·D` records in address order) to the
    /// stripe at `slot`.
    pub fn write_stripe(&mut self, slot: usize, data: &[R]) -> Result<()> {
        assert_eq!(
            data.len(),
            self.geom.block() * self.geom.disks(),
            "write_stripe requires a full stripe of {} records",
            self.geom.block() * self.geom.disks()
        );
        let writes: Vec<(BlockRef, &[R])> = data
            .chunks_exact(self.geom.block())
            .enumerate()
            .map(|(disk, chunk)| (BlockRef { disk, slot }, chunk))
            .collect();
        self.write_blocks(&writes)
    }

    /// The references of memoryload `ml` of a portion in address order
    /// — stripe by stripe, disk by disk — into `refs`. Every `D`
    /// consecutive references are one striped parallel I/O.
    pub(crate) fn memoryload_refs(&self, portion: usize, ml: usize, refs: &mut Vec<BlockRef>) {
        let spm = self.geom.stripes_per_memoryload();
        let base = self.portion_base(portion) + ml * spm;
        refs.clear();
        for slot in base..base + spm {
            refs.extend((0..self.geom.disks()).map(|disk| BlockRef { disk, slot }));
        }
    }

    /// Reads memoryload `ml` of a portion into `out` (`M` records in
    /// address order) with `M/BD` striped reads and no per-block
    /// allocation. In [`ServiceMode::Threaded`] the whole memoryload
    /// goes out as one run command per disk.
    pub fn read_memoryload_into(&mut self, portion: usize, ml: usize, out: &mut [R]) -> Result<()> {
        assert_eq!(
            out.len(),
            self.geom.memory(),
            "read_memoryload_into requires a full memoryload of {} records",
            self.geom.memory()
        );
        if let Service::Pooled(_) = self.service {
            let mut refs = std::mem::take(&mut self.stripe_scratch);
            self.memoryload_refs(portion, ml, &mut refs);
            let result = self
                .begin_read_batches(&refs, self.geom.disks())
                .and_then(|t| self.finish_read(t, out));
            self.stripe_scratch = refs;
            return result;
        }
        let stripe_len = self.geom.block() * self.geom.disks();
        let base = self.portion_base(portion) + ml * self.geom.stripes_per_memoryload();
        for (t, chunk) in out.chunks_exact_mut(stripe_len).enumerate() {
            self.read_stripe_into(base + t, chunk)?;
        }
        Ok(())
    }

    /// Reads memoryload `ml` of a portion: its `M/BD` consecutive
    /// stripes, returned as `M` records in address order. Costs `M/BD`
    /// parallel (striped) reads.
    pub fn read_memoryload(&mut self, portion: usize, ml: usize) -> Result<Vec<R>> {
        let mut out = vec![R::default(); self.geom.memory()];
        self.read_memoryload_into(portion, ml, &mut out)?;
        Ok(out)
    }

    /// Writes `M` records (address order) to memoryload `ml` of a
    /// portion with `M/BD` striped writes — in
    /// [`ServiceMode::Threaded`] as one run command per disk.
    pub fn write_memoryload(&mut self, portion: usize, ml: usize, data: &[R]) -> Result<()> {
        assert_eq!(
            data.len(),
            self.geom.memory(),
            "write_memoryload requires a full memoryload of {} records",
            self.geom.memory()
        );
        if let Service::Pooled(_) = self.service {
            let mut refs = std::mem::take(&mut self.stripe_scratch);
            self.memoryload_refs(portion, ml, &mut refs);
            let result = self
                .begin_write_batches(&refs, self.geom.disks(), data)
                .and_then(|t| self.finish_write(t));
            self.stripe_scratch = refs;
            return result;
        }
        let stripe_len = self.geom.block() * self.geom.disks();
        let base = self.portion_base(portion) + ml * self.geom.stripes_per_memoryload();
        for (t, chunk) in data.chunks_exact(stripe_len).enumerate() {
            self.write_stripe(base + t, chunk)?;
        }
        Ok(())
    }

    // ------------------------------------------------------------------
    // Uncounted direct access (setup / verification / observation).

    /// Moves `refs` directly, bypassing the model (no I/O charged, no
    /// recovery): a write when `payload` is set, else a read into
    /// `out`. Transport-backed services send one run per disk.
    fn uncounted(
        &mut self,
        refs: &[BlockRef],
        payload: Option<Payload<'_, R>>,
        out: Option<&mut [R]>,
    ) -> Result<()> {
        match (&self.service, payload, out) {
            (Service::Pooled(_) | Service::Lockstep(_), payload, out) => {
                self.transfer_refs(refs, payload, out, false)
            }
            (_, Some(payload), _) => self.units_write(refs, payload),
            (_, None, Some(out)) => self.units_read(refs, out),
            (_, None, None) => unreachable!("an uncounted read needs a destination"),
        }
    }

    /// Translates a record address within a portion to its block
    /// location (Figure 1 layout).
    pub fn locate(&self, portion: usize, address: u64) -> BlockRef {
        let disk = self.layout.disk(address) as usize;
        let stripe = self.layout.stripe(address) as usize;
        BlockRef {
            disk,
            slot: self.portion_base(portion) + stripe,
        }
    }

    /// Fills a portion with `records` in address order **without
    /// counting I/Os** — initial data placement, not part of any
    /// algorithm's cost. Transport-backed services move one run per
    /// disk per memoryload.
    pub fn load_records(&mut self, portion: usize, records: &[R]) {
        assert_eq!(
            records.len(),
            self.geom.records(),
            "load_records requires exactly N = {} records",
            self.geom.records()
        );
        let mut refs = std::mem::take(&mut self.stripe_scratch);
        for (ml, chunk) in records.chunks_exact(self.geom.memory()).enumerate() {
            self.memoryload_refs(portion, ml, &mut refs);
            self.uncounted(&refs, Some(Payload::Flat(chunk)), None)
                .expect("load_records within capacity");
        }
        self.stripe_scratch = refs;
    }

    /// Reads a whole portion back in address order **without counting
    /// I/Os** — for verification at the end of an experiment.
    pub fn dump_records(&mut self, portion: usize) -> Vec<R> {
        let mut out = vec![R::default(); self.geom.records()];
        let mut refs = std::mem::take(&mut self.stripe_scratch);
        for (ml, chunk) in out.chunks_exact_mut(self.geom.memory()).enumerate() {
            self.memoryload_refs(portion, ml, &mut refs);
            self.uncounted(&refs, None, Some(chunk))
                .expect("dump_records within capacity");
        }
        self.stripe_scratch = refs;
        out
    }

    /// Reads one block **without counting I/Os** — used by the
    /// potential-function tracker to observe state between operations.
    pub fn peek_block(&mut self, r: BlockRef) -> Vec<R> {
        let mut buf = vec![R::default(); self.geom.block()];
        self.uncounted(&[r], None, Some(&mut buf))
            .expect("peek_block within capacity");
        buf
    }
}

impl<R: Record + ByteRecord> DiskSystem<R> {
    /// A file-backed system: one preallocated file per disk in `dir`.
    pub fn new_file(geom: Geometry, portions: usize, dir: &Path) -> Result<Self> {
        assert!(portions >= 1, "need at least one portion");
        std::fs::create_dir_all(dir)
            .map_err(|e| PdmError::Io(format!("create_dir_all {}: {e}", dir.display())))?;
        let slots = portions * geom.stripes();
        let mut units: Vec<Box<dyn DiskUnit<R>>> = Vec::with_capacity(geom.disks());
        for d in 0..geom.disks() {
            let path = dir.join(format!("disk{d:03}.bin"));
            units.push(Box::new(FileDisk::create::<R>(&path, geom.block(), slots)?));
        }
        Ok(Self::from_units(geom, portions, units))
    }

    /// Backend-generic constructor: builds [`DiskSystem::new_mem`] or
    /// [`DiskSystem::new_file`] per the [`Backend`] value, so callers
    /// (CLI, benches, tests) can thread a backend choice through
    /// configuration instead of branching at every construction site.
    pub fn new_with_backend(geom: Geometry, portions: usize, backend: &Backend) -> Result<Self> {
        match backend {
            Backend::Mem => Ok(Self::new_mem(geom, portions)),
            Backend::File { dir } => Self::new_file(geom, portions, dir),
        }
    }

    /// Transport-generic constructor: the same system served in
    /// process ([`TransportConfig::InProc`]), by out-of-process
    /// `pdm-diskd` workers over Unix-domain sockets
    /// ([`TransportConfig::Uds`]), or over the deterministic simulated
    /// network ([`TransportConfig::SimNet`]). Placement and charged
    /// parallel-I/O counts are identical across all three; only
    /// message counters, network time, and the wall clock differ.
    ///
    /// Remote systems start in the lockstep (serial) discipline; use
    /// [`DiskSystem::set_service_mode`] /
    /// [`DiskSystem::set_threaded`] for pipelined submission.
    pub fn new_with_transport(
        geom: Geometry,
        portions: usize,
        backend: &Backend,
        transport: &TransportConfig,
    ) -> Result<Self> {
        let slots = portions * geom.stripes();
        match transport {
            TransportConfig::InProc => Self::new_with_backend(geom, portions, backend),
            TransportConfig::SimNet(model) => {
                let mut transports: Vec<Box<dyn Transport<R>>> = Vec::with_capacity(geom.disks());
                match backend {
                    Backend::Mem => {
                        for d in 0..geom.disks() {
                            transports.push(Box::new(SimNetTransport::<R>::new_mem(
                                d,
                                geom.block(),
                                slots,
                                *model,
                            )?));
                        }
                    }
                    Backend::File { dir } => {
                        std::fs::create_dir_all(dir).map_err(|e| {
                            PdmError::Io(format!("create_dir_all {}: {e}", dir.display()))
                        })?;
                        for d in 0..geom.disks() {
                            transports.push(Box::new(SimNetTransport::<R>::new_file(
                                d,
                                &dir.join(format!("disk{d:03}.bin")),
                                geom.block(),
                                slots,
                                *model,
                            )?));
                        }
                    }
                }
                Ok(Self::from_remote(
                    geom,
                    portions,
                    DiskPool::from_transports(transports),
                ))
            }
            TransportConfig::Uds(cfg) => {
                let transports =
                    spawn_uds_workers::<R>(geom.disks(), geom.block(), slots, backend, cfg)?;
                let mut sys =
                    Self::from_remote(geom, portions, DiskPool::from_transports(transports));
                sys.set_retry_policy(cfg.retry);
                Ok(sys)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> DiskSystem<u64> {
        // N=64, B=2, D=4, M=16: 8 stripes, 4 memoryloads.
        let g = Geometry::new(64, 2, 4, 16).unwrap();
        DiskSystem::new_mem(g, 2)
    }

    #[test]
    fn load_dump_round_trip() {
        let mut sys = small();
        let records: Vec<u64> = (0..64).collect();
        sys.load_records(0, &records);
        assert_eq!(sys.dump_records(0), records);
        assert_eq!(sys.stats().parallel_ios(), 0, "loading is free");
    }

    #[test]
    fn figure1_placement() {
        // Figure 1 semantics: record 21 (B=2, D=4 here) sits at
        // offset 1, disk 2, stripe 2: 21 = 1 + 2*2 + 2*8.
        let mut sys = small();
        let records: Vec<u64> = (0..64).collect();
        sys.load_records(0, &records);
        let loc = sys.locate(0, 21);
        assert_eq!(loc, BlockRef { disk: 2, slot: 2 });
        let blk = sys.peek_block(loc);
        assert_eq!(blk, vec![20, 21]);
    }

    #[test]
    fn striped_read_counts_one_io() {
        let mut sys = small();
        let records: Vec<u64> = (0..64).collect();
        sys.load_records(0, &records);
        let stripe = sys.read_stripe(0).unwrap();
        assert_eq!(stripe, (0..8).collect::<Vec<u64>>());
        let s = sys.stats();
        assert_eq!(s.parallel_reads, 1);
        assert_eq!(s.striped_reads, 1);
        assert_eq!(s.blocks_read, 4);
    }

    #[test]
    fn independent_read_classified() {
        let mut sys = small();
        let records: Vec<u64> = (0..64).collect();
        sys.load_records(0, &records);
        let blocks = sys
            .read_blocks(&[BlockRef { disk: 0, slot: 0 }, BlockRef { disk: 2, slot: 3 }])
            .unwrap();
        assert_eq!(blocks[0], vec![0, 1]);
        assert_eq!(blocks[1], vec![28, 29]); // stripe 3, disk 2 → 24 + 4..
        let s = sys.stats();
        assert_eq!(s.parallel_reads, 1);
        assert_eq!(s.striped_reads, 0);
        assert_eq!(s.independent_reads(), 1);
    }

    #[test]
    fn duplicate_disk_rejected() {
        let mut sys = small();
        let err = sys
            .read_blocks(&[BlockRef { disk: 1, slot: 0 }, BlockRef { disk: 1, slot: 1 }])
            .unwrap_err();
        assert!(matches!(err, PdmError::DuplicateDisk { disk: 1 }));
    }

    #[test]
    fn out_of_range_rejected() {
        let mut sys = small();
        assert!(sys.read_blocks(&[BlockRef { disk: 9, slot: 0 }]).is_err());
        assert!(sys.read_blocks(&[BlockRef { disk: 0, slot: 99 }]).is_err());
    }

    #[test]
    fn write_blocks_round_trip() {
        let mut sys = small();
        let a = [100u64, 101];
        let b = [200u64, 201];
        sys.write_blocks(&[
            (BlockRef { disk: 0, slot: 8 }, &a),
            (BlockRef { disk: 3, slot: 9 }, &b),
        ])
        .unwrap();
        assert_eq!(sys.peek_block(BlockRef { disk: 0, slot: 8 }), a.to_vec());
        assert_eq!(sys.peek_block(BlockRef { disk: 3, slot: 9 }), b.to_vec());
        let s = sys.stats();
        assert_eq!(s.parallel_writes, 1);
        assert_eq!(s.blocks_written, 2);
        assert_eq!(s.independent_writes(), 1);
    }

    #[test]
    fn memoryload_round_trip_and_cost() {
        let mut sys = small();
        let records: Vec<u64> = (0..64).collect();
        sys.load_records(0, &records);
        // M = 16, BD = 8 → 2 stripes per memoryload, 4 memoryloads.
        let ml1 = sys.read_memoryload(0, 1).unwrap();
        assert_eq!(ml1, (16..32).collect::<Vec<u64>>());
        assert_eq!(sys.stats().parallel_reads, 2);
        assert_eq!(sys.stats().striped_reads, 2);

        sys.write_memoryload(1, 0, &ml1).unwrap();
        assert_eq!(sys.stats().parallel_writes, 2);
        let back = sys.read_memoryload(1, 0).unwrap();
        assert_eq!(back, ml1);
    }

    #[test]
    fn portions_are_disjoint() {
        let mut sys = small();
        let zeros = vec![0u64; 64];
        let ones = vec![1u64; 64];
        sys.load_records(0, &zeros);
        sys.load_records(1, &ones);
        assert_eq!(sys.dump_records(0), zeros);
        assert_eq!(sys.dump_records(1), ones);
    }

    #[test]
    fn striped_only_mode_rejects_independent_access() {
        let mut sys = small();
        sys.set_striped_only(true);
        // Striped operations still work.
        sys.read_stripe(0).unwrap();
        let stripe = vec![0u64; 8];
        sys.write_stripe(8, &stripe).unwrap();
        // Independent accesses are rejected without being charged.
        let before = sys.stats();
        let err = sys
            .read_blocks(&[BlockRef { disk: 0, slot: 0 }])
            .unwrap_err();
        assert!(matches!(err, PdmError::StripedOnly));
        let err = sys
            .write_blocks(&[(BlockRef { disk: 1, slot: 2 }, &[0u64, 0][..])])
            .unwrap_err();
        assert!(matches!(err, PdmError::StripedOnly));
        assert_eq!(sys.stats(), before, "rejected ops must not be charged");
    }

    #[test]
    fn fault_injection_fires() {
        let mut sys = small();
        sys.set_faults(FaultPlan::new().fail_at(1, 2));
        // op 0 succeeds
        sys.read_stripe(0).unwrap();
        // op 1 touches all disks; disk 2 faults.
        let err = sys.read_stripe(1).unwrap_err();
        assert!(matches!(err, PdmError::Fault { op: 1, disk: 2 }));
    }

    #[test]
    fn transient_faults_absorbed_with_exact_accounting() {
        // Admission-level transients (points and a flaky window) are
        // absorbed in every service mode; the recovered run's data and
        // charged I/Os equal a clean run's, and the ledger counts each
        // injected firing exactly once.
        let records: Vec<u64> = (0..64).collect();
        let mut clean = small();
        clean.load_records(0, &records);
        for s in 0..8 {
            clean.read_stripe(s).unwrap();
        }
        for mode in [ServiceMode::Serial, ServiceMode::Threaded] {
            let mut sys = small();
            sys.set_service_mode(mode);
            sys.set_retry_policy(RetryPolicy::fault_tolerant());
            sys.load_records(0, &records);
            // Three point transients plus a two-op window: 5 firings.
            sys.set_faults(
                FaultPlan::new()
                    .fail_transient_at(0, 1)
                    .fail_transient_at(3, 2)
                    .fail_transient_at(7, 0)
                    .fail_between(4, 6, 3),
            );
            for s in 0..8 {
                assert_eq!(
                    sys.read_stripe(s).unwrap(),
                    records[s * 8..(s + 1) * 8],
                    "mode {mode:?} stripe {s}"
                );
            }
            let rs = sys.retry_stats();
            assert_eq!(rs.transient_faults, 5, "mode {mode:?}");
            assert_eq!(rs.retries, 5, "retries == injected transients");
            assert_eq!(rs.timeouts, 0);
            assert_eq!(rs.respawns, 0);
            assert_eq!(rs.attempts, sys.stats().parallel_ios() + rs.retries);
            assert_eq!(sys.stats(), clean.stats(), "charged once, mode {mode:?}");
        }
    }

    #[test]
    fn transient_fault_fails_fast_without_retry_budget() {
        let mut sys = small();
        sys.set_faults(FaultPlan::new().fail_transient_at(1, 2));
        sys.read_stripe(0).unwrap();
        let err = sys.read_stripe(1).unwrap_err();
        assert_eq!(
            err,
            PdmError::TransientFault {
                op: 1,
                disk: 2,
                attempt: 0
            }
        );
        assert!(err.is_retryable());
        let rs = sys.retry_stats();
        assert_eq!(rs.transient_faults, 1);
        assert_eq!(rs.retries, 0, "default policy never retries");
    }

    #[test]
    fn stragglers_charge_the_makespan_within_budget() {
        let mut sys = small();
        let records: Vec<u64> = (0..64).collect();
        sys.load_records(0, &records);
        sys.set_faults(FaultPlan::new().delay_at(0, 1, 25).delay_at(0, 3, 40));
        let before = sys.network_ms();
        sys.read_stripe(0).unwrap();
        // The op completes when its slowest participant does.
        assert!((sys.network_ms() - before - 40.0).abs() < 1e-9);
        assert!(sys.retry_stats().is_clean(), "a straggler is not a failure");
    }

    #[test]
    fn oversized_straggler_times_out_and_retries() {
        let records: Vec<u64> = (0..64).collect();
        let mut sys = small();
        sys.set_retry_policy(RetryPolicy {
            max_attempts: 2,
            op_timeout_ms: Some(10),
            ..RetryPolicy::default()
        });
        sys.load_records(0, &records);
        sys.set_faults(FaultPlan::new().delay_at(1, 0, 50));
        sys.read_stripe(0).unwrap();
        assert_eq!(sys.read_stripe(1).unwrap(), records[8..16]);
        let rs = sys.retry_stats();
        assert_eq!(rs.timeouts, 1);
        assert_eq!(rs.retries, 1, "the retry outlives the congestion");

        // Without a retry budget the typed Timeout surfaces.
        let mut sys = small();
        sys.set_retry_policy(RetryPolicy {
            op_timeout_ms: Some(10),
            ..RetryPolicy::default()
        });
        sys.load_records(0, &records);
        sys.set_faults(FaultPlan::new().delay_at(0, 3, 50));
        let err = sys.read_stripe(0).unwrap_err();
        assert_eq!(
            err,
            PdmError::Timeout {
                disk: 3,
                op: 0,
                attempt: 0,
                ms: 50
            }
        );
    }

    #[test]
    fn disconnect_respawn_recovers_threaded_run() {
        let records: Vec<u64> = (0..64).collect();
        let mut clean = small();
        clean.set_service_mode(ServiceMode::Threaded);
        clean.load_records(0, &records);
        for s in 0..8 {
            clean.read_stripe(s).unwrap();
        }

        let mut sys = small();
        sys.set_service_mode(ServiceMode::Threaded);
        sys.set_retry_policy(RetryPolicy::fault_tolerant());
        sys.load_records(0, &records);
        sys.set_faults(FaultPlan::new().disconnect_at(2, 1));
        for s in 0..8 {
            assert_eq!(
                sys.read_stripe(s).unwrap(),
                records[s * 8..(s + 1) * 8],
                "stripe {s}"
            );
        }
        let rs = sys.retry_stats();
        assert_eq!(rs.respawns, 1, "one link revived");
        assert_eq!(rs.retries, 1, "one command resubmitted");
        assert_eq!(sys.stats(), clean.stats(), "recovered run charged once");
        assert_eq!(sys.buffer_pool_stats().outstanding, 0);
    }

    #[test]
    fn disconnect_without_respawn_still_fails_cleanly() {
        // The fail-fast contract of PR 7 is unchanged under the
        // default policy: the disconnect surfaces, buffers come home.
        let mut sys = small();
        sys.set_service_mode(ServiceMode::Threaded);
        sys.load_records(0, &(0..64).collect::<Vec<u64>>());
        sys.set_faults(FaultPlan::new().disconnect_at(1, 2));
        sys.read_stripe(0).unwrap();
        let err = sys.read_stripe(1).unwrap_err();
        assert!(matches!(err, PdmError::Disconnected { disk: 2 }), "{err}");
        assert_eq!(sys.retry_stats().respawns, 0);
        assert_eq!(sys.buffer_pool_stats().outstanding, 0);
    }

    #[test]
    fn simnet_run_recovers_disconnect_with_respawn() {
        let g = Geometry::new(64, 2, 4, 16).unwrap();
        let mut sys: DiskSystem<u64> = DiskSystem::new_with_transport(
            g,
            2,
            &Backend::Mem,
            &TransportConfig::SimNet(Default::default()),
        )
        .unwrap();
        sys.set_threaded(true);
        sys.set_retry_policy(RetryPolicy::fault_tolerant());
        let records: Vec<u64> = (0..64).collect();
        sys.load_records(0, &records);
        sys.set_faults(FaultPlan::new().disconnect_at(3, 0).disconnect_at(5, 2));
        for s in 0..8 {
            assert_eq!(
                sys.read_stripe(s).unwrap(),
                records[s * 8..(s + 1) * 8],
                "stripe {s}"
            );
        }
        let rs = sys.retry_stats();
        assert_eq!(rs.respawns, 2);
        assert_eq!(rs.retries, 2);
        assert_eq!(sys.buffer_pool_stats().outstanding, 0);
    }

    #[test]
    fn threaded_matches_serial() {
        let g = Geometry::new(256, 4, 8, 64).unwrap();
        let records: Vec<u64> = (0..256).collect();
        let mut serial = DiskSystem::<u64>::new_mem(g, 1);
        serial.load_records(0, &records);
        for mode in [ServiceMode::SpawnPerOp, ServiceMode::Threaded] {
            let mut threaded = DiskSystem::<u64>::new_mem(g, 1);
            threaded.set_service_mode(mode);
            assert_eq!(threaded.service_mode(), mode);
            threaded.load_records(0, &records);
            serial.reset_stats();
            for slot in 0..g.stripes() {
                assert_eq!(
                    serial.read_stripe(slot).unwrap(),
                    threaded.read_stripe(slot).unwrap()
                );
            }
            assert_eq!(serial.stats(), threaded.stats());
        }
    }

    #[test]
    fn service_mode_switch_preserves_data() {
        let mut sys = small();
        let records: Vec<u64> = (0..64).map(|i| i * 7).collect();
        sys.load_records(0, &records);
        sys.set_service_mode(ServiceMode::Threaded);
        assert_eq!(sys.dump_records(0), records);
        sys.set_service_mode(ServiceMode::SpawnPerOp);
        assert_eq!(sys.dump_records(0), records);
        sys.set_service_mode(ServiceMode::Serial);
        assert_eq!(sys.dump_records(0), records);
    }

    #[test]
    fn empty_requests_are_free() {
        let mut sys = small();
        assert!(sys.read_blocks(&[]).unwrap().is_empty());
        sys.write_blocks(&[]).unwrap();
        let t = sys.begin_read(&[]).unwrap();
        sys.finish_read(t, &mut []).unwrap();
        let t = sys.begin_write(&[], &[]).unwrap();
        sys.finish_write(t).unwrap();
        assert_eq!(sys.stats().parallel_ios(), 0);
    }

    #[test]
    fn split_phase_round_trip_all_modes() {
        for mode in [
            ServiceMode::Serial,
            ServiceMode::SpawnPerOp,
            ServiceMode::Threaded,
        ] {
            let mut sys = small();
            sys.set_service_mode(mode);
            let records: Vec<u64> = (0..64).collect();
            sys.load_records(0, &records);
            // Overlapped read of stripes 0 and 1.
            let t0 = sys.begin_read(&sys.stripe_refs(0)).unwrap();
            let t1 = sys.begin_read(&sys.stripe_refs(1)).unwrap();
            let mut s0 = vec![0u64; 8];
            let mut s1 = vec![0u64; 8];
            sys.finish_read(t0, &mut s0).unwrap();
            sys.finish_read(t1, &mut s1).unwrap();
            assert_eq!(s0, (0..8).collect::<Vec<u64>>());
            assert_eq!(s1, (8..16).collect::<Vec<u64>>());
            // Split-phase write to portion 1, then verify.
            let refs = sys.stripe_refs(sys.portion_base(1));
            let w = sys.begin_write(&refs, &s1).unwrap();
            sys.finish_write(w).unwrap();
            assert_eq!(
                sys.peek_block(BlockRef {
                    disk: 0,
                    slot: sys.portion_base(1)
                }),
                vec![8, 9]
            );
            let s = sys.stats();
            assert_eq!(s.parallel_reads, 2);
            assert_eq!(s.striped_reads, 2);
            assert_eq!(s.parallel_writes, 1);
            // All pooled buffers returned.
            assert_eq!(sys.buffer_pool_stats().outstanding, 0, "mode {mode:?}");
        }
    }

    #[test]
    fn buffer_pool_recycles_on_fault_error_path() {
        // Regression test: a fault-injection error must not strand
        // pooled block buffers (the pool's `outstanding` count would
        // creep up and every later operation would allocate afresh).
        for mode in [ServiceMode::Serial, ServiceMode::Threaded] {
            let mut sys = small();
            sys.set_service_mode(mode);
            let records: Vec<u64> = (0..64).collect();
            sys.load_records(0, &records);
            // Warm the pool, then record its size.
            let mut buf = vec![0u64; 8];
            sys.read_stripe_into(0, &mut buf).unwrap();
            let t = sys.begin_read(&sys.stripe_refs(1)).unwrap();
            sys.finish_read(t, &mut buf).unwrap();
            let warm = sys.buffer_pool_stats();
            assert_eq!(warm.outstanding, 0);
            // Every striped op from now on faults on disk 2.
            let mut plan = FaultPlan::new();
            for op in 2..32 {
                plan = plan.fail_at(op, 2);
            }
            sys.set_faults(plan);
            for _ in 0..10 {
                assert!(matches!(
                    sys.read_stripe_into(0, &mut buf),
                    Err(PdmError::Fault { .. })
                ));
                assert!(matches!(
                    sys.begin_read(&sys.stripe_refs(0)),
                    Err(PdmError::Fault { .. })
                ));
                assert!(matches!(
                    sys.begin_write(&sys.stripe_refs(8), &buf),
                    Err(PdmError::Fault { .. })
                ));
            }
            let after = sys.buffer_pool_stats();
            assert_eq!(after.outstanding, 0, "buffers leaked in mode {mode:?}");
            assert_eq!(
                after.allocated, warm.allocated,
                "faulted ops must not grow the pool (mode {mode:?})"
            );
        }
    }

    #[test]
    fn single_block_reads_all_modes() {
        // The block-granular merge path: one block per parallel I/O,
        // synchronous and split-phase, classified independent for
        // D > 1.
        for mode in [
            ServiceMode::Serial,
            ServiceMode::SpawnPerOp,
            ServiceMode::Threaded,
        ] {
            let mut sys = small();
            sys.set_service_mode(mode);
            let records: Vec<u64> = (0..64).collect();
            sys.load_records(0, &records);
            let mut buf = vec![0u64; 2];
            sys.read_block_into(BlockRef { disk: 2, slot: 3 }, &mut buf)
                .unwrap();
            assert_eq!(buf, vec![28, 29], "mode {mode:?}");
            let t = sys.begin_read_block(BlockRef { disk: 1, slot: 0 }).unwrap();
            sys.finish_read(t, &mut buf).unwrap();
            assert_eq!(buf, vec![2, 3], "mode {mode:?}");
            let s = sys.stats();
            assert_eq!(s.parallel_reads, 2);
            assert_eq!(s.striped_reads, 0, "one block of D=4 is not a stripe");
            assert_eq!(s.blocks_read, 2);
            assert_eq!(sys.buffer_pool_stats().outstanding, 0, "mode {mode:?}");
        }
    }

    #[test]
    fn discard_read_reclaims_buffers() {
        let mut sys = small();
        sys.set_service_mode(ServiceMode::Threaded);
        let records: Vec<u64> = (0..64).collect();
        sys.load_records(0, &records);
        let t = sys.begin_read(&sys.stripe_refs(0)).unwrap();
        sys.discard_read(t);
        assert_eq!(sys.buffer_pool_stats().outstanding, 0);
    }

    #[test]
    fn file_backend_round_trip() {
        let g = Geometry::new(64, 2, 4, 16).unwrap();
        let dir = crate::tempdir::TempDir::new("pdm-sys");
        let mut sys: DiskSystem<u64> = DiskSystem::new_file(g, 2, dir.path()).unwrap();
        let records: Vec<u64> = (0..64).map(|i| i * 3).collect();
        sys.load_records(0, &records);
        assert_eq!(sys.dump_records(0), records);
        let stripe = sys.read_stripe(1).unwrap();
        assert_eq!(stripe, (8..16).map(|i| i * 3).collect::<Vec<u64>>());
    }

    #[test]
    fn backend_generic_constructor() {
        let g = Geometry::new(64, 2, 4, 16).unwrap();
        let records: Vec<u64> = (0..64).collect();
        let dir = crate::tempdir::TempDir::new("pdm-backend");
        for backend in [
            Backend::Mem,
            Backend::File {
                dir: dir.path().to_path_buf(),
            },
        ] {
            let mut sys: DiskSystem<u64> = DiskSystem::new_with_backend(g, 2, &backend).unwrap();
            sys.load_records(0, &records);
            assert_eq!(sys.dump_records(0), records, "backend {backend:?}");
        }
    }

    /// A SimNet system must be byte-identical to the in-process system
    /// on every access path — the simulated network serializes through
    /// the real wire protocol, which must be lossless.
    #[test]
    fn simnet_matches_inproc_on_all_paths() {
        use crate::transport::{SimNetModel, TransportConfig};
        let g = Geometry::new(64, 2, 4, 16).unwrap();
        let records: Vec<u64> = (0..64u64).map(|i| i.wrapping_mul(13)).collect();
        for mode in [ServiceMode::Serial, ServiceMode::Threaded] {
            let mut sim: DiskSystem<u64> = DiskSystem::new_with_transport(
                g,
                2,
                &Backend::Mem,
                &TransportConfig::SimNet(SimNetModel::lan()),
            )
            .unwrap();
            sim.set_service_mode(mode);
            assert_eq!(sim.service_mode(), mode);
            let mut local = small();
            local.set_service_mode(mode);
            sim.load_records(0, &records);
            local.load_records(0, &records);
            assert_eq!(sim.dump_records(0), records, "mode {mode:?}");
            // Striped, independent, and split-phase paths all agree.
            assert_eq!(
                sim.read_stripe(1).unwrap(),
                local.read_stripe(1).unwrap(),
                "mode {mode:?}"
            );
            let refs = [BlockRef { disk: 1, slot: 0 }, BlockRef { disk: 3, slot: 2 }];
            assert_eq!(
                sim.read_blocks(&refs).unwrap(),
                local.read_blocks(&refs).unwrap()
            );
            let t = sim.begin_read(&sim.stripe_refs(2)).unwrap();
            let mut got = vec![0u64; 8];
            sim.finish_read(t, &mut got).unwrap();
            assert_eq!(got, records[16..24], "mode {mode:?}");
            let w = sim
                .begin_write(&sim.stripe_refs(sim.portion_base(1)), &got)
                .unwrap();
            sim.finish_write(w).unwrap();
            assert_eq!(
                sim.peek_block(BlockRef {
                    disk: 0,
                    slot: sim.portion_base(1)
                }),
                records[16..18].to_vec()
            );
            // Mirror the split-phase ops on the local system so the
            // charged-cost comparison covers identical sequences.
            let t = local.begin_read(&local.stripe_refs(2)).unwrap();
            let mut local_got = vec![0u64; 8];
            local.finish_read(t, &mut local_got).unwrap();
            assert_eq!(local_got, got);
            let w = local
                .begin_write(&local.stripe_refs(local.portion_base(1)), &local_got)
                .unwrap();
            local.finish_write(w).unwrap();
            // Same charged cost, messages moved, network time accrued.
            assert_eq!(sim.stats(), local.stats(), "mode {mode:?}");
            let msgs = sim.message_stats();
            assert!(msgs.messages_sent > 0 && msgs.messages_sent == msgs.messages_received);
            assert!(sim.network_ms() > 0.0, "mode {mode:?}");
            assert_eq!(local.message_stats(), MsgStats::default());
            assert_eq!(local.network_ms(), 0.0);
            assert_eq!(sim.buffer_pool_stats().outstanding, 0, "mode {mode:?}");
        }
    }

    /// SimNet time flows into the timing tracker's makespan.
    #[test]
    fn simnet_network_time_reaches_the_tracker() {
        use crate::transport::{SimNetModel, TransportConfig};
        let g = Geometry::new(64, 2, 4, 16).unwrap();
        let mut sim: DiskSystem<u64> = DiskSystem::new_with_transport(
            g,
            1,
            &Backend::Mem,
            &TransportConfig::SimNet(SimNetModel::lan()),
        )
        .unwrap();
        sim.set_timing(TimingModel::ssd());
        let records: Vec<u64> = (0..64).collect();
        sim.load_records(0, &records);
        let net_before = sim.network_ms();
        sim.read_stripe(0).unwrap();
        let t = sim.timing().unwrap();
        let accrued = sim.network_ms() - net_before;
        assert!(accrued > 0.0);
        assert!(t.network_ms() >= accrued, "tracker saw the network charge");
        assert!(t.elapsed_ms() >= t.network_ms());
    }

    /// An injected transport disconnect surfaces mid-operation as
    /// [`PdmError::Disconnected`] naming the disk, recycles every
    /// pooled buffer, and leaves the link dead for later operations.
    #[test]
    fn transport_disconnect_surfaces_and_preserves_pool_hygiene() {
        use crate::transport::{SimNetModel, TransportConfig};
        let g = Geometry::new(64, 2, 4, 16).unwrap();
        for mode in [ServiceMode::Serial, ServiceMode::Threaded] {
            let mut sim: DiskSystem<u64> = DiskSystem::new_with_transport(
                g,
                2,
                &Backend::Mem,
                &TransportConfig::SimNet(SimNetModel::lan()),
            )
            .unwrap();
            sim.set_service_mode(mode);
            let records: Vec<u64> = (0..64).collect();
            sim.load_records(0, &records);
            // Warm the pool on both the all-at-once and split-phase
            // paths (split-phase holds a full stripe's buffers at
            // once), then snapshot.
            let mut buf = vec![0u64; 8];
            sim.read_stripe_into(0, &mut buf).unwrap();
            let t = sim.begin_read(&sim.stripe_refs(1)).unwrap();
            sim.finish_read(t, &mut buf).unwrap();
            let warm = sim.buffer_pool_stats();
            assert_eq!(warm.outstanding, 0);
            // Ops 2.. : disk 2's link drops during op 2.
            sim.set_faults(FaultPlan::new().disconnect_at(2, 2));
            let err = sim.read_stripe_into(0, &mut buf).unwrap_err();
            assert!(
                matches!(err, PdmError::Disconnected { disk: 2 }),
                "mode {mode:?}: {err}"
            );
            // The link stays dead: later ops touching disk 2 fail too.
            let err = sim.read_stripe_into(1, &mut buf).unwrap_err();
            assert!(matches!(err, PdmError::Disconnected { disk: 2 }));
            // Ops avoiding disk 2 still work.
            sim.read_blocks_into(&[BlockRef { disk: 0, slot: 0 }], &mut buf[..2])
                .unwrap();
            // Split-phase paths also fail cleanly: lockstep surfaces
            // the error at begin, pipelined at finish.
            match sim.begin_read(&sim.stripe_refs(0)) {
                Ok(t) => {
                    let mut out = vec![0u64; 8];
                    let err = sim.finish_read(t, &mut out).unwrap_err();
                    assert!(matches!(err, PdmError::Disconnected { disk: 2 }));
                }
                Err(e) => assert!(matches!(e, PdmError::Disconnected { disk: 2 })),
            }
            let after = sim.buffer_pool_stats();
            assert_eq!(after.outstanding, 0, "buffers leaked in mode {mode:?}");
            assert_eq!(
                after.allocated, warm.allocated,
                "disconnects must not grow the pool (mode {mode:?})"
            );
        }
    }

    /// In Threaded (pipelined) mode a split-phase disconnect error
    /// arrives at `finish_read`, not `begin_read`; buffers still come
    /// home.
    #[test]
    fn split_phase_disconnect_resolves_at_finish() {
        use crate::transport::{SimNetModel, TransportConfig};
        let g = Geometry::new(64, 2, 4, 16).unwrap();
        let mut sim: DiskSystem<u64> = DiskSystem::new_with_transport(
            g,
            1,
            &Backend::Mem,
            &TransportConfig::SimNet(SimNetModel::lan()),
        )
        .unwrap();
        sim.set_service_mode(ServiceMode::Threaded);
        let records: Vec<u64> = (0..64).collect();
        sim.load_records(0, &records);
        sim.set_faults(FaultPlan::new().disconnect_at(0, 1));
        let t = sim.begin_read(&sim.stripe_refs(0)).unwrap();
        let mut out = vec![0u64; 8];
        let err = sim.finish_read(t, &mut out).unwrap_err();
        assert!(matches!(err, PdmError::Disconnected { disk: 1 }), "{err}");
        assert_eq!(sim.buffer_pool_stats().outstanding, 0);
    }

    /// On unit-backed (non-transport) services a disconnect fault has
    /// no link to sever and fails the operation up front.
    #[test]
    fn disconnect_fault_on_local_units_fails_upfront() {
        let mut sys = small();
        sys.set_faults(FaultPlan::new().disconnect_at(0, 3));
        let err = sys.read_stripe(0).unwrap_err();
        assert!(matches!(err, PdmError::Disconnected { disk: 3 }));
        // Not charged, and later ops are unaffected (no persistent
        // link state on local units).
        assert_eq!(sys.stats().parallel_ios(), 0);
        sys.read_stripe(0).unwrap();
    }

    /// A run whose request and reply frames each outgrow the socket
    /// buffers (32768 one-record blocks on one disk: ~0.7 MB of read
    /// replies, ~1 MB of write requests) must stream through the UDS
    /// transport: the reader has to be draining replies while the
    /// writer is still sending the run's requests.
    #[test]
    fn uds_run_larger_than_the_socket_buffers_streams() {
        use crate::proto::Worker;
        use crate::transport::{serve_stream, UdsTransport};
        use std::os::unix::net::UnixListener;
        let g = Geometry::new(1 << 16, 1, 1, 1 << 15).unwrap();
        let dir = crate::tempdir::TempDir::new("pdm-uds-long-run");
        let path = dir.path().join("disk0.sock");
        let listener = UnixListener::bind(&path).unwrap();
        let slots = g.stripes();
        let server = std::thread::spawn(move || {
            let (stream, _) = listener.accept().unwrap();
            let mut w = Worker::new_mem(8, slots).unwrap();
            serve_stream(stream, &mut w).unwrap();
        });
        let t = UdsTransport::<u64>::connect(0, &path, 1, slots, None, None).unwrap();
        let mut sys = DiskSystem::from_remote(
            g,
            1,
            DiskPool::from_transports(vec![Box::new(t) as Box<dyn Transport<u64>>]),
        );
        sys.set_threaded(true);
        let records: Vec<u64> = (0..g.records() as u64).map(|i| i ^ 0x5a5a).collect();
        sys.load_records(0, &records);
        let mut out = vec![0u64; g.memory()];
        sys.read_memoryload_into(0, 1, &mut out).unwrap();
        assert_eq!(out, records[g.memory()..]);
        assert_eq!(sys.dump_records(0), records);
        let msgs = sys.message_stats();
        assert_eq!(msgs.messages_sent, msgs.messages_received);
        assert_eq!(msgs.messages_sent as usize, 2 * g.records() + g.memory());
        drop(sys);
        server.join().unwrap();
    }

    /// The full UDS client path — handshake, socket framing, the
    /// reader-thread pipeline — against workers served on plain
    /// threads (the identical serve loop `pdm-diskd` runs), so the
    /// socket transport is provable without spawning processes.
    #[test]
    fn uds_transport_against_in_thread_workers() {
        use crate::proto::Worker;
        use crate::transport::{serve_stream, UdsTransport};
        use std::os::unix::net::UnixListener;
        let g = Geometry::new(64, 2, 4, 16).unwrap();
        let dir = crate::tempdir::TempDir::new("pdm-uds-sys");
        let slots = 2 * g.stripes();
        let mut handles = Vec::new();
        let mut transports: Vec<Box<dyn Transport<u64>>> = Vec::new();
        for d in 0..g.disks() {
            let path = dir.path().join(format!("disk{d}.sock"));
            let listener = UnixListener::bind(&path).unwrap();
            let block_bytes = g.block() * 8;
            handles.push(std::thread::spawn(move || {
                let (stream, _) = listener.accept().unwrap();
                let mut w = Worker::new_mem(block_bytes, slots).unwrap();
                serve_stream(stream, &mut w).unwrap();
            }));
            transports.push(Box::new(
                UdsTransport::<u64>::connect(d, &path, g.block(), slots, None, None).unwrap(),
            ));
        }
        let mut sys = DiskSystem::from_remote(g, 2, DiskPool::from_transports(transports));
        let records: Vec<u64> = (0..64).map(|i| i * 5).collect();
        sys.load_records(0, &records);
        assert_eq!(sys.dump_records(0), records);
        // Pipelined split-phase over the sockets.
        sys.set_threaded(true);
        let t0 = sys.begin_read(&sys.stripe_refs(0)).unwrap();
        let t1 = sys.begin_read(&sys.stripe_refs(1)).unwrap();
        let mut s0 = vec![0u64; 8];
        let mut s1 = vec![0u64; 8];
        sys.finish_read(t0, &mut s0).unwrap();
        sys.finish_read(t1, &mut s1).unwrap();
        assert_eq!(s0, records[..8]);
        assert_eq!(s1, records[8..16]);
        let w = sys
            .begin_write(&sys.stripe_refs(sys.portion_base(1)), &s0)
            .unwrap();
        sys.finish_write(w).unwrap();
        assert_eq!(
            sys.peek_block(BlockRef {
                disk: 0,
                slot: sys.portion_base(1)
            }),
            records[..2].to_vec()
        );
        let msgs = sys.message_stats();
        assert!(msgs.messages_sent > 0);
        assert_eq!(
            msgs.messages_sent, msgs.messages_received,
            "every request answered"
        );
        assert_eq!(sys.buffer_pool_stats().outstanding, 0);
        // Dropping the system sends STOP; the serve loops exit cleanly.
        drop(sys);
        for h in handles {
            h.join().unwrap();
        }
    }

    /// The file backend must behave identically to MemDisk under every
    /// service mode — including the threaded split-phase path the
    /// engine's overlap uses, where the per-disk workers issue real
    /// positional reads/writes against the files.
    #[test]
    fn file_backend_split_phase_all_modes() {
        let g = Geometry::new(64, 2, 4, 16).unwrap();
        for mode in [
            ServiceMode::Serial,
            ServiceMode::SpawnPerOp,
            ServiceMode::Threaded,
        ] {
            let dir = crate::tempdir::TempDir::new("pdm-sys-split");
            let mut sys: DiskSystem<u64> = DiskSystem::new_file(g, 2, dir.path()).unwrap();
            sys.set_service_mode(mode);
            let records: Vec<u64> = (0..64u64).map(|i| i.wrapping_mul(11)).collect();
            sys.load_records(0, &records);
            // Overlapped reads of stripes 0 and 1, then a split-phase
            // write of stripe 1's data into portion 1.
            let t0 = sys.begin_read(&sys.stripe_refs(0)).unwrap();
            let t1 = sys.begin_read(&sys.stripe_refs(1)).unwrap();
            let mut s0 = vec![0u64; 8];
            let mut s1 = vec![0u64; 8];
            sys.finish_read(t0, &mut s0).unwrap();
            sys.finish_read(t1, &mut s1).unwrap();
            assert_eq!(s0, records[..8], "mode {mode:?}");
            assert_eq!(s1, records[8..16], "mode {mode:?}");
            let refs = sys.stripe_refs(sys.portion_base(1));
            let w = sys.begin_write(&refs, &s1).unwrap();
            sys.finish_write(w).unwrap();
            assert_eq!(
                sys.peek_block(BlockRef {
                    disk: 0,
                    slot: sys.portion_base(1)
                }),
                records[8..10].to_vec(),
                "mode {mode:?}"
            );
            assert_eq!(sys.buffer_pool_stats().outstanding, 0, "mode {mode:?}");
        }
    }
}
