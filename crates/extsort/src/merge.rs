//! External merge sort on the parallel disk model, in three merge
//! flavours (see DESIGN.md for the full cost table).
//!
//! 1. **Run formation**: each memoryload streams through the shared
//!    [`PassEngine`] — striped reads, in-memory sort,
//!    striped writes back as a sorted run of `M` records — one pass,
//!    `2N/BD` parallel I/Os. In [`pdm::ServiceMode::Threaded`] the
//!    engine overlaps the reads of memoryload *k+1* with the sort of
//!    memoryload *k*.
//! 2. **Merge passes**: groups of up to `F` consecutive runs are
//!    merged, where `F` depends on the [`MergeStrategy`]. A leftover
//!    group of a *single* run is never copied: it stays where it is
//!    (zero I/O) and `Run::portion` records which portion it lives
//!    in for the next pass.
//!
//! # Merge strategies
//!
//! * [`MergeStrategy::SingleBuffered`] (the default): each active run
//!   buffers one stripe (`B·D` records) and the output buffers one
//!   stripe, so memory holds at most `(F+1)·BD = M` records and
//!   `F₁ = M/BD − 1`. Every transfer is a striped parallel I/O through
//!   a reusable stripe buffer ([`pdm::DiskSystem::read_stripe_into`]);
//!   a full merge pass costs exactly `2N/BD`.
//! * [`MergeStrategy::DoubleBuffered`]: each cursor holds *two* stripe
//!   buffers and prefetches its next stripe split-phase
//!   ([`pdm::DiskSystem::begin_read`]) while the merge drains the
//!   current one, so in [`pdm::ServiceMode::Threaded`] the refill
//!   latency hides behind the comparisons. To stay inside `M` records
//!   the fan-in is halved — `F₂ = (M/BD − 1)/2` — which *raises* the
//!   pass count.
//! * [`MergeStrategy::Forecast`]: the Vitter–Shriver forecasting
//!   merge at *block* granularity. Each run buffers a single block
//!   (`B` records) and carries a **forecasting key** — the key of the
//!   last record of its current block. Blocks within a run are sorted,
//!   so the run whose forecasting key is smallest is *exactly* the run
//!   whose buffer empties next; its next block is prefetched
//!   split-phase into one shared landing block while the merge drains.
//!   Memory holds `F` run blocks, the landing block, and the output
//!   stripe: `F₃ = M/B − D − 1 = Θ(M/B)` — a factor ~`D` more fan-in
//!   than `F₁`, hence strictly fewer merge passes whenever the
//!   single-buffered sort needs more than one. The price is the read
//!   discipline: refills are independent single-block parallel I/Os
//!   (`D` read operations per stripe instead of one striped read), so
//!   a forecast merge pass charges `(D+1)·N/BD` parallel I/Os against
//!   the single-buffered `2N/BD`. Fewer passes, cheaper passes for the
//!   striped strategies — `bmmc::bounds::merge_sort_ios` computes both
//!   sides exactly and the `engine_sweep` extsort section measures
//!   them.
//!
//! # CPU cost and stability
//!
//! All three strategies share one record-merge kernel: a keyed loser
//! tree over the group's cursors. The keys of a block (or stripe) are
//! computed once, when it lands, so an output record costs one cached
//! key read and `⌈log₂ F⌉` compares on the replay path. The forecasting
//! merge picks each prefetch from a min-heap of `(forecasting key, run
//! index)` over the runs with unfetched blocks, so a block refill costs
//! `O(log F)` rather than a scan of all `F` runs. Run formation keys
//! each record once per memoryload (it sorts packed `(key, position)`
//! pairs and gathers). The sort is therefore **stable**: formation keeps
//! input order among equal keys, runs are consecutive in input order,
//! and the merge breaks ties by run index. Every strategy, in every
//! service mode, places every input identically.

use pdm::engine::{ReadPlan, WritePlan};
use pdm::{
    BlockRef, DiskSystem, Geometry, IoStats, MsgStats, PassEngine, PdmError, ReadTicket, Record,
};
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::time::{Duration, Instant};

/// How the merge passes buffer their runs. See the module docs for the
/// cost trade-offs; `bmmc::bounds` mirrors the fan-in and cost
/// formulas.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum MergeStrategy {
    /// One stripe buffer per run, striped I/O only, fan-in
    /// `M/BD − 1`. The memory-model-faithful default.
    #[default]
    SingleBuffered,
    /// Two stripe buffers per run with split-phase prefetch, fan-in
    /// `(M/BD − 1)/2`.
    DoubleBuffered,
    /// One *block* buffer per run plus a forecasting key driving a
    /// single split-phase block prefetch, fan-in `M/B − D − 1`.
    Forecast,
}

impl MergeStrategy {
    /// The merge fan-in this strategy reaches on `geom` (may be < 2,
    /// in which case [`sort_by_key_with`] rejects the geometry).
    pub fn fan_in(&self, geom: &Geometry) -> usize {
        let stripes_in_memory = geom.stripes_per_memoryload();
        match self {
            MergeStrategy::SingleBuffered => stripes_in_memory.saturating_sub(1),
            MergeStrategy::DoubleBuffered => stripes_in_memory.saturating_sub(1) / 2,
            MergeStrategy::Forecast => geom
                .blocks_per_memoryload()
                .saturating_sub(geom.disks() + 1),
        }
    }

    /// Stable lower-case label (`single`, `double`, `forecast`) used
    /// by the CLI flag and the bench row keys.
    pub fn as_str(&self) -> &'static str {
        match self {
            MergeStrategy::SingleBuffered => "single",
            MergeStrategy::DoubleBuffered => "double",
            MergeStrategy::Forecast => "forecast",
        }
    }
}

impl std::str::FromStr for MergeStrategy {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "single" => Ok(MergeStrategy::SingleBuffered),
            "double" => Ok(MergeStrategy::DoubleBuffered),
            "forecast" => Ok(MergeStrategy::Forecast),
            other => Err(format!(
                "unknown merge strategy {other:?} (expected single, double, or forecast)"
            )),
        }
    }
}

/// Configuration for [`sort_by_key_with`].
#[derive(Clone, Copy, Debug, Default)]
pub struct SortConfig {
    /// Which merge strategy the merge passes use (see [`MergeStrategy`]
    /// and the module docs). Default: [`MergeStrategy::SingleBuffered`].
    pub merge: MergeStrategy,
}

/// Outcome of an external sort.
#[derive(Clone, Copy, Debug)]
pub struct SortReport {
    /// Number of passes over the data (run formation + merge passes).
    pub passes: usize,
    /// The merge fan-in actually used — the strategy's own value
    /// ([`MergeStrategy::fan_in`]): `M/BD − 1` single-buffered,
    /// `(M/BD − 1)/2` double-buffered, `M/B − D − 1` forecasting.
    pub fan_in: usize,
    /// The merge strategy that produced this report (so benches and
    /// the CLI can label rows).
    pub strategy: MergeStrategy,
    /// Total I/O.
    pub total: IoStats,
    /// Transport messages and wire bytes moved by the whole sort —
    /// identically zero when the disk system is served in process.
    pub msgs: MsgStats,
    /// Portion holding the sorted data.
    pub final_portion: usize,
    /// Wall time of run formation (the first pass).
    pub formation_time: Duration,
    /// Wall time of all merge passes together.
    pub merge_time: Duration,
}

/// A run: a contiguous range of stripes, sorted by key, living in
/// `portion`. Between passes runs may live in *either* portion: a
/// leftover singleton group is left in place (zero I/O) rather than
/// copied, so the next pass finds it where the previous one did.
#[derive(Clone, Copy, Debug)]
struct Run {
    start: usize,
    end: usize, // exclusive, in stripes
    portion: usize,
}

/// Packs a key and an index into one ordered entry: comparing packed
/// entries compares by key, then by index.
#[inline]
fn entry(key: u64, index: usize) -> u128 {
    (u128::from(key) << 64) | index as u128
}

/// The index half of a packed [`entry`].
#[inline]
fn entry_index(e: u128) -> usize {
    e as u64 as usize
}

/// The loser-tree entry of a run with no records left: above every
/// packed `(key, index)`, since no index reaches `u64::MAX`.
const EXHAUSTED: u128 = u128::MAX;

/// A loser tree over `k` leaves holding packed `(key, index)` entries
/// ([`entry`]), leaf `i` carrying index `i`. `nodes[0]` is the overall
/// winner; `nodes[j]` for `1 ≤ j < k` caches the loser of the match at
/// internal node `j`, whose children are `2j` and `2j + 1`. Leaf `i`
/// sits (implicitly) at position `k + i`, so any `k` gives a full binary
/// tree of depth `⌈log₂ k⌉`. Replacing the winner replays only its leaf's
/// path: `⌈log₂ k⌉` compares against cached losers. The pop order is
/// exactly a binary heap's over the same `(key, index)` pairs.
struct LoserTree {
    nodes: Vec<u128>,
}

impl LoserTree {
    /// Plays the initial tournament over `leaves` (use [`EXHAUSTED`]
    /// for a leaf with nothing to offer).
    fn new(leaves: &[u128]) -> Self {
        let k = leaves.len();
        assert!(k > 0, "a loser tree needs at least one leaf");
        // winners[j]: the winner of the subtree at position j.
        let mut winners = vec![EXHAUSTED; 2 * k];
        winners[k..].copy_from_slice(leaves);
        let mut nodes = vec![EXHAUSTED; k];
        for j in (1..k).rev() {
            let (a, b) = (winners[2 * j], winners[2 * j + 1]);
            winners[j] = a.min(b);
            nodes[j] = a.max(b);
        }
        nodes[0] = winners[1];
        LoserTree { nodes }
    }

    /// The smallest live entry as `(key, leaf index)`, or `None` once
    /// every leaf is exhausted.
    #[inline]
    fn peek(&self) -> Option<(u64, usize)> {
        let w = self.nodes[0];
        (w != EXHAUSTED).then(|| ((w >> 64) as u64, entry_index(w)))
    }

    /// Replaces the current winner's leaf with `next` — that leaf's
    /// next entry, or [`EXHAUSTED`] — and replays the leaf's path to
    /// the root.
    #[inline]
    fn replace_winner(&mut self, next: u128) {
        let k = self.nodes.len();
        let leaf = entry_index(self.nodes[0]);
        debug_assert!(leaf < k, "no live winner to replace");
        debug_assert!(next == EXHAUSTED || entry_index(next) == leaf);
        let mut v = next;
        let mut p = (k + leaf) / 2;
        while p > 0 {
            let n = self.nodes[p];
            self.nodes[p] = n.max(v);
            v = n.min(v);
            p /= 2;
        }
        self.nodes[0] = v;
    }
}

/// A run's buffered records plus their keys, computed once when the
/// buffer is installed. The buffer is either full (`pos` counts the
/// records already merged) or drained (`pos == len`); runs are stripe-
/// aligned, so every refill fills it completely.
struct KeyedBuf<R> {
    recs: Vec<R>,
    keys: Vec<u64>,
    pos: usize,
}

impl<R: Record> KeyedBuf<R> {
    /// An empty (drained) buffer of `len` records.
    fn new(len: usize) -> Self {
        KeyedBuf {
            recs: vec![R::default(); len],
            keys: vec![0; len],
            pos: len,
        }
    }

    /// Keys the freshly landed `recs` and rewinds to the first record.
    fn install(&mut self, key: impl Fn(&R) -> u64) {
        for (k, r) in self.keys.iter_mut().zip(&self.recs) {
            *k = key(r);
        }
        self.pos = 0;
    }

    fn drained(&self) -> bool {
        self.pos == self.recs.len()
    }

    /// The key of the buffer's last record (the forecasting key).
    fn last_key(&self) -> u64 {
        self.keys[self.keys.len() - 1]
    }
}

/// The record merge every strategy shares: a keyed loser tree over
/// the cursors' buffered heads, appending to the one-stripe output
/// buffer `out` and writing it striped from stripe `out_stripe`
/// (absolute) on. `refill(sys, cursors, i)` makes cursor `i`'s next
/// buffer current once its buffer drains, returning false when run `i`
/// has no records left; cursors still drained at the start are refilled
/// first, in index order. Ties between equal keys go to the lower
/// cursor index.
fn merge_records<R: Record, C: AsMut<KeyedBuf<R>>>(
    sys: &mut DiskSystem<R>,
    mut out_stripe: usize,
    cursors: &mut [C],
    out: &mut Vec<R>,
    mut refill: impl FnMut(&mut DiskSystem<R>, &mut [C], usize) -> Result<bool, PdmError>,
) -> Result<(), PdmError> {
    let geom = sys.geometry();
    let stripe_len = geom.block() * geom.disks();
    // Cursor i's tree entry: its head record, refilling a drained
    // buffer first.
    let mut head = |sys: &mut DiskSystem<R>, cursors: &mut [C], i: usize| {
        if cursors[i].as_mut().drained() && !refill(sys, cursors, i)? {
            return Ok(EXHAUSTED);
        }
        let b = cursors[i].as_mut();
        Ok::<_, PdmError>(entry(b.keys[b.pos], i))
    };
    let mut leaves = Vec::with_capacity(cursors.len());
    for i in 0..cursors.len() {
        leaves.push(head(sys, cursors, i)?);
    }
    let mut tree = LoserTree::new(&leaves);
    out.clear();
    while let Some((_, i)) = tree.peek() {
        let b = cursors[i].as_mut();
        out.push(b.recs[b.pos]);
        b.pos += 1;
        if out.len() == stripe_len {
            sys.write_stripe(out_stripe, out)?;
            out_stripe += 1;
            out.clear();
        }
        tree.replace_winner(head(sys, cursors, i)?);
    }
    debug_assert!(out.is_empty(), "runs are stripe-aligned");
    Ok(())
}

/// Sorts the `N` records in portion 0 by `key`, ascending, with the
/// default (single-buffered, memory-model-faithful) merge. See
/// [`sort_by_key_with`].
pub fn sort_by_key<R: Record>(
    sys: &mut DiskSystem<R>,
    key: impl Fn(&R) -> u64 + Copy,
) -> Result<SortReport, PdmError> {
    sort_by_key_with(sys, key, SortConfig::default())
}

/// Sorts the `N` records in portion 0 by `key`, ascending and stably
/// (records with equal keys keep their input order). Requires a disk
/// system with at least two portions, and enough memory for a fan-in of
/// at least two runs plus the buffers the chosen [`MergeStrategy`]
/// needs.
pub fn sort_by_key_with<R: Record>(
    sys: &mut DiskSystem<R>,
    key: impl Fn(&R) -> u64 + Copy,
    cfg: SortConfig,
) -> Result<SortReport, PdmError> {
    let geom = sys.geometry();
    if sys.portions() < 2 {
        return Err(PdmError::Config(format!(
            "merge sort needs a disk system with at least two portions, got {}",
            sys.portions()
        )));
    }
    let fan_in = cfg.merge.fan_in(&geom);
    if fan_in < 2 {
        return Err(PdmError::Config(format!(
            "merge sort needs fan-in >= 2, got {fan_in} \
             (M/BD = {}, M/B = {}, strategy = {})",
            geom.stripes_per_memoryload(),
            geom.blocks_per_memoryload(),
            cfg.merge.as_str()
        )));
    }
    let before = sys.stats();
    let msgs_before = sys.message_stats();

    // --- Run formation: memoryload-sized sorted runs into portion 1,
    // streamed through the engine. Each record is keyed once: sorting
    // packed (key, position) entries is stable and never calls `key`
    // inside a comparison; the gather lands in the engine's scratch.
    // `slice::sort_by_cached_key` does the same work but allocates its
    // index vector per memoryload and permutes in place by swap
    // chains: on the sort-shuffle geometry (N=2^20, B=2^3, D=4, M=2^13,
    // random target-table key, 2-vCPU Xeon) its run formation took a
    // median 67 ms against 54 ms here, slower in 8 of 8 alternating
    // runs of 15 sorts each.
    let formation_start = Instant::now();
    let mut engine: PassEngine<R> = PassEngine::new(geom);
    let mut order: Vec<u128> = Vec::with_capacity(geom.memory());
    engine.run_pass(
        sys,
        |ml, _gather| ReadPlan::Memoryload { portion: 0, ml },
        |ml, records, scratch, _scatter| {
            order.clear();
            order.extend(records.iter().enumerate().map(|(p, r)| entry(key(r), p)));
            order.sort_unstable();
            for (slot, &e) in scratch.iter_mut().zip(&order) {
                *slot = records[entry_index(e)];
            }
            std::mem::swap(records, scratch);
            WritePlan::Memoryload { portion: 1, ml }
        },
    )?;
    let formation_time = formation_start.elapsed();
    let spm = geom.stripes_per_memoryload();
    let mut runs: Vec<Run> = (0..geom.memoryloads())
        .map(|ml| Run {
            start: ml * spm,
            end: (ml + 1) * spm,
            portion: 1,
        })
        .collect();
    let mut passes = 1usize;

    // --- Merge passes. The target portion alternates per pass; every
    // *merged* group lands there, while a leftover singleton group
    // keeps its `Run::portion`. At most one run is ever off the common
    // source portion, and it is the globally last run, so within a
    // group at most the final run lives in the target portion — the
    // one arrangement where in-place output is safe (the output cursor
    // reaches a target-portion stripe only after every block of it has
    // been consumed, because all earlier-ranged runs together hold
    // exactly the records written before it).
    let merge_start = Instant::now();
    let stripe_len = geom.block() * geom.disks();
    let mut out: Vec<R> = Vec::with_capacity(stripe_len);
    let mut target = 0usize;
    while runs.len() > 1 {
        let mut next_runs: Vec<Run> = Vec::with_capacity(runs.len().div_ceil(fan_in));
        for group in runs.chunks(fan_in) {
            if group.len() == 1 {
                // Leftover singleton: already a sorted run — leave it
                // in place instead of paying 2·|run| parallel I/Os of
                // pure copy.
                next_runs.push(group[0]);
                continue;
            }
            match cfg.merge {
                MergeStrategy::SingleBuffered => merge_group(sys, target, group, key, &mut out)?,
                MergeStrategy::DoubleBuffered => merge_group_db(sys, target, group, key, &mut out)?,
                MergeStrategy::Forecast => merge_group_fc(sys, target, group, key, &mut out)?,
            }
            next_runs.push(Run {
                start: group[0].start,
                end: group.last().unwrap().end,
                portion: target,
            });
        }
        runs = next_runs;
        target = 1 - target;
        passes += 1;
    }

    Ok(SortReport {
        passes,
        fan_in,
        strategy: cfg.merge,
        total: sys.stats().since(&before),
        msgs: sys.message_stats().since(&msgs_before),
        final_portion: runs[0].portion,
        formation_time,
        merge_time: merge_start.elapsed(),
    })
}

/// One run being consumed during a single-buffered merge: a reusable
/// one-stripe buffer plus the read cursor.
struct Cursor<R> {
    run: Run,
    /// `portion_base` of the run's portion.
    base: usize,
    next_stripe: usize,
    buf: KeyedBuf<R>,
}

impl<R> AsMut<KeyedBuf<R>> for Cursor<R> {
    fn as_mut(&mut self) -> &mut KeyedBuf<R> {
        &mut self.buf
    }
}

impl<R: Record> Cursor<R> {
    /// Reads the run's next stripe into the buffer (in place, no
    /// allocation); false when the run is done.
    fn refill(
        &mut self,
        sys: &mut DiskSystem<R>,
        key: impl Fn(&R) -> u64,
    ) -> Result<bool, PdmError> {
        if self.next_stripe >= self.run.end {
            return Ok(false);
        }
        sys.read_stripe_into(self.base + self.next_stripe, &mut self.buf.recs)?;
        self.next_stripe += 1;
        self.buf.install(key);
        Ok(true)
    }
}

/// Merges a group of consecutive runs (each read from its own
/// [`Run::portion`]) into the same stripe range of portion `dst`.
/// `out` is the reusable one-stripe output buffer.
fn merge_group<R: Record>(
    sys: &mut DiskSystem<R>,
    dst: usize,
    group: &[Run],
    key: impl Fn(&R) -> u64 + Copy,
    out: &mut Vec<R>,
) -> Result<(), PdmError> {
    let geom = sys.geometry();
    let stripe_len = geom.block() * geom.disks();
    let mut cursors: Vec<Cursor<R>> = group
        .iter()
        .map(|&run| Cursor {
            run,
            base: sys.portion_base(run.portion),
            next_stripe: run.start,
            buf: KeyedBuf::new(stripe_len),
        })
        .collect();
    let out_stripe = sys.portion_base(dst) + group[0].start;
    merge_records(sys, out_stripe, &mut cursors, out, |sys, cursors, i| {
        cursors[i].refill(sys, key)
    })?;
    debug_assert!(cursors
        .iter()
        .all(|c| c.buf.drained() && c.next_stripe >= c.run.end));
    Ok(())
}

/// One run being consumed by the double-buffered merge: two stripe
/// buffers, the active one draining while the other's refill is in
/// flight split-phase.
struct DbCursor<R: Record> {
    run: Run,
    base: usize,
    /// Next stripe to *submit* (not yet issued).
    next_stripe: usize,
    /// The stripe the merge is draining.
    buf: KeyedBuf<R>,
    /// The other stripe buffer, target of the in-flight refill.
    spare: Vec<R>,
    /// In-flight refill of `spare`.
    pending: Option<ReadTicket<R>>,
}

impl<R: Record> AsMut<KeyedBuf<R>> for DbCursor<R> {
    fn as_mut(&mut self) -> &mut KeyedBuf<R> {
        &mut self.buf
    }
}

impl<R: Record> DbCursor<R> {
    /// Submits the next stripe read split-phase, if any remain and
    /// none is in flight. `refs` is a reusable scratch.
    fn prefetch(
        &mut self,
        sys: &mut DiskSystem<R>,
        refs: &mut Vec<BlockRef>,
    ) -> Result<(), PdmError> {
        if self.pending.is_some() || self.next_stripe >= self.run.end {
            return Ok(());
        }
        let slot = self.base + self.next_stripe;
        refs.clear();
        refs.extend((0..sys.geometry().disks()).map(|disk| BlockRef { disk, slot }));
        self.pending = Some(sys.begin_read(refs)?);
        self.next_stripe += 1;
        Ok(())
    }

    /// Makes the next stripe current: completes the in-flight refill
    /// (submitting it first on the initial fill) and chains the next
    /// prefetch; false when the run is done.
    fn refill(
        &mut self,
        sys: &mut DiskSystem<R>,
        refs: &mut Vec<BlockRef>,
        key: impl Fn(&R) -> u64,
    ) -> Result<bool, PdmError> {
        self.prefetch(sys, refs)?;
        let Some(ticket) = self.pending.take() else {
            return Ok(false);
        };
        sys.finish_read(ticket, &mut self.spare[..])?;
        std::mem::swap(&mut self.buf.recs, &mut self.spare);
        self.buf.install(key);
        // Start refilling the buffer just drained.
        self.prefetch(sys, refs).map(|()| true)
    }
}

/// Merges a group of consecutive runs with double-buffered cursors
/// (split-phase prefetch). I/O *counts* are identical to
/// [`merge_group`] — every stripe is still read exactly once — but in
/// threaded mode the refills overlap the merge work.
fn merge_group_db<R: Record>(
    sys: &mut DiskSystem<R>,
    dst: usize,
    group: &[Run],
    key: impl Fn(&R) -> u64 + Copy,
    out: &mut Vec<R>,
) -> Result<(), PdmError> {
    let geom = sys.geometry();
    let stripe_len = geom.block() * geom.disks();
    let mut cursors: Vec<DbCursor<R>> = group
        .iter()
        .map(|&run| DbCursor {
            run,
            base: sys.portion_base(run.portion),
            next_stripe: run.start,
            buf: KeyedBuf::new(stripe_len),
            spare: vec![R::default(); stripe_len],
            pending: None,
        })
        .collect();
    let mut refs: Vec<BlockRef> = Vec::with_capacity(geom.disks());
    let out_stripe = sys.portion_base(dst) + group[0].start;
    let result = merge_records(sys, out_stripe, &mut cursors, out, |sys, cursors, i| {
        cursors[i].refill(sys, &mut refs, key)
    });
    if result.is_err() {
        // Abort path: reclaim every in-flight prefetch so no pooled
        // buffers are stranded.
        for c in &mut cursors {
            if let Some(t) = c.pending.take() {
                sys.discard_read(t);
            }
        }
    }
    debug_assert!(result.is_err() || cursors.iter().all(|c| c.pending.is_none()));
    result
}

/// One run being consumed by the forecasting merge: a single *block*
/// buffer whose last key is the run's forecasting key (blocks within
/// a run are sorted, so the run with the smallest forecasting key is
/// exactly the run whose buffer empties next).
struct FcCursor<R> {
    run: Run,
    base: usize,
    /// Next block (0-based within the run) not yet landed or in
    /// flight. Block `k` of a run lives at stripe `start + k/D`,
    /// disk `k mod D`.
    next_block: usize,
    total_blocks: usize,
    buf: KeyedBuf<R>,
}

impl<R> AsMut<KeyedBuf<R>> for FcCursor<R> {
    fn as_mut(&mut self) -> &mut KeyedBuf<R> {
        &mut self.buf
    }
}

impl<R: Record> FcCursor<R> {
    /// True while this cursor still has blocks that were neither
    /// landed nor submitted.
    fn has_unfetched(&self) -> bool {
        self.next_block < self.total_blocks
    }

    /// The [`BlockRef`] of the next unfetched block.
    fn next_ref(&self, disks: usize) -> BlockRef {
        BlockRef {
            disk: self.next_block % disks,
            slot: self.base + self.run.start + self.next_block / disks,
        }
    }

    /// Demand-reads the next unfetched block straight into the buffer.
    fn demand_read(
        &mut self,
        sys: &mut DiskSystem<R>,
        key: impl Fn(&R) -> u64,
    ) -> Result<(), PdmError> {
        let r = self.next_ref(sys.geometry().disks());
        sys.read_block_into(r, &mut self.buf.recs)?;
        self.next_block += 1;
        self.buf.install(key);
        Ok(())
    }
}

/// The forecasting merge's prefetch state: the forecast heap, the one
/// split-phase prefetch in flight, and its landing block.
struct Forecast<R: Record> {
    /// `(forecasting key, index)` of every cursor that has unfetched
    /// blocks and no prefetch in flight — popped when its prefetch is
    /// issued, pushed back when its next block is installed.
    heap: BinaryHeap<Reverse<u128>>,
    /// The in-flight prefetch: the cursor it refills and its ticket.
    pending: Option<(usize, ReadTicket<R>)>,
    /// Shared landing buffer for the prefetch: the one extra block of
    /// residency the strategy charges against `M`.
    landing: Vec<R>,
}

impl<R: Record> Forecast<R> {
    /// Puts cursor `i` (just installed) back in the forecast heap if it
    /// has blocks left to prefetch.
    fn push(&mut self, cursors: &[FcCursor<R>], i: usize) {
        if cursors[i].has_unfetched() {
            self.heap.push(Reverse(entry(cursors[i].buf.last_key(), i)));
        }
    }

    /// Submits the next prefetch: the first unfetched block of the run
    /// predicted to empty next (smallest `(fkey, index)` — ties broken
    /// like the merge's loser tree, so the prediction is exact even
    /// with duplicate keys).
    fn issue(
        &mut self,
        sys: &mut DiskSystem<R>,
        cursors: &mut [FcCursor<R>],
    ) -> Result<(), PdmError> {
        debug_assert!(self.pending.is_none());
        if let Some(Reverse(e)) = self.heap.pop() {
            let i = entry_index(e);
            let ticket = sys.begin_read_block(cursors[i].next_ref(sys.geometry().disks()))?;
            cursors[i].next_block += 1;
            self.pending = Some((i, ticket));
        }
        Ok(())
    }

    /// Makes cursor `i`'s next block current after its buffer drained;
    /// false when its run is exhausted.
    fn refill(
        &mut self,
        sys: &mut DiskSystem<R>,
        cursors: &mut [FcCursor<R>],
        i: usize,
        key: impl Fn(&R) -> u64,
    ) -> Result<bool, PdmError> {
        // If cursor i has more blocks, the forecast guarantees the
        // in-flight prefetch is exactly its next block.
        match self.pending.take() {
            Some((target, ticket)) if target == i => {
                sys.finish_read(ticket, &mut self.landing)?;
                std::mem::swap(&mut cursors[i].buf.recs, &mut self.landing);
                cursors[i].buf.install(key);
                self.push(cursors, i);
                self.issue(sys, cursors)?;
                Ok(true)
            }
            other => {
                self.pending = other;
                if !cursors[i].has_unfetched() {
                    return Ok(false);
                }
                // The prediction is exact, so a drained cursor that is
                // not the prefetch target has no blocks left. Guarded
                // by a demand read rather than trusting the invariant:
                // if a future edit ever breaks the exactness argument,
                // the merge must fail loudly under debug and stay
                // correct (every block still read exactly once) in
                // release — not silently truncate the group.
                debug_assert!(false, "forecast mispredicted the next empty run");
                cursors[i].demand_read(sys, key)?;
                self.heap.retain(|&Reverse(e)| entry_index(e) != i);
                self.push(cursors, i);
                Ok(true)
            }
        }
    }
}

/// Merges a group of consecutive runs with forecasting block-granular
/// cursors. Reads are independent single-block parallel I/Os (every
/// block of the group is read exactly once — `D` read operations per
/// stripe); writes remain striped. The one split-phase prefetch in
/// flight always belongs to the run that empties next, so in threaded
/// mode every refill is already resident when the merge demands it.
fn merge_group_fc<R: Record>(
    sys: &mut DiskSystem<R>,
    dst: usize,
    group: &[Run],
    key: impl Fn(&R) -> u64 + Copy,
    out: &mut Vec<R>,
) -> Result<(), PdmError> {
    let geom = sys.geometry();
    let block = geom.block();
    let mut cursors: Vec<FcCursor<R>> = group
        .iter()
        .map(|&run| FcCursor {
            run,
            base: sys.portion_base(run.portion),
            next_block: 0,
            total_blocks: (run.end - run.start) * geom.disks(),
            buf: KeyedBuf::new(block),
        })
        .collect();
    let mut fc = Forecast {
        heap: BinaryHeap::with_capacity(cursors.len()),
        pending: None,
        landing: vec![R::default(); block],
    };
    let result = merge_group_fc_inner(sys, dst, group, &mut cursors, &mut fc, key, out);
    if result.is_err() {
        // Abort path: reclaim the in-flight prefetch so no pooled
        // buffers are stranded.
        if let Some((_, ticket)) = fc.pending.take() {
            sys.discard_read(ticket);
        }
    }
    result
}

fn merge_group_fc_inner<R: Record>(
    sys: &mut DiskSystem<R>,
    dst: usize,
    group: &[Run],
    cursors: &mut [FcCursor<R>],
    fc: &mut Forecast<R>,
    key: impl Fn(&R) -> u64 + Copy,
    out: &mut Vec<R>,
) -> Result<(), PdmError> {
    // Initial fill: every cursor's first block, demand-read (all runs
    // start at a stripe boundary, i.e. on disk 0, so these reads
    // cannot batch).
    for i in 0..cursors.len() {
        debug_assert!(cursors[i].has_unfetched(), "runs are non-empty");
        cursors[i].demand_read(sys, key)?;
        fc.push(cursors, i);
    }
    fc.issue(sys, cursors)?;
    let out_stripe = sys.portion_base(dst) + group[0].start;
    merge_records(sys, out_stripe, cursors, out, |sys, cursors, i| {
        fc.refill(sys, cursors, i, key)
    })?;
    debug_assert!(fc.pending.is_none(), "prefetch outlived the merge");
    debug_assert!(cursors
        .iter()
        .all(|c| c.buf.drained() && !c.has_unfetched()));
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use pdm::{FaultPlan, Geometry, ServiceMode};
    use rand::rngs::StdRng;
    use rand::seq::SliceRandom;
    use rand::{Rng, SeedableRng};

    fn geom() -> Geometry {
        // N=2^10, B=2^2, D=2^2, M=2^6: M/BD = 4 stripes, fan-in 3.
        Geometry::new(1 << 10, 1 << 2, 1 << 2, 1 << 6).unwrap()
    }

    fn cfg(merge: MergeStrategy) -> SortConfig {
        SortConfig { merge }
    }

    #[test]
    fn sorts_shuffled_records() {
        let g = geom();
        let mut rng = StdRng::seed_from_u64(101);
        let mut records: Vec<u64> = (0..g.records() as u64).collect();
        records.shuffle(&mut rng);
        let mut sys: DiskSystem<u64> = DiskSystem::new_mem(g, 2);
        sys.load_records(0, &records);
        let report = sort_by_key(&mut sys, |&r| r).unwrap();
        let out = sys.dump_records(report.final_portion);
        let expect: Vec<u64> = (0..g.records() as u64).collect();
        assert_eq!(out, expect);
    }

    #[test]
    fn sorts_identically_threaded() {
        let g = geom();
        let mut rng = StdRng::seed_from_u64(103);
        let mut records: Vec<u64> = (0..g.records() as u64).collect();
        records.shuffle(&mut rng);
        let run = |mode: ServiceMode| {
            let mut sys: DiskSystem<u64> = DiskSystem::new_mem(g, 2);
            sys.set_service_mode(mode);
            sys.load_records(0, &records);
            let report = sort_by_key(&mut sys, |&r| r).unwrap();
            (report.total, sys.dump_records(report.final_portion))
        };
        let (serial_total, serial_out) = run(ServiceMode::Serial);
        let (threaded_total, threaded_out) = run(ServiceMode::Threaded);
        assert_eq!(serial_out, threaded_out);
        assert_eq!(serial_total, threaded_total);
    }

    #[test]
    fn pass_count_matches_formula() {
        let g = geom();
        let mut sys: DiskSystem<u64> = DiskSystem::new_mem(g, 2);
        let mut records: Vec<u64> = (0..g.records() as u64).rev().collect();
        records.rotate_left(7);
        sys.load_records(0, &records);
        let report = sort_by_key(&mut sys, |&r| r).unwrap();
        // N/M = 16 runs, fan-in 3: 16 → 6 → 2 → 1 = 3 merge passes.
        assert_eq!(report.fan_in, 3);
        assert_eq!(report.strategy, MergeStrategy::SingleBuffered);
        assert_eq!(report.passes, 4);
        // Every merged stripe costs one striped read + one striped
        // write, but the leftover singleton of merge pass 1 (16 runs =
        // 5 groups of 3 + one of 1) stays in place: 4·128 minus the
        // 2·4 parallel I/Os the old wholesale copy used to charge.
        assert_eq!(
            report.total.parallel_ios() as usize,
            report.passes * g.ios_per_pass() - 2 * g.stripes_per_memoryload()
        );
        assert_eq!(report.total.striped_reads, report.total.parallel_reads);
        assert_eq!(report.total.striped_writes, report.total.parallel_writes);
    }

    #[test]
    fn already_sorted_input() {
        let g = geom();
        let mut sys: DiskSystem<u64> = DiskSystem::new_mem(g, 2);
        sys.load_records(0, &(0..g.records() as u64).collect::<Vec<_>>());
        let report = sort_by_key(&mut sys, |&r| r).unwrap();
        let out = sys.dump_records(report.final_portion);
        assert!(out.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn sorts_with_duplicate_keys() {
        let g = geom();
        let mut sys: DiskSystem<u64> = DiskSystem::new_mem(g, 2);
        let records: Vec<u64> = (0..g.records() as u64).map(|i| i % 17).collect();
        sys.load_records(0, &records);
        let report = sort_by_key(&mut sys, |&r| r).unwrap();
        let out = sys.dump_records(report.final_portion);
        assert!(out.windows(2).all(|w| w[0] <= w[1]));
        // Same multiset.
        let mut a = out.clone();
        let mut b = records.clone();
        a.sort_unstable();
        b.sort_unstable();
        assert_eq!(a, b);
    }

    #[test]
    fn rejects_tiny_memory() {
        // M = BD: zero fan-in for every strategy.
        let g = Geometry::new(1 << 8, 1 << 2, 1 << 2, 1 << 4).unwrap();
        let mut sys: DiskSystem<u64> = DiskSystem::new_mem(g, 2);
        sys.load_records(0, &(0..256u64).collect::<Vec<_>>());
        for strategy in [
            MergeStrategy::SingleBuffered,
            MergeStrategy::DoubleBuffered,
            MergeStrategy::Forecast,
        ] {
            assert!(matches!(
                sort_by_key_with(&mut sys, |&r| r, cfg(strategy)),
                Err(PdmError::Config(_))
            ));
        }
    }

    #[test]
    fn single_portion_system_is_a_typed_error() {
        // Regression test: a 1-portion system used to hit an assert!
        // and panic; it must return the same typed error as the fan-in
        // check.
        let g = geom();
        let mut sys: DiskSystem<u64> = DiskSystem::new_mem(g, 1);
        sys.load_records(0, &(0..g.records() as u64).collect::<Vec<_>>());
        let err = sort_by_key(&mut sys, |&r| r).unwrap_err();
        assert!(matches!(err, PdmError::Config(_)), "got {err:?}");
        assert!(err.to_string().contains("two portions"), "{err}");
    }

    #[test]
    fn single_disk_sort() {
        let g = Geometry::new(1 << 9, 1 << 2, 1, 1 << 5).unwrap();
        let mut rng = StdRng::seed_from_u64(102);
        let mut records: Vec<u64> = (0..g.records() as u64).collect();
        records.shuffle(&mut rng);
        let mut sys: DiskSystem<u64> = DiskSystem::new_mem(g, 2);
        sys.load_records(0, &records);
        let report = sort_by_key(&mut sys, |&r| r).unwrap();
        let out = sys.dump_records(report.final_portion);
        assert_eq!(out, (0..g.records() as u64).collect::<Vec<u64>>());
    }

    /// Geometry with M/BD = 8 stripes in memory: single-buffered
    /// fan-in 7, double-buffered fan-in 3, forecast fan-in
    /// M/B − D − 1 = 16 − 3 = 13.
    fn db_geom() -> Geometry {
        Geometry::new(1 << 10, 1 << 1, 1 << 1, 1 << 5).unwrap()
    }

    #[test]
    fn all_strategies_sort_identically() {
        let g = db_geom();
        let mut rng = StdRng::seed_from_u64(104);
        let mut records: Vec<u64> = (0..g.records() as u64).collect();
        records.shuffle(&mut rng);
        let run = |cfg: SortConfig, mode: ServiceMode| {
            let mut sys: DiskSystem<u64> = DiskSystem::new_mem(g, 2);
            sys.set_service_mode(mode);
            sys.load_records(0, &records);
            let report = sort_by_key_with(&mut sys, |&r| r, cfg).unwrap();
            assert_eq!(
                sys.buffer_pool_stats().outstanding,
                0,
                "merge stranded pooled buffers"
            );
            (report, sys.dump_records(report.final_portion))
        };
        let expect: Vec<u64> = (0..g.records() as u64).collect();
        for mode in [ServiceMode::Serial, ServiceMode::Threaded] {
            let (sr, sout) = run(cfg(MergeStrategy::SingleBuffered), mode);
            let (dr, dout) = run(cfg(MergeStrategy::DoubleBuffered), mode);
            let (fr, fout) = run(cfg(MergeStrategy::Forecast), mode);
            assert_eq!(sout, expect, "single-buffered missorted in {mode:?}");
            assert_eq!(dout, expect, "double-buffered missorted in {mode:?}");
            assert_eq!(fout, expect, "forecast missorted in {mode:?}");
            // 32 runs of 8 stripes each; N/BD = 256 stripes total.
            // Single (fan-in 7): 32 → 5 → 1, no singletons, 3 passes of
            // exactly 2·256 parallel I/Os.
            assert_eq!(sr.fan_in, 7);
            assert_eq!(sr.passes, 3);
            assert_eq!(sr.total.parallel_ios(), 3 * 512);
            // Double (fan-in 3): 32 → 11 → 4 → 2 → 1; merge pass 3
            // leaves a 40-stripe singleton in place (saving 80).
            assert_eq!(dr.fan_in, 3);
            assert_eq!(dr.passes, 5);
            assert_eq!(dr.total.parallel_ios(), 5 * 512 - 80);
            // Forecast (fan-in 13): 32 → 3 → 1 — this geometry is too
            // small for the fan-in gain to drop a pass (strictly fewer
            // passes needs >F₁ runs; see tests/merge_strategies.rs) —
            // and merge reads are per-block (D per stripe):
            // formation 512 + 2·(2·256 + 256) = 2048.
            assert_eq!(fr.fan_in, 13);
            assert_eq!(fr.passes, 3);
            assert!(fr.passes <= sr.passes);
            assert_eq!(fr.total.parallel_ios(), 512 + 2 * (2 * 256 + 256));
            for r in [&sr, &dr] {
                assert_eq!(r.total.striped_reads, r.total.parallel_reads);
                assert_eq!(r.total.striped_writes, r.total.parallel_writes);
            }
            // Forecast: writes stay striped, merge reads are
            // independent single-block operations (formation reads are
            // striped).
            assert_eq!(fr.total.striped_writes, fr.total.parallel_writes);
            assert_eq!(fr.total.striped_reads, 256);
            assert_eq!(fr.total.independent_reads(), 2 * 512);
            assert_eq!(fr.total.blocks_read, 256 * 2 + 2 * 512);
        }
    }

    #[test]
    fn double_buffered_pass_count_matches_halved_fan_in_formula() {
        let g = db_geom();
        let mut sys: DiskSystem<u64> = DiskSystem::new_mem(g, 2);
        sys.load_records(0, &(0..g.records() as u64).rev().collect::<Vec<_>>());
        let report =
            sort_by_key_with(&mut sys, |&r| r, cfg(MergeStrategy::DoubleBuffered)).unwrap();
        // N/M = 32 runs at fan-in 3: 32 → 11 → 4 → 2 → 1, so 4 merge
        // passes + run formation.
        assert_eq!(report.passes, 5);
    }

    #[test]
    fn double_buffered_rejects_too_small_memory() {
        // M/BD = 4: single-buffered fan-in 3 works, double-buffered
        // fan-in 1 must be rejected.
        let g = geom();
        let mut sys: DiskSystem<u64> = DiskSystem::new_mem(g, 2);
        sys.load_records(0, &(0..g.records() as u64).collect::<Vec<_>>());
        assert!(sort_by_key_with(&mut sys, |&r| r, cfg(MergeStrategy::DoubleBuffered)).is_err());
        assert!(sort_by_key(&mut sys, |&r| r).is_ok());
    }

    #[test]
    fn forecast_merge_sorts_with_duplicate_keys() {
        // Duplicate keys stress the forecast tie-break: the prediction
        // orders runs by (fkey, index) exactly like the merge's loser tree.
        let g = db_geom();
        let mut rng = StdRng::seed_from_u64(105);
        let mut records: Vec<u64> = (0..g.records() as u64).map(|i| i % 5).collect();
        records.shuffle(&mut rng);
        for mode in [ServiceMode::Serial, ServiceMode::Threaded] {
            let mut sys: DiskSystem<u64> = DiskSystem::new_mem(g, 2);
            sys.set_service_mode(mode);
            sys.load_records(0, &records);
            let report = sort_by_key_with(&mut sys, |&r| r, cfg(MergeStrategy::Forecast)).unwrap();
            let out = sys.dump_records(report.final_portion);
            assert!(out.windows(2).all(|w| w[0] <= w[1]), "missorted {mode:?}");
            let mut a = out;
            let mut b = records.clone();
            a.sort_unstable();
            b.sort_unstable();
            assert_eq!(a, b, "multiset changed in {mode:?}");
        }
    }

    #[test]
    fn forecast_single_disk_sort() {
        // D=1: every "single-block" read is also a full stripe, and
        // the forecast fan-in is M/B − 2 = 6.
        let g = Geometry::new(1 << 9, 1 << 2, 1, 1 << 5).unwrap();
        assert_eq!(MergeStrategy::Forecast.fan_in(&g), 6);
        let mut rng = StdRng::seed_from_u64(106);
        let mut records: Vec<u64> = (0..g.records() as u64).collect();
        records.shuffle(&mut rng);
        let mut sys: DiskSystem<u64> = DiskSystem::new_mem(g, 2);
        sys.load_records(0, &records);
        let report = sort_by_key_with(&mut sys, |&r| r, cfg(MergeStrategy::Forecast)).unwrap();
        let out = sys.dump_records(report.final_portion);
        assert_eq!(out, (0..g.records() as u64).collect::<Vec<u64>>());
    }

    #[test]
    fn forecast_abort_reclaims_prefetch_buffers() {
        // A fault mid-merge must surface as an error (not a panic) and
        // leave zero pooled buffers outstanding — the in-flight
        // forecast prefetch is discarded on the abort path.
        let g = db_geom();
        let mut rng = StdRng::seed_from_u64(107);
        let mut records: Vec<u64> = (0..g.records() as u64).collect();
        records.shuffle(&mut rng);
        for mode in [ServiceMode::Serial, ServiceMode::Threaded] {
            // Fault a handful of operation indices inside the merge
            // phase (run formation is 512 ops).
            for op in [600u64, 700, 1000] {
                let mut sys: DiskSystem<u64> = DiskSystem::new_mem(g, 2);
                sys.set_service_mode(mode);
                sys.load_records(0, &records);
                // Fault every disk at this op: a forecast refill is a
                // single-block read touching just one (data-dependent)
                // disk.
                let mut plan = FaultPlan::new();
                for disk in 0..g.disks() {
                    plan = plan.fail_at(op, disk);
                }
                sys.set_faults(plan);
                let err = sort_by_key_with(&mut sys, |&r| r, cfg(MergeStrategy::Forecast))
                    .expect_err("fault must abort the sort");
                assert!(matches!(err, PdmError::Fault { .. }), "got {err:?}");
                assert_eq!(
                    sys.buffer_pool_stats().outstanding,
                    0,
                    "abort stranded pooled buffers (mode {mode:?}, op {op})"
                );
            }
        }
    }

    #[test]
    fn merge_strategy_labels_round_trip() {
        for s in [
            MergeStrategy::SingleBuffered,
            MergeStrategy::DoubleBuffered,
            MergeStrategy::Forecast,
        ] {
            assert_eq!(s.as_str().parse::<MergeStrategy>().unwrap(), s);
        }
        assert!("fancy".parse::<MergeStrategy>().is_err());
    }

    #[test]
    fn descending_key_sort() {
        let g = geom();
        let mut sys: DiskSystem<u64> = DiskSystem::new_mem(g, 2);
        sys.load_records(0, &(0..g.records() as u64).collect::<Vec<_>>());
        let max = g.records() as u64 - 1;
        let report = sort_by_key(&mut sys, move |&r| max - r).unwrap();
        let out = sys.dump_records(report.final_portion);
        let expect: Vec<u64> = (0..g.records() as u64).rev().collect();
        assert_eq!(out, expect);
    }

    /// Pops every entry through `tree`, feeding each winner's leaf its
    /// next key from `lists` (exhausted once its list runs out).
    fn drain_tree(lists: &[Vec<u64>]) -> Vec<(u64, usize)> {
        let mut next = vec![0usize; lists.len()];
        let head = |i: usize, next: &mut [usize]| match lists[i].get(next[i]) {
            Some(&k) => {
                next[i] += 1;
                entry(k, i)
            }
            None => EXHAUSTED,
        };
        let leaves: Vec<u128> = (0..lists.len()).map(|i| head(i, &mut next)).collect();
        let mut tree = LoserTree::new(&leaves);
        let mut popped = Vec::new();
        while let Some((k, i)) = tree.peek() {
            popped.push((k, i));
            tree.replace_winner(head(i, &mut next));
        }
        popped
    }

    /// The same pops through a binary heap of `Reverse((key, index))`.
    fn drain_heap(lists: &[Vec<u64>]) -> Vec<(u64, usize)> {
        let mut next = vec![0usize; lists.len()];
        let mut heap = BinaryHeap::new();
        for (i, l) in lists.iter().enumerate() {
            if let Some(&k) = l.first() {
                heap.push(Reverse((k, i)));
                next[i] = 1;
            }
        }
        let mut popped = Vec::new();
        while let Some(Reverse((k, i))) = heap.pop() {
            popped.push((k, i));
            if let Some(&k) = lists[i].get(next[i]) {
                heap.push(Reverse((k, i)));
                next[i] += 1;
            }
        }
        popped
    }

    #[test]
    fn loser_tree_pops_like_a_binary_heap() {
        let mut rng = StdRng::seed_from_u64(108);
        for k in [1usize, 2, 3, 5, 128, 1019] {
            for distinct in [3u64, 1 << 40] {
                // Sorted lists of different lengths (some empty), so
                // leaves run out at different times; a small key range
                // makes most comparisons ties broken by index.
                let lists: Vec<Vec<u64>> = (0..k)
                    .map(|i| {
                        let len = rng.gen_range(0..=(i % 7) * 3);
                        let mut l: Vec<u64> =
                            (0..len).map(|_| rng.gen_range(0..distinct)).collect();
                        l.sort_unstable();
                        l
                    })
                    .collect();
                let total: usize = lists.iter().map(Vec::len).sum();
                let popped = drain_tree(&lists);
                assert_eq!(popped.len(), total, "k = {k}");
                assert_eq!(popped, drain_heap(&lists), "k = {k}, {distinct} keys");
            }
        }
    }

    #[test]
    fn loser_tree_handles_extreme_keys_and_empty_leaves() {
        let lists = vec![
            vec![],
            vec![u64::MAX, u64::MAX],
            vec![0, u64::MAX],
            vec![],
            vec![0],
        ];
        assert_eq!(drain_tree(&lists), drain_heap(&lists));
        assert_eq!(drain_tree(&[vec![], vec![]]), vec![]);
    }

    #[test]
    fn report_carries_phase_times() {
        let g = geom();
        let mut sys: DiskSystem<u64> = DiskSystem::new_mem(g, 2);
        sys.load_records(0, &(0..g.records() as u64).rev().collect::<Vec<_>>());
        let before = Instant::now();
        let report = sort_by_key(&mut sys, |&r| r).unwrap();
        let wall = before.elapsed();
        assert!(report.formation_time > Duration::ZERO);
        assert!(report.merge_time > Duration::ZERO);
        assert!(report.formation_time + report.merge_time <= wall);
    }
}
