//! The dispatch floor of the threaded pool: one run command per
//! participating disk per memoryload and direction.
//!
//! A counting [`Transport`] wraps each disk's [`InProcTransport`] and
//! logs every command it is handed; systems are built over those
//! wrappers with [`DiskSystem::new_from_transports`] and switched to the
//! pipelined pool. Every threaded run is checked against the same plan
//! run serially on plain memory disks: placement and [`IoStats`] must be
//! identical, so batching the dispatch moves only the command count.

use pdm::backend::{DiskUnit, FileDisk, MemDisk};
use pdm::engine::{PassEngine, ReadPlan, WritePlan};
use pdm::parallel::{fail_disconnected, Cmd, InProcTransport};
use pdm::{
    BlockRef, DiskSystem, FaultPlan, Geometry, IoStats, PdmError, Result, RetryPolicy, ServiceMode,
    Transport,
};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// One logged command: disk, direction, blocks in the run.
type Logged = (usize, bool, usize);

struct Counting {
    inner: InProcTransport<u64>,
    log: Arc<Mutex<Vec<Logged>>>,
}

impl Transport<u64> for Counting {
    fn disk(&self) -> usize {
        self.inner.disk()
    }

    fn submit(&mut self, cmd: Cmd<u64>) {
        let entry = match &cmd {
            Cmd::Read { slots, .. } => Some((true, slots.len())),
            Cmd::Write { slots, .. } => Some((false, slots.len())),
            Cmd::Stop => None,
        };
        if let Some((is_read, blocks)) = entry {
            self.log
                .lock()
                .unwrap()
                .push((self.inner.disk(), is_read, blocks));
        }
        self.inner.submit(cmd);
    }

    fn inject_disconnect(&mut self) {
        self.inner.inject_disconnect();
    }

    fn respawn(&mut self) -> Result<bool> {
        self.inner.respawn()
    }

    fn shutdown(&mut self) -> Option<Box<dyn DiskUnit<u64>>> {
        self.inner.shutdown()
    }
}

/// A threaded system over counting in-process transports, one per
/// unit, plus the shared command log.
fn counted(
    geom: Geometry,
    portions: usize,
    units: Vec<Box<dyn DiskUnit<u64>>>,
) -> (DiskSystem<u64>, Arc<Mutex<Vec<Logged>>>) {
    let log = Arc::new(Mutex::new(Vec::new()));
    let transports = units
        .into_iter()
        .enumerate()
        .map(|(d, unit)| {
            Box::new(Counting {
                inner: InProcTransport::new(d, unit),
                log: Arc::clone(&log),
            }) as Box<dyn Transport<u64>>
        })
        .collect();
    let mut sys = DiskSystem::new_from_transports(geom, portions, transports);
    sys.set_threaded(true);
    (sys, log)
}

fn mem_units(geom: Geometry, portions: usize) -> Vec<Box<dyn DiskUnit<u64>>> {
    (0..geom.disks())
        .map(|_| {
            Box::new(MemDisk::<u64>::new(geom.block(), portions * geom.stripes()))
                as Box<dyn DiskUnit<u64>>
        })
        .collect()
}

fn input(geom: Geometry) -> Vec<u64> {
    (0..geom.records() as u64)
        .map(|x| x.wrapping_mul(0x9e37_79b9))
        .collect()
}

/// Reverses every memoryload, portion 0 → portion 1, with striped
/// reads and writes.
fn striped_pass(sys: &mut DiskSystem<u64>) -> Result<()> {
    PassEngine::new(sys.geometry()).run_pass(
        sys,
        |ml, _| ReadPlan::Memoryload { portion: 0, ml },
        |ml, data, _, _| {
            data.reverse();
            WritePlan::Memoryload { portion: 1, ml }
        },
    )
}

/// Placement and charged cost of `pass` on a serial memory system.
fn serial_reference(
    geom: Geometry,
    portions: usize,
    pass: impl Fn(&mut DiskSystem<u64>) -> Result<()>,
) -> (Vec<u64>, IoStats) {
    let mut sys = DiskSystem::new_mem(geom, portions);
    sys.set_service_mode(ServiceMode::Serial);
    sys.load_records(0, &input(geom));
    pass(&mut sys).unwrap();
    (sys.dump_records(1), sys.stats())
}

/// Takes the commands logged so far, split into (reads, writes).
fn commands(log: &Mutex<Vec<Logged>>) -> (Vec<Logged>, Vec<Logged>) {
    let log = std::mem::take(&mut *log.lock().unwrap());
    log.into_iter().partition(|&(_, is_read, _)| is_read)
}

fn assert_floor(geom: Geometry, log: &Mutex<Vec<Logged>>, write_disks_per_load: usize) {
    let (reads, writes) = commands(log);
    let loads = geom.memoryloads();
    let per_disk = geom.stripes_per_memoryload();
    assert_eq!(
        reads.len(),
        loads * geom.disks(),
        "one read command per disk per memoryload"
    );
    assert!(reads.iter().all(|&(_, _, blocks)| blocks == per_disk));
    assert_eq!(writes.len(), loads * write_disks_per_load);
    assert_eq!(
        writes.iter().map(|&(_, _, blocks)| blocks).sum::<usize>() * geom.block(),
        geom.records(),
        "the write runs carry every block exactly once"
    );
}

#[test]
fn threaded_pass_sends_one_command_per_disk_per_memoryload() {
    let geom = Geometry::new(1 << 10, 1 << 2, 1 << 2, 1 << 6).unwrap();
    let (mut sys, log) = counted(geom, 2, mem_units(geom, 2));
    sys.load_records(0, &input(geom));
    // Uncounted staging: one run per disk per memoryload as well.
    let (_, staged) = commands(&log);
    assert_eq!(staged.len(), geom.memoryloads() * geom.disks());
    striped_pass(&mut sys).unwrap();
    let stats = sys.stats();
    assert_floor(geom, &log, geom.disks());
    let (placed, serial_stats) = serial_reference(geom, 2, striped_pass);
    assert_eq!(sys.dump_records(1), placed);
    assert_eq!(stats, serial_stats);
    assert_eq!(sys.buffer_pool_stats().outstanding, 0);
}

#[test]
fn single_disk_geometry_sends_one_command_per_memoryload() {
    let geom = Geometry::new(1 << 8, 1 << 2, 1, 1 << 5).unwrap();
    let (mut sys, log) = counted(geom, 2, mem_units(geom, 2));
    sys.load_records(0, &input(geom));
    commands(&log);
    striped_pass(&mut sys).unwrap();
    let stats = sys.stats();
    assert_floor(geom, &log, 1);
    let (placed, serial_stats) = serial_reference(geom, 2, striped_pass);
    assert_eq!(sys.dump_records(1), placed);
    assert_eq!(stats, serial_stats);
}

#[test]
fn file_backend_keeps_the_floor() {
    let geom = Geometry::new(1 << 10, 1 << 2, 1 << 2, 1 << 6).unwrap();
    let dir = pdm::TempDir::new("pdm-dispatch-file");
    let units = (0..geom.disks())
        .map(|d| {
            Box::new(
                FileDisk::create::<u64>(
                    &dir.path().join(format!("disk{d}.bin")),
                    geom.block(),
                    2 * geom.stripes(),
                )
                .unwrap(),
            ) as Box<dyn DiskUnit<u64>>
        })
        .collect();
    let (mut sys, log) = counted(geom, 2, units);
    sys.load_records(0, &input(geom));
    commands(&log);
    striped_pass(&mut sys).unwrap();
    let stats = sys.stats();
    assert_floor(geom, &log, geom.disks());
    let (placed, serial_stats) = serial_reference(geom, 2, striped_pass);
    assert_eq!(sys.dump_records(1), placed);
    assert_eq!(stats, serial_stats);
}

/// N=256, B=2, D=4, M=32: memoryload `t` scatters its 16 blocks onto
/// disks `{a, a+1}` (`a = 2·(t mod 2)`) in batches of two, so every
/// write leaves two disks idle.
fn narrow_scatter_pass(sys: &mut DiskSystem<u64>) -> Result<()> {
    let base = sys.portion_base(1);
    PassEngine::new(sys.geometry()).run_pass(
        sys,
        |ml, _| ReadPlan::Memoryload { portion: 0, ml },
        |ml, _, _, scatter| {
            let first = 2 * (ml % 2);
            scatter.reset(2);
            for j in 0..8 {
                for disk in first..first + 2 {
                    scatter.push(BlockRef {
                        disk,
                        slot: base + (ml / 2) * 8 + j,
                    });
                }
            }
            WritePlan::Scatter
        },
    )
}

#[test]
fn narrow_scatter_leaves_idle_disks_without_commands() {
    let geom = Geometry::new(256, 2, 4, 32).unwrap();
    let (mut sys, log) = counted(geom, 2, mem_units(geom, 2));
    sys.load_records(0, &input(geom));
    commands(&log);
    narrow_scatter_pass(&mut sys).unwrap();
    let stats = sys.stats();
    let (_, writes) = commands(&log);
    assert_eq!(
        writes.len(),
        geom.memoryloads() * 2,
        "idle disks get no command"
    );
    for (i, pair) in writes.chunks(2).enumerate() {
        let first = 2 * (i % 2);
        let mut disks: Vec<usize> = pair.iter().map(|&(d, _, _)| d).collect();
        disks.sort_unstable();
        assert_eq!(disks, vec![first, first + 1], "memoryload {i}");
        assert!(pair.iter().all(|&(_, _, blocks)| blocks == 8));
    }
    assert_eq!(stats.parallel_writes as usize, geom.memoryloads() * 8);
    assert_eq!(stats.striped_writes, 0);
    let (placed, serial_stats) = serial_reference(geom, 2, narrow_scatter_pass);
    assert_eq!(sys.dump_records(1), placed);
    assert_eq!(stats, serial_stats);
    // And against the plan itself: block i of memoryload t lands on
    // disk a + i mod 2, stripe (t/2)·8 + i/2.
    let src = input(geom);
    let mut expect = vec![0u64; geom.records()];
    for (x, &rec) in src.iter().enumerate() {
        let (t, o) = (x / 32, x % 32);
        let i = o / 2;
        let disk = 2 * (t % 2) + i % 2;
        let stripe = (t / 2) * 8 + i / 2;
        expect[stripe * 8 + disk * 2 + o % 2] = rec;
    }
    assert_eq!(placed, expect);
}

#[test]
fn permanent_fault_mid_memoryload_runs_the_charged_prefix() {
    let geom = Geometry::new(256, 2, 4, 32).unwrap();
    let spm = geom.stripes_per_memoryload();
    let (mut sys, log) = counted(geom, 2, mem_units(geom, 2));
    sys.load_records(0, &input(geom));
    commands(&log);
    // Under overlap, memoryload 1's reads are ops spm .. 2·spm; the
    // third of them faults.
    let fault_op = spm as u64 + 2;
    sys.set_faults(FaultPlan::new().fail_at(fault_op, 1));
    let err = striped_pass(&mut sys).unwrap_err();
    assert_eq!(
        err,
        PdmError::Fault {
            op: fault_op,
            disk: 1
        }
    );
    let stats = sys.stats();
    assert_eq!(
        stats.parallel_ios(),
        fault_op,
        "only the admitted ops are charged"
    );
    let retry = sys.retry_stats();
    assert_eq!(retry.attempts, stats.parallel_ios() + retry.retries);
    assert_eq!(sys.buffer_pool_stats().outstanding, 0);
    // Charged == executed: memoryload 0's runs, then the two-block
    // prefix of memoryload 1 on every disk.
    let (reads, writes) = commands(&log);
    assert!(writes.is_empty());
    assert_eq!(reads.len(), 2 * geom.disks());
    assert!(reads[..geom.disks()].iter().all(|&(_, _, b)| b == spm));
    assert!(reads[geom.disks()..].iter().all(|&(_, _, b)| b == 2));
}

#[test]
fn disconnected_run_is_resubmitted_whole_with_one_retry() {
    let geom = Geometry::new(256, 2, 4, 32).unwrap();
    let (mut sys, log) = counted(geom, 2, mem_units(geom, 2));
    sys.set_retry_policy(RetryPolicy::fault_tolerant());
    sys.load_records(0, &input(geom));
    commands(&log);
    // Sever disk 2 while admitting memoryload 1's reads. Its read run
    // and memoryload 0's write run (submitted before the read is
    // collected) both meet the dead link; each is resubmitted whole.
    sys.set_faults(FaultPlan::new().disconnect_at(5, 2));
    striped_pass(&mut sys).unwrap();
    let retry = sys.retry_stats();
    assert_eq!((retry.retries, retry.respawns), (2, 1));
    assert_eq!(retry.attempts, sys.stats().parallel_ios() + retry.retries);
    let (reads, writes) = commands(&log);
    let floor = geom.memoryloads() * geom.disks();
    assert_eq!(
        (reads.len(), writes.len()),
        (floor + 1, floor + 1),
        "one retry per resubmitted command"
    );
    let (placed, serial_stats) = serial_reference(geom, 2, striped_pass);
    assert_eq!(
        sys.stats(),
        serial_stats,
        "the recovered run is charged once"
    );
    assert_eq!(sys.dump_records(1), placed);
    assert_eq!(sys.buffer_pool_stats().outstanding, 0);
}

/// A memory disk that takes `delay` per block.
struct SlowDisk {
    inner: MemDisk<u64>,
    delay: Duration,
}

impl DiskUnit<u64> for SlowDisk {
    fn slots(&self) -> usize {
        DiskUnit::<u64>::slots(&self.inner)
    }

    fn block(&self) -> usize {
        DiskUnit::<u64>::block(&self.inner)
    }

    fn read(&mut self, slot: usize, out: &mut [u64]) -> Result<()> {
        std::thread::sleep(self.delay);
        self.inner.read(slot, out)
    }

    fn write(&mut self, slot: usize, data: &[u64]) -> Result<()> {
        self.inner.write(slot, data)
    }
}

/// A worker that never answers until its link is severed.
struct Stalled {
    disk: usize,
    held: Vec<Cmd<u64>>,
}

impl Transport<u64> for Stalled {
    fn disk(&self) -> usize {
        self.disk
    }

    fn submit(&mut self, cmd: Cmd<u64>) {
        self.held.push(cmd);
    }

    fn inject_disconnect(&mut self) {
        for cmd in self.held.drain(..) {
            fail_disconnected(cmd, self.disk);
        }
    }

    fn shutdown(&mut self) -> Option<Box<dyn DiskUnit<u64>>> {
        None
    }
}

#[test]
fn op_timeout_scales_with_the_run_length() {
    // 16 blocks per disk per memoryload at 2 ms each: one run takes
    // ~32 ms, longer than the 10 ms per-op budget but well inside the
    // 16 × 10 ms the run is allowed.
    let geom = Geometry::new(256, 2, 2, 64).unwrap();
    let per_disk = geom.stripes_per_memoryload();
    assert_eq!(per_disk, 16);
    let units = (0..geom.disks())
        .map(|_| {
            Box::new(SlowDisk {
                inner: MemDisk::new(geom.block(), geom.stripes()),
                delay: Duration::from_millis(2),
            }) as Box<dyn DiskUnit<u64>>
        })
        .collect();
    let (mut sys, _log) = counted(geom, 1, units);
    sys.set_retry_policy(RetryPolicy {
        op_timeout_ms: Some(10),
        ..RetryPolicy::default()
    });
    sys.load_records(0, &input(geom));
    let mut out = vec![0u64; geom.memory()];
    sys.read_memoryload_into(0, 0, &mut out).unwrap();
    assert_eq!(out, input(geom)[..geom.memory()]);
    assert_eq!(
        sys.retry_stats().timeouts,
        0,
        "a healthy long run never trips"
    );

    // A worker that never answers still surfaces the typed timeout.
    let transports = (0..geom.disks())
        .map(|disk| {
            Box::new(Stalled {
                disk,
                held: Vec::new(),
            }) as Box<dyn Transport<u64>>
        })
        .collect();
    let mut sys: DiskSystem<u64> = DiskSystem::new_from_transports(geom, 1, transports);
    sys.set_threaded(true);
    sys.set_retry_policy(RetryPolicy {
        op_timeout_ms: Some(1),
        ..RetryPolicy::default()
    });
    let err = sys.read_memoryload_into(0, 0, &mut out).unwrap_err();
    assert!(
        matches!(err, PdmError::Timeout { ms: 16, .. }),
        "stalled run must time out after 16 × 1 ms, got {err}"
    );
    assert_eq!(sys.retry_stats().timeouts, 1);
    assert_eq!(sys.buffer_pool_stats().outstanding, 0);
}
