//! The service's UDS disk farm end to end, over the `pdm-diskd` worker
//! binary this package builds (so these tests never skip for a missing
//! worker): runs far longer than one pipelined exchange window and far
//! bigger than a socket buffer, BMMC and permute jobs placed exactly
//! like on the memory farm, and a worker killed in the middle of a job.

use pdm::Geometry;
use pdm_served::core::{JobState, ServiceConfig, ServiceCore};
use pdm_served::farm::DiskFarm;
use pdm_served::job::{run_job, JobKind, JobSpec};
use std::path::PathBuf;

fn diskd() -> PathBuf {
    PathBuf::from(env!("CARGO_BIN_EXE_pdm-diskd"))
}

/// One disk with 4 KiB blocks (512 `u64`s) and a memoryload of 4096
/// blocks: the threaded system sends each memoryload as one 4096-block
/// run, 16 MiB each way.
#[test]
fn long_runs_round_trip_byte_identically() {
    let (block, run) = (512, 4096);
    let geom = Geometry::new(2 * block * run, block, 1, block * run).unwrap();
    let farm = DiskFarm::<u64>::new_uds(block, 1, geom.stripes(), diskd(), 0).unwrap();
    let (mut sys, lease) = farm.lease_system(geom, 1).unwrap();
    sys.set_threaded(true);
    let data: Vec<u64> = (0..geom.memory() as u64)
        .map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .collect();
    sys.write_memoryload(0, 1, &data).unwrap();
    let mut out = vec![0u64; geom.memory()];
    sys.read_memoryload_into(0, 1, &mut out).unwrap();
    assert!(out == data, "a 4096-block run round-trips byte-identically");
    assert_eq!(sys.stats().parallel_ios(), 2 * run as u64);
    assert_eq!(sys.buffer_pool_stats().outstanding, 0);
    assert_eq!(farm.respawns(), 0);
    drop(sys);
    drop(lease);
}

fn verified_spec(kind: JobKind, records: usize, memory: usize, seed: u64) -> JobSpec {
    let mut spec = JobSpec::new(kind, records, memory, seed);
    spec.verify = true;
    spec
}

/// Both jobs leave every portion of the UDS farm holding exactly what
/// the memory farm holds, at the same charged I/O; through the service
/// the governor's ledger equals each job's own counters.
#[test]
fn jobs_place_data_like_the_mem_farm() {
    let config = ServiceConfig {
        block: 4,
        disks: 4,
        slots: 1 << 12,
        max_running: 2,
        ..ServiceConfig::default()
    };
    let (block, disks, slots) = (config.block, config.disks, config.slots);
    let mem = DiskFarm::<u64>::new(block, disks, slots);
    let uds = DiskFarm::<u64>::new_uds(block, disks, slots, diskd(), 0).unwrap();
    // M/BD = 64 blocks per disk per memoryload: each run spans a full
    // exchange window.
    let specs = [
        verified_spec(JobKind::Bmmc, 1 << 12, 1 << 10, 7),
        verified_spec(JobKind::Permute, 1 << 12, 1 << 10, 8),
    ];
    let mut direct_io = Vec::new();
    for spec in &specs {
        let geom = Geometry::new(spec.records, block, disks, spec.memory).unwrap();
        let place = |farm: &DiskFarm<u64>| {
            let (mut sys, _lease) = farm.lease_system(geom, spec.kind.portions()).unwrap();
            sys.set_threaded(true);
            let report = run_job(&mut sys, spec).unwrap();
            assert!(report.verified);
            let portions: Vec<Vec<u64>> = (0..spec.kind.portions())
                .map(|p| sys.dump_records(p))
                .collect();
            (report.io, portions)
        };
        let (mem_io, mem_placed) = place(&mem);
        let (uds_io, uds_placed) = place(&uds);
        assert_eq!(uds_io, mem_io, "{:?}: same charged I/O", spec.kind);
        assert!(uds_placed == mem_placed, "{:?}: same placement", spec.kind);
        direct_io.push(uds_io);
    }

    let core = ServiceCore::new_with_farm(config, uds);
    let ids: Vec<u64> = specs
        .iter()
        .map(|&spec| core.submit(spec, None).unwrap())
        .collect();
    for (id, io) in ids.into_iter().zip(direct_io) {
        let status = core.wait(id).unwrap();
        assert_eq!(status.state, JobState::Done, "error: {:?}", status.error);
        let report = status.report.unwrap();
        assert!(report.verified);
        assert_eq!(status.usage.io, report.io, "charged equals executed");
        assert_eq!(report.io, io, "served equals direct");
    }
    assert_eq!(core.overview().respawns, 0);
    core.shutdown();
}

/// A kill armed mid-job crashes the real worker process; the farm
/// respawns it under the job, which finishes verified on its first
/// attempt.
#[test]
fn worker_killed_mid_job_is_respawned_under_the_job() {
    let config = ServiceConfig {
        block: 4,
        disks: 4,
        slots: 1 << 12,
        retry_backoff_ms: 1,
        ..ServiceConfig::default()
    };
    let farm =
        DiskFarm::<u64>::new_uds(config.block, config.disks, config.slots, diskd(), 2).unwrap();
    let core = ServiceCore::new_with_farm(config, farm);
    let mut spec = verified_spec(JobKind::Bmmc, 1 << 12, 1 << 10, 5);
    spec.fault = Some((70, 1));
    spec.max_retries = 2;
    let id = core.submit(spec, None).unwrap();
    let status = core.wait(id).unwrap();
    assert_eq!(status.state, JobState::Done, "error: {:?}", status.error);
    assert_eq!(status.attempts, 1, "recovered in place, not re-run");
    assert!(status.report.unwrap().verified);
    assert_eq!(core.overview().respawns, 1, "one crash, one respawn");
    core.shutdown();
}
