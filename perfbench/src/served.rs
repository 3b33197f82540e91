//! The `served-uds` workload: an in-process `ServiceCore` over a farm
//! of `pdm-diskd` worker processes, loaded by two closed-loop clients
//! that alternate BMMC and general-permutation jobs. The traced run
//! adds the same jobs run directly (`run_job`) and decomposed by layer
//! on a uds disk system of the same geometry.

use crate::cases::{ms_since, Case, Span, Timed};
use crate::report::{median, Report};
use crate::{
    fingerprint, layer_probes, put_end_to_end, put_layers, rep_loop, setup_burst, Opts, Tally,
};
use bmmc::bounds::{self, MergeStrategy as BoundsMerge};
use bmmc::catalog::random_bmmc;
use bmmc::plan::Plan;
use extsort::MergeStrategy;
use pdm::transport::find_diskd;
use pdm::{Backend, DiskSystem, Geometry, TempDir, TransportConfig, UdsConfig};
use pdm_served::core::{JobState, JobStatus, ServiceConfig, ServiceCore};
use pdm_served::farm::DiskFarm;
use pdm_served::job::{run_job, JobKind, JobSpec};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

const CLIENTS: u64 = 2;
const KINDS: [JobKind; 2] = [JobKind::Bmmc, JobKind::Permute];

/// The seed of client `client`'s `k`-th cycle; both jobs of a cycle
/// share it.
fn job_seed(seed: u64, client: u64, k: u64) -> u64 {
    seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ (client << 40) ^ k
}

fn spec(kind: JobKind, geom: &Geometry, seed: u64) -> JobSpec {
    let mut spec = JobSpec::new(kind, geom.records(), geom.memory(), seed);
    spec.merge = MergeStrategy::Forecast;
    spec.verify = true;
    spec
}

/// The job's permutation as a benchmark case, rebuilt from its seed
/// exactly as `run_job` draws it.
fn job_case(kind: JobKind, geom: &Geometry, seed: u64) -> Result<Case, String> {
    let mut rng = StdRng::seed_from_u64(seed);
    match kind {
        JobKind::Bmmc => Case::bmmc(random_bmmc(&mut rng, geom.n()), geom),
        _ => {
            let mut targets: Vec<u64> = (0..geom.records() as u64).collect();
            targets.shuffle(&mut rng);
            Case::sort(targets, geom)
        }
    }
}

/// Parallel I/Os a verified job must report: the permutation's plan,
/// plus the `N/BD` reads of the BMMC verification scan (the sort
/// route verifies from an uncounted dump).
fn predicted_job_ios(kind: JobKind, geom: &Geometry, seed: u64) -> Result<u64, String> {
    match kind {
        JobKind::Bmmc => {
            let perm = random_bmmc(&mut StdRng::seed_from_u64(seed), geom.n());
            let plan = Plan::bmmc(&perm, geom).map_err(|e| e.to_string())?;
            Ok(plan.parallel_ios(geom) + geom.stripes() as u64)
        }
        _ => bounds::merge_sort_ios(geom, BoundsMerge::Forecast).ok_or("no forecast merge".into()),
    }
}

/// Checks a terminal job status against its prediction; returns the
/// misses and the (charged, executed) parallel I/Os.
fn check_job(st: &JobStatus, predicted: u64) -> (Vec<String>, u64, u64) {
    let mut misses = Vec::new();
    if st.state != JobState::Done {
        misses.push(format!(
            "job {} ended {}: {}",
            st.id,
            st.state.as_str(),
            st.error.as_deref().unwrap_or("")
        ));
        return (misses, 0, 0);
    }
    let report = st.report.expect("a done job has a report");
    if !report.verified {
        misses.push(format!("job {} was not verified", st.id));
    }
    if report.io.parallel_ios() != predicted {
        misses.push(format!(
            "job {}: {} parallel I/Os, predicted {predicted}",
            st.id,
            report.io.parallel_ios()
        ));
    }
    if st.usage.io != report.io {
        misses.push(format!(
            "job {}: charged {:?} != executed {:?}",
            st.id, st.usage.io, report.io
        ));
    }
    if st.attempts != 1 {
        misses.push(format!("job {} needed {} attempts", st.id, st.attempts));
    }
    (misses, st.usage.io.parallel_ios(), report.io.parallel_ios())
}

/// What one client saw.
#[derive(Default)]
struct ClientLog {
    /// Per cycle: submit→terminal time of its BMMC job plus its
    /// permutation job.
    cycle: Vec<Timed>,
    cycle_ios: Vec<u64>,
    submit_us: Vec<f64>,
    jobs: u64,
    attempted: u64,
    failed: u64,
    charged: u64,
    executed: u64,
}

fn client(
    core: &Arc<ServiceCore>,
    geom: &Geometry,
    seed: u64,
    id: u64,
    until: Instant,
) -> Result<ClientLog, String> {
    let mut log = ClientLog::default();
    let mut k = 0;
    while Instant::now() < until || k == 0 {
        let s = job_seed(seed, id, k);
        let mut cycle = Timed {
            wall_ms: 0.0,
            steal_ms: 0.0,
        };
        let mut cycle_ios = 0;
        for kind in KINDS {
            let predicted = predicted_job_ios(kind, geom, s)?;
            let span = Span::start()?;
            let t = Instant::now();
            log.attempted += 1;
            let job = match core.submit(spec(kind, geom, s), None) {
                Ok(job) => job,
                Err(reject) => {
                    log.failed += 1;
                    eprintln!("MISS submit rejected: {reject}");
                    continue;
                }
            };
            log.submit_us.push(ms_since(t) * 1e3);
            let st = core.wait(job).ok_or("submitted job vanished")?;
            cycle.add(span.end()?);
            let (misses, charged, executed) = check_job(&st, predicted);
            if misses.is_empty() {
                log.jobs += 1;
            } else {
                log.failed += 1;
                for m in &misses {
                    eprintln!("MISS {m}");
                }
            }
            log.charged += charged;
            log.executed += executed;
            cycle_ios += executed;
        }
        log.cycle.push(cycle);
        log.cycle_ios.push(cycle_ios);
        k += 1;
    }
    Ok(log)
}

/// Starts the farm (one `pdm-diskd` per disk) and the service core.
fn start(config: ServiceConfig, bin: &Path) -> Result<Arc<ServiceCore>, String> {
    let farm = DiskFarm::new_uds(
        config.block,
        config.disks,
        config.slots,
        bin.to_path_buf(),
        0,
    )
    .map_err(|e| format!("starting the pdm-diskd farm: {e}"))?;
    Ok(ServiceCore::new_with_farm(config, farm))
}

/// Shuts the service down and drops it on this thread, so the farm
/// joins its workers and waits for every `pdm-diskd` process.
fn stop(mut core: Arc<ServiceCore>) {
    core.shutdown();
    loop {
        match Arc::try_unwrap(core) {
            Ok(inner) => return drop(inner),
            Err(shared) => {
                core = shared;
                std::thread::sleep(Duration::from_millis(1));
            }
        }
    }
}

pub fn run(opts: &Opts, report: &mut Report, tally: &mut Tally) -> Result<(), String> {
    let bin = find_diskd().ok_or(
        "pdm-diskd worker binary not found: build it (cargo build --release --bin pdm-diskd) \
         and set PDM_DISKD_BIN or place it next to the benchmark binary",
    )?;
    fingerprint(&std::env::temp_dir(), Some(&bin));
    let geom = if opts.tiny {
        Geometry::new(1 << 11, 1 << 6, 2, 1 << 9)
    } else {
        Geometry::new(1 << 16, 1 << 6, 2, 1 << 12)
    }
    .expect("valid served geometry");
    let config = ServiceConfig {
        block: geom.block(),
        disks: geom.disks(),
        slots: CLIENTS as usize * 2 * geom.stripes(),
        quantum: geom.blocks_per_memoryload() as u64,
        max_queue: 16,
        max_running: CLIENTS as usize,
        ..ServiceConfig::default()
    };
    println!(
        "workload served-uds N=2^{} B=2^{} D=2^{} M=2^{} clients={CLIENTS} jobs=bmmc,permute(forecast) verify=on",
        geom.n(),
        geom.b(),
        geom.d(),
        geom.m()
    );
    let s0 = job_seed(opts.seed, 0, 0);
    let first = [
        job_case(JobKind::Bmmc, &geom, s0)?,
        job_case(JobKind::Permute, &geom, s0)?,
    ];
    for case in &first {
        println!("input {} digest {:016x}", case.label, case.digest());
    }
    let mut setups = Vec::new();
    let mut build = || start(config, &bin);
    let core = setup_burst(&mut setups, &mut build, &mut stop)?;
    let served_seconds = if opts.trace {
        opts.seconds / 2.0
    } else {
        opts.seconds
    };
    let t = Instant::now();
    let until = t + Duration::from_secs_f64(served_seconds);
    let logs: Vec<Result<ClientLog, String>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|id| {
                let core = &core;
                let geom = &geom;
                s.spawn(move || client(core, geom, opts.seed, id, until))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let wall_ms = ms_since(t);
    let mut all = ClientLog::default();
    for log in logs {
        let log = log?;
        all.cycle.extend(log.cycle);
        all.cycle_ios.extend(log.cycle_ios);
        all.submit_us.extend(log.submit_us);
        all.jobs += log.jobs;
        all.attempted += log.attempted;
        all.failed += log.failed;
        all.charged += log.charged;
        all.executed += log.executed;
    }
    tally.attempted += all.attempted;
    tally.failed += all.failed;
    let ov = core.overview();
    let mut misses = Vec::new();
    if ov.running != 0 || ov.queued != 0 {
        misses.push(format!(
            "{} running, {} queued after the clients stopped",
            ov.running, ov.queued
        ));
    }
    if ov.free_slots != config.slots {
        misses.push(format!(
            "{} of {} farm slots free at the end",
            ov.free_slots, config.slots
        ));
    }
    if ov.finished as u64 != all.attempted {
        misses.push(format!(
            "{} terminal jobs of {} submitted",
            ov.finished, all.attempted
        ));
    }
    tally.record("end-of-workload service check", &misses);
    stop(core);
    // The later set-up bursts run after the clients stop, a second
    // apart, rather than between segments of the client run: a farm
    // started mid-run changes which malloc arenas the later jobs land
    // in, and so moved this process's peak RSS by up to 10% run to run.
    for _ in 1..crate::segments(opts) {
        std::thread::sleep(Duration::from_secs(1));
        stop(setup_burst(&mut setups, &mut build, &mut stop)?);
    }
    report.put(
        "setup_s",
        median(&setups),
        "s",
        setups.len(),
        "farm + service start, median of set-ups spread over the run",
    );

    all.cycle_ios.sort_unstable();
    let cycle_ios = all.cycle_ios[all.cycle_ios.len() / 2];
    let cycle_net_ms = median(&all.cycle.iter().map(Timed::net_ms).collect::<Vec<_>>());
    if opts.trace {
        report.put(
            "served.cycle_ms_p50",
            cycle_net_ms,
            "ms",
            all.cycle.len(),
            "one bmmc + one permute job, submit to terminal, net of steal",
        );
        report.put(
            "served.submit_us",
            median(&all.submit_us),
            "us",
            all.submit_us.len(),
            "ServiceCore::submit call",
        );
        report.put(
            "served.charged_over_executed",
            all.charged as f64 / all.executed as f64,
            "frac",
            all.jobs as usize,
            "governor-charged over executed parallel I/Os; must be exactly 1",
        );
        direct(opts, report, tally, &geom, &bin, cycle_net_ms, first)
    } else {
        let jobs_in_flight = (CLIENTS as usize * KINDS.len()) as f64;
        let n = geom.records() as f64;
        put_end_to_end(report, &all.cycle, jobs_in_flight, n, cycle_ios);
        report.put(
            "served.wall_jobs_per_s",
            all.jobs as f64 / wall_ms * 1e3,
            "1/s",
            all.jobs as usize,
            "completed jobs over the run's wall time",
        );
        Ok(())
    }
}

/// The traced half of `served-uds`: the same jobs without the service,
/// on a uds disk system of the same geometry — whole (`run_job`), then
/// decomposed by layer.
fn direct(
    opts: &Opts,
    report: &mut Report,
    tally: &mut Tally,
    geom: &Geometry,
    bin: &Path,
    served_cycle_ms: f64,
    cases: [Case; 2],
) -> Result<(), String> {
    let dir = TempDir::new("perfbench-direct");
    let transport = TransportConfig::Uds(UdsConfig {
        worker_bin: Some(bin.to_path_buf()),
        ..UdsConfig::default()
    });
    let backend = Backend::File {
        dir: dir.path().to_path_buf(),
    };
    let mut sys: DiskSystem<u64> = DiskSystem::new_with_transport(*geom, 2, &backend, &transport)
        .map_err(|e| e.to_string())?;
    // Pipelined submission, as the service runs its leased systems.
    sys.set_threaded(true);
    let until = Instant::now() + Duration::from_secs_f64(opts.seconds / 4.0);
    let mut cycles = Vec::new();
    let (mut msgs, mut bytes, mut ios, mut records) = (0, 0, 0, 0);
    let mut k = 0;
    while Instant::now() < until || k < 3 {
        let s = job_seed(opts.seed, 0, k);
        let mut cycle_ms = 0.0;
        for kind in KINDS {
            let predicted = predicted_job_ios(kind, geom, s)?;
            sys.reset_stats();
            let m0 = sys.message_stats();
            let span = Span::start()?;
            let result = run_job(&mut sys, &spec(kind, geom, s));
            cycle_ms += span.end()?.net_ms();
            let mut misses = Vec::new();
            match result {
                Ok(r) if r.verified && r.io.parallel_ios() == predicted => {}
                Ok(r) => misses.push(format!(
                    "direct {} job: verified={} with {} parallel I/Os, predicted {predicted}",
                    kind.as_str(),
                    r.verified,
                    r.io.parallel_ios()
                )),
                Err(e) => misses.push(format!("direct {} job: {e}", kind.as_str())),
            }
            tally.record("direct job", &misses);
            if k == 0 {
                let m = sys.message_stats().since(&m0);
                msgs += m.messages();
                bytes += m.bytes();
                ios += sys.stats().parallel_ios();
                records += geom.records() as u64;
            }
        }
        cycles.push(cycle_ms);
        k += 1;
    }
    let direct_ms = median(&cycles);
    report.put(
        "served.direct_job_ms",
        direct_ms,
        "ms",
        cycles.len(),
        "same job pair via run_job, no service, net of steal",
    );
    report.put(
        "served.overhead_ms",
        served_cycle_ms - direct_ms,
        "ms",
        cycles.len(),
        "served cycle p50 minus direct cycle p50",
    );

    let samples = rep_loop(
        &mut sys,
        &cases,
        opts,
        opts.seconds / 4.0,
        &mut || Ok(()),
        tally,
    )?;
    let probes = layer_probes(&mut sys, &cases)?;
    put_layers(
        report,
        &cases,
        &samples,
        &probes,
        Some((msgs, bytes, ios, records)),
    );
    Ok(())
}
