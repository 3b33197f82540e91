//! The repository benchmark: one command that drives the library
//! through its public APIs on one workload, checks every output
//! against an in-RAM oracle and every exact count against the
//! planners' predictions, and prints every metric by name with its
//! unit and sample count. The last line of standard output is the
//! JSON result.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--tiny] [--corrupt]
//! ```
//!
//! `--trace 0` reports the end-to-end metrics of an untraced run;
//! `--trace 1` times calls into each layer instead and reports the
//! per-layer metrics. `--tiny` shrinks every geometry for a smoke
//! check; `--corrupt` misplaces one record of every dumped output so
//! the run must fail. Exit status: 0 when every check held, 1 when an
//! oracle or count check missed (the result line is still printed),
//! 2 on a set-up error (no result line).

mod cases;
mod probes;
mod report;
mod served;

use cases::{ms_since, run_rep, stage, Case, Layers, Timed};
use pdm::{Backend, DiskSystem, Geometry, IoStats, MsgStats, ServiceMode, TempDir};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use report::{median, tail, Report};
use std::time::Instant;

/// End-to-end metrics, printed in the result line of `--trace 0`.
const END_TO_END: &[&str] = &[
    "records_per_s",
    "perm_ms_p50",
    "perm_ms_tail",
    "jobs_per_s",
    "parallel_ios",
    "setup_s",
    "peak_rss_mb",
];

/// Per-layer metrics defined on every workload, printed in the result
/// line of `--trace 1`. Workload-specific layer figures (per-step
/// times, address evaluation, the service layer) print in the table.
const PER_LAYER: &[&str] = &[
    "plan.ms",
    "plan.steps",
    "plan.predicted_parallel_ios",
    "exec.ms",
    "engine.compute_ms",
    "pdm.stripe_read_us",
    "pdm.stripe_write_us",
    "pdm.block_read_us",
    "pdm.pool_allocated_growth",
    "stage.ms",
    "verify.ms",
    "sort.merge_passes",
    "sort.fan_in",
    "sort.independent_read_frac",
    "transport.messages_per_parallel_io",
    "transport.bytes_per_record",
    "trace.overhead_frac",
];

/// An untraced run is cut into `SEGMENTS` equal segments with a burst
/// of `SETUPS_PER_SEGMENT` timed set-ups before each, so the set-ups
/// whose median is `setup_s` are spread across the run rather than
/// bunched into one moment of the host's contention. The first burst
/// keeps its last system for the measurement; the later bursts build
/// and drop throwaway ones (on `served-uds`, after the clients stop).
/// A traced run (which does not report `setup_s`) is one segment.
pub const SEGMENTS: usize = 5;
pub const SETUPS_PER_SEGMENT: usize = 3;

/// Runs one burst of set-ups: `build` `SETUPS_PER_SEGMENT` times, each
/// timed into `setups` (seconds) and all but the last handed to
/// `discard`. Returns the last one.
pub fn setup_burst<T>(
    setups: &mut Vec<f64>,
    build: &mut dyn FnMut() -> Result<T, String>,
    discard: &mut dyn FnMut(T),
) -> Result<T, String> {
    let mut last = None;
    for _ in 0..SETUPS_PER_SEGMENT {
        if let Some(x) = last.take() {
            discard(x);
        }
        let t = Instant::now();
        last = Some(build()?);
        setups.push(ms_since(t) / 1e3);
    }
    Ok(last.expect("a burst has set-ups"))
}

/// Segments of a run.
pub fn segments(opts: &Opts) -> usize {
    if opts.trace {
        1
    } else {
        SEGMENTS
    }
}

/// Single-block reads in the `pdm.block_read_us` probe.
const BLOCK_READS: usize = 1 << 14;

/// Command-line options.
pub struct Opts {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub tiny: bool,
    pub corrupt: bool,
}

fn parse_args() -> Result<Opts, String> {
    let mut opts = Opts {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        tiny: false,
        corrupt: false,
    };
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = |name: &str| args.next().ok_or(format!("{name} needs a value"));
        match flag.as_str() {
            "--workload" => opts.workload = value("--workload")?,
            "--seed" => {
                opts.seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                opts.seconds = value("--seconds")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?
            }
            "--trace" => {
                opts.trace = match value("--trace")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--tiny" => opts.tiny = true,
            "--corrupt" => opts.corrupt = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if !(opts.seconds > 0.0 && opts.seconds <= 120.0) {
        return Err("--seconds must be in (0, 120]".into());
    }
    Ok(opts)
}

/// Attempts and failures: errors, rejects, and oracle or count misses.
#[derive(Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

/// Misses printed per run; the rest are only counted.
const SHOWN_MISSES: u64 = 10;

impl Tally {
    /// Books one attempt with its misses (empty when it succeeded).
    pub fn record(&mut self, what: &str, misses: &[String]) {
        self.attempted += 1;
        if !misses.is_empty() {
            self.miss(&format!("{what}: {}", misses.join("; ")));
        }
    }

    /// Books one failed attempt.
    pub fn miss(&mut self, what: &str) {
        if self.failed < SHOWN_MISSES {
            eprintln!("MISS {what}");
        }
        self.failed += 1;
    }
}

/// `N, B, D, M` for a workload at full or smoke-test size.
fn geometry(lg: [u32; 4]) -> Geometry {
    let [n, b, d, m] = lg.map(|l| 1usize << l);
    Geometry::new(n, b, d, m).expect("benchmark geometries are valid")
}

fn main() {
    let opts = match parse_args() {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let mut report = Report::default();
    let mut tally = Tally::default();
    let steal0 = probes::steal_ms();
    let outcome = match opts.workload.as_str() {
        "bmmc-tiny-threaded" | "bmmc-4k-file" | "sort-shuffle" => {
            run_inproc(&opts, &mut report, &mut tally)
        }
        "served-uds" => served::run(&opts, &mut report, &mut tally),
        other => Err(format!(
            "unknown workload {other:?} (bmmc-tiny-threaded, bmmc-4k-file, sort-shuffle, served-uds)"
        )),
    };
    let outcome = outcome.and_then(|()| {
        report.put(
            "peak_rss_mb",
            probes::peak_rss_mb()?,
            "MB",
            1,
            "VmHWM of the benchmark process",
        );
        report.put(
            "host.steal_ms",
            probes::steal_ms()? - steal0?,
            "ms",
            1,
            "vCPU time the hypervisor took during the run: host contention",
        );
        Ok(())
    });
    if let Err(e) = outcome {
        eprintln!("perfbench: {}: {e}", opts.workload);
        std::process::exit(2);
    }
    let failed_frac = tally.failed as f64 / tally.attempted.max(1) as f64;
    report.put(
        "failed_frac",
        failed_frac,
        "frac",
        tally.attempted as usize,
        &format!("{} failed of {} attempted", tally.failed, tally.attempted),
    );
    report.print_table();
    let names = if opts.trace { PER_LAYER } else { END_TO_END };
    let correct = tally.failed == 0;
    println!(
        "{}",
        report.json(names, correct, tally.attempted, tally.failed)
    );
    if !correct {
        std::process::exit(1);
    }
}

/// Prints the host fingerprint lines.
pub fn fingerprint(work_dir: &std::path::Path, diskd: Option<&std::path::Path>) {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    println!("host nproc {nproc}");
    println!(
        "host work_dir {} fs {}",
        work_dir.display(),
        probes::fs_type(work_dir)
    );
    match diskd {
        Some(p) => println!("host pdm-diskd {}", p.display()),
        None => println!("host pdm-diskd not-used"),
    }
}

/// A workload run on one in-process disk system.
struct Inproc {
    geom: Geometry,
    file: bool,
    threaded: bool,
}

fn inproc_workload(opts: &Opts) -> Result<(Inproc, Case), String> {
    let mut rng = StdRng::seed_from_u64(opts.seed);
    let (lg, file, threaded) = match (opts.workload.as_str(), opts.tiny) {
        ("bmmc-tiny-threaded", false) => ([20, 3, 1, 13], false, true),
        ("bmmc-tiny-threaded", true) => ([12, 3, 1, 8], false, true),
        ("bmmc-4k-file", false) => ([23, 9, 2, 16], true, false),
        ("bmmc-4k-file", true) => ([15, 9, 2, 12], true, false),
        ("sort-shuffle", false) => ([20, 3, 2, 13], false, false),
        ("sort-shuffle", true) => ([12, 3, 2, 8], false, false),
        (other, _) => return Err(format!("{other} is not an in-process workload")),
    };
    let geom = geometry(lg);
    let case = if opts.workload == "sort-shuffle" {
        let mut targets: Vec<u64> = (0..geom.records() as u64).collect();
        targets.shuffle(&mut rng);
        Case::sort(targets, &geom)?
    } else {
        Case::bmmc(bmmc::catalog::random_bmmc(&mut rng, geom.n()), &geom)?
    };
    Ok((
        Inproc {
            geom,
            file,
            threaded,
        },
        case,
    ))
}

/// Builds the workload's disk system and stages `input`.
fn build_system(
    w: &Inproc,
    input: &[u64],
    dir: Option<&TempDir>,
) -> Result<DiskSystem<u64>, String> {
    let backend = match dir {
        Some(d) => Backend::File {
            dir: d.path().to_path_buf(),
        },
        None => Backend::Mem,
    };
    let mut sys = DiskSystem::new_with_backend(w.geom, 2, &backend).map_err(|e| e.to_string())?;
    if w.threaded {
        sys.set_service_mode(ServiceMode::Threaded);
    }
    stage(&mut sys, input);
    Ok(sys)
}

fn run_inproc(opts: &Opts, report: &mut Report, tally: &mut Tally) -> Result<(), String> {
    let (w, case) = inproc_workload(opts)?;
    let work = std::env::temp_dir();
    fingerprint(&work, None);
    println!(
        "workload {} N=2^{} B=2^{} D=2^{} M=2^{} backend={} service={}",
        opts.workload,
        w.geom.n(),
        w.geom.b(),
        w.geom.d(),
        w.geom.m(),
        if w.file { "file" } else { "mem" },
        if w.threaded { "threaded" } else { "serial" }
    );
    println!("input {} digest {:016x}", case.label, case.digest());
    let cases = [case];
    let mut setups = Vec::new();
    let mut build = || {
        let dir = w.file.then(|| TempDir::new("perfbench-file"));
        build_system(&w, &cases[0].input, dir.as_ref()).map(|sys| (sys, dir))
    };
    let (mut sys, _dir) = setup_burst(&mut setups, &mut build, &mut drop)?;
    let mut between = || setup_burst(&mut setups, &mut build, &mut drop).map(drop);
    let samples = rep_loop(&mut sys, &cases, opts, opts.seconds, &mut between, tally)?;
    report.put(
        "setup_s",
        median(&setups),
        "s",
        setups.len(),
        "system build + first staging, median of set-ups spread over the run",
    );
    if opts.trace {
        let probe = layer_probes(&mut sys, &cases)?;
        put_layers(report, &cases, &samples, &probe, None);
    } else {
        let n = w.geom.records() as f64;
        put_end_to_end(report, &samples.plain[0], 1.0, n, cases[0].predicted_ios);
    }
    Ok(())
}

/// Samples from the repetition loop, per case.
pub struct Samples {
    /// Untraced permutation times.
    pub plain: Vec<Vec<Timed>>,
    /// Traced repetitions: total permutation time and the layer split.
    pub traced: Vec<Vec<(Timed, Layers)>>,
    /// The exact I/O and message counts of one permutation.
    pub ios: Vec<IoStats>,
    pub msgs: Vec<MsgStats>,
    /// Pool buffers allocated after warm-up.
    pub pool_growth: u64,
    /// Pool buffers still lent out when the loop ended.
    pub pool_outstanding: usize,
}

/// Repeats the cases round-robin on `sys` for `seconds` (at least four
/// rounds), after one checked warm-up round. With tracing on, rounds
/// alternate untraced and traced so the tracing overhead is measured
/// on the same system. `between` runs at each of the run's segment
/// boundaries, outside the measured time. Ends with the pool checks.
pub fn rep_loop(
    sys: &mut DiskSystem<u64>,
    cases: &[Case],
    opts: &Opts,
    seconds: f64,
    between: &mut dyn FnMut() -> Result<(), String>,
    tally: &mut Tally,
) -> Result<Samples, String> {
    let mut s = Samples {
        plain: vec![Vec::new(); cases.len()],
        traced: vec![Vec::new(); cases.len()],
        ios: Vec::new(),
        msgs: Vec::new(),
        pool_growth: 0,
        pool_outstanding: 0,
    };
    for case in cases {
        let rep = run_rep(sys, case, false, opts.corrupt)?;
        tally.record("warm-up", &rep.misses);
        s.ios.push(rep.ios);
        s.msgs.push(rep.msgs);
        if opts.trace {
            let rep = run_rep(sys, case, true, opts.corrupt)?;
            tally.record("warm-up", &rep.misses);
        }
    }
    let alloc0 = sys.buffer_pool_stats().allocated;
    let segments = segments(opts);
    let mut segment = 1;
    let start = Instant::now();
    let mut paused = 0.0;
    let measured = |paused: f64| start.elapsed().as_secs_f64() - paused;
    let mut i = 0;
    while measured(paused) < seconds || i < 4 * cases.len() {
        if segment < segments && measured(paused) >= seconds * segment as f64 / segments as f64 {
            let t = Instant::now();
            between()?;
            paused += t.elapsed().as_secs_f64();
            segment += 1;
        }
        let c = i % cases.len();
        let traced = opts.trace && (i / cases.len()) % 2 == 1;
        let mut rep = run_rep(sys, &cases[c], traced, opts.corrupt)?;
        if rep.ios != s.ios[c] || rep.msgs != s.msgs[c] {
            rep.misses.push(format!(
                "exact counts changed between repetitions: {:?}/{:?} vs {:?}/{:?}",
                rep.ios, rep.msgs, s.ios[c], s.msgs[c]
            ));
        }
        tally.record("repetition", &rep.misses);
        match rep.layers {
            Some(layers) => s.traced[c].push((rep.perm, layers)),
            None => s.plain[c].push(rep.perm),
        }
        i += 1;
    }
    for _ in segment..segments {
        between()?;
    }
    let pool = sys.buffer_pool_stats();
    s.pool_growth = pool.allocated - alloc0;
    s.pool_outstanding = pool.outstanding;
    let mut misses = Vec::new();
    if pool.outstanding != 0 {
        misses.push(format!(
            "{} pool buffers outstanding at the end",
            pool.outstanding
        ));
    }
    if s.pool_growth != 0 {
        misses.push(format!(
            "buffer pool grew by {} after warm-up",
            s.pool_growth
        ));
    }
    tally.record("end-of-workload pool check", &misses);
    Ok(s)
}

/// Reports the end-to-end metrics of one sample set. Each sample is
/// the latency of `jobs` jobs in flight together (1 for one
/// permutation; clients × jobs per cycle on `served-uds`), each moving
/// `n` records with `ios` parallel I/Os per sample. Latencies are wall
/// time net of host steal, and throughput is the closed-loop rate at
/// the median latency, so both are as robust to bursts of host
/// contention as the median itself. The raw wall-clock median and the
/// steal print beside them.
pub fn put_end_to_end(report: &mut Report, samples: &[Timed], jobs: f64, n: f64, ios: u64) {
    let net: Vec<f64> = samples.iter().map(Timed::net_ms).collect();
    let p50 = median(&net);
    let (tail_ms, pct) = tail(&net);
    let count = samples.len();
    let jobs_per_s = jobs / p50 * 1e3;
    let records_per_s = n * jobs_per_s;
    let note = "records per job x jobs per second";
    report.put("records_per_s", records_per_s, "rec/s", count, note);
    report.put(
        "perm_ms_p50",
        p50,
        "ms",
        count,
        "wall time net of host steal",
    );
    report.put(
        "perm_ms_tail",
        tail_ms,
        "ms",
        count,
        &format!("p{pct:.1}: highest percentile with >= 10 samples beyond it, net of steal"),
    );
    report.put(
        "perm_ms_p50_wall",
        median(&samples.iter().map(|t| t.wall_ms).collect::<Vec<_>>()),
        "ms",
        count,
        "wall time including host steal",
    );
    report.put(
        "perm_steal_ms_p50",
        median(&samples.iter().map(|t| t.steal_ms).collect::<Vec<_>>()),
        "ms",
        count,
        "host steal during one sample",
    );
    report.put(
        "jobs_per_s",
        jobs_per_s,
        "1/s",
        count,
        "jobs in flight over the median latency",
    );
    report.put(
        "parallel_ios",
        ios as f64,
        "count",
        1,
        "exact, checked against the plan",
    );
}

/// Side probes of a traced run, measured once.
pub struct Probes {
    pub stripe_read_us: f64,
    pub stripe_write_us: f64,
    pub block_read_us: f64,
    /// Per BMMC step: block-run ns, affine ns, fanout.
    pub eval: Vec<(f64, f64, usize)>,
}

/// Measures the `pdm` and `bmmc::eval` probes on `sys` (portion 1 is
/// overwritten) for `cases`.
pub fn layer_probes(sys: &mut DiskSystem<u64>, cases: &[Case]) -> Result<Probes, String> {
    let geom = sys.geometry();
    let (stripe_read_us, stripe_write_us) = probes::stripe_sweep(sys, 1)?;
    let block_read_us = probes::block_reads(sys, 1, BLOCK_READS.min(geom.total_blocks()))?;
    let mut eval = Vec::new();
    for case in cases {
        if let cases::Route::Bmmc(perm) = &case.route {
            let passes = bmmc::plan_passes(perm, geom.b(), geom.m()).map_err(|e| e.to_string())?;
            for step in bmmc::plan::fuse_passes_dp(&passes, geom.b(), geom.m()).steps {
                let runs: Result<Vec<_>, String> = (0..3)
                    .map(|_| probes::eval_kernels(&step.as_bmmc(), geom.b() as u32))
                    .collect();
                let runs = runs?;
                let b: Vec<f64> = runs.iter().map(|r| r.0).collect();
                let a: Vec<f64> = runs.iter().map(|r| r.1).collect();
                eval.push((median(&b), median(&a), runs[0].2));
            }
        }
    }
    Ok(Probes {
        stripe_read_us,
        stripe_write_us,
        block_read_us,
        eval,
    })
}

/// Messages and bytes of a transport measurement: total messages,
/// total bytes, parallel I/Os, and records moved.
pub type TransportCounts = (u64, u64, u64, u64);

/// Reports the per-layer metrics of a traced run over `cases`: sums of
/// per-case medians. `transport` overrides the message counts taken
/// from the repetitions (the served workload measures direct jobs).
pub fn put_layers(
    report: &mut Report,
    cases: &[Case],
    s: &Samples,
    p: &Probes,
    transport: Option<TransportCounts>,
) {
    let med = |c: usize, f: &dyn Fn(&Layers) -> f64| {
        median(&s.traced[c].iter().map(|(_, l)| f(l)).collect::<Vec<_>>())
    };
    let sum = |f: &dyn Fn(&Layers) -> f64| (0..cases.len()).map(|c| med(c, f)).sum::<f64>();
    let reps = s.traced.iter().map(Vec::len).min().unwrap_or(0);
    report.put(
        "plan.ms",
        sum(&|l| l.plan_ms),
        "ms",
        reps,
        "route planning, median",
    );
    report.put(
        "plan.steps",
        cases.iter().map(|c| c.predicted_steps).sum::<usize>() as f64,
        "count",
        1,
        "exact",
    );
    report.put(
        "plan.predicted_parallel_ios",
        cases.iter().map(|c| c.predicted_ios).sum::<u64>() as f64,
        "count",
        1,
        "exact; equals measured parallel_ios every repetition",
    );
    let exec_ms = sum(&|l| l.exec_ms);
    report.put(
        "exec.ms",
        exec_ms,
        "ms",
        reps,
        "execution without planning, median",
    );
    let io_ms: f64 = s
        .ios
        .iter()
        .map(|io| {
            (io.striped_reads as f64 * p.stripe_read_us
                + io.independent_reads() as f64 * p.block_read_us
                + io.parallel_writes as f64 * p.stripe_write_us)
                / 1e3
        })
        .sum();
    report.put(
        "engine.compute_ms",
        exec_ms - io_ms,
        "ms",
        reps,
        "derived: exec.ms minus I/O probe times x I/O counts",
    );
    report.put(
        "pdm.stripe_read_us",
        p.stripe_read_us,
        "us",
        1,
        "per parallel I/O, memoryload sweep",
    );
    report.put(
        "pdm.stripe_write_us",
        p.stripe_write_us,
        "us",
        1,
        "per parallel I/O, memoryload sweep",
    );
    report.put(
        "pdm.block_read_us",
        p.block_read_us,
        "us",
        BLOCK_READS,
        "independent single-block reads",
    );
    report.put(
        "pdm.pool_allocated_growth",
        s.pool_growth as f64,
        "count",
        1,
        "buffers allocated after warm-up",
    );
    report.put(
        "pdm.outstanding_end",
        s.pool_outstanding as f64,
        "count",
        1,
        "pool buffers lent out at the end; must be 0",
    );
    report.put(
        "stage.ms",
        sum(&|l| l.stage_ms),
        "ms",
        reps,
        "load_records of the input, median",
    );
    report.put(
        "verify.ms",
        sum(&|l| l.verify_ms),
        "ms",
        reps,
        "output check, excluded from records_per_s",
    );
    let (passes, fan_in, indep) = s
        .traced
        .iter()
        .find_map(|t| t.first().and_then(|(_, l)| l.sort))
        .unwrap_or((0, 0, 0.0));
    report.put(
        "sort.merge_passes",
        passes as f64,
        "count",
        1,
        "exact; 0 without a sort",
    );
    report.put(
        "sort.fan_in",
        fan_in as f64,
        "count",
        1,
        "exact; 0 without a sort",
    );
    report.put(
        "sort.independent_read_frac",
        indep,
        "frac",
        1,
        "exact; 0 without a sort",
    );
    let (msgs, bytes, ios, records) = transport.unwrap_or_else(|| {
        let m = s.msgs.iter().map(MsgStats::messages).sum();
        let b = s.msgs.iter().map(MsgStats::bytes).sum();
        let i = s.ios.iter().map(IoStats::parallel_ios).sum();
        (m, b, i, cases.iter().map(|c| c.input.len() as u64).sum())
    });
    report.put(
        "transport.messages_per_parallel_io",
        msgs as f64 / ios as f64,
        "frac",
        1,
        "exact; 0 in process",
    );
    report.put(
        "transport.bytes_per_record",
        bytes as f64 / records as f64,
        "B/rec",
        1,
        "exact; 0 in process",
    );
    let plain: f64 = s
        .plain
        .iter()
        .map(|v| median(&v.iter().map(Timed::net_ms).collect::<Vec<_>>()))
        .sum();
    let traced: f64 = (0..cases.len())
        .map(|c| {
            median(
                &s.traced[c]
                    .iter()
                    .map(|(t, _)| t.net_ms())
                    .collect::<Vec<_>>(),
            )
        })
        .sum();
    report.put(
        "trace.overhead_frac",
        1.0 - plain / traced,
        "frac",
        reps,
        "1 - untraced/traced median permutation time, net of steal",
    );
    // Workload-specific layer figures (table only).
    for (c, case) in cases.iter().enumerate() {
        if !matches!(case.route, cases::Route::Bmmc(_)) {
            continue;
        }
        report.put(
            "factoring.plan_ms",
            med(c, &|l| l.factoring_ms),
            "ms",
            reps,
            "plan_passes",
        );
        report.put(
            "plan.dp_fuse_ms",
            med(c, &|l| l.fuse_ms),
            "ms",
            reps,
            "fuse_passes_dp",
        );
        report.put(
            "plan.candidates_ms",
            med(c, &|l| l.candidates_ms),
            "ms",
            reps,
            "candidates + choose (hdd)",
        );
        for i in 0..case.predicted_steps {
            report.put(
                &format!("step.{i}.ms"),
                med(c, &|l| l.steps[i].ms),
                "ms",
                reps,
                "execute_fused_with",
            );
            let ios = s.traced[c][0].1.steps[i].ios.parallel_ios();
            report.put(
                &format!("step.{i}.parallel_ios"),
                ios as f64,
                "count",
                1,
                "exact",
            );
        }
        let mean = |f: fn(&(f64, f64, usize)) -> f64| {
            p.eval.iter().map(f).sum::<f64>() / p.eval.len() as f64
        };
        report.put(
            "eval.block_run_ns_per_record",
            mean(|e| e.0),
            "ns",
            p.eval.len(),
            "mean over steps",
        );
        report.put(
            "eval.affine_ns_per_record",
            mean(|e| e.1),
            "ns",
            p.eval.len(),
            "mean over steps",
        );
        let fanouts: Vec<String> = p.eval.iter().map(|e| e.2.to_string()).collect();
        report.put(
            "eval.fanout",
            p.eval.iter().map(|e| e.2).max().unwrap_or(0) as f64,
            "count",
            p.eval.len(),
            &format!("max over steps; per step {}", fanouts.join(",")),
        );
    }
}
