//! One permutation to perform repeatedly on a disk system: its route
//! (BMMC or sort), the staged input, the in-RAM oracle, and the exact
//! counts the planners predict. A repetition runs either untraced
//! (the end-to-end call) or traced (the same work split into calls on
//! each layer's public functions, each timed here).

use bmmc::bounds::{self, MergeStrategy as BoundsMerge};
use bmmc::fusion::execute_fused_with;
use bmmc::plan::{candidates, choose, fuse_passes_dp, Plan};
use bmmc::verify::{verify_permutation, VerifyOutcome};
use bmmc::{execute_passes, plan_passes, Bmmc};
use extsort::{general_permute_with, MergeStrategy, SortConfig};
use pdm::{DiskSystem, Geometry, IoStats, MsgStats, PassEngine, ServiceMode, TimingModel};
use std::time::Instant;

/// Milliseconds elapsed since `t`.
pub fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// A timed span that also counts the host's steal: vCPU time the
/// hypervisor gave to other guests while this guest had work to run.
/// On a shared host steal comes in bursts of seconds, and every stolen
/// millisecond delays the measured work by about a millisecond, so
/// the end-to-end time metrics are wall time net of steal.
pub struct Span {
    t: Instant,
    steal0: f64,
}

/// What a [`Span`] measured.
#[derive(Clone, Copy, Debug)]
pub struct Timed {
    pub wall_ms: f64,
    pub steal_ms: f64,
}

impl Timed {
    /// Wall time net of the steal during it.
    pub fn net_ms(&self) -> f64 {
        self.wall_ms - self.steal_ms
    }

    /// Adds another span's figures, for a sample made of several spans.
    pub fn add(&mut self, other: Timed) {
        self.wall_ms += other.wall_ms;
        self.steal_ms += other.steal_ms;
    }
}

impl Span {
    pub fn start() -> Result<Span, String> {
        Ok(Span {
            steal0: crate::probes::steal_ms()?,
            t: Instant::now(),
        })
    }

    pub fn end(&self) -> Result<Timed, String> {
        let wall_ms = ms_since(self.t);
        Ok(Timed {
            wall_ms,
            steal_ms: crate::probes::steal_ms()? - self.steal0,
        })
    }
}

/// How the records get to their targets.
pub enum Route {
    /// A BMMC permutation, planned by factoring and run pass by pass.
    Bmmc(Bmmc),
    /// An arbitrary permutation given as a target table, run as a
    /// forecasting external merge sort.
    Sort(Vec<u64>),
}

/// A permutation with its input, oracle, and predicted exact counts.
pub struct Case {
    /// `bmmc` or `sort`.
    pub label: &'static str,
    pub route: Route,
    /// Staged into portion 0 before every repetition.
    pub input: Vec<u64>,
    /// `expected[target(x)] = input[x]`, computed once in RAM.
    pub expected: Vec<u64>,
    /// Parallel I/Os the planner predicts (`Plan::parallel_ios`).
    pub predicted_ios: u64,
    /// Steps (fused BMMC passes, or sort passes) the planner predicts.
    pub predicted_steps: usize,
}

fn oracle(input: &[u64], target: impl Fn(u64) -> u64) -> Vec<u64> {
    let mut expected = vec![u64::MAX; input.len()];
    for (x, &rec) in input.iter().enumerate() {
        expected[target(x as u64) as usize] = rec;
    }
    expected
}

impl Case {
    /// A BMMC case on records `0..N` (each record is its source
    /// address).
    pub fn bmmc(perm: Bmmc, geom: &Geometry) -> Result<Case, String> {
        let input: Vec<u64> = (0..geom.records() as u64).collect();
        let expected = oracle(&input, |x| perm.target(x));
        let plan = Plan::bmmc(&perm, geom).map_err(|e| format!("planning: {e}"))?;
        Ok(Case {
            label: "bmmc",
            predicted_ios: plan.parallel_ios(geom),
            predicted_steps: plan.num_steps(),
            route: Route::Bmmc(perm),
            input,
            expected,
        })
    }

    /// A general-permutation case on records `0..N`: record `x` goes
    /// to `targets[x]`, by a forecasting merge sort.
    pub fn sort(targets: Vec<u64>, geom: &Geometry) -> Result<Case, String> {
        let input: Vec<u64> = (0..geom.records() as u64).collect();
        let expected = oracle(&input, |x| targets[x as usize]);
        let plan = Plan::sort(geom, BoundsMerge::Forecast)
            .ok_or_else(|| "geometry too small for a forecasting merge".to_string())?;
        let ios = bounds::merge_sort_ios(geom, BoundsMerge::Forecast).expect("plan exists");
        let passes = bounds::merge_sort_passes(geom, BoundsMerge::Forecast).expect("plan exists");
        if plan.parallel_ios(geom) != ios || plan.num_steps() != passes {
            return Err(format!(
                "sort plan ({} I/Os, {} steps) disagrees with the bounds formulas ({ios}, {passes})",
                plan.parallel_ios(geom),
                plan.num_steps()
            ));
        }
        Ok(Case {
            label: "sort",
            predicted_ios: ios,
            predicted_steps: passes,
            route: Route::Sort(targets),
            input,
            expected,
        })
    }
}

impl Case {
    /// FNV-1a digest of the oracle vector: equal digests mean equal
    /// inputs and permutations.
    pub fn digest(&self) -> u64 {
        self.expected.iter().fold(0xcbf2_9ce4_8422_2325, |h, &x| {
            (h ^ x).wrapping_mul(0x0000_0100_0000_01b3)
        })
    }
}

/// Runs `f` with the system's service threads parked (serial mode),
/// so uncounted staging and dumps are plain copies rather than one
/// cross-thread round trip per block.
fn parked<T>(sys: &mut DiskSystem<u64>, f: impl FnOnce(&mut DiskSystem<u64>) -> T) -> T {
    let mode = sys.service_mode();
    let park = mode == ServiceMode::Threaded;
    if park {
        sys.set_service_mode(ServiceMode::Serial);
    }
    let out = f(sys);
    if park {
        sys.set_service_mode(mode);
    }
    out
}

/// Stages `input` into portion 0; returns the wall time in ms.
pub fn stage(sys: &mut DiskSystem<u64>, input: &[u64]) -> f64 {
    let t = Instant::now();
    parked(sys, |s| s.load_records(0, input));
    ms_since(t)
}

/// Per-step figures of a traced BMMC repetition.
#[derive(Clone, Copy, Debug)]
pub struct StepTrace {
    pub ms: f64,
    pub ios: IoStats,
}

/// Layer timings of one traced repetition.
#[derive(Clone, Debug, Default)]
pub struct Layers {
    /// `plan_passes` (BMMC) — factoring and the one-pass fast paths.
    pub factoring_ms: f64,
    /// `fuse_passes_dp` (BMMC).
    pub fuse_ms: f64,
    /// Route planning in total: factoring + fusion, or `Plan::sort`.
    pub plan_ms: f64,
    /// `candidates` + `choose` under the hdd timing model (BMMC).
    pub candidates_ms: f64,
    /// Execution: the fused steps, or the whole merge sort.
    pub exec_ms: f64,
    pub steps: Vec<StepTrace>,
    /// Uncounted staging of the input (`load_records`).
    pub stage_ms: f64,
    /// Output check: `bmmc::verify` scan, or dump + table compare.
    pub verify_ms: f64,
    /// Sort only: merge passes, fan-in, independent share of reads.
    pub sort: Option<(usize, usize, f64)>,
}

/// What one repetition produced.
pub struct Rep {
    /// Wall time and steal of the permutation itself (planning +
    /// execution).
    pub perm: Timed,
    /// I/O of the permutation alone.
    pub ios: IoStats,
    /// Transport messages of the permutation alone.
    pub msgs: MsgStats,
    /// Oracle and exact-count misses; empty when everything held.
    pub misses: Vec<String>,
    /// Present for traced repetitions.
    pub layers: Option<Layers>,
}

/// Runs one repetition of `case` on `sys`: stage, permute, check.
/// `corrupt` swaps two records of the dumped output before the
/// comparison, to prove the oracle catches a misplacement.
pub fn run_rep(
    sys: &mut DiskSystem<u64>,
    case: &Case,
    traced: bool,
    corrupt: bool,
) -> Result<Rep, String> {
    let geom = sys.geometry();
    let stage_ms = stage(sys, &case.input);
    let io0 = sys.stats();
    let msg0 = sys.message_stats();
    let retry0 = sys.retry_stats();
    let mut layers = Layers {
        stage_ms,
        ..Layers::default()
    };
    let mut misses = Vec::new();
    let span = Span::start()?;
    let final_portion = match (&case.route, traced) {
        (Route::Bmmc(perm), false) => {
            let passes = plan_passes(perm, geom.b(), geom.m()).map_err(|e| e.to_string())?;
            let report = execute_passes(sys, &passes).map_err(|e| e.to_string())?;
            check_steps(
                &mut misses,
                case,
                &geom,
                report.passes.iter().map(|s| s.ios.parallel_ios()),
            );
            report.final_portion
        }
        (Route::Bmmc(perm), true) => {
            let t0 = Instant::now();
            let passes = plan_passes(perm, geom.b(), geom.m()).map_err(|e| e.to_string())?;
            layers.factoring_ms = ms_since(t0);
            let t1 = Instant::now();
            let fused = fuse_passes_dp(&passes, geom.b(), geom.m());
            layers.fuse_ms = ms_since(t1);
            layers.plan_ms = layers.factoring_ms + layers.fuse_ms;
            let t2 = Instant::now();
            let mut engine = PassEngine::new(geom);
            let mut src = 0;
            for step in &fused.steps {
                let before = sys.stats();
                let ts = Instant::now();
                execute_fused_with(&mut engine, sys, src, 1 - src, step)
                    .map_err(|e| e.to_string())?;
                layers.steps.push(StepTrace {
                    ms: ms_since(ts),
                    ios: sys.stats().since(&before),
                });
                src = 1 - src;
            }
            layers.exec_ms = ms_since(t2);
            check_steps(
                &mut misses,
                case,
                &geom,
                layers.steps.iter().map(|s| s.ios.parallel_ios()),
            );
            src
        }
        (Route::Sort(targets), traced) => {
            let t0 = Instant::now();
            if traced {
                let plan = Plan::sort(&geom, BoundsMerge::Forecast).ok_or("no sort plan")?;
                layers.plan_ms = ms_since(t0);
                std::hint::black_box(plan);
            }
            let t1 = Instant::now();
            let table: &[u64] = targets;
            let report = general_permute_with(
                sys,
                |&k| k,
                move |k| table[k as usize],
                SortConfig {
                    merge: MergeStrategy::Forecast,
                },
            )
            .map_err(|e| e.to_string())?;
            layers.exec_ms = ms_since(t1);
            if report.passes != case.predicted_steps {
                misses.push(format!(
                    "sort ran {} passes, predicted {}",
                    report.passes, case.predicted_steps
                ));
            }
            let fan_in = MergeStrategy::Forecast.fan_in(&geom);
            if report.fan_in != fan_in {
                misses.push(format!("sort fan-in {} != {fan_in}", report.fan_in));
            }
            let io = report.total;
            layers.sort = Some((
                report.passes - 1,
                report.fan_in,
                io.independent_reads() as f64 / io.parallel_reads as f64,
            ));
            report.final_portion
        }
    };
    let perm = span.end()?;
    let ios = sys.stats().since(&io0);
    let msgs = sys.message_stats().since(&msg0);
    let retry = sys.retry_stats().since(&retry0);
    if ios.parallel_ios() != case.predicted_ios {
        misses.push(format!(
            "{}: {} parallel I/Os, predicted {}",
            case.label,
            ios.parallel_ios(),
            case.predicted_ios
        ));
    }
    if retry.attempts != ios.parallel_ios() + retry.retries {
        misses.push(format!(
            "retry ledger: {} attempts != {} parallel I/Os + {} retries",
            retry.attempts,
            ios.parallel_ios(),
            retry.retries
        ));
    }
    let check = Instant::now();
    let mut out = parked(sys, |s| s.dump_records(final_portion));
    if corrupt {
        out.swap(0, 1);
    }
    if let Some(addr) = out.iter().zip(&case.expected).position(|(a, b)| a != b) {
        misses.push(format!(
            "{}: record {} found at address {addr}, oracle expects {}",
            case.label, out[addr], case.expected[addr]
        ));
    }
    if traced {
        layers.verify_ms = match &case.route {
            // The sort route's only checker is the dump-and-compare.
            Route::Sort(_) => ms_since(check),
            Route::Bmmc(perm) => {
                let t = Instant::now();
                let outcome = verify_permutation(sys, final_portion, perm, |&k| k)
                    .map_err(|e| e.to_string())?;
                let ms = ms_since(t);
                let stripes = geom.stripes() as u64;
                if !matches!(outcome, VerifyOutcome::Correct { reads } if reads == stripes) {
                    misses.push(format!("bmmc::verify: {outcome:?}"));
                }
                let t = Instant::now();
                let cands = candidates(perm, &geom);
                std::hint::black_box(choose(&cands, &geom, &TimingModel::hdd()));
                layers.candidates_ms = ms_since(t);
                ms
            }
        };
    }
    let pool = sys.buffer_pool_stats();
    if pool.outstanding != 0 {
        misses.push(format!(
            "{} pool buffers outstanding after the repetition",
            pool.outstanding
        ));
    }
    Ok(Rep {
        perm,
        ios,
        msgs,
        misses,
        layers: traced.then_some(layers),
    })
}

/// Checks the step count and that each BMMC step cost one pass.
fn check_steps(
    misses: &mut Vec<String>,
    case: &Case,
    geom: &Geometry,
    step_ios: impl Iterator<Item = u64>,
) {
    let per_pass = geom.ios_per_pass() as u64;
    let mut steps = 0;
    for (i, ios) in step_ios.enumerate() {
        steps += 1;
        if ios != per_pass {
            misses.push(format!(
                "step {i}: {ios} parallel I/Os, one pass is {per_pass}"
            ));
        }
    }
    if steps != case.predicted_steps {
        misses.push(format!(
            "{steps} steps executed, plan predicted {}",
            case.predicted_steps
        ));
    }
}
