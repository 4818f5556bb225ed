//! The experiment harness: run a workload under a platform and
//! execution configuration — baseline, traced, with noise injection, or
//! under a fault plan — and repeat across seeds (in parallel on host
//! threads; each simulated run stays fully deterministic in its own
//! kernel instance).
//!
//! Crash-proofing: a single run returns `Result<RunOutput, RunFailure>`
//! instead of panicking, `run_many` contains host panics with
//! `catch_unwind` so one bad run cannot poison a campaign, and the
//! [`RunLedger`] it returns records exactly which (seed, cause) pairs
//! produced no measurement.

use crate::execconfig::{ExecConfig, Model};
use crate::failure::{RetryPolicy, RunFailure};
use crate::platform::Platform;
use noiselab_injector::{spawn_injectors, InjectionConfig};
use noiselab_kernel::{
    FaultPlan, Kernel, KernelConfig, KernelStorage, RunError, SanitizerConfig, SanitizerReport,
};
use noiselab_noise::{
    install, OsNoiseTracer, RunTrace, TraceBuffer, TraceSet, DEFAULT_TRACE_CAPACITY,
};
use noiselab_runtime::{omp, sycl};
use noiselab_sim::{Rng, SimDuration, SimTime};
use noiselab_stats::Summary;
use noiselab_telemetry::{
    MetricsSnapshot, PhaseProfiler, Telemetry, TelemetryConfig, TelemetryReport,
};
use noiselab_workloads::Workload;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Virtual-time safety horizon per run.
const HORIZON: SimTime = SimTime(600 * noiselab_sim::NANOS_PER_SEC);

/// Stream constant separating the harness fault RNG from all other
/// per-seed streams (noise, jitter). Also used to mix the run seed into
/// the plan seed so the same plan fires on different runs of a campaign.
const FAULT_STREAM: u64 = 0x9E37_79B9_7F4A_7C15;

/// Outcome of a single run.
#[derive(Debug, Clone)]
pub struct RunOutput {
    /// Workload execution time (spawn of the team to last worker exit).
    pub exec: SimDuration,
    /// The osnoise trace, when tracing was enabled.
    pub trace: Option<RunTrace>,
    /// Name of the natural anomaly active in this run, if any.
    pub anomaly: Option<String>,
    /// FNV-1a hash of the full dispatched event stream: the run's
    /// determinism fingerprint. Two runs of the same inputs must agree
    /// on it bit for bit (see `noiselab_kernel::sanitize`).
    pub stream_hash: u64,
    /// Per-run metrics snapshot, when telemetry was attached. Absent
    /// (not empty) on uninstrumented runs so existing consumers pay
    /// nothing.
    pub metrics: Option<MetricsSnapshot>,
}

/// Execute one run with the default kernel configuration. Fully
/// deterministic in `seed`.
pub fn run_once(
    platform: &Platform,
    workload: &dyn Workload,
    cfg: &ExecConfig,
    seed: u64,
    tracing: bool,
    inject: Option<&InjectionConfig>,
) -> Result<RunOutput, RunFailure> {
    run_once_with(
        platform,
        workload,
        cfg,
        &KernelConfig::default(),
        seed,
        tracing,
        inject,
    )
}

/// Execute one run under an explicit [`KernelConfig`] — the entry point
/// for kernel ablations such as the eager-vs-tickless equivalence suite.
pub fn run_once_with(
    platform: &Platform,
    workload: &dyn Workload,
    cfg: &ExecConfig,
    kconfig: &KernelConfig,
    seed: u64,
    tracing: bool,
    inject: Option<&InjectionConfig>,
) -> Result<RunOutput, RunFailure> {
    run_once_faulted(
        platform, workload, cfg, kconfig, seed, tracing, inject, None,
    )
}

/// Execute one run with an optional [`FaultPlan`] active. The fault RNG
/// is a separate stream derived from `plan.seed ^ f(seed)`, so a `None`
/// plan (or a no-op plan) leaves the run bit-identical to the unfaulted
/// harness, and the same (plan, seed) pair always fails the same way.
#[allow(clippy::too_many_arguments)]
pub fn run_once_faulted(
    platform: &Platform,
    workload: &dyn Workload,
    cfg: &ExecConfig,
    kconfig: &KernelConfig,
    seed: u64,
    tracing: bool,
    inject: Option<&InjectionConfig>,
    faults: Option<&FaultPlan>,
) -> Result<RunOutput, RunFailure> {
    run_once_observed(
        platform,
        workload,
        cfg,
        kconfig,
        seed,
        tracing,
        inject,
        faults,
        SanitizerConfig::hash_only(),
    )
    .map(|(out, _)| out)
}

/// [`run_once_faulted`] with an explicit [`SanitizerConfig`], returning
/// the sanitizer report alongside the run output — the entry point for
/// the dual-run divergence pipeline (see [`crate::divergence`]). The
/// sanitizer is a pure observer unless `sanitizer.perturb_at` is armed,
/// in which case the run's event stream is deliberately forked.
#[allow(clippy::too_many_arguments)]
pub fn run_once_observed(
    platform: &Platform,
    workload: &dyn Workload,
    cfg: &ExecConfig,
    kconfig: &KernelConfig,
    seed: u64,
    tracing: bool,
    inject: Option<&InjectionConfig>,
    faults: Option<&FaultPlan>,
    sanitizer: SanitizerConfig,
) -> Result<(RunOutput, SanitizerReport), RunFailure> {
    run_once_instrumented(
        platform,
        workload,
        cfg,
        kconfig,
        seed,
        tracing,
        inject,
        faults,
        Observe {
            sanitizer,
            ..Observe::default()
        },
    )
    .map(|r| (r.output, r.sanitizer))
}

/// Observation attachments for one run. Everything here is provably
/// pure: the purity suite asserts a run's `stream_hash` and `exec` are
/// bit-identical whatever combination is attached.
pub struct Observe {
    /// Event-stream sanitizer configuration (hash-only by default).
    pub sanitizer: SanitizerConfig,
    /// Attach a telemetry recorder (spans + metrics) with this
    /// configuration.
    pub telemetry: Option<TelemetryConfig>,
    /// Attach this host-time phase profiler to the kernel and bracket
    /// the harness stats phase with it.
    pub profiler: Option<PhaseProfiler>,
}

impl Default for Observe {
    fn default() -> Self {
        Observe {
            sanitizer: SanitizerConfig::hash_only(),
            telemetry: None,
            profiler: None,
        }
    }
}

impl Observe {
    /// Telemetry with the given configuration, default everything else.
    pub fn telemetry(cfg: TelemetryConfig) -> Self {
        Observe {
            telemetry: Some(cfg),
            ..Observe::default()
        }
    }
}

/// Everything an instrumented run hands back.
pub struct InstrumentedRun {
    pub output: RunOutput,
    pub sanitizer: SanitizerReport,
    /// Present when [`Observe::telemetry`] was set.
    pub telemetry: Option<TelemetryReport>,
}

/// Reusable per-run state for repetition loops: the kernel's growable
/// buffers, the tracer ring, and the telemetry pipeline, all kept warm
/// between runs so back-to-back reps (overhead measurement, campaign
/// cells, the hot-path bench) stop paying allocation churn per run.
/// One arena serves one host thread; `run_many_*` keeps one per worker.
/// Reuse is observationally pure: the arena conformance suite asserts
/// a run through a dirty arena is bit-identical (stream hash, metrics,
/// trace) to a run through a fresh one.
#[derive(Default)]
pub struct RunArena {
    kernel: KernelStorage,
    tracer: TraceBuffer,
    telemetry: Telemetry,
}

/// The fully-instrumented single-run entry point every other
/// `run_once_*` delegates to: sanitizer always, telemetry recorder and
/// host-time profiler on request. Allocates fresh state per call; use
/// [`run_once_instrumented_in`] with a retained [`RunArena`] in
/// repetition loops.
#[allow(clippy::too_many_arguments)]
pub fn run_once_instrumented(
    platform: &Platform,
    workload: &dyn Workload,
    cfg: &ExecConfig,
    kconfig: &KernelConfig,
    seed: u64,
    tracing: bool,
    inject: Option<&InjectionConfig>,
    faults: Option<&FaultPlan>,
    observe: Observe,
) -> Result<InstrumentedRun, RunFailure> {
    run_once_instrumented_in(
        platform,
        workload,
        cfg,
        kconfig,
        seed,
        tracing,
        inject,
        faults,
        observe,
        &mut RunArena::default(),
    )
}

/// [`run_once_instrumented`] drawing all per-run state from `arena`.
#[allow(clippy::too_many_arguments)]
pub fn run_once_instrumented_in(
    platform: &Platform,
    workload: &dyn Workload,
    cfg: &ExecConfig,
    kconfig: &KernelConfig,
    seed: u64,
    tracing: bool,
    inject: Option<&InjectionConfig>,
    faults: Option<&FaultPlan>,
    observe: Observe,
    arena: &mut RunArena,
) -> Result<InstrumentedRun, RunFailure> {
    // SMT toggling (paper §5): rows without the SMT label run with SMT
    // disabled at firmware level, so the sibling hardware threads do not
    // exist — neither for the workload nor for noise to hide on.
    let mut machine = platform.machine.clone();
    if !cfg.smt && machine.smt > 1 {
        machine.smt = 1;
    }
    // DVFS governor cells: `Some(governor)` switches the frequency axis
    // on under that governor (keeping the platform's frequency/thermal
    // parameters when the platform already enables DVFS); `None` leaves
    // the platform untouched, so every existing cell stays bit-identical.
    if let Some(g) = cfg.governor {
        if machine.dvfs.enabled {
            machine.dvfs.governor = g;
        } else {
            machine.dvfs = noiselab_machine::DvfsConfig::enabled_default(g);
        }
    }
    // Per-run machine speed jitter (frequency/thermal/layout effects):
    // the mitigation-independent component of baseline variability.
    if platform.run_jitter_sd > 0.0 {
        let mut jrng = Rng::new(seed ^ 0x51E5_71FF_00AA_22EE);
        let f = (1.0 + jrng.normal(0.0, platform.run_jitter_sd)).clamp(0.9, 1.1);
        machine.perf.flops_per_ns *= f;
        machine.perf.per_core_bw *= f;
        machine.perf.socket_bw *= f;
    }
    let mut kernel = Kernel::new_in(machine.clone(), kconfig.clone(), seed, &mut arena.kernel);
    kernel.attach_sanitizer(observe.sanitizer);

    // Telemetry and profiling are write-only observers: attaching them
    // cannot perturb the simulation (the purity suite proves it).
    let telemetry = observe.telemetry.map(|tcfg| {
        arena.telemetry.reset(tcfg);
        arena.telemetry.clone()
    });
    if let Some(tele) = &telemetry {
        kernel.attach_observer(tele.observer());
    }
    if let Some(prof) = &observe.profiler {
        kernel.attach_host_profiler(prof.hook());
    }

    // Natural background noise; the anomaly dice use an independent
    // stream so they do not correlate with intra-run event jitter.
    let mut noise_rng = Rng::new(seed ^ 0xA5A5_5A5A_0F0F_F0F0);
    let installed = install(&mut kernel, &platform.noise, &mut noise_rng);

    let buffer = if tracing {
        // The retained ring may hold leftovers if the previous run
        // failed before its drain.
        arena.tracer.reset(DEFAULT_TRACE_CAPACITY);
        kernel.attach_tracer(Box::new(OsNoiseTracer::from_buffer(arena.tracer.clone())));
        Some(arena.tracer.clone())
    } else {
        None
    };

    // Fault injection shares no RNG state with the streams above: an
    // absent or no-op plan leaves the event sequence untouched.
    let mut fault_rng = faults.map(|plan| {
        let mut frng = Rng::new(plan.seed ^ seed.wrapping_mul(FAULT_STREAM));
        kernel.install_faults(plan, frng.fork(0));
        frng
    });

    let nthreads = cfg.nthreads(&machine);
    let affinities = cfg.affinities(&machine);

    let start_barrier = inject.map(|config| {
        let bar = kernel.new_barrier(config.lists.len() + nthreads);
        let _ = spawn_injectors(&mut kernel, config, bar);
        bar
    });

    let team = match cfg.model {
        Model::Omp => {
            let program = workload.omp_program(nthreads, cfg.schedule);
            let mut opts = omp::OmpLaunch::new(nthreads, affinities[0]);
            if affinities.len() > 1 {
                opts = omp::OmpLaunch::pinned(nthreads, affinities);
            }
            opts.start_barrier = start_barrier;
            omp::launch(&mut kernel, program, opts)
        }
        Model::Sycl => {
            let program = workload.sycl_program(nthreads);
            let mut opts = sycl::SyclLaunch::new(nthreads, affinities[0]);
            if affinities.len() > 1 {
                opts = sycl::SyclLaunch::pinned(nthreads, affinities);
            }
            opts.start_barrier = start_barrier;
            sycl::launch(&mut kernel, program, opts)
        }
    };

    // Thread-abort faults need the spawned team: draw the victim and
    // abort time now, from the same fault stream (fork keeps the draw
    // independent of how many spurious-IRQ draws the install consumed).
    if let (Some(frng), Some(plan)) = (fault_rng.as_mut(), faults) {
        if let Some(ab) = &plan.abort {
            let mut arng = frng.fork(1);
            if ab.prob > 0.0 && arng.chance(ab.prob) && !team.workers.is_empty() {
                let victim = team.workers[arng.index(team.workers.len())];
                let lo = ab.window.0.nanos();
                let hi = ab.window.1.nanos().max(lo + 1);
                let at = SimTime(lo + arng.below(hi - lo));
                kernel.schedule_abort(victim, at);
            }
        }
    }

    let mut end = SimTime::ZERO;
    let mut failure: Option<RunFailure> = None;
    for w in &team.workers {
        match kernel.run_until_exit(*w, HORIZON) {
            Ok(t) => end = end.max(t),
            Err(RunError::Horizon(_)) => {
                failure = Some(RunFailure::Horizon {
                    limit_secs: HORIZON.0 as f64 / noiselab_sim::NANOS_PER_SEC as f64,
                });
                break;
            }
            Err(RunError::Drained) => {
                failure = Some(RunFailure::Deadlock);
                break;
            }
        }
    }
    // An aborted workload thread invalidates the measurement even when
    // every surviving worker ran to completion, and it is the root cause
    // behind any Drained/Horizon error its blocked peers produced.
    if let Some(&tid) = kernel.aborted_threads().first() {
        let thread = kernel.thread(tid).name.clone();
        kernel.retire(&mut arena.kernel);
        return Err(RunFailure::WorkloadAborted { thread });
    }
    if let Some(f) = failure {
        kernel.retire(&mut arena.kernel);
        return Err(f);
    }
    let exec = end.since(SimTime::ZERO);

    // Post-run bookkeeping is the harness's "stats" phase in the
    // host-time profile.
    if let Some(prof) = &observe.profiler {
        prof.enter(noiselab_kernel::Phase::Stats);
    }
    let trace = buffer.map(|b| {
        // Surface the tracer's ring-buffer accounting through the
        // metrics registry before the drain resets it.
        if let Some(tele) = &telemetry {
            tele.counter_add("trace.emitted", b.emitted());
            tele.counter_add("trace.dropped", b.dropped());
        }
        let tr = b.take_trace(0, exec);
        if let Some(tele) = &telemetry {
            if tr.degraded {
                tele.counter_add("trace.degraded_runs", 1);
            }
        }
        tr
    });

    let report = kernel
        .take_sanitizer_report()
        .expect("sanitizer attached at kernel construction");
    // The sanitizer folds every dispatched event, so its count is the
    // run's event count.
    if let Some(tele) = &telemetry {
        tele.counter_add("kernel.events", report.events);
    }
    let tele_report = telemetry.map(|tele| tele.take_report(end));
    kernel.retire(&mut arena.kernel);
    if let Some(prof) = &observe.profiler {
        prof.exit(noiselab_kernel::Phase::Stats);
    }
    Ok(InstrumentedRun {
        output: RunOutput {
            exec,
            trace,
            anomaly: installed.anomaly,
            stream_hash: report.hash,
            metrics: tele_report.as_ref().map(|r| r.metrics.clone()),
        },
        sanitizer: report,
        telemetry: tele_report,
    })
}

/// One row of a [`RunLedger`]: the original seed, how many attempts were
/// consumed (1 = no retry), and the final outcome.
#[derive(Debug, Clone)]
pub struct RunRecord {
    pub seed: u64,
    pub attempts: u32,
    pub result: Result<RunOutput, RunFailure>,
}

/// Per-run results of a multi-run campaign stage, ordered by seed.
/// Failed runs stay in the ledger as typed causes instead of aborting
/// the stage.
#[derive(Debug, Clone, Default)]
pub struct RunLedger {
    pub records: Vec<RunRecord>,
}

impl RunLedger {
    pub fn len(&self) -> usize {
        self.records.len()
    }

    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Successful outputs, in seed order.
    pub fn outputs(&self) -> impl Iterator<Item = &RunOutput> {
        self.records.iter().filter_map(|r| r.result.as_ref().ok())
    }

    /// Execution times (seconds) of the successful runs.
    pub fn samples(&self) -> Vec<f64> {
        self.outputs().map(|o| o.exec.as_secs_f64()).collect()
    }

    /// The (seed, cause) pairs that produced no measurement.
    pub fn failures(&self) -> Vec<(u64, RunFailure)> {
        self.records
            .iter()
            .filter_map(|r| r.result.as_ref().err().map(|f| (r.seed, f.clone())))
            .collect()
    }

    pub fn ok_count(&self) -> usize {
        self.records.iter().filter(|r| r.result.is_ok()).count()
    }

    /// Determinism fingerprint of the whole ledger: FNV-1a over every
    /// record's (seed, attempts, outcome) — the per-run event-stream
    /// hash for successes, the cause string for failures. Two ledgers
    /// of the same inputs must agree bit for bit; the campaign driver
    /// checkpoints this and re-verifies it on resume.
    pub fn stream_hash(&self) -> u64 {
        use noiselab_kernel::sanitize::fnv1a_extend;
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for r in &self.records {
            h = fnv1a_extend(h, &r.seed.to_le_bytes());
            h = fnv1a_extend(h, &r.attempts.to_le_bytes());
            match &r.result {
                Ok(o) => h = fnv1a_extend(h, &o.stream_hash.to_le_bytes()),
                Err(f) => h = fnv1a_extend(h, f.cause().as_bytes()),
            }
        }
        h
    }

    pub fn failed_count(&self) -> usize {
        self.records.len() - self.ok_count()
    }

    /// Unwrap every record, panicking with the full failure list —
    /// for stages where a failure indicates a harness bug rather than
    /// an injected fault.
    pub fn expect_all(self, context: &str) -> Vec<RunOutput> {
        let failures = self.failures();
        if !failures.is_empty() {
            panic!("{context}: {} run(s) failed: {failures:?}", failures.len());
        }
        self.records
            .into_iter()
            .map(|r| r.result.expect("checked above"))
            .collect()
    }
}

/// Number of host threads `run_many` uses: the `NOISELAB_HOST_THREADS`
/// env var when set to a positive integer, else the detected host
/// parallelism, else a documented fallback of 4. Malformed values are
/// ignored with a note on stderr rather than silently coerced.
fn host_threads() -> usize {
    // audit:allow(taint-env): only sizes the host-thread chunks of run_many; each run is a pure function of its seed and results land in seed order
    if let Ok(v) = std::env::var("NOISELAB_HOST_THREADS") {
        match v.trim().parse::<usize>() {
            Ok(n) if n > 0 => return n,
            _ => eprintln!(
                "noiselab: ignoring malformed NOISELAB_HOST_THREADS={v:?} \
                 (want a positive integer); auto-detecting"
            ),
        }
    }
    match std::thread::available_parallelism() {
        Ok(n) => n.get(),
        Err(e) => {
            eprintln!("noiselab: available_parallelism failed ({e}); using 4 host threads");
            4
        }
    }
}

fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Execute `n_runs` runs with seeds `seed_base..seed_base + n_runs`,
/// parallelised over host threads. Records are ordered by seed; failed
/// runs appear in the ledger instead of panicking the harness.
pub fn run_many(
    platform: &Platform,
    workload: &(dyn Workload + Sync),
    cfg: &ExecConfig,
    n_runs: usize,
    seed_base: u64,
    tracing: bool,
    inject: Option<&InjectionConfig>,
) -> RunLedger {
    run_many_faulted(
        platform,
        workload,
        cfg,
        n_runs,
        seed_base,
        tracing,
        inject,
        None,
        RetryPolicy::none(),
    )
}

/// [`run_many`] with a fault plan and a bounded deterministic retry
/// policy. Host panics inside a run are caught per run and recorded as
/// [`RunFailure::Panic`]; a retried run re-executes with
/// [`RetryPolicy::reseed`] so the whole ledger is a pure function of
/// its inputs.
#[allow(clippy::too_many_arguments)]
pub fn run_many_faulted(
    platform: &Platform,
    workload: &(dyn Workload + Sync),
    cfg: &ExecConfig,
    n_runs: usize,
    seed_base: u64,
    tracing: bool,
    inject: Option<&InjectionConfig>,
    faults: Option<&FaultPlan>,
    retry: RetryPolicy,
) -> RunLedger {
    run_many_instrumented(
        platform, workload, cfg, n_runs, seed_base, tracing, inject, faults, retry, None,
    )
}

/// [`run_many_faulted`] with an optional per-run telemetry attachment
/// (typically [`TelemetryConfig::metrics_only`]); each run gets its own
/// recorder and its [`RunOutput::metrics`] snapshot filled in, ready
/// for exact per-cell aggregation by the campaign driver.
#[allow(clippy::too_many_arguments)]
pub fn run_many_instrumented(
    platform: &Platform,
    workload: &(dyn Workload + Sync),
    cfg: &ExecConfig,
    n_runs: usize,
    seed_base: u64,
    tracing: bool,
    inject: Option<&InjectionConfig>,
    faults: Option<&FaultPlan>,
    retry: RetryPolicy,
    telemetry: Option<TelemetryConfig>,
) -> RunLedger {
    if n_runs == 0 {
        return RunLedger::default();
    }
    let kconfig = KernelConfig::default();
    let host_threads = host_threads().min(n_runs);
    let mut results: Vec<Option<RunRecord>> = Vec::new();
    results.resize_with(n_runs, || None);

    let attempt_run = |seed: u64, arena: &mut RunArena| -> Result<RunOutput, RunFailure> {
        catch_unwind(AssertUnwindSafe(|| {
            let observe = Observe {
                telemetry,
                ..Observe::default()
            };
            run_once_instrumented_in(
                platform, workload, cfg, &kconfig, seed, tracing, inject, faults, observe, arena,
            )
            .map(|r| r.output)
        }))
        .unwrap_or_else(|payload| {
            Err(RunFailure::Panic {
                message: panic_message(payload),
            })
        })
    };

    // Hand each host thread a contiguous, exclusively owned chunk of the
    // result vector: no locks, and results land already ordered by seed.
    let chunk = n_runs.div_ceil(host_threads);
    let attempt_run = &attempt_run;
    std::thread::scope(|scope| {
        for (t, out) in results.chunks_mut(chunk).enumerate() {
            scope.spawn(move || {
                // One arena per worker: runs within a chunk recycle the
                // same kernel/tracer/telemetry buffers.
                let mut arena = RunArena::default();
                for (j, slot) in out.iter_mut().enumerate() {
                    let i = t * chunk + j;
                    let seed = seed_base + i as u64;
                    let mut attempts = 1u32;
                    let mut result = attempt_run(seed, &mut arena);
                    while result.is_err() && attempts <= retry.max_retries {
                        let reseed = RetryPolicy::reseed(seed, attempts);
                        eprintln!(
                            "noiselab: run seed {seed} failed ({}); retry {attempts}/{} \
                             with seed {reseed}",
                            result.as_ref().err().map(|f| f.cause()).unwrap_or("?"),
                            retry.max_retries
                        );
                        result = attempt_run(reseed, &mut arena);
                        attempts += 1;
                    }
                    *slot = Some(RunRecord {
                        seed,
                        attempts,
                        result,
                    });
                }
            });
        }
    });

    // Every slot is written by its owning chunk above; an empty slot can
    // only mean a harness bug, which we record instead of unwrapping so
    // the rest of the campaign's results survive.
    let records = results
        .into_iter()
        .enumerate()
        .map(|(i, r)| {
            r.unwrap_or_else(|| {
                let seed = seed_base + i as u64;
                eprintln!(
                    "noiselab: internal error: no result recorded for seed {seed}; \
                     counting it as a failed run"
                );
                RunRecord {
                    seed,
                    attempts: 0,
                    result: Err(RunFailure::Panic {
                        message: "host thread produced no result".into(),
                    }),
                }
            })
        })
        .collect();
    RunLedger { records }
}

/// Baseline measurement of one configuration.
#[derive(Debug, Clone)]
pub struct Baseline {
    pub summary: Summary,
    pub traces: TraceSet,
    /// Indices of runs with an active natural anomaly.
    pub anomaly_runs: Vec<usize>,
    /// Seeds (with causes) that produced no measurement.
    pub failures: Vec<(u64, RunFailure)>,
}

/// Run the baseline (optionally traced) stage of the pipeline. Panics
/// only if *every* run failed (there is no baseline to report).
pub fn run_baseline(
    platform: &Platform,
    workload: &(dyn Workload + Sync),
    cfg: &ExecConfig,
    n_runs: usize,
    seed_base: u64,
    tracing: bool,
) -> Baseline {
    let ledger = run_many(platform, workload, cfg, n_runs, seed_base, tracing, None);
    let samples = ledger.samples();
    let failures = ledger.failures();
    assert!(
        !samples.is_empty(),
        "baseline {}/{}: all {n_runs} runs failed: {failures:?}",
        workload.name(),
        cfg.label()
    );
    let mut traces = TraceSet::default();
    let mut anomaly_runs = Vec::new();
    for (i, record) in ledger.records.into_iter().enumerate() {
        let Ok(o) = record.result else { continue };
        if o.anomaly.is_some() {
            anomaly_runs.push(i);
        }
        if let Some(mut t) = o.trace {
            t.run_index = i;
            traces.runs.push(t);
        }
    }
    Baseline {
        summary: Summary::of(&samples),
        traces,
        anomaly_runs,
        failures,
    }
}

/// Result of the injection stage: the replayed-noise summary plus the
/// runs that produced no measurement.
#[derive(Debug, Clone)]
pub struct Injected {
    pub summary: Summary,
    pub failures: Vec<(u64, RunFailure)>,
}

/// Run the injection stage: repeat the workload with the injector
/// replaying `config`. Panics only if every run failed.
pub fn run_injected(
    platform: &Platform,
    workload: &(dyn Workload + Sync),
    cfg: &ExecConfig,
    config: &InjectionConfig,
    n_runs: usize,
    seed_base: u64,
) -> Injected {
    let ledger = run_many(
        platform,
        workload,
        cfg,
        n_runs,
        seed_base,
        false,
        Some(config),
    );
    let samples = ledger.samples();
    let failures = ledger.failures();
    assert!(
        !samples.is_empty(),
        "injected {}/{}: all {n_runs} runs failed: {failures:?}",
        workload.name(),
        cfg.label()
    );
    Injected {
        summary: Summary::of(&samples),
        failures,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::execconfig::Mitigation;
    use noiselab_workloads::NBody;

    // Small but long enough (several ms) to span multiple timer ticks.
    fn tiny_nbody() -> NBody {
        NBody {
            bodies: 4_096,
            steps: 3,
            sycl_kernel_efficiency: 1.3,
        }
    }

    #[test]
    fn run_once_is_deterministic() {
        let p = Platform::intel();
        let w = tiny_nbody();
        let cfg = ExecConfig::new(Model::Omp, Mitigation::Rm);
        let a = run_once(&p, &w, &cfg, 42, false, None).unwrap();
        let b = run_once(&p, &w, &cfg, 42, false, None).unwrap();
        assert_eq!(a.exec, b.exec);
        assert_eq!(
            a.stream_hash, b.stream_hash,
            "same seed must dispatch a bit-identical event stream"
        );
        let c = run_once(&p, &w, &cfg, 43, false, None).unwrap();
        assert_ne!(
            a.exec, c.exec,
            "different seeds should give different noise"
        );
        assert_ne!(a.stream_hash, c.stream_hash);
    }

    #[test]
    fn run_many_matches_run_once() {
        let p = Platform::intel();
        let w = tiny_nbody();
        let cfg = ExecConfig::new(Model::Omp, Mitigation::Rm);
        let many = run_many(&p, &w, &cfg, 4, 100, false, None);
        assert_eq!(many.failed_count(), 0);
        for (i, record) in many.records.iter().enumerate() {
            assert_eq!(record.seed, 100 + i as u64);
            assert_eq!(record.attempts, 1);
            let out = record.result.as_ref().unwrap();
            let single = run_once(&p, &w, &cfg, 100 + i as u64, false, None).unwrap();
            assert_eq!(out.exec, single.exec, "run {i} differs");
        }
    }

    #[test]
    fn noop_fault_plan_is_bit_identical() {
        let p = Platform::intel();
        let w = tiny_nbody();
        let cfg = ExecConfig::new(Model::Omp, Mitigation::Rm);
        let kc = KernelConfig::default();
        let plain = run_once(&p, &w, &cfg, 11, false, None).unwrap();
        let noop = FaultPlan {
            seed: 999,
            ..FaultPlan::default()
        };
        let faulted = run_once_faulted(&p, &w, &cfg, &kc, 11, false, None, Some(&noop)).unwrap();
        assert_eq!(plain.exec, faulted.exec, "no-op plan must not perturb runs");
    }

    #[test]
    fn tracing_produces_traces() {
        let p = Platform::intel();
        let w = tiny_nbody();
        let cfg = ExecConfig::new(Model::Omp, Mitigation::Rm);
        let base = run_baseline(&p, &w, &cfg, 3, 7, true);
        assert_eq!(base.traces.runs.len(), 3);
        assert!(base.failures.is_empty());
        for (i, t) in base.traces.runs.iter().enumerate() {
            assert_eq!(t.run_index, i);
            assert!(!t.events.is_empty(), "trace {i} has no events");
            assert!(t.exec_time > SimDuration::ZERO);
        }
    }

    #[test]
    fn sycl_slower_than_omp_raw() {
        let p = Platform::intel();
        let w = tiny_nbody();
        let omp = run_once(
            &p,
            &w,
            &ExecConfig::new(Model::Omp, Mitigation::Rm),
            1,
            false,
            None,
        )
        .unwrap();
        let sycl = run_once(
            &p,
            &w,
            &ExecConfig::new(Model::Sycl, Mitigation::Rm),
            1,
            false,
            None,
        )
        .unwrap();
        assert!(
            sycl.exec.nanos() as f64 > omp.exec.nanos() as f64 * 1.1,
            "sycl {} vs omp {}",
            sycl.exec,
            omp.exec
        );
    }

    #[test]
    fn governor_cells_change_the_run_and_stay_deterministic() {
        use noiselab_machine::Governor;
        let p = Platform::intel();
        let w = tiny_nbody();
        let base = ExecConfig::new(Model::Omp, Mitigation::Tp);
        let perf = base.clone().with_governor(Governor::Performance);
        let plain = run_once(&p, &w, &base, 5, false, None).unwrap();
        let a = run_once(&p, &w, &perf, 5, false, None).unwrap();
        let b = run_once(&p, &w, &perf, 5, false, None).unwrap();
        assert_eq!(a.stream_hash, b.stream_hash, "governor cells must replay");
        assert_eq!(a.exec, b.exec);
        assert_ne!(
            a.stream_hash, plain.stream_hash,
            "enabling DVFS must change the dispatched stream"
        );
        // Powersave holds every CPU at the floor frequency: the same
        // workload must take visibly longer than under Performance.
        let save = base.clone().with_governor(Governor::Powersave);
        let slow = run_once(&p, &w, &save, 5, false, None).unwrap();
        assert!(
            slow.exec > a.exec,
            "powersave {} should be slower than performance {}",
            slow.exec,
            a.exec
        );
    }

    #[test]
    fn host_threads_env_override_is_validated() {
        // Serialise against other tests touching the var (none today,
        // but the lock costs nothing).
        std::env::set_var("NOISELAB_HOST_THREADS", "3");
        assert_eq!(host_threads(), 3);
        std::env::set_var("NOISELAB_HOST_THREADS", "zero");
        let auto = host_threads();
        assert!(auto >= 1, "malformed value must fall back to detection");
        std::env::remove_var("NOISELAB_HOST_THREADS");
    }
}
