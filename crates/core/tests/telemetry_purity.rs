//! The telemetry layer's acceptance property: attaching the span
//! recorder, the metrics registry and the host-time phase profiler is
//! *provably pure* — a telemetry-enabled run produces the same
//! dispatched event stream (`stream_hash`) and the same virtual
//! execution time as a disabled one, bit for bit, across seeds,
//! models and tracing modes.

use noiselab_core::{
    run_many, run_many_instrumented, run_once, run_once_instrumented, ExecConfig, Mitigation,
    Model, Observe, Platform, RetryPolicy,
};
use noiselab_kernel::KernelConfig;
use noiselab_telemetry::{PhaseProfiler, TelemetryConfig};
use noiselab_workloads::NBody;
use proptest::prelude::*;

// Small but long enough (several ms) to cross timer ticks, noise
// activations and migrations.
fn tiny_nbody() -> NBody {
    noiselab_testutil::tiny_nbody(3)
}

/// (stream_hash, exec ns) of a fully instrumented run: telemetry with
/// timeline on, plus the phase profiler.
fn instrumented(cfg: &ExecConfig, seed: u64, tracing: bool) -> (u64, u64) {
    let p = Platform::intel();
    let run = run_once_instrumented(
        &p,
        &tiny_nbody(),
        cfg,
        &KernelConfig::default(),
        seed,
        tracing,
        None,
        None,
        Observe {
            telemetry: Some(TelemetryConfig::default()),
            profiler: Some(PhaseProfiler::new()),
            ..Observe::default()
        },
    )
    .expect("instrumented run failed");
    assert!(
        run.output.metrics.is_some(),
        "telemetry-enabled run must snapshot metrics"
    );
    assert_eq!(
        run.output
            .metrics
            .as_ref()
            .map(|m| m.counter("kernel.events")),
        Some(run.sanitizer.events),
        "metrics must count exactly the events the sanitizer folded"
    );
    (run.output.stream_hash, run.output.exec.nanos())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn telemetry_and_profiler_never_perturb_a_run(
        seed in 1u64..50_000,
        sycl in any::<bool>(),
        tracing in any::<bool>(),
        dvfs in any::<bool>(),
    ) {
        let model = if sycl { Model::Sycl } else { Model::Omp };
        // Half the cases run with the DVFS axis on: frequency-transition
        // and throttle records flow through the observer wire path, so
        // the purity property must hold across the new record kinds too.
        let mut cfg = ExecConfig::new(model, Mitigation::Rm);
        cfg.governor = dvfs.then_some(noiselab_machine::Governor::Schedutil);
        let p = Platform::intel();
        let bare = run_once(&p, &tiny_nbody(), &cfg, seed, tracing, None)
            .expect("bare run failed");
        let (hash, exec_ns) = instrumented(&cfg, seed, tracing);
        // Telemetry must not change the dispatched event stream or
        // virtual execution time.
        prop_assert_eq!(bare.stream_hash, hash);
        prop_assert_eq!(bare.exec.nanos(), exec_ns);
    }
}

#[test]
fn instrumented_ledger_matches_bare_ledger_bit_for_bit() {
    let p = Platform::intel();
    let w = tiny_nbody();
    let cfg = ExecConfig::new(Model::Omp, Mitigation::Rm);
    let bare = run_many(&p, &w, &cfg, 6, 300, false, None);
    let inst = run_many_instrumented(
        &p,
        &w,
        &cfg,
        6,
        300,
        false,
        None,
        None,
        RetryPolicy::none(),
        Some(TelemetryConfig::metrics_only()),
    );
    assert_eq!(
        bare.stream_hash(),
        inst.stream_hash(),
        "metrics-only telemetry must leave the whole ledger bit-identical"
    );
    for rec in &inst.records {
        let m = rec
            .result
            .as_ref()
            .expect("run failed")
            .metrics
            .as_ref()
            .expect("metrics snapshot missing");
        assert_eq!(m.runs, 1);
        // Acceptance floor: at least 6 distinct registered metrics per
        // run snapshot.
        assert!(m.len() >= 6, "only {} metrics registered", m.len());
        assert!(m.counter("sched.context_switches") > 0);
        assert!(m.counter("kernel.events") > 0);
        assert!(m.hist("sched.runq_depth").is_some());
        assert!(m.gauge("cpu.util.mean").is_some());
    }
}

#[test]
fn tracer_drop_counters_surface_in_metrics() {
    let p = Platform::intel();
    let w = tiny_nbody();
    let cfg = ExecConfig::new(Model::Omp, Mitigation::Rm);
    let run = run_once_instrumented(
        &p,
        &w,
        &cfg,
        &KernelConfig::default(),
        11,
        true,
        None,
        None,
        Observe::telemetry(TelemetryConfig::metrics_only()),
    )
    .expect("traced run failed");
    let m = run.output.metrics.expect("metrics");
    let trace = run.output.trace.expect("trace");
    assert_eq!(
        m.counter("trace.emitted"),
        trace.events.len() as u64 + trace.dropped_events,
        "metrics registry must mirror the tracer's ring-buffer accounting"
    );
    assert_eq!(m.counter("trace.dropped"), trace.dropped_events);
}
