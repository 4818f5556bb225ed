//! Telemetry overhead microbench: the simulator's event engine with
//! and without the telemetry observer (and the virtual tracer)
//! attached, reduced to a machine-readable summary.
//!
//! Emits `BENCH_telemetry.json` at the repository root: virtual
//! events per host second, host ns per event, and the host-time
//! overhead of each observation mode relative to the bare run, plus
//! the full [`noiselab_core::OverheadReport`] (per-mode rows and the
//! host-time phase profile) for drill-down.

use noiselab_core::experiments::suite;
use noiselab_core::{measure_overhead, ExecConfig, Mitigation, Model, OverheadReport, Platform};
use serde::Serialize;

/// The machine-readable summary consumed by CI and the docs.
#[derive(Serialize)]
struct BenchTelemetry {
    bench: String,
    workload: String,
    config: String,
    seed: u64,
    reps: u32,
    events_per_run: u64,
    /// Dispatched kernel events per host second, telemetry off / on.
    virtual_events_per_host_sec_off: f64,
    virtual_events_per_host_sec_on: f64,
    /// Host nanoseconds per dispatched event, telemetry off / on.
    host_ns_per_event_off: f64,
    host_ns_per_event_on: f64,
    /// Host-time overhead vs. the bare run, percent.
    telemetry_overhead_pct: f64,
    tracer_overhead_pct: f64,
    both_overhead_pct: f64,
    report: OverheadReport,
}

fn main() {
    let t0 = noiselab_bench::wall_clock();
    // Paper-scale nbody: enough virtual time (hundreds of ms, a few
    // thousand kernel events) for stable per-event host costs.
    let platform = Platform::intel();
    let workload = suite::nbody_for(&platform);
    let cfg = ExecConfig::new(Model::Omp, Mitigation::Rm);
    let (seed, reps) = (1, 15);
    let report =
        measure_overhead(&platform, &workload, &cfg, seed, reps).expect("bench run failed");

    let row = |mode: &str| {
        report
            .rows
            .iter()
            .find(|r| r.mode == mode)
            .unwrap_or_else(|| panic!("mode {mode} missing from overhead report"))
    };
    let rate = |host_ns: u64| report.events as f64 / (host_ns as f64 / 1e9);
    let summary = BenchTelemetry {
        bench: "telemetry_overhead".into(),
        workload: report.workload.clone(),
        config: report.config.clone(),
        seed,
        reps,
        events_per_run: report.events,
        virtual_events_per_host_sec_off: rate(row("bare").host_ns),
        virtual_events_per_host_sec_on: rate(row("+telemetry").host_ns),
        host_ns_per_event_off: row("bare").host_ns_per_event,
        host_ns_per_event_on: row("+telemetry").host_ns_per_event,
        telemetry_overhead_pct: row("+telemetry").overhead_pct,
        tracer_overhead_pct: row("+tracer").overhead_pct,
        both_overhead_pct: row("+both").overhead_pct,
        report,
    };

    noiselab_bench::emit("telemetry_overhead", &summary.report.render());
    let out = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_telemetry.json");
    match serde_json::to_string_pretty(&summary) {
        Ok(json) => {
            if let Err(e) = std::fs::write(out, json + "\n") {
                eprintln!("noiselab-bench: telemetry summary not written: {e}");
            } else {
                println!("wrote {out}");
            }
        }
        Err(e) => eprintln!("noiselab-bench: telemetry summary not serialized: {e}"),
    }
    noiselab_bench::finish("telemetry_overhead", t0);
}
