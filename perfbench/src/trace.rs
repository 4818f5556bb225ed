//! The benchmark's own tracing, done from outside the program: host
//! time of spans wrapped around calls into each layer, the program's
//! host-time [`PhaseProfiler`] attached to every simulated run, and its
//! deterministic metrics-only telemetry counters.
//!
//! Spans are flat: each wraps one public call made directly by a
//! workload pass, so a span's self time is its duration. The kernel
//! phases the profiler reports (dispatch, scheduler, tracer, stats) are
//! nested inside the harness spans and are reported beside them, never
//! added to them.

use noiselab_core::Observe;
use noiselab_telemetry::{wall_clock, MetricsSnapshot, PhaseProfiler, TelemetryConfig};
use std::collections::BTreeMap;

#[derive(Default)]
pub struct Tracer {
    /// Host nanoseconds per span name.
    spans: BTreeMap<&'static str, u64>,
    /// Exact counts recorded at the span boundaries.
    counts: BTreeMap<&'static str, u64>,
    pub profiler: PhaseProfiler,
    /// Merged per-run telemetry counters of every simulated run.
    pub metrics: MetricsSnapshot,
}

impl Tracer {
    /// Time `f` under span `name`; `f` may record into the tracer.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        let start = wall_clock();
        let out = f(self);
        *self.spans.entry(name).or_default() += start.elapsed().as_nanos() as u64;
        out
    }

    pub fn count(&mut self, name: &'static str, n: u64) {
        *self.counts.entry(name).or_default() += n;
    }

    pub fn span_secs(&self, name: &str) -> f64 {
        self.spans.get(name).copied().unwrap_or(0) as f64 * 1e-9
    }

    /// Sum of every span's self time, in seconds.
    pub fn covered_secs(&self) -> f64 {
        self.spans.values().sum::<u64>() as f64 * 1e-9
    }

    pub fn counted(&self, name: &str) -> u64 {
        self.counts.get(name).copied().unwrap_or(0)
    }

    /// Observation attachments for one simulated run: metrics-only
    /// telemetry and this tracer's host-time profiler.
    pub fn observe(&self) -> Observe {
        Observe {
            telemetry: Some(TelemetryConfig::metrics_only()),
            profiler: Some(self.profiler.clone()),
            ..Observe::default()
        }
    }

    /// Host self-seconds the profiler attributed to `phase`.
    pub fn phase_secs(&self, phase: &str) -> f64 {
        self.profiler
            .report()
            .phases
            .iter()
            .find(|p| p.phase == phase)
            .map_or(0.0, |p| p.self_ns as f64 * 1e-9)
    }
}
