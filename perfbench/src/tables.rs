//! The paper-table workloads: the Table 3 / Table 4 pipeline of
//! `noiselab_core::experiments::inject::run_table`, rebuilt stage by
//! stage from public calls so that each stage can be timed from
//! outside. For every trace source, row and mitigation of every
//! platform block: traced `run_baseline` → `generate` → untraced
//! `run_baseline` (cached per model and SMT setting) → `run_injected`.
//!
//! The workload seed `s` offsets the seed of every baseline and injected
//! run by `s * SEED_STRIDE`, so two workload seeds share no run. The
//! traced trace-collection runs keep `run_table`'s seeds: which anomaly
//! those ten runs per source catch decides the size of the configs the
//! injected runs replay, and with it how much work a pass is (N-body
//! passes ranged from 5.5 to 13.9 million events over eight seeds, 32 %
//! coefficient of variation, against 2 % with fixed trace collection).
//! At workload seed 0 a pass must reproduce `run_table` bit for bit.

use crate::trace::Tracer;
use crate::SEED_STRIDE;
use noiselab_core::experiments::inject::{run_table, InjectionTable, TableSpec};
use noiselab_core::experiments::{suite, Scale};
use noiselab_core::{
    run_baseline, run_injected, run_once_instrumented_in, ExecConfig, Mitigation, Model, Platform,
    RunArena,
};
use noiselab_injector::{generate, GeneratorOptions, InjectionConfig};
use noiselab_kernel::KernelConfig;
use noiselab_noise::{TraceEvent, TraceSet};
use noiselab_stats::Summary;
use noiselab_workloads::Workload;
use std::collections::BTreeMap;

/// Everything one table pass computes. Two passes of the same bench
/// must compare equal; the means are positive and finite, so `==` on
/// them is bit identity.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TableOutput {
    /// `(baseline mean, injected mean)` per mitigation, in
    /// [`Mitigation::ALL`] order, for every row of every block.
    pub cells: Vec<[(f64, f64); 6]>,
    /// The generated injection configurations, one per trace source.
    pub configs: Vec<InjectionConfig>,
    pub trace_events: u64,
    pub trace_dropped: u64,
    /// In-memory size of the collected traces, in bytes.
    pub trace_bytes: u64,
    pub runs: u64,
    pub failed_runs: u64,
}

impl TableOutput {
    pub fn config_events(&self) -> u64 {
        self.configs.iter().map(|c| c.event_count() as u64).sum()
    }

    fn tally(&mut self, s: &StageOut) {
        self.runs += s.runs;
        self.failed_runs += s.failed;
    }
}

struct BlockInputs {
    boosted: Platform,
    workload: Box<dyn Workload + Sync>,
}

/// One table workload: the plan, its scale and the workload seed's
/// offset to the rerun seeds.
pub struct TableBench {
    spec: TableSpec,
    scale: Scale,
    small: bool,
    offset: u64,
    blocks: Vec<BlockInputs>,
}

#[derive(Clone, Copy)]
enum Stage {
    TracedBaseline,
    Baseline,
    Injected,
}

impl Stage {
    fn span(self) -> &'static str {
        match self {
            Stage::TracedBaseline => "harness.traced_baseline",
            Stage::Baseline => "harness.baseline",
            Stage::Injected => "harness.injected",
        }
    }
}

struct StageOut {
    mean: f64,
    traces: TraceSet,
    runs: u64,
    failed: u64,
}

impl TableBench {
    pub fn new(spec: TableSpec, scale: Scale, small: bool, seed: u64) -> TableBench {
        let name = match (spec.workload.name(), small) {
            ("N-body", false) => "nbody",
            ("N-body", true) => "nbody-small",
            ("Babelstream", false) => "babelstream",
            ("Babelstream", true) => "babelstream-small",
            ("MiniFE", false) => "minife",
            _ => "minife-small",
        };
        let blocks = spec
            .platforms
            .iter()
            .map(|p| BlockInputs {
                boosted: scale.boost(&p.platform),
                workload: suite::workload_by_name(&p.platform, name)
                    .expect("every table workload has a suite name"),
            })
            .collect();
        TableBench {
            spec,
            scale,
            small,
            offset: seed.wrapping_mul(SEED_STRIDE),
            blocks,
        }
    }

    /// A fixed, milliseconds-scale simulation that fills the run arenas
    /// and faults in the heap before the first timed pass: `runs` traced
    /// runs of the first trace source. Its seeds do not follow the
    /// workload seed, so set-up does the same work on every seed.
    pub fn warm_up(&self, runs: usize) {
        let source = &self.spec.platforms[0].traces[0];
        let block = &self.blocks[0];
        let b = run_baseline(
            &block.boosted,
            block.workload.as_ref(),
            &source.cfg,
            runs,
            0,
            true,
        );
        std::hint::black_box(b);
    }

    /// One pass over the whole table. With a tracer, every stage runs
    /// through `run_once_instrumented_in` with the profiler and
    /// metrics-only telemetry attached, under a span per stage; without
    /// one, the stages are the harness's own `run_baseline` /
    /// `run_injected`.
    pub fn pass(&self, mut tracer: Option<&mut Tracer>) -> TableOutput {
        let mut out = TableOutput::default();
        let s = self.offset;
        for (pi, (pspec, block)) in self.spec.platforms.iter().zip(&self.blocks).enumerate() {
            let workload = block.workload.as_ref();

            // Stage 1+2: trace collection and config generation.
            let mut configs = Vec::new();
            for (ti, source) in pspec.traces.iter().enumerate() {
                // `run_table`'s seeds on every workload seed: see the
                // module docs.
                let seed = 10_000 * (pi as u64 + 1) + 1_000 * ti as u64;
                let traced = self.stage(
                    tracer.as_deref_mut(),
                    Stage::TracedBaseline,
                    &block.boosted,
                    workload,
                    &source.cfg,
                    self.scale.traced_runs,
                    seed,
                    None,
                );
                out.tally(&traced);
                for t in &traced.traces.runs {
                    out.trace_events += t.events.len() as u64;
                    out.trace_dropped += t.dropped_events;
                    out.trace_bytes += t
                        .events
                        .iter()
                        .map(|e| (std::mem::size_of::<TraceEvent>() + e.source.len()) as u64)
                        .sum::<u64>();
                }
                let origin = format!(
                    "{}/{}/{}",
                    self.spec.workload.name(),
                    pspec.platform.label(),
                    source.label
                );
                let gen = || generate(origin, &traced.traces, &GeneratorOptions::default());
                let config = match tracer.as_deref_mut() {
                    Some(t) => t.span("injector.generate", |_| gen()),
                    None => gen(),
                }
                .expect("trace collection cannot be empty");
                configs.push(config);
            }

            // Untraced baselines, cached per (model, SMT).
            let mut baselines: BTreeMap<(bool, bool), [f64; 6]> = BTreeMap::new();
            for (ri, row) in pspec.rows.iter().enumerate() {
                let key = (row.model == Model::Sycl, row.smt);
                let base = match baselines.get(&key) {
                    Some(&means) => means,
                    None => {
                        let mut means = [0.0; 6];
                        for (i, &mit) in Mitigation::ALL.iter().enumerate() {
                            let b = self.stage(
                                tracer.as_deref_mut(),
                                Stage::Baseline,
                                &pspec.platform,
                                workload,
                                &cell_config(row.model, mit, row.smt),
                                self.scale.baseline_runs,
                                s.wrapping_add(50_000 + i as u64 * 500),
                                None,
                            );
                            out.tally(&b);
                            means[i] = b.mean;
                        }
                        baselines.insert(key, means);
                        means
                    }
                };
                let mut cells = [(0.0, 0.0); 6];
                for (i, &mit) in Mitigation::ALL.iter().enumerate() {
                    let inj = self.stage(
                        tracer.as_deref_mut(),
                        Stage::Injected,
                        &pspec.platform,
                        workload,
                        &cell_config(row.model, mit, row.smt),
                        self.scale.inject_runs,
                        s.wrapping_add(100_000 + 1_000 * ri as u64 + 50 * i as u64),
                        Some(&configs[row.trace]),
                    );
                    out.tally(&inj);
                    cells[i] = (base[i], inj.mean);
                }
                out.cells.push(cells);
            }
            out.configs.extend(configs);
        }
        out
    }

    #[allow(clippy::too_many_arguments)]
    fn stage(
        &self,
        tracer: Option<&mut Tracer>,
        stage: Stage,
        platform: &Platform,
        workload: &(dyn Workload + Sync),
        cfg: &ExecConfig,
        n: usize,
        seed: u64,
        inject: Option<&InjectionConfig>,
    ) -> StageOut {
        let tracing = matches!(stage, Stage::TracedBaseline);
        let Some(tracer) = tracer else {
            return match inject {
                Some(config) => {
                    let inj = run_injected(platform, workload, cfg, config, n, seed);
                    StageOut {
                        mean: inj.summary.mean,
                        traces: TraceSet::default(),
                        runs: n as u64,
                        failed: inj.failures.len() as u64,
                    }
                }
                None => {
                    let b = run_baseline(platform, workload, cfg, n, seed, tracing);
                    StageOut {
                        mean: b.summary.mean,
                        traces: b.traces,
                        runs: n as u64,
                        failed: b.failures.len() as u64,
                    }
                }
            };
        };
        // `run_many` on one host thread: seeds in order through one
        // arena, folded the way `run_baseline` folds them.
        let (samples, traces) = tracer.span(stage.span(), |tracer| {
            let mut arena = RunArena::default();
            let mut samples = Vec::with_capacity(n);
            let mut traces = TraceSet::default();
            for i in 0..n {
                let run = run_once_instrumented_in(
                    platform,
                    workload,
                    cfg,
                    &KernelConfig::default(),
                    seed + i as u64,
                    tracing,
                    inject,
                    None,
                    tracer.observe(),
                    &mut arena,
                );
                let Ok(run) = run else { continue };
                samples.push(run.output.exec.as_secs_f64());
                if let Some(m) = &run.output.metrics {
                    tracer.metrics.merge(m);
                }
                if let Some(mut t) = run.output.trace {
                    t.run_index = i;
                    traces.runs.push(t);
                }
            }
            (samples, traces)
        });
        assert!(!samples.is_empty(), "{}: all {n} runs failed", stage.span());
        StageOut {
            mean: Summary::of(&samples).mean,
            traces,
            runs: n as u64,
            failed: (n - samples.len()) as u64,
        }
    }

    /// The reference result: `run_table` itself over the same plan.
    pub fn reference(&self) -> InjectionTable {
        run_table(&self.spec, self.scale, self.small)
    }

    /// Bit-for-bit comparison of a pass with `run_table`. Meaningful at
    /// workload seed 0 only, where the seeds coincide.
    pub fn matches_reference(
        &self,
        out: &TableOutput,
        table: &InjectionTable,
    ) -> Result<(), String> {
        let rows: Vec<_> = table.blocks.iter().flat_map(|b| &b.rows).collect();
        if out.cells.len() != rows.len() || table.failed_runs as u64 != out.failed_runs {
            return Err(format!(
                "pass has {} rows / {} failed runs, run_table {} rows / {} failed runs",
                out.cells.len(),
                out.failed_runs,
                rows.len(),
                table.failed_runs
            ));
        }
        for (row, cells) in rows.iter().zip(&out.cells) {
            for (i, (c, &(base, inj))) in row.cells.iter().zip(cells).enumerate() {
                if c.base_mean != base || c.inj_mean != inj {
                    return Err(format!(
                        "{} {:?}: pass ({base}, {inj}) != run_table ({}, {})",
                        row.label,
                        Mitigation::ALL[i],
                        c.base_mean,
                        c.inj_mean
                    ));
                }
            }
        }
        Ok(())
    }

    /// The first stage of the plan, for the 1-vs-2-host-thread probe.
    pub fn probe_stage(&self) {
        let block = &self.blocks[0];
        let cfg = &self.spec.platforms[0].traces[0].cfg;
        let b = run_baseline(
            &block.boosted,
            block.workload.as_ref(),
            cfg,
            self.scale.traced_runs,
            10_000,
            true,
        );
        std::hint::black_box(b);
    }
}

fn cell_config(model: Model, mit: Mitigation, smt: bool) -> ExecConfig {
    let cfg = ExecConfig::new(model, mit);
    if smt {
        cfg.with_smt()
    } else {
        cfg
    }
}
