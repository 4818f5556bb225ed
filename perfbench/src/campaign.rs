//! The resumed checkpointed campaign: the model × mitigation grid
//! through `run_campaign` with a durable checkpoint after every cell,
//! stopped after [`STOP_AFTER`] cells and then resumed (load → bit-identity
//! replay of the last cell → finish).
//!
//! The traced pass performs the same steps from the public pieces
//! `run_campaign` is made of (`run_cell`, the checkpoint's JSON
//! encoding, `durable::write_atomic`, `CampaignState::load`), each under
//! its own span; it must leave the same state and checkpoint bytes.

use crate::trace::Tracer;
use crate::SEED_STRIDE;
use noiselab_core::campaign::{run_campaign, run_cell, CampaignPlan, CampaignState, CellRecord};
use noiselab_core::durable::write_atomic;
use noiselab_core::experiments::suite;
use noiselab_core::{run_many_instrumented, ExecConfig, Mitigation, Model, Platform, RetryPolicy};
use noiselab_telemetry::{wall_clock, MetricsSnapshot, TelemetryConfig};
use noiselab_workloads::Workload;
use std::fs;
use std::path::{Path, PathBuf};

/// Cells run before the campaign is stopped and resumed.
pub const STOP_AFTER: usize = 6;

/// Everything one campaign pass leaves behind.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignOutput {
    pub state: CampaignState,
    /// The final checkpoint file's bytes.
    pub checkpoint: Vec<u8>,
}

impl CampaignOutput {
    /// The cell records of every simulated run of the pass: all cells,
    /// plus the replay of the last cell before the resume.
    fn executed(&self) -> impl Iterator<Item = &CellRecord> {
        let replayed = &self.state.cells[STOP_AFTER - 1];
        self.state.cells.iter().chain(std::iter::once(replayed))
    }

    pub fn runs(&self) -> u64 {
        self.executed()
            .map(|c| (c.samples.len() + c.failures.len()) as u64)
            .sum()
    }

    pub fn failed_runs(&self) -> u64 {
        self.executed().map(|c| c.failures.len() as u64).sum()
    }

    /// Exact telemetry counters over every simulated run of the pass.
    pub fn metrics(&self) -> MetricsSnapshot {
        let mut m = MetricsSnapshot::default();
        for c in self.executed() {
            m.merge(&c.metrics);
        }
        m
    }

    /// Attempts beyond the first, over every simulated run of the pass.
    pub fn retries(&self) -> u64 {
        self.executed()
            .map(|c| c.attempts - (c.samples.len() + c.failures.len()) as u64)
            .sum()
    }
}

pub struct CampaignBench {
    platform: Platform,
    workload: Box<dyn Workload + Sync>,
    cells: Vec<(String, ExecConfig)>,
    runs_per_cell: usize,
    seed_base: u64,
    work: PathBuf,
}

impl CampaignBench {
    /// N-body on the Intel platform over the 12-cell model ×
    /// mitigation grid, checkpointing under `work`. The campaign's seeds
    /// start at `seed * SEED_STRIDE`.
    pub fn new(runs_per_cell: usize, seed: u64, work: PathBuf) -> std::io::Result<CampaignBench> {
        let platform = Platform::intel();
        let workload = Box::new(suite::nbody_for(&platform));
        let cells = Mitigation::ALL
            .iter()
            .flat_map(|&mit| {
                [Model::Omp, Model::Sycl].map(|model| {
                    let cfg = ExecConfig::new(model, mit);
                    (cfg.label(), cfg)
                })
            })
            .collect();
        fs::create_dir_all(&work)?;
        Ok(CampaignBench {
            platform,
            workload,
            cells,
            runs_per_cell,
            seed_base: seed.wrapping_mul(SEED_STRIDE),
            work,
        })
    }

    fn plan(&self, checkpoint: Option<PathBuf>, limit: Option<usize>) -> CampaignPlan<'_> {
        CampaignPlan {
            platform: &self.platform,
            workload: self.workload.as_ref(),
            cells: self.cells.clone(),
            runs_per_cell: self.runs_per_cell,
            seed_base: self.seed_base,
            faults: None,
            retry: RetryPolicy::none(),
            checkpoint,
            limit,
            verify_resume: true,
        }
    }

    /// A fixed simulation of `runs` runs of the first cell that fills
    /// the run arenas and faults in the heap, with metrics-only telemetry
    /// as every campaign cell has. Its seeds do not follow the workload
    /// seed, so set-up does the same work on every seed.
    pub fn warm_up(&self, runs: usize) {
        let tele = Some(TelemetryConfig::metrics_only());
        std::hint::black_box(self.one_cell(runs, 0, tele));
    }

    fn one_cell(&self, runs: usize, seed: u64, telemetry: Option<TelemetryConfig>) -> usize {
        let ledger = run_many_instrumented(
            &self.platform,
            self.workload.as_ref(),
            &self.cells[0].1,
            runs,
            seed,
            false,
            None,
            None,
            RetryPolicy::none(),
            telemetry,
        );
        ledger.ok_count()
    }

    /// Host seconds of one cell with metrics-only telemetry minus the
    /// same cell without it.
    pub fn telemetry_cost(&self) -> f64 {
        let t = wall_clock();
        self.one_cell(
            self.runs_per_cell,
            self.seed_base,
            Some(TelemetryConfig::metrics_only()),
        );
        let with = t.elapsed().as_secs_f64();
        let t = wall_clock();
        self.one_cell(self.runs_per_cell, self.seed_base, None);
        with - t.elapsed().as_secs_f64()
    }

    /// One cell, for the 1-vs-2-host-thread probe.
    pub fn probe_stage(&self) {
        std::hint::black_box(self.one_cell(self.runs_per_cell, self.seed_base, None));
    }

    /// The reference result: the same campaign, uninterrupted and
    /// without persistence.
    pub fn reference(&self) -> Result<CampaignState, String> {
        run_campaign(&self.plan(None, None)).map_err(|e| e.to_string())
    }

    /// A fresh, empty checkpoint directory for repetition `rep`.
    pub fn fresh_dir(&self, rep: usize) -> Result<PathBuf, String> {
        let dir = self.work.join(format!("rep-{rep}"));
        let io = |e: std::io::Error| format!("{}: {e}", dir.display());
        if dir.exists() {
            fs::remove_dir_all(&dir).map_err(io)?;
        }
        fs::create_dir_all(&dir).map_err(io)?;
        Ok(dir)
    }

    /// One pass checkpointing into the empty directory `dir`.
    pub fn pass(&self, dir: &Path, tracer: Option<&mut Tracer>) -> Result<CampaignOutput, String> {
        let path = dir.join("state.json");
        let state = match tracer {
            None => {
                let first = self.plan(Some(path.clone()), Some(STOP_AFTER));
                run_campaign(&first).map_err(|e| e.to_string())?;
                run_campaign(&self.plan(Some(path.clone()), None)).map_err(|e| e.to_string())?
            }
            Some(tracer) => self.traced(&path, tracer)?,
        };
        let checkpoint = fs::read(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        Ok(CampaignOutput { state, checkpoint })
    }

    /// `run_campaign` with `limit = STOP_AFTER`, then `run_campaign`
    /// resuming, performed step by step under spans.
    fn traced(&self, path: &Path, tracer: &mut Tracer) -> Result<CampaignState, String> {
        let plan = self.plan(Some(path.to_path_buf()), None);
        let cell =
            |tracer: &mut Tracer, state: &mut CampaignState, i: usize| -> Result<(), String> {
                let (label, cfg) = &plan.cells[i];
                let record = tracer.span("campaign.cell", |_| run_cell(&plan, i, label, cfg));
                state.cells.push(record);
                let text = tracer
                    .span("campaign.serialize", |_| {
                        serde_json::to_string_pretty(&*state)
                    })
                    .map_err(|e| e.to_string())?;
                tracer
                    .span("durable.write_atomic", |_| {
                        write_atomic(path, text.as_bytes())
                    })
                    .map_err(|e| format!("{}: {e}", path.display()))?;
                tracer.count("campaign.save_bytes", text.len() as u64);
                Ok(())
            };

        let mut state = CampaignState::new(plan.fingerprint());
        for i in 0..STOP_AFTER {
            cell(tracer, &mut state, i)?;
        }

        let loaded = tracer
            .span("campaign.load", |_| CampaignState::load(path))
            .map_err(|e| e.to_string())?;
        if loaded != state || loaded.fingerprint != plan.fingerprint() {
            return Err("checkpoint did not load back to the saved state".into());
        }
        let last = STOP_AFTER - 1;
        let (label, cfg) = &plan.cells[last];
        let replay = tracer.span("campaign.verify", |_| run_cell(&plan, last, label, cfg));
        if replay.stream_hash != loaded.cells[last].stream_hash
            || replay.samples != loaded.cells[last].samples
        {
            return Err(format!("resume verification failed on cell {label}"));
        }

        let mut state = loaded;
        for i in STOP_AFTER..plan.cells.len() {
            cell(tracer, &mut state, i)?;
        }
        Ok(state)
    }
}
