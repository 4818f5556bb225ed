//! The noiselab command-line tool: drive the paper's pipeline stage by
//! stage, with JSON artifacts on disk between stages.
//!
//! ```text
//! noiselab baseline --platform intel --workload nbody [--model omp] [--mitigation Rm] [--runs 40]
//! noiselab trace    --platform intel --workload nbody --out traces.json [--boost 10]
//! noiselab trace    --run <seed> --out trace.json [--binary trace.nltb]   # Perfetto timeline
//! noiselab metrics  [--runs 5] [--tracing true] [--json] [--profile] [--overhead [--reps 3]]
//! noiselab metrics  --checkpoint state.json [--json]   # merged campaign + supervisor metrics
//! noiselab advise   [--checkpoint state.json] [--traces <file|dir>] [--check]
//!                   [--bench-hotpath BENCH_hotpath.json] [--bench-telemetry BENCH_telemetry.json]
//!                   [--json] [--markdown <path|->] [--cv-threshold 0.05] [--alpha 0.01]
//!                   [--resamples 800] [--advise-seed N]
//! noiselab generate --traces traces.json --out config.json [--merge improved|naive]
//! noiselab inject   --platform intel --workload nbody --config config.json [--runs 20]
//! noiselab analyze  --traces traces.json [--top 10]
//! noiselab report   --what table1|table2|fig1|fig2|merge|memory|runlevel3 [--scale smoke|bench|paper]
//! noiselab campaign --platform intel --workload nbody [--runs 20] [--checkpoint state.json]
//!                   [--resume true] [--crash-prob 0.05] [--crash-window-ms 2]
//!                   [--fault-seed 1] [--retries 0] [--limit N] [--verify-resume true]
//!                   [--dvfs true]   # grow the grid by the governor mitigation matrix
//! noiselab campaign --workers N [--queue DIR] [--shard-size 2] [--heartbeat-secs 120]
//!                   [--shard-timeout-secs 3600] [--max-shard-crashes 3] [--chaos-kills 0]
//! noiselab audit    [--static] [--dual-run] [--json] [--root .]
//!                   [--sarif <path|->] [--fail-on-stale-allow]
//!                   [--platform intel] [--workload nbody] [--model omp] [--mitigation Rm]
//!                   [--seed 1] [--perturb N] [--cadence 64]
//! noiselab conform  [--fuzz N] [--seed S] [--corpus <dir>] [--json]
//!                   [--mutate swap-pick|drop-irq-span|affinity-break|ghost-run
//!                             |turbo-leak|throttle-early|ghost-turbo|throttle-stuck]
//! noiselab conform  --replay <case.json | repro-line-file | '// conform:repro {...}'>
//! ```
//!
//! `trace --run <seed>` runs one seed with the telemetry recorder and
//! writes a Chrome trace-event JSON timeline (one track per logical
//! CPU) loadable in ui.perfetto.dev or chrome://tracing; `--binary`
//! additionally writes the compact NLTB timeline. `metrics` aggregates
//! the metrics registry over a few runs; `--profile` adds the host-time
//! phase profile and `--overhead` the Table-1-style observation
//! overhead report.
//!
//! `campaign` sweeps every model x mitigation cell, checkpointing after
//! each completed cell; a killed campaign resumes bit-identical with
//! `--resume true` and the same flags (`--verify-resume true`, the
//! default, re-runs the last completed cell and requires its event
//! stream hash to match the checkpoint before continuing).
//! `campaign --workers N` runs the same sweep on the sharded
//! multi-process engine (crates/campaignd): cells are partitioned into
//! shards on an on-disk work queue, claimed under lease files by N
//! supervised worker processes, and merged with per-shard hash
//! verification into a state bit-identical to the single-process path;
//! killed workers are respawned with backoff, repeat-lethal shards are
//! quarantined and reported by name, and re-running the command against
//! the same `--queue` resumes at cell granularity.
//!
//! `conform` runs the scheduler conformance suite: a coverage-guided
//! fuzz campaign whose every scenario is re-derived by a naive
//! differential oracle and checked against the metamorphic invariants
//! (work conservation, FIFO supremacy, affinity, osnoise conservation,
//! bounded fairness). Failures are shrunk to one-line
//! `// conform:repro` cases replayable with `--replay`; `--mutate`
//! seeds a known scheduler bug to prove the suite catches it (the exit
//! code flips: a mutated campaign that PASSES is the failure).
//!
//! `audit` enforces the determinism contract: `--static` sweeps the
//! deterministic crates with the token lexer *and* the taint analyzer
//! (parse → CFG → dataflow), reporting any unannotated nondeterminism
//! source that reaches a determinism sink as a source→sink path;
//! `--sarif` emits a SARIF 2.1.0 report (to a file, or stdout with
//! `-`), `--fail-on-stale-allow` makes unused `audit:allow`
//! annotations fatal. Every sweep is a full, cold one (about a second
//! on a 2-core host). `--dual-run` executes the same cell twice and
//! bisects the event streams, naming the first divergent event if they
//! differ (`--perturb N` deliberately forks run B after event N to exercise
//! the pipeline). Flags given without a value (`--static --json`) are
//! booleans.
//!
//! `noiselab <command> --help` lists the command's flags; a flag the
//! command does not read is rejected with an error naming it.
//!
//! `advise` is the measurement-quality advisor (crates/advise): it
//! reads whatever artifacts exist — a campaign checkpoint, per-cell
//! trace sets (a single JSON file, or a directory of
//! `<cell-label>.json` files), and the committed `BENCH_*.json`
//! history — and prints the ranked diagnosis: measurement smells
//! (high-CV cells by seeded bootstrap CI, retry/degraded clusters,
//! quarantined cells, supervisor instability), per-cell noise blame
//! (dominant source and CPU by share of excess osnoise), the bench
//! regression watch (robust z against the trajectory's own step
//! noise), and the mitigation recommendation table. `--check` exits
//! nonzero when any critical smell or significant regression is
//! present (the CI gate); `--markdown <path|->` writes the report as
//! markdown. Bench files with a missing or foreign schema tag are
//! refused with an error naming the file.

use noiselab::core::experiments::{
    ablation, fig1, fig2, numa, runlevel, suite, table1, table2, Scale,
};
use noiselab::core::{run_baseline, run_injected, ExecConfig, Mitigation, Model, Platform};
use noiselab::injector::{generate, GeneratorOptions, InjectionConfig, MergeStrategy};
use noiselab::noise::TraceSet;
use noiselab::workloads::Workload;
use std::collections::HashMap;
use std::process::ExitCode;

struct Args {
    cmd: String,
    opts: HashMap<String, String>,
}

/// One subcommand: its one-line summary and every flag it reads.
struct Command {
    name: &'static str,
    about: &'static str,
    /// Space-separated flag names, without the `--`.
    flags: &'static str,
    run: fn(&Args) -> Result<(), String>,
}

/// Every subcommand. `main` dispatches through this table, prints an
/// entry for `--help`, and rejects flags an entry does not list.
const COMMANDS: &[Command] = &[
    Command {
        name: "baseline",
        about: "run an untraced baseline and print its summary",
        flags: "platform workload model mitigation smt runs seed",
        run: cmd_baseline,
    },
    Command {
        name: "trace",
        about: "trace baseline runs into a trace set, or one run (--run) into a timeline",
        flags: "platform workload model mitigation smt runs seed out boost run binary",
        run: cmd_trace,
    },
    Command {
        name: "generate",
        about: "generate an injection config from a trace set",
        flags: "traces out merge",
        run: cmd_generate,
    },
    Command {
        name: "inject",
        about: "replay an injection config against a baseline",
        flags: "platform workload model mitigation smt runs seed config",
        run: cmd_inject,
    },
    Command {
        name: "analyze",
        about: "summarize a trace set",
        flags: "traces top",
        run: cmd_analyze,
    },
    Command {
        name: "report",
        about: "print a paper table, figure or ablation",
        flags: "what scale",
        run: cmd_report,
    },
    Command {
        name: "campaign",
        about: "sweep every model x mitigation cell, single-process or sharded (--workers)",
        flags: "platform workload runs seed checkpoint resume verify-resume limit crash-prob crash-window-ms fault-seed retries dvfs workers queue shard-size heartbeat-secs shard-timeout-secs max-shard-crashes max-respawns chaos-kills",
        run: cmd_campaign,
    },
    // Hidden: spawned by `campaign --workers N`, not user-facing.
    Command {
        name: "campaign-worker",
        about: "one sharded-campaign worker process (spawned by the supervisor)",
        flags: "queue id",
        run: cmd_campaign_worker,
    },
    Command {
        name: "metrics",
        about: "aggregate telemetry metrics over runs, or of a campaign checkpoint",
        flags: "platform workload model mitigation smt runs seed tracing json profile overhead reps checkpoint",
        run: cmd_metrics,
    },
    Command {
        name: "advise",
        about: "diagnose measurement quality from checkpoints, traces and bench history",
        flags: "checkpoint traces check bench-hotpath bench-telemetry json markdown cv-threshold alpha resamples advise-seed",
        run: cmd_advise,
    },
    Command {
        name: "audit",
        about: "check the determinism contract (static taint pass, dual run)",
        flags: "static dual-run json root sarif fail-on-stale-allow platform workload model mitigation smt seed perturb cadence",
        run: cmd_audit,
    },
    Command {
        name: "conform",
        about: "run the scheduler conformance suite, or replay one case",
        flags: "fuzz seed corpus json mutate replay",
        run: cmd_conform,
    },
];

impl Command {
    fn help(&self) -> String {
        let mut out = format!(
            "noiselab {}: {}\nusage: noiselab {} [--flag value ...]\nflags:\n",
            self.name, self.about, self.name
        );
        for f in self.flags.split_whitespace() {
            out += &format!("  --{f}\n");
        }
        out
    }

    /// `Ok` when this command reads every flag in `args`; otherwise an
    /// error naming the (alphabetically) first flag it does not read.
    fn check_flags(&self, args: &Args) -> Result<(), String> {
        let unknown = args
            .opts
            .keys()
            .filter(|k| !self.flags.split_whitespace().any(|f| f == k.as_str()))
            .min();
        match unknown {
            Some(k) => Err(format!(
                "unknown flag --{k} for '{}' (see noiselab {} --help)",
                self.name, self.name
            )),
            None => Ok(()),
        }
    }
}

fn parse_args() -> Option<Args> {
    let mut it = std::env::args().skip(1).peekable();
    let cmd = it.next()?;
    let mut opts = HashMap::new();
    while let Some(key) = it.next() {
        let key = key.strip_prefix("--")?.to_string();
        // A flag followed by another flag (or the end of the line) is a
        // bare boolean: `--static --json` means static=true json=true.
        let value = match it.peek() {
            Some(next) if !next.starts_with("--") => it.next()?,
            _ => "true".to_string(),
        };
        opts.insert(key, value);
    }
    Some(Args { cmd, opts })
}

impl Args {
    /// The value of `--key` read by `parse`, or `None` when the flag is
    /// absent. A value `parse` rejects is an error naming the flag and
    /// the value, never a silent fallback to the default.
    fn value<T>(&self, key: &str, parse: impl Fn(&str) -> Option<T>) -> Result<Option<T>, String> {
        match self.opts.get(key) {
            None => Ok(None),
            Some(v) => parse(v)
                .map(Some)
                .ok_or_else(|| format!("invalid value {v:?} for --{key}")),
        }
    }

    /// `--key` parsed as a number, or `default` when absent.
    fn num<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, String> {
        Ok(self.value(key, |v| v.parse().ok())?.unwrap_or(default))
    }

    /// A boolean flag: `--key`, `--key true` or `--key false`.
    fn flag(&self, key: &str, default: bool) -> Result<bool, String> {
        let parse = |v: &str| match v {
            "true" => Some(true),
            "false" => Some(false),
            _ => None,
        };
        Ok(self.value(key, parse)?.unwrap_or(default))
    }

    fn get(&self, key: &str, default: &str) -> String {
        self.opts
            .get(key)
            .cloned()
            .unwrap_or_else(|| default.to_string())
    }

    fn required(&self, key: &str) -> Result<String, String> {
        self.opts
            .get(key)
            .cloned()
            .ok_or_else(|| format!("missing required --{key}"))
    }

    /// Platform/workload names resolve through the same tables the
    /// sharded campaign workers use, so `--workers N` and the
    /// single-process path can never disagree on what a name means.
    fn platform(&self) -> Result<Platform, String> {
        let name = self.get("platform", "intel");
        Platform::by_name(&name)
            .ok_or_else(|| format!("unknown platform '{name}' ({})", Platform::NAMES.join("|")))
    }

    fn workload(&self, platform: &Platform) -> Result<Box<dyn Workload + Sync>, String> {
        let name = self.get("workload", "nbody");
        suite::workload_by_name(platform, &name).ok_or_else(|| {
            format!(
                "unknown workload '{name}' ({})",
                suite::WORKLOAD_NAMES.join("|")
            )
        })
    }

    fn exec_config(&self) -> Result<ExecConfig, String> {
        let model = match self.get("model", "omp").as_str() {
            "omp" => Model::Omp,
            "sycl" => Model::Sycl,
            other => return Err(format!("unknown model '{other}' (omp|sycl)")),
        };
        let mitigation = match self.get("mitigation", "Rm").as_str() {
            "Rm" => Mitigation::Rm,
            "RmHK" => Mitigation::RmHK,
            "RmHK2" => Mitigation::RmHK2,
            "TP" => Mitigation::Tp,
            "TPHK" => Mitigation::TpHK,
            "TPHK2" => Mitigation::TpHK2,
            other => {
                return Err(format!(
                    "unknown mitigation '{other}' (Rm|RmHK|RmHK2|TP|TPHK|TPHK2)"
                ))
            }
        };
        let smt = self.value("smt", |v| match v {
            "on" => Some(true),
            "off" => Some(false),
            _ => None,
        })?;
        let mut cfg = ExecConfig::new(model, mitigation);
        if smt == Some(true) {
            cfg = cfg.with_smt();
        }
        Ok(cfg)
    }

    fn runs(&self, default: usize) -> Result<usize, String> {
        self.num("runs", default)
    }

    fn seed(&self) -> Result<u64, String> {
        self.num("seed", 1)
    }

    fn scale(&self) -> Result<Scale, String> {
        let scale = self.value("scale", |v| match v {
            "smoke" => Some(Scale::smoke()),
            "bench" => Some(Scale::bench()),
            "paper" => Some(Scale::paper()),
            _ => None,
        })?;
        Ok(scale.unwrap_or_else(Scale::bench))
    }
}

fn cmd_baseline(args: &Args) -> Result<(), String> {
    let platform = args.platform()?;
    let workload = args.workload(&platform)?;
    let cfg = args.exec_config()?;
    let runs = args.runs(40)?;
    let seed = args.seed()?;
    let base = run_baseline(&platform, workload.as_ref(), &cfg, runs, seed, false);
    println!(
        "{} {} {}: {} runs, mean {:.4}s, sd {:.2}ms, min {:.4}s, max {:.4}s, p99 {:.4}s",
        platform.label(),
        workload.name(),
        cfg.label(),
        runs,
        base.summary.mean,
        base.summary.sd * 1e3,
        base.summary.min,
        base.summary.max,
        base.summary.p99
    );
    Ok(())
}

/// `trace --run <seed>`: run one seed with the telemetry recorder and
/// export a Perfetto-loadable Chrome trace (and optionally the compact
/// NLTB binary timeline).
fn cmd_trace_timeline(args: &Args, run_seed: u64) -> Result<(), String> {
    use noiselab::core::{run_once_instrumented, Observe};
    use noiselab::kernel::KernelConfig;
    use noiselab::telemetry::{chrome_trace, encode, TelemetryConfig};

    let platform = args.platform()?;
    let workload = args.workload(&platform)?;
    let cfg = args.exec_config()?;
    let out = args.required("out")?;
    let run = run_once_instrumented(
        &platform,
        workload.as_ref(),
        &cfg,
        &KernelConfig::default(),
        run_seed,
        false,
        None,
        None,
        Observe::telemetry(TelemetryConfig::default()),
    )
    .map_err(|e| format!("run failed: {e}"))?;
    let report = run.telemetry.expect("telemetry was attached");
    let label = format!(
        "{} {} {} seed {}",
        platform.label(),
        workload.name(),
        cfg.label(),
        run_seed
    );
    std::fs::write(&out, chrome_trace(&report, &label)).map_err(|e| e.to_string())?;
    if let Some(bin) = args.opts.get("binary") {
        std::fs::write(bin, encode(&report)).map_err(|e| e.to_string())?;
    }
    println!(
        "{label}: exec {:.4}s, {} spans, {} instants on {} cpus ({} dropped) -> {} \
         (load in ui.perfetto.dev)",
        run.output.exec.as_secs_f64(),
        report.spans.len(),
        report.instants.len(),
        report.n_cpus,
        report.dropped,
        out
    );
    Ok(())
}

fn cmd_trace(args: &Args) -> Result<(), String> {
    // `--run <seed>` switches to single-run timeline export; without it
    // this is the legacy TraceSet pipeline stage `generate` consumes.
    if let Some(seed) = args.value("run", |v| v.parse().ok())? {
        return cmd_trace_timeline(args, seed);
    }
    let mut platform = args.platform()?;
    let boost: f64 = args.num("boost", 1.0)?;
    platform.noise.anomaly_prob = (platform.noise.anomaly_prob * boost).min(0.5);
    let workload = args.workload(&platform)?;
    let cfg = args.exec_config()?;
    let out = args.required("out")?;
    let runs = args.runs(40)?;
    let base = run_baseline(&platform, workload.as_ref(), &cfg, runs, args.seed()?, true);
    let json = serde_json::to_string(&base.traces).map_err(|e| e.to_string())?;
    std::fs::write(&out, json).map_err(|e| e.to_string())?;
    println!(
        "traced {} runs (mean {:.4}s, worst {:.4}s, {} anomalous) -> {}",
        runs,
        base.summary.mean,
        base.summary.max,
        base.anomaly_runs.len(),
        out
    );
    Ok(())
}

fn cmd_generate(args: &Args) -> Result<(), String> {
    let traces_path = args.required("traces")?;
    let out = args.required("out")?;
    let merge = args.value("merge", |v| match v {
        "improved" => Some(MergeStrategy::Improved),
        "naive" => Some(MergeStrategy::NaivePessimistic),
        _ => None,
    })?;
    let data = std::fs::read_to_string(&traces_path).map_err(|e| e.to_string())?;
    let traces: TraceSet = serde_json::from_str(&data).map_err(|e| e.to_string())?;
    let opts = GeneratorOptions {
        merge: merge.unwrap_or(MergeStrategy::Improved),
        ..GeneratorOptions::default()
    };
    let config =
        generate(traces_path.clone(), &traces, &opts).ok_or("trace set is empty".to_string())?;
    let json = config.to_json().map_err(|e| e.to_string())?;
    std::fs::write(&out, json).map_err(|e| e.to_string())?;
    println!(
        "config: {} events on {} cpus, total noise {:.2}ms, {:.0}% FIFO, anomaly {:.4}s -> {}",
        config.event_count(),
        config.lists.len(),
        config.total_noise().as_millis_f64(),
        config.fifo_fraction() * 100.0,
        config.anomaly_exec.as_secs_f64(),
        out
    );
    Ok(())
}

fn cmd_inject(args: &Args) -> Result<(), String> {
    let platform = args.platform()?;
    let workload = args.workload(&platform)?;
    let cfg = args.exec_config()?;
    let config_path = args.required("config")?;
    let runs = args.runs(20)?;
    let seed = args.seed()?;
    let data = std::fs::read_to_string(&config_path).map_err(|e| e.to_string())?;
    let config = InjectionConfig::from_json(&data).map_err(|e| e.to_string())?;
    let base = run_baseline(
        &platform,
        workload.as_ref(),
        &cfg,
        runs,
        seed + 10_000,
        false,
    );
    let inj = run_injected(&platform, workload.as_ref(), &cfg, &config, runs, seed);
    println!(
        "{} {} {}: baseline {:.4}s -> injected {:.4}s ({:+.1}%), accuracy {:+.1}%",
        platform.label(),
        workload.name(),
        cfg.label(),
        base.summary.mean,
        inj.summary.mean,
        (inj.summary.mean / base.summary.mean - 1.0) * 100.0,
        (inj.summary.mean / config.anomaly_exec.as_secs_f64() - 1.0) * 100.0
    );
    for (seed, cause) in base.failures.iter().chain(&inj.failures) {
        println!("  failed run: seed {seed}: {cause}");
    }
    Ok(())
}

fn cmd_report(args: &Args) -> Result<(), String> {
    let scale = args.scale()?;
    match args.get("what", "table1").as_str() {
        "table1" => print!("{}", table1::run(scale).render()),
        "table2" => print!("{}", table2::run(scale).render()),
        "fig1" => print!("{}", fig1::run(scale, false).render()),
        "fig2" => print!("{}", fig2::run(scale, false).render()),
        "merge" => print!("{}", ablation::merge_ablation(scale, false).render()),
        "memory" => print!("{}", ablation::memory_noise_ablation(scale, false).render()),
        "runlevel3" => print!("{}", runlevel::run(scale, false).render()),
        "numa" => print!("{}", numa::run(scale.baseline_runs, false).render()),
        other => {
            return Err(format!(
                "unknown report '{other}' (table1|table2|fig1|fig2|merge|memory|runlevel3|numa; \
                 tables 3-7 via cargo bench)"
            ))
        }
    }
    Ok(())
}

/// The model x mitigation sweep both campaign engines run. With
/// `dvfs`, the grid also grows the frequency mitigation matrix —
/// pinned and roaming cells under every governor — so `advise` can
/// rank governors and re-ask the placement question under a shared
/// turbo budget and thermal throttling.
fn campaign_cells(dvfs: bool) -> Vec<(String, ExecConfig)> {
    let mut cells: Vec<(String, ExecConfig)> = Mitigation::ALL
        .iter()
        .flat_map(|&mit| {
            [Model::Omp, Model::Sycl].map(|model| {
                let cfg = ExecConfig::new(model, mit);
                (cfg.label(), cfg)
            })
        })
        .collect();
    if dvfs {
        for mit in [Mitigation::Rm, Mitigation::Tp] {
            for g in noiselab::machine::Governor::ALL {
                let cfg = ExecConfig::new(Model::Omp, mit).with_governor(g);
                cells.push((cfg.label(), cfg));
            }
        }
    }
    cells
}

/// The optional deterministic fault plan shared by both engines:
/// `--crash-prob p` with `--crash-window-ms w` and `--fault-seed s`.
fn campaign_faults(args: &Args) -> Result<Option<noiselab::kernel::FaultPlan>, String> {
    let crash_prob: f64 = args.num("crash-prob", 0.0)?;
    let fault_seed: u64 = args.num("fault-seed", 1)?;
    let window_ms: u64 = args.num("crash-window-ms", 2)?;
    Ok((crash_prob > 0.0)
        .then(|| noiselab::kernel::FaultPlan::crashy(fault_seed, crash_prob, window_ms)))
}

fn cmd_campaign(args: &Args) -> Result<(), String> {
    use noiselab::core::campaign::{render_campaign_report, run_campaign, CampaignPlan};
    use noiselab::core::RetryPolicy;

    // `--workers N` switches to the sharded multi-process engine.
    if args.opts.contains_key("workers") {
        return cmd_campaign_sharded(args);
    }

    let platform = args.platform()?;
    let workload = args.workload(&platform)?;
    let runs = args.runs(20)?;
    let checkpoint = args.opts.get("checkpoint").map(std::path::PathBuf::from);
    let resume = args.flag("resume", false)?;
    if resume && checkpoint.is_none() {
        return Err("--resume true requires --checkpoint <path>".into());
    }
    if !resume {
        // A fresh campaign must not silently continue an old one.
        if let Some(p) = &checkpoint {
            if p.exists() {
                return Err(format!(
                    "checkpoint {} already exists; pass --resume true to continue it \
                     or delete it to start over",
                    p.display()
                ));
            }
        }
    }

    let faults = campaign_faults(args)?;
    let retry = RetryPolicy::retries(args.num("retries", 0)?);
    let cells = campaign_cells(args.flag("dvfs", false)?);
    let n_cells = cells.len();

    let plan = CampaignPlan {
        platform: &platform,
        workload: workload.as_ref(),
        cells,
        runs_per_cell: runs,
        seed_base: args.seed()?,
        faults,
        retry,
        checkpoint,
        limit: args.value("limit", |v| v.parse().ok())?,
        verify_resume: args.flag("verify-resume", true)?,
    };
    let state = run_campaign(&plan).map_err(|e| e.to_string())?;
    print!("{}", render_campaign_report(&state.report(n_cells)));
    for cell in &state.cells {
        for f in &cell.failures {
            println!(
                "  {}: failed run seed {}: {}",
                cell.key.label, f.seed, f.cause
            );
        }
    }
    Ok(())
}

/// `campaign --workers N`: the sharded multi-process engine. The cell
/// space is partitioned into shards on an on-disk work queue
/// (`--queue DIR`), N worker processes (this same binary, re-invoked
/// with the hidden `campaign-worker` subcommand) claim and execute
/// them under lease files, and the supervisor merges the verified
/// shard ledgers into a state bit-identical to `campaign` without
/// `--workers`. Re-running the same command against the same queue
/// resumes; shards that repeatedly kill workers are quarantined and
/// reported by name instead of aborting the campaign.
fn cmd_campaign_sharded(args: &Args) -> Result<(), String> {
    use noiselab::campaignd::{
        run_supervised, CampaignSpec, CellSpec, SupervisorConfig, WorkQueue,
    };
    use noiselab::core::campaign::render_campaign_report;
    use noiselab::core::RetryPolicy;
    use std::time::Duration;

    let workers: usize = args.num("workers", 4)?;
    let spec = CampaignSpec {
        platform: args.get("platform", "intel"),
        workload: args.get("workload", "nbody"),
        cells: campaign_cells(args.flag("dvfs", false)?)
            .into_iter()
            .map(|(label, config)| CellSpec { label, config })
            .collect(),
        runs_per_cell: args.runs(20)?,
        seed_base: args.seed()?,
        faults: campaign_faults(args)?,
        retry: RetryPolicy::retries(args.num("retries", 0)?),
    };
    spec.resolve().map_err(|e| e.to_string())?;
    let n_cells = spec.cells.len();

    let queue_root = std::path::PathBuf::from(args.get("queue", "campaign.queue"));
    let shard_size: usize = args.num("shard-size", 2)?;
    let secs = |key: &str, default: u64| args.num(key, default).map(Duration::from_secs);
    let cfg = SupervisorConfig {
        workers,
        heartbeat_timeout: secs("heartbeat-secs", 120)?,
        shard_timeout: secs("shard-timeout-secs", 3600)?,
        max_shard_crashes: args.num("max-shard-crashes", 3)?,
        max_respawns_per_slot: args.num("max-respawns", 16)?,
        chaos_kills: args.num("chaos-kills", 0)?,
        ..SupervisorConfig::default()
    };
    let (_queue, manifest) =
        WorkQueue::init(&queue_root, &spec, shard_size).map_err(|e| e.to_string())?;
    eprintln!(
        "noiselab: sharded campaign: {} cell(s) in {} shard(s), {workers} worker(s), queue {}",
        n_cells,
        manifest.shards.len(),
        queue_root.display()
    );

    let binary = std::env::current_exe().map_err(|e| format!("cannot find own binary: {e}"))?;
    let report = run_supervised(&binary, &queue_root, &cfg)?;

    print!("{}", render_campaign_report(&report.state.report(n_cells)));
    for cell in &report.state.cells {
        for f in &cell.failures {
            println!(
                "  {}: failed run seed {}: {}",
                cell.key.label, f.seed, f.cause
            );
        }
    }
    println!(
        "merged ledger hash {:016x} ({} worker(s) spawned, {} crash(es), \
         {} chaos kill(s), {} timeout(s), {} shard(s) quarantined)",
        report.state_hash,
        report.spawned,
        report.crashes,
        report.chaos_kills,
        report.timeouts,
        report.quarantined_shards.len()
    );
    if let Some(path) = args.opts.get("checkpoint") {
        let path = std::path::Path::new(path);
        // Fold the supervisor health record in only at save time, after
        // the deterministic merge: the merged ledger (and its
        // state_hash) stays bit-identical to the single-process path,
        // while the checkpoint carries the campaignd.* counters for
        // `noiselab metrics --checkpoint` and `noiselab advise`.
        let mut state = report.state.clone();
        state.supervisor = report.health_metrics();
        state.save(path).map_err(|e| e.to_string())?;
        eprintln!("noiselab: merged state saved to {}", path.display());
    }
    Ok(())
}

/// Hidden subcommand: one sharded-campaign worker process. Spawned by
/// the supervisor, never by hand; claims shards from `--queue` until
/// the queue is drained, streaming progress frames on stdout.
fn cmd_campaign_worker(args: &Args) -> Result<(), String> {
    use noiselab::campaignd::{worker_main, WorkerConfig};
    let queue = std::path::PathBuf::from(args.required("queue")?);
    let worker_id = args.get("id", &format!("pid{}", std::process::id()));
    worker_main(&WorkerConfig { queue, worker_id })
}

/// `metrics`: aggregate the telemetry metrics registry over a few runs
/// (counters summed, histograms merged, gauges averaged), optionally
/// with the host-time phase profile or the full observation-overhead
/// report.
fn cmd_metrics(args: &Args) -> Result<(), String> {
    use noiselab::core::RetryPolicy;
    use noiselab::core::{measure_overhead, run_many_instrumented, run_once_instrumented, Observe};
    use noiselab::kernel::KernelConfig;
    use noiselab::telemetry::{MetricsSnapshot, PhaseProfiler, TelemetryConfig};

    // `--checkpoint <path>` is a read-only mode: render the merged
    // per-cell metrics and the supervisor health record of a saved
    // campaign checkpoint instead of running anything.
    let json = args.flag("json", false)?;
    if let Some(path) = args.opts.get("checkpoint") {
        return cmd_metrics_checkpoint(std::path::Path::new(path), json);
    }

    let platform = args.platform()?;
    let workload = args.workload(&platform)?;
    let cfg = args.exec_config()?;
    let seed = args.seed()?;

    if args.flag("overhead", false)? {
        let reps: u32 = args.num("reps", 3)?;
        let report = measure_overhead(&platform, workload.as_ref(), &cfg, seed, reps)
            .map_err(|e| format!("run failed: {e}"))?;
        if json {
            println!(
                "{}",
                serde_json::to_string_pretty(&report).map_err(|e| e.to_string())?
            );
        } else {
            print!("{}", report.render());
        }
        return Ok(());
    }

    let runs = args.runs(5)?;
    let tracing = args.flag("tracing", false)?;
    let profile = args.flag("profile", false)?;
    let ledger = run_many_instrumented(
        &platform,
        workload.as_ref(),
        &cfg,
        runs,
        seed,
        tracing,
        None,
        None,
        RetryPolicy::none(),
        Some(TelemetryConfig::metrics_only()),
    );
    let mut merged = MetricsSnapshot::default();
    for out in ledger.outputs() {
        if let Some(m) = &out.metrics {
            merged.merge(m);
        }
    }
    if merged.runs == 0 {
        return Err(format!("all {runs} runs failed: {:?}", ledger.failures()));
    }

    let profile = if profile {
        let profiler = PhaseProfiler::new();
        run_once_instrumented(
            &platform,
            workload.as_ref(),
            &cfg,
            &KernelConfig::default(),
            seed,
            tracing,
            None,
            None,
            Observe {
                telemetry: Some(TelemetryConfig::metrics_only()),
                profiler: Some(profiler.clone()),
                ..Observe::default()
            },
        )
        .map_err(|e| format!("profiled run failed: {e}"))?;
        Some(profiler.report())
    } else {
        None
    };

    if json {
        use serde::Serialize as _;
        let mut doc = vec![("metrics".to_string(), merged.to_value())];
        if let Some(p) = &profile {
            doc.push(("profile".to_string(), p.to_value()));
        }
        println!("{}", serde::write_json(&serde::Value::Object(doc), true));
    } else {
        println!(
            "{} {} {}: {} run(s)",
            platform.label(),
            workload.name(),
            cfg.label(),
            merged.runs
        );
        print!("{}", merged.render());
        if let Some(p) = &profile {
            print!("{}", p.render());
        }
    }
    Ok(())
}

/// `advise`: the measurement-quality advisor. Consumes whatever
/// artifacts exist — a campaign checkpoint, trace sets (file or
/// directory of `<cell-label>.json`), and the committed BENCH_*.json
/// history — and emits the ranked diagnosis: smells, blame, bench
/// regression verdicts, and the mitigation recommendation table.
/// `--check` exits nonzero on any critical smell or significant bench
/// regression (the CI gate).
fn cmd_advise(args: &Args) -> Result<(), String> {
    use noiselab::advise::{
        advise, load_hotpath, load_telemetry, load_traces, AdviseConfig, AdviseInputs,
    };
    use noiselab::core::CampaignState;
    use std::path::Path;

    let defaults = AdviseConfig::default();
    let cfg = AdviseConfig {
        cv_threshold: args.num("cv-threshold", defaults.cv_threshold)?,
        alpha: args.num("alpha", defaults.alpha)?,
        resamples: args.num("resamples", defaults.resamples)?,
        seed: args.num("advise-seed", defaults.seed)?,
        ..defaults
    };
    let json = args.flag("json", false)?;
    let check = args.flag("check", false)?;

    let mut inputs = AdviseInputs::default();
    if let Some(p) = args.opts.get("checkpoint") {
        inputs.checkpoint = Some(CampaignState::load(Path::new(p)).map_err(|e| e.to_string())?);
    }
    if let Some(p) = args.opts.get("traces") {
        inputs.traces = load_traces(Path::new(p)).map_err(|e| e.to_string())?;
    }
    // Bench files: an explicit flag must load (a schema mismatch is a
    // hard, clearly-worded refusal); the default path loads only when
    // the file exists.
    let bench_path = |flag: &str, default: &str| -> Option<std::path::PathBuf> {
        match args.opts.get(flag) {
            Some(p) => Some(std::path::PathBuf::from(p)),
            None => {
                let p = std::path::PathBuf::from(default);
                p.exists().then_some(p)
            }
        }
    };
    if let Some(p) = bench_path("bench-hotpath", "BENCH_hotpath.json") {
        let history = load_hotpath(&p).map_err(|e| e.to_string())?;
        inputs.hotpath = Some((p.display().to_string(), history));
    }
    if let Some(p) = bench_path("bench-telemetry", "BENCH_telemetry.json") {
        let telem = load_telemetry(&p).map_err(|e| e.to_string())?;
        inputs.telemetry = Some((p.display().to_string(), telem));
    }
    if inputs.checkpoint.is_none() && inputs.traces.is_empty() && inputs.hotpath.is_none() {
        return Err(
            "nothing to advise on: pass --checkpoint <state.json>, --traces <file|dir>, \
             or --bench-hotpath <BENCH_hotpath.json>"
                .into(),
        );
    }

    let report = advise(&inputs, &cfg);
    let markdown_on_stdout = args.opts.get("markdown").is_some_and(|p| p == "-");
    if let Some(md) = args.opts.get("markdown") {
        if md == "-" {
            println!("{}", report.render_markdown());
        } else {
            std::fs::write(md, report.render_markdown())
                .map_err(|e| format!("advise: write {md}: {e}"))?;
            eprintln!("noiselab: markdown report saved to {md}");
        }
    }
    if json && !markdown_on_stdout {
        println!("{}", report.to_json());
    } else if !markdown_on_stdout {
        print!("{}", report.render_human());
    }
    if check && report.check_failed() {
        return Err("advise --check: measurements are not trustworthy as-is \
             (critical smell or significant bench regression; see report)"
            .into());
    }
    Ok(())
}

/// `metrics --checkpoint <path>`: the merged campaign metrics plus the
/// `campaignd.*` supervisor health counters a sharded run folded into
/// the saved checkpoint.
fn cmd_metrics_checkpoint(path: &std::path::Path, json: bool) -> Result<(), String> {
    use noiselab::campaignd::merged_metrics;
    use noiselab::core::CampaignState;
    use serde::Serialize as _;

    let state = CampaignState::load(path).map_err(|e| e.to_string())?;
    let merged = merged_metrics(&state);
    if json {
        let mut doc = vec![("metrics".to_string(), merged.to_value())];
        if !state.supervisor.counters.is_empty() {
            doc.push(("supervisor".to_string(), state.supervisor.to_value()));
        }
        println!("{}", serde::write_json(&serde::Value::Object(doc), true));
    } else {
        println!(
            "checkpoint {}: {} cell(s), {} quarantined",
            path.display(),
            state.cells.len(),
            state.quarantined.len()
        );
        print!("{}", merged.render());
        if !state.supervisor.counters.is_empty() {
            println!("supervisor health:");
            print!("{}", state.supervisor.render());
        }
    }
    Ok(())
}

fn cmd_audit(args: &Args) -> Result<(), String> {
    use noiselab::audit::audit_workspace;
    use noiselab::core::divergence::{dual_run_harness, DualRunOutcome, DEFAULT_CADENCE};

    let json = args.flag("json", false)?;
    let want_static = args.flag("static", false)?;
    let want_dual = args.flag("dual-run", false)?;
    // Bare `noiselab audit` runs the static pass.
    let want_static = want_static || !want_dual;
    let fail_stale = args.flag("fail-on-stale-allow", false)?;
    // Read the dual-run flags before the static pass prints anything.
    let seed = args.seed()?;
    let perturb = args.value("perturb", |v| v.parse().ok())?;
    let cadence = args.num("cadence", DEFAULT_CADENCE)?;

    if want_static {
        let root = std::path::PathBuf::from(args.get("root", "."));
        let started = std::time::Instant::now();
        let report = audit_workspace(&root).map_err(|e| format!("audit: {e}"))?;
        let elapsed = started.elapsed();
        if let Some(sarif) = args.opts.get("sarif") {
            if sarif == "-" {
                println!("{}", report.render_sarif());
            } else {
                std::fs::write(sarif, report.render_sarif())
                    .map_err(|e| format!("audit: write {sarif}: {e}"))?;
            }
        }
        // `--sarif -` owns stdout; keep it parseable and move the
        // human summary to stderr.
        let sarif_on_stdout = args.opts.get("sarif").is_some_and(|s| s == "-");
        if json && !sarif_on_stdout {
            println!("{}", report.render_json());
        } else if !sarif_on_stdout {
            print!("{}", report.render_human());
            eprintln!("audit: static pass took {:.3}s", elapsed.as_secs_f64());
        } else {
            eprint!("{}", report.render_human());
            eprintln!("audit: static pass took {:.3}s", elapsed.as_secs_f64());
        }
        if !report.clean() {
            return Err(format!(
                "audit: {} unannotated determinism violation(s)",
                report.violations.len()
            ));
        }
        if fail_stale && !report.stale_allows.is_empty() {
            return Err(format!(
                "audit: {} stale audit:allow annotation(s)",
                report.stale_allows.len()
            ));
        }
    }

    if want_dual {
        let platform = args.platform()?;
        let workload = args.workload(&platform)?;
        let cfg = args.exec_config()?;
        let outcome = dual_run_harness(&platform, workload.as_ref(), &cfg, seed, perturb, cadence)?;
        match outcome {
            DualRunOutcome::Identical { events, hash } => {
                if json {
                    println!(
                        "{{\"dual_run\": \"identical\", \"events\": {events}, \
                         \"hash\": \"{hash:016x}\"}}"
                    );
                } else {
                    println!("dual run identical: {events} events, stream hash {hash:016x}");
                }
            }
            DualRunOutcome::Diverged(report) => {
                if json {
                    println!(
                        "{{\"dual_run\": \"diverged\", \"hash_a\": \"{:016x}\", \
                         \"hash_b\": \"{:016x}\", \"events_a\": {}, \"events_b\": {}, \
                         \"first_index\": {}, \"first_a\": {:?}, \"first_b\": {:?}}}",
                        report.hash_a,
                        report.hash_b,
                        report.events_a,
                        report.events_b,
                        report.first_a.index,
                        report.first_a.digest,
                        report.first_b.digest,
                    );
                } else {
                    println!("{}", report.render());
                }
                return Err("audit: dual run diverged".into());
            }
        }
    }
    Ok(())
}

/// Campaign seeds read naturally in either base: `--seed 0xC0DE` or
/// `--seed 49374`.
fn parse_seed(s: &str) -> Option<u64> {
    match s.strip_prefix("0x") {
        Some(hex) => u64::from_str_radix(hex, 16).ok(),
        None => s.parse().ok(),
    }
}

/// `conform`: drive the scheduler conformance suite — either a fuzz
/// campaign (oracle + invariants over generated scenarios, shrunk
/// repros on failure) or a single-case replay of a shrunk repro.
fn cmd_conform(args: &Args) -> Result<(), String> {
    use noiselab::conform::{
        check_scenario, fuzz, render_json, render_text, FuzzConfig, Mutation, Scenario,
        REPRO_MARKER,
    };

    let json = args.flag("json", false)?;
    let mutation = match args.opts.get("mutate") {
        None => None,
        Some(name) => Some(Mutation::from_name(name).ok_or_else(|| {
            format!(
                "unknown mutation '{name}' ({})",
                Mutation::ALL.map(|m| m.name()).join("|")
            )
        })?),
    };

    if let Some(case) = args.opts.get("replay") {
        // Accept a corpus case file (scenario JSON), a file holding a
        // `// conform:repro` line, or the repro line pasted directly.
        let text = match std::fs::read_to_string(case) {
            Ok(contents) => contents,
            Err(_) if case.contains(REPRO_MARKER) || case.trim_start().starts_with('{') => {
                case.clone()
            }
            Err(e) => return Err(format!("cannot read replay case {case}: {e}")),
        };
        let sc: Scenario = if text.contains(REPRO_MARKER) {
            let line = text
                .lines()
                .find(|l| l.contains(REPRO_MARKER))
                .expect("marker present");
            Scenario::from_repro_line(line)?
        } else {
            serde_json::from_str(text.trim()).map_err(|e| format!("bad scenario JSON: {e}"))?
        };
        match check_scenario(&sc, mutation) {
            None => {
                if json {
                    println!("{{\"replay\": \"pass\"}}");
                } else {
                    println!("replay PASS: oracle and invariants agree");
                    println!("  {}", sc.repro_line());
                }
                Ok(())
            }
            Some(v) => {
                if json {
                    println!(
                        "{{\"replay\": \"fail\", \"violation\": {}}}",
                        serde::write_json(&serde::Value::Str(v.to_string()), false)
                    );
                } else {
                    println!("replay FAIL: {v}");
                    println!("  {}", sc.repro_line());
                }
                Err("conformance replay failed".into())
            }
        }
    } else {
        let iterations: u64 = args.num("fuzz", 500)?;
        let cfg = FuzzConfig {
            iterations,
            seed: args.value("seed", parse_seed)?.unwrap_or(0xC0DE),
            corpus_dir: args.opts.get("corpus").map(std::path::PathBuf::from),
            mutation,
            ..FuzzConfig::default()
        };
        let report = fuzz(&cfg);
        if json {
            println!("{}", render_json(&report));
        } else {
            print!("{}", render_text(&report));
        }
        match (report.ok(), mutation) {
            // A clean campaign must pass; a mutated campaign must fail,
            // proving the suite detects the seeded scheduler bug.
            (true, None) => Ok(()),
            (false, None) => Err(format!(
                "conformance campaign failed with {} violation(s)",
                report.failures.len()
            )),
            (false, Some(m)) => {
                if !json {
                    println!(
                        "mutation '{}' detected as intended ({} failure(s) shrunk)",
                        m.name(),
                        report.failures.len()
                    );
                }
                Ok(())
            }
            (true, Some(m)) => Err(format!(
                "mutation '{}' went UNDETECTED across {iterations} scenarios",
                m.name()
            )),
        }
    }
}

fn cmd_analyze(args: &Args) -> Result<(), String> {
    let traces_path = args.required("traces")?;
    let data = std::fs::read_to_string(&traces_path).map_err(|e| e.to_string())?;
    let traces: TraceSet = serde_json::from_str(&data).map_err(|e| e.to_string())?;
    let top_k: usize = args.num("top", 10)?;
    let summary = noiselab::noise::analysis::summarize_set(&traces, top_k)
        .ok_or("trace set is empty".to_string())?;
    print!(
        "{}",
        noiselab::noise::analysis::render_set_summary(&summary)
    );
    let worst = &traces.runs[summary.worst_index];
    let ws = noiselab::noise::analysis::summarize_run(worst);
    let [irq, softirq, thread] = ws.by_class;
    println!(
        "worst run: {} events; irq {:.3}ms, softirq {:.3}ms, thread {:.3}ms; \
         busiest cpu {:?}; outlier: {}",
        ws.events,
        irq.as_millis_f64(),
        softirq.as_millis_f64(),
        thread.as_millis_f64(),
        ws.busiest_cpu
            .map(|(c, d)| format!("cpu{c} ({:.3}ms)", d.as_millis_f64())),
        noiselab::noise::analysis::is_outlier(worst, &traces)
    );
    Ok(())
}

fn usage() {
    eprintln!(
        "noiselab <baseline|trace|generate|inject|analyze|report|campaign|metrics|advise|audit|conform> \
         [--key value ...]\n\
         see the module docs (src/bin/noiselab.rs) for the full flag list"
    );
}

fn main() -> ExitCode {
    let Some(args) = parse_args() else {
        usage();
        return ExitCode::FAILURE;
    };
    let Some(cmd) = COMMANDS.iter().find(|c| c.name == args.cmd) else {
        usage();
        return ExitCode::FAILURE;
    };
    if args.opts.contains_key("help") {
        print!("{}", cmd.help());
        return ExitCode::SUCCESS;
    }
    match cmd.check_flags(&args).and_then(|()| (cmd.run)(&args)) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
