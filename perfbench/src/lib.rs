//! Host-time benchmark of the noiselab pipeline.
//!
//! Three workloads, each run in one process on one host thread:
//! `table3-nbody` and `table4-babelstream` run the paper-table pipeline
//! (traced baseline → config generation → untraced baseline → injected
//! reruns) at smoke scale, and `campaign-resume` runs a checkpointed
//! campaign that is stopped half way and resumed. Untraced passes give
//! the end-to-end metrics; traced passes time each layer from outside
//! (see [`trace`]) and read the program's deterministic counters.
//! Every pass is checked against a reference result and against the
//! previous passes; any mismatch counts the pass's runs as failed.

pub mod alloc;
pub mod campaign;
pub mod host;
pub mod tables;
pub mod trace;

use campaign::{CampaignBench, CampaignOutput};
use noiselab_core::experiments::inject::{table3_spec, table4_spec};
use noiselab_core::experiments::Scale;
use noiselab_stats::median;
use noiselab_telemetry::wall_clock;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use tables::{TableBench, TableOutput};
use trace::Tracer;

pub const WORKLOADS: [&str; 3] = ["table3-nbody", "table4-babelstream", "campaign-resume"];

/// Distance between the simulation seeds of two workload seeds: larger
/// than the span of seeds one `run_table` or one campaign uses, so
/// different workload seeds share no run.
pub const SEED_STRIDE: u64 = 1_000_000;

/// Runs of each campaign cell.
const CAMPAIGN_RUNS_PER_CELL: usize = 100;

/// Groups of timed set-ups per untraced invocation, spread over the
/// measuring window; `setup_s` is the median of all their set-ups.
const SETUP_GROUPS: usize = 4;

/// Timed set-ups per group. Each group starts with one untimed set-up,
/// so that every timed one follows an identical set-up and not a pass:
/// set-ups straight after a pass run 15–60 % slower.
const SETUP_GROUP_SIZE: usize = 3;

/// Fewest timed passes per invocation, however long they take.
const MIN_PASSES: usize = 3;

/// The program's own telemetry counters among a pass's exact counters.
const SIM_COUNTERS: [&str; 7] = [
    "kernel.events",
    "sched.context_switches",
    "sched.preemptions",
    "sched.migrations",
    "irq.timer",
    "irq.device",
    "irq.softirq",
];

/// A set-up workload, ready for timed passes.
// One `Bench` lives per process, so the size of its largest variant
// costs nothing.
#[allow(clippy::large_enum_variant)]
pub enum Bench {
    Table(TableBench),
    Campaign(CampaignBench),
}

/// What one pass computed; two passes of one bench must be equal.
#[derive(Debug, Clone, PartialEq)]
pub enum Output {
    Table(TableOutput),
    Campaign(CampaignOutput),
}

impl Output {
    pub fn runs(&self) -> u64 {
        match self {
            Output::Table(o) => o.runs,
            Output::Campaign(o) => o.runs(),
        }
    }

    pub fn failed_runs(&self) -> u64 {
        match self {
            Output::Table(o) => o.failed_runs,
            Output::Campaign(o) => o.failed_runs(),
        }
    }
}

impl Bench {
    /// Build platforms, workloads, plans and the checkpoint directory
    /// `work`, then run the fixed warm-up simulation.
    pub fn setup(workload: &str, seed: u64, work: &Path) -> Result<Bench, String> {
        // Warm-up run counts are sized to 100-130 host ms each, long
        // enough that timer and scheduling jitter do not decide
        // `setup_s`.
        let bench = match workload {
            "table3-nbody" => {
                let b = TableBench::new(table3_spec(), Scale::smoke(), false, seed);
                b.warm_up(40);
                Bench::Table(b)
            }
            "table4-babelstream" => {
                let b = TableBench::new(table4_spec(), Scale::smoke(), true, seed);
                b.warm_up(60);
                Bench::Table(b)
            }
            "campaign-resume" => {
                let b = CampaignBench::new(CAMPAIGN_RUNS_PER_CELL, seed, work.to_path_buf())
                    .map_err(|e| format!("{}: {e}", work.display()))?;
                b.warm_up(2 * CAMPAIGN_RUNS_PER_CELL);
                Bench::Campaign(b)
            }
            other => {
                return Err(format!(
                    "unknown workload {other:?}; expected one of {WORKLOADS:?}"
                ))
            }
        };
        Ok(bench)
    }

    /// One pass and its host seconds. A campaign pass checkpoints into
    /// a fresh directory named after `rep`, made before and removed
    /// after the timed region.
    pub fn pass(&self, rep: usize, tracer: Option<&mut Tracer>) -> Result<(Output, f64), String> {
        match self {
            Bench::Table(b) => {
                let t = wall_clock();
                let out = b.pass(tracer);
                Ok((Output::Table(out), t.elapsed().as_secs_f64()))
            }
            Bench::Campaign(b) => {
                let dir = b.fresh_dir(rep)?;
                let t = wall_clock();
                let out = b.pass(&dir, tracer)?;
                let secs = t.elapsed().as_secs_f64();
                std::fs::remove_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
                Ok((Output::Campaign(out), secs))
            }
        }
    }

    /// Compare a pass with the reference result: `run_table` itself for
    /// the tables at workload seed 0 (at other seeds the pipelines use
    /// different seeds, so only the result's shape is checked), and an
    /// uninterrupted campaign for `campaign-resume` at any seed.
    pub fn check_reference(&self, out: &Output, seed: u64) -> Result<(), String> {
        match (self, out) {
            (Bench::Table(b), Output::Table(o)) => {
                let plausible = o.cells.iter().flatten().all(|&(base, inj)| {
                    base.is_finite() && base > 0.0 && inj.is_finite() && inj > 0.0
                });
                if !plausible || o.configs.is_empty() || o.trace_events == 0 {
                    return Err("table pass produced an empty or non-finite result".into());
                }
                if seed == 0 {
                    b.matches_reference(o, &b.reference())?;
                }
                Ok(())
            }
            (Bench::Campaign(b), Output::Campaign(o)) => {
                let reference = b.reference()?;
                if o.state.cells != reference.cells || o.state.fingerprint != reference.fingerprint
                {
                    return Err("resumed campaign differs from the uninterrupted one".into());
                }
                Ok(())
            }
            _ => Err("output of another workload".into()),
        }
    }

    /// The exact counters of a pass. Kernel counters of a table pass
    /// exist only when it ran traced; a campaign's cells carry theirs.
    pub fn counters(out: &Output, tracer: Option<&Tracer>) -> BTreeMap<&'static str, u64> {
        let metrics = match out {
            Output::Campaign(o) => o.metrics(),
            Output::Table(_) => tracer.map(|t| t.metrics.clone()).unwrap_or_default(),
        };
        let mut c: BTreeMap<_, _> = SIM_COUNTERS
            .iter()
            .map(|&k| (k, metrics.counter(k)))
            .collect();
        let (trace_events, trace_dropped, config_events, retries) = match out {
            Output::Table(o) => (o.trace_events, o.trace_dropped, o.config_events(), 0),
            Output::Campaign(o) => (0, 0, 0, o.retries()),
        };
        c.extend([
            ("noise.trace_events", trace_events),
            ("noise.trace_dropped", trace_dropped),
            ("injector.config_events", config_events),
            (
                "campaign.save_bytes",
                tracer.map_or(0, |t| t.counted("campaign.save_bytes")),
            ),
            ("harness.runs", out.runs()),
            ("harness.failed_runs", out.failed_runs()),
            ("harness.retries", retries),
        ]);
        c
    }

    /// Host seconds of one stage at 1 and at 2 host threads.
    fn thread_probe(&self) -> (f64, f64) {
        let time = |threads: &str| {
            std::env::set_var("NOISELAB_HOST_THREADS", threads);
            let t = wall_clock();
            match self {
                Bench::Table(b) => b.probe_stage(),
                Bench::Campaign(b) => b.probe_stage(),
            }
            t.elapsed().as_secs_f64()
        };
        let two = time("2");
        let one = time("1");
        (one, two)
    }
}

/// Command-line arguments of one invocation.
#[derive(Debug, Clone)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
}

impl Args {
    pub fn parse(argv: &[String]) -> Result<Args, String> {
        let mut opts = BTreeMap::new();
        let mut it = argv.iter();
        while let Some(flag) = it.next() {
            let key = flag
                .strip_prefix("--")
                .ok_or_else(|| format!("unexpected argument {flag:?}"))?;
            let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            opts.insert(key.to_string(), value.clone());
        }
        let get = |k: &str| opts.get(k).ok_or_else(|| format!("missing --{k}"));
        let num = |k: &str| -> Result<u64, String> {
            get(k)?
                .parse()
                .map_err(|_| format!("--{k} wants a whole number"))
        };
        let args = Args {
            workload: get("workload")?.clone(),
            seed: num("seed")?,
            seconds: num("seconds")?,
            trace: match get("trace")?.as_str() {
                "0" => false,
                "1" => true,
                _ => return Err("--trace wants 0 or 1".into()),
            },
        };
        if opts.len() != 4 {
            return Err(format!("unknown options among {:?}", opts.keys()));
        }
        if !WORKLOADS.contains(&args.workload.as_str()) {
            return Err(format!(
                "unknown workload {:?}; expected one of {WORKLOADS:?}",
                args.workload
            ));
        }
        Ok(args)
    }
}

/// One metric of the result line.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// The result of one invocation.
#[derive(Debug, Clone)]
pub struct Report {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
}

impl Report {
    /// The single JSON line the benchmark ends with.
    pub fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name,
                    json_number(m.value),
                    m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// A JSON number with every digit Rust's shortest round-trip format
/// gives; non-finite values (never expected) become 0.
fn json_number(v: f64) -> String {
    if !v.is_finite() {
        return "0".into();
    }
    let s = format!("{v}");
    if s.contains(['.', 'e']) {
        s
    } else {
        format!("{s}.0")
    }
}

/// Per-layer metric names and units, in report order.
pub const PER_LAYER: [(&str, &str); 34] = [
    ("harness.traced_baseline_s", "s"),
    ("harness.baseline_s", "s"),
    ("harness.injected_s", "s"),
    ("harness.runs", "count"),
    ("harness.failed_runs", "count"),
    ("harness.retries", "count"),
    ("kernel.events", "count"),
    ("kernel.ns_per_event", "ns"),
    ("kernel.dispatch_self_s", "s"),
    ("kernel.scheduler_self_s", "s"),
    ("kernel.tracer_self_s", "s"),
    ("harness.stats_self_s", "s"),
    ("sched.context_switches", "count"),
    ("sched.preemptions", "count"),
    ("sched.migrations", "count"),
    ("irq.timer", "count"),
    ("irq.device", "count"),
    ("irq.softirq", "count"),
    ("noise.trace_events", "count"),
    ("noise.trace_dropped", "count"),
    ("noise.trace_mb", "MiB"),
    ("injector.generate_s", "s"),
    ("injector.config_events", "count"),
    ("campaign.cell_s", "s"),
    ("campaign.serialize_s", "s"),
    ("durable.write_atomic_s", "s"),
    ("campaign.save_bytes", "count"),
    ("campaign.load_s", "s"),
    ("campaign.verify_s", "s"),
    ("telemetry.metrics_only_s", "s"),
    ("trace.overhead_pct", "%"),
    ("trace.coverage", "ratio"),
    ("harness.speedup_2t", "ratio"),
    ("host.peak_rss_mb", "MiB"),
];

/// End-to-end metric names and units, in report order.
pub const END_TO_END: [(&str, &str); 5] = [
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("events_per_s", "1/s"),
    ("peak_heap_mb", "MiB"),
    ("success_ratio", "ratio"),
];

/// Per-layer values of one traced pass that vary between passes (host
/// times); the counters are exact and taken from the counter map.
fn layer_times(t: &Tracer, events: u64, wall: f64) -> BTreeMap<&'static str, f64> {
    let kernel_s = t.phase_secs("dispatch") + t.phase_secs("scheduler") + t.phase_secs("tracer");
    let mut m = BTreeMap::new();
    for (name, span) in [
        ("harness.traced_baseline_s", "harness.traced_baseline"),
        ("harness.baseline_s", "harness.baseline"),
        ("harness.injected_s", "harness.injected"),
        ("injector.generate_s", "injector.generate"),
        ("campaign.cell_s", "campaign.cell"),
        ("campaign.serialize_s", "campaign.serialize"),
        ("durable.write_atomic_s", "durable.write_atomic"),
        ("campaign.load_s", "campaign.load"),
        ("campaign.verify_s", "campaign.verify"),
    ] {
        m.insert(name, t.span_secs(span));
    }
    m.insert("kernel.dispatch_self_s", t.phase_secs("dispatch"));
    m.insert("kernel.scheduler_self_s", t.phase_secs("scheduler"));
    m.insert("kernel.tracer_self_s", t.phase_secs("tracer"));
    m.insert("harness.stats_self_s", t.phase_secs("stats"));
    let ns_per_event = if kernel_s > 0.0 && events > 0 {
        kernel_s * 1e9 / events as f64
    } else {
        0.0
    };
    m.insert("kernel.ns_per_event", ns_per_event);
    m.insert("trace.coverage", t.covered_secs() / wall);
    // Not reported itself: the traced side of `trace.overhead_pct`.
    m.insert("trace.wall_s", wall);
    m
}

/// A timed pass and the host conditions it ran under, printed to
/// stderr as one JSON line.
fn sample_line(args: &Args, kind: &str, rep: usize, secs: f64, c: host::Conditions) {
    eprintln!(
        "perfbench sample {{\"workload\": \"{}\", \"seed\": {}, \"kind\": \"{kind}\", \
         \"rep\": {rep}, \"seconds\": {secs}, {}}}",
        args.workload,
        args.seed,
        c.json_fields()
    );
}

fn same_outputs(a: &Output, b: &Output) -> Result<(), String> {
    if a == b {
        Ok(())
    } else {
        Err("outputs differ".into())
    }
}

/// The counters whose values differ between `a` and `b`.
fn same_counters(a: &BTreeMap<&str, u64>, b: &BTreeMap<&str, u64>) -> Result<(), String> {
    let diff: Vec<String> = a
        .iter()
        .filter(|(k, v)| b.get(*k) != Some(v))
        .map(|(k, v)| format!("{k}: {v} vs {:?}", b.get(k)))
        .collect();
    if diff.is_empty() {
        Ok(())
    } else {
        Err(diff.join(", "))
    }
}

/// Run one invocation: set up, measure for `args.seconds`, check.
pub fn run(args: &Args, work_root: &Path) -> Result<Report, String> {
    // One host thread: a second one on a small shared host is the
    // largest source of run-to-run spread.
    std::env::set_var("NOISELAB_HOST_THREADS", "1");
    let work: PathBuf = work_root.join(format!("{}-{}", args.workload, std::process::id()));
    let setup = |work: &Path| Bench::setup(&args.workload, args.seed, work);
    let result = measure(args, &work, setup);
    let _ = std::fs::remove_dir_all(&work);
    // Removes the root only when no other invocation is using it.
    let _ = std::fs::remove_dir(work_root);
    result
}

/// Set up with `setup`, then measure and check `args.workload` for
/// `args.seconds`.
pub fn measure(
    args: &Args,
    work: &Path,
    setup: impl Fn(&Path) -> Result<Bench, String>,
) -> Result<Report, String> {
    // The first set-up is untimed and counts the heap: it gives set-up's
    // share of the heap peak.
    let (bench, setup_heap) = alloc::counted(|| fresh_setup(work, &setup));
    let mut run = Run {
        args,
        work,
        setup: &setup,
        bench: bench?,
        check_failed: false,
        attempted: 0,
        failed: 0,
    };
    let metrics = if args.trace {
        run.traced()?
    } else {
        run.untraced(setup_heap)?
    };
    Ok(Report {
        correct: !run.check_failed,
        attempted: run.attempted,
        failed: run.failed,
        metrics,
    })
}

/// One set-up into an emptied checkpoint directory `work`.
fn fresh_setup(
    work: &Path,
    setup: impl Fn(&Path) -> Result<Bench, String>,
) -> Result<Bench, String> {
    if work.exists() {
        std::fs::remove_dir_all(work).map_err(|e| format!("{}: {e}", work.display()))?;
    }
    setup(work)
}

/// The measuring part of one invocation, with its failed checks and
/// run tallies.
struct Run<'a> {
    args: &'a Args,
    work: &'a Path,
    setup: &'a dyn Fn(&Path) -> Result<Bench, String>,
    bench: Bench,
    check_failed: bool,
    attempted: u64,
    failed: u64,
}

impl Run<'_> {
    /// Record the outcome of a check; a failure is printed loudly and
    /// makes the result incorrect.
    fn require(&mut self, what: &str, r: Result<(), String>) -> bool {
        match r {
            Ok(()) => true,
            Err(e) => {
                eprintln!("perfbench: CHECK FAILED: {what}: {e}");
                self.check_failed = true;
                false
            }
        }
    }

    fn timed(
        &self,
        kind: &str,
        rep: usize,
        tracer: Option<&mut Tracer>,
    ) -> Result<(Output, f64), String> {
        let probe = host::Probe::start();
        let (out, secs) = self.bench.pass(rep, tracer)?;
        sample_line(self.args, kind, rep, secs, probe.finish());
        Ok((out, secs))
    }

    /// One untimed set-up, then `SETUP_GROUP_SIZE` timed ones, each
    /// replacing the bench; their host seconds go to `setups`.
    fn setup_group(&mut self, setups: &mut Vec<f64>) -> Result<(), String> {
        self.bench = fresh_setup(self.work, self.setup)?;
        for _ in 0..SETUP_GROUP_SIZE {
            let rep = setups.len();
            let probe = host::Probe::start();
            let t = wall_clock();
            let bench = fresh_setup(self.work, self.setup)?;
            let secs = t.elapsed().as_secs_f64();
            sample_line(self.args, "setup", rep, secs, probe.finish());
            setups.push(secs);
            self.bench = bench;
        }
        Ok(())
    }

    /// Count a pass's runs; all of them fail when its checks did.
    fn tally(&mut self, out: &Output, ok: bool) {
        self.attempted += out.runs();
        self.failed += if ok { out.failed_runs() } else { out.runs() };
    }

    fn budget(&self) -> std::time::Duration {
        std::time::Duration::from_secs(self.args.seconds)
    }

    /// An untimed pass with the allocator counting, for the heap peak
    /// and the output every later pass must repeat; then untraced passes
    /// for the end-to-end metrics, with groups of timed set-ups between
    /// them, and one traced pass for the exact event total and the check
    /// that tracing changes no output.
    fn untraced(&mut self, setup_heap: alloc::Usage) -> Result<Vec<Metric>, String> {
        let (first, pass_heap) = alloc::counted(|| self.bench.pass(0, None));
        let (first, _) = first?;
        self.tally(&first, true);
        // The peak of a set-up followed by one pass: what set-up keeps
        // stays live under the pass.
        let peak_bytes = setup_heap.peak.max(setup_heap.retained + pass_heap.peak);
        let peak_heap = peak_bytes as f64 / (1024.0 * 1024.0);

        // The host runs slower or faster for stretches of seconds. Set-up
        // groups are spread over the window, as the passes are, so that
        // `setup_s` averages those stretches like `wall_s` does instead
        // of catching one.
        let start = wall_clock();
        let window = self.budget().as_secs_f64();
        let mut walls = Vec::new();
        let mut setups = Vec::new();
        let mut groups = 0;
        while walls.len() < MIN_PASSES || start.elapsed() < self.budget() {
            let due = start.elapsed().as_secs_f64() * SETUP_GROUPS as f64 / window;
            while groups < SETUP_GROUPS && groups as f64 <= due {
                self.setup_group(&mut setups)?;
                groups += 1;
            }
            let (out, secs) = self.timed("untraced", walls.len() + 1, None)?;
            walls.push(secs);
            let ok = self.require("untraced pass repeats", same_outputs(&first, &out));
            self.tally(&out, ok);
        }
        for _ in groups..SETUP_GROUPS {
            self.setup_group(&mut setups)?;
        }
        let setup_s = median(&setups);

        let mut tracer = Tracer::default();
        let (counted, _) = self.bench.pass(walls.len() + 1, Some(&mut tracer))?;
        let traced_ok = self.require(
            "traced pass equals untraced",
            same_outputs(&first, &counted),
        );
        let reference = self.bench.check_reference(&first, self.args.seed);
        let reference_ok = self.require("reference", reference);
        if !(traced_ok && reference_ok) {
            self.failed = self.attempted;
        }
        let events = Bench::counters(&counted, Some(&tracer))["kernel.events"] as f64;
        let wall = median(&walls);
        Ok(END_TO_END
            .iter()
            .map(|&(name, unit)| {
                let value = match name {
                    "wall_s" => wall,
                    "setup_s" => setup_s,
                    "events_per_s" => events / wall,
                    "peak_heap_mb" => peak_heap,
                    _ => (self.attempted - self.failed) as f64 / self.attempted as f64,
                };
                Metric { name, value, unit }
            })
            .collect())
    }

    /// One untraced pass (the reference output and the untraced wall
    /// time), then traced passes for the per-layer metrics, whose
    /// outputs and exact counters must repeat.
    fn traced(&mut self) -> Result<Vec<Metric>, String> {
        let (reference, untraced_wall) = self.timed("untraced", 0, None)?;
        let reference_ok = {
            let r = self.bench.check_reference(&reference, self.args.seed);
            self.require("reference", r)
        };
        let start = wall_clock();
        let mut times: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
        let mut first_counters: Option<BTreeMap<&'static str, u64>> = None;
        let mut rep = 1;
        while rep <= MIN_PASSES || start.elapsed() < self.budget() {
            let mut tracer = Tracer::default();
            let (out, secs) = self.timed("traced", rep, Some(&mut tracer))?;
            rep += 1;
            let counters = Bench::counters(&out, Some(&tracer));
            let mut ok = self.require(
                "traced pass equals untraced",
                same_outputs(&reference, &out),
            );
            if let Some(f) = &first_counters {
                let r = same_counters(f, &counters);
                ok &= self.require("exact counters repeat", r);
            }
            self.tally(&out, ok && reference_ok);
            for (name, v) in layer_times(&tracer, counters["kernel.events"], secs) {
                times.entry(name).or_default().push(v);
            }
            first_counters.get_or_insert(counters);
        }
        let counters = first_counters.expect("at least one traced pass");
        let telemetry_cost = match &self.bench {
            Bench::Campaign(b) => median(&(0..3).map(|_| b.telemetry_cost()).collect::<Vec<_>>()),
            Bench::Table(_) => 0.0,
        };
        let (one, two) = self.bench.thread_probe();
        let trace_mb = match &reference {
            Output::Table(o) => o.trace_bytes as f64 / (1024.0 * 1024.0),
            Output::Campaign(_) => 0.0,
        };
        let traced_wall = median(&times["trace.wall_s"]);
        Ok(PER_LAYER
            .iter()
            .map(|&(name, unit)| {
                let value = match name {
                    "noise.trace_mb" => trace_mb,
                    "telemetry.metrics_only_s" => telemetry_cost,
                    "trace.overhead_pct" => (traced_wall / untraced_wall - 1.0) * 100.0,
                    "harness.speedup_2t" => one / two,
                    "host.peak_rss_mb" => host::peak_rss_mib().unwrap_or(0.0),
                    _ => match counters.get(name) {
                        Some(&c) => c as f64,
                        None => median(&times[name]),
                    },
                };
                Metric { name, value, unit }
            })
            .collect())
    }
}
