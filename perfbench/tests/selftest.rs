//! Self-tests of the benchmark on trimmed plans, so they finish in
//! seconds even in a debug build:
//! `cargo test --manifest-path perfbench/Cargo.toml`.

use noiselab_core::experiments::inject::{table3_spec, TableSpec};
use noiselab_core::experiments::Scale;
use noiselab_perfbench::campaign::CampaignBench;
use noiselab_perfbench::tables::TableBench;
use noiselab_perfbench::trace::Tracer;
use noiselab_perfbench::{measure, Args, Bench, Output, END_TO_END, PER_LAYER, WORKLOADS};
use std::path::{Path, PathBuf};

/// Table 3's Intel block with its first trace source and the two rows
/// injected with it.
fn trimmed_table3() -> TableSpec {
    let mut spec = table3_spec();
    spec.platforms.truncate(1);
    let block = &mut spec.platforms[0];
    block.traces.truncate(1);
    block.rows.retain(|r| r.trace == 0);
    spec
}

fn tiny_scale() -> Scale {
    Scale {
        traced_runs: 3,
        baseline_runs: 2,
        inject_runs: 2,
        ..Scale::smoke()
    }
}

fn table(seed: u64) -> TableBench {
    TableBench::new(trimmed_table3(), tiny_scale(), true, seed)
}

/// A scratch directory of this test's own under the target directory.
fn scratch(name: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(name);
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn campaign(seed: u64, dir: &Path) -> CampaignBench {
    CampaignBench::new(3, seed, dir.to_path_buf()).expect("campaign work dir")
}

#[test]
fn seed_zero_table_stages_reproduce_run_table() {
    let b = table(0);
    let plain = b.pass(None);
    b.matches_reference(&plain, &b.reference())
        .expect("seed-0 pass must equal run_table bit for bit");
    let mut tracer = Tracer::default();
    assert_eq!(
        b.pass(Some(&mut tracer)),
        plain,
        "tracing changed the outputs"
    );
    assert!(tracer.metrics.counter("kernel.events") > 0);
}

#[test]
fn resumed_campaign_equals_uninterrupted() {
    let dir = scratch("resume");
    let b = campaign(11, &dir);
    let reference = b.reference().expect("uninterrupted campaign");
    let plain = b
        .pass(&b.fresh_dir(0).unwrap(), None)
        .expect("resumed campaign");
    assert_eq!(plain.state.cells, reference.cells);
    let mut tracer = Tracer::default();
    let traced = b
        .pass(&b.fresh_dir(1).unwrap(), Some(&mut tracer))
        .expect("traced campaign");
    assert_eq!(
        traced, plain,
        "step-by-step campaign left another state or checkpoint"
    );
    assert!(tracer.counted("campaign.save_bytes") > 0);
}

#[test]
fn traced_run_reports_every_per_layer_metric() {
    let dir = scratch("layers");
    type Setup = fn(&Path) -> Result<Bench, String>;
    let setups: [(&str, Setup); 2] = [
        ("table3-nbody", |_| Ok(Bench::Table(table(0)))),
        ("campaign-resume", |work| {
            Ok(Bench::Campaign(campaign(0, work)))
        }),
    ];
    for (workload, bench) in setups {
        let args = Args {
            workload: workload.into(),
            seed: 0,
            seconds: 0,
            trace: true,
        };
        let report = measure(&args, &dir.join(workload), bench).expect("traced run");
        assert!(report.correct, "{workload}: checks failed");
        assert_eq!(report.failed, 0);
        let names: Vec<&str> = report.metrics.iter().map(|m| m.name).collect();
        let expected: Vec<&str> = PER_LAYER.iter().map(|(n, _)| *n).collect();
        assert_eq!(names, expected, "{workload}");
        let coverage = report
            .metrics
            .iter()
            .find(|m| m.name == "trace.coverage")
            .unwrap();
        assert!(
            coverage.value >= 0.9,
            "{workload}: trace.coverage {}",
            coverage.value
        );

        let args = Args {
            trace: false,
            ..args
        };
        let report = measure(&args, &dir.join(workload), bench).expect("untraced run");
        assert!(report.correct, "{workload}: checks failed");
        let names: Vec<&str> = report.metrics.iter().map(|m| m.name).collect();
        let expected: Vec<&str> = END_TO_END.iter().map(|(n, _)| *n).collect();
        assert_eq!(names, expected, "{workload}");
        let ratio = report
            .metrics
            .iter()
            .find(|m| m.name == "success_ratio")
            .unwrap();
        assert_eq!(ratio.value, 1.0);
    }
}

#[test]
fn non_default_seed_changes_outputs_and_passes_checks() {
    let (b0, b5) = (Bench::Table(table(0)), Bench::Table(table(5)));
    let (o0, _) = b0.pass(0, None).unwrap();
    let (o5, _) = b5.pass(0, None).unwrap();
    assert_ne!(o0, o5, "the workload seed must reach the simulations");
    b5.check_reference(&o5, 5).expect("seed-5 table checks");

    let dir = scratch("seeds");
    let (c0, c5) = (
        Bench::Campaign(campaign(0, &dir.join("0"))),
        Bench::Campaign(campaign(5, &dir.join("5"))),
    );
    let (o0, _) = c0.pass(0, None).unwrap();
    let (o5, _) = c5.pass(0, None).unwrap();
    assert_ne!(o0, o5, "the workload seed must reach the simulations");
    c5.check_reference(&o5, 5).expect("seed-5 campaign checks");
    let mut tracer = Tracer::default();
    let (traced, _) = c5.pass(1, Some(&mut tracer)).unwrap();
    assert_eq!(traced, o5);
    assert!(matches!(traced, Output::Campaign(_)));
}

/// `BENCHMARK.json` at the repository root names exactly the workloads
/// and metrics this benchmark reports, with the same units.
#[test]
fn benchmark_json_matches_the_reported_metrics() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
    let doc = serde::parse_json(&text).expect("BENCHMARK.json parses");
    let list = |key: &str, field: &str| -> Vec<String> {
        doc.get(key)
            .and_then(|v| v.as_array())
            .unwrap_or_else(|| panic!("{key} list"))
            .iter()
            .map(|m| m.get(field).and_then(|v| v.as_str()).unwrap().to_string())
            .collect()
    };
    let own = |table: &[(&str, &str)], col: usize| -> Vec<String> {
        table.iter().map(|r| [r.0, r.1][col].to_string()).collect()
    };
    assert_eq!(
        list("workloads", "name"),
        WORKLOADS.map(String::from).to_vec()
    );
    assert_eq!(list("end_to_end", "name"), own(&END_TO_END, 0));
    assert_eq!(list("end_to_end", "unit"), own(&END_TO_END, 1));
    assert_eq!(list("per_layer", "name"), own(&PER_LAYER, 0));
    assert_eq!(list("per_layer", "unit"), own(&PER_LAYER, 1));
}

#[test]
fn arguments_are_checked() {
    let argv = |s: &str| s.split_whitespace().map(String::from).collect::<Vec<_>>();
    let ok = Args::parse(&argv(
        "--workload campaign-resume --seed 3 --seconds 10 --trace 1",
    ))
    .unwrap();
    assert_eq!((ok.seed, ok.seconds, ok.trace), (3, 10, true));
    for bad in [
        "--workload nope --seed 3 --seconds 10 --trace 1",
        "--workload campaign-resume --seed x --seconds 10 --trace 1",
        "--workload campaign-resume --seed 3 --seconds 10 --trace 2",
        "--workload campaign-resume --seed 3 --seconds 10",
        "--workload campaign-resume --seed 3 --seconds 10 --trace 1 --extra 1",
    ] {
        assert!(Args::parse(&argv(bad)).is_err(), "{bad}");
    }
}
