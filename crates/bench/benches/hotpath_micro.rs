//! Criterion microbenches for the hot-path primitives the event
//! pipeline overhaul introduced, each isolating one mechanism the
//! macro sweep (`hotpath.rs`) only sees in aggregate:
//!
//! * `observer_dispatch/{0,1,4}` — a fixed kernel scenario with N
//!   record-counting observers attached, showing the per-observer
//!   marginal cost of the kernel's one observation fan-out;
//! * `intern/{hit,first_sight_64}` — steady-state id lookup vs the
//!   first-sight path that allocates and inserts;
//! * `arena/{fresh_per_run,reused}` — one fully instrumented run
//!   (tracer + telemetry) drawing state from a cold arena every
//!   iteration vs recycling one arena, i.e. the allocation cost the
//!   repetition loops now avoid;
//! * `wire/{encode_1k,decode_1k}` — the fixed-width 29-byte record
//!   codec shared by the tracer, the span recorder and NLTB v2.

use std::hint::black_box;
use std::time::Duration;

use criterion::{criterion_group, criterion_main, Criterion};
use noiselab_core::{
    run_once_instrumented_in, ExecConfig, Mitigation, Model, Observe, Platform, RunArena,
};
use noiselab_kernel::{
    Action, InternTable, Kernel, KernelConfig, KernelObserver, SchedRecord, ScriptBehavior,
    ThreadKind, ThreadSpec, WireRecord, WIRE_NO_THREAD, WIRE_RECORD_BYTES,
};
use noiselab_machine::WorkUnit;
use noiselab_sim::SimDuration;
use noiselab_telemetry::TelemetryConfig;
use noiselab_testutil::{costed_machine, horizon, tiny_nbody};

/// Observer that only counts records — the cheapest subscriber, so the
/// measurement is dominated by the fan-out rather than observer work.
struct CountingObserver(u64);

impl KernelObserver for CountingObserver {
    fn sched(&mut self, _rec: &SchedRecord<'_>) {
        self.0 += 1;
    }
}

/// A fixed two-thread kernel scenario (compute, sleep, compute on a
/// 4-core costed machine) with `n_obs` observers attached; returns the
/// summed exit times so the run cannot be optimised away.
fn kernel_scenario(n_obs: usize) -> u64 {
    let mut k = Kernel::new(costed_machine(4, 1), KernelConfig::default(), 7);
    for _ in 0..n_obs {
        k.attach_observer(Box::new(CountingObserver(0)));
    }
    let spawn = |k: &mut Kernel, name: &str, fibs: f64| {
        k.spawn(
            ThreadSpec::new(name, ThreadKind::Workload),
            Box::new(ScriptBehavior::new(vec![
                Action::Compute(WorkUnit::compute(fibs)),
                Action::SleepFor(SimDuration::from_micros(200)),
                Action::Compute(WorkUnit::compute(fibs)),
            ])),
        )
    };
    let a = spawn(&mut k, "a", 4_000_000.0);
    let b = spawn(&mut k, "b", 3_000_000.0);
    [a, b]
        .iter()
        .map(|&t| {
            k.run_until_exit(t, horizon())
                .expect("bench run failed")
                .nanos()
        })
        .sum()
}

fn bench_observer_dispatch(c: &mut Criterion) {
    for (id, n_obs) in [
        ("observer_dispatch/0", 0usize),
        ("observer_dispatch/1", 1),
        ("observer_dispatch/4", 4),
    ] {
        c.bench_function(id, |b| b.iter(|| kernel_scenario(black_box(n_obs))));
    }
}

fn bench_intern(c: &mut Criterion) {
    let names: Vec<String> = (0..64).map(|i| format!("noise:src{i}")).collect();

    let mut warm = InternTable::new();
    for n in &names {
        warm.intern(n);
    }
    c.bench_function("intern/hit", |b| {
        b.iter(|| {
            let mut acc = 0u32;
            for n in &names {
                acc = acc.wrapping_add(warm.intern(black_box(n)));
            }
            acc
        })
    });

    let mut cold = InternTable::new();
    c.bench_function("intern/first_sight_64", |b| {
        b.iter(|| {
            cold.clear();
            let mut acc = 0u32;
            for n in &names {
                acc = acc.wrapping_add(cold.intern(black_box(n)));
            }
            acc
        })
    });
}

/// One fully instrumented run (tracer + telemetry attached) through
/// `arena` — the exact body of the overhead-measurement rep loop.
fn instrumented_run(platform: &Platform, arena: &mut RunArena) -> u64 {
    let cfg = ExecConfig::new(Model::Omp, Mitigation::Rm);
    let observe = Observe {
        telemetry: Some(TelemetryConfig::default()),
        ..Observe::default()
    };
    run_once_instrumented_in(
        platform,
        &tiny_nbody(2),
        &cfg,
        &KernelConfig::default(),
        7,
        true,
        None,
        None,
        observe,
        arena,
    )
    .expect("bench run failed")
    .output
    .stream_hash
}

fn bench_arena(c: &mut Criterion) {
    let platform = Platform::intel();

    c.bench_function("arena/fresh_per_run", |b| {
        b.iter(|| {
            let mut arena = RunArena::default();
            instrumented_run(&platform, &mut arena)
        })
    });

    let mut arena = RunArena::default();
    instrumented_run(&platform, &mut arena); // warm the buffers once
    c.bench_function("arena/reused", |b| {
        b.iter(|| instrumented_run(&platform, &mut arena))
    });
}

fn bench_wire_codec(c: &mut Criterion) {
    const N: usize = 1024;
    let records: Vec<WireRecord> = (0..N as u64)
        .map(|i| WireRecord {
            start: i * 1_000,
            dur_ns: 250 + i,
            cpu: (i % 8) as u32,
            thread: if i % 5 == 0 {
                WIRE_NO_THREAD
            } else {
                (i % 17) as u32
            },
            name: (i % 11) as u32,
            tag: (i % 3) as u8,
        })
        .collect();

    let mut buf = Vec::with_capacity(N * WIRE_RECORD_BYTES);
    c.bench_function("wire/encode_1k", |b| {
        b.iter(|| {
            buf.clear();
            for r in &records {
                r.encode_into(&mut buf);
            }
            buf.len()
        })
    });

    let mut encoded = Vec::new();
    for r in &records {
        r.encode_into(&mut encoded);
    }
    c.bench_function("wire/decode_1k", |b| {
        b.iter(|| {
            let mut acc = 0u64;
            for i in 0..N {
                let r = WireRecord::decode_from(black_box(&encoded), i * WIRE_RECORD_BYTES)
                    .expect("in-bounds record");
                acc = acc.wrapping_add(r.start ^ u64::from(r.cpu));
            }
            acc
        })
    });
}

criterion_group!(
    name = benches;
    config = Criterion::default()
        .sample_size(20)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_secs(1));
    targets = bench_observer_dispatch, bench_intern, bench_arena, bench_wire_codec
);
criterion_main!(benches);
