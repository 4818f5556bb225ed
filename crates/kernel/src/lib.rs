//! # noiselab-kernel
//!
//! A deterministic simulated OS kernel. It provides exactly the
//! mechanisms the paper's noise-injection methodology exercises on real
//! Linux:
//!
//! * two scheduling classes — a CFS-like fair class (`SCHED_OTHER`, nice
//!   weights, vruntime preemption) and a FIFO real-time class
//!   (`SCHED_FIFO`, strict priority, no throttling);
//! * per-CPU runqueues with wake placement (idle-CPU preference — this is
//!   how housekeeping cores absorb unpinned noise), idle load balancing
//!   and migration costs;
//! * periodic timer interrupts with softirq follow-ons, the base layer of
//!   OS noise;
//! * SMT contention and max-min-fair memory-bandwidth sharing via the
//!   roofline model of `noiselab-machine`;
//! * barriers and wait queues with spin-then-block semantics, the
//!   building blocks of the OpenMP- and SYCL-style runtimes;
//! * one observation stream ([`observe`]): every scheduling record,
//!   plus, while a tracer is attached, every interference interval
//!   (IRQ, softirq, foreign thread), fanned out to the attached
//!   observers — the `osnoise`-style tracer in `noiselab-noise` and the
//!   telemetry recorder both consume it.
//!
//! Simulated programs are [`action::Behavior`] state machines; no host
//! threads are involved, so a run is a pure function of its seed.
//!
//! ```
//! use noiselab_kernel::{Action, Kernel, KernelConfig, ScriptBehavior, ThreadKind, ThreadSpec};
//! use noiselab_machine::{Machine, WorkUnit};
//! use noiselab_sim::SimTime;
//!
//! let mut kernel = Kernel::new(Machine::intel_9700kf(), KernelConfig::default(), 42);
//! let tid = kernel.spawn(
//!     ThreadSpec::new("worker", ThreadKind::Workload),
//!     Box::new(ScriptBehavior::new(vec![Action::Compute(WorkUnit::compute(3.0e7))])),
//! );
//! let end = kernel.run_until_exit(tid, SimTime::from_secs_f64(1.0)).unwrap();
//! // 30 Mflops at 30 flops/ns: about a millisecond, plus timer-IRQ noise.
//! assert!((0.0009..0.0012).contains(&end.as_secs_f64()));
//! ```

pub mod action;
pub mod config;
pub mod cpu;
pub mod dvfs;
pub mod fault;
pub mod ids;
pub mod kernel;
pub mod observe;
pub mod policy;
pub mod sanitize;
pub mod thread;
pub mod wire;

pub use action::{Action, Behavior, Ctx, FnBehavior, ScriptBehavior};
pub use config::KernelConfig;
pub use dvfs::{DvfsRuntime, DvfsSummary};
pub use fault::{CpuStallSpec, FaultPlan, FaultStats, SpuriousIrqSpec, ThreadAbortSpec};
pub use ids::{BarrierId, ThreadId, WaitId};
pub use kernel::{Kernel, KernelStorage, RunError, ThreadSpec};
pub use observe::{DecisionPoint, HostProfiler, KernelObserver, NoiseClass, Phase, SchedRecord};
pub use policy::Policy;
pub use sanitize::{
    EventKind, EventRecord, EventSanitizer, HashCheckpoint, LoggedEvent, SanitizerConfig,
    SanitizerReport,
};
pub use thread::{ThreadKind, ThreadState};
pub use wire::{InternTable, WireRecord, WIRE_NO_THREAD, WIRE_RECORD_BYTES};
