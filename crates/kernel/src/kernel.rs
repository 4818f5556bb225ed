//! The simulated OS kernel: event loop, scheduler, execution rates.
//!
//! One [`Kernel`] instance simulates one machine for one run. Threads are
//! [`Behavior`] state machines (see [`crate::action`]); the kernel
//! multiplexes them over the machine's logical CPUs with two scheduling
//! classes (CFS-like fair + FIFO real-time), periodic timer interrupts,
//! idle load balancing with migration costs, SMT contention and max-min
//! fair memory-bandwidth sharing.
//!
//! Everything is deterministic given the seed: the event queue breaks
//! timestamp ties by insertion order and all scheduler decisions iterate
//! in fixed CPU/thread order.

use crate::action::{Action, Behavior, Ctx};
use crate::config::KernelConfig;
use crate::cpu::Cpu;
use crate::fault::{FaultPlan, FaultState, FaultStats};
use crate::ids::{BarrierId, ThreadId, WaitId};
use crate::observe::{DecisionPoint, HostProfiler, KernelObserver, NoiseClass, Phase, SchedRecord};
use crate::policy::Policy;
use crate::sanitize::{EventKind, EventRecord, EventSanitizer, SanitizerConfig, SanitizerReport};
use crate::thread::{ActiveCompute, BlockReason, Thread, ThreadKind, ThreadState};
use noiselab_machine::{waterfill_into, CpuId, CpuSet, Machine, SoloProfile};
use noiselab_sim::{EventQueue, EventToken, Rng, SimDuration, SimTime};
use std::collections::VecDeque;

/// Simulation events.
#[derive(Debug, Clone)]
enum KEvent {
    /// Thread start (spawn delay elapsed).
    Start(ThreadId),
    /// Sleep or delayed wake expired.
    WakeTimer(ThreadId),
    /// The running compute finished.
    ComputeDone(ThreadId),
    /// A spinning waiter gives up and blocks.
    SpinExpire(ThreadId),
    /// Periodic per-CPU timer tick (scheduler tick + timer IRQ).
    Tick(u32),
    /// End of an interrupt-service window on a CPU.
    IrqDone(u32),
    /// A device interrupt injected by a noise source (e.g. an NVMe or
    /// NIC interrupt storm).
    DeviceIrq {
        cpu: u32,
        duration: SimDuration,
        source: Box<str>,
    },
    /// Fault injection: tear the thread down mid-region, as if it
    /// crashed. See [`Kernel::schedule_abort`].
    Abort(ThreadId),
}

/// Thread creation parameters.
#[derive(Debug, Clone)]
pub struct ThreadSpec {
    pub name: String,
    pub kind: ThreadKind,
    pub policy: Policy,
    pub affinity: CpuSet,
    /// Virtual time at which the thread becomes runnable.
    pub start: SimTime,
}

impl ThreadSpec {
    pub fn new(name: impl Into<String>, kind: ThreadKind) -> Self {
        ThreadSpec {
            name: name.into(),
            kind,
            policy: Policy::NORMAL,
            affinity: CpuSet::EMPTY, // replaced by all CPUs at spawn
            start: SimTime::ZERO,
        }
    }

    pub fn policy(mut self, p: Policy) -> Self {
        self.policy = p;
        self
    }

    pub fn affinity(mut self, a: CpuSet) -> Self {
        self.affinity = a;
        self
    }

    pub fn start_at(mut self, t: SimTime) -> Self {
        self.start = t;
        self
    }
}

/// Errors from the run loop.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RunError {
    /// The horizon passed before the condition was met.
    Horizon(SimTime),
    /// The event queue drained before the condition was met. With eager
    /// ticks this cannot happen; under tickless idle it means every CPU
    /// parked with no timer, compute or wake event pending — i.e. the
    /// simulated system deadlocked.
    Drained,
}

struct BarrierState {
    parties: usize,
    waiting: Vec<ThreadId>,
}

struct WaitQueueState {
    waiters: VecDeque<ThreadId>,
}

/// Reusable buffers for [`Kernel::recompute_rates`], so the steady-state
/// hot path makes no heap allocations.
#[derive(Default)]
struct RateScratch {
    /// Running `(thread index, cpu index)` pairs with active computes.
    /// (Emptied, capacity kept, by [`RateScratch::reset`].)
    running: Vec<(usize, usize)>,
    factors: Vec<f64>,
    demands: Vec<f64>,
    allocs: Vec<f64>,
    order: Vec<usize>,
    /// Waterfill input of the compute running on each CPU as of the
    /// last recompute (0.0 when idle or demandless). Only meaningful
    /// while `cache_valid`; lets [`Kernel::recompute_rates_local`]
    /// re-derive the saturation check without touching other CPUs.
    demand_by_cpu: Vec<f64>,
    /// Whether the last recompute left the waterfill unsaturated, i.e.
    /// every allocation was a bit-exact copy of its demand.
    cache_unsaturated: bool,
    /// Whether `demand_by_cpu` reflects the live running set. Cleared
    /// by the demandless local path (which does not maintain it).
    cache_valid: bool,
}

impl RateScratch {
    /// Empty every buffer and invalidate the waterfill cache, keeping
    /// allocations for the next run.
    fn reset(&mut self) {
        self.running.clear();
        self.factors.clear();
        self.demands.clear();
        self.allocs.clear();
        self.order.clear();
        self.demand_by_cpu.clear();
        self.cache_unsaturated = false;
        self.cache_valid = false;
    }
}

/// Dense index of the CPUs whose current thread holds an active
/// compute — the set every rate recompute iterates. A bitmask (visited
/// in CPU-index order, matching the historical all-CPU scan) plus a
/// per-CPU thread index keep the hot loops on two small arrays instead
/// of walking the full `Cpu` and `Thread` structs.
#[derive(Default)]
struct RunningSet {
    mask: Vec<u64>,
    tid: Vec<u32>,
}

impl RunningSet {
    /// Size for `n_cpus` and mark every CPU idle, keeping allocations.
    fn reset(&mut self, n_cpus: usize) {
        self.mask.clear();
        self.mask.resize(n_cpus.div_ceil(64), 0);
        self.tid.clear();
        self.tid.resize(n_cpus, u32::MAX);
    }

    #[inline]
    fn insert(&mut self, ci: usize, ti: usize) {
        self.mask[ci >> 6] |= 1u64 << (ci & 63);
        self.tid[ci] = ti as u32;
    }

    #[inline]
    fn remove(&mut self, ci: usize) {
        self.mask[ci >> 6] &= !(1u64 << (ci & 63));
        self.tid[ci] = u32::MAX;
    }

    /// Visit running `(cpu index, thread index)` pairs in CPU order.
    #[inline]
    fn for_each(&self, mut f: impl FnMut(usize, usize)) {
        for (w, &word) in self.mask.iter().enumerate() {
            let mut bits = word;
            while bits != 0 {
                let ci = (w << 6) | bits.trailing_zeros() as usize;
                bits &= bits - 1;
                f(ci, self.tid[ci] as usize);
            }
        }
    }
}

/// The simulated kernel. See module docs.
pub struct Kernel {
    pub machine: Machine,
    pub config: KernelConfig,
    queue: EventQueue<KEvent>,
    threads: Vec<Thread>,
    behaviors: Vec<Option<Box<dyn Behavior>>>,
    cpus: Vec<Cpu>,
    barriers: Vec<BarrierState>,
    waitqs: Vec<WaitQueueState>,
    rng: Rng,
    /// Set by [`Kernel::attach_tracer`]: emit [`SchedRecord::Noise`]
    /// records and charge `trace_event_overhead` for each.
    tracing: bool,
    /// Per-CPU trace-write overhead accumulated since the last tick,
    /// charged inside the next tick's IRQ window.
    pending_trace_ns: Vec<u64>,
    /// Alternates softirq attribution between RCU:9 and SCHED:7.
    softirq_flip: bool,
    /// Depth guard for the dispatch -> step_behavior recursion.
    step_depth: u32,
    /// Threads sitting in some CPU's runqueue (not running). Lets the
    /// tickless arming hook skip the per-CPU pullability scan in the
    /// common queues-empty case.
    queued_total: usize,
    /// Set by `enqueue`, cleared by the idle-balance kick in `handle`.
    /// A parked CPU's pullable set can only grow through an enqueue (it
    /// parked precisely because nothing was pullable), so events that
    /// enqueued nothing can skip the kick scan entirely.
    kick_pending: bool,
    /// Number of CPUs whose current thread runs a compute with
    /// `bw_demand > 0` — the O(1) form of the bandwidth-activity scan
    /// consulted on every rate recompute. Maintained at the four
    /// mutation points (dispatch, off_cpu, install/clear compute) and
    /// cross-checked against the scan in debug builds.
    bw_running: u32,
    /// Active computes, parallel to `threads`. Kept out of the big
    /// `Thread` control block so rate recomputes walk a dense array.
    computes: Vec<Option<ActiveCompute>>,
    /// CPUs currently running a compute (see [`RunningSet`]).
    /// Maintained at the same four mutation points as `bw_running`.
    running: RunningSet,
    scratch: RateScratch,
    /// Installed fault plan state, if any. Faults draw from their own
    /// RNG stream so a `None` here (or an all-zero plan) leaves the
    /// event sequence bit-identical to an unfaulted run.
    faults: Option<FaultState>,
    /// Threads torn down by [`Self::schedule_abort`], in abort order.
    aborted: Vec<ThreadId>,
    /// Event-stream sanitizer, folding every dispatched event into a
    /// running hash (see [`crate::sanitize`]). A pure observer unless
    /// its chaos hook is armed.
    sanitizer: Option<EventSanitizer>,
    /// Observers receiving the observation stream (see
    /// [`crate::observe`]), in attach order. Always pure observers.
    observers: Vec<Box<dyn KernelObserver>>,
    /// Host-time phase profiler; the kernel only announces boundaries,
    /// it never reads a clock itself.
    profiler: Option<Box<dyn HostProfiler>>,
    /// Live DVFS state (frequency levels, turbo budget, thermal
    /// accumulator). `None` when the machine's DVFS axis is disabled:
    /// no events, no rate scaling, no state — bit-identical to the
    /// pre-DVFS simulator. Deliberately *not* recycled through
    /// [`KernelStorage`]: the vectors are tiny (per-CPU) and a fresh
    /// runtime per run keeps arena reuse trivially pure.
    dvfs: Option<crate::dvfs::DvfsRuntime>,
}

/// Recyclable per-run kernel state: every growable buffer the kernel
/// owns, detached from a finished run by [`Kernel::retire`] and handed
/// to the next [`Kernel::new_in`], which empties the buffers but keeps
/// their allocations. Repetition loops (overhead-measurement reps,
/// campaign cells) thereby stop paying event-heap and control-block
/// malloc churn on every run. A defaulted storage is empty, so
/// `new_in(.., &mut KernelStorage::default())` is exactly `new(..)`.
#[derive(Default)]
pub struct KernelStorage {
    queue: EventQueue<KEvent>,
    threads: Vec<Thread>,
    behaviors: Vec<Option<Box<dyn Behavior>>>,
    cpus: Vec<Cpu>,
    barriers: Vec<BarrierState>,
    waitqs: Vec<WaitQueueState>,
    pending_trace_ns: Vec<u64>,
    computes: Vec<Option<ActiveCompute>>,
    running: RunningSet,
    scratch: RateScratch,
    aborted: Vec<ThreadId>,
}

impl Kernel {
    pub fn new(machine: Machine, config: KernelConfig, seed: u64) -> Self {
        Self::new_in(machine, config, seed, &mut KernelStorage::default())
    }

    /// [`Kernel::new`] drawing its buffers from `storage` (see
    /// [`KernelStorage`]). The arena conformance suite asserts a kernel
    /// built this way runs bit-identically to a fresh one.
    pub fn new_in(
        machine: Machine,
        config: KernelConfig,
        seed: u64,
        storage: &mut KernelStorage,
    ) -> Self {
        let n = machine.n_cpus();
        let mut queue = std::mem::take(&mut storage.queue);
        queue.reset();
        let mut cpus = std::mem::take(&mut storage.cpus);
        cpus.clear();
        cpus.extend((0..n).map(|_| Cpu::new()));
        // Ticks live on a fixed per-CPU grid staggered across the tick
        // period, as on real systems where CPUs boot at slightly
        // different times. Eager mode arms every CPU at boot; tickless
        // CPUs start parked and are armed when they first get work (at
        // the same grid instants, so busy-CPU ticks coincide exactly).
        if !config.tickless {
            let period = machine.tick_period.nanos();
            for (i, cpu) in cpus.iter_mut().enumerate() {
                let offset = period * (i as u64 + 1) / (n as u64 + 1);
                queue.schedule(SimTime(offset), KEvent::Tick(i as u32));
                cpu.tick_armed = true;
            }
        }
        let mut threads = std::mem::take(&mut storage.threads);
        threads.clear();
        let mut behaviors = std::mem::take(&mut storage.behaviors);
        behaviors.clear();
        let mut barriers = std::mem::take(&mut storage.barriers);
        barriers.clear();
        let mut waitqs = std::mem::take(&mut storage.waitqs);
        waitqs.clear();
        let mut pending_trace_ns = std::mem::take(&mut storage.pending_trace_ns);
        pending_trace_ns.clear();
        pending_trace_ns.resize(n, 0);
        let mut computes = std::mem::take(&mut storage.computes);
        computes.clear();
        let mut running = std::mem::take(&mut storage.running);
        running.reset(n);
        let mut scratch = std::mem::take(&mut storage.scratch);
        scratch.reset();
        let mut aborted = std::mem::take(&mut storage.aborted);
        aborted.clear();
        let dvfs = machine
            .dvfs
            .enabled
            .then(|| crate::dvfs::DvfsRuntime::new(machine.dvfs.clone(), n));
        Kernel {
            machine,
            config,
            queue,
            threads,
            behaviors,
            cpus,
            barriers,
            waitqs,
            rng: Rng::new(seed),
            tracing: false,
            pending_trace_ns,
            softirq_flip: false,
            step_depth: 0,
            queued_total: 0,
            kick_pending: false,
            bw_running: 0,
            computes,
            running,
            scratch,
            faults: None,
            aborted,
            sanitizer: None,
            observers: Vec::new(),
            profiler: None,
            dvfs,
        }
    }

    /// Tear the kernel down, returning its buffers to `storage` for the
    /// next [`Kernel::new_in`]. Attached sinks and observers are
    /// dropped. (Buffer contents are emptied lazily at the next
    /// `new_in`, off any measured path.)
    pub fn retire(self, storage: &mut KernelStorage) {
        storage.queue = self.queue;
        storage.threads = self.threads;
        storage.behaviors = self.behaviors;
        storage.cpus = self.cpus;
        storage.barriers = self.barriers;
        storage.waitqs = self.waitqs;
        storage.pending_trace_ns = self.pending_trace_ns;
        storage.computes = self.computes;
        storage.running = self.running;
        storage.scratch = self.scratch;
        storage.aborted = self.aborted;
    }

    #[inline]
    pub fn now(&self) -> SimTime {
        self.queue.now()
    }

    /// Attach an osnoise-style tracer: an observer like any other, but
    /// attaching it switches on [`SchedRecord::Noise`] records for every
    /// observer and the simulated per-record `trace_event_overhead`
    /// charge, so unlike [`Self::attach_observer`] it changes the run.
    pub fn attach_tracer(&mut self, tracer: Box<dyn KernelObserver>) {
        self.tracing = true;
        self.observers.push(tracer);
    }

    pub fn tracing(&self) -> bool {
        self.tracing
    }

    /// Attach an event-stream sanitizer. Every subsequently dispatched
    /// event is folded into its running hash; with the default config
    /// this never changes the simulation.
    pub fn attach_sanitizer(&mut self, config: SanitizerConfig) {
        self.sanitizer = Some(EventSanitizer::new(config));
    }

    /// Running event-stream hash, if a sanitizer is attached.
    pub fn stream_hash(&self) -> Option<u64> {
        self.sanitizer.as_ref().map(|s| s.hash())
    }

    /// Detach the sanitizer and return its report.
    pub fn take_sanitizer_report(&mut self) -> Option<SanitizerReport> {
        self.sanitizer.take().map(|s| s.into_report())
    }

    /// Attach an observer. It receives every record of the observation
    /// stream from now on; observers are pure, so this never changes
    /// the simulation.
    pub fn attach_observer(&mut self, obs: Box<dyn KernelObserver>) {
        self.observers.push(obs);
    }

    /// The one observation fan-out: hand `rec` to every attached
    /// observer, in attach order. Noise records are the tracer's write
    /// path, so their delivery is the [`Phase::Tracer`] host phase.
    fn emit(&mut self, rec: &SchedRecord<'_>) {
        let noise = matches!(rec, SchedRecord::Noise { .. });
        if noise {
            self.prof_enter(Phase::Tracer);
        }
        for obs in &mut self.observers {
            obs.sched(rec);
        }
        if noise {
            self.prof_exit(Phase::Tracer);
        }
    }

    /// Attach a host-time phase profiler (see [`crate::observe`]).
    pub fn attach_host_profiler(&mut self, prof: Box<dyn HostProfiler>) {
        self.profiler = Some(prof);
    }

    #[inline]
    fn prof_enter(&mut self, phase: Phase) {
        if let Some(p) = self.profiler.as_mut() {
            p.enter(phase);
        }
    }

    #[inline]
    fn prof_exit(&mut self, phase: Phase) {
        if let Some(p) = self.profiler.as_mut() {
            p.exit(phase);
        }
    }

    /// Fork an independent RNG stream (for building workload data etc.).
    pub fn fork_rng(&mut self, stream: u64) -> Rng {
        self.rng.fork(stream)
    }

    /// Install a fault plan, driven by the given dedicated RNG stream.
    /// Pre-schedules the plan's spurious interrupts and CPU stall
    /// through [`Self::inject_irq`]; lost/late ticks are drawn lazily
    /// at tick service/arming time. Thread aborts are *not* scheduled
    /// here — the caller picks victims (it knows the team membership)
    /// and uses [`Self::schedule_abort`].
    pub fn install_faults(&mut self, plan: &FaultPlan, mut rng: Rng) {
        let n = self.machine.n_cpus() as u64;
        let mut stats = FaultStats::default();
        if let Some(sp) = &plan.spurious {
            if sp.rate_per_sec > 0.0 {
                // Poisson arrivals over the window, uniform over CPUs.
                let mean_gap = 1e9 / sp.rate_per_sec;
                let mut t = rng.exp(mean_gap);
                while t < sp.window.nanos() as f64 {
                    let cpu = CpuId(rng.below(n) as u32);
                    let service =
                        SimDuration(rng.exp(sp.service_mean.nanos() as f64).max(200.0) as u64);
                    self.inject_irq(cpu, SimTime(t as u64), service, "fault:spurious-irq");
                    stats.spurious_irqs += 1;
                    t += rng.exp(mean_gap);
                }
            }
        }
        if let Some(st) = &plan.stall {
            let cpu = CpuId(rng.below(n) as u32);
            let start = rng.range_f64(st.start.0.nanos() as f64, st.start.1.nanos() as f64);
            let dur = rng.range_f64(st.duration.0.nanos() as f64, st.duration.1.nanos() as f64);
            self.inject_irq(
                cpu,
                SimTime(start as u64),
                SimDuration(dur.max(1.0) as u64),
                "fault:cpu-stall",
            );
            stats.stall_windows += 1;
        }
        let mut state = FaultState::new(plan, rng);
        state.stats = stats;
        self.faults = Some(state);
    }

    /// Schedule `tid` to be forcibly torn down at `at` (clamped to now),
    /// as if the thread crashed mid-region. The teardown goes through
    /// the ordinary descheduling paths; peers blocked on the dead
    /// thread will deadlock, which [`Self::run_until_exit`] reports as
    /// [`RunError::Drained`].
    pub fn schedule_abort(&mut self, tid: ThreadId, at: SimTime) {
        let at = at.max(self.now());
        self.queue.schedule(at, KEvent::Abort(tid));
    }

    /// Threads torn down by [`Self::schedule_abort`], in abort order.
    pub fn aborted_threads(&self) -> &[ThreadId] {
        &self.aborted
    }

    /// Fault delivery counters, when a plan is installed.
    pub fn fault_stats(&self) -> Option<FaultStats> {
        self.faults.as_ref().map(|f| f.stats)
    }

    /// Create a thread. It becomes runnable at `spec.start`.
    pub fn spawn(&mut self, mut spec: ThreadSpec, behavior: Box<dyn Behavior>) -> ThreadId {
        if spec.affinity.is_empty() {
            spec.affinity = self.machine.all_cpus();
        }
        let id = ThreadId(self.threads.len() as u32);
        let t = Thread::new(id, spec.name, spec.kind, spec.policy, spec.affinity);
        self.threads.push(t);
        self.computes.push(None);
        self.behaviors.push(Some(behavior));
        let at = spec.start.max(self.now());
        let token = self.queue.schedule(at, KEvent::Start(id));
        self.threads[id.index()].timer_token = token;
        id
    }

    pub fn new_barrier(&mut self, parties: usize) -> BarrierId {
        assert!(parties > 0);
        let id = BarrierId(self.barriers.len() as u32);
        self.barriers.push(BarrierState {
            parties,
            waiting: Vec::new(),
        });
        id
    }

    pub fn new_waitq(&mut self) -> WaitId {
        let id = WaitId(self.waitqs.len() as u32);
        self.waitqs.push(WaitQueueState {
            waiters: VecDeque::new(),
        });
        id
    }

    #[inline]
    pub fn thread(&self, tid: ThreadId) -> &Thread {
        &self.threads[tid.index()]
    }

    pub fn cpu_stats(&self, cpu: CpuId) -> (u64, u64) {
        let c = &self.cpus[cpu.index()];
        (c.busy_ns, c.irq_ns)
    }

    /// Run until `tid` exits; returns its exit time. Fails if virtual
    /// time would pass `horizon` first.
    pub fn run_until_exit(&mut self, tid: ThreadId, horizon: SimTime) -> Result<SimTime, RunError> {
        loop {
            if let Some(t) = self.threads[tid.index()].exit_time {
                return Ok(t);
            }
            let Some(next) = self.queue.peek_time() else {
                return Err(RunError::Drained);
            };
            if next > horizon {
                return Err(RunError::Horizon(horizon));
            }
            let (_, ev) = self.queue.pop().unwrap();
            self.handle(ev);
        }
    }

    /// Run until virtual time `until`. A drained queue also returns
    /// `Ok`: with every tick parked and no event pending, no state can
    /// change before `until` (or ever).
    pub fn run_until(&mut self, until: SimTime) -> Result<(), RunError> {
        loop {
            let Some(next) = self.queue.peek_time() else {
                return Ok(());
            };
            if next > until {
                return Ok(());
            }
            let (_, ev) = self.queue.pop().unwrap();
            self.handle(ev);
        }
    }

    // ------------------------------------------------------------------
    // Event handling
    // ------------------------------------------------------------------

    fn handle(&mut self, ev: KEvent) {
        self.prof_enter(Phase::Dispatch);
        if self.sanitizer.is_some() {
            self.sanitize_event(&ev);
        }
        match ev {
            KEvent::Start(tid) | KEvent::WakeTimer(tid) => {
                self.threads[tid.index()].timer_token = EventToken::NONE;
                self.wake_thread(tid);
            }
            KEvent::ComputeDone(tid) => self.on_compute_done(tid),
            KEvent::SpinExpire(tid) => self.on_spin_expire(tid),
            KEvent::Tick(cpu) => self.on_tick(cpu as usize),
            KEvent::IrqDone(cpu) => self.on_irq_done(cpu as usize),
            KEvent::DeviceIrq {
                cpu,
                duration,
                source,
            } => self.on_device_irq(cpu as usize, duration, &source),
            KEvent::Abort(tid) => self.force_abort(tid),
        }
        // Tickless idle-balance kick: if the event enqueued work that a
        // parked CPU could pull, re-arm that CPU so it gets the same
        // tick (at the same grid instant) an eager kernel would have
        // used to pull it. Events that enqueued nothing cannot have made
        // a parked CPU pullable, so they skip the scan.
        if self.config.tickless && std::mem::take(&mut self.kick_pending) && self.queued_total > 0 {
            for ci in 0..self.cpus.len() {
                if !self.cpus[ci].tick_armed
                    && self.cpus[ci].current.is_none()
                    && self.any_pullable(ci)
                {
                    self.arm_tick(ci);
                }
            }
        }
        self.prof_exit(Phase::Dispatch);
    }

    /// Fold a dispatched event into the attached sanitizer, firing its
    /// chaos hook (one synthetic device IRQ, now) when armed.
    fn sanitize_event(&mut self, ev: &KEvent) {
        let now = self.now();
        let rec = match ev {
            KEvent::Start(tid) => EventRecord {
                kind: EventKind::Start,
                cpu: None,
                thread: Some(tid.0),
                time: now,
                duration_ns: 0,
                source: None,
            },
            KEvent::WakeTimer(tid) => EventRecord {
                kind: EventKind::WakeTimer,
                cpu: None,
                thread: Some(tid.0),
                time: now,
                duration_ns: 0,
                source: None,
            },
            KEvent::ComputeDone(tid) => EventRecord {
                kind: EventKind::ComputeDone,
                cpu: None,
                thread: Some(tid.0),
                time: now,
                duration_ns: 0,
                source: None,
            },
            KEvent::SpinExpire(tid) => EventRecord {
                kind: EventKind::SpinExpire,
                cpu: None,
                thread: Some(tid.0),
                time: now,
                duration_ns: 0,
                source: None,
            },
            KEvent::Tick(cpu) => EventRecord {
                kind: EventKind::Tick,
                cpu: Some(*cpu),
                thread: None,
                time: now,
                duration_ns: 0,
                source: None,
            },
            KEvent::IrqDone(cpu) => EventRecord {
                kind: EventKind::IrqDone,
                cpu: Some(*cpu),
                thread: None,
                time: now,
                duration_ns: 0,
                source: None,
            },
            KEvent::DeviceIrq {
                cpu,
                duration,
                source,
            } => EventRecord {
                kind: EventKind::DeviceIrq,
                cpu: Some(*cpu),
                thread: None,
                time: now,
                duration_ns: duration.nanos(),
                source: Some(source),
            },
            KEvent::Abort(tid) => EventRecord {
                kind: EventKind::Abort,
                cpu: None,
                thread: Some(tid.0),
                time: now,
                duration_ns: 0,
                source: None,
            },
        };
        let perturb = self
            .sanitizer
            .as_mut()
            .map(|s| s.observe(&rec))
            .unwrap_or(false);
        if perturb {
            self.queue.schedule(
                now,
                KEvent::DeviceIrq {
                    cpu: 0,
                    duration: SimDuration(1_000),
                    source: "sanitizer:perturb".into(),
                },
            );
        }
    }

    /// Pre-schedule a device interrupt on `cpu` at time `at`. Used by
    /// noise sources to model interrupt storms; recorded as `irq_noise`.
    pub fn inject_irq(
        &mut self,
        cpu: CpuId,
        at: SimTime,
        duration: SimDuration,
        source: impl Into<Box<str>>,
    ) {
        let at = at.max(self.now());
        self.queue.schedule(
            at,
            KEvent::DeviceIrq {
                cpu: cpu.0,
                duration,
                source: source.into(),
            },
        );
    }

    fn on_device_irq(&mut self, ci: usize, duration: SimDuration, source: &str) {
        let now = self.now();
        let mut stall = duration.nanos();
        if self.tracing {
            self.emit(&SchedRecord::Noise {
                cpu: ci as u32,
                class: NoiseClass::Irq,
                source,
                thread: None,
                start: now,
                duration_ns: duration.nanos(),
            });
            stall += self.config.trace_event_overhead.nanos();
        }
        self.emit(&SchedRecord::IrqSpan {
            cpu: ci as u32,
            time: now,
            duration_ns: stall,
            source,
            softirq: false,
        });
        self.cpus[ci].irq_ns += stall;
        if let Some(tid) = self.cpus[ci].current {
            self.charge_runtime(tid);
        }
        let end = now + SimDuration(stall);
        if end > self.cpus[ci].irq_until {
            self.cpus[ci].irq_until = end;
            self.queue.cancel(self.cpus[ci].irq_token);
            self.cpus[ci].irq_token = self.queue.schedule(end, KEvent::IrqDone(ci as u32));
        }
        if self.cpus[ci].current.is_some() {
            self.recompute_rates_for(ci);
        }
    }

    fn on_compute_done(&mut self, tid: ThreadId) {
        let now = self.now();
        let i = tid.index();
        self.threads[i].compute_token = EventToken::NONE;
        if self.threads[i].state != ThreadState::Running {
            // Stale event (should have been cancelled).
            debug_assert!(false, "ComputeDone for non-running {tid}");
            return;
        }
        if let Some(c) = self.computes[i].as_mut() {
            c.advance_to(now);
            debug_assert!(
                c.remaining < 1.0 && c.overhead_ns < 1.0,
                "ComputeDone fired early for {tid}: remaining={} overhead={}",
                c.remaining,
                c.overhead_ns
            );
        }
        self.charge_runtime(tid);
        self.clear_compute(i);
        let cpu = self.threads[i]
            .cpu
            .expect("running thread without cpu")
            .index();
        self.recompute_rates_for(cpu);
        self.step_behavior(tid);
    }

    fn on_spin_expire(&mut self, tid: ThreadId) {
        let now = self.now();
        let i = tid.index();
        self.threads[i].spin_token = EventToken::NONE;
        if !self.threads[i].spinning {
            return; // already released
        }
        // Give up spinning: block off-CPU.
        self.threads[i].spinning = false;
        match self.threads[i].state {
            ThreadState::Running => {
                let cpu = self.threads[i].cpu.unwrap().index();
                self.off_cpu(tid, ThreadState::Blocked);
                self.clear_compute(i);
                self.recompute_rates_for(cpu);
                self.dispatch(cpu);
            }
            ThreadState::Ready => {
                // Preempted while spinning; remove from the runqueue.
                let cpu = self.threads[i].cpu.unwrap().index();
                self.dequeue_ready(cpu, tid);
                self.note_dequeue(cpu, tid);
                self.clear_compute(i);
                self.threads[i].state = ThreadState::Blocked;
                self.threads[i].cpu = None;
                let _ = now;
            }
            _ => {}
        }
    }

    fn on_tick(&mut self, ci: usize) {
        let now = self.now();
        self.cpus[ci].tick_armed = false;

        // Fault hook: a lost timer interrupt. The handler never runs —
        // no IRQ service, no noise draws, no preemption check — but the
        // hardware timer keeps its grid, so the CPU re-arms (or parks)
        // exactly as it would after a serviced tick.
        if self.fault_lost_tick() {
            if !self.config.tickless || self.cpus[ci].current.is_some() || self.any_pullable(ci) {
                self.arm_tick(ci);
            }
            return;
        }

        if self.cpus[ci].current.is_some() {
            // --- timer interrupt service (busy CPU) ---------------------
            // Only busy CPUs take the timer IRQ and its noise draws, so
            // the RNG stream and traces are identical whether or not
            // idle CPUs tick.
            let irq_ns = self
                .rng
                .normal_min(
                    self.config.timer_irq_mean.nanos() as f64,
                    self.config.timer_irq_sd.nanos() as f64,
                    200.0,
                )
                .round() as u64;
            let mut stall = irq_ns;

            let softirq = if self.rng.chance(self.config.softirq_prob) {
                let s = self
                    .rng
                    .exp(self.config.softirq_mean.nanos() as f64)
                    .round()
                    .max(200.0) as u64;
                self.softirq_flip = !self.softirq_flip;
                let src = if self.softirq_flip {
                    "RCU:9"
                } else {
                    "SCHED:7"
                };
                Some((s, src))
            } else {
                None
            };

            if self.tracing {
                self.emit(&SchedRecord::Noise {
                    cpu: ci as u32,
                    class: NoiseClass::Irq,
                    source: "local_timer:236",
                    thread: None,
                    start: now,
                    duration_ns: irq_ns,
                });
                if let Some((s, src)) = softirq {
                    self.emit(&SchedRecord::Noise {
                        cpu: ci as u32,
                        class: NoiseClass::Softirq,
                        source: src,
                        thread: None,
                        start: now + SimDuration(irq_ns),
                        duration_ns: s,
                    });
                }
            }
            self.emit(&SchedRecord::IrqSpan {
                cpu: ci as u32,
                time: now,
                duration_ns: irq_ns,
                source: "local_timer:236",
                softirq: false,
            });
            if let Some((s, src)) = softirq {
                self.emit(&SchedRecord::IrqSpan {
                    cpu: ci as u32,
                    time: now + SimDuration(irq_ns),
                    duration_ns: s,
                    source: src,
                    softirq: true,
                });
                stall += s;
            }
            // Charge deferred trace-write overhead plus this tick's records.
            if self.tracing {
                let deferred = std::mem::take(&mut self.pending_trace_ns[ci]);
                let records = 1 + u64::from(softirq.is_some());
                stall += deferred + records * self.config.trace_event_overhead.nanos();
            }

            self.cpus[ci].irq_ns += stall;
            // Freeze the running thread's progress for the IRQ window.
            if let Some(tid) = self.cpus[ci].current {
                self.charge_runtime(tid);
            }
            let end = now + SimDuration(stall);
            if end > self.cpus[ci].irq_until {
                self.cpus[ci].irq_until = end;
                self.queue.cancel(self.cpus[ci].irq_token);
                self.cpus[ci].irq_token = self.queue.schedule(end, KEvent::IrqDone(ci as u32));
            }
            // The busy tick is the periodic governor/thermal evaluation
            // point (runtime was just charged, so heat is current); the
            // recompute below then applies any new frequency.
            self.dvfs_eval(ci);
            self.recompute_rates_for(ci);
        } else {
            // --- periodic idle balancing --------------------------------
            // An idle CPU's tick is a pure dispatch attempt so it can
            // pull queued work from loaded CPUs (the tick-driven load
            // balancing of real kernels). No IRQ is modelled and no
            // noise is drawn: the idle tick must be side-effect-free so
            // that parking it (tickless) cannot change busy-CPU state.
            self.dispatch(ci);
        }

        // --- scheduler tick: fair-class preemption ----------------------
        if let Some(cur) = self.cpus[ci].current {
            let cur_t = &self.threads[cur.index()];
            if !cur_t.policy.is_rt() {
                let ran = now.since(cur_t.on_cpu_since);
                if ran >= self.config.min_granularity {
                    if let Some((v, _)) = self.cpus[ci].cfs.peek() {
                        if v < cur_t.vruntime {
                            self.note_decision(ci, DecisionPoint::TickPreempt);
                            self.preempt_current(ci);
                            self.dispatch(ci);
                        }
                    }
                }
            }
        }

        // --- re-arm or park ---------------------------------------------
        // Eager mode always re-arms. Tickless keeps ticking while the
        // CPU is busy or there is queued work it could still pull;
        // otherwise the tick parks until dispatch or the idle-balance
        // kick in `handle` re-arms it.
        if !self.config.tickless || self.cpus[ci].current.is_some() || self.any_pullable(ci) {
            self.arm_tick(ci);
        }
    }

    /// Schedule the next tick for `ci` at the first point of its fixed
    /// grid strictly after `now`, unless one is already pending. The
    /// grid (boot offset + k * period) is mode-independent, so a CPU
    /// re-armed after parking ticks at exactly the instants it would
    /// have ticked at had it never parked.
    fn arm_tick(&mut self, ci: usize) {
        if self.cpus[ci].tick_armed {
            return;
        }
        let period = self.machine.tick_period.nanos();
        let n = self.cpus.len() as u64;
        let offset = period * (ci as u64 + 1) / (n + 1);
        let now = self.now().0;
        let mut next = if now < offset {
            offset
        } else {
            offset + ((now - offset) / period + 1) * period
        };
        // Fault hook: a late timer expiry pushes this tick off its grid
        // slot by a bounded random delay.
        next += self.fault_tick_delay();
        self.queue.schedule(SimTime(next), KEvent::Tick(ci as u32));
        self.cpus[ci].tick_armed = true;
    }

    /// Draw the lost-tick dice from the fault stream. A plan with a
    /// zero probability draws nothing, so plans differing only in other
    /// fault knobs keep their streams aligned.
    #[inline]
    fn fault_lost_tick(&mut self) -> bool {
        let Some(f) = self.faults.as_mut() else {
            return false;
        };
        if f.lost_tick_prob <= 0.0 || !f.rng.chance(f.lost_tick_prob) {
            return false;
        }
        f.stats.lost_ticks += 1;
        true
    }

    /// Draw the late-tick delay (ns) from the fault stream; zero when
    /// the tick fires on its grid slot.
    #[inline]
    fn fault_tick_delay(&mut self) -> u64 {
        let Some(f) = self.faults.as_mut() else {
            return 0;
        };
        if f.late_tick_prob <= 0.0 || !f.rng.chance(f.late_tick_prob) {
            return 0;
        }
        f.stats.late_ticks += 1;
        1 + f.rng.below(f.late_tick_max_ns.max(1))
    }

    /// Whether an idle-balance pull on `ci` could ever succeed: some
    /// queued thread's affinity admits this CPU. Deliberately looser
    /// than [`Self::try_steal`]'s NUMA thresholds — the CPU keeps
    /// ticking until the pull actually succeeds, exactly as an eager
    /// kernel would keep attempting it every tick.
    fn any_pullable(&self, ci: usize) -> bool {
        if !self.config.idle_balance || self.queued_total == 0 {
            return false;
        }
        let me = CpuId(ci as u32);
        self.cpus.iter().any(|c| {
            c.rt.iter()
                .any(|(_, t)| self.threads[t.index()].affinity.contains(me))
                || c.cfs
                    .iter()
                    .any(|(_, t)| self.threads[t.index()].affinity.contains(me))
        })
    }

    fn on_irq_done(&mut self, ci: usize) {
        self.cpus[ci].irq_token = EventToken::NONE;
        // Rates were zeroed for this CPU's thread; restore them.
        self.recompute_rates_for(ci);
    }

    /// Fault injection: tear `tid` down mid-region as if it crashed.
    /// The thread exits through the ordinary descheduling paths from
    /// whatever state it is in; it is removed from runqueues, wait
    /// queues and barrier arrival lists, so peers that depend on it
    /// block forever (the deadlock the harness then reports).
    fn force_abort(&mut self, tid: ThreadId) {
        let now = self.now();
        let i = tid.index();
        if self.threads[i].state == ThreadState::Exited {
            return; // already exited (or aborted twice)
        }
        // A dead thread never arrives at its barrier or wait queue.
        match self.threads[i].block_reason {
            BlockReason::Barrier(b) => self.barriers[b.0 as usize].waiting.retain(|&t| t != tid),
            BlockReason::Wait(wq) => self.waitqs[wq.0 as usize].waiters.retain(|&t| t != tid),
            BlockReason::None | BlockReason::Direct => {}
        }
        match self.threads[i].state {
            ThreadState::Running => {
                let cpu = self.threads[i]
                    .cpu
                    .expect("running thread without cpu")
                    .index();
                self.off_cpu(tid, ThreadState::Exited);
                self.clear_compute(i);
                self.seal_aborted(tid, now);
                self.recompute_rates_for(cpu);
                self.dispatch(cpu);
            }
            ThreadState::Ready => {
                let cpu = self.threads[i]
                    .cpu
                    .expect("ready thread without cpu")
                    .index();
                self.dequeue_ready(cpu, tid);
                self.note_dequeue(cpu, tid);
                self.threads[i].state = ThreadState::Exited;
                self.threads[i].cpu = None;
                self.clear_compute(i);
                self.seal_aborted(tid, now);
            }
            ThreadState::New | ThreadState::Sleeping | ThreadState::Blocked => {
                self.threads[i].state = ThreadState::Exited;
                self.threads[i].cpu = None;
                self.clear_compute(i);
                self.seal_aborted(tid, now);
            }
            ThreadState::Exited => unreachable!(),
        }
    }

    /// Common tail of [`Self::force_abort`]: cancel pending events,
    /// stamp the exit, drop the behavior, and record the casualty.
    fn seal_aborted(&mut self, tid: ThreadId, now: SimTime) {
        let i = tid.index();
        self.queue.cancel(self.threads[i].timer_token);
        self.queue.cancel(self.threads[i].compute_token);
        self.queue.cancel(self.threads[i].spin_token);
        self.threads[i].timer_token = EventToken::NONE;
        self.threads[i].compute_token = EventToken::NONE;
        self.threads[i].spin_token = EventToken::NONE;
        self.threads[i].spinning = false;
        self.threads[i].block_reason = BlockReason::None;
        self.threads[i].exit_time = Some(now);
        self.behaviors[i] = None;
        self.aborted.push(tid);
        if let Some(f) = self.faults.as_mut() {
            f.stats.aborted_threads += 1;
        }
    }

    // ------------------------------------------------------------------
    // Wake-up and placement
    // ------------------------------------------------------------------

    fn wake_thread(&mut self, tid: ThreadId) {
        let i = tid.index();
        match self.threads[i].state {
            ThreadState::New | ThreadState::Sleeping | ThreadState::Blocked => {}
            // Spurious wake of a runnable/exited thread: ignore.
            _ => return,
        }
        self.threads[i].block_reason = BlockReason::None;
        let (cpu, placement) = self.select_rq(tid);
        self.note_decision(cpu.index(), placement);
        if let Some(last) = self.threads[i].last_cpu {
            if last != cpu {
                self.threads[i].pending_migration = true;
            }
        }
        self.threads[i].state = ThreadState::Ready;
        self.threads[i].cpu = Some(cpu);
        self.enqueue(cpu.index(), tid);
        self.check_preempt(cpu.index(), tid);
    }

    /// Wake placement, mirroring Linux `select_idle_sibling`: prefer a
    /// fully idle physical core (previous CPU first) over an idle CPU
    /// whose sibling is busy, then the previous CPU if merely idle, then
    /// any idle CPU, then the least loaded allowed CPU. Deterministic:
    /// ties break on lowest CPU id. The idle-core preference is what
    /// routes unpinned noise onto housekeeping cores instead of the SMT
    /// siblings of busy workload cores.
    ///
    /// Returns the chosen CPU together with the placement branch taken,
    /// so the caller can announce the decision point.
    fn select_rq(&self, tid: ThreadId) -> (CpuId, DecisionPoint) {
        let t = &self.threads[tid.index()];
        let allowed = t.affinity.intersection(self.machine.all_cpus());
        assert!(!allowed.is_empty(), "thread {} has empty affinity", t.name);

        let is_idle = |c: CpuId| self.cpus[c.index()].nr_running() == 0;
        let core_idle = |c: CpuId| {
            is_idle(c)
                && match self.machine.sibling_of(c) {
                    Some(sib) => is_idle(sib),
                    None => true,
                }
        };

        if let Some(last) = t.last_cpu {
            if allowed.contains(last) && core_idle(last) {
                return (last, DecisionPoint::PlaceLastCore);
            }
        }
        // Any fully idle physical core — preferring the previous NUMA
        // domain (Linux searches the LLC domain first).
        let home = t.last_cpu.map(|c| self.machine.domain_of(c));
        let mut idle_any: Option<CpuId> = None;
        let mut idle_core_remote: Option<CpuId> = None;
        for c in allowed.iter() {
            if !is_idle(c) {
                continue;
            }
            if idle_any.is_none() {
                idle_any = Some(c);
            }
            if core_idle(c) {
                match home {
                    Some(h) if self.machine.domain_of(c) != h => {
                        if idle_core_remote.is_none() {
                            idle_core_remote = Some(c);
                        }
                    }
                    _ => return (c, DecisionPoint::PlaceHomeIdleCore),
                }
            }
        }
        if let Some(c) = idle_core_remote {
            return (c, DecisionPoint::PlaceRemoteIdleCore);
        }
        // Previous CPU if idle (cache affinity), else any idle CPU.
        if let Some(last) = t.last_cpu {
            if allowed.contains(last) && is_idle(last) {
                return (last, DecisionPoint::PlaceLastIdle);
            }
        }
        if let Some(c) = idle_any {
            return (c, DecisionPoint::PlaceAnyIdle);
        }
        // Least loaded.
        let mut best = allowed.first().unwrap();
        let mut best_load = usize::MAX;
        for c in allowed.iter() {
            let load = self.cpus[c.index()].nr_running();
            if load < best_load {
                best_load = load;
                best = c;
            }
        }
        (best, DecisionPoint::PlaceLeastLoaded)
    }

    fn enqueue(&mut self, ci: usize, tid: ThreadId) {
        let i = tid.index();
        debug_assert_eq!(self.threads[i].state, ThreadState::Ready);
        match self.threads[i].policy {
            Policy::Fifo { prio } => self.cpus[ci].rt.enqueue(prio, tid),
            Policy::Other { .. } => {
                // Floor the vruntime so sleepers cannot starve the queue.
                let floor = self.cpus[ci].cfs.min_vruntime;
                if self.threads[i].vruntime < floor {
                    self.threads[i].vruntime = floor;
                }
                self.cpus[ci].cfs.enqueue(self.threads[i].vruntime, tid);
            }
        }
        self.queued_total += 1;
        self.kick_pending = true;
        let depth = (self.cpus[ci].rt.len() + self.cpus[ci].cfs.len()) as u32;
        self.emit(&SchedRecord::Enqueue {
            cpu: ci as u32,
            thread: tid.0,
            time: self.queue.now(),
            depth,
        });
    }

    fn dequeue_ready(&mut self, ci: usize, tid: ThreadId) {
        let i = tid.index();
        let removed = match self.threads[i].policy {
            Policy::Fifo { .. } => self.cpus[ci].rt.remove(tid),
            Policy::Other { .. } => self.cpus[ci].cfs.dequeue(self.threads[i].vruntime, tid),
        };
        debug_assert!(removed, "thread {tid} not found in runqueue {ci}");
        if removed {
            self.queued_total -= 1;
        }
    }

    /// Should the newly enqueued `tid` preempt the current thread?
    fn check_preempt(&mut self, ci: usize, tid: ThreadId) {
        match self.cpus[ci].current {
            None => self.dispatch(ci),
            Some(cur) => {
                // Use up-to-date vruntime for the comparison.
                self.charge_runtime(cur);
                let new_t = &self.threads[tid.index()];
                let cur_t = &self.threads[cur.index()];
                let should = match (new_t.policy, cur_t.policy) {
                    (Policy::Fifo { prio: np }, Policy::Fifo { prio: cp }) => np > cp,
                    (Policy::Fifo { .. }, Policy::Other { .. }) => true,
                    (Policy::Other { .. }, Policy::Fifo { .. }) => false,
                    (Policy::Other { .. }, Policy::Other { .. }) => {
                        new_t.vruntime + self.config.wakeup_granularity.nanos() < cur_t.vruntime
                    }
                };
                self.note_decision(
                    ci,
                    if should {
                        DecisionPoint::WakePreempt
                    } else {
                        DecisionPoint::WakeNoPreempt
                    },
                );
                if should {
                    self.preempt_current(ci);
                    self.dispatch(ci);
                }
            }
        }
    }

    // ------------------------------------------------------------------
    // Dispatch / deschedule
    // ------------------------------------------------------------------

    /// Take the current thread off the CPU into `new_state`, charging its
    /// runtime and recording thread-noise if applicable. Does not requeue.
    fn off_cpu(&mut self, tid: ThreadId, new_state: ThreadState) {
        let now = self.now();
        let i = tid.index();
        debug_assert_eq!(self.threads[i].state, ThreadState::Running);
        self.charge_runtime(tid);
        let cpu = self.threads[i].cpu.expect("running thread without cpu");
        debug_assert_eq!(self.cpus[cpu.index()].current, Some(tid));

        // osnoise-style thread noise: a non-workload thread leaving the
        // CPU ends an interference interval.
        if self.threads[i].kind != ThreadKind::Workload {
            let start = self.threads[i].on_cpu_since;
            let dur = now.since(start);
            if self.tracing && dur > SimDuration::ZERO {
                // The record borrows the thread's name while `emit`
                // borrows the kernel; lend the name out for the call.
                let name = std::mem::take(&mut self.threads[i].name);
                self.emit(&SchedRecord::Noise {
                    cpu: cpu.0,
                    class: NoiseClass::Thread,
                    source: &name,
                    thread: Some(tid.0),
                    start,
                    duration_ns: dur.nanos(),
                });
                self.threads[i].name = name;
                self.pending_trace_ns[cpu.index()] += self.config.trace_event_overhead.nanos();
            }
        }

        self.emit(&SchedRecord::SwitchOut {
            cpu: cpu.0,
            thread: tid.0,
            time: now,
            state: new_state,
        });

        if self.computes[i].is_some() {
            self.running.remove(cpu.index());
            if self.thread_demands_bw(i) {
                self.bw_running -= 1;
            }
        }
        self.cpus[cpu.index()].current = None;
        self.threads[i].last_cpu = Some(cpu);
        self.threads[i].state = new_state;
        self.threads[i].cpu = if new_state == ThreadState::Ready {
            Some(cpu)
        } else {
            None
        };
        // Cancel any pending completion; it will be rescheduled on resume.
        self.queue.cancel(self.threads[i].compute_token);
        self.threads[i].compute_token = EventToken::NONE;
        if let Some(c) = self.computes[i].as_mut() {
            // Credit progress at the old rate before the thread stops.
            c.advance_to(now);
            c.rate = 0.0;
        }
    }

    /// Preempt the current thread (stays runnable, requeued here).
    fn preempt_current(&mut self, ci: usize) {
        let Some(tid) = self.cpus[ci].current else {
            return;
        };
        self.off_cpu(tid, ThreadState::Ready);
        self.threads[tid.index()].stats.preemptions += 1;
        self.emit(&SchedRecord::Preempt {
            cpu: ci as u32,
            thread: tid.0,
            time: self.queue.now(),
        });
        self.enqueue(ci, tid);
        self.recompute_rates_for(ci);
    }

    /// Announce a scheduler decision point to the attached observer.
    /// Pure observation: no kernel state is read back.
    #[inline]
    fn note_decision(&mut self, ci: usize, point: DecisionPoint) {
        self.emit(&SchedRecord::Decision {
            cpu: ci as u32,
            time: self.queue.now(),
            point,
        });
    }

    #[inline]
    fn note_dequeue(&mut self, ci: usize, tid: ThreadId) {
        self.emit(&SchedRecord::Dequeue {
            cpu: ci as u32,
            thread: tid.0,
            time: self.queue.now(),
        });
    }

    /// Pick and start the next thread on CPU `ci`.
    fn dispatch(&mut self, ci: usize) {
        debug_assert!(self.cpus[ci].current.is_none());
        self.prof_enter(Phase::Scheduler);
        let mut from_rt = false;
        let local = self.cpus[ci]
            .rt
            .pop()
            .map(|(_, t)| {
                from_rt = true;
                t
            })
            .or_else(|| self.cpus[ci].cfs.pop().map(|(_, t)| t));
        if local.is_some() {
            self.queued_total -= 1;
        }
        let stolen = local.is_none();
        let next = local.or_else(|| self.try_steal(ci));
        let Some(tid) = next else {
            self.cpus[ci].cfs.refresh_floor(None);
            self.note_decision(ci, DecisionPoint::PickNone);
            self.dvfs_idle(ci);
            self.prof_exit(Phase::Scheduler);
            return;
        };
        self.note_decision(
            ci,
            if stolen {
                DecisionPoint::PickSteal
            } else if from_rt {
                DecisionPoint::PickRt
            } else {
                DecisionPoint::PickFair
            },
        );
        let now = self.now();
        let i = tid.index();
        debug_assert_eq!(self.threads[i].state, ThreadState::Ready);
        self.cpus[ci].current = Some(tid);
        if self.computes[i].is_some() {
            self.running.insert(ci, i);
            if self.thread_demands_bw(i) {
                self.bw_running += 1;
            }
        }
        // A busy CPU always ticks; re-arm if this CPU had parked.
        self.arm_tick(ci);
        // Idle-to-busy governor evaluation (the previous occupant, if
        // any, was charged in `off_cpu`, so heat and cycles are
        // current). Emitted before `SwitchIn` so a replay of the record
        // stream sees the new frequency from the very start of the
        // stint.
        self.dvfs_eval(ci);
        self.threads[i].state = ThreadState::Running;
        self.threads[i].cpu = Some(CpuId(ci as u32));
        self.threads[i].on_cpu_since = now;
        self.threads[i].charged_until = now;
        self.threads[i].stats.switches += 1;

        let mut overhead = self.machine.ctx_switch.nanos() as f64;
        if self.threads[i].pending_migration {
            self.threads[i].pending_migration = false;
            self.threads[i].stats.migrations += 1;
            let mut cost = self.machine.migration_cost.nanos() as f64;
            let mut cross_numa = false;
            // Crossing a NUMA domain costs a remote cache refill.
            if let Some(prev) = self.threads[i].last_cpu {
                if !self.machine.same_domain(prev, CpuId(ci as u32)) {
                    cost *= noiselab_machine::machine::NUMA_MIGRATION_FACTOR;
                    self.threads[i].stats.numa_migrations += 1;
                    cross_numa = true;
                }
            }
            self.emit(&SchedRecord::Migrate {
                thread: tid.0,
                to_cpu: ci as u32,
                time: now,
                cross_numa,
            });
            overhead += cost;
        }
        self.threads[i].pending_overhead_ns += overhead;
        self.threads[i].last_cpu = Some(CpuId(ci as u32));

        let runq_depth = (self.cpus[ci].rt.len() + self.cpus[ci].cfs.len()) as u32;
        // Lend the name out for the call, as in `off_cpu`.
        let name = std::mem::take(&mut self.threads[i].name);
        self.emit(&SchedRecord::SwitchIn {
            cpu: ci as u32,
            thread: tid.0,
            name: &name,
            kind: self.threads[i].kind,
            time: now,
            runq_depth,
        });
        self.threads[i].name = name;
        self.prof_exit(Phase::Scheduler);

        if self.computes[i].is_some() {
            let pending = std::mem::take(&mut self.threads[i].pending_overhead_ns);
            let c = self.computes[i].as_mut().unwrap();
            c.overhead_ns += pending;
            c.last_update = now;
            self.recompute_rates_for(ci);
        } else {
            self.step_behavior(tid);
        }
    }

    /// Idle balancing: pull a waiting thread from the busiest CPU that
    /// has queued work this CPU is allowed to run.
    fn try_steal(&mut self, ci: usize) -> Option<ThreadId> {
        if !self.config.idle_balance {
            return None;
        }
        let this_cpu = CpuId(ci as u32);
        let mut best: Option<(usize, ThreadId, bool)> = None; // (score, tid, is_rt)
        for v in 0..self.cpus.len() {
            if v == ci {
                continue;
            }
            let mut queued = self.cpus[v].rt.len() + self.cpus[v].cfs.len();
            if queued == 0 {
                continue;
            }
            // NUMA-reluctant balancing: a remote domain only looks
            // attractive when clearly overloaded (Linux's imbalance
            // thresholds between sched domains).
            if !self.machine.same_domain(this_cpu, CpuId(v as u32)) {
                if queued < 2 {
                    continue;
                }
                queued -= 1;
            }
            if let Some((cur_q, _, _)) = best {
                if queued <= cur_q {
                    continue;
                }
            }
            // RT first (RT pull), then the CFS tail task.
            let mut candidate: Option<(ThreadId, bool)> = None;
            for (_, t) in self.cpus[v].rt.iter() {
                if self.threads[t.index()].affinity.contains(this_cpu) {
                    candidate = Some((t, true));
                    break;
                }
            }
            if candidate.is_none() {
                for (_, t) in self.cpus[v].cfs.iter().rev() {
                    if self.threads[t.index()].affinity.contains(this_cpu) {
                        candidate = Some((t, false));
                        break;
                    }
                }
            }
            if let Some((t, rt)) = candidate {
                best = Some((queued, t, rt));
            }
        }
        let Some((_, tid, rt)) = best else {
            self.note_decision(ci, DecisionPoint::StealNone);
            return None;
        };
        self.note_decision(
            ci,
            if rt {
                DecisionPoint::StealRt
            } else {
                DecisionPoint::StealFair
            },
        );
        let victim = self.threads[tid.index()]
            .cpu
            .expect("queued thread without cpu")
            .index();
        self.dequeue_ready(victim, tid);
        self.threads[tid.index()].pending_migration = true;
        self.threads[tid.index()].cpu = Some(this_cpu);
        Some(tid)
    }

    // ------------------------------------------------------------------
    // Behavior stepping
    // ------------------------------------------------------------------

    /// Ask `tid`'s behavior for actions until one blocks (or the thread
    /// is descheduled by a side effect of an instant action).
    fn step_behavior(&mut self, tid: ThreadId) {
        self.step_depth += 1;
        assert!(self.step_depth < 256, "behavior recursion too deep");
        let mut instants = 0u32;
        loop {
            let i = tid.index();
            if self.threads[i].state != ThreadState::Running || self.computes[i].is_some() {
                break;
            }
            let mut b = self.behaviors[i]
                .take()
                .unwrap_or_else(|| panic!("thread {} has no behavior", self.threads[i].name));
            let action = {
                let mut ctx = Ctx {
                    now: self.now(),
                    tid,
                    cpu: self.threads[i].cpu,
                    rng: &mut self.rng,
                };
                b.next(&mut ctx)
            };
            // The behavior slot may be consumed by Exit below.
            self.behaviors[i] = Some(b);
            instants += 1;
            assert!(
                instants <= self.config.max_instant_actions,
                "thread {} looped on instant actions",
                self.threads[i].name
            );
            if self.apply_action(tid, action) {
                break;
            }
        }
        self.step_depth -= 1;
    }

    /// Apply one action. Returns `true` if the action blocks (stop
    /// stepping), `false` if it completed instantly.
    fn apply_action(&mut self, tid: ThreadId, action: Action) -> bool {
        let now = self.now();
        let i = tid.index();
        match action {
            Action::Compute(w) => {
                let solo = self.machine.perf.solo(&w);
                self.install_compute(tid, solo, solo.solo_ns, false);
                true
            }
            Action::Burn(d) => {
                let ns = d.nanos() as f64;
                let solo = SoloProfile {
                    solo_ns: ns,
                    cpu_ns: ns,
                    bw_demand: 0.0,
                };
                self.install_compute(tid, solo, ns, false);
                true
            }
            Action::BurnWall(d) => {
                // Occupancy is modelled as pure overhead: it burns at
                // rate 1 whenever the thread is on-CPU, independent of
                // SMT contention.
                let solo = SoloProfile {
                    solo_ns: 1.0,
                    cpu_ns: 0.0,
                    bw_demand: 0.0,
                };
                self.threads[i].pending_overhead_ns += d.nanos() as f64;
                self.install_compute(tid, solo, 0.0, false);
                true
            }
            Action::SleepUntil(t) => {
                if t <= now {
                    return false;
                }
                let cpu = self.threads[i].cpu.unwrap().index();
                self.off_cpu(tid, ThreadState::Sleeping);
                self.clear_compute(i);
                let token = self.queue.schedule(t, KEvent::WakeTimer(tid));
                self.threads[i].timer_token = token;
                self.recompute_rates_for(cpu);
                self.dispatch(cpu);
                true
            }
            Action::SleepFor(d) => self.apply_action(tid, Action::SleepUntil(now + d)),
            Action::Barrier { id, spin } => self.barrier_arrive(tid, id, spin),
            Action::WaitOn { wq, spin } => {
                self.waitqs[wq.0 as usize].waiters.push_back(tid);
                self.start_waiting(tid, BlockReason::Wait(wq), spin);
                true
            }
            Action::Notify { wq, count } => {
                for _ in 0..count {
                    let Some(w) = self.waitqs[wq.0 as usize].waiters.pop_front() else {
                        break;
                    };
                    self.resume_waiter(w);
                }
                false
            }
            Action::Wake(other) => {
                match self.threads[other.index()].state {
                    ThreadState::Sleeping => {
                        self.queue.cancel(self.threads[other.index()].timer_token);
                        self.threads[other.index()].timer_token = EventToken::NONE;
                        self.wake_thread(other);
                    }
                    ThreadState::Blocked => {
                        // Remove from any wait queue it may be in.
                        if let BlockReason::Wait(wq) = self.threads[other.index()].block_reason {
                            self.waitqs[wq.0 as usize].waiters.retain(|&t| t != other);
                        }
                        self.wake_thread(other);
                    }
                    _ => {}
                }
                false
            }
            Action::SetPolicy(p) => {
                self.threads[i].policy = p;
                self.emit(&SchedRecord::PolicySwitch {
                    thread: tid.0,
                    time: now,
                    rt: p.is_rt(),
                });
                // A demotion may make a queued task preferable.
                if let Some(cpu) = self.threads[i].cpu {
                    self.resched_if_needed(cpu.index());
                }
                false
            }
            Action::SetAffinity(mask) => {
                assert!(!mask.intersection(self.machine.all_cpus()).is_empty());
                self.threads[i].affinity = mask;
                if let Some(cpu) = self.threads[i].cpu {
                    if !mask.contains(cpu) && self.threads[i].state == ThreadState::Running {
                        // Forced migration off this CPU.
                        let ci = cpu.index();
                        self.off_cpu(tid, ThreadState::Ready);
                        let (target, placement) = self.select_rq(tid);
                        self.note_decision(target.index(), placement);
                        self.threads[i].pending_migration = true;
                        self.threads[i].cpu = Some(target);
                        self.enqueue(target.index(), tid);
                        self.recompute_rates_for(ci);
                        self.dispatch(ci);
                        self.check_preempt(target.index(), tid);
                    }
                }
                false
            }
            Action::Yield => {
                let cpu = self.threads[i].cpu.unwrap().index();
                let has_other = !self.cpus[cpu].rt.is_empty() || !self.cpus[cpu].cfs.is_empty();
                if !has_other {
                    return false; // nothing to yield to
                }
                self.off_cpu(tid, ThreadState::Ready);
                self.threads[i].stats.switches += 1;
                self.enqueue(cpu, tid);
                self.recompute_rates_for(cpu);
                self.dispatch(cpu);
                true
            }
            Action::Exit => {
                let cpu = self.threads[i].cpu.unwrap().index();
                self.off_cpu(tid, ThreadState::Exited);
                self.clear_compute(i);
                self.threads[i].exit_time = Some(now);
                self.queue.cancel(self.threads[i].timer_token);
                self.queue.cancel(self.threads[i].spin_token);
                self.behaviors[i] = None;
                self.recompute_rates_for(cpu);
                self.dispatch(cpu);
                true
            }
        }
    }

    /// Re-evaluate whether the current thread on `ci` should yield to a
    /// queued one (after a policy change).
    fn resched_if_needed(&mut self, ci: usize) {
        let Some(cur) = self.cpus[ci].current else {
            return;
        };
        let cur_t = &self.threads[cur.index()];
        let preferred = if let Some((p, _)) = self.cpus[ci].rt.peek() {
            match cur_t.policy {
                Policy::Fifo { prio } => p > prio,
                Policy::Other { .. } => true,
            }
        } else {
            false
        };
        if preferred {
            self.preempt_current(ci);
            self.dispatch(ci);
        }
    }

    fn install_compute(&mut self, tid: ThreadId, solo: SoloProfile, remaining: f64, spin: bool) {
        let now = self.now();
        let i = tid.index();
        debug_assert_eq!(self.threads[i].state, ThreadState::Running);
        let overhead = std::mem::take(&mut self.threads[i].pending_overhead_ns);
        let had_bw = self.thread_demands_bw(i);
        self.computes[i] = Some(ActiveCompute {
            solo,
            remaining,
            rate: 0.0,
            last_update: now,
            overhead_ns: overhead,
        });
        match (had_bw, solo.bw_demand > 0.0) {
            (false, true) => self.bw_running += 1,
            (true, false) => self.bw_running -= 1,
            _ => {}
        }
        self.threads[i].spinning = spin;
        let cpu = self.threads[i]
            .cpu
            .expect("running thread without cpu")
            .index();
        self.running.insert(cpu, i);
        self.recompute_rates_for(cpu);
    }

    // ------------------------------------------------------------------
    // Barriers and wait queues
    // ------------------------------------------------------------------

    /// Returns `true` if the action blocks.
    fn barrier_arrive(&mut self, tid: ThreadId, id: BarrierId, spin: SimDuration) -> bool {
        let b = &mut self.barriers[id.0 as usize];
        if b.waiting.len() + 1 == b.parties {
            // Last arrival: release everyone; this thread passes through.
            let waiters = std::mem::take(&mut b.waiting);
            for w in waiters {
                self.resume_waiter(w);
            }
            false
        } else {
            b.waiting.push(tid);
            self.start_waiting(tid, BlockReason::Barrier(id), spin);
            true
        }
    }

    /// Begin waiting: spin on-CPU for `spin`, then block.
    fn start_waiting(&mut self, tid: ThreadId, reason: BlockReason, spin: SimDuration) {
        let now = self.now();
        let i = tid.index();
        self.threads[i].block_reason = reason;
        if spin > SimDuration::ZERO {
            // Busy-wait: occupies the CPU (and its SMT capacity).
            let solo = SoloProfile {
                solo_ns: f64::INFINITY,
                cpu_ns: 1.0,
                bw_demand: 0.0,
            };
            self.install_compute(tid, solo, f64::INFINITY, true);
            let token = self.queue.schedule(now + spin, KEvent::SpinExpire(tid));
            self.threads[i].spin_token = token;
        } else {
            let cpu = self.threads[i].cpu.unwrap().index();
            self.off_cpu(tid, ThreadState::Blocked);
            self.clear_compute(i);
            self.recompute_rates_for(cpu);
            self.dispatch(cpu);
        }
    }

    /// A barrier released or a notify arrived for `w`.
    fn resume_waiter(&mut self, w: ThreadId) {
        let now = self.now();
        let i = w.index();
        self.queue.cancel(self.threads[i].spin_token);
        self.threads[i].spin_token = EventToken::NONE;
        self.threads[i].block_reason = BlockReason::None;
        match self.threads[i].state {
            ThreadState::Running => {
                // Spinning: proceeds immediately on its CPU.
                debug_assert!(self.threads[i].spinning);
                self.threads[i].spinning = false;
                self.charge_runtime(w);
                self.clear_compute(i);
                let cpu = self.threads[i]
                    .cpu
                    .expect("running thread without cpu")
                    .index();
                self.recompute_rates_for(cpu);
                self.step_behavior(w);
            }
            ThreadState::Ready => {
                // Preempted spinner: clear the spin; it proceeds when
                // dispatched.
                self.threads[i].spinning = false;
                self.clear_compute(i);
            }
            ThreadState::Blocked => {
                // Blocked: wake-up latency applies.
                let token = self
                    .queue
                    .schedule(now + self.machine.wake_latency, KEvent::WakeTimer(w));
                self.threads[i].timer_token = token;
            }
            _ => {}
        }
    }

    // ------------------------------------------------------------------
    // Accounting and rates
    // ------------------------------------------------------------------

    /// Charge on-CPU time since `charged_until` to vruntime and stats.
    fn charge_runtime(&mut self, tid: ThreadId) {
        let now = self.now();
        let i = tid.index();
        if self.threads[i].state != ThreadState::Running {
            return;
        }
        let from = self.threads[i]
            .charged_until
            .max(self.threads[i].on_cpu_since);
        let delta = now.since(from);
        if delta > SimDuration::ZERO {
            self.threads[i].charge_vruntime(delta);
            self.threads[i].stats.cpu_ns += delta.nanos();
            if let Some(cpu) = self.threads[i].cpu {
                self.cpus[cpu.index()].busy_ns += delta.nanos();
                // DVFS cycle/heat accounting shares the single charge
                // site, so every frequency-change point (which charges
                // first) sees exact totals at the old frequency.
                if let Some(d) = self.dvfs.as_mut() {
                    d.charge(cpu.index(), delta.nanos(), now);
                }
                if !self.threads[i].policy.is_rt() {
                    let v = self.threads[i].vruntime;
                    self.cpus[cpu.index()].cfs.refresh_floor(Some(v));
                }
            }
        }
        self.threads[i].charged_until = now;
    }

    /// SMT/IRQ/frequency throughput factor for the compute running on
    /// `ci`. Frequency multiplies in here (and nowhere else), so both
    /// the rate and the water-fill demand paths see it consistently; a
    /// disabled DVFS axis contributes exactly nothing.
    fn compute_factor(&self, ci: usize, now: SimTime) -> f64 {
        let mut factor = 1.0;
        if let Some(sib) = self.machine.sibling_of(CpuId(ci as u32)) {
            if let Some(sib_cur) = self.cpus[sib.index()].current {
                if self.computes[sib_cur.index()].is_some() && !self.cpus[sib.index()].in_irq(now) {
                    factor = self.machine.perf.smt_factor;
                }
            }
        }
        if let Some(d) = self.dvfs.as_ref() {
            factor *= d.factor(ci);
        }
        if self.cpus[ci].in_irq(now) {
            factor = 0.0;
        }
        factor
    }

    // ------------------------------------------------------------------
    // DVFS
    // ------------------------------------------------------------------

    /// Governor/thermal evaluation for a busy CPU (dispatch pick, busy
    /// tick). A single `None` check when the axis is disabled.
    fn dvfs_eval(&mut self, ci: usize) {
        if self.dvfs.is_none() {
            return;
        }
        let now = self.now();
        let depth = (self.cpus[ci].rt.len() + self.cpus[ci].cfs.len()) as u32;
        // A throttle exit needs the window start before `eval` closes it.
        let d = self.dvfs.as_ref().unwrap();
        let window_start = d.is_throttled(ci).then(|| d.throttle_since(ci));
        let out = self.dvfs.as_mut().unwrap().eval(ci, now, depth);
        if let Some((heat_milli, entered)) = out.throttle {
            self.note_decision(
                ci,
                if entered {
                    DecisionPoint::ThrottleEnter
                } else {
                    DecisionPoint::ThrottleExit
                },
            );
            self.emit(&SchedRecord::Throttle {
                cpu: ci as u32,
                time: now,
                heat_milli,
                entered,
            });
            // A closed throttle window is an interference interval like
            // any other: report it to the osnoise tracer so the advisor
            // can blame "dvfs:throttle" per (source, CPU).
            if !entered && self.tracing {
                if let Some(start) = window_start {
                    self.pending_trace_ns[ci] += self.config.trace_event_overhead.nanos();
                    self.emit(&SchedRecord::Noise {
                        cpu: ci as u32,
                        class: NoiseClass::Thread,
                        source: "dvfs:throttle",
                        thread: None,
                        start,
                        duration_ns: now.nanos() - start.nanos(),
                    });
                }
            }
        }
        if let Some((from_khz, to_khz, why)) = out.transition {
            self.note_decision(ci, why);
            self.emit(&SchedRecord::FreqTransition {
                cpu: ci as u32,
                time: now,
                from_khz,
                to_khz,
            });
        }
    }

    /// Idle-entry frequency drop (dispatch found nothing runnable).
    /// Redundant calls — an idle CPU's tick-driven dispatch attempts —
    /// are no-ops that touch no DVFS state, preserving eager/tickless
    /// equivalence.
    fn dvfs_idle(&mut self, ci: usize) {
        let now = self.now();
        let Some((from_khz, to_khz)) = self.dvfs.as_mut().and_then(|d| d.idle(ci, now)) else {
            return;
        };
        self.note_decision(ci, DecisionPoint::FreqIdle);
        self.emit(&SchedRecord::FreqTransition {
            cpu: ci as u32,
            time: now,
            from_khz,
            to_khz,
        });
    }

    /// End-of-run DVFS summary (cycle totals, transition and throttle
    /// counts), when the axis is enabled.
    pub fn dvfs_summary(&self) -> Option<crate::dvfs::DvfsSummary> {
        self.dvfs.as_ref().map(|d| d.summary(self.now()))
    }

    /// Current frequency of a CPU in kHz, when DVFS is enabled.
    pub fn cpu_khz(&self, cpu: CpuId) -> Option<u32> {
        self.dvfs.as_ref().map(|d| d.khz(cpu.index()))
    }

    /// Set `tid`'s rate and (re)schedule its completion. When the rate is
    /// unchanged and the completion event is still armed, the previously
    /// scheduled event time remains exact, so skip the heap churn — the
    /// dominant cost in steady state.
    fn apply_rate(&mut self, ti: usize, factor: f64, rate: f64, now: SimTime) {
        let c = self.computes[ti].as_mut().unwrap();
        let unchanged = (c.rate - rate).abs() <= 1e-12 * rate.max(1.0);
        c.rate = rate;
        if unchanged && self.threads[ti].compute_token != EventToken::NONE {
            return;
        }
        let c = self.computes[ti].as_ref().unwrap();
        let eta = if factor == 0.0 { None } else { c.eta_ns() };
        let tid = ThreadId(ti as u32);
        self.queue.cancel(self.threads[ti].compute_token);
        self.threads[ti].compute_token = match eta {
            Some(ns) => self
                .queue
                .schedule(now + SimDuration(ns.max(1)), KEvent::ComputeDone(tid)),
            None => EventToken::NONE,
        };
    }

    /// Does thread `i` hold a compute that demands memory bandwidth?
    #[inline]
    fn thread_demands_bw(&self, i: usize) -> bool {
        self.computes[i]
            .as_ref()
            .is_some_and(|c| c.solo.bw_demand > 0.0)
    }

    /// Clear thread `i`'s compute, keeping [`Self::bw_running`] and the
    /// running set in sync when the thread is some CPU's current
    /// occupant (paths that go through `off_cpu` first have already
    /// updated both there).
    fn clear_compute(&mut self, i: usize) {
        let was_bw = self.thread_demands_bw(i);
        let had = self.computes[i].take().is_some();
        if had {
            if let Some(c) = self.threads[i].cpu {
                if self.cpus[c.index()].current == Some(ThreadId(i as u32)) {
                    self.running.remove(c.index());
                    if was_bw {
                        self.bw_running -= 1;
                    }
                }
            }
        }
    }

    /// Does any running compute demand memory bandwidth? When none does,
    /// the water-fill couples nothing and rate changes stay local to a
    /// CPU and its SMT sibling. O(1) via the maintained counter; debug
    /// builds cross-check it against the definitional scan.
    fn bw_demand_active(&self) -> bool {
        debug_assert_eq!(
            self.bw_running > 0,
            self.cpus
                .iter()
                .any(|c| { c.current.is_some_and(|t| self.thread_demands_bw(t.index())) }),
            "bw_running counter drifted from the running set"
        );
        self.bw_running > 0
    }

    /// Recompute rates after a change confined to CPU `ci` (its current
    /// thread, compute, or IRQ window changed). When no running compute
    /// demands bandwidth, only `ci` and its SMT sibling can be affected,
    /// so the global pass — with its all-CPU scan and water-fill — is
    /// skipped. Falls back to [`Self::recompute_rates`] otherwise; both
    /// paths produce bit-identical rates.
    fn recompute_rates_for(&mut self, ci: usize) {
        if self.bw_demand_active() {
            // Bandwidth couples rates through the waterfill; but while
            // the fill is unsaturated every allocation is a bit-exact
            // copy of its demand, so the update stays local to `ci` and
            // its sibling (see recompute_rates_local). Outside that
            // regime — or before a full pass has primed the demand
            // cache — fall back to the global pass.
            if self.scratch.cache_valid && self.scratch.cache_unsaturated {
                self.recompute_rates_local(ci);
            } else {
                self.recompute_rates();
            }
            return;
        }
        // No demand cached below, so the next bandwidth-active
        // recompute must start with a full pass.
        self.scratch.cache_valid = false;
        let now = self.now();
        let sib = self.machine.sibling_of(CpuId(ci as u32)).map(|c| c.index());
        for cpu in [Some(ci), sib].into_iter().flatten() {
            let Some(tid) = self.cpus[cpu].current else {
                continue;
            };
            let ti = tid.index();
            if self.computes[ti].is_none() {
                continue;
            }
            self.computes[ti].as_mut().unwrap().advance_to(now);
            let factor = self.compute_factor(cpu, now);
            let rate = {
                let c = self.computes[ti].as_ref().unwrap();
                // No bandwidth demand anywhere, so the allocation is 0.
                self.machine.perf.rate(&c.solo, factor, 0.0)
            };
            self.apply_rate(ti, factor, rate, now);
        }
    }

    /// Waterfill demand of the compute currently on `cpu`, exactly as
    /// [`Self::recompute_rates`] would feed it to the fill: zero unless
    /// the compute can run (`factor > 0`) and wants bandwidth.
    fn waterfill_demand(&self, cpu: usize, now: SimTime) -> f64 {
        let Some(tid) = self.cpus[cpu].current else {
            return 0.0;
        };
        let Some(c) = self.computes[tid.index()].as_ref() else {
            return 0.0;
        };
        let factor = self.compute_factor(cpu, now);
        if factor > 0.0 && c.solo.bw_demand > 0.0 {
            let r_up = if c.solo.cpu_ns > 0.0 {
                (factor * c.solo.solo_ns / c.solo.cpu_ns).min(1.0)
            } else {
                1.0
            };
            c.solo.bw_demand * r_up
        } else {
            0.0
        }
    }

    /// Bandwidth-active local fast path for a change confined to CPU
    /// `ci`. Valid only while the waterfill is unsaturated before *and*
    /// after the change: then `alloc[k] == demands[k]` bit-for-bit
    /// (see `waterfill_into`), and since an unaffected CPU's factor
    /// inputs are unchanged between recomputes (any event that changes
    /// them recomputes that CPU), its demand, allocation and rate are
    /// bit-identical to what the full pass would produce — so only `ci`
    /// and its SMT sibling need their rate re-applied. Progress is
    /// still advanced on *every* running compute, in the same order as
    /// the full pass: interval splitting is not associative in f64, so
    /// skipping an advance would change rounding downstream.
    fn recompute_rates_local(&mut self, ci: usize) {
        let now = self.now();
        {
            let (running, computes) = (&self.running, &mut self.computes);
            running.for_each(|_, ti| computes[ti].as_mut().unwrap().advance_to(now));
        }
        let sib = self.machine.sibling_of(CpuId(ci as u32)).map(|c| c.index());
        for cpu in [Some(ci), sib].into_iter().flatten() {
            self.scratch.demand_by_cpu[cpu] = self.waterfill_demand(cpu, now);
        }
        // Saturation check with the same value sequence the full pass
        // would sum (running-set order is CPU-index order there too).
        let mut total = 0.0;
        {
            let (running, demand) = (&self.running, &self.scratch.demand_by_cpu);
            running.for_each(|cpu, _| total += demand[cpu]);
        }
        // Negated so a NaN total falls into the conservative branch.
        let unsaturated = total <= self.machine.perf.socket_bw;
        if !unsaturated {
            // Transitioned into saturation: allocations now couple
            // globally. The duplicate advances above are exact no-ops.
            self.recompute_rates();
            return;
        }
        for cpu in [Some(ci), sib].into_iter().flatten() {
            let Some(tid) = self.cpus[cpu].current else {
                continue;
            };
            let ti = tid.index();
            if self.computes[ti].is_none() {
                continue;
            }
            let factor = self.compute_factor(cpu, now);
            let alloc = self.scratch.demand_by_cpu[cpu];
            let rate = {
                let c = self.computes[ti].as_ref().unwrap();
                self.machine.perf.rate(&c.solo, factor, alloc)
            };
            self.apply_rate(ti, factor, rate, now);
        }
    }

    /// Recompute execution rates for every running compute and reschedule
    /// completion events. Called whenever the set of running threads, the
    /// IRQ state, or SMT occupancy changes in a way that is not confined
    /// to one CPU (see [`Self::recompute_rates_for`]).
    fn recompute_rates(&mut self) {
        let now = self.now();
        // Collect running (tid, cpu) pairs with active computes into the
        // reusable scratch (CPU-index order), driven by the incrementally
        // maintained running-set mask rather than a scan of every CPU.
        {
            let (running, scratch) = (&self.running, &mut self.scratch);
            scratch.running.clear();
            running.for_each(|ci, ti| scratch.running.push((ti, ci)));
        }
        #[cfg(debug_assertions)]
        {
            let mut scan = Vec::new();
            for (ci, cpu) in self.cpus.iter().enumerate() {
                if let Some(tid) = cpu.current {
                    if self.computes[tid.index()].is_some() {
                        scan.push((tid.index(), ci));
                    }
                }
            }
            debug_assert_eq!(
                self.scratch.running, scan,
                "running-set mask drifted from the definitional scan"
            );
        }
        let n = self.scratch.running.len();
        // First pass: advance progress at old rates.
        for k in 0..n {
            let (ti, _) = self.scratch.running[k];
            self.computes[ti].as_mut().unwrap().advance_to(now);
        }
        // Compute factors (SMT) and bandwidth demands.
        self.scratch.factors.clear();
        self.scratch.factors.resize(n, 0.0);
        self.scratch.demands.clear();
        self.scratch.demands.resize(n, 0.0);
        let mut any_demand = false;
        for k in 0..n {
            let (ti, ci) = self.scratch.running[k];
            let factor = self.compute_factor(ci, now);
            self.scratch.factors[k] = factor;
            let c = self.computes[ti].as_ref().unwrap();
            if factor > 0.0 && c.solo.bw_demand > 0.0 {
                // Upper-bound rate if bandwidth were free.
                let r_up = if c.solo.cpu_ns > 0.0 {
                    (factor * c.solo.solo_ns / c.solo.cpu_ns).min(1.0)
                } else {
                    1.0
                };
                self.scratch.demands[k] = c.solo.bw_demand * r_up;
                any_demand = true;
            }
        }
        // Water-fill only when some compute actually wants bandwidth;
        // with all-zero demands every allocation is zero anyway.
        let unsaturated = if any_demand {
            waterfill_into(
                &self.scratch.demands,
                self.machine.perf.socket_bw,
                &mut self.scratch.allocs,
                &mut self.scratch.order,
            )
        } else {
            self.scratch.allocs.clear();
            self.scratch.allocs.resize(n, 0.0);
            true
        };
        // Prime the per-CPU demand cache for the local fast path.
        let n_cpus = self.cpus.len();
        self.scratch.demand_by_cpu.clear();
        self.scratch.demand_by_cpu.resize(n_cpus, 0.0);
        for k in 0..n {
            let (_, ci) = self.scratch.running[k];
            self.scratch.demand_by_cpu[ci] = self.scratch.demands[k];
        }
        self.scratch.cache_unsaturated = unsaturated;
        self.scratch.cache_valid = true;
        // Second pass: set new rates and (re)schedule completions.
        for k in 0..n {
            let (ti, _) = self.scratch.running[k];
            let factor = self.scratch.factors[k];
            let alloc = self.scratch.allocs[k];
            let rate = {
                let c = self.computes[ti].as_ref().unwrap();
                self.machine.perf.rate(&c.solo, factor, alloc)
            };
            self.apply_rate(ti, factor, rate, now);
        }
    }
}
