//! The `osnoise`-style tracer: a [`KernelObserver`] that accumulates
//! the kernel's [`SchedRecord::Noise`] records as [`TraceEvent`]s for
//! one run and ignores the rest of the observation stream.
//!
//! Like the real ftrace ring buffer, the tracer's capacity is bounded:
//! once full, further events are *dropped* and counted per CPU instead
//! of recorded, and the resulting [`RunTrace`] is flagged degraded so
//! analysis can down-weight it. Dropping cannot change simulated
//! timing — the kernel charges `trace_event_overhead` for every noise
//! record independent of what the tracer does with it — so bounding
//! the buffer never perturbs a run, it only truncates its observation.
//!
//! Because [`noiselab_kernel::Kernel::attach_tracer`] takes a boxed trait
//! object, the tracer shares its buffer through an `Rc<RefCell<..>>`
//! handle so the harness can read the trace after the run without
//! downcasting.

use crate::trace::{RunTrace, TraceEvent};
use noiselab_kernel::{
    InternTable, KernelObserver, NoiseClass, SchedRecord, WireRecord, WIRE_NO_THREAD,
};
use noiselab_machine::CpuId;
use noiselab_sim::{SimDuration, SimTime};
use std::cell::RefCell;
use std::rc::Rc;

/// Default ring-buffer capacity (events). Far above what any natural
/// run in this workspace emits (tens of thousands), so only fault
/// plans or deliberately tiny buffers cause drops.
pub const DEFAULT_TRACE_CAPACITY: usize = 1 << 18;

struct BufferInner {
    /// Recorded events in the shared compact wire encoding: `tag` is
    /// the [`NoiseClass`] discriminant, `name` indexes `intern`.
    /// Recording is a fixed-width push — the owned-`String` form the
    /// analysis layer wants is materialized once, at [`TraceBuffer::
    /// take_trace`] time, not per event.
    events: Vec<WireRecord>,
    intern: InternTable,
    capacity: usize,
    /// Per-CPU drop counters, grown on demand (index = cpu id).
    dropped: Vec<u64>,
    /// Every noise record offered, recorded or not.
    emitted: u64,
}

fn class_tag(class: NoiseClass) -> u8 {
    match class {
        NoiseClass::Irq => 0,
        NoiseClass::Softirq => 1,
        NoiseClass::Thread => 2,
    }
}

fn class_from_tag(tag: u8) -> NoiseClass {
    match tag {
        0 => NoiseClass::Irq,
        1 => NoiseClass::Softirq,
        _ => NoiseClass::Thread,
    }
}

/// Shared buffer handle.
#[derive(Clone)]
pub struct TraceBuffer {
    inner: Rc<RefCell<BufferInner>>,
}

impl Default for TraceBuffer {
    fn default() -> Self {
        Self::with_capacity(DEFAULT_TRACE_CAPACITY)
    }
}

impl TraceBuffer {
    pub fn new() -> Self {
        Self::default()
    }

    /// A buffer that records at most `capacity` events and counts the
    /// rest as dropped.
    pub fn with_capacity(capacity: usize) -> Self {
        TraceBuffer {
            inner: Rc::new(RefCell::new(BufferInner {
                events: Vec::new(),
                intern: InternTable::new(),
                capacity,
                dropped: Vec::new(),
                emitted: 0,
            })),
        }
    }

    /// Number of events recorded so far.
    pub fn len(&self) -> usize {
        self.inner.borrow().events.len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total events offered to the buffer (recorded + dropped).
    pub fn emitted(&self) -> u64 {
        self.inner.borrow().emitted
    }

    /// Total events dropped on overflow.
    pub fn dropped(&self) -> u64 {
        self.inner.borrow().dropped.iter().sum()
    }

    /// Empty the buffer and counters (keeping the ring's and intern
    /// table's allocations) and set the overflow capacity — the
    /// arena-reuse hook: a retained buffer reset this way behaves
    /// exactly like a fresh [`TraceBuffer::with_capacity`].
    pub fn reset(&self, capacity: usize) {
        let mut b = self.inner.borrow_mut();
        b.events.clear();
        b.intern.clear();
        b.capacity = capacity;
        b.dropped.clear();
        b.emitted = 0;
    }

    /// Drain the buffer into a [`RunTrace`], carrying the drop
    /// accounting; counters reset for the next run.
    pub fn take_trace(&self, run_index: usize, exec_time: SimDuration) -> RunTrace {
        let mut b = self.inner.borrow_mut();
        let dropped_by_cpu: Vec<(u32, u64)> = b
            .dropped
            .iter()
            .enumerate()
            .filter(|(_, &d)| d > 0)
            .map(|(cpu, &d)| (cpu as u32, d))
            .collect();
        let dropped_events: u64 = dropped_by_cpu.iter().map(|&(_, d)| d).sum();
        b.dropped.clear();
        b.emitted = 0;
        let events = b
            .events
            .iter()
            .map(|w| TraceEvent {
                cpu: CpuId(w.cpu),
                class: class_from_tag(w.tag),
                source: b
                    .intern
                    .get(w.name)
                    .expect("tracer intern table missing an id it issued")
                    .to_string(),
                start: SimTime(w.start),
                duration: SimDuration(w.dur_ns),
            })
            .collect();
        b.events.clear();
        b.intern.clear();
        RunTrace {
            run_index,
            exec_time,
            events,
            dropped_events,
            dropped_by_cpu,
            degraded: dropped_events > 0,
        }
    }
}

/// The tracer to attach to a kernel. Create with [`OsNoiseTracer::new`],
/// keep the [`TraceBuffer`] handle, box the tracer into the kernel.
pub struct OsNoiseTracer {
    buffer: TraceBuffer,
}

impl OsNoiseTracer {
    /// Returns the tracer and the shared buffer handle, at the default
    /// capacity.
    pub fn new() -> (OsNoiseTracer, TraceBuffer) {
        Self::with_capacity(DEFAULT_TRACE_CAPACITY)
    }

    /// A tracer whose ring buffer holds at most `capacity` events.
    pub fn with_capacity(capacity: usize) -> (OsNoiseTracer, TraceBuffer) {
        let buffer = TraceBuffer::with_capacity(capacity);
        (Self::from_buffer(buffer.clone()), buffer)
    }

    /// A tracer appending into an existing buffer — the arena-reuse
    /// hook: a repetition loop keeps one [`TraceBuffer`] and re-attaches
    /// it run after run, so the ring's allocation stays warm. Callers
    /// reusing a buffer across runs should [`TraceBuffer::reset`] it
    /// first in case the previous run ended without a drain.
    pub fn from_buffer(buffer: TraceBuffer) -> OsNoiseTracer {
        OsNoiseTracer { buffer }
    }
}

impl KernelObserver for OsNoiseTracer {
    fn sched(&mut self, rec: &SchedRecord<'_>) {
        let SchedRecord::Noise {
            cpu,
            class,
            source,
            thread,
            start,
            duration_ns,
        } = *rec
        else {
            return;
        };
        let mut b = self.buffer.inner.borrow_mut();
        b.emitted += 1;
        if b.events.len() < b.capacity {
            let name = b.intern.intern(source);
            b.events.push(WireRecord {
                start: start.0,
                dur_ns: duration_ns,
                cpu,
                thread: thread.unwrap_or(WIRE_NO_THREAD),
                name,
                tag: class_tag(class),
            });
        } else {
            let ci = cpu as usize;
            if b.dropped.len() <= ci {
                b.dropped.resize(ci + 1, 0);
            }
            b.dropped[ci] += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn noise(
        cpu: u32,
        class: NoiseClass,
        source: &str,
        thread: Option<u32>,
        start: u64,
        dur: u64,
    ) -> SchedRecord<'_> {
        SchedRecord::Noise {
            cpu,
            class,
            source,
            thread,
            start: SimTime(start),
            duration_ns: dur,
        }
    }

    #[test]
    fn records_and_drains() {
        let (mut tracer, buf) = OsNoiseTracer::new();
        tracer.sched(&noise(
            5,
            NoiseClass::Irq,
            "local_timer:236",
            None,
            100,
            310,
        ));
        tracer.sched(&noise(
            1,
            NoiseClass::Thread,
            "kworker/u129:5",
            Some(9),
            200,
            5830,
        ));
        assert_eq!(buf.len(), 2);
        assert_eq!(buf.emitted(), 2);
        assert_eq!(buf.dropped(), 0);
        let trace = buf.take_trace(7, SimDuration(1_000));
        assert_eq!(trace.run_index, 7);
        assert_eq!(trace.events.len(), 2);
        assert_eq!(trace.events[0].source, "local_timer:236");
        assert!(!trace.degraded);
        assert!(buf.is_empty(), "buffer should be drained");
    }

    #[test]
    fn overflow_drops_and_flags_degraded() {
        let (mut tracer, buf) = OsNoiseTracer::with_capacity(3);
        for i in 0..10u32 {
            tracer.sched(&noise(
                i % 2,
                NoiseClass::Irq,
                "nic:77",
                None,
                i as u64 * 100,
                10,
            ));
        }
        assert_eq!(buf.len(), 3);
        assert_eq!(buf.emitted(), 10);
        assert_eq!(buf.dropped(), 7);
        let trace = buf.take_trace(0, SimDuration(1_000));
        assert!(trace.degraded);
        assert_eq!(trace.dropped_events, 7);
        assert_eq!(trace.events.len() as u64 + trace.dropped_events, 10);
        // Records 0..3 hit CPUs 0,1,0; drops 3..10 hit 1,0,1,0,1,0,1.
        assert_eq!(trace.dropped_by_cpu, vec![(0, 3), (1, 4)]);
        // Counters reset after draining.
        assert_eq!(buf.emitted(), 0);
        assert_eq!(buf.dropped(), 0);
    }
}
