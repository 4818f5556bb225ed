//! Event-stream sanitizer: a running hash over every event the kernel
//! dispatches, with a configurable checkpoint cadence and an optional
//! per-event log window.
//!
//! Two runs of the same (platform, workload, config, seed) must produce
//! byte-for-byte the same event stream; the sanitizer turns that
//! contract into a single `u64` that the harness can record, the
//! campaign driver can checkpoint, and the dual-run bisector in
//! `noiselab-core` can compare checkpoint-by-checkpoint to localise the
//! first divergent event when the contract breaks.
//!
//! The hash is FNV-1a over a fixed-width digest of each event
//! (kind, cpu/thread, timestamp, payload extras): cheap enough to stay
//! on for every run, stable across hosts, and — critically — a pure
//! observer: attaching a sanitizer never changes the simulation
//! (unless the explicit [`SanitizerConfig::perturb_at`] chaos hook is
//! armed, which exists precisely to prove the divergence pipeline
//! works).

use noiselab_sim::SimTime;

/// FNV-1a offset basis / prime (64-bit).
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Fold `bytes` into an FNV-1a hash state.
#[inline]
pub fn fnv1a_extend(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// Hash `bytes` from the standard offset basis.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    fnv1a_extend(FNV_OFFSET, bytes)
}

/// The kind of a dispatched kernel event, as seen by the sanitizer.
/// Mirrors the kernel's internal event enum without exposing payloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    Start,
    WakeTimer,
    ComputeDone,
    SpinExpire,
    Tick,
    IrqDone,
    DeviceIrq,
    Abort,
}

impl EventKind {
    pub fn name(self) -> &'static str {
        match self {
            EventKind::Start => "start",
            EventKind::WakeTimer => "wake-timer",
            EventKind::ComputeDone => "compute-done",
            EventKind::SpinExpire => "spin-expire",
            EventKind::Tick => "tick",
            EventKind::IrqDone => "irq-done",
            EventKind::DeviceIrq => "device-irq",
            EventKind::Abort => "abort",
        }
    }

    /// Stable hash discriminant.
    pub fn tag(self) -> u8 {
        match self {
            EventKind::Start => 1,
            EventKind::WakeTimer => 2,
            EventKind::ComputeDone => 3,
            EventKind::SpinExpire => 4,
            EventKind::Tick => 5,
            EventKind::IrqDone => 6,
            EventKind::DeviceIrq => 7,
            EventKind::Abort => 8,
        }
    }
}

/// One dispatched event, flattened for hashing. Built by the kernel at
/// dispatch time; `source` is borrowed to keep the observer
/// allocation-free outside the log window.
#[derive(Debug, Clone, Copy)]
pub struct EventRecord<'a> {
    pub kind: EventKind,
    /// CPU index for CPU events (tick, IRQ), `None` for thread events.
    pub cpu: Option<u32>,
    /// Thread id for thread events, `None` for CPU events.
    pub thread: Option<u32>,
    /// Virtual dispatch time.
    pub time: SimTime,
    /// Service duration in ns for device IRQs, 0 otherwise.
    pub duration_ns: u64,
    /// Noise-source label for device IRQs.
    pub source: Option<&'a str>,
}

impl EventRecord<'_> {
    /// Fold this event into a running FNV state.
    fn fold(&self, mut h: u64) -> u64 {
        h = fnv1a_extend(h, &[self.kind.tag()]);
        h = fnv1a_extend(h, &self.cpu.unwrap_or(u32::MAX).to_le_bytes());
        h = fnv1a_extend(h, &self.thread.unwrap_or(u32::MAX).to_le_bytes());
        h = fnv1a_extend(h, &self.time.0.to_le_bytes());
        h = fnv1a_extend(h, &self.duration_ns.to_le_bytes());
        if let Some(s) = self.source {
            h = fnv1a_extend(h, s.as_bytes());
        }
        h
    }

    /// Human-readable event description for divergence reports.
    fn describe(&self) -> String {
        let mut s = self.kind.name().to_string();
        if let Some(src) = self.source {
            s.push_str(&format!("({src})"));
        }
        s
    }
}

/// Sanitizer configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SanitizerConfig {
    /// Record a [`HashCheckpoint`] every `cadence` events; 0 disables
    /// checkpointing (running hash only — the always-on harness mode).
    pub cadence: u64,
    /// Log full per-event digests for event indices in `[start, end)`.
    /// Used by the bisector's localisation pass; expensive, off by
    /// default.
    pub window: Option<(u64, u64)>,
    /// Chaos hook: after observing the event with this index, make the
    /// kernel inject one synthetic device IRQ, deliberately forking the
    /// event stream. This is how the dual-run pipeline is tested end to
    /// end — and the only way a sanitizer is not a pure observer.
    pub perturb_at: Option<u64>,
}

impl SanitizerConfig {
    /// Running hash only: the always-on mode the harness attaches to
    /// every run.
    pub fn hash_only() -> Self {
        SanitizerConfig {
            cadence: 0,
            window: None,
            perturb_at: None,
        }
    }

    /// Checkpoints every `cadence` events, no window, no chaos.
    pub fn with_cadence(cadence: u64) -> Self {
        SanitizerConfig {
            cadence,
            window: None,
            perturb_at: None,
        }
    }
}

/// A periodic snapshot of the running hash.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HashCheckpoint {
    /// Number of events folded when the snapshot was taken.
    pub index: u64,
    /// Virtual time of the last folded event.
    pub time: SimTime,
    pub hash: u64,
}

/// A fully described event from the log window.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LoggedEvent {
    /// 0-based dispatch index.
    pub index: u64,
    pub time: SimTime,
    /// `kind` or `kind(source)` for device IRQs.
    pub kind: String,
    pub cpu: Option<u32>,
    pub thread: Option<u32>,
}

impl LoggedEvent {
    /// One-line rendering: `#1234 t=5.2ms cpu3 tick`.
    pub fn render(&self) -> String {
        let loc = match (self.cpu, self.thread) {
            (Some(c), _) => format!("cpu{c}"),
            (None, Some(t)) => format!("thread{t}"),
            (None, None) => "-".into(),
        };
        format!(
            "#{} t={:.6}ms {} {}",
            self.index,
            self.time.0 as f64 / 1e6,
            loc,
            self.kind
        )
    }
}

/// What a finished sanitizer hands back.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SanitizerReport {
    /// Total events folded.
    pub events: u64,
    /// Final running hash.
    pub hash: u64,
    pub checkpoints: Vec<HashCheckpoint>,
    /// Per-event digests for the configured window.
    pub log: Vec<LoggedEvent>,
}

/// The running sanitizer state owned by a kernel.
#[derive(Debug, Clone)]
pub struct EventSanitizer {
    config: SanitizerConfig,
    hash: u64,
    count: u64,
    checkpoints: Vec<HashCheckpoint>,
    log: Vec<LoggedEvent>,
}

impl EventSanitizer {
    pub fn new(config: SanitizerConfig) -> Self {
        EventSanitizer {
            config,
            hash: FNV_OFFSET,
            count: 0,
            checkpoints: Vec::new(),
            log: Vec::new(),
        }
    }

    /// Fold one dispatched event. Returns `true` when the chaos hook
    /// wants the kernel to inject its perturbation now.
    #[inline]
    pub fn observe(&mut self, rec: &EventRecord<'_>) -> bool {
        let index = self.count;
        self.hash = rec.fold(self.hash);
        self.count += 1;
        if self.config.cadence > 0 && self.count.is_multiple_of(self.config.cadence) {
            self.checkpoints.push(HashCheckpoint {
                index: self.count,
                time: rec.time,
                hash: self.hash,
            });
        }
        if let Some((lo, hi)) = self.config.window {
            if (lo..hi).contains(&index) {
                self.log.push(LoggedEvent {
                    index,
                    time: rec.time,
                    kind: rec.describe(),
                    cpu: rec.cpu,
                    thread: rec.thread,
                });
            }
        }
        self.config.perturb_at == Some(index)
    }

    /// Current running hash.
    pub fn hash(&self) -> u64 {
        self.hash
    }

    pub fn into_report(self) -> SanitizerReport {
        SanitizerReport {
            events: self.count,
            hash: self.hash,
            checkpoints: self.checkpoints,
            log: self.log,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(kind: EventKind, cpu: Option<u32>, t: u64) -> EventRecord<'static> {
        EventRecord {
            kind,
            cpu,
            thread: None,
            time: SimTime(t),
            duration_ns: 0,
            source: None,
        }
    }

    #[test]
    fn identical_streams_hash_identically() {
        let mut a = EventSanitizer::new(SanitizerConfig::hash_only());
        let mut b = EventSanitizer::new(SanitizerConfig::hash_only());
        for i in 0..1000u64 {
            let r = rec(EventKind::Tick, Some((i % 4) as u32), i * 100);
            a.observe(&r);
            b.observe(&r);
        }
        assert_eq!(a.hash(), b.hash());
        assert_eq!(a.into_report().events, 1000);
    }

    #[test]
    fn any_field_difference_changes_the_hash() {
        let base = rec(EventKind::Tick, Some(0), 100);
        let variants = [
            rec(EventKind::IrqDone, Some(0), 100),
            rec(EventKind::Tick, Some(1), 100),
            rec(EventKind::Tick, Some(0), 101),
            EventRecord {
                duration_ns: 5,
                ..base
            },
            EventRecord {
                source: Some("nvme"),
                ..base
            },
        ];
        let href = {
            let mut s = EventSanitizer::new(SanitizerConfig::hash_only());
            s.observe(&base);
            s.hash()
        };
        for (i, v) in variants.iter().enumerate() {
            let mut s = EventSanitizer::new(SanitizerConfig::hash_only());
            s.observe(v);
            assert_ne!(s.hash(), href, "variant {i} collided");
        }
    }

    #[test]
    fn checkpoints_land_on_the_cadence_grid() {
        let mut s = EventSanitizer::new(SanitizerConfig::with_cadence(8));
        for i in 0..20u64 {
            s.observe(&rec(EventKind::Tick, Some(0), i));
        }
        let report = s.into_report();
        assert_eq!(report.events, 20);
        let idx: Vec<u64> = report.checkpoints.iter().map(|c| c.index).collect();
        assert_eq!(idx, vec![8, 16]);
    }

    #[test]
    fn window_logs_exactly_its_range() {
        let mut s = EventSanitizer::new(SanitizerConfig {
            cadence: 0,
            window: Some((5, 8)),
            perturb_at: None,
        });
        for i in 0..20u64 {
            s.observe(&rec(EventKind::Tick, Some(0), i));
        }
        let report = s.into_report();
        let idx: Vec<u64> = report.log.iter().map(|e| e.index).collect();
        assert_eq!(idx, vec![5, 6, 7]);
        assert!(report.log[0].render().contains("tick"));
    }

    #[test]
    fn perturb_fires_once_at_its_index() {
        let mut s = EventSanitizer::new(SanitizerConfig {
            cadence: 0,
            window: None,
            perturb_at: Some(3),
        });
        let fired: Vec<bool> = (0..6u64)
            .map(|i| s.observe(&rec(EventKind::Tick, Some(0), i)))
            .collect();
        assert_eq!(fired, vec![false, false, false, true, false, false]);
    }
}
