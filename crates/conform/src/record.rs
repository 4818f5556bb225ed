//! Owned scheduling records, the recording observer, and the
//! mutation-test stream transforms.
//!
//! The kernel's [`SchedRecord`] borrows string fields to stay
//! allocation-free on the hot path; the conformance suite needs an
//! owned, indexable copy of the whole stream to replay it through the
//! oracle and invariants (with lookahead). [`Rec`] is that copy, with
//! the only string field (`source`) collapsed to the one bit the
//! checkers need: whether the span was the local timer interrupt.
//!
//! [`Mutation`] simulates an intentionally buggy scheduler by
//! perturbing a recorded stream before it reaches the checkers — the
//! suite's mutation tests prove each seeded bug is caught by at least
//! one oracle or invariant check.

use noiselab_kernel::{DecisionPoint, KernelObserver, SchedRecord, ThreadKind, ThreadState};
use std::cell::RefCell;
use std::rc::Rc;

/// Source label of the periodic timer interrupt in kernel IRQ spans.
pub const TIMER_SOURCE: &str = "local_timer:236";

/// An owned mirror of [`SchedRecord`].
#[derive(Debug, Clone, PartialEq)]
pub enum Rec {
    SwitchIn {
        cpu: u32,
        thread: u32,
        kind: ThreadKind,
        time: u64,
        runq_depth: u32,
    },
    SwitchOut {
        cpu: u32,
        thread: u32,
        time: u64,
        state: ThreadState,
    },
    Preempt {
        cpu: u32,
        thread: u32,
        time: u64,
    },
    Enqueue {
        cpu: u32,
        thread: u32,
        time: u64,
        depth: u32,
    },
    Dequeue {
        cpu: u32,
        thread: u32,
        time: u64,
    },
    Migrate {
        thread: u32,
        to_cpu: u32,
        time: u64,
        cross_numa: bool,
    },
    IrqSpan {
        cpu: u32,
        time: u64,
        duration_ns: u64,
        timer: bool,
        softirq: bool,
    },
    PolicySwitch {
        thread: u32,
        time: u64,
        rt: bool,
    },
    Decision {
        cpu: u32,
        time: u64,
        point: DecisionPoint,
    },
    FreqTransition {
        cpu: u32,
        time: u64,
        from_khz: u32,
        to_khz: u32,
    },
    Throttle {
        cpu: u32,
        time: u64,
        heat_milli: u64,
        entered: bool,
    },
}

impl Rec {
    pub fn time(&self) -> u64 {
        match *self {
            Rec::SwitchIn { time, .. }
            | Rec::SwitchOut { time, .. }
            | Rec::Preempt { time, .. }
            | Rec::Enqueue { time, .. }
            | Rec::Dequeue { time, .. }
            | Rec::Migrate { time, .. }
            | Rec::IrqSpan { time, .. }
            | Rec::PolicySwitch { time, .. }
            | Rec::Decision { time, .. }
            | Rec::FreqTransition { time, .. }
            | Rec::Throttle { time, .. } => time,
        }
    }

    /// The owned copy of a scheduling record; `None` for the tracer's
    /// noise records, which no checker reads.
    fn from_sched(rec: &SchedRecord<'_>) -> Option<Rec> {
        Some(match *rec {
            SchedRecord::SwitchIn {
                cpu,
                thread,
                kind,
                time,
                runq_depth,
                ..
            } => Rec::SwitchIn {
                cpu,
                thread,
                kind,
                time: time.0,
                runq_depth,
            },
            SchedRecord::SwitchOut {
                cpu,
                thread,
                time,
                state,
            } => Rec::SwitchOut {
                cpu,
                thread,
                time: time.0,
                state,
            },
            SchedRecord::Preempt { cpu, thread, time } => Rec::Preempt {
                cpu,
                thread,
                time: time.0,
            },
            SchedRecord::Enqueue {
                cpu,
                thread,
                time,
                depth,
            } => Rec::Enqueue {
                cpu,
                thread,
                time: time.0,
                depth,
            },
            SchedRecord::Dequeue { cpu, thread, time } => Rec::Dequeue {
                cpu,
                thread,
                time: time.0,
            },
            SchedRecord::Migrate {
                thread,
                to_cpu,
                time,
                cross_numa,
            } => Rec::Migrate {
                thread,
                to_cpu,
                time: time.0,
                cross_numa,
            },
            SchedRecord::IrqSpan {
                cpu,
                time,
                duration_ns,
                source,
                softirq,
            } => Rec::IrqSpan {
                cpu,
                time: time.0,
                duration_ns,
                timer: source == TIMER_SOURCE,
                softirq,
            },
            SchedRecord::PolicySwitch { thread, time, rt } => Rec::PolicySwitch {
                thread,
                time: time.0,
                rt,
            },
            SchedRecord::Decision { cpu, time, point } => Rec::Decision {
                cpu,
                time: time.0,
                point,
            },
            SchedRecord::FreqTransition {
                cpu,
                time,
                from_khz,
                to_khz,
            } => Rec::FreqTransition {
                cpu,
                time: time.0,
                from_khz,
                to_khz,
            },
            SchedRecord::Throttle {
                cpu,
                time,
                heat_milli,
                entered,
            } => Rec::Throttle {
                cpu,
                time: time.0,
                heat_milli,
                entered,
            },
            SchedRecord::Noise { .. } => return None,
        })
    }
}

/// A [`KernelObserver`] that copies every scheduling record into a
/// shared vector.
pub struct Recording {
    out: Rc<RefCell<Vec<Rec>>>,
}

impl Recording {
    /// A fresh recorder plus the store it writes into.
    pub fn new() -> (Recording, Rc<RefCell<Vec<Rec>>>) {
        let store = Rc::new(RefCell::new(Vec::new()));
        (Recording { out: store.clone() }, store)
    }
}

impl KernelObserver for Recording {
    fn sched(&mut self, rec: &SchedRecord<'_>) {
        if let Some(r) = Rec::from_sched(rec) {
            self.out.borrow_mut().push(r);
        }
    }
}

/// An intentionally seeded scheduler bug, expressed as a perturbation
/// of the recorded stream (as if a buggy scheduler had produced it).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mutation {
    /// Swap the threads of the first two fair picks on one CPU: the
    /// scheduler "picked the wrong task". Caught by the oracle's
    /// argmin-vruntime pick check.
    SwapPick,
    /// Drop one timer IRQ span: interrupt time goes unaccounted.
    /// Caught by the osnoise conservation invariant (record sum vs
    /// kernel `irq_ns`).
    DropIrqSpan,
    /// Re-route the first pinned thread's first enqueue to a CPU
    /// outside its affinity mask. Caught by the affinity invariant.
    AffinityBreak,
    /// Duplicate a switch-in without an intervening switch-out: two
    /// threads "running" on one CPU. Caught by the stint-overlap check
    /// of the conservation invariant.
    GhostRun,
    /// Drop the first transition that leaves the turbo frequency: the
    /// governor "forgot" to release the boost (a budget leak on
    /// downclock). Caught by the frequency-chain invariant when the
    /// same CPU later transitions again, and by cycle conservation.
    TurboLeak,
    /// Zero the recorded heat on the first throttle-enter: the thermal
    /// model "tripped" below the configured threshold. Caught by the
    /// hysteresis invariant (enter heat must be at least
    /// `throttle_at`).
    ThrottleEarly,
    /// Duplicate the first boost-to-turbo transition one nanosecond
    /// later: a CPU claims turbo entry from a frequency it no longer
    /// holds. Caught by the frequency-chain invariant.
    GhostTurbo,
    /// Drop the first throttle-exit record: the CPU raises its
    /// frequency while the stream still shows it throttled. Caught by
    /// the no-raise-while-throttled check and throttle alternation.
    ThrottleStuck,
}

impl Mutation {
    pub const ALL: [Mutation; 8] = [
        Mutation::SwapPick,
        Mutation::DropIrqSpan,
        Mutation::AffinityBreak,
        Mutation::GhostRun,
        Mutation::TurboLeak,
        Mutation::ThrottleEarly,
        Mutation::GhostTurbo,
        Mutation::ThrottleStuck,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Mutation::SwapPick => "swap-pick",
            Mutation::DropIrqSpan => "drop-irq-span",
            Mutation::AffinityBreak => "affinity-break",
            Mutation::GhostRun => "ghost-run",
            Mutation::TurboLeak => "turbo-leak",
            Mutation::ThrottleEarly => "throttle-early",
            Mutation::GhostTurbo => "ghost-turbo",
            Mutation::ThrottleStuck => "throttle-stuck",
        }
    }

    pub fn from_name(name: &str) -> Option<Mutation> {
        Mutation::ALL.iter().copied().find(|m| m.name() == name)
    }

    /// Apply the perturbation. `affinity` holds one mask per thread and
    /// `n_cpus` bounds the re-route targets. Returns `true` if the
    /// stream offered an application site (a stream without one yields
    /// no mutant and the caller should try another scenario).
    pub fn apply(self, recs: &mut Vec<Rec>, affinity: &[u64], n_cpus: u32) -> bool {
        match self {
            Mutation::SwapPick => {
                // Two switch-ins of different threads on the same CPU.
                let mut first: Option<(usize, u32, u32)> = None;
                for (i, r) in recs.iter().enumerate() {
                    if let Rec::SwitchIn { cpu, thread, .. } = *r {
                        match first {
                            None => first = Some((i, cpu, thread)),
                            Some((j, c0, t0)) if c0 == cpu && t0 != thread => {
                                let (a, b) = (j, i);
                                let (ta, tb) = (t0, thread);
                                set_switch_in_thread(&mut recs[a], tb);
                                set_switch_in_thread(&mut recs[b], ta);
                                return true;
                            }
                            Some(_) => {}
                        }
                    }
                }
                false
            }
            Mutation::DropIrqSpan => {
                let pos = recs
                    .iter()
                    .position(|r| matches!(r, Rec::IrqSpan { timer: true, .. }));
                match pos {
                    Some(i) => {
                        recs.remove(i);
                        true
                    }
                    None => false,
                }
            }
            Mutation::AffinityBreak => {
                for r in recs.iter_mut() {
                    if let Rec::Enqueue { cpu, thread, .. } = r {
                        let mask = affinity.get(*thread as usize).copied().unwrap_or(u64::MAX);
                        if let Some(bad) = (0..n_cpus).find(|c| mask & (1 << c) == 0) {
                            *cpu = bad;
                            return true;
                        }
                    }
                }
                false
            }
            Mutation::GhostRun => {
                let pos = recs.iter().position(|r| matches!(r, Rec::SwitchIn { .. }));
                match pos {
                    Some(i) => {
                        let mut ghost = recs[i].clone();
                        if let Rec::SwitchIn { time, .. } = &mut ghost {
                            *time += 1;
                        }
                        recs.insert(i + 1, ghost);
                        true
                    }
                    None => false,
                }
            }
            Mutation::TurboLeak => {
                let top = max_khz(recs);
                // A transition leaving turbo, with a later transition on
                // the same CPU so the break in the chain is observable.
                for i in 0..recs.len() {
                    if let Rec::FreqTransition { cpu, from_khz, .. } = recs[i] {
                        if from_khz == top
                            && recs[i + 1..].iter().any(
                                |r| matches!(r, Rec::FreqTransition { cpu: c, .. } if *c == cpu),
                            )
                        {
                            recs.remove(i);
                            return true;
                        }
                    }
                }
                false
            }
            Mutation::ThrottleEarly => {
                for r in recs.iter_mut() {
                    if let Rec::Throttle {
                        heat_milli,
                        entered: true,
                        ..
                    } = r
                    {
                        *heat_milli = 0;
                        return true;
                    }
                }
                false
            }
            Mutation::GhostTurbo => {
                let top = max_khz(recs);
                let pos = recs.iter().position(|r| {
                    matches!(
                        r,
                        Rec::FreqTransition { from_khz, to_khz, .. }
                            if *to_khz == top && *from_khz != *to_khz
                    )
                });
                match pos {
                    Some(i) => {
                        let mut ghost = recs[i].clone();
                        if let Rec::FreqTransition { time, .. } = &mut ghost {
                            *time += 1;
                        }
                        recs.insert(i + 1, ghost);
                        true
                    }
                    None => false,
                }
            }
            Mutation::ThrottleStuck => {
                let pos = recs
                    .iter()
                    .position(|r| matches!(r, Rec::Throttle { entered: false, .. }));
                match pos {
                    Some(i) => {
                        recs.remove(i);
                        true
                    }
                    None => false,
                }
            }
        }
    }
}

/// The highest frequency appearing in any transition record — the
/// stream's own notion of "turbo" (mutations cannot see the config).
fn max_khz(recs: &[Rec]) -> u32 {
    recs.iter()
        .filter_map(|r| match *r {
            Rec::FreqTransition {
                from_khz, to_khz, ..
            } => Some(from_khz.max(to_khz)),
            _ => None,
        })
        .max()
        .unwrap_or(0)
}

fn set_switch_in_thread(rec: &mut Rec, tid: u32) {
    if let Rec::SwitchIn { thread, .. } = rec {
        *thread = tid;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Vec<Rec> {
        vec![
            Rec::Enqueue {
                cpu: 0,
                thread: 0,
                time: 0,
                depth: 1,
            },
            Rec::SwitchIn {
                cpu: 0,
                thread: 0,
                kind: ThreadKind::Workload,
                time: 0,
                runq_depth: 0,
            },
            Rec::IrqSpan {
                cpu: 0,
                time: 50,
                duration_ns: 10,
                timer: true,
                softirq: false,
            },
            Rec::SwitchOut {
                cpu: 0,
                thread: 0,
                time: 100,
                state: ThreadState::Exited,
            },
            Rec::SwitchIn {
                cpu: 0,
                thread: 1,
                kind: ThreadKind::Workload,
                time: 100,
                runq_depth: 0,
            },
        ]
    }

    #[test]
    fn swap_pick_swaps_two_switch_ins() {
        let mut recs = sample();
        assert!(Mutation::SwapPick.apply(&mut recs, &[3, 3], 2));
        assert!(matches!(recs[1], Rec::SwitchIn { thread: 1, .. }));
        assert!(matches!(recs[4], Rec::SwitchIn { thread: 0, .. }));
    }

    #[test]
    fn drop_irq_span_removes_exactly_one_timer_span() {
        let mut recs = sample();
        assert!(Mutation::DropIrqSpan.apply(&mut recs, &[3, 3], 2));
        assert!(recs.iter().all(|r| !matches!(r, Rec::IrqSpan { .. })));
    }

    #[test]
    fn affinity_break_needs_a_pinned_thread() {
        let mut recs = sample();
        // Fully permissive masks: no site to break.
        assert!(!Mutation::AffinityBreak.apply(&mut recs.clone(), &[3, 3], 2));
        // Thread 0 pinned to cpu 1 (mask 0b10): enqueue re-routed to 0.
        assert!(Mutation::AffinityBreak.apply(&mut recs, &[2, 3], 2));
        assert!(matches!(recs[0], Rec::Enqueue { cpu: 0, .. }));
    }

    #[test]
    fn ghost_run_duplicates_a_switch_in() {
        let mut recs = sample();
        assert!(Mutation::GhostRun.apply(&mut recs, &[3, 3], 2));
        let ins = recs
            .iter()
            .filter(|r| matches!(r, Rec::SwitchIn { .. }))
            .count();
        assert_eq!(ins, 3);
    }

    /// A stream with a boost, a throttle episode, and a re-boost.
    fn dvfs_sample() -> Vec<Rec> {
        vec![
            Rec::FreqTransition {
                cpu: 0,
                time: 10,
                from_khz: 800_000,
                to_khz: 5_200_000,
            },
            Rec::Throttle {
                cpu: 0,
                time: 200,
                heat_milli: 2_600_000,
                entered: true,
            },
            Rec::FreqTransition {
                cpu: 0,
                time: 200,
                from_khz: 5_200_000,
                to_khz: 800_000,
            },
            Rec::Throttle {
                cpu: 0,
                time: 400,
                heat_milli: 1_900_000,
                entered: false,
            },
            Rec::FreqTransition {
                cpu: 0,
                time: 400,
                from_khz: 800_000,
                to_khz: 5_200_000,
            },
        ]
    }

    #[test]
    fn dvfs_mutations_need_a_dvfs_stream() {
        // A stream without frequency records offers no site for any of
        // the DVFS mutations.
        for m in [
            Mutation::TurboLeak,
            Mutation::ThrottleEarly,
            Mutation::GhostTurbo,
            Mutation::ThrottleStuck,
        ] {
            let mut recs = sample();
            assert!(!m.apply(&mut recs, &[3, 3], 2), "{}", m.name());
        }
    }

    #[test]
    fn turbo_leak_drops_a_transition_leaving_turbo() {
        let mut recs = dvfs_sample();
        assert!(Mutation::TurboLeak.apply(&mut recs, &[3, 3], 2));
        let freq = recs
            .iter()
            .filter(|r| matches!(r, Rec::FreqTransition { .. }))
            .count();
        assert_eq!(freq, 2);
        assert!(!recs.iter().any(|r| matches!(
            r,
            Rec::FreqTransition {
                from_khz: 5_200_000,
                ..
            }
        )));
    }

    #[test]
    fn throttle_early_zeroes_the_enter_heat() {
        let mut recs = dvfs_sample();
        assert!(Mutation::ThrottleEarly.apply(&mut recs, &[3, 3], 2));
        assert!(matches!(
            recs[1],
            Rec::Throttle {
                heat_milli: 0,
                entered: true,
                ..
            }
        ));
    }

    #[test]
    fn ghost_turbo_duplicates_the_boost() {
        let mut recs = dvfs_sample();
        assert!(Mutation::GhostTurbo.apply(&mut recs, &[3, 3], 2));
        let boosts = recs
            .iter()
            .filter(|r| {
                matches!(
                    r,
                    Rec::FreqTransition {
                        to_khz: 5_200_000,
                        ..
                    }
                )
            })
            .count();
        assert_eq!(boosts, 3);
    }

    #[test]
    fn throttle_stuck_swallows_the_exit() {
        let mut recs = dvfs_sample();
        assert!(Mutation::ThrottleStuck.apply(&mut recs, &[3, 3], 2));
        assert!(!recs
            .iter()
            .any(|r| matches!(r, Rec::Throttle { entered: false, .. })));
    }

    #[test]
    fn every_mutation_round_trips_its_name() {
        for m in Mutation::ALL {
            assert_eq!(Mutation::from_name(m.name()), Some(m));
        }
    }
}
