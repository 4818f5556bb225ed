//! The supervisor: spawn and babysit worker OS processes until the
//! queue settles, then merge.
//!
//! Supervision is intentionally on the *other* side of the determinism
//! contract: heartbeats, timeouts, backoff and chaos kills all read the
//! host wall clock (annotated below), because they govern only **when
//! and by whom** cells are executed — never what they compute. The
//! merged result is checked against per-shard fingerprints and fold
//! hashes, so scheduling mess cannot silently leak into measurements.
//!
//! Failure policy:
//! * a worker that dies holding a shard gets its lease reclaimed and
//!   the shard's persistent crash counter bumped;
//! * the slot respawns under exponential backoff (capped), so a
//!   fast-crashing binary cannot fork-bomb the host;
//! * a shard whose crash count reaches `max_shard_crashes` is
//!   **quarantined** — written durably *before* the lease release so no
//!   other worker can claim it in the gap — and the campaign completes
//!   without it, reporting the lost cells by name;
//! * chaos kills (`chaos_kills > 0`) SIGKILL a worker right after a
//!   `CellDone` on a shard with cells still pending — reliably
//!   mid-shard — and deliberately do **not** count toward quarantine:
//!   they assert crash *recovery*, not shard toxicity.

use crate::merge::{merge_queue, state_hash};
use crate::proto::{parse_frame, WorkerMsg};
use crate::queue::{QuarantineNote, QueueManifest, WorkQueue};
use crate::shard::ShardSpec;
use noiselab_core::CampaignState;
use std::io::BufRead;
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// Knobs of the supervision loop. Defaults suit multi-minute shards;
/// tests and the chaos gate shrink every timeout.
#[derive(Debug, Clone)]
pub struct SupervisorConfig {
    /// Worker process slots (>= 1).
    pub workers: usize,
    /// Kill a worker whose last frame is older than this — frames are
    /// per-cell, so this must exceed the slowest single cell.
    pub heartbeat_timeout: Duration,
    /// Kill a worker that has held one shard longer than this.
    pub shard_timeout: Duration,
    /// Crash count at which a shard is quarantined.
    pub max_shard_crashes: u32,
    /// Base of the per-slot exponential respawn backoff.
    pub respawn_backoff: Duration,
    /// Ceiling of the respawn backoff.
    pub backoff_cap: Duration,
    /// Give up on a slot after this many crash respawns.
    pub max_respawns_per_slot: u32,
    /// Chaos mode: SIGKILL this many workers, each right after a
    /// `CellDone` that leaves its shard unfinished.
    pub chaos_kills: u32,
}

impl Default for SupervisorConfig {
    fn default() -> Self {
        SupervisorConfig {
            workers: 4,
            heartbeat_timeout: Duration::from_secs(120),
            shard_timeout: Duration::from_secs(3600),
            max_shard_crashes: 3,
            respawn_backoff: Duration::from_millis(100),
            backoff_cap: Duration::from_secs(5),
            max_respawns_per_slot: 16,
            chaos_kills: 0,
        }
    }
}

/// What a supervised campaign produced.
#[derive(Debug)]
pub struct SupervisedReport {
    /// The merged, fingerprint-verified state.
    pub state: CampaignState,
    /// [`state_hash`] of `state` — the number the chaos gate compares.
    pub state_hash: u64,
    pub spawned: u32,
    /// Unplanned worker deaths (chaos kills excluded).
    pub crashes: u32,
    pub chaos_kills: u32,
    /// Heartbeat/shard-timeout kills (included in `crashes`).
    pub timeouts: u32,
    pub quarantined_shards: Vec<u32>,
}

impl SupervisedReport {
    /// The supervisor's health record as `campaignd.*` counters, in
    /// sorted name order (the invariant `MetricsSnapshot` keeps
    /// everywhere else). The CLI folds this into the saved checkpoint
    /// *after* the deterministic merge so `noiselab metrics` and
    /// `noiselab advise` can read respawn/timeout/chaos/quarantine
    /// history without scraping stderr or crash-counter files. The
    /// quarantined-cell *names* already live in `state.quarantined`;
    /// these counters carry the magnitudes.
    pub fn health_metrics(&self) -> noiselab_telemetry::MetricsSnapshot {
        let lost_cells: usize = self.state.quarantined.iter().map(|q| q.cells.len()).sum();
        let counters = vec![
            ("campaignd.chaos_kills", u64::from(self.chaos_kills)),
            ("campaignd.heartbeat_timeouts", u64::from(self.timeouts)),
            ("campaignd.lost_cells", lost_cells as u64),
            (
                "campaignd.quarantined_shards",
                self.quarantined_shards.len() as u64,
            ),
            ("campaignd.worker_crashes", u64::from(self.crashes)),
            ("campaignd.workers_spawned", u64::from(self.spawned)),
        ];
        noiselab_telemetry::MetricsSnapshot {
            runs: 0,
            counters: counters
                .into_iter()
                .map(|(name, value)| noiselab_telemetry::CounterEntry {
                    name: name.to_string(),
                    value,
                })
                .collect(),
            gauges: Vec::new(),
            histograms: Vec::new(),
        }
    }
}

/// Wall-clock read for supervision timing only; results never flow into
/// simulated data. The single annotated site the whole module uses.
fn now() -> Instant {
    Instant::now() // audit:allow(wall-clock): process supervision (heartbeats, timeouts, backoff) is host-time by nature; simulated results never depend on it
}

enum Event {
    Frame(usize, WorkerMsg),
    Bad(usize, String),
    Raw(String),
    /// The slot's worker pipe closed: every frame it wrote is queued
    /// ahead of this event.
    Eof(usize),
}

struct Slot {
    child: Option<Child>,
    generation: u32,
    respawns: u32,
    eligible_at: Instant,
    last_frame: Instant,
    shard: Option<u32>,
    shard_since: Instant,
    /// Set when *we* killed the child (chaos), so its death is not
    /// charged against the shard.
    chaos_killed: bool,
    /// Reason to record if this child's death quarantines its shard.
    kill_reason: Option<String>,
    /// The child's [`Event::Eof`] was processed. A death is judged only
    /// after this: a worker can claim a shard and die before the
    /// supervisor has read its `Claimed` frame, and judging it then
    /// would leak the shard's lease and wedge the queue.
    eof: bool,
}

impl Slot {
    fn new(t: Instant) -> Slot {
        Slot {
            child: None,
            generation: 0,
            respawns: 0,
            eligible_at: t,
            last_frame: t,
            shard: None,
            shard_since: t,
            chaos_killed: false,
            kill_reason: None,
            eof: false,
        }
    }
}

fn backoff(cfg: &SupervisorConfig, respawns: u32) -> Duration {
    let factor = 1u32 << respawns.min(10);
    (cfg.respawn_backoff * factor).min(cfg.backoff_cap)
}

fn spawn_worker(
    binary: &Path,
    queue_root: &Path,
    slot_idx: usize,
    generation: u32,
    tx: &mpsc::Sender<Event>,
) -> Result<Child, String> {
    let worker_id = format!("w{slot_idx}.{generation}");
    let mut child = Command::new(binary)
        .arg("campaign-worker")
        .arg("--queue")
        .arg(queue_root)
        .arg("--id")
        .arg(&worker_id)
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit())
        .spawn()
        .map_err(|e| format!("cannot spawn worker {}: {e}", binary.display()))?;
    let stdout = child
        .stdout
        .take()
        .ok_or_else(|| "worker spawned without piped stdout".to_string())?;
    let tx = tx.clone();
    // One reader thread per worker pipe; it dies with the pipe. Host
    // threads here schedule OS processes — nothing simulated runs on
    // them.
    std::thread::spawn(move || {
        let reader = std::io::BufReader::new(stdout);
        for line in reader.lines() {
            let Ok(line) = line else { break };
            let event = match parse_frame(&line) {
                Ok(Some(msg)) => Event::Frame(slot_idx, msg),
                Ok(None) => Event::Raw(line),
                Err(e) => Event::Bad(slot_idx, e.to_string()),
            };
            if tx.send(event).is_err() {
                return;
            }
        }
        let _ = tx.send(Event::Eof(slot_idx));
    });
    Ok(child)
}

/// Run a full sharded campaign: supervise `cfg.workers` processes of
/// `binary` against the queue at `queue_root` until every shard is done
/// or quarantined, then verify-merge. The queue must already be
/// initialized; exactly one supervisor may own a queue at a time.
pub fn run_supervised(
    binary: &Path,
    queue_root: &Path,
    cfg: &SupervisorConfig,
) -> Result<SupervisedReport, String> {
    if cfg.workers == 0 {
        return Err("supervisor needs at least one worker slot".into());
    }
    let (queue, manifest) = WorkQueue::open(queue_root).map_err(|e| e.to_string())?;

    // Reclaim orphan leases from a previous, killed supervisor: leases
    // held by live workers can only be our own children, and we have
    // none yet.
    for shard in &manifest.shards {
        if queue.is_leased(shard.id) && !queue.is_done(shard.id) {
            eprintln!(
                "noiselab: supervisor: reclaiming orphan lease on shard {}",
                shard.id
            );
            queue.release(shard.id);
        }
    }

    let (tx, rx) = mpsc::channel::<Event>();
    let t0 = now();
    let mut slots: Vec<Slot> = (0..cfg.workers).map(|_| Slot::new(t0)).collect();
    let mut report = SupervisedReport {
        state: CampaignState::new(manifest.fingerprint.clone()),
        state_hash: 0,
        spawned: 0,
        crashes: 0,
        chaos_kills: 0,
        timeouts: 0,
        quarantined_shards: Vec::new(),
    };
    let mut chaos_remaining = cfg.chaos_kills;

    let loop_result = supervise_loop(
        binary,
        &queue,
        &manifest,
        cfg,
        &tx,
        &rx,
        &mut slots,
        &mut report,
        &mut chaos_remaining,
    );
    // Never leave children behind, least of all on an error path.
    for slot in &mut slots {
        if let Some(child) = &mut slot.child {
            let _ = child.kill();
            let _ = child.wait();
        }
    }
    loop_result?;

    let state = merge_queue(queue_root).map_err(|e| e.to_string())?;
    report.state_hash = state_hash(&state);
    report.state = state;
    Ok(report)
}

#[allow(clippy::too_many_arguments)]
fn supervise_loop(
    binary: &Path,
    queue: &WorkQueue,
    manifest: &QueueManifest,
    cfg: &SupervisorConfig,
    tx: &mpsc::Sender<Event>,
    rx: &mpsc::Receiver<Event>,
    slots: &mut [Slot],
    report: &mut SupervisedReport,
    chaos_remaining: &mut u32,
) -> Result<(), String> {
    let shard_by_id =
        |id: u32| -> Option<&ShardSpec> { manifest.shards.iter().find(|s| s.id == id) };

    loop {
        let status = queue.status(manifest);
        let live = slots.iter().filter(|s| s.child.is_some()).count();
        if status.settled() && live == 0 {
            return Ok(());
        }

        // Spawn into idle slots while there is unclaimed work no live
        // worker is presumed to pick up. Children that have not claimed
        // yet count as presumptive claimants so a burst of spawns does
        // not overshoot the queue.
        if !status.settled() {
            let presumptive = slots
                .iter()
                .filter(|s| s.child.is_some() && s.shard.is_none())
                .count();
            let mut open = status
                .remaining
                .len()
                .saturating_sub(status.leased)
                .saturating_sub(presumptive);
            let t = now();
            for (idx, slot) in slots.iter_mut().enumerate() {
                if open == 0 {
                    break;
                }
                if slot.child.is_some()
                    || t < slot.eligible_at
                    || slot.respawns >= cfg.max_respawns_per_slot
                {
                    continue;
                }
                slot.generation += 1;
                let child = spawn_worker(binary, queue.root(), idx, slot.generation, tx)?;
                slot.child = Some(child);
                slot.last_frame = t;
                slot.shard = None;
                slot.chaos_killed = false;
                slot.kill_reason = None;
                slot.eof = false;
                report.spawned += 1;
                open -= 1;
            }
        }

        // Drain events (block briefly on the first for pacing).
        let mut events = Vec::new();
        if let Ok(ev) = rx.recv_timeout(Duration::from_millis(25)) {
            events.push(ev);
            while let Ok(ev) = rx.try_recv() {
                events.push(ev);
            }
        }
        for event in events {
            let t = now();
            match event {
                Event::Raw(line) => println!("{line}"),
                Event::Eof(idx) => slots[idx].eof = true,
                Event::Bad(idx, msg) => {
                    // A garbled frame is suspicious but not fatal; it
                    // still proves the worker is alive.
                    eprintln!("noiselab: supervisor: worker slot {idx}: {msg}");
                    slots[idx].last_frame = t;
                }
                Event::Frame(idx, msg) => {
                    let slot = &mut slots[idx];
                    slot.last_frame = t;
                    match msg {
                        WorkerMsg::Hello { .. } => {}
                        WorkerMsg::Claimed { shard, .. } => {
                            slot.shard = Some(shard);
                            slot.shard_since = t;
                        }
                        WorkerMsg::CellDone { shard, index, .. } => {
                            let last_cell = shard_by_id(shard)
                                .map(|s| s.start + s.len - 1)
                                .unwrap_or(index);
                            if *chaos_remaining > 0 && index < last_cell {
                                if let Some(child) = &mut slot.child {
                                    // SIGKILL mid-shard: the cell just
                                    // checkpointed, at least one remains.
                                    let _ = child.kill();
                                    slot.chaos_killed = true;
                                    *chaos_remaining -= 1;
                                    report.chaos_kills += 1;
                                    eprintln!(
                                        "noiselab: supervisor: CHAOS kill of slot {idx} \
                                         mid-shard {shard} (after cell {index})"
                                    );
                                }
                            }
                        }
                        WorkerMsg::ShardDone { shard, .. } => {
                            if slot.shard == Some(shard) {
                                slot.shard = None;
                            }
                        }
                        WorkerMsg::Idle { .. } => {}
                        WorkerMsg::Fault { shard, message } => {
                            eprintln!(
                                "noiselab: supervisor: worker slot {idx} fault \
                                 (shard {shard:?}): {message}"
                            );
                        }
                    }
                }
            }
        }

        // Liveness policing and reaping.
        let t = now();
        for (idx, slot) in slots.iter_mut().enumerate() {
            let Some(child) = &mut slot.child else {
                continue;
            };

            if slot.kill_reason.is_none() && !slot.chaos_killed {
                if t.duration_since(slot.last_frame) > cfg.heartbeat_timeout {
                    slot.kill_reason = Some(format!(
                        "heartbeat timeout ({}s without a frame)",
                        cfg.heartbeat_timeout.as_secs()
                    ));
                } else if slot.shard.is_some()
                    && t.duration_since(slot.shard_since) > cfg.shard_timeout
                {
                    slot.kill_reason = Some(format!(
                        "shard wall-clock timeout ({}s)",
                        cfg.shard_timeout.as_secs()
                    ));
                }
                if let Some(reason) = &slot.kill_reason {
                    eprintln!("noiselab: supervisor: killing slot {idx}: {reason}");
                    report.timeouts += 1;
                    let _ = child.kill();
                }
            }

            match child.try_wait() {
                Ok(None) => {}
                // Dead, but frames it wrote may still be in flight.
                Ok(Some(_)) if !slot.eof => {}
                Ok(Some(exit)) => {
                    let _ = child.wait();
                    slot.child = None;
                    let chaos = slot.chaos_killed;
                    slot.chaos_killed = false;
                    let clean = exit.success() && slot.kill_reason.is_none() && !chaos;
                    let reason = slot
                        .kill_reason
                        .take()
                        .unwrap_or_else(|| format!("worker exited abnormally ({exit})"));
                    let held = slot.shard.take();
                    match held {
                        None if clean => {} // retired after Idle
                        None => {
                            // Died between shards: nothing to reclaim,
                            // but the slot still pays the backoff so a
                            // crash-looping binary cannot spin.
                            if !chaos {
                                report.crashes += 1;
                                slot.respawns += 1;
                                slot.eligible_at = t + backoff(cfg, slot.respawns);
                            }
                        }
                        Some(sid) => {
                            // Died holding a shard — unless the ledger
                            // already landed and only the ShardDone
                            // frame was lost.
                            if queue.is_done(sid) || queue.is_quarantined(sid) {
                                queue.release(sid);
                                if !clean && !chaos {
                                    report.crashes += 1;
                                }
                                continue;
                            }
                            if chaos {
                                queue.release(sid);
                                continue;
                            }
                            report.crashes += 1;
                            let crashes = queue.note_crash(sid).map_err(|e| e.to_string())?;
                            eprintln!(
                                "noiselab: supervisor: slot {idx} died holding shard {sid} \
                                 ({reason}); crash {crashes}/{}",
                                cfg.max_shard_crashes
                            );
                            if crashes >= cfg.max_shard_crashes {
                                // Quarantine FIRST, release SECOND: no
                                // claim window for a condemned shard.
                                queue
                                    .quarantine(&QuarantineNote {
                                        shard: sid,
                                        crashes,
                                        reason: reason.clone(),
                                    })
                                    .map_err(|e| e.to_string())?;
                                report.quarantined_shards.push(sid);
                                eprintln!(
                                    "noiselab: supervisor: shard {sid} QUARANTINED \
                                     after {crashes} crashes"
                                );
                            }
                            queue.release(sid);
                            slot.respawns += 1;
                            slot.eligible_at = t + backoff(cfg, slot.respawns);
                        }
                    }
                }
                Err(e) => return Err(format!("cannot reap worker slot {idx}: {e}")),
            }
        }

        // Stall detection: work remains, nobody is running, and no slot
        // may ever spawn again.
        let status = queue.status(manifest);
        let live = slots.iter().filter(|s| s.child.is_some()).count();
        if !status.settled()
            && live == 0
            && slots
                .iter()
                .all(|s| s.respawns >= cfg.max_respawns_per_slot)
        {
            return Err(format!(
                "supervisor stalled: {} shard(s) remain but every worker slot \
                 exhausted its {} respawns",
                status.remaining.len(),
                cfg.max_respawns_per_slot
            ));
        }
    }
}
