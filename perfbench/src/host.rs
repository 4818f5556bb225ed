//! Host conditions recorded beside every sample: the 1-minute load
//! average and the shares of CPU time the host spent idle and stolen by
//! the hypervisor while the sample ran (from `/proc/stat` deltas), and
//! this process's peak resident memory. They are recorded only; no
//! sample is ever dropped because of them.

use std::fs;

/// Aggregate CPU jiffies from the first line of `/proc/stat`.
#[derive(Debug, Clone, Copy)]
pub struct CpuTimes {
    idle: u64,
    steal: u64,
    total: u64,
}

impl CpuTimes {
    /// Current counters, or `None` where `/proc/stat` is unreadable.
    pub fn now() -> Option<CpuTimes> {
        let text = fs::read_to_string("/proc/stat").ok()?;
        let line = text.lines().next()?;
        let fields: Vec<u64> = line
            .split_whitespace()
            .skip(1)
            .filter_map(|f| f.parse().ok())
            .collect();
        // user nice system idle iowait irq softirq steal ...
        let idle = fields.get(3)? + fields.get(4).copied().unwrap_or(0);
        Some(CpuTimes {
            idle,
            steal: fields.get(7).copied().unwrap_or(0),
            total: fields.iter().sum(),
        })
    }

    /// Idle and stolen shares (percent) of all CPU time between `self`
    /// and `later`.
    pub fn shares_until(&self, later: &CpuTimes) -> Option<(f64, f64)> {
        let total = later.total.checked_sub(self.total)?;
        let idle = later.idle.checked_sub(self.idle)?;
        let steal = later.steal.checked_sub(self.steal)?;
        let pct = |n: u64| n as f64 / total as f64 * 100.0;
        (total > 0).then(|| (pct(idle), pct(steal)))
    }
}

/// The 1-minute load average from `/proc/loadavg`.
pub fn loadavg1() -> Option<f64> {
    fs::read_to_string("/proc/loadavg")
        .ok()?
        .split_whitespace()
        .next()?
        .parse()
        .ok()
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mib() -> Option<f64> {
    let status = fs::read_to_string("/proc/self/status").ok()?;
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))?
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()?;
    Some(kib / 1024.0)
}

/// Host conditions over one timed sample.
#[derive(Debug, Clone, Copy)]
pub struct Conditions {
    pub loadavg1: Option<f64>,
    pub idle_pct: Option<f64>,
    pub steal_pct: Option<f64>,
}

/// Brackets one sample: take [`Probe::start`] before it and
/// [`Probe::finish`] after it.
pub struct Probe {
    cpu: Option<CpuTimes>,
}

impl Probe {
    pub fn start() -> Probe {
        Probe {
            cpu: CpuTimes::now(),
        }
    }

    pub fn finish(self) -> Conditions {
        let shares = match (self.cpu, CpuTimes::now()) {
            (Some(a), Some(b)) => a.shares_until(&b),
            _ => None,
        };
        Conditions {
            loadavg1: loadavg1(),
            idle_pct: shares.map(|s| s.0),
            steal_pct: shares.map(|s| s.1),
        }
    }
}

impl Conditions {
    /// JSON fields (without braces) for a sample line; unknown values
    /// print as `null`.
    pub fn json_fields(&self) -> String {
        let f = |v: Option<f64>| v.map_or("null".to_string(), |x| format!("{x}"));
        format!(
            "\"loadavg1\": {}, \"idle_pct\": {}, \"steal_pct\": {}",
            f(self.loadavg1),
            f(self.idle_pct),
            f(self.steal_pct)
        )
    }
}
