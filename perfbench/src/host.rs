//! What the host says about this run: CPU count and model, the CPUs the
//! process may run on, steal ticks, and peak resident memory. Read from
//! `/proc`; a missing file reads as unknown, never as an error.

use std::fs;

use crate::report::Provenance;

fn proc_file(path: &str) -> String {
    fs::read_to_string(path).unwrap_or_default()
}

/// Logical CPUs online on the host.
pub fn nproc_online() -> usize {
    proc_file("/proc/cpuinfo")
        .lines()
        .filter(|l| l.starts_with("processor"))
        .count()
}

pub fn cpu_model() -> String {
    proc_file("/proc/cpuinfo")
        .lines()
        .find(|l| l.starts_with("model name"))
        .and_then(|l| l.split(':').nth(1))
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|| "unknown".into())
}

fn status_field(name: &str) -> Option<String> {
    proc_file("/proc/self/status")
        .lines()
        .find(|l| l.starts_with(name))
        .and_then(|l| l.split(':').nth(1))
        .map(|s| s.trim().to_string())
}

/// The process's CPU affinity, as `/proc/self/status` lists it.
pub fn cpus_allowed() -> String {
    status_field("Cpus_allowed_list:").unwrap_or_else(|| "unknown".into())
}

/// Peak resident set (`VmHWM`) of this process, MiB.
pub fn peak_rss_mib() -> f64 {
    status_field("VmHWM:")
        .and_then(|v| v.split_whitespace().next()?.parse::<f64>().ok())
        .map(|kib| kib / 1024.0)
        .unwrap_or(0.0)
}

/// Host speed index: millions of dependent xorshift steps per second over
/// a fixed 2^24-step loop (~30 ms), touching no memory. Read at the start
/// and end of a run, it tells a slow host apart from a slow program.
pub fn speed_probe() -> f64 {
    const STEPS: u64 = 1 << 24;
    let t = std::time::Instant::now();
    let mut x = std::hint::black_box(0x9E37_79B9_7F4A_7C15u64);
    for _ in 0..STEPS {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
    }
    std::hint::black_box(x);
    STEPS as f64 / t.elapsed().as_secs_f64() / 1e6
}

/// Steal ticks per CPU line of `/proc/stat` (`cpu` = all CPUs, `cpuN` =
/// one), in the kernel's clock ticks.
pub fn steal_ticks() -> Vec<(String, u64)> {
    parse_steal(&proc_file("/proc/stat"))
}

fn parse_steal(stat: &str) -> Vec<(String, u64)> {
    stat.lines()
        .filter(|l| l.starts_with("cpu"))
        .filter_map(|l| {
            let mut it = l.split_whitespace();
            let name = it.next()?.to_string();
            // user nice system idle iowait irq softirq steal …
            let steal = it.nth(7)?.parse().ok()?;
            Some((name, steal))
        })
        .collect()
}

/// The `/proc/stat` line of the CPU this process is confined to (`cpuN`),
/// or `cpu` (all CPUs) when it may run on more than one.
pub fn own_cpu_line() -> String {
    match cpus_allowed().parse::<usize>() {
        Ok(n) => format!("cpu{n}"),
        Err(_) => "cpu".into(),
    }
}

/// Share of a timed phase's wall time above which the host's steal on the
/// run's CPU marks the run as disturbed in its provenance.
pub const DISTURBED_STEAL_SHARE: f64 = 0.05;

/// Steal ticks of every CPU line, read once when a timed phase starts.
pub struct TimedSteal(Vec<(String, u64)>);

impl TimedSteal {
    pub fn start() -> Self {
        Self(steal_ticks())
    }

    /// Read the counters again at the end of the timed phase and record,
    /// per CPU line, the ticks the host took during it; then the share of
    /// the phase's wall time stolen from the run's own CPU (a tick is
    /// 10 ms) and whether that share marks the run as disturbed.
    pub fn record(&self, p: &mut Provenance, wall_s: f64) {
        let delta = steal_delta(&self.0, &steal_ticks());
        for (cpu, ticks) in &delta {
            p.int(format!("timed_steal_ticks.{cpu}"), *ticks);
        }
        let own = own_cpu_line();
        let ticks = delta.iter().find(|(n, _)| *n == own).map_or(0, |d| d.1);
        let share = ticks as f64 * 0.01 / wall_s;
        p.num("timed_steal_share", share);
        p.int("host_disturbed", (share > DISTURBED_STEAL_SHARE) as u64);
    }
}

/// Steal ticks accrued between two [`steal_ticks`] readings, per CPU line.
pub fn steal_delta(before: &[(String, u64)], after: &[(String, u64)]) -> Vec<(String, u64)> {
    after
        .iter()
        .filter_map(|(name, a)| {
            let b = before.iter().find(|(n, _)| n == name)?.1;
            Some((name.clone(), a.saturating_sub(b)))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn steal_is_the_eighth_counter() {
        let stat = "cpu  10 0 5 100 1 0 2 7 0 0\ncpu0 5 0 2 50 0 0 1 3 0 0\nintr 1 2\n";
        let s = parse_steal(stat);
        assert_eq!(s, vec![("cpu".into(), 7), ("cpu0".into(), 3)]);
        let later = vec![("cpu".to_string(), 9), ("cpu0".to_string(), 3)];
        assert_eq!(
            steal_delta(&s, &later),
            vec![("cpu".into(), 2), ("cpu0".into(), 0)]
        );
    }
}
