//! Per-layer metrics. Every workload fills the parts its traffic exercises
//! and prints the full set in a fixed order; a layer a workload leaves idle
//! reads 0, and its percentiles show `n = 0` in the provenance line.

use std::collections::BTreeMap;

use spider_gpu_sim::timing::KernelReport;
use spider_runtime::{CacheStats, StoreStats};

use crate::replica::{Paired, EXEC_SPANS, ROOT_SPAN};
use crate::report::{Metrics, Provenance};
use crate::stats::Summary;
use crate::trace::{self, Span};

/// Layers whose self time the traced pass attributes.
pub const TRACED_LAYERS: [&str; 6] = [
    "core",
    "runtime",
    "runtime.cache",
    "runtime.tuner",
    "runtime.store",
    "cluster",
];

#[derive(Debug, Default)]
pub struct Layers {
    // core
    pub exec_ms: Vec<f64>,
    /// Per grid rank (1D, 2D, 3D): points × sweeps and executor time, ns.
    pub exec_by_rank: [(u64, u64); 3],
    pub compile_us: Vec<f64>,
    pub compiles: u64,
    pub pool_misses: u64,
    // gpu-sim (modeled)
    pub modeled_us: Vec<f64>,
    pub mma_sparse: u64,
    pub gmem_bytes: u64,
    pub points: u64,
    // runtime
    pub overhead_ms: Vec<f64>,
    pub cache: CacheStats,
    pub tune_us: Vec<f64>,
    pub dry_runs: u64,
    pub memo_hits: u64,
    pub tune_calls: u64,
    pub load_us: Vec<f64>,
    pub store: StoreStats,
    // scheduler / cluster
    pub queue_wait_ms: Vec<f64>,
    pub waves: u64,
    pub coalesced: u64,
    pub requests: u64,
    pub steals: u64,
    pub max_device_share: f64,
    // telemetry
    pub trace_events: u64,
    pub metric_series: u64,
    // the trace itself
    pub self_ns: BTreeMap<&'static str, u64>,
    /// Time of real `execute` calls that the copy's spans do not cover.
    pub gap_ns: i64,
    /// The traced end-to-end time: every traced loop's wall time, less the
    /// copy's own calls in a paired pass.
    pub end_to_end_ns: u64,
    /// The part of it inside a measured call.
    pub attributed_ns: u64,
    pub trace_overhead_share: f64,
}

/// What a paired pass knew about one root span of the copy.
#[derive(Debug, Clone, Copy)]
pub struct Root {
    /// Points × sweeps (0 for a failed request).
    pub points: u64,
    pub rank: usize,
    /// Time inside the real `SpiderRuntime::execute` for the same request.
    pub real_ns: u64,
}

impl From<&Paired> for Root {
    fn from(p: &Paired) -> Self {
        let (points, rank) = p.copy.map_or((0, 2), |o| (o.points, o.rank));
        Self {
            points,
            rank,
            real_ns: p.real_ns,
        }
    }
}

/// Counter deltas between two cache snapshots.
pub fn cache_delta(a: &CacheStats, b: &CacheStats) -> CacheStats {
    CacheStats {
        hits: b.hits - a.hits,
        misses: b.misses - a.misses,
        insertions: b.insertions - a.insertions,
        evictions: b.evictions - a.evictions,
        store_hits: b.store_hits - a.store_hits,
    }
}

pub fn store_delta(a: &StoreStats, b: &StoreStats) -> StoreStats {
    StoreStats {
        plan_loads: b.plan_loads - a.plan_loads,
        plan_bytes_loaded: b.plan_bytes_loaded - a.plan_bytes_loaded,
        plan_absent: b.plan_absent - a.plan_absent,
        plan_rejected: b.plan_rejected - a.plan_rejected,
        plan_saves: b.plan_saves - a.plan_saves,
        plan_evictions: b.plan_evictions - a.plan_evictions,
        memo_loads: b.memo_loads - a.memo_loads,
        memo_saves: b.memo_saves - a.memo_saves,
    }
}

fn ns_to(ns: u64, per: f64) -> f64 {
    ns as f64 / per
}

impl Layers {
    /// Fold one served request's modeled kernel report into the gpu-sim
    /// figures (time per request; counters per point, computed).
    pub fn add_modeled(&mut self, r: &KernelReport) {
        self.modeled_us.push(r.time_s() * 1e6);
        self.mma_sparse += r.counters.mma_sparse_f16;
        self.gmem_bytes += r.counters.gmem_read_bytes + r.counters.gmem_write_bytes;
        self.points += r.points;
    }

    /// Fold one traced loop: executor, compile, tune and store-load
    /// durations, per-layer self times and, for a paired pass (`roots`
    /// given, one per copy root span in order), each request's runtime
    /// overhead (real `execute` time less the copy's executor span) and the
    /// part of the real time the copy's spans do not cover. `loop_wall_ns`
    /// is the loop's wall time.
    pub fn add_spans(&mut self, spans: &[Span], roots: &[Root], loop_wall_ns: u64) {
        let us = |name| -> Vec<f64> {
            trace::durations_ns(spans, name)
                .into_iter()
                .map(|d| ns_to(d, 1e3))
                .collect()
        };
        self.compile_us.extend(us("core.compile"));
        self.tune_us.extend(us("runtime.tuner.tune"));
        self.load_us.extend(us("runtime.store.load_entry"));

        // Executor time per root span, found through the parent links.
        let mut exec_of_root: BTreeMap<usize, u64> = BTreeMap::new();
        for s in spans {
            if let (Some(rank), Some(p)) = (EXEC_SPANS.iter().position(|n| *n == s.name), s.parent)
            {
                self.exec_ms.push(ns_to(s.dur_ns(), 1e6));
                self.exec_by_rank[rank].1 += s.dur_ns();
                *exec_of_root.entry(p).or_insert(0) += s.dur_ns();
            }
        }
        let copy_roots = spans
            .iter()
            .enumerate()
            .filter(|(_, s)| s.parent.is_none() && s.name == ROOT_SPAN);
        let (mut copy_ns, mut real_ns) = (0u64, 0u64);
        for ((idx, root), r) in copy_roots.zip(roots) {
            let exec = exec_of_root.get(&idx).copied().unwrap_or(0);
            self.overhead_ms
                .push((r.real_ns as f64 - exec as f64) / 1e6);
            self.exec_by_rank[r.rank - 1].0 += r.points;
            copy_ns += root.dur_ns();
            real_ns += r.real_ns;
        }
        for (layer, ns) in trace::layer_self_ns(spans) {
            *self.self_ns.entry(layer).or_insert(0) += ns;
        }
        if roots.is_empty() {
            self.end_to_end_ns += loop_wall_ns;
            self.attributed_ns += trace::root_ns(spans);
        } else {
            // The copy's roots stand in for the real calls: their self
            // times break the real time down, the gap covers the rest.
            self.gap_ns += real_ns as i64 - copy_ns as i64;
            self.end_to_end_ns += loop_wall_ns.saturating_sub(copy_ns);
            self.attributed_ns += real_ns;
        }
    }

    /// Share of the traced end-to-end time outside every measured call:
    /// the benchmark's own loop glue (and, on the open loop, the
    /// generator's sleep).
    pub fn unattributed_share(&self) -> f64 {
        1.0 - self.attributed_ns as f64 / self.end_to_end_ns.max(1) as f64
    }

    /// Print every per-layer metric and record its sample counts.
    pub fn emit(&self, m: &mut Metrics, p: &mut Provenance) {
        let mut pct = |m: &mut Metrics, name: &str, samples: &[f64], unit: &'static str| {
            let s = Summary::of(samples);
            m.put(format!("{name}_p50"), s.p50, unit);
            p.int(format!("n.{name}"), s.n as u64);
            s
        };
        let ratio = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };

        pct(m, "core.exec_ms", &self.exec_ms, "ms");
        for (i, (points, ns)) in self.exec_by_rank.iter().enumerate() {
            let rate = if *ns == 0 {
                0.0
            } else {
                *points as f64 / (*ns as f64 / 1e9) / 1e6
            };
            m.put(
                format!("core.exec_mpoints_per_s.d{}", i + 1),
                rate,
                "Mpoint/s",
            );
        }
        pct(m, "core.compile_us", &self.compile_us, "us");
        m.put("core.compiles", self.compiles as f64, "count");
        m.put("core.pool_misses", self.pool_misses as f64, "count");

        // Modeled device time: deterministic, hence its own unit.
        pct(m, "gpu_sim.modeled_us", &self.modeled_us, "sim_us");
        m.put(
            "gpu_sim.mma_sparse_per_point",
            ratio(self.mma_sparse, self.points),
            "1/point",
        );
        m.put(
            "gpu_sim.gmem_bytes_per_point",
            ratio(self.gmem_bytes, self.points),
            "B/point",
        );

        pct(m, "runtime.overhead_ms", &self.overhead_ms, "ms");
        m.put("runtime.cache.hits", self.cache.hits as f64, "count");
        m.put("runtime.cache.misses", self.cache.misses as f64, "count");
        m.put(
            "runtime.cache.evictions",
            self.cache.evictions as f64,
            "count",
        );
        m.put(
            "runtime.cache.hit_ratio",
            ratio(self.cache.hits, self.cache.hits + self.cache.misses),
            "ratio",
        );
        pct(m, "runtime.tuner.tune_us", &self.tune_us, "us");
        m.put("runtime.tuner.dry_runs", self.dry_runs as f64, "count");
        m.put(
            "runtime.tuner.memo_hit_ratio",
            ratio(self.memo_hits, self.tune_calls),
            "ratio",
        );
        pct(m, "runtime.store.load_us", &self.load_us, "us");
        m.put("runtime.store.loads", self.store.plan_loads as f64, "count");
        m.put("runtime.store.saves", self.store.plan_saves as f64, "count");
        m.put(
            "runtime.store.bytes_loaded",
            self.store.plan_bytes_loaded as f64,
            "B",
        );

        let wait = pct(
            m,
            "runtime.scheduler.queue_wait_ms",
            &self.queue_wait_ms,
            "ms",
        );
        m.put(
            "runtime.scheduler.queue_wait_ms_p99",
            wait.p99.unwrap_or(0.0),
            "ms",
        );
        m.put("runtime.scheduler.waves", self.waves as f64, "count");
        m.put(
            "runtime.scheduler.coalesced_share",
            ratio(self.coalesced, self.requests),
            "ratio",
        );
        m.put("cluster.steals", self.steals as f64, "count");
        m.put("cluster.max_device_share", self.max_device_share, "ratio");
        m.put(
            "telemetry.trace_events_per_request",
            ratio(self.trace_events, self.requests),
            "1/request",
        );
        m.put(
            "telemetry.metric_series",
            self.metric_series as f64,
            "count",
        );

        let wall = self.end_to_end_ns.max(1) as f64;
        for layer in TRACED_LAYERS {
            let ns = self.self_ns.get(layer).copied().unwrap_or(0);
            m.put(
                format!("trace.self_share.{layer}"),
                ns as f64 / wall,
                "ratio",
            );
        }
        m.put(
            "trace.execute_gap_share",
            self.gap_ns as f64 / wall,
            "ratio",
        );
        m.put(
            "trace.unattributed_share",
            self.unattributed_share(),
            "ratio",
        );
        m.put("trace.overhead_share", self.trace_overhead_share, "ratio");
        p.text(
            "computed",
            "gpu_sim.mma_sparse_per_point and gpu_sim.gmem_bytes_per_point are computed from \
             the simulator's PerfCounters, not measured on a device",
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(
        name: &'static str,
        layer: &'static str,
        start: u64,
        end: u64,
        parent: Option<usize>,
    ) -> Span {
        Span {
            name,
            layer,
            start_ns: start,
            end_ns: end,
            parent,
            request: 0,
        }
    }

    #[test]
    fn self_times_gap_and_glue_partition_a_paired_pass() {
        // One request: the real execute took 120 ns; the copy's root took
        // 100 ns, 70 of them in the executor. The loop took 250 ns, so
        // 250 - 120 - 100 = 30 ns were glue.
        let spans = vec![
            span(ROOT_SPAN, "runtime", 0, 100, None),
            span(EXEC_SPANS[1], "core", 20, 90, Some(0)),
        ];
        let root = Root {
            points: 1_000,
            rank: 2,
            real_ns: 120,
        };
        let mut l = Layers::default();
        l.add_spans(&spans, &[root], 250);
        assert_eq!(l.end_to_end_ns, 150, "loop wall less the copy's calls");
        assert_eq!(l.gap_ns, 20);
        assert_eq!((l.self_ns["core"], l.self_ns["runtime"]), (70, 30));
        let shares = (70 + 30 + 20) as f64 / 150.0 + l.unattributed_share();
        assert!((shares - 1.0).abs() < 1e-12);
        assert!((l.unattributed_share() - 30.0 / 150.0).abs() < 1e-12);
        // Overhead: real time less the copy's executor span.
        assert_eq!(l.overhead_ms, vec![50e-6]);
        assert_eq!(l.exec_by_rank[1], (1_000, 70));
    }
}
