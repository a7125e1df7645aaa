//! `tenant_open_loop`: small requests from two weighted tenants, sent on a
//! fixed schedule from one generator thread into a two-device
//! `SpiderCluster` with default (fingerprint-affinity) routing.

use std::time::{Duration, Instant};

use spider_cluster::{ClusterOptions, ClusterReport, ClusterTicket, DeviceSpec, SpiderCluster};
use spider_gpu_sim::GpuDevice;
use spider_runtime::{
    GridSpec, RequestOutcome, RequestStatus, SchedulerOptions, SpiderRuntime, StencilRequest,
    TenantConfig, TenantId,
};

use crate::check;
use crate::closed::{record_latency, CHECK_SAMPLES, MIN_REQUESTS, SETUP_REPEATS};
use crate::host::TimedSteal;
use crate::inputs::{planar_kernel, request, shape_2d, Rng, Zipf};
use crate::layers::{cache_delta, Layers, Root};
use crate::openloop::{self, OpenLoopRun, Poll};
use crate::replica::{paired_pass, Paired, TracedStack};
use crate::report::{join, RunReport};
use crate::stats::{latency, median, Latency};
use crate::trace::Tracer;

/// Offered load, requests per second (well below one CPU's saturation).
pub const RATE: f64 = 300.0;
/// Hot plans both tenants draw from.
pub const HOT_PLANS: usize = 8;
/// The generator's longest sleep between polls.
const POLL_SLICE: Duration = Duration::from_micros(100);
/// Requests of the sequence replayed through a lone runtime (and the traced
/// copy) to measure service time outside the cluster.
const REPLAY: usize = 400;

pub const HEAVY: TenantId = TenantId::new(1);
pub const LIGHT: TenantId = TenantId::new(2);

pub struct TenantSpec {
    /// One request per (hot plan, tenant), served during setup.
    pub warmup: Vec<StencilRequest>,
    pub requests: Vec<StencilRequest>,
}

pub fn spec(seed: u64, seconds: u64) -> TenantSpec {
    let (rows, cols) = (128, 128);
    let hot: Vec<_> = (0..HOT_PLANS)
        .map(|k| {
            planar_kernel(
                shape_2d(k),
                seed.wrapping_mul(0x9E37).wrapping_add(k as u64),
            )
        })
        .collect();
    let grid = GridSpec::D2 { rows, cols };
    let n = ((seconds as f64 * RATE).ceil() as usize).max(MIN_REQUESTS);
    let zipf = Zipf::new(HOT_PLANS, 1.1);
    let mut rng = Rng::new(seed ^ 0x7E4A);
    let requests = (0..n)
        .map(|i| {
            // Two of every three arrivals belong to the heavier tenant.
            let tenant = if rng.below(3) < 2 { HEAVY } else { LIGHT };
            let k = zipf.sample(&mut rng);
            request(
                100_000 + i as u64,
                hot[k].clone(),
                grid,
                1,
                rng.next_u64(),
                tenant,
            )
        })
        .collect();
    let warmup = hot
        .iter()
        .enumerate()
        .flat_map(|(k, kernel)| {
            [HEAVY, LIGHT]
                .map(|t| request(k as u64 * 2 + t.as_u64(), kernel.clone(), grid, 1, 0, t))
        })
        .collect();
    TenantSpec { warmup, requests }
}

fn build_cluster() -> SpiderCluster {
    let scheduler = SchedulerOptions {
        workers: 1,
        ..SchedulerOptions::default()
    }
    .with_tenant(HEAVY, TenantConfig::weighted(4))
    .with_tenant(LIGHT, TenantConfig::weighted(1));
    SpiderCluster::new(
        (0..2)
            .map(|i| DeviceSpec::a100(format!("dev{i}")).with_scheduler_options(scheduler.clone()))
            .collect(),
        ClusterOptions::default(),
    )
}

fn poll(cluster: &SpiderCluster, ticket: ClusterTicket) -> Poll<RequestOutcome> {
    match cluster.poll(ticket) {
        RequestStatus::Done(o) => Poll::Done(*o),
        RequestStatus::Queued { .. } | RequestStatus::Running => Poll::Pending,
        other => Poll::Failed(format!("ticket {} ended {other:?}", ticket.id())),
    }
}

/// Build the cluster and serve every (plan, tenant) pair once, so plans are
/// compiled and tuned on the device that owns them.
fn cold_start(spec: &TenantSpec) -> Result<SpiderCluster, String> {
    let cluster = build_cluster();
    let run = openloop::run(
        spec.warmup.len(),
        Duration::ZERO,
        POLL_SLICE,
        Duration::from_secs(30),
        |i| {
            cluster
                .submit(spec.warmup[i].clone())
                .map_err(|e| e.to_string())
        },
        |t| poll(&cluster, *t),
    );
    match run.failures.first() {
        Some((_, why)) => Err(format!("warmup: {why}")),
        None => Ok(cluster),
    }
}

struct Loop {
    run: OpenLoopRun<RequestOutcome>,
    tickets: Vec<Option<ClusterTicket>>,
}

fn open_loop(cluster: &SpiderCluster, spec: &TenantSpec, tracer: Option<&Tracer>) -> Loop {
    let mut tickets = vec![None; spec.requests.len()];
    let run = openloop::run(
        spec.requests.len(),
        Duration::from_secs_f64(1.0 / RATE),
        POLL_SLICE,
        Duration::from_secs(30),
        |i| {
            let req = spec.requests[i].clone();
            let submit = || cluster.submit(req).map_err(|e| e.to_string());
            let t = match tracer {
                Some(tr) => tr.span("cluster.submit", "cluster", i as u64, submit),
                None => submit(),
            }?;
            tickets[i] = Some(t);
            Ok(t)
        },
        |t| match tracer {
            Some(tr) => tr.span("cluster.poll", "cluster", t.id(), || poll(cluster, *t)),
            None => poll(cluster, *t),
        },
    );
    Loop { run, tickets }
}

fn trace_events(cluster: &SpiderCluster) -> u64 {
    (0..cluster.devices())
        .map(|i| {
            let rt = cluster.device_runtime(i);
            let log = rt.telemetry().trace();
            log.len() as u64 + log.dropped_events()
        })
        .sum()
}

fn pool_misses(cluster: &SpiderCluster) -> u64 {
    (0..cluster.devices())
        .map(|i| cluster.device_runtime(i).pool_stats().misses)
        .sum()
}

fn compiles(cluster: &SpiderCluster) -> u64 {
    cluster
        .fleet_metrics()
        .counter_value("spider_runtime_plan_compiles_total")
}

/// Latency figures over the completed requests.
fn latencies(run: &OpenLoopRun<RequestOutcome>) -> Latency {
    let lat: Vec<f64> = run
        .records
        .iter()
        .filter_map(|r| Some(r.latency_ns()? as f64 / 1e6))
        .collect();
    latency(&lat)
}

/// Per-device counters that the timed phase moved.
struct FleetDelta {
    completed: u64,
    waves: u64,
    routed: Vec<u64>,
    cache: spider_runtime::CacheStats,
    steals: u64,
}

fn fleet_delta(a: &ClusterReport, b: &ClusterReport) -> FleetDelta {
    let mut d = FleetDelta {
        completed: 0,
        waves: 0,
        routed: Vec::new(),
        cache: Default::default(),
        steals: b.steals - a.steals,
    };
    for (x, y) in a.devices.iter().zip(&b.devices) {
        let (qx, qy) = (
            x.report.queue.unwrap_or_default(),
            y.report.queue.unwrap_or_default(),
        );
        d.completed += qy.completed - qx.completed;
        d.waves += qy.dispatch_waves - qx.dispatch_waves;
        d.routed.push(y.routed - x.routed);
        let c = cache_delta(&x.cache, &y.cache);
        d.cache.hits += c.hits;
        d.cache.misses += c.misses;
        d.cache.evictions += c.evictions;
    }
    d
}

pub fn run(spec: &TenantSpec, traced: bool, out: &mut RunReport) -> Result<(), String> {
    // ---- set-up ----
    let repeats = if traced { 1 } else { SETUP_REPEATS };
    let mut setups = Vec::new();
    let mut cluster = None;
    for _ in 0..repeats {
        drop(cluster.take()); // stop the previous cluster's workers first
        let t0 = Instant::now();
        cluster = Some(cold_start(spec)?);
        setups.push(t0.elapsed().as_secs_f64());
    }
    let cluster = cluster.expect("at least one cold start");

    // ---- timed phase (untraced) ----
    let base = cluster.drain_all();
    let events0 = trace_events(&cluster);
    let pool0 = pool_misses(&cluster);
    let compiles0 = compiles(&cluster);
    let steal = TimedSteal::start();
    let lp = open_loop(&cluster, spec, None);
    steal.record(&mut out.provenance, lp.run.wall.as_secs_f64());
    let rss = crate::host::peak_rss_mib();
    let fin = cluster.drain_all();
    let delta = fleet_delta(&base, &fin);
    let n = spec.requests.len() as u64;
    let served: Vec<&RequestOutcome> = lp.run.outcomes.iter().flatten().collect();
    out.attempted += n;
    out.failed += n - served.len() as u64;
    for (i, why) in &lp.run.failures {
        out.failures.push(format!("request {i}: {why}"));
    }

    // ---- end-to-end ----
    let wall_s = lp.run.wall.as_secs_f64();
    let points: u64 = served.iter().map(|o| o.report.points).sum();
    let sim_s: f64 = served.iter().map(|o| o.report.time_s()).sum();
    let lat = latencies(&lp.run);
    if !traced {
        let m = &mut out.metrics;
        m.put("requests_per_s", served.len() as f64 / wall_s, "1/s");
        m.put(
            "host_mpoints_per_s",
            points as f64 / wall_s / 1e6,
            "Mpoint/s",
        );
        m.put("latency_p50_ms", lat.p50, "ms");
        m.put("latency_p99_ms", lat.p99.unwrap_or(f64::NAN), "ms");
        m.put(
            "sim_gstencils_per_s",
            points as f64 / sim_s / 1e9,
            "GStencil/s",
        );
        m.put("setup_s", median(&setups), "s");
        m.put("peak_rss_mib", rss, "MiB");
    }
    let p = &mut out.provenance;
    p.int("requests", n);
    record_latency(p, &lat);
    p.num("offered_rate_per_s", RATE);
    p.num("timed_wall_s", wall_s);
    p.num(
        "generator_worst_lateness_ms",
        lp.run.worst_lateness_ns() as f64 / 1e6,
    );
    p.text("setup_s_samples", &join(&setups));

    // ---- checks ----
    let device = GpuDevice::a100();
    for i in check::sample_indices(spec.requests.len(), CHECK_SAMPLES) {
        let req = &spec.requests[i];
        let res = match &lp.run.outcomes[i] {
            Some(o) => check::verify(&device, req, o.tiling, o.checksum).map(|_| ()),
            None => Err(format!("request {} has no output to check", req.id)),
        };
        out.check(res.is_ok(), || res.unwrap_err());
    }
    // Every ticket ended Done exactly once: still Done with the same output
    // after the drain, and the fleet executed exactly n requests.
    let redone = lp
        .tickets
        .iter()
        .zip(&lp.run.outcomes)
        .filter(|(t, o)| match (t, o) {
            (Some(t), Some(o)) => matches!(
                cluster.poll(*t),
                RequestStatus::Done(again) if again.checksum == o.checksum
            ),
            _ => false,
        })
        .count() as u64;
    out.check(redone == n, || {
        format!("{redone} of {n} tickets ended Done")
    });
    out.check(delta.completed == n, || {
        format!(
            "the fleet completed {} requests for {n} tickets",
            delta.completed
        )
    });
    out.check(delta.cache.hits + delta.cache.misses == n, || {
        format!(
            "cache hits {} + misses {} != requests {n}",
            delta.cache.hits, delta.cache.misses
        )
    });

    if !traced {
        return Ok(());
    }

    // ---- traced pass: the same sequence into a fresh cluster ----
    let tracer = Tracer::new();
    let tcluster = cold_start(spec)?;
    let tlp = open_loop(&tcluster, spec, Some(&tracer));
    let loop_wall_ns = tlp.run.wall.as_nanos() as u64;
    drop(tcluster);
    let same = lp
        .run
        .outcomes
        .iter()
        .zip(&tlp.run.outcomes)
        .filter(|(a, b)| a.as_ref().map(|o| o.checksum) != b.as_ref().map(|o| o.checksum))
        .count();
    out.check(same == 0, || {
        format!("{same} traced outputs differ from the untraced pass")
    });
    let loop_spans = tracer.finish();

    // Service time measured outside the cluster: replay a fixed sample of
    // the sequence through a warm lone runtime with a device's options,
    // paired with the traced copy for the breakdown.
    let replay_tracer = Tracer::new();
    let options = DeviceSpec::a100("replay").runtime;
    let replay_rt = SpiderRuntime::new(GpuDevice::a100(), options);
    let stack = TracedStack::new(device, &options, None);
    for req in &spec.warmup {
        replay_rt
            .execute(req)
            .map_err(|e| format!("replay warmup: {e}"))?;
        stack.execute(req, &replay_tracer)?;
    }
    let mark = replay_tracer.mark();
    let sample = check::sample_indices(spec.requests.len(), REPLAY);
    let (replayed, replay_wall_ns) = paired_pass(
        &replay_rt,
        &stack,
        sample.iter().map(|&i| &spec.requests[i]),
        &replay_tracer,
    );
    let replay_spans = replay_tracer.finish_since(mark);
    let bad = sample
        .iter()
        .zip(&replayed)
        .filter(|(&i, p)| {
            let want = lp.run.outcomes[i].as_ref().map(|o| o.checksum);
            p.real.as_ref().map(|o| o.checksum) != want || p.copy.map(|o| o.checksum) != want
        })
        .count();
    out.check(bad == 0, || {
        format!("{bad} replayed outputs differ from the cluster's")
    });
    let service = service_by_plan(spec, &sample, &replayed);

    let mut layers = Layers {
        compiles: compiles(&cluster) - compiles0,
        pool_misses: pool_misses(&cluster) - pool0,
        cache: delta.cache,
        requests: n,
        waves: delta.waves,
        steals: delta.steals,
        max_device_share: delta.routed.iter().copied().max().unwrap_or(0) as f64 / n as f64,
        trace_events: trace_events(&cluster) - events0,
        metric_series: cluster.fleet_metrics().values.len() as u64,
        trace_overhead_share: latencies(&tlp.run).p50 / lat.p50 - 1.0,
        ..Layers::default()
    };
    for o in &served {
        layers.add_modeled(&o.report);
        layers.tune_calls += 1;
        layers.memo_hits += o.tuner_memo_hit as u64;
        layers.coalesced += o.coalesced as u64;
    }
    layers.queue_wait_ms = spec
        .requests
        .iter()
        .zip(&tlp.run.records)
        .filter_map(|(req, r)| Some(r.latency_ns()? as f64 / 1e6 - service(req.plan_key())))
        .collect();
    layers.dry_runs = replayed
        .iter()
        .flat_map(|p| p.copy)
        .map(|o| o.dry_runs as u64)
        .sum();
    let roots: Vec<Root> = replayed.iter().map(Root::from).collect();
    layers.add_spans(&replay_spans, &roots, replay_wall_ns);
    layers.add_spans(&loop_spans, &[], loop_wall_ns);
    layers.emit(&mut out.metrics, &mut out.provenance);
    out.provenance.int("n.service_replay", sample.len() as u64);
    Ok(())
}

/// Median replayed service time (ms, the lone runtime's `execute`) per plan
/// key, falling back to the median over all replayed requests for a key
/// the sample missed.
fn service_by_plan(
    spec: &TenantSpec,
    sample: &[usize],
    replayed: &[Paired],
) -> impl Fn(u64) -> f64 {
    let roots: Vec<f64> = replayed.iter().map(|p| p.real_ns as f64 / 1e6).collect();
    let mut by_key: std::collections::BTreeMap<u64, Vec<f64>> = Default::default();
    for (&i, &ms) in sample.iter().zip(&roots) {
        by_key
            .entry(spec.requests[i].plan_key())
            .or_default()
            .push(ms);
    }
    let overall = median(&roots);
    let by_key: std::collections::BTreeMap<u64, f64> =
        by_key.into_iter().map(|(k, v)| (k, median(&v))).collect();
    move |key| by_key.get(&key).copied().unwrap_or(overall)
}
