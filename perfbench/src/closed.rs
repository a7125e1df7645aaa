//! Closed-loop workloads: one client calling `SpiderRuntime::execute` on a
//! pre-generated request sequence, the next request sent when the previous
//! one returns.

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use spider_gpu_sim::GpuDevice;
use spider_runtime::{
    CachedPlan, GridSpec, PlanStore, RequestOutcome, RuntimeOptions, SpiderRuntime, StencilRequest,
    TenantId,
};
use spider_stencil::dim3::Kernel3D;
use spider_stencil::StencilShape;

use crate::check;
use crate::host::TimedSteal;
use crate::inputs::{box3d_kernel, planar_kernel, request, shape_2d, Rng, Zipf};
use crate::layers::{cache_delta, store_delta, Layers, Root};
use crate::replica::{paired_pass, TracedStack};
use crate::report::{join, RunReport};
use crate::stats::{latency, median, Summary};
use crate::trace::Tracer;

/// Cold starts timed per untraced run; `setup_s` is their median.
pub const SETUP_REPEATS: usize = 15;
/// Requests recomputed by the lone executor and the oracle per run.
pub const CHECK_SAMPLES: usize = 12;
/// Share of a closed loop's traced wall time that its layer self times may
/// leave unattributed.
pub const TRACE_SLACK: f64 = 0.02;
/// Fewest timed requests in any run: enough for a p99 with ten samples
/// beyond it.
pub const MIN_REQUESTS: usize = 1000;

/// A closed-loop workload, fully generated from its seed.
pub struct ClosedSpec {
    pub options: RuntimeOptions,
    /// Kernels compiled and written to a fresh plan store before each cold
    /// start, standing in for an earlier process (empty: the runtime runs
    /// without a store). Not part of `setup_s`.
    pub persisted: Vec<StencilRequest>,
    /// Requests executed during each cold start to load or compile, tune and
    /// warm the plan set.
    pub warmup: Vec<StencilRequest>,
    /// The timed sequence.
    pub requests: Vec<StencilRequest>,
}

/// `warm_sweep`: large warm requests over at most eight plans. One deck
/// holds every kind in a fixed proportion; each run serves whole decks,
/// shuffled per seed, so the mix (and with it the modeled rate) is the same
/// for every seed.
pub fn warm_sweep(seed: u64, seconds: u64) -> ClosedSpec {
    const DECK_RATE: f64 = 7.0; // decks per second on the reference host
    let kinds: Vec<(StencilRequest, usize)> = {
        let k2 = |shape, s| planar_kernel(shape, s);
        let plain = |id, kernel: spider_runtime::RequestKernel, grid, steps, copies| {
            (
                request(id, kernel, grid, steps, id, TenantId::ANONYMOUS),
                copies,
            )
        };
        vec![
            plain(
                0,
                k2(StencilShape::d1(2), 101).into(),
                GridSpec::D1 { len: 1 << 18 },
                2,
                1,
            ),
            plain(
                1,
                k2(StencilShape::box_2d(1), 102).into(),
                GridSpec::D2 {
                    rows: 512,
                    cols: 512,
                },
                1,
                1,
            ),
            plain(
                2,
                k2(StencilShape::star_2d(1), 103).into(),
                GridSpec::D2 {
                    rows: 512,
                    cols: 512,
                },
                2,
                1,
            ),
            plain(
                3,
                k2(StencilShape::box_2d(2), 104).into(),
                GridSpec::D2 {
                    rows: 448,
                    cols: 448,
                },
                1,
                1,
            ),
            plain(
                4,
                k2(StencilShape::star_2d(3), 105).into(),
                GridSpec::D2 {
                    rows: 448,
                    cols: 448,
                },
                1,
                1,
            ),
            plain(
                5,
                k2(StencilShape::box_2d(3), 106).into(),
                GridSpec::D2 {
                    rows: 384,
                    cols: 384,
                },
                1,
                1,
            ),
            plain(
                6,
                box3d_kernel(1, 107).into(),
                GridSpec::D3 {
                    planes: 8,
                    rows: 128,
                    cols: 128,
                },
                1,
                1,
            ),
            plain(
                7,
                Kernel3D::star_7point(0.4, 0.1).into(),
                GridSpec::D3 {
                    planes: 8,
                    rows: 128,
                    cols: 128,
                },
                2,
                1,
            ),
        ]
    };
    let deck: Vec<usize> = kinds
        .iter()
        .enumerate()
        .flat_map(|(k, (_, copies))| std::iter::repeat_n(k, *copies))
        .collect();
    let decks =
        ((seconds as f64 * DECK_RATE).ceil() as usize).max(MIN_REQUESTS.div_ceil(deck.len()));
    let mut rng = Rng::new(seed);
    let mut requests = Vec::with_capacity(decks * deck.len());
    for _ in 0..decks {
        let mut order = deck.clone();
        rng.shuffle(&mut order);
        for k in order {
            let id = requests.len() as u64 + 1_000;
            let mut req = kinds[k].0.clone();
            req.id = id;
            req.seed = rng.next_u64();
            requests.push(req);
        }
    }
    ClosedSpec {
        options: RuntimeOptions::default(),
        persisted: Vec::new(),
        warmup: kinds.into_iter().map(|(r, _)| r).collect(),
        requests,
    }
}

/// Distinct kernels in `plan_churn`'s population.
pub const CHURN_POPULATION: usize = 256;
/// Plan-cache capacity under `plan_churn` (far below the population).
pub const CHURN_CACHE: usize = 32;

/// `plan_churn`: small grids, Zipf(0.9)-drawn kernels from a population
/// eight times the plan cache, half of it pre-persisted in a plan store.
pub fn plan_churn(seed: u64, seconds: u64) -> ClosedSpec {
    const RATE: f64 = 800.0; // requests per second on the reference host
    let (rows, cols) = (96, 128);
    // Rank k (0 = hottest) has shape k mod 6, so every seed sees the same
    // shape mix by popularity; the seed picks coefficients and the draws.
    let population: Vec<_> = (0..CHURN_POPULATION)
        .map(|k| {
            planar_kernel(
                shape_2d(k),
                seed.wrapping_mul(0x2545_F491).wrapping_add(k as u64),
            )
        })
        .collect();
    let template = |id: u64, k: usize, data_seed| {
        request(
            id,
            population[k].clone(),
            GridSpec::D2 { rows, cols },
            1,
            data_seed,
            TenantId::ANONYMOUS,
        )
    };
    let n = ((seconds as f64 * RATE).ceil() as usize).max(MIN_REQUESTS);
    let zipf = Zipf::new(CHURN_POPULATION, 0.9);
    let mut rng = Rng::new(seed ^ 0xC4A5);
    let requests = (0..n)
        .map(|i| {
            let k = zipf.sample(&mut rng);
            template(10_000 + i as u64, k, rng.next_u64())
        })
        .collect();
    ClosedSpec {
        options: RuntimeOptions {
            cache_capacity: CHURN_CACHE,
            ..RuntimeOptions::default()
        },
        persisted: (1..CHURN_POPULATION)
            .step_by(2)
            .map(|k| template(k as u64, k, 0))
            .collect(),
        // The hottest ranks, one cache's worth: half load from the store,
        // half compile and write through; all of them tune.
        warmup: (0..CHURN_CACHE)
            .map(|k| template(CHURN_POPULATION as u64 + k as u64, k, 0))
            .collect(),
        requests,
    }
}

/// Compile every persisted kernel and write it to a fresh store at `dir`.
fn fill_store(dir: &Path, persisted: &[StencilRequest]) -> Result<Arc<PlanStore>, String> {
    let store = PlanStore::open(dir).map_err(|e| format!("open plan store: {e}"))?;
    for req in persisted {
        let plan = CachedPlan::compile(&req.kernel).map_err(|e| e.to_string())?;
        store
            .save_entry(req.plan_key(), &plan)
            .map_err(|e| format!("persist plan: {e}"))?;
    }
    Ok(Arc::new(store))
}

/// One cold start: build the runtime (opening `store`, if any), then
/// compile or load, tune and warm the plan set.
fn cold_start(spec: &ClosedSpec, store: Option<Arc<PlanStore>>) -> Result<SpiderRuntime, String> {
    let device = GpuDevice::a100();
    let rt = match store {
        None => SpiderRuntime::new(device, spec.options),
        Some(store) => SpiderRuntime::with_store(device, spec.options, store),
    };
    for req in &spec.warmup {
        rt.execute(req).map_err(|e| format!("warmup: {e}"))?;
    }
    Ok(rt)
}

/// The plan store a cold start opens: `persisted` written into a fresh
/// directory (`None` for a workload without a store).
fn fixture_store(spec: &ClosedSpec, dir: &Path) -> Result<Option<Arc<PlanStore>>, String> {
    if spec.persisted.is_empty() {
        Ok(None)
    } else {
        fill_store(dir, &spec.persisted).map(Some)
    }
}

fn traced_cold_start(spec: &ClosedSpec, dir: &Path, t: &Tracer) -> Result<TracedStack, String> {
    let store = fixture_store(spec, dir)?;
    let stack = TracedStack::new(GpuDevice::a100(), &spec.options, store);
    for req in &spec.warmup {
        stack.execute(req, t).map_err(|e| format!("warmup: {e}"))?;
    }
    Ok(stack)
}

fn trace_events(rt: &SpiderRuntime) -> u64 {
    let log = rt.telemetry().trace();
    log.len() as u64 + log.dropped_events()
}

fn compiles(rt: &SpiderRuntime) -> u64 {
    rt.telemetry()
        .metrics()
        .snapshot()
        .counter_value("spider_runtime_plan_compiles_total")
}

fn scratch_dir(root: &Path, tag: &str) -> PathBuf {
    let dir = root.join(tag);
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Provenance of the latency figures: sample count, per-window p99s, and
/// the p99 over the whole run with no windows.
pub fn record_latency(p: &mut crate::report::Provenance, l: &crate::stats::Latency) {
    p.int("n.latency", l.n as u64);
    p.text("latency_p99_windows_ms", &join(&l.window_p99s));
    p.num("latency_p99_whole_run_ms", l.all.p99.unwrap_or(f64::NAN));
}

/// Run a closed-loop workload: untraced (end-to-end metrics) or traced
/// (per-layer metrics; the untraced pass runs first for the overhead).
pub fn run(
    spec: &ClosedSpec,
    traced: bool,
    scratch: &Path,
    out: &mut RunReport,
) -> Result<(), String> {
    // ---- set-up ----
    let repeats = if traced { 1 } else { SETUP_REPEATS };
    let mut setups = Vec::new();
    let mut rt = None;
    for i in 0..repeats {
        drop(rt.take()); // drop the previous runtime before the next cold start
        let store = fixture_store(spec, &scratch_dir(scratch, &format!("store-{i}")))?;
        let t0 = Instant::now();
        rt = Some(cold_start(spec, store)?);
        setups.push(t0.elapsed().as_secs_f64());
    }
    let rt = rt.expect("at least one cold start");

    // ---- timed phase (untraced) ----
    let cache0 = rt.cache_stats();
    let pool0 = rt.pool_stats();
    let store0 = rt.store_stats();
    let events0 = trace_events(&rt);
    let compiles0 = compiles(&rt);
    let mut lat_ms = Vec::with_capacity(spec.requests.len());
    let mut outcomes: Vec<Option<RequestOutcome>> = Vec::with_capacity(spec.requests.len());
    let steal = TimedSteal::start();
    let t0 = Instant::now();
    for req in &spec.requests {
        let s = Instant::now();
        let res = rt.execute(req);
        lat_ms.push(s.elapsed().as_secs_f64() * 1e3);
        outcomes.push(
            res.map_err(|e| out.failures.push(format!("request {}: {e}", req.id)))
                .ok(),
        );
    }
    let wall_s = t0.elapsed().as_secs_f64();
    steal.record(&mut out.provenance, wall_s);
    let rss = crate::host::peak_rss_mib();
    let cache = cache_delta(&cache0, &rt.cache_stats());
    let pool_misses = rt.pool_stats().misses - pool0.misses;
    let store = store_delta(&store0, &rt.store_stats());
    let events = trace_events(&rt) - events0;
    let compiled = compiles(&rt) - compiles0;

    let n = spec.requests.len() as u64;
    let served: Vec<&RequestOutcome> = outcomes.iter().flatten().collect();
    out.attempted += n;
    out.failed += n - served.len() as u64;

    // ---- end-to-end ----
    let points: u64 = served.iter().map(|o| o.report.points).sum();
    let sim_s: f64 = served.iter().map(|o| o.report.time_s()).sum();
    let ok_lat: Vec<f64> = lat_ms
        .iter()
        .zip(&outcomes)
        .filter(|(_, o)| o.is_some())
        .map(|(l, _)| *l)
        .collect();
    let lat = latency(&ok_lat);
    let mut by_scenario: std::collections::BTreeMap<String, Vec<f64>> = Default::default();
    for (req, l) in spec.requests.iter().zip(&lat_ms) {
        by_scenario.entry(req.scenario()).or_default().push(*l);
    }
    for (scenario, v) in &by_scenario {
        let s = Summary::of(v);
        eprintln!("  {scenario:<28} n={:<6} p50 {:.3} ms", s.n, s.p50);
    }
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
    p.num("timed_wall_s", wall_s);
    p.text("setup_s_samples", &join(&setups));

    // ---- checks ----
    for i in check::sample_indices(spec.requests.len(), CHECK_SAMPLES) {
        let req = &spec.requests[i];
        let res = match &outcomes[i] {
            Some(o) => check::verify(rt.device(), req, o.tiling, o.checksum).map(|_| ()),
            None => Err(format!("request {} has no output to check", req.id)),
        };
        out.check(res.is_ok(), || res.unwrap_err());
    }
    out.check(cache.hits + cache.misses == n, || {
        format!(
            "cache hits {} + misses {} != requests {n}",
            cache.hits, cache.misses
        )
    });
    out.check(cache.store_hits + compiled == cache.misses, || {
        format!(
            "store hits {} + compiles {compiled} != cache misses {}",
            cache.store_hits, cache.misses
        )
    });

    if !traced {
        return Ok(());
    }

    // ---- traced pass: each request through a fresh real runtime and the
    // traced copy, in turn ----
    let tracer = Tracer::new();
    let paired_rt = cold_start(
        spec,
        fixture_store(spec, &scratch_dir(scratch, "store-paired"))?,
    )?;
    let stack = traced_cold_start(spec, &scratch_dir(scratch, "store-traced"), &tracer)?;
    let rcache0 = stack.cache().stats();
    let mark = tracer.mark();
    let (pairs, loop_wall_ns) = paired_pass(&paired_rt, &stack, &spec.requests, &tracer);
    let rcache = cache_delta(&rcache0, &stack.cache().stats());
    let spans = tracer.finish_since(mark);

    let differ = outcomes
        .iter()
        .zip(&pairs)
        .filter(|(a, p)| {
            let want = a.as_ref().map(|o| o.checksum);
            p.real.as_ref().map(|o| o.checksum) != want || p.copy.map(|o| o.checksum) != want
        })
        .count();
    out.check(differ == 0, || {
        format!("{differ} traced-pass outputs differ from the untraced pass")
    });
    out.check(
        (rcache.hits, rcache.misses, rcache.evictions)
            == (cache.hits, cache.misses, cache.evictions),
        || format!("traced cache counts {rcache:?} differ from the runtime's {cache:?}"),
    );

    let untraced_ns: f64 = lat_ms.iter().sum::<f64>() * 1e6;
    let mut layers = Layers {
        compiles: compiled,
        pool_misses,
        cache,
        store,
        requests: n,
        trace_events: events,
        metric_series: {
            rt.sync_metrics();
            rt.telemetry().metrics().snapshot().values.len() as u64
        },
        trace_overhead_share: crate::trace::root_ns(&spans) as f64 / untraced_ns - 1.0,
        ..Layers::default()
    };
    for o in &served {
        layers.add_modeled(&o.report);
        layers.tune_calls += 1;
        layers.memo_hits += o.tuner_memo_hit as u64;
    }
    layers.dry_runs = pairs
        .iter()
        .flat_map(|p| p.copy)
        .map(|o| o.dry_runs as u64)
        .sum();
    // Failed requests keep their root span; they add no points.
    let roots: Vec<Root> = pairs.iter().map(Root::from).collect();
    layers.add_spans(&spans, &roots, loop_wall_ns);
    // Layer self times and the execute gap partition the real calls; only
    // the loop glue between calls is unattributed.
    let unattributed = layers.unattributed_share();
    out.check(unattributed.abs() <= TRACE_SLACK, || {
        format!("layer self times leave {unattributed:.4} of the traced time unattributed")
    });
    layers.emit(&mut out.metrics, &mut out.provenance);
    out.provenance
        .num("traced_wall_s", loop_wall_ns as f64 / 1e9);
    Ok(())
}
