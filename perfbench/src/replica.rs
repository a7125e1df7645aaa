//! The traced pass's serving stack: the same layers `SpiderRuntime` owns
//! (plan cache, autotuner, buffer pool, optional plan store), built from
//! their public constructors and driven call by call from the benchmark,
//! with a span around every call. `execute` makes the calls
//! `SpiderRuntime::execute` makes, in the same order and with the same
//! arguments, so it does the same work on the same plans; the benchmark
//! checks that both produce the same checksums and cache counts.
//!
//! What `SpiderRuntime::execute` does besides those calls (its trace
//! events, profiler and meters) the copy leaves out. [`paired_pass`]
//! therefore serves every request through the real runtime as well, timed
//! as one call, so the per-request figures can be taken against the real
//! `execute` and the part the copy does not cover is reported on its own.
//!
//! One deliberate difference: a plan-store miss compiles inside the cache's
//! loader hook (instead of letting the cache compile) so that
//! `CachedPlan::compile` gets a span of its own. The cache then counts that
//! insertion as a store hit; hits, misses, insertions and evictions are
//! unchanged.

use std::cell::Cell;
use std::sync::Arc;
use std::time::Instant;

use spider_core::exec3d::Spider3DExecutor;
use spider_core::{BufferPool, ExecConfig, SpiderExecutor};
use spider_gpu_sim::GpuDevice;
use spider_runtime::{
    output_checksum, AutoTuner, CachedPlan, GridSpec, PlanCache, PlanStore, RequestOutcome,
    RuntimeOptions, SpiderRuntime, StencilRequest,
};

use crate::trace::Tracer;

/// Span names of the executor entry points, by grid rank.
pub const EXEC_SPANS: [&str; 3] = ["core.exec.run_1d", "core.exec.run_2d", "core.exec3d.run"];
pub const ROOT_SPAN: &str = "runtime.execute";

/// What one traced request produced.
#[derive(Debug, Clone, Copy)]
pub struct TracedOutcome {
    pub checksum: u64,
    /// Points × sweeps.
    pub points: u64,
    pub rank: usize,
    /// Tuner dry-runs this request paid (0 on a memo hit).
    pub dry_runs: usize,
}

pub struct TracedStack {
    device: GpuDevice,
    cache: PlanCache,
    tuner: AutoTuner,
    pool: BufferPool,
    store: Option<Arc<PlanStore>>,
}

impl TracedStack {
    /// Mirror of `SpiderRuntime::new` / `SpiderRuntime::with_store`
    /// (autotuning on, fixed cache capacity).
    pub fn new(device: GpuDevice, options: &RuntimeOptions, store: Option<Arc<PlanStore>>) -> Self {
        assert!(
            options.autotune && options.cache_autosize.is_none(),
            "the traced stack mirrors the autotuned, fixed-capacity runtime"
        );
        let tuner = AutoTuner::with_memo_capacity(
            options.tuner_dry_run_cap,
            options.tuner_shortlist,
            options.tuner_memo_capacity,
        );
        if let Some(store) = &store {
            tuner.import_memos(
                store
                    .load_memos(device.specs().fingerprint())
                    .into_iter()
                    .map(|m| ((m.plan_key, m.grid), m.outcome)),
            );
        }
        Self {
            cache: PlanCache::new(options.cache_capacity),
            tuner,
            pool: BufferPool::new(),
            store,
            device,
        }
    }

    pub fn cache(&self) -> &PlanCache {
        &self.cache
    }

    pub fn execute(&self, req: &StencilRequest, t: &Tracer) -> Result<TracedOutcome, String> {
        let id = req.id;
        t.span(ROOT_SPAN, "runtime", id, || {
            if !req.dims_consistent() {
                return Err(format!("request {id}: grid/kernel dimensionality mismatch"));
            }
            let key = req.plan_key();
            let compiled = Cell::new(false);
            let loader = |k: u64| -> Option<CachedPlan> {
                if let Some(store) = &self.store {
                    let loaded = t.span("runtime.store.load_entry", "runtime.store", id, || {
                        store.load_entry_sized(k)
                    });
                    if let Some((plan, _)) = loaded.filter(|(p, _)| p.matches_kernel(&req.kernel)) {
                        return Some(plan);
                    }
                }
                compiled.set(true);
                t.span("core.compile", "core", id, || {
                    CachedPlan::compile(&req.kernel)
                })
                .ok()
            };
            let (plan, _, _) = t
                .span(
                    "runtime.cache.get_or_compile_with_loader",
                    "runtime.cache",
                    id,
                    || {
                        self.cache
                            .get_or_compile_with_loader(key, &req.kernel, Some(&loader))
                    },
                )
                .map_err(|e| e.to_string())?;
            if compiled.get() {
                if let Some(store) = &self.store {
                    // Best-effort write-through, as the runtime does.
                    let _ = t.span("runtime.store.save_entry", "runtime.store", id, || {
                        store.save_entry(key, &plan)
                    });
                }
            }
            let rep = match &plan {
                CachedPlan::Planar(p) => p.as_ref(),
                CachedPlan::Volumetric(p) => p.representative_slice(),
            };
            let tuned = t.span("runtime.tuner.tune", "runtime.tuner", id, || {
                self.tuner.tune(&self.device, rep, req.mode, req.grid, key)
            });
            let config = ExecConfig {
                tiling: tuned.tiling,
                ..ExecConfig::default()
            };
            let planar = || plan.planar().ok_or("volumetric plan for a planar grid");
            let (report, checksum, rank) = match req.grid {
                GridSpec::D1 { .. } => {
                    let exec = SpiderExecutor::with_shared_pool(
                        &self.device,
                        req.mode,
                        config,
                        self.pool.clone(),
                    );
                    let plan = planar()?;
                    let mut grid = req.materialize_1d();
                    let report = t.span(EXEC_SPANS[0], "core", id, || {
                        exec.run_1d(plan, &mut grid, req.steps)
                    })?;
                    let sum = t.span("runtime.output_checksum", "runtime", id, || {
                        output_checksum(grid.padded())
                    });
                    (report, sum, 1)
                }
                GridSpec::D2 { .. } => {
                    let exec = SpiderExecutor::with_shared_pool(
                        &self.device,
                        req.mode,
                        config,
                        self.pool.clone(),
                    );
                    let plan = planar()?;
                    let mut grid = req.materialize_2d();
                    let report = t.span(EXEC_SPANS[1], "core", id, || {
                        exec.run_2d(plan, &mut grid, req.steps)
                    })?;
                    let sum = t.span("runtime.output_checksum", "runtime", id, || {
                        output_checksum(grid.padded())
                    });
                    (report, sum, 2)
                }
                GridSpec::D3 { .. } => {
                    let exec = Spider3DExecutor::with_shared_pool(
                        &self.device,
                        req.mode,
                        config,
                        self.pool.clone(),
                    );
                    let plan = plan
                        .volumetric()
                        .ok_or("planar plan for a volumetric grid")?;
                    let mut grid = req.materialize_3d();
                    let report = t.span(EXEC_SPANS[2], "core", id, || {
                        exec.run(plan, &mut grid, req.steps)
                    })?;
                    let sum = t.span("runtime.output_checksum", "runtime", id, || {
                        output_checksum(grid.padded())
                    });
                    (report, sum, 3)
                }
            };
            Ok(TracedOutcome {
                checksum,
                points: report.points,
                rank,
                dry_runs: if tuned.memoized { 0 } else { tuned.dry_runs },
            })
        })
    }
}

/// One request of a paired pass.
#[derive(Debug, Clone)]
pub struct Paired {
    /// Time inside the real `SpiderRuntime::execute`, ns.
    pub real_ns: u64,
    pub real: Option<RequestOutcome>,
    pub copy: Option<TracedOutcome>,
}

/// Serve every request twice, through the real runtime (one timed call, no
/// spans) and through the copy (spans), alternating which goes first so
/// that neither always runs on caches the other has just warmed. Returns
/// the pairs and the wall time of the whole loop, ns.
pub fn paired_pass<'a>(
    rt: &SpiderRuntime,
    stack: &TracedStack,
    requests: impl IntoIterator<Item = &'a StencilRequest>,
    t: &Tracer,
) -> (Vec<Paired>, u64) {
    let real = |req| {
        let s = Instant::now();
        let out = rt.execute(req).ok();
        (s.elapsed().as_nanos() as u64, out)
    };
    let mut pairs = Vec::new();
    let t0 = Instant::now();
    for (i, req) in requests.into_iter().enumerate() {
        let ((real_ns, real), copy) = if i % 2 == 0 {
            let r = real(req);
            (r, stack.execute(req, t).ok())
        } else {
            let c = stack.execute(req, t).ok();
            (real(req), c)
        };
        pairs.push(Paired {
            real_ns,
            real,
            copy,
        });
    }
    (pairs, t0.elapsed().as_nanos() as u64)
}
