//! Output checks for a sample of served requests.
//!
//! Each sampled request is recomputed twice, independently of the serving
//! path: by a lone `SpiderExecutor` / `Spider3DExecutor` on the request's
//! materialized input (its `output_checksum` must equal the served one
//! bit for bit), and by the naive f64 oracle on FP16-quantized inputs and
//! coefficients, with FP16 storage between sweeps (the lone output must lie
//! within [`tolerance`] of it).

use spider_core::exec3d::{Spider3DExecutor, Spider3DPlan};
use spider_core::{ExecConfig, SpiderExecutor, SpiderPlan, TilingConfig};
use spider_gpu_sim::half::F16;
use spider_gpu_sim::GpuDevice;
use spider_runtime::{output_checksum, GridSpec, RequestKernel, StencilRequest};
use spider_stencil::dim3::{step_3d, Grid3D, Kernel3D};
use spider_stencil::exec::reference;
use spider_stencil::verify::{compare_1d, compare_2d};
use spider_stencil::{Dim, Grid1D, Grid2D, StencilKernel};

/// Largest oracle deviation accepted after `steps` sweeps of a unit-gain
/// kernel: a few FP16 ulps of values below 1 per sweep.
pub fn tolerance(steps: usize) -> f64 {
    5e-3 * steps as f64
}

fn q(v: f64) -> f64 {
    F16::quantize(v as f32) as f64
}

fn quantized_planar(k: &StencilKernel) -> StencilKernel {
    match k.shape().dim {
        Dim::D1 => StencilKernel::d1(
            k.radius(),
            &k.coeffs().iter().map(|&c| q(c)).collect::<Vec<_>>(),
        ),
        Dim::D2 => StencilKernel::from_fn_2d(k.shape(), |di, dj| q(k.at(di, dj))),
    }
}

fn oracle_1d(k: &StencilKernel, input: &Grid1D<f32>, steps: usize) -> Grid1D<f64> {
    let qk = quantized_planar(k);
    let mut cur: Grid1D<f64> = input.convert();
    cur.padded_mut().iter_mut().for_each(|v| *v = q(*v));
    for _ in 0..steps {
        let mut next = cur.clone();
        reference::step_1d(&qk, &cur, &mut next);
        next.padded_mut().iter_mut().for_each(|v| *v = q(*v));
        cur = next;
    }
    cur
}

fn oracle_2d(k: &StencilKernel, input: &Grid2D<f32>, steps: usize) -> Grid2D<f64> {
    let qk = quantized_planar(k);
    let mut cur: Grid2D<f64> = input.convert();
    cur.padded_mut().iter_mut().for_each(|v| *v = q(*v));
    for _ in 0..steps {
        let mut next = cur.clone();
        reference::step_2d(&qk, &cur, &mut next);
        next.padded_mut().iter_mut().for_each(|v| *v = q(*v));
        cur = next;
    }
    cur
}

fn quantize_3d(g: &mut Grid3D<f64>) {
    for z in 0..g.planes() {
        for i in 0..g.rows() {
            for j in 0..g.cols() {
                g.set(z, i, j, q(g.get(z, i, j)));
            }
        }
    }
}

fn oracle_3d(k: &Kernel3D, input: &Grid3D<f32>, steps: usize) -> Grid3D<f64> {
    let qk = Kernel3D::from_fn(k.radius(), |dz, dx, dy| q(k.at(dz, dx, dy)));
    let mut cur: Grid3D<f64> = input.convert();
    quantize_3d(&mut cur);
    for _ in 0..steps {
        let mut next = cur.clone();
        step_3d(&qk, &cur, &mut next);
        quantize_3d(&mut next);
        cur = next;
    }
    cur
}

/// Recompute `req` alone with the tiling the serving path chose; require
/// bit identity with `served_checksum` and oracle agreement. Returns the
/// oracle deviation.
pub fn verify(
    device: &GpuDevice,
    req: &StencilRequest,
    tiling: TilingConfig,
    served_checksum: u64,
) -> Result<f64, String> {
    let config = ExecConfig {
        tiling,
        ..ExecConfig::default()
    };
    let (checksum, err) = match (&req.kernel, req.grid) {
        (RequestKernel::Planar(k), GridSpec::D1 { .. }) => {
            let plan = SpiderPlan::compile(k).map_err(|e| e.to_string())?;
            let input = req.materialize_1d();
            let mut grid = input.clone();
            SpiderExecutor::with_config(device, req.mode, config)
                .run_1d(&plan, &mut grid, req.steps)?;
            let err = compare_1d(&oracle_1d(k, &input, req.steps), &grid).max_abs;
            (output_checksum(grid.padded()), err)
        }
        (RequestKernel::Planar(k), GridSpec::D2 { .. }) => {
            let plan = SpiderPlan::compile(k).map_err(|e| e.to_string())?;
            let input = req.materialize_2d();
            let mut grid = input.clone();
            SpiderExecutor::with_config(device, req.mode, config)
                .run_2d(&plan, &mut grid, req.steps)?;
            let err = compare_2d(&oracle_2d(k, &input, req.steps), &grid).max_abs;
            (output_checksum(grid.padded()), err)
        }
        (RequestKernel::Volumetric(k), GridSpec::D3 { .. }) => {
            let plan = Spider3DPlan::compile(k).map_err(|e| e.to_string())?;
            let input = req.materialize_3d();
            let mut grid = input.clone();
            Spider3DExecutor::with_config(device, req.mode, config)
                .run(&plan, &mut grid, req.steps)?;
            let got: Grid3D<f64> = grid.convert();
            let err = oracle_3d(k, &input, req.steps).max_abs_diff(&got);
            (output_checksum(grid.padded()), err)
        }
        _ => return Err(format!("request {}: kernel/grid rank mismatch", req.id)),
    };
    if checksum != served_checksum {
        return Err(format!(
            "request {} ({}): served checksum {served_checksum:016x} != lone executor {checksum:016x}",
            req.id,
            req.scenario()
        ));
    }
    if err.is_nan() || err > tolerance(req.steps) {
        return Err(format!(
            "request {} ({}): oracle deviation {err:.3e} > {:.1e}",
            req.id,
            req.scenario(),
            tolerance(req.steps)
        ));
    }
    Ok(err)
}

/// Evenly spaced indices `0, n/k, 2n/k, …` (at most `k`, all distinct).
pub fn sample_indices(n: usize, k: usize) -> Vec<usize> {
    let mut v: Vec<usize> = (0..k.min(n)).map(|i| i * n / k.min(n).max(1)).collect();
    v.dedup();
    v
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inputs::{box3d_kernel, planar_kernel, request};
    use spider_runtime::{SpiderRuntime, TenantId};
    use spider_stencil::StencilShape;

    #[test]
    fn served_outputs_pass_and_a_wrong_checksum_fails() {
        let rt = SpiderRuntime::with_defaults(GpuDevice::a100());
        let reqs = [
            request(
                1,
                planar_kernel(StencilShape::d1(2), 1),
                GridSpec::D1 { len: 4096 },
                2,
                11,
                TenantId::ANONYMOUS,
            ),
            request(
                2,
                planar_kernel(StencilShape::star_2d(3), 2),
                GridSpec::D2 { rows: 40, cols: 72 },
                2,
                12,
                TenantId::ANONYMOUS,
            ),
            request(
                3,
                box3d_kernel(1, 3),
                GridSpec::D3 {
                    planes: 3,
                    rows: 16,
                    cols: 32,
                },
                1,
                13,
                TenantId::ANONYMOUS,
            ),
        ];
        for req in &reqs {
            let out = rt.execute(req).expect("serves");
            let err = verify(rt.device(), req, out.tiling, out.checksum).expect("verifies");
            assert!(err < tolerance(req.steps), "{err}");
            assert!(verify(rt.device(), req, out.tiling, out.checksum ^ 1).is_err());
        }
    }

    #[test]
    fn sample_indices_are_spread_and_bounded() {
        assert_eq!(sample_indices(100, 4), vec![0, 25, 50, 75]);
        assert_eq!(sample_indices(3, 8), vec![0, 1, 2]);
        assert!(sample_indices(0, 8).is_empty());
    }
}
