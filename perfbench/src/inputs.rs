//! Seeded input generation. Every request sequence is generated in full
//! before timing starts, from the workload seed alone.

use spider_runtime::{GridSpec, RequestKernel, StencilRequest, TenantId};
use spider_stencil::dim3::Kernel3D;
use spider_stencil::{StencilKernel, StencilShape};

/// splitmix64.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Self(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_f64() * n as f64) as usize % n.max(1)
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            v.swap(i, self.below(i + 1));
        }
    }
}

/// Zipf(`s`) over ranks `0..n` (rank `k` has weight `1/(k+1)^s`), sampled
/// by binary search over the exact CDF.
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize, s: f64) -> Self {
        assert!(n >= 1);
        let mut total = 0.0;
        let mut cdf: Vec<f64> = (0..n)
            .map(|k| {
                total += 1.0 / ((k + 1) as f64).powf(s);
                total
            })
            .collect();
        for c in &mut cdf {
            *c /= total;
        }
        Self { cdf }
    }

    pub fn sample(&self, rng: &mut Rng) -> usize {
        let u = rng.next_f64();
        self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1)
    }
}

/// A random planar kernel scaled so its coefficient magnitudes sum to 1:
/// repeated sweeps stay in range, so FP16 storage error stays near one ulp
/// of values below 1 and the f64 oracle tolerance can stay tight.
pub fn planar_kernel(shape: StencilShape, seed: u64) -> StencilKernel {
    let k = StencilKernel::random(shape, seed);
    let gain: f64 = k.coeffs().iter().map(|c| c.abs()).sum();
    StencilKernel::from_coeffs(shape, k.coeffs().iter().map(|c| c / gain).collect())
}

/// A random box-3D kernel normalized like [`planar_kernel`].
pub fn box3d_kernel(radius: usize, seed: u64) -> Kernel3D {
    let k = Kernel3D::random_box(radius, seed);
    let gain: f64 = k.coeffs().iter().map(|c| c.abs()).sum();
    Kernel3D::from_coeffs(radius, k.coeffs().iter().map(|c| c / gain).collect())
}

/// The six 2D shapes used by the plan-population workloads.
pub const SHAPES_2D: [(bool, usize); 6] = [
    (true, 1),
    (false, 1),
    (true, 2),
    (false, 2),
    (true, 3),
    (false, 3),
];

/// Shape `i mod 6` of [`SHAPES_2D`] (`true` = box, `false` = star).
pub fn shape_2d(i: usize) -> StencilShape {
    let (is_box, r) = SHAPES_2D[i % SHAPES_2D.len()];
    if is_box {
        StencilShape::box_2d(r)
    } else {
        StencilShape::star_2d(r)
    }
}

/// A request with every field the benchmark controls set explicitly.
pub fn request(
    id: u64,
    kernel: impl Into<RequestKernel>,
    grid: GridSpec,
    steps: usize,
    data_seed: u64,
    tenant: TenantId,
) -> StencilRequest {
    StencilRequest::builder(id, kernel, grid)
        .steps(steps)
        .seed(data_seed)
        .tenant(tenant)
        .build()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rng_and_zipf_repeat_for_a_seed() {
        let z = Zipf::new(256, 0.9);
        let draw = |seed| {
            let mut r = Rng::new(seed);
            (0..200).map(|_| z.sample(&mut r)).collect::<Vec<_>>()
        };
        assert_eq!(draw(5), draw(5));
        assert_ne!(draw(5), draw(6));
        let mut r = Rng::new(1);
        let hot = (0..10_000).filter(|_| z.sample(&mut r) == 0).count();
        assert!(hot > 500, "rank 0 of Zipf(0.9) over 256 draws ~9%: {hot}");
    }

    #[test]
    fn normalized_kernels_have_unit_gain_and_distinct_fingerprints() {
        let a = planar_kernel(StencilShape::box_2d(2), 1);
        let b = planar_kernel(StencilShape::box_2d(2), 2);
        let gain: f64 = a.coeffs().iter().map(|c| c.abs()).sum();
        assert!((gain - 1.0).abs() < 1e-12);
        assert_ne!(a.fingerprint(), b.fingerprint());
        let k = box3d_kernel(1, 3);
        let gain: f64 = k.coeffs().iter().map(|c| c.abs()).sum();
        assert!((gain - 1.0).abs() < 1e-12);
    }
}
