//! R-MAT recursive matrix generator (Chakrabarti et al.), with the
//! Graph500 parameter set `(a, b, c, d) = (0.57, 0.19, 0.19, 0.05)` used by
//! the paper's scaling experiments (Figures 10, 11, 14, 15).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rayon::prelude::*;
use sparse::{CooMatrix, CsrMatrix, Idx};

/// R-MAT quadrant probabilities.
#[derive(Copy, Clone, Debug)]
pub struct RmatParams {
    /// Top-left quadrant probability.
    pub a: f64,
    /// Top-right quadrant probability.
    pub b: f64,
    /// Bottom-left quadrant probability.
    pub c: f64,
    /// Edges per vertex (Graph500 edge factor, default 16).
    pub edge_factor: usize,
    /// Noise added per recursion level to smooth the degree distribution,
    /// as in the Graph500 reference implementation. 0.0 disables.
    pub noise: f64,
}

impl Default for RmatParams {
    fn default() -> Self {
        RmatParams {
            a: 0.57,
            b: 0.19,
            c: 0.19,
            edge_factor: 16,
            noise: 0.0,
        }
    }
}

impl RmatParams {
    /// The implied bottom-right probability `d = 1 − a − b − c`.
    pub fn d(&self) -> f64 {
        1.0 - self.a - self.b - self.c
    }
}

/// Edge-sampling RNG streams per [`rmat`] call. Part of the generated
/// graph's identity: changing it changes every graph.
const RMAT_CHUNKS: usize = 4;

/// Generate a `2^scale × 2^scale` R-MAT matrix with
/// `edge_factor · 2^scale` sampled edges (duplicates combined, so the
/// stored nnz is somewhat lower, as with Graph500 graphs).
///
/// Values count edge multiplicity as f64. Deterministic in `seed` and
/// independent of thread count: edges are sampled in a fixed number of
/// per-chunk RNG streams, whatever the pool width.
pub fn rmat(scale: u32, params: RmatParams, seed: u64) -> CsrMatrix<f64> {
    let n = 1usize << scale;
    let nedges = params.edge_factor * n;
    let chunk = nedges.div_ceil(RMAT_CHUNKS).max(1);
    let starts: Vec<usize> = (0..nedges).step_by(chunk).collect();
    let edges: Vec<Vec<(Idx, Idx)>> = starts
        .par_iter()
        .map(|&start| {
            let m = chunk.min(nedges - start);
            let mut rng =
                StdRng::seed_from_u64(seed ^ (start as u64).wrapping_mul(0xD1B5_4A32_D192_ED03));
            (0..m)
                .map(|_| sample_edge(scale, &params, &mut rng))
                .collect()
        })
        .collect();
    let mut coo = CooMatrix::new(n, n);
    coo.reserve(nedges);
    for chunk_edges in edges {
        for (i, j) in chunk_edges {
            coo.push(i, j, 1.0f64);
        }
    }
    coo.to_csr_with(|x, y| x + y)
}

fn sample_edge(scale: u32, p: &RmatParams, rng: &mut StdRng) -> (Idx, Idx) {
    let (mut i, mut j) = (0u64, 0u64);
    let (mut a, mut b, mut c) = (p.a, p.b, p.c);
    for _ in 0..scale {
        let (ca, cb, cc) = if p.noise > 0.0 {
            // Multiplicative noise per level (Graph500 style).
            let na = a * (1.0 + p.noise * (rng.gen::<f64>() - 0.5));
            let nb = b * (1.0 + p.noise * (rng.gen::<f64>() - 0.5));
            let nc = c * (1.0 + p.noise * (rng.gen::<f64>() - 0.5));
            let nd = (1.0 - a - b - c) * (1.0 + p.noise * (rng.gen::<f64>() - 0.5));
            let s = na + nb + nc + nd;
            (na / s, nb / s, nc / s)
        } else {
            (a, b, c)
        };
        let r: f64 = rng.gen();
        i <<= 1;
        j <<= 1;
        if r < ca {
            // top-left
        } else if r < ca + cb {
            j |= 1;
        } else if r < ca + cb + cc {
            i |= 1;
        } else {
            i |= 1;
            j |= 1;
        }
        let _ = (&mut a, &mut b, &mut c);
    }
    (i as Idx, j as Idx)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic() {
        let a = rmat(8, RmatParams::default(), 5);
        let b = rmat(8, RmatParams::default(), 5);
        assert_eq!(a, b);
    }

    #[test]
    fn independent_of_pool_width() {
        let at = |threads: usize| {
            rayon::ThreadPoolBuilder::new()
                .num_threads(threads)
                .build()
                .unwrap()
                .install(|| rmat(8, RmatParams::default(), 5))
        };
        let one = at(1);
        assert_eq!(at(2), one, "2-thread pool generated a different graph");
        assert_eq!(at(3), one, "3-thread pool generated a different graph");
    }

    #[test]
    fn dims_and_edge_budget() {
        let scale = 9;
        let a = rmat(scale, RmatParams::default(), 1);
        let n = 1usize << scale;
        assert_eq!(a.shape(), (n, n));
        // Sampled edges = 16n; stored nnz lower due to duplicates but
        // total multiplicity preserved.
        let total: f64 = a.values().iter().sum();
        assert_eq!(total as usize, 16 * n);
        assert!(a.nnz() <= 16 * n);
        assert!(a.nnz() > 8 * n, "too many duplicates: {}", a.nnz());
    }

    #[test]
    fn skewed_degrees() {
        // R-MAT with Graph500 parameters concentrates edges: the max
        // row degree should far exceed the average.
        let a = rmat(10, RmatParams::default(), 2);
        let n = 1usize << 10;
        let avg = a.nnz() as f64 / n as f64;
        let max = (0..n).map(|i| a.row_nnz(i)).max().unwrap();
        assert!(
            max as f64 > 4.0 * avg,
            "max degree {max} vs avg {avg} not skewed"
        );
    }

    #[test]
    fn params_d_complement() {
        let p = RmatParams::default();
        assert!((p.d() - 0.05).abs() < 1e-12);
    }

    #[test]
    fn noise_variant_still_valid() {
        let p = RmatParams {
            noise: 0.1,
            ..Default::default()
        };
        let a = rmat(7, p, 9);
        assert_eq!(a.shape(), (128, 128));
        assert!(a.nnz() > 0);
    }
}
