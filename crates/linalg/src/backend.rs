//! Pluggable eigen-backends for model fitting.
//!
//! Every consumer of the subspace method ultimately needs one thing from
//! this crate: the top singular triplets of an `n x p` data matrix. How
//! they are computed is a *backend* decision — the paper-scale dense route
//! (full Gram matrix + tridiagonal QR) is exact but `O(p³)` and `O(p²)`
//! memory, while the randomized range finder ([`randomized_thin_svd`])
//! touches nothing larger than a `p x (k + oversample)` panel and runs the
//! detector at 90 000 OD pairs.
//!
//! [`EigenMethod`] is the configuration-level selector carried by
//! `SubspaceConfig` and threaded through the whole fitting stack;
//! [`EigenBackend`] is the trait seam future solvers (Lanczos, GPU,
//! incremental refit) plug into without touching any call site above this
//! crate.

use crate::error::Result;
use crate::matrix::Matrix;
use crate::randomized::{randomized_thin_svd, RandomizedSvdOptions, DEFAULT_SKETCH_SEED};
use crate::svd::{thin_svd, Svd};

/// Largest OD-space dimension `p` at which [`EigenMethod::Auto`] stays on
/// the dense exact path. Up to this the full `p x p` Gram eigenproblem is
/// affordable (hundreds of milliseconds at `p = 512`); above it `Auto`
/// switches to the randomized truncated solver, whose cost grows only
/// linearly in `p`.
pub const AUTO_DENSE_MAX_DIM: usize = 512;

/// How to compute the eigen/singular decomposition during model fitting.
///
/// # Examples
///
/// ```
/// use odflow_linalg::EigenMethod;
///
/// // Auto picks the dense exact path from the paper's scale through
/// // mid-size meshes...
/// assert_eq!(EigenMethod::Auto.resolve(121), EigenMethod::DenseTridiagonal);
/// assert_eq!(EigenMethod::Auto.resolve(512), EigenMethod::DenseTridiagonal);
/// // ...and the randomized truncated path at large-mesh scale.
/// assert!(matches!(
///     EigenMethod::Auto.resolve(90_000),
///     EigenMethod::RandomizedTruncated { .. }
/// ));
/// // Explicit choices resolve to themselves.
/// assert_eq!(EigenMethod::DenseTridiagonal.resolve(90_000), EigenMethod::DenseTridiagonal);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum EigenMethod {
    /// Full `p x p` Gram matrix + blocked Householder tridiagonalization
    /// and implicit Wilkinson-shift QR ([`crate::eigen_symmetric`]): the
    /// exact full spectrum, bit-identical for every thread count. Memory
    /// and time grow as `O(p²)` / `O(p³)`.
    ///
    /// ```
    /// use odflow_linalg::{truncated_svd, EigenMethod, Matrix};
    ///
    /// // The dense backend returns the full spectrum whatever rank is asked.
    /// let x = Matrix::from_fn(40, 24, |i, j| ((i * 3 + j * 7) % 11) as f64);
    /// let tri = truncated_svd(&x, 4, EigenMethod::DenseTridiagonal).unwrap();
    /// assert!(tri.rank() > 4);
    /// assert!(tri.sigma.windows(2).all(|w| w[0] >= w[1]));
    /// ```
    DenseTridiagonal,
    /// Halko-style randomized range finder: Gaussian sketch, a few power
    /// iterations, and a dense eigenproblem on the tiny
    /// `(k + oversample)²` projected matrix. Deterministic for a fixed
    /// `seed` (and bit-identical for every thread count); never
    /// materializes anything `p x p`.
    RandomizedTruncated {
        /// Extra sketch columns beyond the requested rank (5-10 typical).
        oversample: usize,
        /// Power iterations tightening the range (1-2 typical).
        power_iters: usize,
        /// Seed of the ChaCha8 Gaussian sketch stream.
        seed: u64,
    },
    /// Pick by problem size: [`EigenMethod::DenseTridiagonal`] up to
    /// [`AUTO_DENSE_MAX_DIM`], otherwise
    /// [`EigenMethod::RandomizedTruncated`] with default parameters
    /// (`oversample = 8`, `power_iters = 2`, a fixed seed). This is the
    /// default carried by `SubspaceConfig`.
    #[default]
    Auto,
}

impl EigenMethod {
    /// Collapses [`EigenMethod::Auto`] into a concrete method for an
    /// OD-space dimension `p`; explicit choices return themselves.
    pub fn resolve(self, p: usize) -> EigenMethod {
        match self {
            EigenMethod::Auto => {
                if p <= AUTO_DENSE_MAX_DIM {
                    EigenMethod::DenseTridiagonal
                } else {
                    let d = RandomizedSvdOptions::default();
                    EigenMethod::RandomizedTruncated {
                        oversample: d.oversample,
                        power_iters: d.power_iters,
                        seed: DEFAULT_SKETCH_SEED,
                    }
                }
            }
            other => other,
        }
    }

    /// Collapses to a concrete **dense** eigensolver for full-spectrum
    /// work at dimension `p` — the dispatch [`crate::thin_svd_with`] uses.
    /// There is one dense solver, so every method lands on it: `Auto` at
    /// any `p`, and `RandomizedTruncated`, which cannot produce a full
    /// spectrum.
    pub fn resolve_dense(self, _p: usize) -> EigenMethod {
        match self {
            EigenMethod::DenseTridiagonal
            | EigenMethod::Auto
            | EigenMethod::RandomizedTruncated { .. } => EigenMethod::DenseTridiagonal,
        }
    }

    /// `true` when fitting at dimension `p` takes the dense exact path.
    pub fn is_dense_for(self, p: usize) -> bool {
        self.resolve(p) == EigenMethod::DenseTridiagonal
    }
}

/// The backend seam: anything that can produce the top singular triplets
/// of a data matrix can drive the subspace method.
///
/// Contract: `fit_svd(x, rank)` returns the top triplets of `x` in
/// descending σ order with orthonormal `U`/`V` panels — up to the
/// **numerical rank** of the data, which may be fewer than `rank`
/// (numerically zero directions are dropped rather than returned as
/// garbage), and may be more (the dense backend returns the full
/// spectrum; the randomized backend returns its `rank + oversample`
/// sketch width). Callers must size against the returned [`Svd::rank`],
/// never against the request.
pub trait EigenBackend {
    /// Human-readable backend name for reports and logs.
    fn name(&self) -> &'static str;

    /// Computes (at least) the top-`rank` thin SVD of `x`.
    ///
    /// # Errors
    ///
    /// Backend-specific numeric failures (empty/non-finite input,
    /// non-convergence).
    fn fit_svd(&self, x: &Matrix, rank: usize) -> Result<Svd>;
}

/// The exact dense backend: full Gram matrix + blocked Householder
/// tridiagonalization + implicit-shift QR.
#[derive(Debug, Clone, Copy, Default)]
pub struct DenseTridiagonalBackend;

impl EigenBackend for DenseTridiagonalBackend {
    fn name(&self) -> &'static str {
        "dense-tridiagonal"
    }

    fn fit_svd(&self, x: &Matrix, _rank: usize) -> Result<Svd> {
        // The dense route computes the full spectrum regardless of the
        // requested rank: callers relying on tail eigenvalues (detection
        // thresholds) get them exactly.
        thin_svd(x, 0.0)
    }
}

/// The randomized truncated backend (see [`randomized_thin_svd`]).
#[derive(Debug, Clone, Copy)]
pub struct RandomizedTruncatedBackend {
    /// Sketch options forwarded to [`randomized_thin_svd`].
    pub options: RandomizedSvdOptions,
}

impl EigenBackend for RandomizedTruncatedBackend {
    fn name(&self) -> &'static str {
        "randomized-truncated"
    }

    fn fit_svd(&self, x: &Matrix, rank: usize) -> Result<Svd> {
        randomized_thin_svd(x, rank, self.options)
    }
}

/// Computes (at least) the top-`rank` thin SVD of `x` with the selected
/// method — the one dispatch point every fitting path goes through.
///
/// # Errors
///
/// Propagates the backend's numeric errors.
///
/// # Examples
///
/// ```
/// use odflow_linalg::{truncated_svd, EigenMethod, Matrix};
///
/// let x = Matrix::from_fn(30, 40, |i, j| ((i * 3 + j * 7) % 11) as f64);
/// let dense = truncated_svd(&x, 5, EigenMethod::DenseTridiagonal).unwrap();
/// let auto = truncated_svd(&x, 5, EigenMethod::Auto).unwrap(); // p=40 -> dense
/// assert_eq!(dense.sigma, auto.sigma);
/// ```
pub fn truncated_svd(x: &Matrix, rank: usize, method: EigenMethod) -> Result<Svd> {
    match method.resolve(x.ncols()) {
        EigenMethod::DenseTridiagonal => DenseTridiagonalBackend.fit_svd(x, rank),
        EigenMethod::RandomizedTruncated { oversample, power_iters, seed } => {
            RandomizedTruncatedBackend {
                options: RandomizedSvdOptions { oversample, power_iters, seed },
            }
            .fit_svd(x, rank)
        }
        EigenMethod::Auto => unreachable!("resolve() never returns Auto"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn auto_resolves_by_dimension() {
        // One dense solver from the smallest mesh through Abilene's p = 121
        // up to the dense ceiling; randomized above it.
        assert_eq!(EigenMethod::Auto.resolve(2), EigenMethod::DenseTridiagonal);
        assert_eq!(EigenMethod::Auto.resolve(121), EigenMethod::DenseTridiagonal);
        assert_eq!(EigenMethod::Auto.resolve(AUTO_DENSE_MAX_DIM), EigenMethod::DenseTridiagonal);
        match EigenMethod::Auto.resolve(AUTO_DENSE_MAX_DIM + 1) {
            EigenMethod::RandomizedTruncated { oversample, power_iters, seed } => {
                assert_eq!(oversample, 8);
                assert_eq!(power_iters, 2);
                assert_eq!(seed, DEFAULT_SKETCH_SEED);
            }
            other => panic!("expected randomized, got {other:?}"),
        }
        assert!(EigenMethod::Auto.is_dense_for(121));
        assert!(EigenMethod::Auto.is_dense_for(AUTO_DENSE_MAX_DIM));
        assert!(!EigenMethod::Auto.is_dense_for(90_000));
    }

    #[test]
    fn explicit_methods_resolve_to_themselves() {
        assert_eq!(EigenMethod::DenseTridiagonal.resolve(2), EigenMethod::DenseTridiagonal);
        assert!(EigenMethod::DenseTridiagonal.is_dense_for(1_000_000));
        let r = EigenMethod::RandomizedTruncated { oversample: 3, power_iters: 1, seed: 42 };
        assert_eq!(r.resolve(4), r);
        assert!(!r.is_dense_for(4));
    }

    #[test]
    fn resolve_dense_always_lands_on_a_dense_method() {
        let r = EigenMethod::RandomizedTruncated { oversample: 3, power_iters: 1, seed: 42 };
        for p in [4, 121, AUTO_DENSE_MAX_DIM + 1, 10_000] {
            for method in [EigenMethod::DenseTridiagonal, EigenMethod::Auto, r] {
                assert_eq!(method.resolve_dense(p), EigenMethod::DenseTridiagonal, "{method:?}");
            }
        }
    }

    #[test]
    fn dense_backend_returns_full_spectrum() {
        let x = Matrix::from_fn(12, 6, |i, j| ((i + 1) * (j + 2)) as f64 + (i as f64 * 0.3).sin());
        let svd = DenseTridiagonalBackend.fit_svd(&x, 2).unwrap();
        assert!(svd.rank() >= 2);
        assert_eq!(DenseTridiagonalBackend.name(), "dense-tridiagonal");
    }

    #[test]
    fn tridiagonal_backend_matches_jacobi_spectrum() {
        let x = Matrix::from_fn(30, 18, |i, j| ((i * 5 + j * 3) % 13) as f64 - 6.0);
        let gram = crate::scatter(&x).unwrap();
        let (jac, _) = crate::jacobi_oracle::jacobi_eigen(gram.as_slice(), 18);
        let tri = DenseTridiagonalBackend.fit_svd(&x, 4).unwrap();
        // Compare eigenvalues (σ²), not σ: for numerically-zero tail
        // values the sqrt amplifies the eigensolvers' eps·λ_max jitter.
        let scale = 1.0 + jac[0];
        assert!(tri.rank() <= jac.len());
        for (a, b) in jac.iter().zip(&tri.sigma) {
            assert!((a - b * b).abs() <= 1e-11 * scale, "eigenvalue mismatch: {a} vs {}", b * b);
        }
    }

    #[test]
    fn dispatch_matches_direct_calls() {
        let x = Matrix::from_fn(25, 30, |i, j| ((i * 5 + j * 3) % 13) as f64 - 6.0);
        let direct = crate::svd::thin_svd(&x, 0.0).unwrap();
        for method in [EigenMethod::DenseTridiagonal, EigenMethod::Auto] {
            let via_enum = truncated_svd(&x, 4, method).unwrap();
            assert_eq!(via_enum.sigma, direct.sigma, "{method:?}");
            assert_eq!(via_enum.v.as_slice(), direct.v.as_slice(), "{method:?}");
        }

        let method = EigenMethod::RandomizedTruncated { oversample: 6, power_iters: 2, seed: 7 };
        let via_enum = truncated_svd(&x, 4, method).unwrap();
        let direct = crate::randomized::randomized_thin_svd(
            &x,
            4,
            RandomizedSvdOptions { oversample: 6, power_iters: 2, seed: 7 },
        )
        .unwrap();
        assert_eq!(via_enum.sigma, direct.sigma);
        let backend = RandomizedTruncatedBackend { options: RandomizedSvdOptions::default() };
        assert_eq!(backend.name(), "randomized-truncated");
    }
}
