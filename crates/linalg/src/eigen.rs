//! Symmetric eigendecomposition: blocked Householder tridiagonalization
//! followed by implicit-shift QR on the tridiagonal form.
//!
//! PCA on the OD-flow timeseries reduces to diagonalizing the `p x p`
//! covariance (or scatter) matrix `X^T X`, with `p = 121` OD pairs for the
//! Abilene-like topology. The direct method costs `O(p³)` once (the
//! reduction in `householder.rs` and the back-transform dominate), where an
//! iterative rotation method pays `O(p³)` per sweep. It is the workspace's
//! one dense eigensolver at every dimension.
//!
//! References: Golub & Van Loan, *Matrix Computations*, §8.3 (the
//! symmetric QR algorithm); Jackson, *A User's Guide to Principal
//! Components* (the paper's PCA reference \[11\]).

use crate::error::{LinalgError, Result};
use crate::matrix::Matrix;

/// Result of a symmetric eigendecomposition.
///
/// Eigenpairs are sorted by **descending** eigenvalue, matching the paper's
/// convention that eigenflow `u_1` captures the most variance.
#[derive(Debug, Clone)]
pub struct EigenDecomposition {
    /// Eigenvalues, descending. For a covariance matrix these are the
    /// variances captured by each principal axis.
    pub eigenvalues: Vec<f64>,
    /// Matrix whose **columns** are the corresponding unit eigenvectors.
    pub eigenvectors: Matrix,
    /// QR bulge-chase sweeps the tridiagonal stage ran.
    pub sweeps: usize,
}

impl EigenDecomposition {
    /// The `k`-th eigenvector (column of [`Self::eigenvectors`]) as a `Vec`.
    pub fn eigenvector(&self, k: usize) -> Result<Vec<f64>> {
        self.eigenvectors.col(k)
    }

    /// Fraction of total variance captured by the top `k` eigenvalues.
    ///
    /// Negative eigenvalues (numerical noise around zero for rank-deficient
    /// inputs) are clamped to zero for this summary.
    pub fn variance_captured(&self, k: usize) -> f64 {
        let clamped: Vec<f64> = self.eigenvalues.iter().map(|&l| l.max(0.0)).collect();
        let total: f64 = clamped.iter().sum();
        if total <= 0.0 {
            return 0.0;
        }
        clamped.iter().take(k).sum::<f64>() / total
    }

    /// Effective rank: number of eigenvalues above `tol * max_eigenvalue`.
    pub fn effective_rank(&self, tol: f64) -> usize {
        let max = self.eigenvalues.first().copied().unwrap_or(0.0).max(0.0);
        if max == 0.0 {
            return 0;
        }
        self.eigenvalues.iter().filter(|&&l| l > tol * max).count()
    }
}

/// Maximum tolerated asymmetry `max |a_ij - a_ji|` of an input, relative
/// to its max absolute entry. Inputs within tolerance are symmetrized as
/// `(A + A^T) / 2`; floating-point accumulation in `X^T X` stays far below
/// it.
const SYMMETRY_TOLERANCE: f64 = 1e-9;

/// Computes the eigendecomposition of a symmetric matrix by Householder
/// tridiagonalization + implicit Wilkinson-shift QR — the direct-method
/// pipeline every dense LAPACK eigensolver uses, here with a blocked
/// `dsytrd`-style panel reduction (compact-WY back-transform, rank-2k
/// trailing update) and a `dsteqr`-style QR stage with batched rotation
/// replay. Like every kernel in the workspace, results are bit-identical
/// for every thread count.
///
/// # Errors
///
/// * [`LinalgError::NotSquare`] for rectangular input.
/// * [`LinalgError::NotSymmetric`] when asymmetry exceeds tolerance.
/// * [`LinalgError::NonFinite`] when the input contains NaN or infinity.
/// * [`LinalgError::NoConvergence`] if the QR iteration budget is
///   exhausted (practically unreachable for finite symmetric input).
///
/// # Examples
///
/// ```
/// use odflow_linalg::{Matrix, eigen_symmetric};
///
/// let a = Matrix::from_rows(&[vec![2.0, 1.0], vec![1.0, 2.0]]).unwrap();
/// let e = eigen_symmetric(&a).unwrap();
/// assert!((e.eigenvalues[0] - 3.0).abs() < 1e-12);
/// assert!((e.eigenvalues[1] - 1.0).abs() < 1e-12);
/// ```
pub fn eigen_symmetric(a: &Matrix) -> Result<EigenDecomposition> {
    if !a.is_square() {
        return Err(LinalgError::NotSquare { op: "eigen_symmetric", shape: a.shape() });
    }
    if !a.all_finite() {
        return Err(LinalgError::NonFinite { op: "eigen_symmetric" });
    }
    let n = a.nrows();
    if n == 0 {
        return Ok(EigenDecomposition {
            eigenvalues: vec![],
            eigenvectors: Matrix::zeros(0, 0),
            sweeps: 0,
        });
    }
    let scale = a.max_abs();
    let asym = a.max_asymmetry();
    if scale > 0.0 && asym > SYMMETRY_TOLERANCE * scale {
        return Err(LinalgError::NotSymmetric { max_asymmetry: asym });
    }

    let w = Matrix::from_fn(n, n, |i, j| 0.5 * (a[(i, j)] + a[(j, i)]));
    let mut factor = crate::householder::tridiagonalize(w);
    let mut z = Matrix::identity(n);
    let sweeps = crate::tridiag::tridiag_qr(&mut factor.d, &mut factor.e, &mut z)?;
    let z = crate::householder::back_transform(z, &factor);

    // Sort eigenpairs by descending eigenvalue.
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by(|&i, &j| factor.d[j].partial_cmp(&factor.d[i]).expect("finite eigenvalues"));
    let eigenvalues: Vec<f64> = order.iter().map(|&i| factor.d[i]).collect();
    let eigenvectors = z.select_cols(&order)?;
    Ok(EigenDecomposition { eigenvalues, eigenvectors, sweeps })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn reconstruct(e: &EigenDecomposition) -> Matrix {
        // A = V diag(lambda) V^T
        let v = &e.eigenvectors;
        let d = Matrix::from_diag(&e.eigenvalues);
        v.matmul(&d).unwrap().matmul(&v.transpose()).unwrap()
    }

    #[test]
    fn two_by_two_known() {
        let a = Matrix::from_rows(&[vec![2.0, 1.0], vec![1.0, 2.0]]).unwrap();
        let e = eigen_symmetric(&a).unwrap();
        assert!((e.eigenvalues[0] - 3.0).abs() < 1e-12);
        assert!((e.eigenvalues[1] - 1.0).abs() < 1e-12);
        // Eigenvector for lambda=3 is (1,1)/sqrt(2) up to sign.
        let v0 = e.eigenvector(0).unwrap();
        assert!((v0[0].abs() - std::f64::consts::FRAC_1_SQRT_2).abs() < 1e-12);
        assert!((v0[0] - v0[1]).abs() < 1e-12);
    }

    #[test]
    fn diagonal_matrix_is_fixed_point() {
        let a = Matrix::from_diag(&[5.0, 3.0, 1.0]);
        let e = eigen_symmetric(&a).unwrap();
        assert_eq!(e.eigenvalues, vec![5.0, 3.0, 1.0]);
        assert_eq!(e.sweeps, 0);
    }

    #[test]
    fn sorts_descending_even_with_negatives() {
        let a = Matrix::from_diag(&[-2.0, 7.0, 0.5]);
        let e = eigen_symmetric(&a).unwrap();
        assert_eq!(e.eigenvalues, vec![7.0, 0.5, -2.0]);
    }

    #[test]
    fn reconstruction_3x3() {
        let a =
            Matrix::from_rows(&[vec![4.0, 1.0, 0.5], vec![1.0, 3.0, 0.25], vec![0.5, 0.25, 2.0]])
                .unwrap();
        let e = eigen_symmetric(&a).unwrap();
        assert!(reconstruct(&e).approx_eq(&a, 1e-10));
    }

    #[test]
    fn eigenvectors_orthonormal() {
        let a = Matrix::from_fn(8, 8, |i, j| 1.0 / (1.0 + (i as f64 - j as f64).abs()));
        let e = eigen_symmetric(&a).unwrap();
        let vtv = e.eigenvectors.transpose().matmul(&e.eigenvectors).unwrap();
        assert!(vtv.approx_eq(&Matrix::identity(8), 1e-10));
    }

    #[test]
    fn trace_equals_eigenvalue_sum() {
        let a =
            Matrix::from_fn(6, 6, |i, j| ((i * j) as f64).sin() + if i == j { 3.0 } else { 0.0 });
        let sym = Matrix::from_fn(6, 6, |i, j| 0.5 * (a[(i, j)] + a[(j, i)]));
        let e = eigen_symmetric(&sym).unwrap();
        let tr = sym.trace().unwrap();
        let sum: f64 = e.eigenvalues.iter().sum();
        assert!((tr - sum).abs() < 1e-9, "trace {tr} vs eigensum {sum}");
    }

    #[test]
    fn rank_deficient_low_rank() {
        // Rank-1: outer product vv^T, eigenvalues (||v||^2, 0, 0).
        let v = [1.0, 2.0, 3.0];
        let a = Matrix::from_fn(3, 3, |i, j| v[i] * v[j]);
        let e = eigen_symmetric(&a).unwrap();
        assert!((e.eigenvalues[0] - 14.0).abs() < 1e-10);
        assert!(e.eigenvalues[1].abs() < 1e-10);
        assert!(e.eigenvalues[2].abs() < 1e-10);
        assert_eq!(e.effective_rank(1e-9), 1);
    }

    #[test]
    fn variance_captured_monotone() {
        let a = Matrix::from_diag(&[4.0, 3.0, 2.0, 1.0]);
        let e = eigen_symmetric(&a).unwrap();
        assert!((e.variance_captured(1) - 0.4).abs() < 1e-12);
        assert!((e.variance_captured(4) - 1.0).abs() < 1e-12);
        assert!(e.variance_captured(2) > e.variance_captured(1));
        assert_eq!(e.variance_captured(0), 0.0);
    }

    #[test]
    fn rejects_rectangular_and_asymmetric() {
        assert!(matches!(
            eigen_symmetric(&Matrix::zeros(2, 3)),
            Err(LinalgError::NotSquare { .. })
        ));
        let a = Matrix::from_rows(&[vec![1.0, 5.0], vec![0.0, 1.0]]).unwrap();
        assert!(matches!(eigen_symmetric(&a), Err(LinalgError::NotSymmetric { .. })));
    }

    #[test]
    fn rejects_nonfinite() {
        let mut a = Matrix::identity(2);
        a[(0, 0)] = f64::NAN;
        assert!(matches!(eigen_symmetric(&a), Err(LinalgError::NonFinite { .. })));
    }

    #[test]
    fn empty_matrix_ok() {
        let e = eigen_symmetric(&Matrix::zeros(0, 0)).unwrap();
        assert!(e.eigenvalues.is_empty());
    }

    #[test]
    fn tolerates_tiny_asymmetry() {
        // Asymmetry at 1e-12 relative is well within the default tolerance.
        let mut a = Matrix::from_rows(&[vec![2.0, 1.0], vec![1.0, 2.0]]).unwrap();
        a[(0, 1)] += 1e-13;
        let e = eigen_symmetric(&a).unwrap();
        assert!((e.eigenvalues[0] - 3.0).abs() < 1e-9);
    }

    #[test]
    fn tridiagonal_matches_jacobi_eigenvalues() {
        // The independent oracle: a serial cyclic Jacobi sweep shares no
        // arithmetic with the tridiagonal solver. n = 121 is Abilene's p.
        for &n in &[3usize, 8, 33, 72, 121] {
            let b = Matrix::from_fn(n + 9, n, |i, j| {
                (((i * 29 + j * 13) % 127) as f64 / 127.0 - 0.5) + if i == j { 0.4 } else { 0.0 }
            });
            let a = b.transpose().matmul(&b).unwrap();
            let (jac, _) = crate::jacobi_oracle::jacobi_eigen(a.as_slice(), n);
            let tri = eigen_symmetric(&a).unwrap();
            let scale = jac[0].abs().max(1.0);
            for (j, t) in jac.iter().zip(&tri.eigenvalues) {
                assert!((j - t).abs() <= 1e-9 * scale, "n={n}: {j} vs {t}");
            }
        }
    }

    #[test]
    fn tridiagonal_reconstructs_and_is_orthonormal() {
        let n = 96; // crosses several Householder panels
        let a = Matrix::from_fn(n, n, |i, j| {
            let lo = i.min(j) as f64;
            let hi = i.max(j) as f64;
            (1.0 + lo) / (2.0 + hi) + if i == j { 3.0 } else { 0.0 }
        });
        let e = eigen_symmetric(&a).unwrap();
        let vtv = e.eigenvectors.transpose().matmul(&e.eigenvectors).unwrap();
        assert!(vtv.approx_eq(&Matrix::identity(n), 1e-9), "V^T V != I");
        assert!(reconstruct(&e).approx_eq(&a, 1e-8 * a.max_abs()), "A != V L V^T");
        for win in e.eigenvalues.windows(2) {
            assert!(win[0] >= win[1] - 1e-9, "not descending");
        }
    }

    #[test]
    fn tridiagonal_is_thread_count_invariant() {
        let n = 80;
        let a = Matrix::from_fn(n, n, |i, j| {
            (((i.min(j) * 31 + i.max(j) * 17) % 101) as f64) / 101.0
                + if i == j { 2.0 } else { 0.0 }
        });
        let serial = odflow_par::with_thread_limit(1, || eigen_symmetric(&a).unwrap());
        for &threads in &[4usize, 64] {
            let par = odflow_par::with_thread_limit(threads, || eigen_symmetric(&a).unwrap());
            assert_eq!(par.eigenvalues, serial.eigenvalues, "threads={threads}");
            assert_eq!(
                par.eigenvectors.as_slice(),
                serial.eigenvectors.as_slice(),
                "threads={threads}"
            );
            assert_eq!(par.sweeps, serial.sweeps, "threads={threads}");
        }
    }

    #[test]
    fn tridiagonal_input_validation_matches_jacobi() {
        assert!(matches!(
            eigen_symmetric(&Matrix::zeros(2, 3)),
            Err(LinalgError::NotSquare { .. })
        ));
        let asym = Matrix::from_rows(&[vec![1.0, 5.0], vec![0.0, 1.0]]).unwrap();
        assert!(matches!(eigen_symmetric(&asym), Err(LinalgError::NotSymmetric { .. })));
        let mut nan = Matrix::identity(2);
        nan[(0, 0)] = f64::NAN;
        assert!(matches!(eigen_symmetric(&nan), Err(LinalgError::NonFinite { .. })));
        let empty = eigen_symmetric(&Matrix::zeros(0, 0)).unwrap();
        assert!(empty.eigenvalues.is_empty());
    }

    #[test]
    fn tridiagonal_small_matrices_exact() {
        let a = Matrix::from_rows(&[vec![2.0, 1.0], vec![1.0, 2.0]]).unwrap();
        let e = eigen_symmetric(&a).unwrap();
        assert!((e.eigenvalues[0] - 3.0).abs() < 1e-12);
        assert!((e.eigenvalues[1] - 1.0).abs() < 1e-12);
        let d = Matrix::from_diag(&[-2.0, 7.0, 0.5]);
        let e = eigen_symmetric(&d).unwrap();
        assert_eq!(e.eigenvalues, vec![7.0, 0.5, -2.0]);
    }

    #[test]
    fn auto_dispatch_picks_by_dimension() {
        // One dense solver at every dimension, on both sides of the old
        // 128 crossover: the default thin SVD's right singular vectors are
        // this solver's eigenvectors of X^T X, bit for bit.
        for n in [24usize, 121, 128] {
            assert_eq!(
                crate::EigenMethod::Auto.resolve_dense(n),
                crate::EigenMethod::DenseTridiagonal
            );
            let x = Matrix::from_fn(2 * n, n, |i, j| {
                (((i * 7 + j * 3) % 41) as f64) / 41.0 + if i == j { 2.0 } else { 0.0 }
            });
            let svd = crate::thin_svd(&x, 0.0).unwrap();
            let eig = eigen_symmetric(&crate::scatter(&x).unwrap()).unwrap();
            assert_eq!(svd.rank(), n, "n={n}");
            assert_eq!(svd.v.as_slice(), eig.eigenvectors.as_slice(), "n={n}");
            let sigma: Vec<f64> = eig.eigenvalues.iter().map(|l| l.max(0.0).sqrt()).collect();
            assert_eq!(svd.sigma, sigma, "n={n}");
        }
    }

    #[test]
    fn moderately_sized_psd_matrix() {
        // Covariance-like matrix: A = B^T B is PSD; all eigenvalues >= 0.
        let b = Matrix::from_fn(40, 20, |i, j| ((i * 31 + j * 17) % 101) as f64 / 101.0 - 0.5);
        let a = b.transpose().matmul(&b).unwrap();
        let e = eigen_symmetric(&a).unwrap();
        for &l in &e.eigenvalues {
            assert!(l > -1e-9, "PSD eigenvalue went negative: {l}");
        }
        // Eigenvalues descending.
        for w in e.eigenvalues.windows(2) {
            assert!(w[0] >= w[1] - 1e-12);
        }
        assert!(reconstruct(&e).approx_eq(&a, 1e-8));
    }
}
