//! Serial cyclic Jacobi eigensolver: the independent oracle the dense
//! tridiagonal solver is tested against.
//!
//! Jacobi reaches the eigensystem by an entirely different arithmetic
//! path (plane rotations on the full matrix, no reduction to tridiagonal
//! form, no shifts), so agreement between the two is evidence that both
//! are right. It is deliberately plain — row-major slices, the textbook
//! cyclic sweep of Golub & Van Loan §8.5.2 — and shares no code with the
//! solver under test. Included by path from the linalg unit tests and the
//! subspace backend-equivalence suite.

/// Eigenvalues (descending) and eigenvectors of the symmetric `n x n`
/// row-major matrix `a`. Eigenvectors are returned row-major with one
/// eigenvector per **column**, in the order of the eigenvalues.
///
/// # Panics
///
/// On a length mismatch or if 64 sweeps do not converge.
pub fn jacobi_eigen(a: &[f64], n: usize) -> (Vec<f64>, Vec<f64>) {
    assert_eq!(a.len(), n * n, "expected an {n}x{n} matrix");
    let mut w: Vec<f64> = (0..n * n).map(|k| 0.5 * (a[k] + a[(k % n) * n + k / n])).collect();
    let mut v: Vec<f64> = (0..n * n).map(|k| if k / n == k % n { 1.0 } else { 0.0 }).collect();
    let fro = w.iter().map(|x| x * x).sum::<f64>().sqrt();
    let off = |w: &[f64]| -> f64 {
        (0..n * n).filter(|k| k / n != k % n).map(|k| w[k] * w[k]).sum::<f64>().sqrt()
    };
    let mut sweeps = 0;
    while off(&w) > 1e-14 * fro {
        assert!(sweeps < 64, "Jacobi oracle did not converge");
        sweeps += 1;
        for p in 0..n {
            for q in p + 1..n {
                let apq = w[p * n + q];
                if apq == 0.0 {
                    continue;
                }
                let theta = (w[q * n + q] - w[p * n + p]) / (2.0 * apq);
                let t = theta.signum() / (theta.abs() + (theta * theta + 1.0).sqrt());
                let c = 1.0 / (t * t + 1.0).sqrt();
                let s = t * c;
                // W <- J^T W J, then V <- V J.
                for k in 0..n {
                    let (wkp, wkq) = (w[k * n + p], w[k * n + q]);
                    w[k * n + p] = c * wkp - s * wkq;
                    w[k * n + q] = s * wkp + c * wkq;
                }
                for k in 0..n {
                    let (wpk, wqk) = (w[p * n + k], w[q * n + k]);
                    w[p * n + k] = c * wpk - s * wqk;
                    w[q * n + k] = s * wpk + c * wqk;
                }
                w[p * n + q] = 0.0;
                w[q * n + p] = 0.0;
                for k in 0..n {
                    let (vkp, vkq) = (v[k * n + p], v[k * n + q]);
                    v[k * n + p] = c * vkp - s * vkq;
                    v[k * n + q] = s * vkp + c * vkq;
                }
            }
        }
    }
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by(|&i, &j| w[j * n + j].total_cmp(&w[i * n + i]));
    let values = order.iter().map(|&i| w[i * n + i]).collect();
    let vectors = (0..n * n).map(|k| v[(k / n) * n + order[k % n]]).collect();
    (values, vectors)
}
