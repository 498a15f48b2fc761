//! Error types for linear-algebra operations.

use std::fmt;

/// Errors produced by `odflow-linalg` operations.
///
/// All fallible operations in this crate return [`Result<T, LinalgError>`];
/// dimension mismatches are always reported with the offending shapes so that
/// pipeline code can log actionable diagnostics.
#[derive(Debug, Clone, PartialEq)]
pub enum LinalgError {
    /// Two operands had incompatible shapes for the requested operation.
    ShapeMismatch {
        /// Human-readable name of the operation (e.g. `"matmul"`).
        op: &'static str,
        /// Shape of the left operand as `(rows, cols)`.
        lhs: (usize, usize),
        /// Shape of the right operand as `(rows, cols)`.
        rhs: (usize, usize),
    },
    /// An operation that requires a square matrix was given a rectangular one.
    NotSquare {
        /// Human-readable name of the operation.
        op: &'static str,
        /// Actual shape.
        shape: (usize, usize),
    },
    /// An operation that requires a symmetric matrix detected asymmetry
    /// beyond tolerance.
    NotSymmetric {
        /// Maximum observed `|a_ij - a_ji|`.
        max_asymmetry: f64,
    },
    /// An iterative algorithm failed to converge within its iteration budget.
    NoConvergence {
        /// Human-readable name of the algorithm.
        op: &'static str,
        /// Number of iterations performed before giving up.
        iterations: usize,
    },
    /// A matrix or vector argument was empty where data is required.
    Empty {
        /// Human-readable name of the operation.
        op: &'static str,
    },
    /// An index was out of bounds.
    OutOfBounds {
        /// Human-readable name of the operation.
        op: &'static str,
        /// The offending index.
        index: usize,
        /// The exclusive bound the index must satisfy.
        bound: usize,
    },
    /// Input contained NaN or infinity where finite values are required.
    NonFinite {
        /// Human-readable name of the operation.
        op: &'static str,
    },
}

impl fmt::Display for LinalgError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LinalgError::ShapeMismatch { op, lhs, rhs } => write!(
                f,
                "{op}: shape mismatch: lhs is {}x{}, rhs is {}x{}",
                lhs.0, lhs.1, rhs.0, rhs.1
            ),
            LinalgError::NotSquare { op, shape } => {
                write!(f, "{op}: requires a square matrix, got {}x{}", shape.0, shape.1)
            }
            LinalgError::NotSymmetric { max_asymmetry } => {
                write!(f, "matrix is not symmetric (max |a_ij - a_ji| = {max_asymmetry:.3e})")
            }
            LinalgError::NoConvergence { op, iterations } => {
                write!(f, "{op}: failed to converge after {iterations} iterations")
            }
            LinalgError::Empty { op } => write!(f, "{op}: empty input"),
            LinalgError::OutOfBounds { op, index, bound } => {
                write!(f, "{op}: index {index} out of bounds (must be < {bound})")
            }
            LinalgError::NonFinite { op } => {
                write!(f, "{op}: input contains NaN or infinite values")
            }
        }
    }
}

impl std::error::Error for LinalgError {}

/// Convenience alias used throughout the crate.
pub type Result<T> = std::result::Result<T, LinalgError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_shape_mismatch() {
        let e = LinalgError::ShapeMismatch { op: "matmul", lhs: (2, 3), rhs: (4, 5) };
        assert_eq!(e.to_string(), "matmul: shape mismatch: lhs is 2x3, rhs is 4x5");
    }

    #[test]
    fn display_not_square() {
        let e = LinalgError::NotSquare { op: "eigen", shape: (3, 4) };
        assert!(e.to_string().contains("requires a square matrix"));
    }

    #[test]
    fn display_no_convergence() {
        let e = LinalgError::NoConvergence { op: "tridiag_qr", iterations: 100 };
        assert!(e.to_string().contains("failed to converge after 100"));
    }

    #[test]
    fn display_out_of_bounds_and_empty() {
        let e = LinalgError::OutOfBounds { op: "row", index: 7, bound: 5 };
        assert!(e.to_string().contains("index 7 out of bounds"));
        let e = LinalgError::Empty { op: "mean" };
        assert!(e.to_string().contains("empty input"));
    }

    #[test]
    fn error_is_std_error() {
        fn assert_err<E: std::error::Error>(_: &E) {}
        assert_err(&LinalgError::Empty { op: "x" });
    }
}
