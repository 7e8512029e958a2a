//! Dense f64 matrix multiplication ("math" in the corpus list) plus
//! Freivalds' probabilistic checker.
//!
//! GEMM is the workhorse of the SDC-resilience literature the paper cites
//! (Wu et al. [27]); the ABFT-checksummed factorizations in
//! `mercurial-mitigation` build on this module, and Freivalds' checker is
//! the canonical Blum–Kannan-style "program checker" (§7, ref [2]): it
//! verifies an n×n product in O(n²) instead of recomputing in O(n³).

use mercurial_fault::CounterRng;

/// A dense row-major matrix.
#[derive(Debug, Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// Creates a zero matrix.
    pub fn zeros(rows: usize, cols: usize) -> Matrix {
        Matrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Creates a matrix from row-major data.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f64>) -> Matrix {
        assert_eq!(data.len(), rows * cols, "shape mismatch");
        Matrix { rows, cols, data }
    }

    /// The identity matrix.
    pub fn identity(n: usize) -> Matrix {
        let mut m = Matrix::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// A deterministic pseudorandom matrix with entries in `[-1, 1)`.
    pub fn random(rows: usize, cols: usize, seed: u64) -> Matrix {
        let mut rng = CounterRng::new(seed);
        let data = (0..rows * cols)
            .map(|_| rng.next_uniform() * 2.0 - 1.0)
            .collect();
        Matrix { rows, cols, data }
    }

    /// Row count.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Column count.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Raw row-major data.
    pub fn data(&self) -> &[f64] {
        &self.data
    }

    /// Maximum absolute difference to another matrix.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    pub fn max_abs_diff(&self, other: &Matrix) -> f64 {
        assert_eq!(
            (self.rows, self.cols),
            (other.rows, other.cols),
            "shape mismatch"
        );
        self.data
            .iter()
            .zip(&other.data)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0, f64::max)
    }
}

impl std::ops::Index<(usize, usize)> for Matrix {
    type Output = f64;

    fn index(&self, (r, c): (usize, usize)) -> &f64 {
        &self.data[r * self.cols + c]
    }
}

impl std::ops::IndexMut<(usize, usize)> for Matrix {
    fn index_mut(&mut self, (r, c): (usize, usize)) -> &mut f64 {
        &mut self.data[r * self.cols + c]
    }
}

/// Naive triple-loop GEMM: `C = A * B`.
///
/// # Panics
///
/// Panics if inner dimensions disagree.
pub fn matmul_naive(a: &Matrix, b: &Matrix) -> Matrix {
    assert_eq!(a.cols, b.rows, "inner dimension mismatch");
    let mut c = Matrix::zeros(a.rows, b.cols);
    for i in 0..a.rows {
        for k in 0..a.cols {
            let aik = a[(i, k)];
            for j in 0..b.cols {
                c[(i, j)] += aik * b[(k, j)];
            }
        }
    }
    c
}

/// Cache-blocked GEMM: `C = A * B` with `block`-sized tiles.
///
/// # Panics
///
/// Panics if inner dimensions disagree or `block == 0`.
pub fn matmul_blocked(a: &Matrix, b: &Matrix, block: usize) -> Matrix {
    assert_eq!(a.cols, b.rows, "inner dimension mismatch");
    assert!(block > 0, "block size must be positive");
    let (m, k, n) = (a.rows, a.cols, b.cols);
    let mut c = Matrix::zeros(m, n);
    for ii in (0..m).step_by(block) {
        for kk in (0..k).step_by(block) {
            for jj in (0..n).step_by(block) {
                for i in ii..(ii + block).min(m) {
                    for kx in kk..(kk + block).min(k) {
                        let aik = a[(i, kx)];
                        for j in jj..(jj + block).min(n) {
                            c[(i, j)] += aik * b[(kx, j)];
                        }
                    }
                }
            }
        }
    }
    c
}

/// Freivalds' check: is `C == A * B`, probably?
///
/// Each round draws a random ±1 vector `r` and tests
/// `A*(B*r) == C*r` in O(n²); a wrong product escapes one round with
/// probability at most 1/2, so `rounds` rounds give error ≤ 2⁻ʳᵒᵘⁿᵈˢ.
pub fn freivalds_check(a: &Matrix, b: &Matrix, c: &Matrix, rounds: u32, seed: u64) -> bool {
    assert_eq!(a.cols, b.rows, "inner dimension mismatch");
    assert_eq!((a.rows, b.cols), (c.rows, c.cols), "output shape mismatch");
    let mut rng = CounterRng::new(seed);
    let n = b.cols;
    // Tolerance scales with problem size to absorb FP reassociation noise.
    let tol = 1e-9 * (a.cols as f64).max(1.0);
    for _ in 0..rounds {
        let r: Vec<f64> = (0..n)
            .map(|_| if rng.next_bool(0.5) { 1.0 } else { -1.0 })
            .collect();
        // br = B * r
        let mut br = vec![0.0; b.rows];
        for i in 0..b.rows {
            let mut acc = 0.0;
            for j in 0..n {
                acc += b[(i, j)] * r[j];
            }
            br[i] = acc;
        }
        // abr = A * br; cr = C * r — compare.
        for i in 0..a.rows {
            let mut abr = 0.0;
            for j in 0..a.cols {
                abr += a[(i, j)] * br[j];
            }
            let mut cr = 0.0;
            for j in 0..n {
                cr += c[(i, j)] * r[j];
            }
            if (abr - cr).abs() > tol * (1.0 + abr.abs().max(cr.abs())) {
                return false;
            }
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identity_is_neutral() {
        let a = Matrix::random(8, 8, 1);
        let c = matmul_naive(&a, &Matrix::identity(8));
        assert!(a.max_abs_diff(&c) < 1e-15);
    }

    #[test]
    fn known_small_product() {
        let a = Matrix::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let b = Matrix::from_vec(3, 2, vec![7.0, 8.0, 9.0, 10.0, 11.0, 12.0]);
        let c = matmul_naive(&a, &b);
        assert_eq!(c.data(), &[58.0, 64.0, 139.0, 154.0]);
    }

    #[test]
    fn blocked_agrees_with_naive() {
        let a = Matrix::random(17, 23, 2);
        let b = Matrix::random(23, 11, 3);
        let naive = matmul_naive(&a, &b);
        for block in [1, 4, 8, 64] {
            let blocked = matmul_blocked(&a, &b, block);
            assert!(
                naive.max_abs_diff(&blocked) < 1e-12,
                "block={block} diverged"
            );
        }
    }

    #[test]
    fn freivalds_accepts_correct_products() {
        let a = Matrix::random(20, 30, 4);
        let b = Matrix::random(30, 25, 5);
        let c = matmul_naive(&a, &b);
        assert!(freivalds_check(&a, &b, &c, 10, 99));
    }

    #[test]
    fn freivalds_rejects_corrupted_products() {
        let a = Matrix::random(20, 20, 6);
        let b = Matrix::random(20, 20, 7);
        let mut c = matmul_naive(&a, &b);
        c[(7, 13)] += 0.5; // a single silent corruption
        assert!(!freivalds_check(&a, &b, &c, 10, 99));
    }

    #[test]
    fn freivalds_catches_tiny_relative_errors_in_many_rounds() {
        let a = Matrix::random(16, 16, 8);
        let b = Matrix::random(16, 16, 9);
        let mut c = matmul_naive(&a, &b);
        c[(0, 0)] *= 1.0 + 1e-3;
        assert!(!freivalds_check(&a, &b, &c, 20, 1));
    }

    #[test]
    #[should_panic(expected = "inner dimension mismatch")]
    fn shape_mismatch_panics() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(4, 2);
        let _ = matmul_naive(&a, &b);
    }
}
