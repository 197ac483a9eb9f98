use std::fmt;
use std::ops::{Add, Index, IndexMut, Mul, Neg, Sub};

use crate::{LinalgError, LuDecomposition, Result, SymmetricEigen, Vector};

/// An owned, dense, row-major matrix of `f64` values.
///
/// All matrices in the thermal tool-chain are small (`N ≲ 600`), so a simple
/// contiguous row-major layout with straightforward triple-loop kernels is
/// both adequate and cache-friendly.
///
/// # Example
///
/// ```
/// use hp_linalg::Matrix;
///
/// # fn main() -> Result<(), hp_linalg::LinalgError> {
/// let b = Matrix::from_rows(&[&[2.0, 0.0], &[0.0, 4.0]])?;
/// let inv = b.lu()?.inverse()?;
/// assert!((inv[(0, 0)] - 0.5).abs() < 1e-12);
/// assert!((inv[(1, 1)] - 0.25).abs() < 1e-12);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// Creates a `rows x cols` matrix of zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Creates the `n x n` identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = Matrix::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// Creates a square matrix with `diag` on the diagonal.
    pub fn from_diagonal(diag: &Vector) -> Self {
        let n = diag.len();
        let mut m = Matrix::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = diag[i];
        }
        m
    }

    /// Creates a matrix by evaluating `f` at every `(row, col)` position.
    pub fn from_fn<F: FnMut(usize, usize) -> f64>(rows: usize, cols: usize, mut f: F) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for i in 0..rows {
            for j in 0..cols {
                data.push(f(i, j));
            }
        }
        Matrix { rows, cols, data }
    }

    /// Creates a matrix from row slices.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::InvalidInput`] if `rows` is empty or the rows
    /// have differing lengths.
    pub fn from_rows(rows: &[&[f64]]) -> Result<Self> {
        let nrows = rows.len();
        if nrows == 0 {
            return Err(LinalgError::InvalidInput("from_rows: no rows"));
        }
        let ncols = rows[0].len();
        if rows.iter().any(|r| r.len() != ncols) {
            return Err(LinalgError::InvalidInput("from_rows: ragged rows"));
        }
        let mut data = Vec::with_capacity(nrows * ncols);
        for r in rows {
            data.extend_from_slice(r);
        }
        Ok(Matrix {
            rows: nrows,
            cols: ncols,
            data,
        })
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Returns `true` if the matrix is square.
    pub fn is_square(&self) -> bool {
        self.rows == self.cols
    }

    /// Immutable view of the underlying row-major storage.
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Immutable view of row `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.rows()`.
    pub fn row(&self, i: usize) -> &[f64] {
        assert!(i < self.rows, "row index {i} out of bounds");
        &self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Mutable view of row `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.rows()`.
    pub fn row_mut(&mut self, i: usize) -> &mut [f64] {
        assert!(i < self.rows, "row index {i} out of bounds");
        &mut self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Copies column `j` into a new [`Vector`].
    ///
    /// # Panics
    ///
    /// Panics if `j >= self.cols()`.
    pub fn column(&self, j: usize) -> Vector {
        assert!(j < self.cols, "column index {j} out of bounds");
        Vector::from_fn(self.rows, |i| self[(i, j)])
    }

    /// Copies the main diagonal into a new [`Vector`].
    pub fn diagonal(&self) -> Vector {
        let n = self.rows.min(self.cols);
        Vector::from_fn(n, |i| self[(i, i)])
    }

    /// Returns the transpose.
    pub fn transpose(&self) -> Matrix {
        Matrix::from_fn(self.cols, self.rows, |i, j| self[(j, i)])
    }

    /// Returns a copy scaled by `alpha`.
    pub fn scaled(&self, alpha: f64) -> Matrix {
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().map(|x| x * alpha).collect(),
        }
    }

    /// Matrix–vector product `self * v`.
    ///
    /// # Panics
    ///
    /// Panics if `v.len() != self.cols()`.
    pub fn mul_vector(&self, v: &Vector) -> Vector {
        assert_eq!(v.len(), self.cols, "mul_vector: dimension mismatch");
        Vector::from_fn(self.rows, |i| {
            self.row(i).iter().zip(v.iter()).map(|(a, b)| a * b).sum()
        })
    }

    /// Matrix–matrix product `self * other`.
    ///
    /// Register-tiled over a block of output columns: each output element
    /// accumulates its dot product in a register while the inner loop
    /// streams a row of `self` against a 32-column panel of `other`, so
    /// the hot loop does two loads per multiply-add instead of the
    /// load/load/store of the textbook axpy form. For every output
    /// element the `k`-contributions are accumulated in ascending order
    /// from `0.0` — the exact addition order of
    /// [`mul_vector`](Matrix::mul_vector)'s dot products — so multiplying
    /// a column-stacked batch reproduces the per-vector products bit for
    /// bit. The batched Algorithm-1 kernel
    /// (`hotpotato::RotationPeakSolver::peak_celsius_many`) relies on
    /// this. On x86-64 the same kernel body is re-compiled for AVX-512F /
    /// AVX2 and dispatched at run time; lane-wise IEEE arithmetic keeps
    /// the results identical to the portable build.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::DimensionMismatch`] if the inner dimensions
    /// differ.
    pub fn mul_matrix(&self, other: &Matrix) -> Result<Matrix> {
        if self.cols != other.rows {
            return Err(LinalgError::DimensionMismatch {
                op: "matrix multiply",
                left: (self.rows, self.cols),
                right: (other.rows, other.cols),
            });
        }
        let (m, n, inner) = (self.rows, other.cols, self.cols);
        let mut out = Matrix::zeros(m, n);
        // Under Miri the `#[target_feature]` kernels cannot run (Miri has
        // no AVX); everything routes through the scalar reference body.
        #[cfg(all(target_arch = "x86_64", not(miri)))]
        {
            if std::arch::is_x86_feature_detected!("avx512f") {
                // SAFETY: the avx512f requirement was just checked.
                unsafe { gemm_tiled_avx512(&mut out.data, &self.data, &other.data, m, n, inner) };
                return Ok(out);
            }
            if std::arch::is_x86_feature_detected!("avx2") {
                // SAFETY: the avx2 requirement was just checked.
                unsafe { gemm_tiled_avx2(&mut out.data, &self.data, &other.data, m, n, inner) };
                return Ok(out);
            }
        }
        gemm_tiled(&mut out.data, &self.data, &other.data, m, n, inner);
        Ok(out)
    }

    /// Name of the GEMM backend [`mul_matrix`](Matrix::mul_matrix)
    /// dispatches to on this CPU: `"avx512f"`, `"avx2"`, or `"scalar"`.
    ///
    /// The sanitizer CI job logs this from a test to prove the SIMD
    /// kernels actually executed under AddressSanitizer; under Miri it
    /// always reports `"scalar"`.
    #[must_use]
    pub fn gemm_backend() -> &'static str {
        #[cfg(all(target_arch = "x86_64", not(miri)))]
        {
            if std::arch::is_x86_feature_detected!("avx512f") {
                return "avx512f";
            }
            if std::arch::is_x86_feature_detected!("avx2") {
                return "avx2";
            }
        }
        "scalar"
    }

    /// Largest absolute entry.
    pub fn norm_inf(&self) -> f64 {
        self.data.iter().fold(0.0, |m, &x| m.max(x.abs()))
    }

    /// Induced 1-norm: the largest absolute column sum. This is the norm
    /// the Hager condition estimator works in
    /// ([`LuDecomposition::condition_estimate`]).
    pub fn norm_one(&self) -> f64 {
        let mut worst = 0.0f64;
        for j in 0..self.cols {
            let mut sum = 0.0;
            for i in 0..self.rows {
                sum += self[(i, j)].abs();
            }
            worst = worst.max(sum);
        }
        worst
    }

    /// Largest absolute asymmetry `max |m[i][j] - m[j][i]|` (square matrices).
    ///
    /// # Panics
    ///
    /// Panics if the matrix is not square.
    pub fn max_asymmetry(&self) -> f64 {
        assert!(self.is_square(), "max_asymmetry requires a square matrix");
        let mut worst = 0.0f64;
        for i in 0..self.rows {
            for j in (i + 1)..self.cols {
                worst = worst.max((self[(i, j)] - self[(j, i)]).abs());
            }
        }
        worst
    }

    /// Returns `true` if the matrix is symmetric up to `tol`.
    pub fn is_symmetric(&self, tol: f64) -> bool {
        self.is_square() && self.max_asymmetry() <= tol
    }

    /// Computes the partial-pivoting LU decomposition.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::NotSquare`] for rectangular matrices and
    /// [`LinalgError::Singular`] for singular ones.
    pub fn lu(&self) -> Result<LuDecomposition> {
        LuDecomposition::new(self)
    }

    /// Computes the eigendecomposition of a symmetric matrix via Householder
    /// tridiagonalisation and implicit-shift QL ([`SymmetricEigen::new`]).
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::NotSymmetric`] if the matrix is noticeably
    /// asymmetric, or [`LinalgError::Numerical`] for non-finite input or if
    /// the QL iteration exhausts its budget.
    pub fn symmetric_eigen(&self) -> Result<SymmetricEigen> {
        SymmetricEigen::new(self)
    }
}

impl Index<(usize, usize)> for Matrix {
    type Output = f64;

    fn index(&self, (i, j): (usize, usize)) -> &f64 {
        debug_assert!(i < self.rows && j < self.cols);
        &self.data[i * self.cols + j]
    }
}

impl IndexMut<(usize, usize)> for Matrix {
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut f64 {
        debug_assert!(i < self.rows && j < self.cols);
        &mut self.data[i * self.cols + j]
    }
}

impl Add<&Matrix> for &Matrix {
    type Output = Matrix;

    fn add(self, rhs: &Matrix) -> Matrix {
        assert_eq!(
            (self.rows, self.cols),
            (rhs.rows, rhs.cols),
            "add: shape mismatch"
        );
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self
                .data
                .iter()
                .zip(&rhs.data)
                .map(|(a, b)| a + b)
                .collect(),
        }
    }
}

impl Sub<&Matrix> for &Matrix {
    type Output = Matrix;

    fn sub(self, rhs: &Matrix) -> Matrix {
        assert_eq!(
            (self.rows, self.cols),
            (rhs.rows, rhs.cols),
            "sub: shape mismatch"
        );
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self
                .data
                .iter()
                .zip(&rhs.data)
                .map(|(a, b)| a - b)
                .collect(),
        }
    }
}

/// Width of the output-column register tile in [`Matrix::mul_matrix`]:
/// 32 f64 accumulators fill four AVX-512 (or eight AVX2) vector
/// registers, giving enough independent add chains to hide FP latency.
const GEMM_J_TILE: usize = 32;

/// Shared GEMM body: `out = a × b` with `a` m×inner, `b` inner×n, all
/// row-major and `out` pre-zeroed. Every output element is a plain
/// ascending-`k` dot product accumulated from `0.0` in a register — see
/// [`Matrix::mul_matrix`] for why that addition order is load-bearing.
#[inline(always)]
fn gemm_tiled_body(out: &mut [f64], a: &[f64], b: &[f64], m: usize, n: usize, inner: usize) {
    let mut jb = 0;
    // 32-column panels of `b` (inner × 32 f64 ≈ 6 KiB for this crate's
    // thermal systems) stay L1-resident across the whole sweep of `a`'s
    // rows. The fixed-size tile views unroll the lane loop into straight
    // vector code with no per-lane bounds checks.
    while jb + GEMM_J_TILE <= n {
        for i in 0..m {
            let a_row = &a[i * inner..(i + 1) * inner];
            let mut acc = [0.0f64; GEMM_J_TILE];
            for (&a_ik, b_row) in a_row.iter().zip(b.chunks_exact(n)) {
                // xtask: allow(panic) — the slice is exactly GEMM_J_TILE
                // wide by construction, so this try_into cannot fail.
                let b_tile: &[f64; GEMM_J_TILE] =
                    b_row[jb..jb + GEMM_J_TILE].try_into().expect("tile width");
                for jj in 0..GEMM_J_TILE {
                    acc[jj] += a_ik * b_tile[jj];
                }
            }
            out[i * n + jb..i * n + jb + GEMM_J_TILE].copy_from_slice(&acc);
        }
        jb += GEMM_J_TILE;
    }
    // Remainder columns: straight dot products.
    for j in jb..n {
        for i in 0..m {
            let a_row = &a[i * inner..(i + 1) * inner];
            let mut s = 0.0;
            for (&a_ik, b_row) in a_row.iter().zip(b.chunks_exact(n)) {
                s += a_ik * b_row[j];
            }
            out[i * n + j] = s;
        }
    }
}

fn gemm_tiled(out: &mut [f64], a: &[f64], b: &[f64], m: usize, n: usize, inner: usize) {
    gemm_tiled_body(out, a, b, m, n, inner);
}

/// The same body compiled with AVX2 codegen. Lane-wise IEEE mul/add only
/// (rustc does not contract to FMA), so results are bit-identical to
/// [`gemm_tiled`].
///
/// # Safety
///
/// The caller must ensure the CPU supports AVX2, e.g. via
/// `is_x86_feature_detected!("avx2")` — executing the AVX2-encoded body
/// on a CPU without it is undefined behaviour (illegal instruction at
/// best). The body itself is safe Rust: all slice accesses are
/// bounds-checked, dimensions are validated by the sole caller
/// ([`Matrix::mul_matrix`]), and no pointers are formed.
#[cfg(all(target_arch = "x86_64", not(miri)))]
#[target_feature(enable = "avx2")]
unsafe fn gemm_tiled_avx2(out: &mut [f64], a: &[f64], b: &[f64], m: usize, n: usize, inner: usize) {
    gemm_tiled_body(out, a, b, m, n, inner);
}

/// The same body compiled with AVX-512F codegen; bit-identical results,
/// as for [`gemm_tiled_avx2`].
///
/// # Safety
///
/// The caller must ensure the CPU supports AVX-512F, e.g. via
/// `is_x86_feature_detected!("avx512f")`; see [`gemm_tiled_avx2`] — the
/// same contract applies, with AVX-512F in place of AVX2.
#[cfg(all(target_arch = "x86_64", not(miri)))]
#[target_feature(enable = "avx512f")]
unsafe fn gemm_tiled_avx512(
    out: &mut [f64],
    a: &[f64],
    b: &[f64],
    m: usize,
    n: usize,
    inner: usize,
) {
    gemm_tiled_body(out, a, b, m, n, inner);
}

impl Neg for &Matrix {
    type Output = Matrix;

    fn neg(self) -> Matrix {
        self.scaled(-1.0)
    }
}

impl Mul<&Vector> for &Matrix {
    type Output = Vector;

    fn mul(self, rhs: &Vector) -> Vector {
        self.mul_vector(rhs)
    }
}

impl Mul<Vector> for &Matrix {
    type Output = Vector;

    fn mul(self, rhs: Vector) -> Vector {
        self.mul_vector(&rhs)
    }
}

impl Mul<&Matrix> for &Matrix {
    type Output = Matrix;

    /// # Panics
    ///
    /// Panics if the inner dimensions differ. Use [`Matrix::mul_matrix`] for
    /// a fallible version.
    fn mul(self, rhs: &Matrix) -> Matrix {
        // xtask: allow(panic) — operator sugar cannot return Result; the
        // panic is documented above and mul_matrix is the fallible form.
        self.mul_matrix(rhs)
            .expect("matrix multiply shape mismatch")
    }
}

impl Mul<f64> for &Matrix {
    type Output = Matrix;

    fn mul(self, rhs: f64) -> Matrix {
        self.scaled(rhs)
    }
}

impl fmt::Display for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for i in 0..self.rows {
            for j in 0..self.cols {
                if j > 0 {
                    write!(f, " ")?;
                }
                write!(f, "{:>12.6}", self[(i, j)])?;
            }
            writeln!(f)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identity_times_vector_is_identity() {
        let id = Matrix::identity(3);
        let v = Vector::from(vec![1.0, -2.0, 3.0]);
        assert_eq!(&id * &v, v);
    }

    #[test]
    fn from_rows_rejects_ragged() {
        let err = Matrix::from_rows(&[&[1.0, 2.0], &[3.0]]).unwrap_err();
        assert!(matches!(err, LinalgError::InvalidInput(_)));
        assert!(Matrix::from_rows(&[]).is_err());
    }

    #[test]
    fn multiply_known_case() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]).unwrap();
        let b = Matrix::from_rows(&[&[5.0, 6.0], &[7.0, 8.0]]).unwrap();
        let c = a.mul_matrix(&b).unwrap();
        assert_eq!(c[(0, 0)], 19.0);
        assert_eq!(c[(0, 1)], 22.0);
        assert_eq!(c[(1, 0)], 43.0);
        assert_eq!(c[(1, 1)], 50.0);
    }

    #[test]
    fn multiply_dimension_mismatch() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(2, 3);
        assert!(matches!(
            a.mul_matrix(&b),
            Err(LinalgError::DimensionMismatch { .. })
        ));
    }

    #[test]
    fn transpose_involution() {
        let a = Matrix::from_fn(3, 4, |i, j| (i * 7 + j) as f64);
        assert_eq!(a.transpose().transpose(), a);
    }

    #[test]
    fn symmetry_check() {
        let s = Matrix::from_rows(&[&[2.0, 1.0], &[1.0, 3.0]]).unwrap();
        assert!(s.is_symmetric(0.0));
        let ns = Matrix::from_rows(&[&[2.0, 1.0], &[0.5, 3.0]]).unwrap();
        assert!(!ns.is_symmetric(1e-12));
        assert!((ns.max_asymmetry() - 0.5).abs() < 1e-15);
    }

    #[test]
    fn diagonal_roundtrip() {
        let d = Vector::from(vec![1.0, 2.0, 3.0]);
        let m = Matrix::from_diagonal(&d);
        assert_eq!(m.diagonal(), d);
        assert_eq!(m[(0, 1)], 0.0);
    }

    #[test]
    fn row_column_access() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]).unwrap();
        assert_eq!(a.row(1), &[3.0, 4.0]);
        assert_eq!(a.column(0).as_slice(), &[1.0, 3.0]);
    }
}
