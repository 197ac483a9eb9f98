//! Symmetric eigendecomposition via Householder tridiagonalisation and
//! implicit-shift QL (the EISPACK `tred2`/`tql2` pair), plus the
//! diagonal-congruence transform that factorizes the thermal system matrix
//! `C = -A⁻¹B`.
//!
//! `A` (thermal capacitances) is diagonal with strictly positive entries and
//! `B` (thermal conductances) is symmetric positive definite, so `C` is
//! similar to the symmetric negative definite matrix `-S` with
//! `S = A^{-1/2} B A^{-1/2}`:
//!
//! ```text
//! C = -A⁻¹B = A^{-1/2} · (-S) · A^{1/2}
//! ```
//!
//! Decomposing `S = Q Λ Qᵀ` yields `C = V (-Λ) V⁻¹` with
//! `V = A^{-1/2} Q` and `V⁻¹ = Qᵀ A^{1/2}` — no general (nonsymmetric)
//! eigensolver is ever needed, and all eigenvalues of `C` are provably
//! negative, which is what makes the geometric-series closed forms of the
//! paper's Eq. (9) legitimate. `Q` is a product of Householder
//! reflections and Givens rotations, so it is orthogonal to round-off.

use crate::{LinalgError, Matrix, NumericalError, Result, Vector};

/// QL iterations allowed per eigenvalue before declaring non-convergence
/// (LAPACK `dsteqr`'s budget). Symmetric input converges in one to three
/// per eigenvalue; the budget bounds the loop when the arithmetic has
/// gone non-finite, where no subdiagonal entry ever becomes negligible.
const QL_ITERATIONS_PER_EIGENVALUE: u32 = 30;

/// Largest entry magnitude decomposed as given; larger input is scaled
/// down first. LAPACK `dsyev`'s bound `√(ε / f64::MIN_POSITIVE)`.
const RESCALE_ABOVE: f64 = 1e146;

/// Eigendecomposition `M = Q Λ Qᵀ` of a symmetric matrix, with `Q` orthogonal.
///
/// Produced by [`Matrix::symmetric_eigen`] or [`SymmetricEigen::new`].
/// Eigenpairs are sorted by ascending eigenvalue.
///
/// # Example
///
/// ```
/// use hp_linalg::Matrix;
///
/// # fn main() -> Result<(), hp_linalg::LinalgError> {
/// let m = Matrix::from_rows(&[&[2.0, 1.0], &[1.0, 2.0]])?;
/// let eig = m.symmetric_eigen()?;
/// assert!((eig.eigenvalues()[0] - 1.0).abs() < 1e-10);
/// assert!((eig.eigenvalues()[1] - 3.0).abs() < 1e-10);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct SymmetricEigen {
    eigenvalues: Vector,
    /// Columns are the eigenvectors, in the same order as `eigenvalues`.
    eigenvectors: Matrix,
}

impl SymmetricEigen {
    /// Decomposes a symmetric matrix: Householder reduction to
    /// tridiagonal form, then implicit-shift QL iteration on the
    /// tridiagonal, accumulating both transforms into the eigenvectors.
    ///
    /// # Errors
    ///
    /// * [`LinalgError::NotSquare`] for rectangular input.
    /// * [`NumericalError::NonFinite`] (wrapped in
    ///   [`LinalgError::Numerical`]) if the input holds a NaN or infinity,
    ///   or the eigenvalues come out non-finite.
    /// * [`LinalgError::NotSymmetric`] if the asymmetry exceeds
    ///   `1e-8 · ‖M‖∞`.
    /// * [`NumericalError::NonConvergence`] (wrapped in
    ///   [`LinalgError::Numerical`]) if a subdiagonal entry is still not
    ///   negligible after `30·n` QL iterations (practically unreachable
    ///   for finite symmetric input). The error carries the iteration
    ///   count, the largest unconverged subdiagonal entry, and the
    ///   diagonal at abort as the partial eigenvalue estimates.
    pub fn new(m: &Matrix) -> Result<Self> {
        if !m.is_square() {
            return Err(LinalgError::NotSquare {
                rows: m.rows(),
                cols: m.cols(),
            });
        }
        if m.as_slice().iter().any(|x| !x.is_finite()) {
            return Err(NumericalError::NonFinite {
                what: "symmetric eigendecomposition input",
            }
            .into());
        }
        let n = m.rows();
        let scale = m.norm_inf().max(f64::MIN_POSITIVE);
        // Locate the worst asymmetric pair for a useful error message.
        for i in 0..n {
            for j in (i + 1)..n {
                let asym = (m[(i, j)] - m[(j, i)]).abs();
                if asym > 1e-8 * scale {
                    return Err(LinalgError::NotSymmetric {
                        at: (i, j),
                        asymmetry: asym,
                    });
                }
            }
        }
        if n == 0 {
            return Ok(Self::sorted(&[], &[]));
        }

        // Entries near the overflow threshold would overflow inside the
        // iteration (the |d| + |e| tolerance, the 2 × 2 shifts); decompose
        // a scaled-down copy and scale the eigenvalues back.
        let factor = if scale > RESCALE_ABOVE {
            RESCALE_ABOVE / scale
        } else {
            1.0
        };
        // `rows` holds the transpose of the accumulated transform: row k
        // is the k-th (eigen)vector, so every rotation and reflection
        // update streams contiguous rows.
        let mut rows: Vec<f64> = m.as_slice().iter().map(|x| x * factor).collect();
        let mut d = vec![0.0; n];
        let mut e = vec![0.0; n];
        tridiagonalize(&mut rows, n, &mut d, &mut e);
        ql_implicit(&mut rows, n, &mut d, &mut e)?;
        for x in &mut d {
            *x /= factor;
        }
        if d.iter().any(|x| !x.is_finite()) {
            return Err(NumericalError::NonFinite {
                what: "eigenvalues",
            }
            .into());
        }
        Ok(Self::sorted(&d, &rows))
    }

    /// Sorts the eigenpairs ascending and transposes the row-stored
    /// eigenvectors into columns.
    fn sorted(values: &[f64], rows: &[f64]) -> Self {
        let n = values.len();
        let mut order: Vec<usize> = (0..n).collect();
        order.sort_by(|&a, &b| values[a].total_cmp(&values[b]));
        let eigenvalues = Vector::from_fn(n, |i| values[order[i]]);
        let eigenvectors = Matrix::from_fn(n, n, |i, j| rows[order[j] * n + i]);
        SymmetricEigen {
            eigenvalues,
            eigenvectors,
        }
    }

    /// Eigenvalues, ascending.
    pub fn eigenvalues(&self) -> &Vector {
        &self.eigenvalues
    }

    /// Orthogonal eigenvector matrix `Q` (columns match `eigenvalues`).
    pub fn eigenvectors(&self) -> &Matrix {
        &self.eigenvectors
    }

    /// Reconstructs `Q Λ Qᵀ` (for validation).
    pub fn reconstruct(&self) -> Matrix {
        let n = self.eigenvalues.len();
        let q = &self.eigenvectors;
        // Element-wise Q·Λ·Qᵀ — no intermediate products, no shape checks
        // to fail.
        Matrix::from_fn(n, n, |i, j| {
            (0..n)
                .map(|k| q[(i, k)] * self.eigenvalues[k] * q[(j, k)])
                .sum()
        })
    }
}

/// Householder reduction of the symmetric `n × n` matrix held in `w` to
/// tridiagonal form `T = Qᵀ M Q` (EISPACK `tred2`). On return `d` holds
/// the diagonal of `T`, `e[1..]` its subdiagonal (`e[0] = 0`), and `w`
/// holds `Qᵀ` — row `k` is column `k` of `Q` — so that
/// [`ql_implicit`] can keep accumulating into contiguous rows.
///
/// `w` is `n × n` and `d`, `e` have length `n ≥ 1`; every index below is in
/// range by construction.
///
/// Each step scales the active row by its 1-norm to avoid under- and
/// overflow; a row whose part left of the diagonal is already zero
/// (`scale == 0`) needs no reflection.
fn tridiagonalize(w: &mut [f64], n: usize, d: &mut [f64], e: &mut [f64]) {
    for (j, dj) in d.iter_mut().enumerate() {
        *dj = w[j * n + n - 1];
    }
    for i in (1..n).rev() {
        let scale: f64 = d[..i].iter().map(|x| x.abs()).sum();
        let mut h = 0.0;
        if scale == 0.0 {
            e[i] = d[i - 1];
            for j in 0..i {
                d[j] = w[j * n + i - 1];
                w[j * n + i] = 0.0;
                w[i * n + j] = 0.0;
            }
        } else {
            // Householder vector of the scaled row, held in d[..i].
            for dk in &mut d[..i] {
                *dk /= scale;
                h += *dk * *dk;
            }
            let f = d[i - 1];
            let g = if f > 0.0 { -h.sqrt() } else { h.sqrt() };
            e[i] = scale * g;
            h -= f * g;
            d[i - 1] = f - g;
            e[..i].fill(0.0);
            // Similarity transform of the leading i × i block: p = M·u
            // (accumulated in e) from its stored upper triangle.
            for j in 0..i {
                let f = d[j];
                w[i * n + j] = f;
                let row = &w[j * n..j * n + i];
                let mut g = e[j] + row[j] * f;
                for ((&wjk, &dk), ek) in row[j + 1..].iter().zip(&d[j + 1..i]).zip(&mut e[j + 1..i])
                {
                    g += wjk * dk;
                    *ek += wjk * f;
                }
                e[j] = g;
            }
            let mut f = 0.0;
            for (ej, &dj) in e[..i].iter_mut().zip(&d[..i]) {
                *ej /= h;
                f += *ej * dj;
            }
            let hh = f / (h + h);
            for (ej, &dj) in e[..i].iter_mut().zip(&d[..i]) {
                *ej -= hh * dj;
            }
            for j in 0..i {
                let (f, g) = (d[j], e[j]);
                let row = &mut w[j * n + j..j * n + i];
                for ((wjk, &ek), &dk) in row.iter_mut().zip(&e[j..i]).zip(&d[j..i]) {
                    *wjk -= f * ek + g * dk;
                }
                d[j] = w[j * n + i - 1];
                w[j * n + i] = 0.0;
            }
        }
        d[i] = h;
    }
    // Accumulate the reflections into Qᵀ.
    for i in 0..n - 1 {
        w[i * n + n - 1] = w[i * n + i];
        w[i * n + i] = 1.0;
        let h = d[i + 1];
        let (head, tail) = w.split_at_mut((i + 1) * n);
        let u = &mut tail[..=i];
        if h != 0.0 {
            for (dk, &uk) in d[..=i].iter_mut().zip(u.iter()) {
                *dk = uk / h;
            }
            for row in head.chunks_exact_mut(n) {
                let row = &mut row[..=i];
                let g = u
                    .iter()
                    .zip(row.iter())
                    .fold(0.0, |g, (&uk, &wk)| g + uk * wk);
                for (wk, &dk) in row.iter_mut().zip(&d[..=i]) {
                    *wk -= g * dk;
                }
            }
        }
        u.fill(0.0);
    }
    for (j, dj) in d.iter_mut().enumerate() {
        *dj = w[j * n + n - 1];
        w[j * n + n - 1] = 0.0;
    }
    w[n * n - 1] = 1.0;
    e[0] = 0.0;
}

/// Whether a subdiagonal entry is negligible against `tol`. NaN never is,
/// so a non-finite iteration runs into the budget instead of passing as
/// converged.
fn negligible(x: f64, tol: f64) -> bool {
    x.abs() <= tol
}

/// The [`NumericalError::NonConvergence`] of a QL iteration stopped
/// while resolving eigenvalue `l`: the largest remaining subdiagonal
/// entry (NaN if any is NaN) and the diagonal, with the accumulated shift
/// `f` added back to the entries still unresolved.
fn ql_stalled(iterations: u32, l: usize, f: f64, d: &[f64], e: &[f64]) -> LinalgError {
    let rest = &e[l..];
    let off_norm = if rest.iter().any(|x| x.is_nan()) {
        f64::NAN
    } else {
        rest.iter().fold(0.0, |worst: f64, x| worst.max(x.abs()))
    };
    let partial = Vector::from_fn(d.len(), |i| if i < l { d[i] } else { d[i] + f });
    NumericalError::NonConvergence {
        sweeps: iterations,
        off_norm,
        partial,
    }
    .into()
}

/// Implicit-shift QL iteration on the tridiagonal left by
/// [`tridiagonalize`] (EISPACK `tql2`): on success `d` holds the
/// eigenvalues (unsorted) and row `k` of `w` the eigenvector of `d[k]`.
///
/// # Errors
///
/// [`NumericalError::NonConvergence`] once `30·n` iterations have run
/// without every subdiagonal entry becoming negligible.
fn ql_implicit(w: &mut [f64], n: usize, d: &mut [f64], e: &mut [f64]) -> Result<()> {
    e.copy_within(1..n, 0);
    e[n - 1] = 0.0;
    let budget = QL_ITERATIONS_PER_EIGENVALUE.saturating_mul(u32::try_from(n).unwrap_or(u32::MAX));
    let mut iterations = 0u32;
    let mut f = 0.0f64;
    let mut tst1 = 0.0f64;
    for l in 0..n {
        tst1 = tst1.max(d[l].abs() + e[l].abs());
        // First negligible subdiagonal entry at or after l; e[n-1] = 0
        // ends the search.
        let mut m = l;
        while m + 1 < n && !negligible(e[m], f64::EPSILON * tst1) {
            m += 1;
        }
        if m > l {
            loop {
                if iterations == budget {
                    return Err(ql_stalled(iterations, l, f, d, e));
                }
                iterations += 1;
                // Implicit shift from the leading 2 × 2 block.
                let g = d[l];
                let mut p = (d[l + 1] - g) / (2.0 * e[l]);
                let r = if p < 0.0 { -p.hypot(1.0) } else { p.hypot(1.0) };
                d[l] = e[l] / (p + r);
                d[l + 1] = e[l] * (p + r);
                let dl1 = d[l + 1];
                let h = g - d[l];
                for di in &mut d[l + 2..] {
                    *di -= h;
                }
                f += h;
                // One QL sweep of Givens rotations from m - 1 up to l.
                p = d[m];
                let (mut c, mut c2, mut c3) = (1.0, 1.0, 1.0);
                let el1 = e[l + 1];
                let (mut s, mut s2) = (0.0, 0.0);
                for i in (l..m).rev() {
                    c3 = c2;
                    c2 = c;
                    s2 = s;
                    let g = c * e[i];
                    let h = c * p;
                    let r = p.hypot(e[i]);
                    e[i + 1] = s * r;
                    s = e[i] / r;
                    c = p / r;
                    p = c * d[i] - s * g;
                    d[i + 1] = h + s * (c * g + s * d[i]);
                    let (wi, wi1) = w[i * n..(i + 2) * n].split_at_mut(n);
                    for (x, y) in wi.iter_mut().zip(wi1.iter_mut()) {
                        let h = *y;
                        *y = s * *x + c * h;
                        *x = c * *x - s * h;
                    }
                }
                p = -s * s2 * c3 * el1 * e[l] / dl1;
                e[l] = s * p;
                d[l] = c * p;
                if negligible(e[l], f64::EPSILON * tst1) {
                    break;
                }
            }
        }
        d[l] += f;
        e[l] = 0.0;
    }
    Ok(())
}

/// Eigendecomposition of the thermal system matrix `C = -A⁻¹B`.
///
/// Holds `C = V · diag(λ) · V⁻¹` with all `λ < 0`. Built once per chip
/// configuration and reused by every transient and peak-temperature solve.
///
/// # Example
///
/// ```
/// use hp_linalg::{eigen::SystemEigen, Matrix, Vector};
///
/// # fn main() -> Result<(), hp_linalg::LinalgError> {
/// let a_diag = Vector::from(vec![1.0, 2.0]);
/// let b = Matrix::from_rows(&[&[3.0, -1.0], &[-1.0, 2.0]])?;
/// let sys = SystemEigen::new(&a_diag, &b)?;
/// assert!(sys.eigenvalues().iter().all(|&l| l < 0.0));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct SystemEigen {
    eigenvalues: Vector,
    v: Matrix,
    v_inv: Matrix,
    /// `‖V·V⁻¹ − I‖∞`, measured once at construction.
    basis_residual: f64,
}

impl SystemEigen {
    /// Builds the decomposition from the diagonal of `A` and the symmetric
    /// conductance matrix `B`.
    ///
    /// # Errors
    ///
    /// * [`LinalgError::InvalidInput`] if any capacitance is non-positive or
    ///   dimensions disagree.
    /// * Errors from the underlying [`SymmetricEigen`] decomposition.
    pub fn new(a_diag: &Vector, b: &Matrix) -> Result<Self> {
        let n = a_diag.len();
        if b.rows() != n || b.cols() != n {
            return Err(LinalgError::DimensionMismatch {
                op: "system eigendecomposition",
                left: (n, 1),
                right: (b.rows(), b.cols()),
            });
        }
        if a_diag.iter().any(|&c| c <= 0.0 || !c.is_finite()) {
            return Err(LinalgError::InvalidInput(
                "thermal capacitances must be positive and finite",
            ));
        }
        let inv_sqrt = Vector::from_fn(n, |i| 1.0 / a_diag[i].sqrt());
        let sqrt_a = Vector::from_fn(n, |i| a_diag[i].sqrt());
        // S = A^{-1/2} B A^{-1/2}, symmetric by construction.
        let s = Matrix::from_fn(n, n, |i, j| inv_sqrt[i] * b[(i, j)] * inv_sqrt[j]);
        // Numerical symmetrization guards against round-off in B's assembly.
        let s = Matrix::from_fn(n, n, |i, j| 0.5 * (s[(i, j)] + s[(j, i)]));
        let eig = SymmetricEigen::new(&s)?;
        let q = eig.eigenvectors();
        let v = Matrix::from_fn(n, n, |i, j| inv_sqrt[i] * q[(i, j)]);
        let v_inv = Matrix::from_fn(n, n, |i, j| q[(j, i)] * sqrt_a[j]);
        let eigenvalues = Vector::from_fn(n, |i| -eig.eigenvalues()[i]);
        let product = v.mul_matrix(&v_inv)?;
        let mut basis_residual = 0.0f64;
        for i in 0..n {
            for j in 0..n {
                let expect = if i == j { 1.0 } else { 0.0 };
                basis_residual = basis_residual.max((product[(i, j)] - expect).abs());
            }
        }
        Ok(SystemEigen {
            eigenvalues,
            v,
            v_inv,
            basis_residual,
        })
    }

    /// Dimension `N` of the system.
    pub fn dim(&self) -> usize {
        self.eigenvalues.len()
    }

    /// Eigenvalues of `C` (all negative for a physical RC model).
    pub fn eigenvalues(&self) -> &Vector {
        &self.eigenvalues
    }

    /// Eigenvector matrix `V`.
    pub fn v(&self) -> &Matrix {
        &self.v
    }

    /// Inverse eigenvector matrix `V⁻¹`.
    pub fn v_inv(&self) -> &Matrix {
        &self.v_inv
    }

    /// Eigenvalue spread `max|λ| / min|λ|` — the condition number of the
    /// diagonalized system. A huge spread means the fast and slow thermal
    /// modes differ by many orders of magnitude and the eigen route's
    /// round-off is no longer negligible; solvers use this to decide
    /// whether to arm their dense fallback.
    ///
    /// Returns infinity if any eigenvalue is (numerically) zero.
    pub fn eigenvalue_spread(&self) -> f64 {
        let mut min_abs = f64::INFINITY;
        let mut max_abs = 0.0f64;
        for &l in &self.eigenvalues {
            min_abs = min_abs.min(l.abs());
            max_abs = max_abs.max(l.abs());
        }
        if min_abs == 0.0 {
            return f64::INFINITY;
        }
        max_abs / min_abs
    }

    /// Residual `‖V·V⁻¹ − I‖∞` of the eigenbasis — a cheap spot check that
    /// the decomposition still inverts cleanly. For a healthy model this
    /// is at round-off level (≲ 1e-12); values far above that mean the
    /// congruence transform lost accuracy.
    ///
    /// Measured once at construction (one GEMM), so the solvers' arming
    /// checks and every cache hit read it for free.
    pub fn basis_residual(&self) -> f64 {
        self.basis_residual
    }

    /// Evaluates `e^{C·t} · x` without forming the full exponential.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != self.dim()`.
    pub fn exp_apply(&self, t: f64, x: &Vector) -> Vector {
        let y = self.v_inv.mul_vector(x);
        let scaled = Vector::from_fn(self.dim(), |i| (self.eigenvalues[i] * t).exp() * y[i]);
        self.v.mul_vector(&scaled)
    }

    /// Forms the dense matrix `e^{C·t}`.
    pub fn exp_matrix(&self, t: f64) -> Matrix {
        let n = self.dim();
        let d = Vector::from_fn(n, |i| (self.eigenvalues[i] * t).exp());
        // V · diag(d) · V⁻¹ computed without an intermediate product.
        Matrix::from_fn(n, n, |i, j| {
            (0..n)
                .map(|k| self.v[(i, k)] * d[k] * self.v_inv[(k, j)])
                .sum()
        })
    }

    /// Forms `V · diag(d) · V⁻¹` for an arbitrary spectral filter `d`.
    ///
    /// This is the workhorse of the rotation peak-temperature closed form
    /// (paper Eq. 10), where `d` is e.g. `1 / (1 - e^{δλτ})`.
    ///
    /// # Panics
    ///
    /// Panics if `d.len() != self.dim()`.
    pub fn spectral_filter(&self, d: &Vector) -> Matrix {
        let n = self.dim();
        assert_eq!(d.len(), n, "spectral filter length mismatch");
        Matrix::from_fn(n, n, |i, j| {
            (0..n)
                .map(|k| self.v[(i, k)] * d[k] * self.v_inv[(k, j)])
                .sum()
        })
    }

    /// Applies `V · diag(d) · V⁻¹ · x` without forming the matrix.
    ///
    /// # Panics
    ///
    /// Panics if `d.len()` or `x.len()` differ from `self.dim()`.
    pub fn spectral_apply(&self, d: &Vector, x: &Vector) -> Vector {
        let y = self.v_inv.mul_vector(x);
        let filtered = Vector::from_fn(self.dim(), |i| d[i] * y[i]);
        self.v.mul_vector(&filtered)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn two_by_two_known_eigenvalues() {
        let m = Matrix::from_rows(&[&[2.0, 1.0], &[1.0, 2.0]]).unwrap();
        let eig = m.symmetric_eigen().unwrap();
        assert!((eig.eigenvalues()[0] - 1.0).abs() < 1e-12);
        assert!((eig.eigenvalues()[1] - 3.0).abs() < 1e-12);
    }

    #[test]
    fn reconstruction_matches_input() {
        let m = Matrix::from_rows(&[&[4.0, 1.0, 0.5], &[1.0, 3.0, 0.2], &[0.5, 0.2, 5.0]]).unwrap();
        let eig = m.symmetric_eigen().unwrap();
        let err = (&eig.reconstruct() - &m).norm_inf();
        assert!(err < 1e-10, "reconstruction error {err}");
    }

    #[test]
    fn eigenvectors_orthonormal() {
        let m = Matrix::from_fn(6, 6, |i, j| 1.0 / (1.0 + (i + j) as f64));
        let eig = m.symmetric_eigen().unwrap();
        let q = eig.eigenvectors();
        let qtq = q.transpose().mul_matrix(q).unwrap();
        let err = (&qtq - &Matrix::identity(6)).norm_inf();
        assert!(err < 1e-10, "orthogonality error {err}");
    }

    #[test]
    fn rejects_asymmetric() {
        let m = Matrix::from_rows(&[&[1.0, 2.0], &[0.0, 1.0]]).unwrap();
        assert!(matches!(
            m.symmetric_eigen(),
            Err(LinalgError::NotSymmetric { .. })
        ));
    }

    #[test]
    fn diagonal_input_is_exact() {
        let m = Matrix::from_diagonal(&Vector::from(vec![3.0, 1.0, 2.0]));
        let eig = m.symmetric_eigen().unwrap();
        assert_eq!(eig.eigenvalues().as_slice(), &[1.0, 2.0, 3.0]);
    }

    fn assert_decomposes(m: &Matrix, tol: f64) {
        let eig = m.symmetric_eigen().unwrap();
        let n = m.rows();
        let err = (&eig.reconstruct() - m).norm_inf();
        assert!(err < tol, "reconstruction error {err:e}");
        let q = eig.eigenvectors();
        let qtq = q.transpose().mul_matrix(q).unwrap();
        let err = (&qtq - &Matrix::identity(n)).norm_inf();
        assert!(err < tol, "orthogonality error {err:e}");
        let values = eig.eigenvalues().as_slice();
        assert!(values.windows(2).all(|w| w[0] <= w[1]), "ascending");
    }

    #[test]
    fn rejects_non_finite_input() {
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let mut m = Matrix::from_fn(4, 4, |i, j| if i == j { 3.0 } else { -0.5 });
            m[(2, 1)] = bad;
            m[(1, 2)] = bad;
            assert!(
                matches!(
                    m.symmetric_eigen(),
                    Err(LinalgError::Numerical(NumericalError::NonFinite { .. }))
                ),
                "{bad} must be rejected"
            );
            let a_diag = Vector::constant(4, 1.0);
            assert!(matches!(
                SystemEigen::new(&a_diag, &m),
                Err(LinalgError::Numerical(NumericalError::NonFinite { .. }))
            ));
        }
    }

    #[test]
    fn near_overflow_input_is_rescaled() {
        // A spectrum past f64::MAX is a typed error, not a wrong answer.
        for m in [
            Matrix::from_fn(2, 2, |_, _| 1e308),
            Matrix::from_rows(&[
                &[1.7e308, 0.0, 1e307],
                &[0.0, 1.0, 0.0],
                &[1e307, 0.0, 1.7e308],
            ])
            .unwrap(),
        ] {
            assert!(matches!(
                m.symmetric_eigen(),
                Err(LinalgError::Numerical(NumericalError::NonFinite { .. }))
            ));
        }
        // Huge entries with a representable spectrum decompose correctly.
        let m = Matrix::from_rows(&[
            &[1.7e308, 0.0, 1e307],
            &[0.0, 1.0, 0.0],
            &[1e307, 0.0, 1.6e308],
        ])
        .unwrap();
        let eig = m.symmetric_eigen().unwrap();
        let rad = 1e307 * 1.25f64.sqrt();
        let expect = [1.65e308 - rad, 1.65e308 + rad];
        for (got, want) in eig.eigenvalues().as_slice()[1..].iter().zip(expect) {
            assert!((got - want).abs() <= 1e-14 * want, "{got:e} vs {want:e}");
        }
        let q = eig.eigenvectors();
        let err = (&q.transpose().mul_matrix(q).unwrap() - &Matrix::identity(3)).norm_inf();
        assert!(err < 1e-13, "orthogonality error {err:e}");
    }

    #[test]
    fn zero_scale_rows_skip_reflection() {
        // Rows with nothing left of the diagonal take tred2's
        // `scale == 0` branch: the last row at the start, the third row
        // after the trailing block's reflection.
        let block = Matrix::from_rows(&[
            &[4.0, 1.0, 0.0, 0.0],
            &[1.0, 3.0, 0.0, 0.0],
            &[0.0, 0.0, 2.0, 0.5],
            &[0.0, 0.0, 0.5, 1.0],
        ])
        .unwrap();
        assert_decomposes(&block, 1e-13);
        let eig = block.symmetric_eigen().unwrap();
        let pair = |a: f64, b: f64, c: f64| {
            let (mid, rad) = (0.5 * (a + c), (0.25 * (a - c) * (a - c) + b * b).sqrt());
            [mid - rad, mid + rad]
        };
        let mut expect = [pair(4.0, 1.0, 3.0), pair(2.0, 0.5, 1.0)].concat();
        expect.sort_by(f64::total_cmp);
        for (got, want) in eig.eigenvalues().iter().zip(expect) {
            assert!((got - want).abs() < 1e-13, "{got} vs {want}");
        }
        let trailing_zero =
            Matrix::from_rows(&[&[2.0, 1.0, 0.0], &[1.0, 2.0, 0.0], &[0.0, 0.0, 5.0]]).unwrap();
        assert_decomposes(&trailing_zero, 1e-13);

        let zero = Matrix::zeros(3, 3);
        let eig = zero.symmetric_eigen().unwrap();
        assert_eq!(eig.eigenvalues().as_slice(), &[0.0; 3]);
        assert_eq!(eig.eigenvectors(), &Matrix::identity(3));
    }

    #[test]
    fn trivial_sizes() {
        let empty = Matrix::zeros(0, 0).symmetric_eigen().unwrap();
        assert_eq!(empty.eigenvalues().len(), 0);
        let one = Matrix::from_rows(&[&[-2.5]])
            .unwrap()
            .symmetric_eigen()
            .unwrap();
        assert_eq!(one.eigenvalues().as_slice(), &[-2.5]);
        assert_eq!(one.eigenvectors(), &Matrix::identity(1));
    }

    #[test]
    fn degenerate_and_indefinite_spectra() {
        // Repeated eigenvalues (all-ones has spectrum {0, .., 0, n}) and
        // mixed signs.
        assert_decomposes(&Matrix::from_fn(7, 7, |_, _| 1.0), 1e-13);
        let indefinite =
            Matrix::from_fn(9, 9, |i, j| ((i * j) as f64).cos() + ((i + j) as f64).sin());
        let eig = indefinite.symmetric_eigen().unwrap();
        let values = eig.eigenvalues();
        assert!(values[0] < 0.0 && values[8] > 0.0, "indefinite: {values:?}");
        assert_decomposes(&indefinite, 1e-13);
    }

    #[test]
    fn ql_budget_stops_non_finite_iteration() {
        // A NaN on the tridiagonal never becomes negligible, so without
        // the budget the QL loop would spin forever.
        let n = 4;
        let mut w = Matrix::identity(n).as_slice().to_vec();
        let mut d = vec![2.0, f64::NAN, 1.0, 3.0];
        let mut e = vec![0.0, 0.5, 0.5, 0.5];
        match ql_implicit(&mut w, n, &mut d, &mut e) {
            Err(LinalgError::Numerical(NumericalError::NonConvergence {
                sweeps,
                off_norm,
                partial,
            })) => {
                assert_eq!(sweeps, QL_ITERATIONS_PER_EIGENVALUE * 4);
                assert!(off_norm.is_nan(), "residual {off_norm}");
                assert_eq!(partial.len(), n);
            }
            other => panic!("expected NonConvergence, got {other:?}"),
        }
    }

    #[test]
    fn system_eigen_matches_direct_c() {
        let a_diag = Vector::from(vec![1.0, 2.0, 0.5]);
        let b =
            Matrix::from_rows(&[&[3.0, -1.0, 0.0], &[-1.0, 2.5, -0.5], &[0.0, -0.5, 1.5]]).unwrap();
        let sys = SystemEigen::new(&a_diag, &b).unwrap();
        // Reconstruct C = V diag(lambda) V^{-1} and compare with -A^{-1}B.
        let c_rebuilt = sys.spectral_filter(sys.eigenvalues());
        let c_direct = Matrix::from_fn(3, 3, |i, j| -b[(i, j)] / a_diag[i]);
        let err = (&c_rebuilt - &c_direct).norm_inf();
        assert!(err < 1e-10, "C reconstruction error {err}");
    }

    #[test]
    fn system_eigenvalues_negative() {
        let a_diag = Vector::from(vec![0.1, 0.2, 0.3, 0.4]);
        let b = Matrix::from_fn(4, 4, |i, j| {
            if i == j {
                2.0 + i as f64
            } else if i.abs_diff(j) == 1 {
                -0.7
            } else {
                0.0
            }
        });
        let sys = SystemEigen::new(&a_diag, &b).unwrap();
        assert!(sys.eigenvalues().iter().all(|&l| l < 0.0));
    }

    #[test]
    fn exp_apply_at_zero_is_identity() {
        let a_diag = Vector::from(vec![1.0, 1.0]);
        let b = Matrix::from_rows(&[&[2.0, -1.0], &[-1.0, 2.0]]).unwrap();
        let sys = SystemEigen::new(&a_diag, &b).unwrap();
        let x = Vector::from(vec![1.0, -2.0]);
        let y = sys.exp_apply(0.0, &x);
        assert!((&y - &x).norm_inf() < 1e-12);
    }

    #[test]
    fn exp_apply_decays_to_zero() {
        let a_diag = Vector::from(vec![1.0, 1.0]);
        let b = Matrix::from_rows(&[&[2.0, -1.0], &[-1.0, 2.0]]).unwrap();
        let sys = SystemEigen::new(&a_diag, &b).unwrap();
        let x = Vector::from(vec![5.0, 7.0]);
        let y = sys.exp_apply(100.0, &x);
        assert!(y.norm_inf() < 1e-10);
    }

    #[test]
    fn system_rejects_nonpositive_capacitance() {
        let a_diag = Vector::from(vec![1.0, 0.0]);
        let b = Matrix::identity(2);
        assert!(SystemEigen::new(&a_diag, &b).is_err());
    }

    #[test]
    fn eigenvalue_spread_and_basis_residual_healthy() {
        let a_diag = Vector::from(vec![0.5, 1.5, 1.0]);
        let b =
            Matrix::from_rows(&[&[2.0, -0.5, 0.0], &[-0.5, 3.0, -1.0], &[0.0, -1.0, 2.5]]).unwrap();
        let sys = SystemEigen::new(&a_diag, &b).unwrap();
        let spread = sys.eigenvalue_spread();
        assert!((1.0..1e3).contains(&spread), "spread {spread:e}");
        assert!(sys.basis_residual() < 1e-12);
    }

    #[test]
    fn eigenvalue_spread_grows_with_capacitance_ratio() {
        // Widely split capacitances stretch the mode spectrum.
        let a_diag = Vector::from(vec![1e-9, 1.0]);
        let b = Matrix::from_rows(&[&[2.0, -1.0], &[-1.0, 2.0]]).unwrap();
        let sys = SystemEigen::new(&a_diag, &b).unwrap();
        assert!(sys.eigenvalue_spread() > 1e8);
    }

    #[test]
    fn exp_matrix_matches_exp_apply() {
        let a_diag = Vector::from(vec![0.5, 1.5, 1.0]);
        let b =
            Matrix::from_rows(&[&[2.0, -0.5, 0.0], &[-0.5, 3.0, -1.0], &[0.0, -1.0, 2.5]]).unwrap();
        let sys = SystemEigen::new(&a_diag, &b).unwrap();
        let x = Vector::from(vec![1.0, 2.0, 3.0]);
        let via_matrix = sys.exp_matrix(0.3).mul_vector(&x);
        let via_apply = sys.exp_apply(0.3, &x);
        assert!((&via_matrix - &via_apply).norm_inf() < 1e-12);
    }
}
