//! Differential suite for the symmetric eigensolver: Householder + QL
//! (`SymmetricEigen`) against a cyclic Jacobi oracle on random SPD
//! matrices and on the real RC thermal models the tool-chain decomposes.
//!
//! Jacobi converges slowly but needs nothing beyond plane rotations, so
//! it is an independent check on the production path. Agreement is
//! asserted on the eigenvalues (relative to the spectrum's scale), on the
//! eigen-residual `‖SQ − QΛ‖∞` and orthogonality `‖QᵀQ − I‖∞` of the
//! production eigenvectors, and on the basis residual `SystemEigen`
//! stores at construction.

use hp_floorplan::GridFloorplan;
use hp_linalg::eigen::SystemEigen;
use hp_linalg::{Matrix, SymmetricEigen, Vector};
use hp_thermal::stacked::stacked_model;
use hp_thermal::{RcThermalModel, ThermalConfig};
use proptest::prelude::*;

/// Full Jacobi sweeps before the oracle gives up.
const MAX_SWEEPS: usize = 64;

/// Cyclic Jacobi eigendecomposition: ascending eigenvalues and the
/// matching eigenvector columns. Panics if the sweep budget runs out.
fn jacobi(m: &Matrix) -> (Vec<f64>, Matrix) {
    let n = m.rows();
    let mut a = m.as_slice().to_vec();
    // Row k of `qt` is eigenvector k, so rotations update contiguous rows.
    let mut qt = Matrix::identity(n).as_slice().to_vec();
    let tol = 1e-14 * m.norm_inf().max(f64::MIN_POSITIVE);
    let off_diagonal = |a: &[f64]| {
        (0..n)
            .flat_map(|i| ((i + 1)..n).map(move |j| (i, j)))
            .fold(0.0f64, |off, (i, j)| off.max(a[i * n + j].abs()))
    };
    let rotate_rows = |v: &mut [f64], p: usize, r: usize, c: f64, s: f64| {
        let (head, tail) = v.split_at_mut(r * n);
        let (row_p, row_r) = (&mut head[p * n..(p + 1) * n], &mut tail[..n]);
        for (x, y) in row_p.iter_mut().zip(row_r.iter_mut()) {
            let (xp, yr) = (*x, *y);
            *x = c * xp - s * yr;
            *y = s * xp + c * yr;
        }
    };
    let mut sweeps = 0;
    while off_diagonal(&a) > tol {
        assert!(sweeps < MAX_SWEEPS, "Jacobi oracle did not converge");
        sweeps += 1;
        for p in 0..n {
            for r in (p + 1)..n {
                let apr = a[p * n + r];
                if apr.abs() <= tol {
                    continue;
                }
                // Classic Jacobi rotation annihilating a[p][r].
                let theta = (a[r * n + r] - a[p * n + p]) / (2.0 * apr);
                let t = theta.signum() / (theta.abs() + (1.0 + theta * theta).sqrt());
                let c = 1.0 / (1.0 + t * t).sqrt();
                let s = t * c;
                for row in a.chunks_exact_mut(n) {
                    let (akp, akr) = (row[p], row[r]);
                    row[p] = c * akp - s * akr;
                    row[r] = s * akp + c * akr;
                }
                rotate_rows(&mut a, p, r, c, s);
                rotate_rows(&mut qt, p, r, c, s);
            }
        }
    }
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by(|&i, &j| a[i * n + i].total_cmp(&a[j * n + j]));
    let values = order.iter().map(|&k| a[k * n + k]).collect();
    let vectors = Matrix::from_fn(n, n, |i, j| qt[order[j] * n + i]);
    (values, vectors)
}

/// `S = A^{-1/2} B A^{-1/2}`, symmetrised exactly as `SystemEigen::new`
/// builds it.
fn symmetrized(a_diag: &Vector, b: &Matrix) -> Matrix {
    let n = a_diag.len();
    let s = Matrix::from_fn(n, n, |i, j| {
        b[(i, j)] / (a_diag[i].sqrt() * a_diag[j].sqrt())
    });
    Matrix::from_fn(n, n, |i, j| 0.5 * (s[(i, j)] + s[(j, i)]))
}

/// `‖V·V⁻¹ − I‖∞` by the plain triple loop.
fn basis_residual_from_scratch(sys: &SystemEigen) -> f64 {
    let (v, v_inv, n) = (sys.v(), sys.v_inv(), sys.dim());
    let mut worst = 0.0f64;
    for i in 0..n {
        for j in 0..n {
            let mut acc = 0.0;
            for k in 0..n {
                acc += v[(i, k)] * v_inv[(k, j)];
            }
            let expect = if i == j { 1.0 } else { 0.0 };
            worst = worst.max((acc - expect).abs());
        }
    }
    worst
}

/// Asserts the production decomposition of `s` against the oracle; on
/// failure the message names `what`.
fn check_against_oracle(s: &Matrix, what: &str) {
    let n = s.rows();
    let eig = SymmetricEigen::new(s).unwrap_or_else(|e| panic!("{what}: {e}"));
    let (oracle, _) = jacobi(s);
    let values = eig.eigenvalues();
    let spectrum = oracle.iter().fold(0.0f64, |m, l| m.max(l.abs()));
    for (k, (&got, &want)) in values.iter().zip(&oracle).enumerate() {
        let rel = (got - want).abs() / spectrum;
        assert!(
            rel <= 1e-10,
            "{what}: eigenvalue {k}: {got} vs oracle {want} ({rel:e})"
        );
    }
    let q = eig.eigenvectors();
    let sq = s.mul_matrix(q).unwrap();
    let q_lambda = Matrix::from_fn(n, n, |i, j| q[(i, j)] * values[j]);
    let residual = (&sq - &q_lambda).norm_inf();
    assert!(
        residual <= 1e-10 * s.norm_inf(),
        "{what}: ‖SQ−QΛ‖∞ = {residual:e} vs ‖S‖∞ = {:e}",
        s.norm_inf()
    );
    let qtq = q.transpose().mul_matrix(q).unwrap();
    let orth = (&qtq - &Matrix::identity(n)).norm_inf();
    assert!(orth <= 1e-12, "{what}: ‖QᵀQ−I‖∞ = {orth:e}");
}

/// Runs the oracle comparison on `S` of an RC model and checks the stored
/// basis residual.
fn check_model(model: &RcThermalModel, what: &str) {
    check_against_oracle(&symmetrized(model.a_diag(), model.b()), what);
    let sys = SystemEigen::new(model.a_diag(), model.b()).unwrap();
    let fresh = basis_residual_from_scratch(&sys);
    assert!(
        (sys.basis_residual() - fresh).abs() <= 1e-15,
        "{what}: stored basis residual {:e} vs recomputed {fresh:e}",
        sys.basis_residual()
    );
}

fn planar(w: usize, h: usize, config: &ThermalConfig) -> RcThermalModel {
    RcThermalModel::new(&GridFloorplan::new(w, h).unwrap(), config).unwrap()
}

#[test]
fn oracle_agrees_on_planar_4x4() {
    check_model(&planar(4, 4, &ThermalConfig::default()), "4x4");
}

#[test]
fn oracle_agrees_on_planar_8x8() {
    check_model(&planar(8, 8, &ThermalConfig::default()), "8x8");
}

#[test]
fn oracle_agrees_on_planar_10x10() {
    check_model(&planar(10, 10, &ThermalConfig::default()), "10x10");
}

#[test]
fn oracle_agrees_on_two_die_stack() {
    let fp = GridFloorplan::new(4, 4).unwrap();
    let model = stacked_model(&fp, &ThermalConfig::default(), 2, 0.8).unwrap();
    check_model(&model, "2-die stack");
}

#[test]
fn oracle_agrees_on_ill_conditioned_profile() {
    check_model(
        &planar(4, 4, &ThermalConfig::ill_conditioned()),
        "ill-conditioned",
    );
}

/// Largest generated dimension.
const MAX_N: usize = 24;

/// Strategy: an SPD matrix of random size `1..=MAX_N` with signed
/// couplings, made positive definite by strict diagonal dominance, plus
/// positive capacitances of the same size.
fn spd_system() -> impl Strategy<Value = (Vector, Matrix)> {
    let offs = proptest::collection::vec(-1.0..1.0f64, MAX_N * MAX_N);
    let margins = proptest::collection::vec(0.05..2.0f64, MAX_N);
    let caps = proptest::collection::vec(0.05..5.0f64, MAX_N);
    (1..=MAX_N, offs, margins, caps).prop_map(|(n, offs, margins, caps)| {
        let mut b = Matrix::from_fn(n, n, |i, j| offs[i.min(j) * MAX_N + i.max(j)]);
        for i in 0..n {
            let row: f64 = (0..n).filter(|&j| j != i).map(|j| b[(i, j)].abs()).sum();
            b[(i, i)] = row + margins[i];
        }
        (Vector::from(caps[..n].to_vec()), b)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn oracle_agrees_on_random_spd((a_diag, b) in spd_system()) {
        check_against_oracle(&b, "random SPD");
        check_against_oracle(&symmetrized(&a_diag, &b), "random S");
        let sys = SystemEigen::new(&a_diag, &b).unwrap();
        prop_assert!((sys.basis_residual() - basis_residual_from_scratch(&sys)).abs() <= 1e-15);
    }
}
