//! Jacobi-preconditioned conjugate-gradient solver for the
//! variable-coefficient Laplace stencil.
//!
//! The finite-volume discretization of `∇·(c ∇ψ) = 0` on a structured grid
//! produces a symmetric positive-semidefinite 7-point system. Every solve
//! runs Jacobi-preconditioned CG with a fused inner loop: the committed
//! experiments solve grids of a few thousand nodes, where its
//! per-iteration cost (one stencil apply plus one fused vector pass) is
//! the lowest of any scheme.

use crate::grid::Grid3;
use crate::{Error, Result};
use cnt_obs::Counter;
use std::sync::{Arc, OnceLock};

/// CG iterations performed process-wide, for the `/v1/metrics` export
/// (`cnt_fields_cg_iterations_total`).
fn cg_iterations() -> &'static Arc<Counter> {
    static HANDLE: OnceLock<Arc<Counter>> = OnceLock::new();
    HANDLE.get_or_init(|| {
        cnt_obs::global().counter(
            "cnt_fields_cg_iterations_total",
            "Jacobi-CG iterations performed",
        )
    })
}

/// Solver configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SolverOptions {
    /// Iteration cap before declaring divergence.
    pub max_iterations: usize,
    /// Relative-residual convergence threshold.
    pub tolerance: f64,
}

impl Default for SolverOptions {
    fn default() -> Self {
        Self {
            max_iterations: 50_000,
            tolerance: 1e-10,
        }
    }
}

/// Reusable scratch buffers for [`StencilSystem::solve_with`].
///
/// A CG solve needs five full-grid work vectors (`A·p`, residual,
/// preconditioned residual, search direction, preconditioner) plus the
/// free-node mask. Extraction drivers that solve the same grid once per
/// excitation reuse one workspace across all solves instead of
/// reallocating per call; buffers are sized (and the mask recomputed) at
/// the start of every solve, so a workspace may also move between systems
/// of different sizes.
#[derive(Debug, Default)]
pub struct SolveWorkspace {
    ax: Vec<f64>,
    r: Vec<f64>,
    z: Vec<f64>,
    p: Vec<f64>,
    precond: Vec<f64>,
    free: Vec<bool>,
}

impl SolveWorkspace {
    /// An empty workspace; buffers grow on first use.
    pub fn new() -> Self {
        Self::default()
    }
}

/// Assembled stencil system: face conductances plus Dirichlet constraints.
///
/// `dirichlet[n] = Some(v)` pins node `n` to potential `v`; nodes whose
/// row is entirely disconnected (all face weights zero — e.g. dielectric
/// islands in a resistance solve) are automatically pinned to zero.
#[derive(Debug, Clone)]
pub struct StencilSystem {
    nx: usize,
    ny: usize,
    nz: usize,
    /// Face weights along x: index `(k·ny + j)·(nx−1) + i`.
    wx: Vec<f64>,
    /// Face weights along y: index `(k·(ny−1) + j)·nx + i`.
    wy: Vec<f64>,
    /// Face weights along z: index `(k·ny + j)·nx + i` for `k < nz−1`.
    wz: Vec<f64>,
    dirichlet: Vec<Option<f64>>,
    diag: Vec<f64>,
}

impl StencilSystem {
    /// Assembles the system from per-cell coefficients.
    ///
    /// The face weight between two adjacent nodes is
    /// `(A_face / d) · mean(coefficients of adjacent cells)`, where cells
    /// missing at the domain boundary contribute zero — this realizes the
    /// natural (zero-flux Neumann) boundary condition.
    pub fn assemble(grid: &Grid3, cell_coeff: &[f64], dirichlet: Vec<Option<f64>>) -> Self {
        let [nx, ny, nz] = grid.nodes();
        debug_assert_eq!(cell_coeff.len(), grid.cell_count());
        debug_assert_eq!(dirichlet.len(), grid.node_count());

        let mut wx = Vec::new();
        let mut wy = Vec::new();
        let mut wz = Vec::new();
        let mut diag = Vec::new();
        assemble_faces(
            grid.nodes(),
            grid.spacing(),
            cell_coeff,
            &mut wx,
            &mut wy,
            &mut wz,
        );
        stencil_diagonal(grid.nodes(), &wx, &wy, &wz, &mut diag);

        let mut sys = Self {
            nx,
            ny,
            nz,
            wx,
            wy,
            wz,
            dirichlet,
            diag,
        };
        // Disconnected nodes have zero diagonal: pin them so the reduced
        // system stays SPD.
        for (idx, &d) in sys.diag.iter().enumerate() {
            if d == 0.0 && sys.dirichlet[idx].is_none() {
                sys.dirichlet[idx] = Some(0.0);
            }
        }
        sys
    }

    /// Total node count.
    pub fn node_count(&self) -> usize {
        self.nx * self.ny * self.nz
    }

    /// Applies the full stencil operator `y = A·ψ` over all nodes
    /// (no Dirichlet masking); used for flux integration.
    fn apply_full(&self, psi: &[f64], out: &mut [f64]) {
        out.iter_mut().for_each(|v| *v = 0.0);
        // x faces
        for k in 0..self.nz {
            for j in 0..self.ny {
                let row = (k * self.ny + j) * (self.nx - 1);
                let base = (k * self.ny + j) * self.nx;
                for i in 0..self.nx - 1 {
                    let w = self.wx[row + i];
                    if w != 0.0 {
                        let a = base + i;
                        let b = a + 1;
                        let f = w * (psi[a] - psi[b]);
                        out[a] += f;
                        out[b] -= f;
                    }
                }
            }
        }
        // y faces
        for k in 0..self.nz {
            for j in 0..self.ny - 1 {
                let row = (k * (self.ny - 1) + j) * self.nx;
                let base_a = (k * self.ny + j) * self.nx;
                let base_b = (k * self.ny + j + 1) * self.nx;
                for i in 0..self.nx {
                    let w = self.wy[row + i];
                    if w != 0.0 {
                        let f = w * (psi[base_a + i] - psi[base_b + i]);
                        out[base_a + i] += f;
                        out[base_b + i] -= f;
                    }
                }
            }
        }
        // z faces
        for k in 0..self.nz - 1 {
            for j in 0..self.ny {
                let row = (k * self.ny + j) * self.nx;
                let base_a = (k * self.ny + j) * self.nx;
                let base_b = ((k + 1) * self.ny + j) * self.nx;
                for i in 0..self.nx {
                    let w = self.wz[row + i];
                    if w != 0.0 {
                        let f = w * (psi[base_a + i] - psi[base_b + i]);
                        out[base_a + i] += f;
                        out[base_b + i] -= f;
                    }
                }
            }
        }
    }

    /// Net stencil flux out of every node for the potential `psi`
    /// (`A·ψ` without Dirichlet masking). For a converged solution the flux
    /// is zero at free nodes and equals the injected charge/current at
    /// Dirichlet nodes.
    pub fn node_flux(&self, psi: &[f64]) -> Vec<f64> {
        let mut out = vec![0.0; self.node_count()];
        self.apply_full(psi, &mut out);
        out
    }

    /// Solves the constrained system.
    ///
    /// # Errors
    ///
    /// Returns [`Error::NoConvergence`] when CG exhausts
    /// `max_iterations`.
    pub fn solve(&self, options: &SolverOptions) -> Result<Vec<f64>> {
        self.solve_with(options, &mut SolveWorkspace::new())
    }

    /// [`Self::solve`] with caller-owned scratch buffers.
    ///
    /// CG needs five work vectors per solve; extraction loops (one solve
    /// per excited conductor) can hand the same [`SolveWorkspace`] to
    /// every call and pay the allocations once. Results are bit-identical
    /// to [`Self::solve`].
    ///
    /// # Errors
    ///
    /// Returns [`Error::NoConvergence`] when CG exhausts
    /// `max_iterations`.
    pub fn solve_with(&self, options: &SolverOptions, ws: &mut SolveWorkspace) -> Result<Vec<f64>> {
        let _solve_span = cnt_obs::span!("fields.solve");
        let (psi, iterations) = self.solve_cg(options, ws)?;
        // The iteration counter observes only; the solve itself is
        // untouched (determinism of the iterate sequence is golden-pinned).
        cg_iterations().add(iterations as u64);
        Ok(psi)
    }

    fn fill_free_mask(&self, free: &mut Vec<bool>) {
        free.clear();
        free.extend(self.dirichlet.iter().map(Option::is_none));
    }

    fn initial_guess(&self) -> Vec<f64> {
        self.dirichlet.iter().map(|d| d.unwrap_or(0.0)).collect()
    }

    /// The CG iteration itself: the converged potentials and the number
    /// of iterations it took.
    fn solve_cg(
        &self,
        options: &SolverOptions,
        ws: &mut SolveWorkspace,
    ) -> Result<(Vec<f64>, usize)> {
        let n = self.node_count();
        let SolveWorkspace {
            ax,
            r,
            z,
            p,
            precond,
            free,
            ..
        } = ws;
        self.fill_free_mask(free);
        let mut psi = self.initial_guess();

        // Residual r = -A·ψ restricted to free nodes (b folded in through
        // the Dirichlet entries of ψ).
        ax.resize(n, 0.0);
        self.apply_full(&psi, ax);
        r.clear();
        r.extend((0..n).map(|i| if free[i] { -ax[i] } else { 0.0 }));

        let norm_b: f64 = r.iter().map(|v| v * v).sum::<f64>().sqrt();
        if norm_b == 0.0 {
            return Ok((psi, 0));
        }

        precond.clear();
        precond.extend((0..n).map(|i| {
            if free[i] && self.diag[i] > 0.0 {
                1.0 / self.diag[i]
            } else {
                0.0
            }
        }));

        z.clear();
        z.extend(r.iter().zip(precond.iter()).map(|(a, m)| a * m));
        p.clear();
        p.extend_from_slice(z);
        let mut rz: f64 = r.iter().zip(z.iter()).map(|(a, b)| a * b).sum();

        for it in 0..options.max_iterations {
            self.apply_full(p, ax);
            // Mask Dirichlet rows: p is zero there already, and columns are
            // handled because contributions into Dirichlet rows are ignored.
            let mut pap = 0.0;
            for i in 0..n {
                if free[i] {
                    pap += p[i] * ax[i];
                }
            }
            if pap <= 0.0 {
                // Numerically flat direction — accept current iterate.
                return Ok((psi, it));
            }
            let alpha = rz / pap;
            // One fused pass: update ψ and r, accumulate ‖r‖², refresh the
            // preconditioned residual z, and accumulate r·z. The historical
            // implementation made three separate grid passes here; the
            // fused loop visits every index in the same ascending order and
            // reads r only after its own update, so every partial sum — and
            // therefore the iterate — is bit-identical to the unfused form.
            let mut norm_r2 = 0.0;
            let mut rz_new = 0.0;
            for i in 0..n {
                if free[i] {
                    psi[i] += alpha * p[i];
                    r[i] -= alpha * ax[i];
                }
                let ri = r[i];
                norm_r2 += ri * ri;
                let zi = ri * precond[i];
                z[i] = zi;
                rz_new += ri * zi;
            }
            let norm_r = norm_r2.sqrt();
            if norm_r <= options.tolerance * norm_b {
                return Ok((psi, it + 1));
            }
            let beta = rz_new / rz;
            rz = rz_new;
            for i in 0..n {
                if free[i] {
                    p[i] = z[i] + beta * p[i];
                } else {
                    p[i] = 0.0;
                }
            }
            if it + 1 == options.max_iterations {
                return Err(Error::NoConvergence {
                    iterations: options.max_iterations,
                    residual: norm_r / norm_b,
                });
            }
        }
        unreachable!("loop either returns or errors at the final iteration")
    }
}

/// Assembles the finite-volume face weights for a uniform grid with the
/// given node counts, spacings, and per-cell coefficients — the same
/// discretization as [`StencilSystem::assemble`], writing into reusable
/// buffers. The face weight between two adjacent nodes is
/// `(A_face / d) · mean(coefficients of the 4 adjacent cells)`, with
/// cells missing at the domain boundary contributing zero.
pub(crate) fn assemble_faces(
    nodes: [usize; 3],
    spacing: [f64; 3],
    cell_coeff: &[f64],
    wx: &mut Vec<f64>,
    wy: &mut Vec<f64>,
    wz: &mut Vec<f64>,
) {
    let [nx, ny, nz] = nodes;
    let [hx, hy, hz] = spacing;
    let cells = [nx - 1, ny - 1, nz - 1];
    let coeff = |i: isize, j: isize, k: isize| -> f64 {
        if i < 0
            || j < 0
            || k < 0
            || i >= cells[0] as isize
            || j >= cells[1] as isize
            || k >= cells[2] as isize
        {
            0.0
        } else {
            cell_coeff[(k as usize * cells[1] + j as usize) * cells[0] + i as usize]
        }
    };

    wx.clear();
    wx.resize((nx - 1) * ny * nz, 0.0);
    for k in 0..nz {
        for j in 0..ny {
            for i in 0..nx - 1 {
                let (ii, jj, kk) = (i as isize, j as isize, k as isize);
                let sum = coeff(ii, jj - 1, kk - 1)
                    + coeff(ii, jj, kk - 1)
                    + coeff(ii, jj - 1, kk)
                    + coeff(ii, jj, kk);
                wx[(k * ny + j) * (nx - 1) + i] = sum * hy * hz / (4.0 * hx);
            }
        }
    }
    wy.clear();
    wy.resize(nx * (ny - 1) * nz, 0.0);
    for k in 0..nz {
        for j in 0..ny - 1 {
            for i in 0..nx {
                let (ii, jj, kk) = (i as isize, j as isize, k as isize);
                let sum = coeff(ii - 1, jj, kk - 1)
                    + coeff(ii, jj, kk - 1)
                    + coeff(ii - 1, jj, kk)
                    + coeff(ii, jj, kk);
                wy[(k * (ny - 1) + j) * nx + i] = sum * hx * hz / (4.0 * hy);
            }
        }
    }
    wz.clear();
    wz.resize(nx * ny * (nz - 1), 0.0);
    for k in 0..nz - 1 {
        for j in 0..ny {
            for i in 0..nx {
                let (ii, jj, kk) = (i as isize, j as isize, k as isize);
                let sum = coeff(ii - 1, jj - 1, kk)
                    + coeff(ii, jj - 1, kk)
                    + coeff(ii - 1, jj, kk)
                    + coeff(ii, jj, kk);
                wz[(k * ny + j) * nx + i] = sum * hx * hy / (4.0 * hz);
            }
        }
    }
}

/// Row sums of the face weights — the stencil diagonal.
pub(crate) fn stencil_diagonal(
    nodes: [usize; 3],
    wx: &[f64],
    wy: &[f64],
    wz: &[f64],
    diag: &mut Vec<f64>,
) {
    let [nx, ny, nz] = nodes;
    diag.clear();
    diag.resize(nx * ny * nz, 0.0);
    for k in 0..nz {
        for j in 0..ny {
            for i in 0..nx {
                let idx = (k * ny + j) * nx + i;
                let mut d = 0.0;
                if i > 0 {
                    d += wx[(k * ny + j) * (nx - 1) + i - 1];
                }
                if i + 1 < nx {
                    d += wx[(k * ny + j) * (nx - 1) + i];
                }
                if j > 0 {
                    d += wy[(k * (ny - 1) + j - 1) * nx + i];
                }
                if j + 1 < ny {
                    d += wy[(k * (ny - 1) + j) * nx + i];
                }
                if k > 0 {
                    d += wz[((k - 1) * ny + j) * nx + i];
                }
                if k + 1 < nz {
                    d += wz[(k * ny + j) * nx + i];
                }
                diag[idx] = d;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grid::Grid3;
    use proptest::prelude::*;

    /// 1-D problem embedded in 3-D: uniform coefficient, ψ fixed at the two
    /// z extremes ⇒ linear profile.
    fn linear_profile_system() -> (Grid3, StencilSystem) {
        let grid = Grid3::new([1.0, 1.0, 1.0], [4, 4, 9]).unwrap();
        let coeff = vec![1.0; grid.cell_count()];
        let mut dirichlet = vec![None; grid.node_count()];
        let [nx, ny, nz] = grid.nodes();
        for j in 0..ny {
            for i in 0..nx {
                dirichlet[grid.node_index(i, j, 0)] = Some(0.0);
                dirichlet[grid.node_index(i, j, nz - 1)] = Some(1.0);
            }
        }
        let sys = StencilSystem::assemble(&grid, &coeff, dirichlet);
        (grid, sys)
    }

    #[test]
    fn cg_recovers_linear_profile() {
        let (grid, sys) = linear_profile_system();
        let psi = sys.solve(&SolverOptions::default()).unwrap();
        let [_, _, nz] = grid.nodes();
        for k in 0..nz {
            let expect = k as f64 / (nz - 1) as f64;
            let got = psi[grid.node_index(1, 2, k)];
            assert!((got - expect).abs() < 1e-8, "k={k}: {got} vs {expect}");
        }
    }

    #[test]
    fn flux_balance_at_convergence() {
        let (grid, sys) = linear_profile_system();
        let psi = sys.solve(&SolverOptions::default()).unwrap();
        let flux = sys.node_flux(&psi);
        let [nx, ny, nz] = grid.nodes();
        // Free nodes: zero net flux.
        for k in 1..nz - 1 {
            for j in 0..ny {
                for i in 0..nx {
                    assert!(flux[grid.node_index(i, j, k)].abs() < 1e-8);
                }
            }
        }
        // Total flux into bottom == out of top.
        let bottom: f64 = (0..ny)
            .flat_map(|j| (0..nx).map(move |i| (i, j)))
            .map(|(i, j)| flux[grid.node_index(i, j, 0)])
            .sum();
        let top: f64 = (0..ny)
            .flat_map(|j| (0..nx).map(move |i| (i, j)))
            .map(|(i, j)| flux[grid.node_index(i, j, nz - 1)])
            .sum();
        assert!((bottom + top).abs() < 1e-8, "bottom {bottom} top {top}");
        // Conductance of unit cube column: c·A/L = 1·1/1 = 1 ⇒ flux = ±1.
        assert!((top - 1.0).abs() < 1e-6, "top {top}");
    }

    #[test]
    fn disconnected_nodes_are_pinned() {
        let grid = Grid3::new([1.0, 1.0, 1.0], [3, 3, 3]).unwrap();
        let coeff = vec![0.0; grid.cell_count()]; // fully insulating
        let dirichlet = vec![None; grid.node_count()];
        let sys = StencilSystem::assemble(&grid, &coeff, dirichlet);
        let psi = sys.solve(&SolverOptions::default()).unwrap();
        assert!(psi.iter().all(|&v| v == 0.0));
    }

    #[test]
    fn floating_free_island_keeps_the_solve_finite() {
        // A conductive pocket surrounded by insulator: its nodes are free
        // (nonzero diagonal) but form a semi-definite block with no
        // Dirichlet anchor. The solve must not panic or diverge.
        let grid = Grid3::new([1.0, 1.0, 1.0], [9, 9, 17]).unwrap();
        let cells = grid.cells();
        let mut coeff = vec![0.0; grid.cell_count()];
        for k in 0..cells[2] {
            for j in 0..cells[1] {
                for i in 0..cells[0] {
                    // Conductive slabs at the z extremes plus the pocket.
                    let slab = k < 2 || k >= cells[2] - 2;
                    let pocket = (3..5).contains(&i) && (3..5).contains(&j) && (7..9).contains(&k);
                    if slab || pocket {
                        coeff[grid.cell_index(i, j, k)] = 1.0;
                    }
                }
            }
        }
        let mut dirichlet = vec![None; grid.node_count()];
        let [nx, ny, nz] = grid.nodes();
        for j in 0..ny {
            for i in 0..nx {
                dirichlet[grid.node_index(i, j, 0)] = Some(0.0);
                dirichlet[grid.node_index(i, j, nz - 1)] = Some(1.0);
            }
        }
        let sys = StencilSystem::assemble(&grid, &coeff, dirichlet);
        let psi = sys.solve(&SolverOptions::default()).unwrap();
        assert!(psi.iter().all(|v| v.is_finite()));
    }

    #[test]
    fn no_convergence_is_reported() {
        let (_, sys) = linear_profile_system();
        let err = sys.solve(&SolverOptions {
            max_iterations: 2,
            tolerance: 1e-14,
        });
        assert!(matches!(err, Err(Error::NoConvergence { .. })));
    }

    /// The pre-fusion CG implementation, kept verbatim as the reference
    /// the fused loop is validated against.
    fn solve_cg_reference(sys: &StencilSystem, options: &SolverOptions) -> Result<Vec<f64>> {
        let n = sys.node_count();
        let free: Vec<bool> = sys.dirichlet.iter().map(Option::is_none).collect();
        let mut psi = sys.initial_guess();
        let mut ax = vec![0.0; n];
        sys.apply_full(&psi, &mut ax);
        let mut r: Vec<f64> = (0..n).map(|i| if free[i] { -ax[i] } else { 0.0 }).collect();
        let norm_b: f64 = r.iter().map(|v| v * v).sum::<f64>().sqrt();
        if norm_b == 0.0 {
            return Ok(psi);
        }
        let precond: Vec<f64> = (0..n)
            .map(|i| {
                if free[i] && sys.diag[i] > 0.0 {
                    1.0 / sys.diag[i]
                } else {
                    0.0
                }
            })
            .collect();
        let mut z: Vec<f64> = r.iter().zip(&precond).map(|(a, m)| a * m).collect();
        let mut p = z.clone();
        let mut rz: f64 = r.iter().zip(&z).map(|(a, b)| a * b).sum();
        for it in 0..options.max_iterations {
            sys.apply_full(&p, &mut ax);
            let pap: f64 = (0..n).filter(|&i| free[i]).map(|i| p[i] * ax[i]).sum();
            if pap <= 0.0 {
                return Ok(psi);
            }
            let alpha = rz / pap;
            for i in 0..n {
                if free[i] {
                    psi[i] += alpha * p[i];
                    r[i] -= alpha * ax[i];
                }
            }
            let norm_r: f64 = r.iter().map(|v| v * v).sum::<f64>().sqrt();
            if norm_r <= options.tolerance * norm_b {
                return Ok(psi);
            }
            for i in 0..n {
                z[i] = r[i] * precond[i];
            }
            let rz_new: f64 = r.iter().zip(&z).map(|(a, b)| a * b).sum();
            let beta = rz_new / rz;
            rz = rz_new;
            for i in 0..n {
                if free[i] {
                    p[i] = z[i] + beta * p[i];
                } else {
                    p[i] = 0.0;
                }
            }
            if it + 1 == options.max_iterations {
                return Err(Error::NoConvergence {
                    iterations: options.max_iterations,
                    residual: norm_r / norm_b,
                });
            }
        }
        unreachable!()
    }

    /// Tiny deterministic generator for the random-grid tests (the fields
    /// crate has no RNG dependency).
    struct XorShift(u64);

    impl XorShift {
        fn next_f64(&mut self) -> f64 {
            let mut x = self.0;
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            self.0 = x;
            (x >> 11) as f64 / (1u64 << 53) as f64
        }
    }

    fn random_system(seed: u64, nx: usize, ny: usize, nz: usize) -> StencilSystem {
        let mut rng = XorShift(seed | 1);
        let grid = Grid3::new([1.0, 1.0, 1.0], [nx, ny, nz]).unwrap();
        let coeff: Vec<f64> = (0..grid.cell_count())
            .map(|_| {
                // Mostly heterogeneous positive cells, some insulating.
                let v = rng.next_f64();
                if v < 0.15 {
                    0.0
                } else {
                    0.1 + 5.0 * v
                }
            })
            .collect();
        let mut dirichlet = vec![None; grid.node_count()];
        let [gx, gy, gz] = grid.nodes();
        for j in 0..gy {
            for i in 0..gx {
                dirichlet[grid.node_index(i, j, 0)] = Some(0.0);
                dirichlet[grid.node_index(i, j, gz - 1)] = Some(1.0);
            }
        }
        // A few random interior pins at random potentials.
        for _ in 0..3 {
            let idx = (rng.next_f64() * grid.node_count() as f64) as usize % grid.node_count();
            dirichlet[idx] = Some(rng.next_f64());
        }
        StencilSystem::assemble(&grid, &coeff, dirichlet)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        #[test]
        fn fused_cg_matches_unfused_reference_on_random_grids(
            seed in any::<u64>(),
            nx in 3_usize..6,
            ny in 3_usize..6,
            nz in 3_usize..7,
        ) {
            let sys = random_system(seed, nx, ny, nz);
            let options = SolverOptions::default();
            let fused = sys.solve(&options).unwrap();
            let reference = solve_cg_reference(&sys, &options).unwrap();
            prop_assert_eq!(fused.len(), reference.len());
            for (i, (a, b)) in fused.iter().zip(&reference).enumerate() {
                prop_assert!(
                    (a - b).abs() <= 1e-12,
                    "node {}: fused {} vs reference {}", i, a, b
                );
            }
        }
    }

    #[test]
    fn workspace_reuse_is_bit_identical_across_solves() {
        let (_, sys) = linear_profile_system();
        let fresh = sys.solve(&SolverOptions::default()).unwrap();
        let mut ws = SolveWorkspace::new();
        // Reuse one workspace across systems of different sizes and back.
        let other = random_system(99, 5, 4, 6);
        for _ in 0..2 {
            let with_ws = sys.solve_with(&SolverOptions::default(), &mut ws).unwrap();
            assert_eq!(fresh.len(), with_ws.len());
            for (a, b) in fresh.iter().zip(&with_ws) {
                assert_eq!(a.to_bits(), b.to_bits());
            }
            let _ = other
                .solve_with(&SolverOptions::default(), &mut ws)
                .unwrap();
        }
    }

    #[test]
    fn heterogeneous_coefficient_series_law() {
        // Two slabs in series along z with coefficients 1 and 3: the
        // interface potential follows the series-conductance divider.
        let grid = Grid3::new([1.0, 1.0, 1.0], [3, 3, 5]).unwrap();
        let mut coeff = vec![0.0; grid.cell_count()];
        let cells = grid.cells();
        for k in 0..cells[2] {
            for j in 0..cells[1] {
                for i in 0..cells[0] {
                    coeff[grid.cell_index(i, j, k)] = if k < 2 { 1.0 } else { 3.0 };
                }
            }
        }
        let mut dirichlet = vec![None; grid.node_count()];
        let [nx, ny, nz] = grid.nodes();
        for j in 0..ny {
            for i in 0..nx {
                dirichlet[grid.node_index(i, j, 0)] = Some(0.0);
                dirichlet[grid.node_index(i, j, nz - 1)] = Some(1.0);
            }
        }
        let sys = StencilSystem::assemble(&grid, &coeff, dirichlet);
        let psi = sys.solve(&SolverOptions::default()).unwrap();
        // Series: R1 = 0.5/1, R2 = 0.5/3 ⇒ V(interface) = R1/(R1+R2) = 0.75.
        let mid = psi[grid.node_index(1, 1, 2)];
        assert!((mid - 0.75).abs() < 1e-6, "interface potential {mid}");
    }
}
