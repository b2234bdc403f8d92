//! Jacobi-preconditioned conjugate-gradient solver for the
//! variable-coefficient Laplace stencil.
//!
//! The finite-volume discretization of `∇·(c ∇ψ) = 0` on a structured grid
//! produces a symmetric positive-semidefinite 7-point system. Every solve
//! runs Jacobi-preconditioned CG with a fused inner loop: the committed
//! experiments solve grids of a few thousand nodes, where its
//! per-iteration cost (one stencil apply plus one fused vector pass) is
//! the lowest of any scheme.
//!
//! # The stencil kernel
//!
//! Each node stores one face weight toward each of its i+1, j+1 and k+1
//! neighbours, zero where that face leaves the grid, behind one leading
//! zero plane of `nx·ny` entries. The weights toward i−1, j−1 and k−1 are
//! then the same arrays read one node, one row or one plane back, and
//! the diagonal is their sum in the order x−, x+, y−, y+, z−, z+.
//!
//! `A·ψ` is a gather: each node's sum starts at +0.0 and adds, along x,
//! then y, then z, `−w·(ψ_lower − ψ)` and then `+w·(ψ − ψ_upper)`. These
//! are the terms, expressions and order in which a three-pass face
//! scatter adds them, so every node gets the scatter's bits. The scatter
//! skipped zero-weight faces; the gather adds them and still agrees,
//! because under round-to-nearest a sum is −0 only when both addends
//! are −0 (IEEE 754-2008 §6.3): the accumulator is never −0, so a zero
//! term (±0 for finite ψ) leaves it unchanged. Without a branch per face
//! the loop vectorizes across nodes (Datta et al., *Stencil computation
//! optimization and auto-tuning on state-of-the-art multicore
//! architectures*, SC 2008) while no node's sum is reordered.

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
    /// Forward face weights along x, y and z: entry `nx·ny + n` joins
    /// node `n` to its +1 neighbour along the axis, zero where that face
    /// leaves the grid; the leading `nx·ny` entries are zero.
    forward: [Vec<f64>; 3],
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

        let forward = forward_weights(grid, cell_coeff);
        // Row sums in the order x−, x+, y−, y+, z−, z+; a face that
        // leaves the grid reads a zero weight.
        let nxy = nx * ny;
        let [wx, wy, wz] = &forward;
        let diag = (nxy..nxy + grid.node_count())
            .map(|at| {
                [
                    wx[at - 1],
                    wx[at],
                    wy[at - nx],
                    wy[at],
                    wz[at - nxy],
                    wz[at],
                ]
                .into_iter()
                .fold(0.0, |d, w| d + w)
            })
            .collect();

        let mut sys = Self {
            nx,
            ny,
            nz,
            forward,
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

    /// Applies the full stencil operator `out = A·ψ` over all nodes (no
    /// Dirichlet masking): every CG iteration and every flux integration.
    ///
    /// Seven node ranges, each one [`Self::gather`]: over each range,
    /// every node's neighbour one step back (or ahead) along an axis lies
    /// in ψ, or no node's does. The ranges are the first node, the rest
    /// of the first row, the rest of the first plane, the interior
    /// planes, and the mirror of the first three at the far end.
    fn apply_full(&self, psi: &[f64], out: &mut [f64]) {
        let n = self.node_count();
        let (nx, nxy) = (self.nx, self.nx * self.ny);
        let ranges = [
            (0, 1),
            (1, nx),
            (nx, nxy),
            (nxy, n - nxy),
            (n - nxy, n - nx),
            (n - nx, n - 1),
            (n - 1, n),
        ];
        for (lo, hi) in ranges {
            self.gather(psi, lo, &mut out[lo..hi]);
        }
    }

    /// `A·ψ` for nodes `lo..lo + out.len()`: each node's six face terms
    /// in the scatter's order (see the module docs), one branch-free
    /// pass over equal-length streams.
    ///
    /// A neighbour stream that would leave ψ is replaced by ψ itself.
    /// Its weights are zero (the padding, or faces that leave the grid),
    /// so each of its terms is `0·(ψ − ψ)` = +0, which changes no sum.
    fn gather(&self, psi: &[f64], lo: usize, out: &mut [f64]) {
        let len = out.len();
        let (nx, nxy) = (self.nx, self.nx * self.ny);
        let centre = &psi[lo..][..len];
        let back = |step: usize| lo.checked_sub(step).map_or(centre, |s| &psi[s..][..len]);
        let ahead = |step: usize| psi.get(lo + step..lo + step + len).unwrap_or(centre);
        let (xm, xp) = (back(1), ahead(1));
        let (ym, yp) = (back(nx), ahead(nx));
        let (zm, zp) = (back(nxy), ahead(nxy));
        let at = nxy + lo;
        let [wx, wy, wz] = &self.forward;
        let (wxm, wxp) = (&wx[at - 1..][..len], &wx[at..][..len]);
        let (wym, wyp) = (&wy[at - nx..][..len], &wy[at..][..len]);
        let (wzm, wzp) = (&wz[at - nxy..][..len], &wz[at..][..len]);
        for t in 0..len {
            let c = centre[t];
            let mut acc = 0.0;
            acc -= wxm[t] * (xm[t] - c);
            acc += wxp[t] * (c - xp[t]);
            acc -= wym[t] * (ym[t] - c);
            acc += wyp[t] * (c - yp[t]);
            acc -= wzm[t] * (zm[t] - c);
            acc += wzp[t] * (c - zp[t]);
            out[t] = acc;
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

/// The forward face weights of [`StencilSystem`]'s layout for a uniform
/// grid and per-cell coefficients. The weight of the face between two
/// adjacent nodes is `(A_face / d) · mean(coefficients of the 4 adjacent
/// cells)`, with cells missing at the domain boundary contributing zero.
fn forward_weights(grid: &Grid3, cell_coeff: &[f64]) -> [Vec<f64>; 3] {
    let [nx, ny, nz] = grid.nodes();
    let [hx, hy, hz] = grid.spacing();
    let cells = grid.cells();
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

    let nxy = nx * ny;
    let [mut wx, mut wy, mut wz] = [(); 3].map(|()| vec![0.0; nxy + grid.node_count()]);
    for k in 0..nz {
        for j in 0..ny {
            for i in 0..nx {
                let at = nxy + grid.node_index(i, j, k);
                let (ii, jj, kk) = (i as isize, j as isize, k as isize);
                if i + 1 < nx {
                    let sum = coeff(ii, jj - 1, kk - 1)
                        + coeff(ii, jj, kk - 1)
                        + coeff(ii, jj - 1, kk)
                        + coeff(ii, jj, kk);
                    wx[at] = sum * hy * hz / (4.0 * hx);
                }
                if j + 1 < ny {
                    let sum = coeff(ii - 1, jj, kk - 1)
                        + coeff(ii, jj, kk - 1)
                        + coeff(ii - 1, jj, kk)
                        + coeff(ii, jj, kk);
                    wy[at] = sum * hx * hz / (4.0 * hy);
                }
                if k + 1 < nz {
                    let sum = coeff(ii - 1, jj - 1, kk)
                        + coeff(ii, jj - 1, kk)
                        + coeff(ii - 1, jj, kk)
                        + coeff(ii, jj, kk);
                    wz[at] = sum * hx * hy / (4.0 * hz);
                }
            }
        }
    }
    [wx, wy, wz]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grid::Grid3;
    use crate::presets::{inverter_cell_14nm, via_stack, InverterCellGeometry};
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

    /// A conductive pocket surrounded by insulator between two driven
    /// slabs: its nodes are free (nonzero diagonal) but form a
    /// semi-definite block with no Dirichlet anchor.
    fn floating_island_system() -> StencilSystem {
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
        StencilSystem::assemble(&grid, &coeff, dirichlet)
    }

    #[test]
    fn floating_free_island_keeps_the_solve_finite() {
        // The solve must not panic or diverge.
        let psi = floating_island_system()
            .solve(&SolverOptions::default())
            .unwrap();
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

    /// The historical three-pass face scatter, kept as the oracle of the
    /// gather kernel: it visits each face once, skips zero-weight faces,
    /// and adds the face's flux into both of its nodes.
    fn apply_scatter(sys: &StencilSystem, psi: &[f64], out: &mut [f64]) {
        let (nx, ny, nz) = (sys.nx, sys.ny, sys.nz);
        let nxy = nx * ny;
        let [wx, wy, wz] = &sys.forward;
        out.iter_mut().for_each(|v| *v = 0.0);
        let mut face = |w: f64, a: usize, b: usize| {
            if w != 0.0 {
                let f = w * (psi[a] - psi[b]);
                out[a] += f;
                out[b] -= f;
            }
        };
        // x faces
        for k in 0..nz {
            for j in 0..ny {
                for i in 0..nx - 1 {
                    let a = (k * ny + j) * nx + i;
                    face(wx[nxy + a], a, a + 1);
                }
            }
        }
        // y faces
        for k in 0..nz {
            for j in 0..ny - 1 {
                for i in 0..nx {
                    let a = (k * ny + j) * nx + i;
                    face(wy[nxy + a], a, a + nx);
                }
            }
        }
        // z faces
        for k in 0..nz - 1 {
            for j in 0..ny {
                for i in 0..nx {
                    let a = (k * ny + j) * nx + i;
                    face(wz[nxy + a], a, a + nxy);
                }
            }
        }
    }

    /// The pre-fusion CG implementation, kept verbatim as the reference
    /// the fused loop is validated against, with its stencil apply
    /// passed in: the production gather or the scatter oracle. Returns
    /// ψ and the iteration count, as `solve_cg` does.
    fn solve_cg_reference(
        sys: &StencilSystem,
        options: &SolverOptions,
        apply: fn(&StencilSystem, &[f64], &mut [f64]),
    ) -> Result<(Vec<f64>, usize)> {
        let n = sys.node_count();
        let free: Vec<bool> = sys.dirichlet.iter().map(Option::is_none).collect();
        let mut psi = sys.initial_guess();
        let mut ax = vec![0.0; n];
        apply(sys, &psi, &mut ax);
        let mut r: Vec<f64> = (0..n).map(|i| if free[i] { -ax[i] } else { 0.0 }).collect();
        let norm_b: f64 = r.iter().map(|v| v * v).sum::<f64>().sqrt();
        if norm_b == 0.0 {
            return Ok((psi, 0));
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
            apply(sys, &p, &mut ax);
            let pap: f64 = (0..n).filter(|&i| free[i]).map(|i| p[i] * ax[i]).sum();
            if pap <= 0.0 {
                return Ok((psi, it));
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
                return Ok((psi, it + 1));
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

    fn assert_same_bits(got: &[f64], want: &[f64], what: &str) {
        assert_eq!(got.len(), want.len(), "{what}");
        for (i, (a, b)) in got.iter().zip(want).enumerate() {
            assert_eq!(a.to_bits(), b.to_bits(), "{what}, node {i}: {a:e} vs {b:e}");
        }
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

        fn below(&mut self, n: usize) -> usize {
            (self.next_f64() * n as f64) as usize % n
        }
    }

    /// A random heterogeneous system: about a third of the cells
    /// insulating, so some faces have zero weight; the end planes of the
    /// longest axis pinned at 0 and 1; three interior pins at random
    /// potentials; and, where every axis has at least three cells, an
    /// insulated island (one conductive cell wrapped in insulator).
    fn random_system(seed: u64, nodes: [usize; 3]) -> StencilSystem {
        let mut rng = XorShift(seed | 1);
        let grid = Grid3::new([1.0, 1.0, 1.0], nodes).unwrap();
        let mut coeff: Vec<f64> = (0..grid.cell_count())
            .map(|_| {
                let v = rng.next_f64();
                if v < 0.3 {
                    0.0
                } else {
                    0.1 + 5.0 * v
                }
            })
            .collect();
        let cells = grid.cells();
        if cells.iter().all(|&c| c >= 3) {
            let corner = cells.map(|c| rng.below(c - 2));
            for k in 0..3 {
                for j in 0..3 {
                    for i in 0..3 {
                        let cell = grid.cell_index(corner[0] + i, corner[1] + j, corner[2] + k);
                        coeff[cell] = if (i, j, k) == (1, 1, 1) { 2.0 } else { 0.0 };
                    }
                }
            }
        }
        let axis = (0..3).max_by_key(|&a| nodes[a]).unwrap();
        let mut dirichlet: Vec<Option<f64>> = (0..grid.node_count())
            .map(|idx| {
                let (i, j, k) = grid.node_indices(idx);
                match [i, j, k][axis] {
                    0 => Some(0.0),
                    at if at == nodes[axis] - 1 => Some(1.0),
                    _ => None,
                }
            })
            .collect();
        for _ in 0..3 {
            let idx = rng.below(grid.node_count());
            dirichlet[idx] = Some(rng.next_f64());
        }
        StencilSystem::assemble(&grid, &coeff, dirichlet)
    }

    /// Random potentials in [−2, 2), a fifth of them +0 or −0.
    fn random_potentials(seed: u64, n: usize) -> Vec<f64> {
        let mut rng = XorShift(seed.rotate_left(17) | 1);
        (0..n)
            .map(|_| match rng.next_f64() {
                v if v < 0.1 => 0.0,
                v if v < 0.2 => -0.0,
                v => 4.0 * v - 2.0,
            })
            .collect()
    }

    #[test]
    fn gather_matches_the_scatter_bit_for_bit() {
        // Every shape from 2 to 7 nodes per axis at the corners, so each
        // axis is sometimes the 2-node one, with several seeds.
        for nodes in [2, 3, 7]
            .into_iter()
            .flat_map(|a| [2, 4, 6].map(|b| (a, b)))
            .flat_map(|(a, b)| [2, 5, 7].map(|c| [a, b, c]))
        {
            for seed in 1..4 {
                let sys = random_system(seed * 7919, nodes);
                let n = sys.node_count();
                let psi = random_potentials(seed, n);
                let mut gathered = vec![f64::NAN; n];
                sys.apply_full(&psi, &mut gathered);
                let mut scattered = vec![f64::NAN; n];
                apply_scatter(&sys, &psi, &mut scattered);
                assert_same_bits(&gathered, &scattered, &format!("{nodes:?} seed {seed}"));
            }
            // The diagonal is the scatter's response at a node to a unit
            // potential there, bit for bit.
            let sys = random_system(13, nodes);
            let n = sys.node_count();
            let mut unit = vec![0.0; n];
            let mut column = vec![0.0; n];
            let response: Vec<f64> = (0..n)
                .map(|i| {
                    unit[i] = 1.0;
                    apply_scatter(&sys, &unit, &mut column);
                    unit[i] = 0.0;
                    column[i]
                })
                .collect();
            assert_same_bits(&sys.diag, &response, &format!("{nodes:?} diagonal"));
        }
    }

    /// fig10's seven systems: the inverter cell's six capacitance
    /// excitations (one conductor at 1 V, the others grounded) and its
    /// via stack between two terminals, here at a copper-like σ.
    fn fig10_systems() -> Vec<(String, StencilSystem)> {
        let geometry = InverterCellGeometry::default();
        let cell = inverter_cell_14nm(geometry).build([15, 11, 13]).unwrap();
        let mut systems: Vec<(String, StencilSystem)> = (0..cell.conductor_count())
            .map(|drive| {
                let dirichlet = cell
                    .node_conductor()
                    .iter()
                    .map(|c| c.map(|id| if id as usize == drive { 1.0 } else { 0.0 }))
                    .collect();
                let sys = StencilSystem::assemble(
                    cell.grid(),
                    cell.permittivity_coefficients(),
                    dirichlet,
                );
                (format!("capacitance row {drive}"), sys)
            })
            .collect();
        let stack = via_stack(geometry, 5.0e7).build([41, 7, 13]).unwrap();
        let src = stack.conductor_id("t_m1").unwrap();
        let snk = stack.conductor_id("t_m2").unwrap();
        let dirichlet = stack
            .node_conductor()
            .iter()
            .map(|c| match *c {
                Some(id) if id == src => Some(1.0),
                Some(id) if id == snk => Some(0.0),
                _ => None,
            })
            .collect();
        let sys =
            StencilSystem::assemble(stack.grid(), stack.conductivity_coefficients(), dirichlet);
        systems.push(("via stack".to_string(), sys));
        systems
    }

    #[test]
    fn solves_match_a_scatter_driven_reference_bit_for_bit() {
        let options = SolverOptions::default();
        let mut ws = SolveWorkspace::new();
        let systems = fig10_systems()
            .into_iter()
            .chain([("floating island".to_string(), floating_island_system())]);
        for (name, sys) in systems {
            let (psi, iterations) = sys.solve_cg(&options, &mut ws).unwrap();
            let (reference, ref_iterations) =
                solve_cg_reference(&sys, &options, apply_scatter).unwrap();
            assert!(iterations > 0, "{name} converged without iterating");
            assert_eq!(iterations, ref_iterations, "{name}");
            assert_same_bits(&psi, &reference, &name);
            let mut flux = vec![0.0; psi.len()];
            apply_scatter(&sys, &psi, &mut flux);
            assert_same_bits(&sys.node_flux(&psi), &flux, &format!("{name} flux"));
        }
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
            let sys = random_system(seed, [nx, ny, nz]);
            let options = SolverOptions::default();
            let fused = sys.solve_cg(&options, &mut SolveWorkspace::new()).unwrap();
            let reference = solve_cg_reference(&sys, &options, StencilSystem::apply_full).unwrap();
            prop_assert_eq!(fused.1, reference.1);
            assert_same_bits(&fused.0, &reference.0, "fused vs unfused");
        }
    }

    #[test]
    fn workspace_reuse_is_bit_identical_across_solves() {
        let (_, sys) = linear_profile_system();
        let fresh = sys.solve(&SolverOptions::default()).unwrap();
        let mut ws = SolveWorkspace::new();
        // Reuse one workspace across systems of different sizes and back.
        let other = random_system(99, [5, 4, 6]);
        for _ in 0..2 {
            let with_ws = sys.solve_with(&SolverOptions::default(), &mut ws).unwrap();
            assert_same_bits(&with_ws, &fresh, "reused workspace");
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
