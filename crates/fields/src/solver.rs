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
//! term (±0 for finite ψ) leaves it unchanged. The loop has no branch per
//! face (Datta et al., *Stencil computation optimization and auto-tuning
//! on state-of-the-art multicore architectures*, SC 2008), and no node's
//! sum is reordered.
//!
//! # Lanes and free runs
//!
//! One routine, `StencilSystem::solve_lanes`, runs CG on `K` (1..=8)
//! excitations of one system at once: one lane per excitation, stored as
//! `[f64; K]` per node. [`StencilSystem::solve`] is its `K = 1` instance.
//! Every lane runs the scalar sequence of a single-excitation solve, bit
//! for bit:
//!
//! * *Lanes.* Each lane uses the scalar loop's expressions. The code is
//!   vectorized across the lanes of a node, never across the nodes of a
//!   sum, and Rust never contracts `a·b + c` into a fused multiply-add, so
//!   the bits do not depend on the vector width or the target CPU.
//! * *Free runs.* After set-up, every pass (the gather with its `pᵀAp`,
//!   the fused update, the `p` update) visits only the free nodes, as
//!   ascending runs. A pinned node's r, z and p are +0, so each term it
//!   would add to a sum is +0; each sum starts at +0.0 and so is never −0,
//!   and skipping those terms changes nothing. The two set-up sums (‖b‖
//!   and the first r·z) still run over every node. The runs are cut at the
//!   gather's seven node ranges, so each node reads the same neighbour and
//!   weight streams as a gather over the whole grid.
//! * *Ends.* A lane ends on its own: at convergence, at a flat direction
//!   (`pᵀAp ≤ 0`), or before its first iteration when its right-hand side
//!   is zero. It keeps its own iteration count, and nothing done after its
//!   end changes a bit of its ψ.

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
    /// The Jacobi preconditioner: `1/diag` at free nodes, 0 at pinned ones.
    precond: Vec<f64>,
    /// The free nodes as ascending runs `lo..hi`, each inside one of the
    /// seven gather ranges of [`Self::ranges`].
    free_runs: Vec<(usize, usize)>,
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
            precond: Vec::new(),
            free_runs: Vec::new(),
        };
        // Disconnected nodes have zero diagonal: pin them so the reduced
        // system stays SPD.
        for (idx, &d) in sys.diag.iter().enumerate() {
            if d == 0.0 && sys.dirichlet[idx].is_none() {
                sys.dirichlet[idx] = Some(0.0);
            }
        }
        sys.precond = (sys.dirichlet.iter().zip(&sys.diag))
            .map(|(pin, &d)| {
                if pin.is_none() && d > 0.0 {
                    1.0 / d
                } else {
                    0.0
                }
            })
            .collect();
        for (lo, hi) in sys.ranges() {
            let mut at = lo;
            for run in sys.dirichlet[lo..hi].chunk_by(|a, b| a.is_none() == b.is_none()) {
                if run[0].is_none() {
                    sys.free_runs.push((at, at + run.len()));
                }
                at += run.len();
            }
        }
        sys
    }

    /// Total node count.
    fn node_count(&self) -> usize {
        self.nx * self.ny * self.nz
    }

    /// The seven node ranges of [`Self::gather`]: over each range, every
    /// node's neighbour one step back (or ahead) along an axis lies in
    /// ψ, or no node's does. They are the first node, the rest of the
    /// first row, the rest of the first plane, the interior planes, and
    /// the mirror of the first three at the far end.
    fn ranges(&self) -> [(usize, usize); 7] {
        let n = self.node_count();
        let (nx, nxy) = (self.nx, self.nx * self.ny);
        [
            (0, 1),
            (1, nx),
            (nx, nxy),
            (nxy, n - nxy),
            (n - nxy, n - nx),
            (n - nx, n - 1),
            (n - 1, n),
        ]
    }

    /// `out = A·x` lane by lane over `runs`, each a [`Self::gather`]; no
    /// other entry of `out` is written. Returns each lane's `xᵀ·A·x` over
    /// the runs' nodes, summed in ascending node order (CG's `pᵀAp`).
    fn apply<const K: usize>(
        &self,
        x: &[[f64; K]],
        runs: &[(usize, usize)],
        out: &mut [[f64; K]],
    ) -> [f64; K] {
        let mut dot = [0.0; K];
        for &(lo, hi) in runs {
            self.gather(x, lo, &mut out[lo..hi], &mut dot);
        }
        dot
    }

    /// `A·x` for nodes `lo..lo + out.len()`, which lie inside one of the
    /// [`Self::ranges`]: each node's six face terms in the scatter's
    /// order (see the module docs), one branch-free pass over
    /// equal-length streams, each lane on its own.
    ///
    /// A neighbour stream that would leave x is replaced by x itself.
    /// Its weights are zero (the padding, or faces that leave the grid),
    /// so each of its terms is `0·(x − x)` = +0, which changes no sum.
    ///
    /// Each node's `x·(A·x)` is added to `dot`, lane by lane. Besides
    /// saving a pass, this strict-order sum keeps the compiler from
    /// vectorizing across nodes, which would interleave the lanes of
    /// several nodes; each node's lanes are vectorized instead.
    fn gather<const K: usize>(
        &self,
        x: &[[f64; K]],
        lo: usize,
        out: &mut [[f64; K]],
        dot: &mut [f64; K],
    ) {
        let len = out.len();
        let (nx, nxy) = (self.nx, self.nx * self.ny);
        let centre = &x[lo..][..len];
        let back = |step: usize| lo.checked_sub(step).map_or(centre, |s| &x[s..][..len]);
        let ahead = |step: usize| x.get(lo + step..lo + step + len).unwrap_or(centre);
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
            let mut acc = [0.0; K];
            for l in 0..K {
                acc[l] -= wxm[t] * (xm[t][l] - c[l]);
                acc[l] += wxp[t] * (c[l] - xp[t][l]);
                acc[l] -= wym[t] * (ym[t][l] - c[l]);
                acc[l] += wyp[t] * (c[l] - yp[t][l]);
                acc[l] -= wzm[t] * (zm[t][l] - c[l]);
                acc[l] += wzp[t] * (c[l] - zp[t][l]);
                dot[l] += c[l] * acc[l];
            }
            out[t] = acc;
        }
    }

    /// Net stencil flux out of every node for the potential `psi`
    /// (`A·ψ` without Dirichlet masking). For a converged solution the flux
    /// is zero at free nodes and equals the injected charge/current at
    /// Dirichlet nodes.
    pub fn node_flux(&self, psi: &[f64]) -> Vec<f64> {
        self.lane_flux(psi.as_chunks::<1>().0).into_flattened()
    }

    /// [`Self::node_flux`] of every lane of a [`Self::solve_lanes`] result.
    pub(crate) fn lane_flux<const K: usize>(&self, psi: &[[f64; K]]) -> Vec<[f64; K]> {
        let mut out = vec![[0.0; K]; self.node_count()];
        self.apply(psi, &self.ranges(), &mut out);
        out
    }

    /// Solves the constrained system.
    ///
    /// # Errors
    ///
    /// Returns [`Error::NoConvergence`] when CG exhausts
    /// `max_iterations`.
    pub fn solve(&self, options: &SolverOptions) -> Result<Vec<f64>> {
        let (psi, _) = self.solve_lanes(|_, v| [v], options)?;
        Ok(psi.into_flattened())
    }

    /// Solves `K` excitations that share this system's stencil and pinned
    /// nodes: `pinned(node, v)` gives the potential of each lane at a
    /// pinned node whose own potential is `v`. Returns every node's
    /// potential in every lane and each lane's iteration count.
    ///
    /// Each lane runs the scalar Jacobi-CG sequence of a system assembled
    /// with its own potentials, expression for expression, and ends on its
    /// own: at convergence, at a numerically flat direction (`pᵀAp ≤ 0`),
    /// or at once when its right-hand side is zero. Nothing done after a
    /// lane ends changes a bit of its potentials (see `end_lane`).
    ///
    /// # Errors
    ///
    /// Returns [`Error::NoConvergence`] for the lowest lane still running
    /// after `max_iterations`.
    pub(crate) fn solve_lanes<const K: usize>(
        &self,
        pinned: impl Fn(usize, f64) -> [f64; K],
        options: &SolverOptions,
    ) -> Result<(Vec<[f64; K]>, [usize; K])> {
        let _solve_span = cnt_obs::span!("fields.solve");
        let n = self.node_count();
        let runs = &self.free_runs;
        let mut psi: Vec<[f64; K]> = (self.dirichlet.iter().enumerate())
            .map(|(node, d)| d.map_or([0.0; K], |v| pinned(node, v)))
            .collect();

        // Residual r = -A·ψ at free nodes (b folded in through the pinned
        // entries of ψ), +0 at pinned ones.
        let mut ax = vec![[0.0; K]; n];
        self.apply(&psi, runs, &mut ax);
        let mut r = vec![[0.0; K]; n];
        for &(lo, hi) in runs {
            for i in lo..hi {
                r[i] = ax[i].map(|v| -v);
            }
        }
        let norm_b: [f64; K] =
            std::array::from_fn(|l| r.iter().map(|v| v[l] * v[l]).sum::<f64>().sqrt());

        // The preconditioned residual z = M⁻¹·r is never stored: each pass
        // that needs it recomputes `r·m` with the same operands.
        let mut p: Vec<[f64; K]> = (r.iter().zip(&self.precond))
            .map(|(a, m)| a.map(|v| v * m))
            .collect();
        let mut rz: [f64; K] = std::array::from_fn(|l| {
            (r.iter().zip(&self.precond))
                .map(|(a, m)| a[l] * (a[l] * m))
                .sum()
        });

        // A lane with a zero right-hand side ends before its first
        // iteration.
        let mut live = [true; K];
        let mut iterations = [0; K];
        for lane in 0..K {
            if norm_b[lane] == 0.0 {
                live[lane] = false;
                end_lane(runs, lane, [&mut r, &mut p]);
            }
        }
        let mut norm_r = norm_b;
        for it in 0..options.max_iterations {
            if !live.contains(&true) {
                break;
            }
            // Pinned nodes are skipped: p is +0 there, so each of their
            // pᵀAp terms would be +0, which changes no sum.
            let pap = self.apply(&p, runs, &mut ax);
            let mut alpha = [0.0; K];
            for l in 0..K {
                if live[l] && pap[l] <= 0.0 {
                    // Numerically flat direction — accept current iterate.
                    live[l] = false;
                    iterations[l] = it;
                    end_lane(runs, l, [&mut r, &mut p]);
                } else if live[l] {
                    alpha[l] = rz[l] / pap[l];
                }
            }
            let (norm_r2, rz_new) = self.fused_update(alpha, &p, &ax, &mut psi, &mut r);
            let mut beta = [0.0; K];
            for l in 0..K {
                if !live[l] {
                    continue;
                }
                norm_r[l] = norm_r2[l].sqrt();
                if norm_r[l] <= options.tolerance * norm_b[l] {
                    live[l] = false;
                    iterations[l] = it + 1;
                    end_lane(runs, l, [&mut r, &mut p]);
                } else {
                    beta[l] = rz_new[l] / rz[l];
                    rz[l] = rz_new[l];
                }
            }
            self.update_direction(beta, &r, &mut p);
        }
        if let Some(l) = live.iter().position(|&running| running) {
            return Err(Error::NoConvergence {
                iterations: options.max_iterations,
                residual: norm_r[l] / norm_b[l],
            });
        }
        // The iteration counter observes only; the solve itself is
        // untouched (determinism of the iterate sequence is golden-pinned).
        cg_iterations().add(iterations.iter().sum::<usize>() as u64);
        Ok((psi, iterations))
    }

    /// One fused pass over the free runs, every lane at once: update ψ
    /// and r, accumulate ‖r‖², form the preconditioned residual z, and
    /// accumulate r·z; returns ‖r‖² and r·z. The historical implementation
    /// made three separate grid passes here; the fused loop visits every
    /// index in the same ascending order and reads r only after its own
    /// update, so every partial sum — and therefore the iterate — is
    /// bit-identical to the unfused form. Pinned nodes add r = z = +0
    /// terms, so skipping them changes no sum.
    ///
    /// The vectors are separate arguments so that the compiler knows they
    /// do not overlap and can keep a node's lanes in one vector register.
    fn fused_update<const K: usize>(
        &self,
        alpha: [f64; K],
        p: &[[f64; K]],
        ax: &[[f64; K]],
        psi: &mut [[f64; K]],
        r: &mut [[f64; K]],
    ) -> ([f64; K], [f64; K]) {
        let mut norm_r2 = [0.0; K];
        let mut rz = [0.0; K];
        for &(lo, hi) in &self.free_runs {
            let (psi, r) = (&mut psi[lo..hi], &mut r[lo..hi]);
            let (p, ax, precond) = (&p[lo..hi], &ax[lo..hi], &self.precond[lo..hi]);
            for t in 0..hi - lo {
                for l in 0..K {
                    psi[t][l] += alpha[l] * p[t][l];
                    r[t][l] -= alpha[l] * ax[t][l];
                    let ri = r[t][l];
                    norm_r2[l] += ri * ri;
                    let zi = ri * precond[t];
                    rz[l] += ri * zi;
                }
            }
        }
        (norm_r2, rz)
    }

    /// The new search direction `p = z + β·p` at every free node, lane by
    /// lane, with `z = r·m` formed again; pinned nodes keep p = +0.
    fn update_direction<const K: usize>(&self, beta: [f64; K], r: &[[f64; K]], p: &mut [[f64; K]]) {
        for &(lo, hi) in &self.free_runs {
            let (r, precond) = (&r[lo..hi], &self.precond[lo..hi]);
            for (t, p) in p[lo..hi].iter_mut().enumerate() {
                for l in 0..K {
                    p[l] = r[t][l] * precond[t] + beta[l] * p[l];
                }
            }
        }
    }
}

/// Ends lane `lane` of a [`StencilSystem::solve_lanes`] run: its r and p
/// become +0 at every free node, and it steps with α = β = 0 from then
/// on. Each later step then keeps r, z, p and A·p at +0 and adds
/// 0·(+0) = +0 to the lane's ψ at free nodes, where ψ is never −0 (it
/// starts at +0, and under round-to-nearest a sum is −0 only when both
/// addends are): its bits stay as they were when it ended.
fn end_lane<const K: usize>(runs: &[(usize, usize)], lane: usize, vectors: [&mut [[f64; K]]; 2]) {
    for x in vectors {
        for &(lo, hi) in runs {
            for v in &mut x[lo..hi] {
                v[lane] = 0.0;
            }
        }
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

    /// The pre-fusion, single-lane CG over every node, kept as the
    /// reference each lane of the fused, lane-blocked loop is validated
    /// against, with its stencil apply passed in: the production gather or
    /// the scatter oracle. Returns ψ and the iteration count, as one lane
    /// of `solve_lanes` does.
    fn solve_cg_reference(
        sys: &StencilSystem,
        options: &SolverOptions,
        apply: fn(&StencilSystem, &[f64], &mut [f64]),
    ) -> Result<(Vec<f64>, usize)> {
        let n = sys.node_count();
        let free: Vec<bool> = sys.dirichlet.iter().map(Option::is_none).collect();
        let mut psi: Vec<f64> = sys.dirichlet.iter().map(|d| d.unwrap_or(0.0)).collect();
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
                let mut scattered = vec![f64::NAN; n];
                apply_scatter(&sys, &psi, &mut scattered);
                let what = format!("{nodes:?} seed {seed}");
                assert_same_bits(&sys.node_flux(&psi), &scattered, &what);
                // Three lanes at once, each against its own scatter; the
                // free runs alone write only the free nodes' entries.
                let lanes: [Vec<f64>; 3] = [1, 2, 3].map(|l| random_potentials(seed * 31 + l, n));
                let block: Vec<[f64; 3]> = (0..n).map(|i| lanes.each_ref().map(|v| v[i])).collect();
                let flux = sys.lane_flux(&block);
                let mut free_flux = vec![[f64::NAN; 3]; n];
                sys.apply(&block, &sys.free_runs, &mut free_flux);
                for (l, lane) in lanes.iter().enumerate() {
                    apply_scatter(&sys, lane, &mut scattered);
                    let got: Vec<f64> = flux.iter().map(|v| v[l]).collect();
                    assert_same_bits(&got, &scattered, &format!("{what} lane {l}"));
                    for i in 0..n {
                        let free = sys.dirichlet[i].is_none();
                        let want = if free { scattered[i] } else { f64::NAN };
                        let what = format!("{what} lane {l} free runs, node {i}");
                        assert_eq!(free_flux[i][l].to_bits(), want.to_bits(), "{what}");
                    }
                }
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

    /// `sys` with its pinned nodes held at `value(node)` instead: the
    /// single-excitation system one lane of a shared solve stands for.
    fn with_potentials(sys: &StencilSystem, value: impl Fn(usize) -> f64) -> StencilSystem {
        let dirichlet = (sys.dirichlet.iter().enumerate())
            .map(|(i, d)| d.map(|_| value(i)))
            .collect();
        StencilSystem {
            dirichlet,
            ..sys.clone()
        }
    }

    /// Solves `K` lanes of `shared` at once and compares every lane's ψ
    /// bits, iteration count and node flux with the scatter-driven
    /// reference on `reference(lane)`. Returns the iteration counts.
    fn assert_lanes_match_reference<const K: usize>(
        shared: &StencilSystem,
        pinned: impl Fn(usize, f64) -> [f64; K],
        reference: impl Fn(usize) -> StencilSystem,
        options: &SolverOptions,
        what: &str,
    ) -> [usize; K] {
        let (psi, iterations) = shared.solve_lanes(pinned, options).unwrap();
        let flux = shared.lane_flux(&psi);
        for lane in 0..K {
            let what = format!("{what}, lane {lane}");
            let sys = reference(lane);
            let (want, want_iterations) = solve_cg_reference(&sys, options, apply_scatter).unwrap();
            assert_eq!(iterations[lane], want_iterations, "{what}");
            let got: Vec<f64> = psi.iter().map(|v| v[lane]).collect();
            assert_same_bits(&got, &want, &what);
            let mut want_flux = vec![0.0; want.len()];
            apply_scatter(&sys, &want, &mut want_flux);
            let got_flux: Vec<f64> = flux.iter().map(|v| v[lane]).collect();
            assert_same_bits(&got_flux, &want_flux, &format!("{what} flux"));
        }
        iterations
    }

    /// The via stack of fig10 between its two terminals, here at a
    /// copper-like σ.
    fn via_stack_system() -> StencilSystem {
        let stack = via_stack(InverterCellGeometry::default(), 5.0e7)
            .build([41, 7, 13])
            .unwrap();
        let src = stack.conductor_id("t_m1").unwrap();
        let snk = stack.conductor_id("t_m2").unwrap();
        let dirichlet = (stack.node_conductor().iter())
            .map(|c| match *c {
                Some(id) if id == src => Some(1.0),
                Some(id) if id == snk => Some(0.0),
                _ => None,
            })
            .collect();
        StencilSystem::assemble(stack.grid(), stack.conductivity_coefficients(), dirichlet)
    }

    #[test]
    fn solves_match_a_scatter_driven_reference_bit_for_bit() {
        let options = SolverOptions::default();
        // fig10's inverter cell: its six capacitance excitations (one
        // conductor at 1 V, the others grounded) as one 6-lane solve,
        // each lane against a system assembled for its excitation alone.
        let cell = inverter_cell_14nm(InverterCellGeometry::default())
            .build([15, 11, 13])
            .unwrap();
        let (grid, eps, owner) = (
            cell.grid(),
            cell.permittivity_coefficients(),
            cell.node_conductor(),
        );
        assert_eq!(cell.conductor_count(), 6);
        let grounded = owner.iter().map(|c| c.map(|_| 0.0)).collect();
        let shared = StencilSystem::assemble(grid, eps, grounded);
        let drive = |node: usize, lane: usize| match owner[node] {
            Some(id) if id as usize == lane => 1.0,
            _ => 0.0,
        };
        let excitation = |lane: usize| {
            let dirichlet = (0..owner.len())
                .map(|node| owner[node].map(|_| drive(node, lane)))
                .collect();
            StencilSystem::assemble(grid, eps, dirichlet)
        };
        let iterations = assert_lanes_match_reference::<6>(
            &shared,
            |node, _| std::array::from_fn(|lane| drive(node, lane)),
            excitation,
            &options,
            "inverter cell",
        );
        assert!(iterations.iter().all(|&it| it > 0), "{iterations:?}");
        assert!(
            iterations.iter().any(|&it| it != iterations[0]),
            "{iterations:?}"
        );

        // The via stack at K = 1, and the floating island.
        for (what, sys) in [
            ("via stack", via_stack_system()),
            ("floating island", floating_island_system()),
        ] {
            let [iterations] = assert_lanes_match_reference::<1>(
                &sys,
                |_, v| [v],
                |_| sys.clone(),
                &options,
                what,
            );
            assert!(iterations > 0, "{what} converged without iterating");
        }
    }

    /// A random system's pinned nodes driven by `K` lanes of random
    /// potentials (signed zeros included), one lane all zero; each lane
    /// must match the reference CG on its own system.
    fn lanes_match_the_reference_on<const K: usize>(seed: u64, nodes: [usize; 3]) {
        let shared = random_system(seed, nodes);
        let n = shared.node_count();
        let zero_lane = (seed % K as u64) as usize;
        let values: Vec<Vec<f64>> = (0..K as u64)
            .map(|lane| match lane as usize == zero_lane {
                true => vec![0.0; n],
                false => random_potentials(seed.wrapping_add(lane), n),
            })
            .collect();
        let iterations = assert_lanes_match_reference::<K>(
            &shared,
            |node, _| std::array::from_fn(|lane| values[lane][node]),
            |lane| with_potentials(&shared, |node| values[lane][node]),
            &SolverOptions::default(),
            &format!("{nodes:?} seed {seed}"),
        );
        assert_eq!(iterations[zero_lane], 0);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        #[test]
        fn fused_cg_matches_unfused_reference_on_random_grids(
            seed in any::<u64>(),
            lanes in 1_usize..9,
            nx in 3_usize..6,
            ny in 3_usize..6,
            nz in 3_usize..7,
        ) {
            let nodes = [nx, ny, nz];
            match lanes {
                1 => lanes_match_the_reference_on::<1>(seed, nodes),
                2 => lanes_match_the_reference_on::<2>(seed, nodes),
                3 => lanes_match_the_reference_on::<3>(seed, nodes),
                4 => lanes_match_the_reference_on::<4>(seed, nodes),
                5 => lanes_match_the_reference_on::<5>(seed, nodes),
                6 => lanes_match_the_reference_on::<6>(seed, nodes),
                7 => lanes_match_the_reference_on::<7>(seed, nodes),
                _ => lanes_match_the_reference_on::<8>(seed, nodes),
            }
        }
    }

    #[test]
    fn no_convergence_names_the_lowest_failing_lane() {
        let (_, sys) = linear_profile_system();
        let n = sys.node_count();
        let options = SolverOptions {
            max_iterations: 2,
            tolerance: 1e-14,
        };
        // A grounded lane ends at once; the system's own potentials and
        // random ones cannot converge in two steps.
        let grounded = vec![0.0; n];
        let own: Vec<f64> = sys.dirichlet.iter().map(|d| d.unwrap_or(0.0)).collect();
        let random = random_potentials(7, n);
        let failure = |v: &[f64]| {
            let single = with_potentials(&sys, |node| v[node]);
            solve_cg_reference(&single, &options, apply_scatter).unwrap_err()
        };
        assert_ne!(failure(&own), failure(&random));
        for lanes in [
            [&grounded, &own, &random],
            [&grounded, &random, &own],
            [&random, &own, &grounded],
        ] {
            let err = (sys.solve_lanes(|node, _| lanes.map(|v| v[node]), &options)).unwrap_err();
            assert_eq!(
                err,
                failure(if lanes[0] == &grounded {
                    lanes[1]
                } else {
                    lanes[0]
                })
            );
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
