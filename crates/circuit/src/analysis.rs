//! DC operating point and transient analysis (the MNA engine).
//!
//! Unknown vector: node voltages (ground excluded) followed by branch
//! currents of voltage sources and inductors. Nonlinear devices enter
//! through Newton iteration with companion (linearized) stamps. The
//! transient integrator is selectable between backward Euler and the
//! trapezoidal rule — one of the ablations called out in DESIGN.md §6.

use crate::circuit::{Circuit, Element, NodeId};
use crate::linalg::DenseMatrix;
use crate::mosfet::{MosfetModel, Polarity};
use crate::{Error, Result};

/// Minimum conductance added across MOSFET channels for Newton robustness.
const GMIN: f64 = 1e-12;

/// Transient integration scheme.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Integrator {
    /// First-order, L-stable; damps ringing (default).
    BackwardEuler,
    /// Second-order, A-stable; preserves energy better.
    Trapezoidal,
}

/// Transient analysis options.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TranOptions {
    /// End time, seconds.
    pub t_stop: f64,
    /// Fixed time step, seconds.
    pub dt: f64,
    /// Integration scheme.
    pub integrator: Integrator,
    /// Newton iteration cap per step.
    pub max_newton: usize,
    /// Newton voltage convergence tolerance, volts.
    pub v_tol: f64,
    /// Start from the DC operating point (default) or from all-zeros.
    pub from_dc: bool,
}

impl TranOptions {
    /// Convenience constructor with defaults (backward Euler, DC start).
    pub fn new(t_stop: f64, dt: f64) -> Self {
        Self {
            t_stop,
            dt,
            integrator: Integrator::BackwardEuler,
            max_newton: 60,
            v_tol: 1e-6,
            from_dc: true,
        }
    }

    /// Switches to the trapezoidal integrator.
    pub fn trapezoidal(mut self) -> Self {
        self.integrator = Integrator::Trapezoidal;
        self
    }
}

/// DC operating-point result.
#[derive(Debug, Clone)]
pub struct DcResult {
    names: Vec<String>,
    voltages: Vec<f64>,
}

impl DcResult {
    /// Voltage of a node by name.
    ///
    /// # Errors
    ///
    /// Returns [`Error::UnknownNode`] for unknown names.
    pub fn voltage(&self, node: &str) -> Result<f64> {
        self.names
            .iter()
            .position(|n| n == node)
            .map(|i| self.voltages[i])
            .ok_or_else(|| Error::UnknownNode {
                name: node.to_string(),
            })
    }

    /// All node voltages in node-id order (ground first).
    fn voltages(&self) -> &[f64] {
        &self.voltages
    }
}

/// Transient result: sampled node voltages over time.
#[derive(Debug, Clone)]
pub struct TranResult {
    names: Vec<String>,
    times: Vec<f64>,
    /// `data[step][node_index]`.
    data: Vec<Vec<f64>>,
}

impl TranResult {
    /// Node index by name.
    fn index(&self, node: &str) -> Result<usize> {
        self.names
            .iter()
            .position(|n| n == node)
            .ok_or_else(|| Error::UnknownNode {
                name: node.to_string(),
            })
    }

    /// Voltage samples of one node.
    ///
    /// # Errors
    ///
    /// Returns [`Error::UnknownNode`] for unknown names.
    pub fn voltage(&self, node: &str) -> Result<Vec<f64>> {
        let i = self.index(node)?;
        Ok(self.data.iter().map(|row| row[i]).collect())
    }

    /// `(time, voltage)` pairs of one node — the input format of the
    /// [`crate::measure`] helpers.
    ///
    /// # Errors
    ///
    /// Returns [`Error::UnknownNode`] for unknown names.
    pub fn waveform(&self, node: &str) -> Result<Vec<(f64, f64)>> {
        let i = self.index(node)?;
        Ok(self
            .times
            .iter()
            .zip(&self.data)
            .map(|(t, row)| (*t, row[i]))
            .collect())
    }
}

/// Internal assembly workspace.
struct Assembler {
    /// Number of non-ground nodes.
    n_nodes: usize,
    /// Branch index of each V-source / inductor element (by element order).
    branch_of: Vec<Option<usize>>,
    /// Total unknowns.
    n_unknowns: usize,
}

impl Assembler {
    fn new(circuit: &Circuit) -> Self {
        let n_nodes = circuit.node_count() - 1;
        let mut branch_of = vec![None; circuit.elements.len()];
        let mut next = 0;
        for (idx, e) in circuit.elements.iter().enumerate() {
            if matches!(e, Element::VSource { .. } | Element::Inductor { .. }) {
                branch_of[idx] = Some(n_nodes + next);
                next += 1;
            }
        }
        Self {
            n_nodes,
            branch_of,
            n_unknowns: n_nodes + next,
        }
    }

    /// Row/column of a node (None = ground).
    #[inline]
    fn node_row(&self, n: NodeId) -> Option<usize> {
        if n.index() == 0 {
            None
        } else {
            Some(n.index() - 1)
        }
    }

    fn stamp_conductance(&self, m: &mut DenseMatrix, a: NodeId, b: NodeId, g: f64) {
        let ra = self.node_row(a);
        let rb = self.node_row(b);
        if let Some(i) = ra {
            m.add(i, i, g);
        }
        if let Some(j) = rb {
            m.add(j, j, g);
        }
        if let (Some(i), Some(j)) = (ra, rb) {
            m.add(i, j, -g);
            m.add(j, i, -g);
        }
    }

    fn stamp_current(&self, b: &mut [f64], into: NodeId, i: f64) {
        if let Some(r) = self.node_row(into) {
            b[r] += i;
        }
    }

    /// Assembles the resistive Jacobian `G(x)` and source vector `b(x, t)`
    /// such that the linearized KCL reads `G·x = b`.
    fn assemble_resistive(
        &self,
        circuit: &Circuit,
        x: &[f64],
        t: f64,
        g: &mut DenseMatrix,
        b: &mut [f64],
    ) {
        g.clear();
        b.iter_mut().for_each(|v| *v = 0.0);
        let volt = |n: NodeId| -> f64 {
            match self.node_row(n) {
                None => 0.0,
                Some(r) => x[r],
            }
        };
        for (idx, e) in circuit.elements.iter().enumerate() {
            match e {
                Element::Resistor { a, b: nb, ohms, .. } => {
                    self.stamp_conductance(g, *a, *nb, 1.0 / ohms);
                }
                Element::Capacitor { .. } => {}
                Element::Inductor { a, b: nb, .. } => {
                    let br = self.branch_of[idx].expect("inductor branch assigned");
                    // Node KCL: branch current leaves a, enters b.
                    if let Some(r) = self.node_row(*a) {
                        g.add(r, br, 1.0);
                    }
                    if let Some(r) = self.node_row(*nb) {
                        g.add(r, br, -1.0);
                    }
                    // Branch voltage equation handled in the C matrix
                    // (v_a − v_b = L·di/dt); resistive part:
                    if let Some(c) = self.node_row(*a) {
                        g.add(br, c, 1.0);
                    }
                    if let Some(c) = self.node_row(*nb) {
                        g.add(br, c, -1.0);
                    }
                    // Note: the L·di/dt term lives in the reactive matrix.
                }
                Element::VSource { p, n, wave, .. } => {
                    let br = self.branch_of[idx].expect("vsource branch assigned");
                    if let Some(r) = self.node_row(*p) {
                        g.add(r, br, 1.0);
                    }
                    if let Some(r) = self.node_row(*n) {
                        g.add(r, br, -1.0);
                    }
                    if let Some(c) = self.node_row(*p) {
                        g.add(br, c, 1.0);
                    }
                    if let Some(c) = self.node_row(*n) {
                        g.add(br, c, -1.0);
                    }
                    b[br] += wave.value_at(t);
                }
                Element::ISource { p, n, wave, .. } => {
                    let i = wave.value_at(t);
                    self.stamp_current(b, *p, -i);
                    self.stamp_current(b, *n, i);
                }
                Element::Mosfet {
                    d,
                    g: gate,
                    s,
                    model,
                    ..
                } => {
                    self.stamp_mosfet(g, b, *d, *gate, *s, model, &volt);
                }
            }
        }
    }

    /// Stamps the companion model of one MOSFET at the bias point given by
    /// the voltage closure.
    #[allow(clippy::too_many_arguments)]
    fn stamp_mosfet(
        &self,
        g: &mut DenseMatrix,
        b: &mut [f64],
        d: NodeId,
        gate: NodeId,
        s: NodeId,
        model: &MosfetModel,
        volt: &dyn Fn(NodeId) -> f64,
    ) {
        let sign = match model.polarity {
            Polarity::Nmos => 1.0,
            Polarity::Pmos => -1.0,
        };
        // Effective frame: v = sign·V; pick effective drain/source so
        // vds_eff ≥ 0 (the level-1 device is source/drain symmetric).
        let (de, se) = if sign * volt(d) >= sign * volt(s) {
            (d, s)
        } else {
            (s, d)
        };
        let vgs_eff = sign * (volt(gate) - volt(se));
        let vds_eff = sign * (volt(de) - volt(se));
        let lin = model.evaluate(vgs_eff, vds_eff);
        // Companion current source (effective frame).
        let ieq_eff = lin.id - lin.gm * vgs_eff - lin.gds * vds_eff;

        // Conductance stamps are identical in both frames; the equivalent
        // current source flips with the polarity sign.
        let (rd, rg, rs) = (self.node_row(de), self.node_row(gate), self.node_row(se));
        // i(D→S) = gm·(Vg − Vs) + gds·(Vd − Vs) + sign·Ieq.
        if let Some(i) = rd {
            if let Some(c) = rg {
                g.add(i, c, lin.gm);
            }
            if let Some(c) = rd {
                g.add(i, c, lin.gds);
            }
            if let Some(c) = rs {
                g.add(i, c, -(lin.gm + lin.gds));
            }
            b[i] -= sign * ieq_eff;
        }
        if let Some(i) = rs {
            if let Some(c) = rg {
                g.add(i, c, -lin.gm);
            }
            if let Some(c) = rd {
                g.add(i, c, -lin.gds);
            }
            if let Some(c) = rs {
                g.add(i, c, lin.gm + lin.gds);
            }
            b[i] += sign * ieq_eff;
        }
        // Convergence aid.
        self.stamp_conductance(g, de, se, GMIN);
    }

    /// Assembles the reactive matrix `C` (constant: capacitors, gate caps,
    /// inductor branches).
    fn assemble_reactive(&self, circuit: &Circuit, c: &mut DenseMatrix) {
        c.clear();
        for (idx, e) in circuit.elements.iter().enumerate() {
            match e {
                Element::Capacitor { a, b, farads, .. } => {
                    self.stamp_capacitance(c, *a, *b, *farads);
                }
                Element::Inductor { henries, .. } => {
                    let br = self.branch_of[idx].expect("inductor branch assigned");
                    // Branch equation: v_a − v_b − L·di/dt = 0.
                    c.add(br, br, -henries);
                }
                Element::Mosfet { d, g, s, model, .. } => {
                    self.stamp_capacitance(c, *g, *s, model.cgs);
                    self.stamp_capacitance(c, *g, *d, model.cgd);
                }
                _ => {}
            }
        }
    }

    fn stamp_capacitance(&self, m: &mut DenseMatrix, a: NodeId, b: NodeId, f: f64) {
        self.stamp_conductance(m, a, b, f);
    }
}

impl Circuit {
    /// Computes the DC operating point (capacitors open, inductors short).
    ///
    /// # Errors
    ///
    /// [`Error::NoConvergence`] if Newton stalls;
    /// [`Error::SingularMatrix`] for floating nodes or source loops.
    pub fn dc_operating_point(&self) -> Result<DcResult> {
        let asm = Assembler::new(self);
        let n = asm.n_unknowns;
        let mut x = vec![0.0; n];
        let mut g = DenseMatrix::zeros(n);
        let mut b = vec![0.0; n];
        let max_iter = 200;
        for it in 0..max_iter {
            asm.assemble_resistive(self, &x, 0.0, &mut g, &mut b);
            // Inductors at DC: short → their branch equation degenerates to
            // v_a − v_b = 0, which assemble_resistive already produced
            // (the L·di/dt term lives in C and is absent here). Good.
            let lu = g.clone().lu_factor()?;
            let x_new = lu.solve(&b);
            if !self.has_nonlinear() {
                // Linear system: the first solve is exact.
                return Ok(self.pack_dc(&asm, &x_new));
            }
            let mut delta = 0.0f64;
            for i in 0..n {
                delta = delta.max((x_new[i] - x[i]).abs());
            }
            // Damping: clamp huge Newton steps on the *node voltages* only
            // (branch currents may legitimately be large).
            for i in 0..n {
                let step = if i < asm.n_nodes {
                    (x_new[i] - x[i]).clamp(-2.0, 2.0)
                } else {
                    x_new[i] - x[i]
                };
                x[i] += step;
            }
            if delta < 1e-9 {
                return Ok(self.pack_dc(&asm, &x));
            }
            if delta < 1e-7 && it > 3 {
                return Ok(self.pack_dc(&asm, &x));
            }
        }
        Err(Error::NoConvergence {
            context: "dc".to_string(),
            iterations: max_iter,
        })
    }

    fn pack_dc(&self, asm: &Assembler, x: &[f64]) -> DcResult {
        let mut voltages = vec![0.0; self.node_count()];
        voltages[1..=asm.n_nodes].copy_from_slice(&x[..asm.n_nodes]);
        DcResult {
            names: self.node_names().iter().map(|s| s.to_string()).collect(),
            voltages,
        }
    }

    /// Runs a fixed-step transient analysis.
    ///
    /// # Errors
    ///
    /// [`Error::InvalidOptions`] for non-positive times;
    /// [`Error::NoConvergence`] / [`Error::SingularMatrix`] from the
    /// per-step Newton solves.
    pub fn transient(&self, options: &TranOptions) -> Result<TranResult> {
        let _span = cnt_obs::span!("circuit.transient");
        if options.dt <= 0.0 || options.t_stop <= 0.0 || options.t_stop < options.dt {
            return Err(Error::InvalidOptions("need 0 < dt <= t_stop"));
        }
        let asm = Assembler::new(self);
        let n = asm.n_unknowns;
        let nonlinear = self.has_nonlinear();
        let h = options.dt;

        let mut c_mat = DenseMatrix::zeros(n);
        asm.assemble_reactive(self, &mut c_mat);

        // Initial state.
        let mut x = vec![0.0; n];
        if options.from_dc {
            let dc = self.dc_operating_point()?;
            x[..asm.n_nodes].copy_from_slice(&dc.voltages()[1..=asm.n_nodes]);
            // Branch currents of the DC solution are recomputed implicitly
            // in the first step; starting them at zero is harmless for the
            // fixed-step integrators used here.
        }

        let mut g = DenseMatrix::zeros(n);
        let mut b = vec![0.0; n];

        // For linear circuits the Jacobian is constant: factor once.
        let trap = options.integrator == Integrator::Trapezoidal;
        let cdt_scale = if trap { 2.0 / h } else { 1.0 / h };

        let mut lu_cache = None;
        if !nonlinear {
            asm.assemble_resistive(self, &x, 0.0, &mut g, &mut b);
            let mut j = g.clone();
            add_scaled(&mut j, &c_mat, cdt_scale);
            lu_cache = Some(j.lu_factor()?);
        }

        let steps = (options.t_stop / h).round() as usize;
        let mut times = Vec::with_capacity(steps + 1);
        let mut data = Vec::with_capacity(steps + 1);
        times.push(0.0);
        data.push(self.sample(&asm, &x));

        // Trapezoidal needs f(x_n) = G·x_n − b_n from the previous step.
        let mut f_prev = {
            asm.assemble_resistive(self, &x, 0.0, &mut g, &mut b);
            let gx = g.mul_vec(&x);
            gx.iter().zip(&b).map(|(a, s)| a - s).collect::<Vec<f64>>()
        };

        for step in 1..=steps {
            let t = step as f64 * h;
            let mut x_new = x.clone();
            let mut converged = !nonlinear;

            // rhs base: C/h·x_n (BE) or 2C/h·x_n − f_prev (TRAP).
            let cx = c_mat.mul_vec(&x);

            if let Some(lu) = &lu_cache {
                // Linear fast path: rhs = b(t) + scale·C·x_n (− f_prev for TRAP).
                asm.assemble_resistive(self, &x, t, &mut g, &mut b);
                let mut rhs = b.clone();
                for i in 0..n {
                    rhs[i] += cdt_scale * cx[i];
                    if trap {
                        rhs[i] -= f_prev[i];
                    }
                }
                x_new = lu.solve(&rhs);
            } else {
                // Newton loop.
                for _it in 0..options.max_newton {
                    asm.assemble_resistive(self, &x_new, t, &mut g, &mut b);
                    let mut j = g.clone();
                    add_scaled(&mut j, &c_mat, cdt_scale);
                    let mut rhs = b.clone();
                    for i in 0..n {
                        rhs[i] += cdt_scale * cx[i];
                        if trap {
                            rhs[i] -= f_prev[i];
                        }
                    }
                    let lu = j.lu_factor()?;
                    let x_next = lu.solve(&rhs);
                    let mut delta = 0.0f64;
                    for i in 0..n {
                        delta = delta.max((x_next[i] - x_new[i]).abs());
                    }
                    x_new = x_next;
                    if delta < options.v_tol {
                        converged = true;
                        break;
                    }
                }
                if !converged {
                    return Err(Error::NoConvergence {
                        context: format!("transient t={t:.3e}"),
                        iterations: options.max_newton,
                    });
                }
            }

            if trap {
                // f(x_{n+1}) for the next step.
                asm.assemble_resistive(self, &x_new, t, &mut g, &mut b);
                let gx = g.mul_vec(&x_new);
                for i in 0..n {
                    f_prev[i] = gx[i] - b[i];
                }
            }

            x = x_new;
            times.push(t);
            data.push(self.sample(&asm, &x));
        }

        Ok(TranResult {
            names: self.node_names().iter().map(|s| s.to_string()).collect(),
            times,
            data,
        })
    }

    fn sample(&self, asm: &Assembler, x: &[f64]) -> Vec<f64> {
        let mut row = vec![0.0; self.node_count()];
        row[1..=asm.n_nodes].copy_from_slice(&x[..asm.n_nodes]);
        row
    }
}

/// `a += s·b` entrywise.
fn add_scaled(a: &mut DenseMatrix, b: &DenseMatrix, s: f64) {
    let n = a.dim();
    for r in 0..n {
        for c in 0..n {
            let v = b.get(r, c);
            if v != 0.0 {
                a.add(r, c, s * v);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::waveform::Waveform;

    #[test]
    fn resistive_divider_dc() {
        let mut c = Circuit::new();
        let vin = c.node("in");
        let mid = c.node("mid");
        c.add_vsource("V1", vin, Circuit::GND, Waveform::Dc(3.0))
            .unwrap();
        c.add_resistor("R1", vin, mid, 2e3).unwrap();
        c.add_resistor("R2", mid, Circuit::GND, 1e3).unwrap();
        let dc = c.dc_operating_point().unwrap();
        assert!((dc.voltage("mid").unwrap() - 1.0).abs() < 1e-9);
        assert!((dc.voltage("in").unwrap() - 3.0).abs() < 1e-9);
        assert!(dc.voltage("none").is_err());
    }

    #[test]
    fn floating_node_is_singular() {
        let mut c = Circuit::new();
        let a = c.node("a");
        let b = c.node("b");
        let d = c.node("d");
        c.add_vsource("V1", a, Circuit::GND, Waveform::Dc(1.0))
            .unwrap();
        c.add_resistor("R1", a, Circuit::GND, 1e3).unwrap();
        // Nodes b and d form an island with no path to the rest.
        c.add_resistor("R2", b, d, 1e3).unwrap();
        assert!(matches!(
            c.dc_operating_point(),
            Err(Error::SingularMatrix { .. })
        ));
    }

    #[test]
    fn rc_step_response_be_and_trap() {
        for trap in [false, true] {
            let mut c = Circuit::new();
            let vin = c.node("in");
            let vout = c.node("out");
            c.add_vsource("Vs", vin, Circuit::GND, Waveform::step(1.0))
                .unwrap();
            c.add_resistor("R1", vin, vout, 1e3).unwrap();
            c.add_capacitor("C1", vout, Circuit::GND, 1e-9).unwrap();
            let mut opts = TranOptions::new(5e-6, 5e-9);
            if trap {
                opts = opts.trapezoidal();
            }
            let tr = c.transient(&opts).unwrap();
            let w = tr.waveform("out").unwrap();
            // Value at t = τ = 1 µs should be 1 − e⁻¹.
            let v_tau = w.iter().find(|(t, _)| *t >= 1e-6).unwrap().1;
            assert!(
                (v_tau - (1.0 - (-1.0f64).exp())).abs() < 5e-3,
                "trap={trap}: v(τ) = {v_tau}"
            );
            // Settles to 1 − e⁻⁵ after five time constants.
            assert!((tr.waveform("out").unwrap().last().unwrap().1 - 1.0).abs() < 1e-2);
        }
    }

    #[test]
    fn rl_circuit_current_rise() {
        // V—R—L to ground: i(t) = V/R(1 − e^{−tR/L}), v_L decays.
        let mut c = Circuit::new();
        let vin = c.node("in");
        let mid = c.node("mid");
        c.add_vsource("Vs", vin, Circuit::GND, Waveform::step(1.0))
            .unwrap();
        c.add_resistor("R1", vin, mid, 1e3).unwrap();
        c.add_inductor("L1", mid, Circuit::GND, 1e-3).unwrap();
        // τ = L/R = 1 µs.
        let tr = c.transient(&TranOptions::new(5e-6, 5e-9)).unwrap();
        let w = tr.waveform("mid").unwrap();
        let v_tau = w.iter().find(|(t, _)| *t >= 1e-6).unwrap().1;
        // v_mid = V·e^{−t/τ} (voltage across the inductor).
        assert!((v_tau - (-1.0f64).exp()).abs() < 5e-3, "v(τ) = {v_tau}");
        // e⁻⁵ ≈ 0.0067 remains after five time constants.
        assert!(tr.waveform("mid").unwrap().last().unwrap().1.abs() < 1e-2);
    }

    #[test]
    fn inverter_dc_transfer() {
        use crate::mosfet::MosfetModel;
        let vdd_v = 1.0;
        let eval = |vin_v: f64| -> f64 {
            let mut c = Circuit::new();
            let vdd = c.node("vdd");
            let vin = c.node("in");
            let vout = c.node("out");
            c.add_vsource("Vdd", vdd, Circuit::GND, Waveform::Dc(vdd_v))
                .unwrap();
            c.add_vsource("Vin", vin, Circuit::GND, Waveform::Dc(vin_v))
                .unwrap();
            c.add_mosfet("Mn", vout, vin, Circuit::GND, MosfetModel::nmos_45nm())
                .unwrap();
            c.add_mosfet("Mp", vout, vin, vdd, MosfetModel::pmos_45nm())
                .unwrap();
            // Small load keeps the output defined in all regions.
            c.add_resistor("Rload", vout, Circuit::GND, 1e9).unwrap();
            c.dc_operating_point().unwrap().voltage("out").unwrap()
        };
        let low_in = eval(0.0);
        let high_in = eval(1.0);
        assert!(low_in > 0.95, "inverter output high: {low_in}");
        assert!(high_in < 0.05, "inverter output low: {high_in}");
        // Transfer is monotonically decreasing.
        let mid1 = eval(0.45);
        let mid2 = eval(0.55);
        assert!(mid1 > mid2, "{mid1} vs {mid2}");
    }

    #[test]
    fn inverter_transient_switches() {
        use crate::mosfet::MosfetModel;
        let mut c = Circuit::new();
        let vdd = c.node("vdd");
        let vin = c.node("in");
        let vout = c.node("out");
        c.add_vsource("Vdd", vdd, Circuit::GND, Waveform::Dc(1.0))
            .unwrap();
        c.add_vsource(
            "Vin",
            vin,
            Circuit::GND,
            Waveform::edge(0.0, 1.0, 20e-12, 10e-12),
        )
        .unwrap();
        c.add_mosfet("Mn", vout, vin, Circuit::GND, MosfetModel::nmos_45nm())
            .unwrap();
        c.add_mosfet("Mp", vout, vin, vdd, MosfetModel::pmos_45nm())
            .unwrap();
        c.add_capacitor("Cl", vout, Circuit::GND, 1e-15).unwrap();
        let tr = c.transient(&TranOptions::new(500e-12, 0.5e-12)).unwrap();
        let first = tr.voltage("out").unwrap()[0];
        let last = tr.waveform("out").unwrap().last().unwrap().1;
        assert!(first > 0.95, "starts high: {first}");
        assert!(last < 0.05, "ends low: {last}");
    }

    #[test]
    fn option_validation() {
        let c = Circuit::new();
        assert!(c.transient(&TranOptions::new(-1.0, 1e-9)).is_err());
        assert!(c.transient(&TranOptions::new(1e-9, 0.0)).is_err());
    }

    #[test]
    fn trapezoidal_preserves_ringing_that_backward_euler_damps() {
        // Second-order, A-stable TRAP keeps the overshoot of a high-Q RLC
        // step response; L-stable BE artificially damps it. This is the
        // integrator ablation of DESIGN.md §6.
        let build = || {
            let mut c = Circuit::new();
            let vin = c.node("in");
            let a = c.node("a");
            let b = c.node("b");
            c.add_vsource("Vs", vin, Circuit::GND, Waveform::step(1.0))
                .unwrap();
            c.add_resistor("R1", vin, a, 1.0).unwrap();
            c.add_inductor("L1", a, b, 1e-6).unwrap();
            c.add_capacitor("C1", b, Circuit::GND, 1e-9).unwrap();
            c
        };
        // Period 2π√(LC) ≈ 199 ns; step 5 ns ≈ 40 points per period.
        let opts = TranOptions::new(1e-6, 5e-9);
        let peak = |w: &[(f64, f64)]| w.iter().map(|p| p.1).fold(f64::MIN, f64::max);
        let be = build().transient(&opts).unwrap().waveform("b").unwrap();
        let tr = build()
            .transient(&opts.trapezoidal())
            .unwrap()
            .waveform("b")
            .unwrap();
        let peak_be = peak(&be);
        let peak_tr = peak(&tr);
        // Ideal overshoot for Q ≈ 31.6 is ≈ 1.95.
        assert!(peak_tr > 1.8, "TRAP keeps the overshoot: {peak_tr}");
        assert!(peak_tr > peak_be + 0.05, "TRAP {peak_tr} vs BE {peak_be}");
    }
}
