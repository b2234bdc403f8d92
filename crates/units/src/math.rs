//! Small numerical toolbox shared by the solver and analysis crates.
//!
//! Everything here is deliberately dependency-free: descriptive statistics
//! (percentiles by selection), ordinary least squares, the thermal
//! broadening kernel, numerically safe quadrature and table
//! interpolation. The heavy numerical work (linear systems, ODE stepping)
//! lives in the crates that own the physics.

/// Arithmetic mean of a slice. Returns `None` for an empty slice.
///
/// ```
/// use cnt_units::math::mean;
/// assert_eq!(mean(&[1.0, 2.0, 3.0]), Some(2.0));
/// assert_eq!(mean(&[]), None);
/// ```
pub fn mean(xs: &[f64]) -> Option<f64> {
    if xs.is_empty() {
        return None;
    }
    Some(xs.iter().sum::<f64>() / xs.len() as f64)
}

/// Sample standard deviation (Bessel-corrected). `None` if fewer than 2 points.
pub fn std_dev(xs: &[f64]) -> Option<f64> {
    if xs.len() < 2 {
        return None;
    }
    let m = mean(xs)?;
    let var = xs.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / (xs.len() - 1) as f64;
    Some(var.sqrt())
}

/// Median, [`percentile`] 50. `None` for an empty slice.
///
/// # Panics
///
/// Panics with "NaN in percentile input" if `xs` holds a NaN and more
/// than one element.
pub fn median(xs: &[f64]) -> Option<f64> {
    percentile(xs, 50.0)
}

/// Linear-interpolated percentile `p` in `[0, 100]`. `None` if empty or `p` out of range.
///
/// The two ranks it interpolates between are selected in O(n) by
/// [`Percentiles`], which returns the values a full sort would put there,
/// so the result is the sort-based percentile's, bit for bit.
///
/// # Panics
///
/// Panics with "NaN in percentile input" if `xs` holds a NaN and more
/// than one element.
pub fn percentile(xs: &[f64], p: f64) -> Option<f64> {
    if xs.is_empty() || !(0.0..=100.0).contains(&p) {
        return None;
    }
    let (lo, hi, frac) = Percentiles::new(xs).bracket(p);
    Some(lo * (1.0 - frac) + hi * frac)
}

/// Order statistics of one sample by selection (Hoare's FIND, CACM 1961)
/// instead of a full sort.
///
/// [`Percentiles::bracket`] takes rank `lo` with `select_nth_unstable_by`
/// over the part of one copy above the previous call's rank, and rank
/// `lo + 1` as the minimum of the part above `lo`: O(n) per call against
/// a sort's O(n log n). The values are bit for bit those a stable
/// ascending sort by `partial_cmp` puts at those ranks. Equal floats have
/// equal bits except zeros of both signs, and where those tie at a rank
/// the zero returned is the one that sort keeps there: the zeros in input
/// order, after every negative value.
#[derive(Debug)]
pub struct Percentiles<'a> {
    xs: &'a [f64],
    /// A copy of `xs`, partitioned around every rank taken so far.
    v: Vec<f64>,
    /// The last rank taken: `v[lo]` holds it and `v[lo + 1..]` every rank
    /// above it.
    lo: Option<usize>,
}

impl<'a> Percentiles<'a> {
    /// Selection over a copy of `xs`.
    pub fn new(xs: &'a [f64]) -> Self {
        Self {
            xs,
            v: xs.to_vec(),
            lo: None,
        }
    }

    /// The values at the two ranks bracketing percentile `p` and the
    /// fraction of the way between them: with `rank = p/100·(n − 1)`, the
    /// values at `⌊rank⌋` and `⌈rank⌉` and `rank − ⌊rank⌋`. Successive
    /// calls on one selection must not lower `⌊rank⌋`.
    ///
    /// # Panics
    ///
    /// Panics on an empty sample, a `p` outside `[0, 100]` or a lowered
    /// rank, and with "NaN in percentile input" when the selection
    /// compares a NaN, which the first call does for any NaN in a sample
    /// of two or more.
    pub fn bracket(&mut self, p: f64) -> (f64, f64, f64) {
        assert!(!self.v.is_empty(), "percentile of an empty sample");
        assert!(
            (0.0..=100.0).contains(&p),
            "percentile {p} outside [0, 100]"
        );
        let rank = p / 100.0 * (self.v.len() - 1) as f64;
        let lo = rank.floor() as usize;
        let hi = rank.ceil() as usize;
        let frac = rank - lo as f64;
        if self.lo != Some(lo) {
            let from = self.lo.map_or(0, |prev| prev + 1);
            assert!(lo >= from, "percentile ranks must not fall");
            self.v[from..].select_nth_unstable_by(lo - from, |a, b| {
                a.partial_cmp(b).expect("NaN in percentile input")
            });
            self.lo = Some(lo);
        }
        let at_lo = self.v[lo];
        let at_hi = if hi == lo {
            at_lo
        } else {
            self.v[lo + 1..]
                .iter()
                .copied()
                .reduce(|min, x| if x < min { x } else { min })
                .expect("rank hi lies above rank lo")
        };
        (self.as_sorted(lo, at_lo), self.as_sorted(hi, at_hi), frac)
    }

    /// `value`, found at `rank`, as the stable sort puts it there: a zero
    /// becomes the zero of that rank among the zeros in input order.
    fn as_sorted(&self, rank: usize, value: f64) -> f64 {
        if value != 0.0 {
            return value;
        }
        let below = self.xs.iter().filter(|&&x| x < 0.0).count();
        self.xs
            .iter()
            .copied()
            .filter(|&x| x == 0.0)
            .nth(rank - below)
            .expect("a zero holds this rank")
    }
}

/// Result of an ordinary-least-squares straight-line fit `y = a + b·x`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinearFit {
    /// Intercept `a`.
    pub intercept: f64,
    /// Slope `b`.
    pub slope: f64,
    /// Standard error of the intercept.
    pub intercept_stderr: f64,
    /// Standard error of the slope.
    pub slope_stderr: f64,
    /// Coefficient of determination R².
    pub r_squared: f64,
}

/// Fits `y = a + b·x` by ordinary least squares.
///
/// Used by the TLM contact-resistance extraction (paper Section IV.B,
/// reference \[23\]): the intercept is `2·R_contact` and the slope the
/// per-length resistance.
///
/// # Errors
///
/// Returns `None` when fewer than 2 points are supplied, when the slices
/// disagree in length, or when all `x` coincide (vertical line).
pub fn linear_fit(x: &[f64], y: &[f64]) -> Option<LinearFit> {
    if x.len() != y.len() || x.len() < 2 {
        return None;
    }
    let n = x.len() as f64;
    let mx = mean(x)?;
    let my = mean(y)?;
    let sxx: f64 = x.iter().map(|xi| (xi - mx) * (xi - mx)).sum();
    if sxx == 0.0 {
        return None;
    }
    let sxy: f64 = x.iter().zip(y).map(|(xi, yi)| (xi - mx) * (yi - my)).sum();
    let slope = sxy / sxx;
    let intercept = my - slope * mx;
    let ss_res: f64 = x
        .iter()
        .zip(y)
        .map(|(xi, yi)| {
            let e = yi - (intercept + slope * xi);
            e * e
        })
        .sum();
    let ss_tot: f64 = y.iter().map(|yi| (yi - my) * (yi - my)).sum();
    let r_squared = if ss_tot > 0.0 {
        1.0 - ss_res / ss_tot
    } else {
        1.0
    };
    let dof = (x.len().max(3) - 2) as f64;
    let sigma2 = ss_res / dof;
    let slope_stderr = (sigma2 / sxx).sqrt();
    let intercept_stderr = (sigma2 * (1.0 / n + mx * mx / sxx)).sqrt();
    Some(LinearFit {
        intercept,
        slope,
        intercept_stderr,
        slope_stderr,
        r_squared,
    })
}

/// Negative derivative of the Fermi function, `-∂f/∂E`, in 1/eV.
///
/// This is the thermal broadening kernel of the finite-temperature Landauer
/// integral (paper Section III.A).
pub fn fermi_dirac_neg_derivative(e_ev: f64, t_kelvin: f64) -> f64 {
    let kt = crate::consts::K_B_EV * t_kelvin;
    if kt <= 0.0 {
        return 0.0;
    }
    let x = e_ev / (2.0 * kt);
    if x.abs() > 250.0 {
        return 0.0;
    }
    let sech = 1.0 / x.cosh();
    sech * sech / (4.0 * kt)
}

/// Composite Simpson quadrature over `[a, b]` with `n` intervals (rounded
/// up to even), every node evaluated in one call: `f` receives the
/// `n + 1` nodes in ascending order (exactly `a`, then `a + i·h`, then
/// exactly `b`) and returns one value per node. The sum is `f(a) + f(b)`
/// plus the weighted interior nodes in ascending order, so the result
/// depends only on the node values, not on whether `f` computes them one
/// by one or as a batch.
///
/// # Panics
///
/// Panics if `n == 0`, the interval is not finite, or `f` returns a
/// different number of values than it was given nodes.
pub fn integrate_simpson_batch(
    f: impl FnOnce(&[f64]) -> Vec<f64>,
    a: f64,
    b: f64,
    n: usize,
) -> f64 {
    assert!(n > 0, "Simpson rule needs at least one interval");
    assert!(
        a.is_finite() && b.is_finite(),
        "integration bounds must be finite"
    );
    let n = if n.is_multiple_of(2) { n } else { n + 1 };
    let h = (b - a) / n as f64;
    let mut nodes = Vec::with_capacity(n + 1);
    nodes.push(a);
    nodes.extend((1..n).map(|i| a + i as f64 * h));
    nodes.push(b);
    let ys = f(&nodes);
    assert_eq!(ys.len(), nodes.len(), "one value per Simpson node");
    let mut acc = ys[0] + ys[n];
    for (i, y) in ys.iter().enumerate().take(n).skip(1) {
        let w = if i % 2 == 1 { 4.0 } else { 2.0 };
        acc += w * y;
    }
    acc * h / 3.0
}

/// Clamps `x` into `[lo, hi]`.
#[inline]
pub fn clamp(x: f64, lo: f64, hi: f64) -> f64 {
    x.max(lo).min(hi)
}

/// Linear interpolation of tabulated `(xs, ys)` at `x`, clamping outside the
/// table. `xs` must be sorted ascending.
///
/// # Panics
///
/// Panics if the slices are empty or differ in length.
pub fn interp1(xs: &[f64], ys: &[f64], x: f64) -> f64 {
    assert_eq!(xs.len(), ys.len(), "interp1 slices must match");
    assert!(!xs.is_empty(), "interp1 needs at least one point");
    if x <= xs[0] {
        return ys[0];
    }
    if x >= xs[xs.len() - 1] {
        return ys[ys.len() - 1];
    }
    let idx = xs.partition_point(|&v| v < x);
    let (x0, x1) = (xs[idx - 1], xs[idx]);
    let (y0, y1) = (ys[idx - 1], ys[idx]);
    if x1 == x0 {
        return y0;
    }
    y0 + (y1 - y0) * (x - x0) / (x1 - x0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stats_basics() {
        let xs = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        assert!((mean(&xs).unwrap() - 5.0).abs() < 1e-12);
        // Sample std of this classic data set is ~2.138.
        assert!((std_dev(&xs).unwrap() - 2.138).abs() < 1e-3);
        assert!((median(&xs).unwrap() - 4.5).abs() < 1e-12);
        assert!((percentile(&xs, 0.0).unwrap() - 2.0).abs() < 1e-12);
        assert!((percentile(&xs, 100.0).unwrap() - 9.0).abs() < 1e-12);
    }

    #[test]
    fn stats_degenerate_inputs() {
        assert_eq!(mean(&[]), None);
        assert_eq!(std_dev(&[1.0]), None);
        assert_eq!(percentile(&[], 50.0), None);
        assert_eq!(percentile(&[1.0], 101.0), None);
    }

    #[test]
    fn linear_fit_recovers_exact_line() {
        let x = [0.5, 1.0, 2.0, 3.0, 5.0];
        let y: Vec<f64> = x.iter().map(|xi| 10.0 + 4.0 * xi).collect();
        let fit = linear_fit(&x, &y).unwrap();
        assert!((fit.intercept - 10.0).abs() < 1e-9);
        assert!((fit.slope - 4.0).abs() < 1e-9);
        assert!(fit.r_squared > 0.999999);
    }

    #[test]
    fn linear_fit_rejects_bad_input() {
        assert!(linear_fit(&[1.0], &[2.0]).is_none());
        assert!(linear_fit(&[1.0, 1.0], &[2.0, 3.0]).is_none());
        assert!(linear_fit(&[1.0, 2.0], &[2.0]).is_none());
    }

    #[test]
    #[should_panic(expected = "NaN in percentile input")]
    fn percentile_panics_on_nan() {
        percentile(&[2.0, 1.0, f64::NAN, 3.0], 95.0);
    }

    #[test]
    #[should_panic(expected = "NaN in percentile input")]
    fn median_panics_on_nan() {
        median(&[f64::NAN, 1.0]);
    }

    /// `f` at every node of a batch, one by one.
    fn each(f: impl Fn(f64) -> f64) -> impl FnOnce(&[f64]) -> Vec<f64> {
        move |xs| xs.iter().map(|&x| f(x)).collect()
    }

    #[test]
    fn fermi_function_limits() {
        // -df/dE is f's drop from 1 to 0: it integrates to 1 and vanishes
        // far from the Fermi level and at zero temperature.
        let total = integrate_simpson_batch(
            each(|e| fermi_dirac_neg_derivative(e, 300.0)),
            -1.0,
            1.0,
            4000,
        );
        assert!((total - 1.0).abs() < 1e-6, "got {total}");
        assert_eq!(fermi_dirac_neg_derivative(20.0, 300.0), 0.0);
        assert_eq!(fermi_dirac_neg_derivative(0.0, 0.0), 0.0);
    }

    #[test]
    fn simpson_integrates_polynomial_exactly() {
        // Simpson is exact for cubics.
        let v = integrate_simpson_batch(each(|x| x * x * x - 2.0 * x + 1.0), 0.0, 2.0, 2);
        let exact = 2.0f64.powi(4) / 4.0 - 2.0f64.powi(2) + 2.0;
        assert!((v - exact).abs() < 1e-12);
    }

    /// The per-point composite Simpson loop the batch form replaced,
    /// kept as the bit-exact reference.
    fn simpson_reference(f: impl Fn(f64) -> f64, a: f64, b: f64, n: usize) -> f64 {
        let n = if n.is_multiple_of(2) { n } else { n + 1 };
        let h = (b - a) / n as f64;
        let mut acc = f(a) + f(b);
        for i in 1..n {
            let w = if i % 2 == 1 { 4.0 } else { 2.0 };
            acc += w * f(a + i as f64 * h);
        }
        acc * h / 3.0
    }

    #[test]
    fn simpson_forms_match_the_per_point_loop_bit_for_bit() {
        let f = |x: f64| fermi_dirac_neg_derivative(x - 0.1, 300.0) * (1.0 + x.sin());
        for n in [1, 2, 3, 7, 600, 601] {
            for (a, b) in [(-0.31, 0.31), (0.0, 1.0), (2.5, -1.25)] {
                let want = simpson_reference(f, a, b, n).to_bits();
                let batch = integrate_simpson_batch(each(f), a, b, n);
                assert_eq!(batch.to_bits(), want, "n = {n}");
            }
        }
    }

    #[test]
    fn simpson_batch_nodes_are_exact_at_both_ends() {
        // Odd n rounds up to the next even count: 7 → 8 intervals.
        let (a, b) = (0.1, 0.7);
        integrate_simpson_batch(
            |xs| {
                assert_eq!(xs.len(), 9);
                assert_eq!(xs[0].to_bits(), a.to_bits());
                assert_eq!(xs[8].to_bits(), b.to_bits());
                let h = (b - a) / 8.0;
                for (i, x) in xs.iter().enumerate().take(8).skip(1) {
                    assert_eq!(x.to_bits(), (a + i as f64 * h).to_bits());
                }
                vec![0.0; xs.len()]
            },
            a,
            b,
            7,
        );
    }

    #[test]
    #[should_panic(expected = "one value per Simpson node")]
    fn simpson_batch_rejects_a_short_answer() {
        integrate_simpson_batch(|xs| vec![0.0; xs.len() - 1], 0.0, 1.0, 4);
    }

    #[test]
    fn interp1_clamps_and_interpolates() {
        let xs = [0.0, 1.0, 2.0];
        let ys = [0.0, 10.0, 40.0];
        assert_eq!(interp1(&xs, &ys, -1.0), 0.0);
        assert_eq!(interp1(&xs, &ys, 3.0), 40.0);
        assert!((interp1(&xs, &ys, 0.5) - 5.0).abs() < 1e-12);
        assert!((interp1(&xs, &ys, 1.5) - 25.0).abs() < 1e-12);
    }
}
