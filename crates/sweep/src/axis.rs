//! A named parameter axis of a sweep.

/// One swept parameter: a name plus the ordered values it takes.
///
/// A Monte-Carlo trial axis takes the trial indices `0.0, 1.0, …` — a
/// job's random stream is derived from its flat index, so the trial axis
/// only controls *how many* independent draws a cell gets. It stores its
/// length, not its values, so a plan's memory does not grow with the
/// trial count.
#[derive(Debug, Clone, PartialEq)]
pub struct Axis {
    name: String,
    values: Values,
}

#[derive(Debug, Clone, PartialEq)]
enum Values {
    /// An explicit list.
    Grid(Vec<f64>),
    /// `0, 1, …, n-1`.
    Trials(usize),
}

impl Axis {
    /// An explicit grid of values.
    ///
    /// # Panics
    ///
    /// Panics if `values` is empty (an axis must contribute at least one
    /// point; build degenerate sweeps by omitting the axis instead).
    pub fn grid(name: impl Into<String>, values: &[f64]) -> Self {
        assert!(!values.is_empty(), "axis needs at least one value");
        Self {
            name: name.into(),
            values: Values::Grid(values.to_vec()),
        }
    }

    /// A Monte-Carlo trial axis: values `0, 1, …, n-1` under the
    /// conventional name `"trial"`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn trials(n: usize) -> Self {
        assert!(n > 0, "trial axis needs at least one trial");
        Self {
            name: "trial".to_string(),
            values: Values::Trials(n),
        }
    }

    /// The axis name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The value at position `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.len()`.
    pub fn value(&self, i: usize) -> f64 {
        match &self.values {
            Values::Grid(values) => values[i],
            Values::Trials(n) => {
                assert!(i < *n, "trial {i} out of range for {n} trials");
                i as f64
            }
        }
    }

    /// Number of points on this axis.
    pub fn len(&self) -> usize {
        match &self.values {
            Values::Grid(values) => values.len(),
            Values::Trials(n) => *n,
        }
    }

    /// Whether the axis is empty (never true for a constructed axis).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trial_axis_counts_from_zero() {
        let t = Axis::trials(3);
        assert_eq!(t.name(), "trial");
        assert_eq!(t.len(), 3);
        let values: Vec<f64> = (0..t.len()).map(|i| t.value(i)).collect();
        assert_eq!(values, [0.0, 1.0, 2.0]);
        assert!(!t.is_empty());
    }
}
