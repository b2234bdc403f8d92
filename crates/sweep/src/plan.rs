//! Sweep plans: typed axis sets flattened into independent jobs.

use crate::axis::Axis;
use crate::seed::{fnv1a, fnv1a_continue};
use std::sync::Arc;

/// A full sweep: an identifier plus the cartesian product of its axes.
///
/// Axis order is significant — the **last** axis varies fastest, matching
/// the nesting order of the serial loops these plans replace (outermost
/// axis first).
#[derive(Debug, Clone, PartialEq)]
pub struct SweepPlan {
    id: String,
    axes: Vec<Axis>,
    names: Arc<[String]>,
}

impl SweepPlan {
    /// Creates an empty plan with an identifier (used in cache keys).
    pub fn new(id: impl Into<String>) -> Self {
        Self {
            id: id.into(),
            axes: Vec::new(),
            names: Arc::from(Vec::new()),
        }
    }

    /// Appends an axis (builder style).
    pub fn axis(mut self, axis: Axis) -> Self {
        self.axes.push(axis);
        self.names = self.axes.iter().map(|a| a.name().to_string()).collect();
        self
    }

    /// Total number of jobs (product of axis lengths; 0 for an axis-less
    /// plan).
    pub fn len(&self) -> usize {
        if self.axes.is_empty() {
            0
        } else {
            self.axes.iter().map(Axis::len).product()
        }
    }

    /// Whether the plan has no jobs.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Decodes flat job `index` into its coordinates (mixed-radix, last
    /// axis fastest).
    ///
    /// # Panics
    ///
    /// Panics if `index >= self.len()`.
    pub fn job(&self, index: usize) -> Job {
        assert!(index < self.len(), "job index {index} out of range");
        let mut values = vec![0.0; self.axes.len()];
        let mut rem = index;
        for (slot, axis) in values.iter_mut().zip(&self.axes).rev() {
            *slot = axis.value(rem % axis.len());
            rem /= axis.len();
        }
        Job {
            index,
            names: Arc::clone(&self.names),
            values,
        }
    }

    /// A stable content hash of the plan: id, axis names, and every axis
    /// value's exact bit pattern. Two plans fingerprint equal iff they
    /// describe the same job grid. The bytes are hashed as they are
    /// produced, so a trial axis is never materialised.
    pub fn fingerprint(&self) -> u64 {
        let mut hash = fnv1a(self.id.as_bytes());
        for axis in &self.axes {
            hash = fnv1a_continue(hash, &[0xff]); // axis separator
            hash = fnv1a_continue(hash, axis.name().as_bytes());
            hash = fnv1a_continue(hash, &[0xfe]);
            for i in 0..axis.len() {
                hash = fnv1a_continue(hash, &axis.value(i).to_bits().to_le_bytes());
            }
        }
        hash
    }
}

/// One independent work item: a point in the sweep grid.
#[derive(Debug, Clone, PartialEq)]
pub struct Job {
    index: usize,
    names: Arc<[String]>,
    values: Vec<f64>,
}

impl Job {
    /// The flat index of this job in its plan.
    pub fn index(&self) -> usize {
        self.index
    }

    /// The coordinate on the named axis, if that axis exists.
    pub fn get(&self, axis: &str) -> Option<f64> {
        let i = self.names.iter().position(|n| n == axis)?;
        Some(self.values[i])
    }

    /// The coordinate on the named axis, rounded to the nearest integer —
    /// convenience for count-like axes (shell count, trial index).
    pub fn get_usize(&self, axis: &str) -> Option<usize> {
        Some(self.get(axis)?.round() as usize)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `sweep.variability`'s plan at 3 trials, fingerprinted when trial
    /// axes still stored their values.
    const PINNED_VARIABILITY_T3: u64 = 0x95d6_e7af_5504_8c5f;

    fn plan() -> SweepPlan {
        SweepPlan::new("p")
            .axis(Axis::grid("a", &[1.0, 2.0, 3.0]))
            .axis(Axis::grid("b", &[10.0, 20.0]))
    }

    #[test]
    fn flattening_matches_nested_loops() {
        let p = plan();
        assert_eq!(p.len(), 6);
        let mut expected = Vec::new();
        for &a in &[1.0, 2.0, 3.0] {
            for &b in &[10.0, 20.0] {
                expected.push((a, b));
            }
        }
        let got: Vec<(f64, f64)> = (0..p.len())
            .map(|i| (p.job(i).get("a").unwrap(), p.job(i).get("b").unwrap()))
            .collect();
        assert_eq!(got, expected);
        assert_eq!(p.job(5).index(), 5);
        assert_eq!(p.job(0).get("missing"), None);
    }

    #[test]
    fn empty_plan_has_no_jobs() {
        let p = SweepPlan::new("empty");
        assert!(p.is_empty());
        assert_eq!(p.len(), 0);
    }

    #[test]
    fn fingerprint_tracks_content() {
        let a = plan();
        assert_eq!(a.fingerprint(), plan().fingerprint());
        let renamed = SweepPlan::new("q")
            .axis(Axis::grid("a", &[1.0, 2.0, 3.0]))
            .axis(Axis::grid("b", &[10.0, 20.0]));
        assert_ne!(a.fingerprint(), renamed.fingerprint());
        let perturbed = SweepPlan::new("p")
            .axis(Axis::grid("a", &[1.0, 2.0, 3.0]))
            .axis(Axis::grid("b", &[10.0, 20.5]));
        assert_ne!(a.fingerprint(), perturbed.fingerprint());
        // Axis *names* are part of the identity too.
        let other_names = SweepPlan::new("p")
            .axis(Axis::grid("x", &[1.0, 2.0, 3.0]))
            .axis(Axis::grid("b", &[10.0, 20.0]));
        assert_ne!(a.fingerprint(), other_names.fingerprint());
    }

    #[test]
    fn trial_axis_fingerprints_as_its_materialised_grid() {
        // The fingerprint seeds every job stream and keys every cached
        // table, so a trial axis must hash exactly as the list
        // `0, 1, …, n-1` it stands for.
        for n in 1..=5 {
            let grid: Vec<f64> = (0..n).map(|i| i as f64).collect();
            let listed = SweepPlan::new("t")
                .axis(Axis::grid("d", &[1.5, 2.5]))
                .axis(Axis::grid("trial", &grid));
            let counted = SweepPlan::new("t")
                .axis(Axis::grid("d", &[1.5, 2.5]))
                .axis(Axis::trials(n));
            assert_eq!(counted.fingerprint(), listed.fingerprint(), "n = {n}");
            for i in 0..counted.len() {
                assert_eq!(counted.job(i), listed.job(i));
            }
        }
        // Pinned bits: the same plan fingerprinted before trial axes
        // stopped storing their values.
        let plan = SweepPlan::new("sweep.variability")
            .axis(Axis::grid("nc", &[0.0, 4.0, 6.0, 10.0]))
            .axis(Axis::trials(3));
        assert_eq!(plan.fingerprint(), PINNED_VARIABILITY_T3);
    }

    #[test]
    fn get_usize_rounds() {
        let p = SweepPlan::new("t").axis(Axis::trials(3));
        assert_eq!(p.job(2).get_usize("trial"), Some(2));
    }
}
