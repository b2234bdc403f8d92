//! Collection strategies (`prop::collection::vec`).

use crate::strategy::Strategy;
use core::ops::Range;
use rand::rngs::StdRng;
use rand::Rng;

/// Strategy returned by [`fn@vec`].
#[derive(Debug, Clone)]
pub struct VecStrategy<S> {
    element: S,
    size: Range<usize>,
}

impl<S: Strategy> Strategy for VecStrategy<S> {
    type Value = Vec<S::Value>;
    fn sample(&self, rng: &mut StdRng) -> Self::Value {
        let len = rng.gen_range(self.size.clone());
        (0..len).map(|_| self.element.sample(rng)).collect()
    }
}

/// A `Vec` whose length is drawn from `size` and whose elements are drawn
/// from `element`.
pub fn vec<S: Strategy>(element: S, size: Range<usize>) -> VecStrategy<S> {
    assert!(!size.is_empty(), "empty vec size range");
    VecStrategy { element, size }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn length_and_elements_in_range() {
        let mut rng = StdRng::seed_from_u64(5);
        let s = vec((0.1f64..10.0, 1.0f64..1e6), 3..12);
        for _ in 0..300 {
            let v = s.sample(&mut rng);
            assert!((3..12).contains(&v.len()));
            for (a, b) in v {
                assert!((0.1..10.0).contains(&a));
                assert!((1.0..1e6).contains(&b));
            }
        }
    }
}
