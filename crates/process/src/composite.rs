//! Cu–CNT composite formation: ELD/ECD copper impregnation of CNT carpets.
//!
//! Regenerates the observable content of Figs. 6–7: electroless deposition
//! (ELD) fills vertically aligned carpets but leaves an overburden and a
//! depth-dependent void risk; the electrochemical (ECD) process developed
//! for horizontally aligned carpets achieves void-free filling when a
//! conductive seed is present. The effective-medium electrical model
//! combines the copper matrix with the CNT volume fraction (Section II.C:
//! "an efficient trade-off between resistivity and ampacity can be
//! realized").

use crate::{Error, Result};

/// Copper impregnation method.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DepositionMethod {
    /// Electroless deposition — "lower technical effort, but often involves
    /// a multitude of different chemicals" (Section II.C).
    Electroless,
    /// Electrochemical deposition — "more common, has a lot of control
    /// knobs but needs a conductive substrate".
    Electrochemical,
}

/// CNT carpet orientation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CarpetOrientation {
    /// Vertically aligned (used directly after growth).
    Vertical,
    /// Horizontally aligned (needs the CEA preparation technique).
    Horizontal,
}

/// A composite-formation run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CompositeRecipe {
    /// Impregnation method.
    pub method: DepositionMethod,
    /// Carpet orientation.
    pub orientation: CarpetOrientation,
    /// Feature aspect ratio (depth / width) being filled.
    pub aspect_ratio: f64,
    /// Whether a conductive seed layer is present (required for ECD).
    pub conductive_seed: bool,
    /// CNT volume fraction of the carpet (0–0.5 typical).
    pub cnt_volume_fraction: f64,
}

impl CompositeRecipe {
    /// Simulates the filling step.
    ///
    /// # Errors
    ///
    /// [`Error::InvalidParameter`] for a non-positive aspect ratio or a
    /// volume fraction outside `[0, 0.74]` (close packing).
    pub fn simulate(&self) -> Result<FillResult> {
        if self.aspect_ratio <= 0.0 {
            return Err(Error::InvalidParameter {
                name: "aspect_ratio",
                value: self.aspect_ratio,
            });
        }
        if !(0.0..=0.74).contains(&self.cnt_volume_fraction) {
            return Err(Error::InvalidParameter {
                name: "cnt_volume_fraction",
                value: self.cnt_volume_fraction,
            });
        }
        let (fill, overburden_nm) = match self.method {
            DepositionMethod::Electroless => {
                // Autocatalytic ELD penetrates without a field but slows in
                // deep features; Fig. 6 shows extra Cu crystal growth on top.
                let fill = 0.97 * (-self.aspect_ratio / 12.0).exp();
                (fill, 180.0)
            }
            DepositionMethod::Electrochemical => {
                if !self.conductive_seed {
                    // ECD "needs a conductive substrate" — without one the
                    // feature barely plates.
                    (0.05, 0.0)
                } else {
                    // The developed HA-CNT ECD process achieves void-free
                    // filling (Fig. 7); VA carpets fill slightly worse from
                    // the side.
                    let orient = match self.orientation {
                        CarpetOrientation::Horizontal => 1.0,
                        CarpetOrientation::Vertical => 0.998,
                    };
                    (0.999 * orient * (-self.aspect_ratio / 1000.0).exp(), 40.0)
                }
            }
        };
        // Denser carpets leave less open volume between tubes for the Cu
        // to reach; neutral at the reference 30 % volume fraction so the
        // paper operating point is unchanged.
        let density_penalty = 1.0 - 0.3 * (self.cnt_volume_fraction - 0.3);
        let fill = (fill * density_penalty).clamp(0.0, 1.0);
        // Void probability: a steep sigmoid — cross-sections stay void-free
        // while the fill exceeds ~96 %, then voids appear rapidly.
        let void_probability = 1.0 / (1.0 + ((fill - 0.95) / 0.008).exp());
        Ok(FillResult {
            recipe: *self,
            fill_fraction: fill,
            void_probability,
            overburden_nm,
        })
    }
}

/// Outcome of a composite filling run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FillResult {
    /// The recipe.
    pub recipe: CompositeRecipe,
    /// Copper fill fraction of the inter-tube space (1 = fully dense).
    pub fill_fraction: f64,
    /// Probability that a cross-section shows a void.
    pub void_probability: f64,
    /// Copper overburden thickness to remove by CMP, nanometres.
    pub overburden_nm: f64,
}

impl FillResult {
    /// `true` when the cross-section qualifies as void-free (< 2 % void
    /// probability — the Fig. 7 claim).
    pub fn is_void_free(&self) -> bool {
        self.void_probability < 0.02
    }
}

/// Effective composite conductivity by volume-weighted parallel mixing:
/// `σ = V_cnt·σ_cnt + (1 − V_cnt)·fill·σ_cu`.
///
/// `sigma_cu` should already include size effects (the `cnt-interconnect`
/// crate computes it); `sigma_cnt_axial` is the axial conductivity of the
/// tube fraction.
pub fn composite_conductivity(
    cnt_volume_fraction: f64,
    fill_fraction: f64,
    sigma_cu: f64,
    sigma_cnt_axial: f64,
) -> f64 {
    let v = cnt_volume_fraction.clamp(0.0, 1.0);
    v * sigma_cnt_axial + (1.0 - v) * fill_fraction.clamp(0.0, 1.0) * sigma_cu
}

#[cfg(test)]
mod tests {
    use super::*;

    fn base(method: DepositionMethod, orientation: CarpetOrientation) -> CompositeRecipe {
        CompositeRecipe {
            method,
            orientation,
            aspect_ratio: 2.0,
            conductive_seed: true,
            cnt_volume_fraction: 0.3,
        }
    }

    #[test]
    fn ecd_with_seed_is_void_free_fig7() {
        let r = base(
            DepositionMethod::Electrochemical,
            CarpetOrientation::Horizontal,
        )
        .simulate()
        .unwrap();
        assert!(r.is_void_free(), "{r:?}");
        assert!(r.fill_fraction > 0.93);
    }

    #[test]
    fn ecd_without_seed_fails() {
        let mut recipe = base(
            DepositionMethod::Electrochemical,
            CarpetOrientation::Horizontal,
        );
        recipe.conductive_seed = false;
        let r = recipe.simulate().unwrap();
        assert!(r.fill_fraction < 0.1);
        assert!(!r.is_void_free());
    }

    #[test]
    fn eld_leaves_overburden_fig6() {
        let r = base(DepositionMethod::Electroless, CarpetOrientation::Vertical)
            .simulate()
            .unwrap();
        assert!(
            r.overburden_nm > 100.0,
            "Fig. 6 shows Cu crystal overgrowth"
        );
        assert!(r.fill_fraction > 0.7);
    }

    #[test]
    fn deep_features_fill_worse() {
        let shallow = CompositeRecipe {
            aspect_ratio: 1.0,
            ..base(DepositionMethod::Electroless, CarpetOrientation::Vertical)
        }
        .simulate()
        .unwrap();
        let deep = CompositeRecipe {
            aspect_ratio: 10.0,
            ..base(DepositionMethod::Electroless, CarpetOrientation::Vertical)
        }
        .simulate()
        .unwrap();
        assert!(deep.fill_fraction < shallow.fill_fraction);
        assert!(deep.void_probability > shallow.void_probability);
    }

    #[test]
    fn validation() {
        let mut r = base(DepositionMethod::Electroless, CarpetOrientation::Vertical);
        r.aspect_ratio = 0.0;
        assert!(r.simulate().is_err());
        let mut r = base(DepositionMethod::Electroless, CarpetOrientation::Vertical);
        r.cnt_volume_fraction = 0.9;
        assert!(r.simulate().is_err());
    }

    #[test]
    fn unfilled_fraction_hurts_conductivity() {
        let full = composite_conductivity(0.3, 1.0, 4.0e7, 1.0e7);
        let voided = composite_conductivity(0.3, 0.7, 4.0e7, 1.0e7);
        assert!(voided < full);
        // The axial CNT fraction conducts worse than Cu, so more CNT also
        // lowers it (the ampacity it buys is table1's composite row).
        let lo = composite_conductivity(0.1, 1.0, 4.0e7, 1.0e7);
        let hi = composite_conductivity(0.45, 1.0, 4.0e7, 1.0e7);
        assert!(hi < lo);
    }
}
