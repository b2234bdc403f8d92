//! Waveform measurements: propagation delay — the `.measure` card of
//! classic SPICE decks.

use crate::{Error, Result};

/// First time `wave` crosses `threshold`, in either direction, at or
/// after `t_start`, linearly interpolated between samples.
///
/// # Errors
///
/// Returns [`Error::InvalidOptions`] if no crossing exists.
fn crossing_time(wave: &[(f64, f64)], threshold: f64, t_start: f64) -> Result<f64> {
    for w in wave.windows(2) {
        let (t0, v0) = w[0];
        let (t1, v1) = w[1];
        if t1 < t_start {
            continue;
        }
        let rising = v0 < threshold && v1 >= threshold;
        let falling = v0 > threshold && v1 <= threshold;
        if rising || falling {
            let frac = if (v1 - v0).abs() < f64::MIN_POSITIVE {
                0.0
            } else {
                (threshold - v0) / (v1 - v0)
            };
            let t = t0 + frac * (t1 - t0);
            if t >= t_start {
                return Ok(t);
            }
        }
    }
    Err(Error::InvalidOptions("no threshold crossing found"))
}

/// 50 %-to-50 % propagation delay between an input and an output waveform
/// swinging between `v_low` and `v_high`. The output crossing is searched
/// *after* the input crossing (in either direction), so inverting stages
/// measure correctly.
///
/// # Errors
///
/// Returns [`Error::InvalidOptions`] when either waveform never crosses
/// its midpoint.
pub fn propagation_delay(
    input: &[(f64, f64)],
    output: &[(f64, f64)],
    v_low: f64,
    v_high: f64,
) -> Result<f64> {
    let mid = 0.5 * (v_low + v_high);
    let t_in = crossing_time(input, mid, 0.0)?;
    let t_out = crossing_time(output, mid, t_in)?;
    Ok(t_out - t_in)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp() -> Vec<(f64, f64)> {
        // 0 → 1 V linear ramp over 10 ns, sampled every ns.
        (0..=10)
            .map(|k| (k as f64 * 1e-9, k as f64 * 0.1))
            .collect()
    }

    #[test]
    fn crossing_interpolates_linearly() {
        let w = ramp();
        let t = crossing_time(&w, 0.55, 0.0).unwrap();
        assert!((t - 5.5e-9).abs() < 1e-15);
        assert!(crossing_time(&w, 2.0, 0.0).is_err());
    }

    #[test]
    fn start_time_filter() {
        // Triangle: up then down.
        let mut w = ramp();
        w.extend((1..=10).map(|k| (10e-9 + k as f64 * 1e-9, 1.0 - k as f64 * 0.1)));
        let up = crossing_time(&w, 0.5, 0.0).unwrap();
        let down = crossing_time(&w, 0.5, 11e-9).unwrap();
        assert!(up < 6e-9);
        assert!(down > 14e-9);
    }

    #[test]
    fn delay_between_shifted_edges() {
        let input: Vec<(f64, f64)> = (0..=100)
            .map(|k| {
                let t = k as f64 * 1e-11;
                (t, if t > 1e-10 { 1.0 } else { 0.0 })
            })
            .collect();
        let output: Vec<(f64, f64)> = (0..=100)
            .map(|k| {
                let t = k as f64 * 1e-11;
                (t, if t > 5e-10 { 0.0 } else { 1.0 })
            })
            .collect();
        // Inverting stage: input rises at ~0.1 ns, output falls at ~0.5 ns.
        let d = propagation_delay(&input, &output, 0.0, 1.0).unwrap();
        assert!((d - 4e-10).abs() < 2e-11, "delay {d}");
    }

    #[test]
    fn rise_and_fall_times_of_ramp() {
        let w = ramp();
        let t10 = crossing_time(&w, 0.1, 0.0).unwrap();
        let tr = crossing_time(&w, 0.9, t10).unwrap() - t10;
        assert!((tr - 8e-9).abs() < 1e-12, "rise {tr}");
        let mut down: Vec<(f64, f64)> = ramp().into_iter().map(|(t, v)| (t, 1.0 - v)).collect();
        down.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap());
        let t90 = crossing_time(&down, 0.9, 0.0).unwrap();
        let tf = crossing_time(&down, 0.1, t90).unwrap() - t90;
        assert!((tf - 8e-9).abs() < 1e-12, "fall {tf}");
    }
}
