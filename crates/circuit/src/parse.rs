//! SPICE-like netlist parser.
//!
//! Consumes the "SPICE-like format" the paper's TCAD flow emits
//! (Section III.B) — which in this workspace is produced by
//! `cnt-fields::netlist::NetlistWriter` — plus hand-written decks with
//! sources and MOSFETs. Supported cards:
//!
//! ```text
//! * comment
//! R<name> n1 n2 <value>
//! C<name> n1 n2 <value>
//! L<name> n1 n2 <value>
//! V<name> n+ n- <dc value> | PULSE(v0 v1 delay rise fall width period) | PWL(t1 v1 t2 v2 …)
//! I<name> n+ n- <dc value>
//! M<name> d g s NMOS45|PMOS45 [W=<value>] [L=<value>]
//! .end
//! ```
//!
//! Values accept engineering suffixes (`f p n u µ m k meg g t`) as in
//! SPICE (`MEG` = 1e6, `m` = 1e-3).

use crate::circuit::Circuit;
use crate::mosfet::MosfetModel;
use crate::waveform::Waveform;
use crate::{Error, Result};

/// Parses a netlist into a [`Circuit`].
///
/// # Errors
///
/// Returns [`Error::Parse`] with line information for malformed cards and
/// propagates element-construction errors.
///
/// # Example
///
/// ```
/// use cnt_circuit::parse::parse_netlist;
///
/// let c = parse_netlist("* divider\nV1 in 0 1.0\nR1 in out 1k\nR2 out 0 1k\n.end\n")?;
/// let dc = c.dc_operating_point()?;
/// assert!((dc.voltage("out")? - 0.5).abs() < 1e-9);
/// # Ok::<(), cnt_circuit::Error>(())
/// ```
pub fn parse_netlist(text: &str) -> Result<Circuit> {
    let mut circuit = Circuit::new();
    for (lineno, raw) in text.lines().enumerate() {
        let line = raw.trim();
        let n = lineno + 1;
        if line.is_empty() || line.starts_with('*') {
            continue;
        }
        if line.eq_ignore_ascii_case(".end") {
            break;
        }
        if line.starts_with('.') {
            // Other dot-cards (.tran, .model …) are accepted and ignored:
            // analysis is driven through the API.
            continue;
        }
        let upper = line.chars().next().unwrap().to_ascii_uppercase();
        let tokens: Vec<&str> = tokenize(line);
        match upper {
            'R' | 'C' | 'L' => parse_two_terminal(&mut circuit, &tokens, upper, n)?,
            'V' | 'I' => parse_source(&mut circuit, &tokens, upper, line, n)?,
            'M' => parse_mosfet(&mut circuit, &tokens, n)?,
            other => {
                return Err(Error::Parse {
                    line: n,
                    message: format!("unsupported element type '{other}'"),
                })
            }
        }
    }
    Ok(circuit)
}

/// Splits on whitespace but keeps `PULSE(...)`/`PWL(...)` groups intact.
fn tokenize(line: &str) -> Vec<&str> {
    let mut tokens = Vec::new();
    let mut depth = 0usize;
    let mut start = None::<usize>;
    for (i, ch) in line.char_indices() {
        match ch {
            '(' => {
                depth += 1;
                if start.is_none() {
                    start = Some(i);
                }
            }
            ')' => depth = depth.saturating_sub(1),
            c if c.is_whitespace() && depth == 0 => {
                if let Some(s) = start.take() {
                    tokens.push(&line[s..i]);
                }
            }
            _ => {
                if start.is_none() {
                    start = Some(i);
                }
            }
        }
    }
    if let Some(s) = start {
        tokens.push(&line[s..]);
    }
    tokens
}

/// Parses a SPICE value with engineering suffix.
pub fn parse_value(s: &str) -> Option<f64> {
    let lower = s.trim().to_ascii_lowercase();
    if lower.is_empty() {
        return None;
    }
    // Longest suffixes first.
    let table: [(&str, f64); 11] = [
        ("meg", 1e6),
        ("mil", 25.4e-6),
        ("t", 1e12),
        ("g", 1e9),
        ("k", 1e3),
        ("m", 1e-3),
        ("u", 1e-6),
        ("µ", 1e-6),
        ("n", 1e-9),
        ("p", 1e-12),
        ("f", 1e-15),
    ];
    for (suffix, scale) in table {
        if let Some(stripped) = lower.strip_suffix(suffix) {
            // Guard against stripping the exponent 'e' forms like "1e-15".
            if let Ok(v) = stripped.parse::<f64>() {
                return Some(v * scale);
            }
        }
    }
    lower.parse::<f64>().ok()
}

fn need<'a>(tokens: &'a [&'a str], idx: usize, line: usize, what: &str) -> Result<&'a str> {
    tokens.get(idx).copied().ok_or_else(|| Error::Parse {
        line,
        message: format!("missing {what}"),
    })
}

fn parse_two_terminal(c: &mut Circuit, tokens: &[&str], kind: char, line: usize) -> Result<()> {
    let name = need(tokens, 0, line, "element name")?;
    let n1 = need(tokens, 1, line, "first node")?;
    let n2 = need(tokens, 2, line, "second node")?;
    let vs = need(tokens, 3, line, "value")?;
    let value = parse_value(vs).ok_or_else(|| Error::Parse {
        line,
        message: format!("bad value '{vs}'"),
    })?;
    let a = c.node(n1);
    let b = c.node(n2);
    match kind {
        'R' => c.add_resistor(name, a, b, value),
        'C' => c.add_capacitor(name, a, b, value),
        'L' => c.add_inductor(name, a, b, value),
        _ => unreachable!("caller dispatches only R/C/L"),
    }
}

fn parse_source(
    c: &mut Circuit,
    tokens: &[&str],
    kind: char,
    line_text: &str,
    line: usize,
) -> Result<()> {
    let name = need(tokens, 0, line, "source name")?;
    let np = need(tokens, 1, line, "positive node")?;
    let nn = need(tokens, 2, line, "negative node")?;
    let spec = need(tokens, 3, line, "source value")?;
    let wave = parse_waveform(spec, line_text, line)?;
    let p = c.node(np);
    let n = c.node(nn);
    match kind {
        'V' => c.add_vsource(name, p, n, wave),
        'I' => c.add_isource(name, p, n, wave),
        _ => unreachable!("caller dispatches only V/I"),
    }
}

fn parse_waveform(spec: &str, _line_text: &str, line: usize) -> Result<Waveform> {
    let upper = spec.to_ascii_uppercase();
    if let Some(args) = strip_call(&upper, spec, "PULSE") {
        let vals = parse_args(&args, line)?;
        if vals.len() != 7 {
            return Err(Error::Parse {
                line,
                message: format!("PULSE needs 7 arguments, got {}", vals.len()),
            });
        }
        return Ok(Waveform::Pulse {
            v0: vals[0],
            v1: vals[1],
            delay: vals[2],
            rise: vals[3].max(1e-15),
            fall: vals[4].max(1e-15),
            width: vals[5],
            period: vals[6],
        });
    }
    if let Some(args) = strip_call(&upper, spec, "PWL") {
        let vals = parse_args(&args, line)?;
        if vals.len() < 2 || vals.len() % 2 != 0 {
            return Err(Error::Parse {
                line,
                message: "PWL needs an even number of arguments".to_string(),
            });
        }
        let pts = vals.chunks(2).map(|c| (c[0], c[1])).collect();
        return Ok(Waveform::Pwl(pts));
    }
    if let Some(args) = strip_call(&upper, spec, "SIN") {
        let vals = parse_args(&args, line)?;
        if vals.len() < 3 {
            return Err(Error::Parse {
                line,
                message: "SIN needs offset, amplitude, frequency".to_string(),
            });
        }
        return Ok(Waveform::Sin {
            offset: vals[0],
            ampl: vals[1],
            freq: vals[2],
            delay: vals.get(3).copied().unwrap_or(0.0),
        });
    }
    parse_value(spec)
        .map(Waveform::Dc)
        .ok_or_else(|| Error::Parse {
            line,
            message: format!("bad source value '{spec}'"),
        })
}

/// If `upper` starts with `NAME(`, returns the argument substring of the
/// original `spec`.
fn strip_call(upper: &str, spec: &str, name: &str) -> Option<String> {
    if upper.starts_with(&format!("{name}(")) && spec.ends_with(')') {
        Some(spec[name.len() + 1..spec.len() - 1].to_string())
    } else {
        None
    }
}

fn parse_args(args: &str, line: usize) -> Result<Vec<f64>> {
    args.split(|c: char| c.is_whitespace() || c == ',')
        .filter(|s| !s.is_empty())
        .map(|s| {
            parse_value(s).ok_or_else(|| Error::Parse {
                line,
                message: format!("bad numeric argument '{s}'"),
            })
        })
        .collect()
}

fn parse_mosfet(c: &mut Circuit, tokens: &[&str], line: usize) -> Result<()> {
    let name = need(tokens, 0, line, "mosfet name")?;
    let nd = need(tokens, 1, line, "drain node")?;
    let ng = need(tokens, 2, line, "gate node")?;
    let ns = need(tokens, 3, line, "source node")?;
    let model_name = need(tokens, 4, line, "model name")?.to_ascii_uppercase();
    let mut model = match model_name.as_str() {
        "NMOS45" | "NMOS" => MosfetModel::nmos_45nm(),
        "PMOS45" | "PMOS" => MosfetModel::pmos_45nm(),
        other => {
            return Err(Error::Parse {
                line,
                message: format!("unknown MOSFET model '{other}'"),
            })
        }
    };
    for t in &tokens[5..] {
        let lower = t.to_ascii_lowercase();
        if let Some(v) = lower.strip_prefix("w=") {
            let w = parse_value(v).ok_or_else(|| Error::Parse {
                line,
                message: format!("bad W value '{v}'"),
            })?;
            model = model.with_width(w);
        } else if let Some(v) = lower.strip_prefix("l=") {
            model.length = parse_value(v).ok_or_else(|| Error::Parse {
                line,
                message: format!("bad L value '{v}'"),
            })?;
        } else {
            return Err(Error::Parse {
                line,
                message: format!("unknown MOSFET parameter '{t}'"),
            });
        }
    }
    let d = c.node(nd);
    let g = c.node(ng);
    let s = c.node(ns);
    c.add_mosfet(name, d, g, s, model)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::TranOptions;

    #[test]
    fn value_suffixes() {
        let close = |s: &str, v: f64| {
            let got = parse_value(s).unwrap_or_else(|| panic!("'{s}' should parse"));
            assert!(
                (got - v).abs() <= 1e-12 * v.abs().max(1.0),
                "'{s}' → {got}, want {v}"
            );
        };
        close("1k", 1e3);
        close("2.5meg", 2.5e6);
        close("10u", 1e-5);
        close("10µ", 1e-5);
        close("3n", 3e-9);
        close("4p", 4e-12);
        close("5f", 5e-15);
        close("1e-15", 1e-15);
        close("-0.5", -0.5);
        close("1m", 1e-3);
        assert_eq!(parse_value("bogus"), None);
        assert_eq!(parse_value(""), None);
    }

    #[test]
    fn parses_divider_and_runs_dc() {
        let c = parse_netlist("V1 in 0 2.0\nR1 in out 1k\nR2 out gnd 3k\n.end").unwrap();
        let dc = c.dc_operating_point().unwrap();
        assert!((dc.voltage("out").unwrap() - 1.5).abs() < 1e-9);
    }

    #[test]
    fn parses_pulse_source_and_runs_transient() {
        let text = "\
* RC with pulse
V1 in 0 PULSE(0 1 0 1p 1p 1n 0)
R1 in out 1k
C1 out 0 1p
.end";
        let c = parse_netlist(text).unwrap();
        let tr = c.transient(&TranOptions::new(5e-9, 2e-12)).unwrap();
        let v = tr.waveform("out").unwrap().last().unwrap().1;
        // After the 1 ns pulse ended, output decays towards 0.
        assert!(v < 0.2, "v = {v}");
    }

    #[test]
    fn parses_pwl_and_mosfet_cards() {
        let text = "\
Vdd vdd 0 1.0
Vin in 0 PWL(0 0 10p 0 20p 1)
Mn out in 0 NMOS45 W=180n
Mp out in vdd PMOS45 W=360n
.end";
        let c = parse_netlist(text).unwrap();
        assert!(c.has_nonlinear());
        assert_eq!(c.element_count(), 4);
    }

    #[test]
    fn error_reporting_with_line_numbers() {
        let err = parse_netlist("R1 a b\n").unwrap_err();
        assert!(matches!(err, Error::Parse { line: 1, .. }));
        let err = parse_netlist("V1 a 0 1.0\nQ1 a b c\n").unwrap_err();
        assert!(matches!(err, Error::Parse { line: 2, .. }));
        let err = parse_netlist("V1 a 0 PULSE(0 1)\n").unwrap_err();
        assert!(matches!(err, Error::Parse { line: 1, .. }));
        let err = parse_netlist("M1 d g s BJT\n").unwrap_err();
        assert!(matches!(err, Error::Parse { line: 1, .. }));
    }

    #[test]
    fn ignores_comments_and_dot_cards() {
        let c = parse_netlist("* hi\n.tran 1n 10n\nR1 a 0 1k\n.end\nR2 never 0 1k").unwrap();
        assert_eq!(c.element_count(), 1);
    }

    #[test]
    fn roundtrip_with_fields_netlist_format() {
        // The exact shape NetlistWriter emits.
        let text = "\
* extracted parasitics
* coupling capacitances from field solution
Cc_m1_in_m1_out m1_in m1_out 2.5e-17
Cg_m1_in m1_in 0 1.1e-16
Rline m1_in m1_out 1.29e4
.end";
        let c = parse_netlist(text).unwrap();
        assert_eq!(c.element_count(), 3);
        assert!(c.find_node("m1_in").is_ok());
        assert!(c.find_node("m1_out").is_ok());
    }
}
