//! The JSON bodies of the `/v1` API, derived from the experiment
//! registry, plus the `POST …/run` request-body decoder.
//!
//! Every body is written and read through the workspace codec,
//! [`cnt_obs::json`] — the same emitters the report serializer uses — and
//! ends in a newline, so `curl … | repro check-json` works on every route.

use cnt_interconnect::experiments::format::OutputFormat;
use cnt_interconnect::experiments::{registry, Experiment, ParamValue};
use cnt_obs::json::{self, JsonValue};

/// An `{"error": …}` body carrying the canonical error message (the same
/// `Display` text the CLI prints).
pub fn error_json(message: &str) -> String {
    let mut out = String::with_capacity(message.len() + 16);
    out.push_str("{\"error\":");
    json::push_string(message, &mut out);
    out.push_str("}\n");
    out
}

/// The canonical backpressure body: every shed — worker queue or async
/// job table — answers `503` with the same message shape, so clients key
/// a single retry policy off it.
pub fn busy_json(what: &str) -> String {
    error_json(&format!("server busy: the {what} is full, retry shortly"))
}

/// The `GET /v1/experiments` body: the full catalog with parameter
/// surfaces, catalog order.
pub fn catalog_json() -> String {
    let mut out = String::with_capacity(4096);
    out.push_str("{\"experiments\":[");
    for (i, exp) in registry().iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        push_experiment(exp, &mut out);
    }
    out.push_str("]}\n");
    out
}

/// The `GET /v1/experiments/{id}` body, if the id exists — the same data
/// `repro info <id>` prints, as one JSON object.
pub fn experiment_json(id: &str) -> Option<String> {
    let exp = registry().get(id).ok()?;
    let mut out = String::with_capacity(1024);
    push_experiment(exp, &mut out);
    out.push('\n');
    Some(out)
}

fn push_experiment(exp: &Experiment, out: &mut String) {
    out.push_str("{\"id\":");
    json::push_string(exp.id(), out);
    out.push_str(",\"title\":");
    json::push_string(exp.title(), out);
    out.push_str(&format!(
        ",\"sweep\":{},\"extra\":{},\"params\":[",
        exp.has_sweep(),
        exp.is_extra()
    ));
    for (i, def) in exp.params().defs().iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("{\"key\":");
        json::push_string(def.key, out);
        out.push_str(",\"kind\":");
        json::push_string(def.default.kind(), out);
        out.push_str(",\"doc\":");
        json::push_string(def.doc, out);
        out.push_str(",\"default\":");
        push_param_value(&def.default, out);
        let (min, max) = def.bounds();
        out.push_str(&format!(",\"min\":{min},\"max\":{max}}}"));
    }
    out.push_str("],\"presets\":[");
    for (i, preset) in exp.params().presets().iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("{\"name\":");
        json::push_string(preset.name, out);
        out.push_str(",\"doc\":");
        json::push_string(preset.doc, out);
        out.push_str(",\"sets\":{");
        for (j, (key, value)) in preset.sets.iter().enumerate() {
            if j > 0 {
                out.push(',');
            }
            json::push_string(key, out);
            out.push(':');
            push_param_value(value, out);
        }
        out.push_str("}}");
    }
    out.push_str("]}");
}

fn push_param_value(value: &ParamValue, out: &mut String) {
    match value {
        ParamValue::Int(v) => out.push_str(&v.to_string()),
        ParamValue::Float(v) => out.push_str(&json::number(*v)),
    }
}

/// A decoded `POST …/run` body.
#[derive(Debug, Default, PartialEq)]
pub struct RunRequest {
    /// Named preset to expand before the overrides.
    pub preset: Option<String>,
    /// `key = raw-value` overrides, body order. Raw tokens feed the same
    /// typed parser as `--set`, so rejections match the CLI's.
    pub sets: Vec<(String, String)>,
    /// Requested rendering.
    pub format: OutputFormat,
}

/// Decodes a run request. An empty body means "defaults, JSON".
///
/// # Errors
///
/// Returns a client-facing message (→ `400`) on malformed JSON, unknown
/// members, or values of unusable shape.
pub fn parse_run_request(body: &[u8]) -> Result<RunRequest, String> {
    let text = core::str::from_utf8(body).map_err(|e| format!("body is not UTF-8: {e}"))?;
    let mut request = RunRequest {
        format: OutputFormat::Json,
        ..RunRequest::default()
    };
    if text.trim().is_empty() {
        return Ok(request);
    }
    let JsonValue::Object(members) = json::parse(text).map_err(|e| e.to_string())? else {
        return Err("request body must be a JSON object".to_string());
    };
    for (name, value) in members {
        match name.as_str() {
            "params" => {
                let JsonValue::Object(knobs) = value else {
                    return Err("\"params\" must be an object of key/value overrides".to_string());
                };
                for (key, v) in knobs {
                    let raw = match v {
                        JsonValue::Number(raw) => raw,
                        JsonValue::String(s) => s,
                        other => {
                            return Err(format!(
                                "parameter \"{key}\" must be a number or string, not {}",
                                kind_name(&other)
                            ))
                        }
                    };
                    request.sets.push((key, raw));
                }
            }
            "preset" => {
                let JsonValue::String(name) = value else {
                    return Err("\"preset\" must be a string".to_string());
                };
                request.preset = Some(name);
            }
            "format" => {
                let JsonValue::String(f) = value else {
                    return Err("\"format\" must be \"json\" or \"csv\"".to_string());
                };
                request.format = match f.as_str() {
                    "json" => OutputFormat::Json,
                    "csv" => OutputFormat::Csv,
                    other => return Err(format!("unknown format \"{other}\" (valid: json csv)")),
                };
            }
            other => {
                return Err(format!(
                    "unknown member \"{other}\" (valid: params preset format)"
                ))
            }
        }
    }
    Ok(request)
}

fn kind_name(value: &JsonValue) -> &'static str {
    match value {
        JsonValue::Null => "null",
        JsonValue::Bool(_) => "a boolean",
        JsonValue::Number(_) => "a number",
        JsonValue::String(_) => "a string",
        JsonValue::Array(_) => "an array",
        JsonValue::Object(_) => "an object",
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cnt_interconnect::experiments::{self, format::check_json_stream, RunContext};

    #[test]
    fn catalog_lists_every_id_and_stays_parseable() {
        let body = catalog_json();
        check_json_stream(&body).expect("catalog body must be valid JSON");
        for id in experiments::catalog() {
            assert!(
                body.contains(&format!("{{\"id\":\"{id}\",")),
                "{id} missing"
            );
        }
        assert!(body.ends_with("\n"));
    }

    #[test]
    fn experiment_json_carries_params_and_presets() {
        let body = experiment_json("table1").expect("table1 exists");
        check_json_stream(&body).expect("experiment body must be valid JSON");
        assert!(body.contains("\"key\":\"width_nm\""));
        assert!(body.contains("\"min\":20,\"max\":1000"));
        assert!(body.contains("\"name\":\"projected\""));
        assert!(body.contains("\"width_nm\":20"));
        assert!(experiment_json("fig99").is_none());
    }

    #[test]
    fn advertised_integer_bounds_are_accepted_values() {
        let catalog = json::parse(&catalog_json()).expect("catalog parses");
        let Some(JsonValue::Array(experiments)) = catalog.get("experiments") else {
            panic!("catalog has no experiments array");
        };
        let mut checked = 0;
        for exp in experiments {
            let id = exp.get("id").and_then(JsonValue::as_str).expect("id");
            let spec = registry().get(id).expect("catalog id resolves").params();
            let Some(JsonValue::Array(params)) = exp.get("params") else {
                panic!("{id} has no params array");
            };
            for param in params {
                if param.get("kind").and_then(JsonValue::as_str) != Some("integer") {
                    continue;
                }
                let key = param.get("key").and_then(JsonValue::as_str).expect("key");
                for bound in ["min", "max"] {
                    let Some(JsonValue::Number(raw)) = param.get(bound) else {
                        panic!("{id}.{key} has no numeric {bound}");
                    };
                    let mut ctx = RunContext::defaults(spec);
                    ctx.set(spec, key, raw).unwrap_or_else(|e| {
                        panic!("{id}.{key}: advertised {bound} {raw} is refused: {e}")
                    });
                    checked += 1;
                }
            }
        }
        // Every id declares at least the two integer knobs trials and seed.
        assert!(checked >= 4 * experiments.len(), "{checked}");
    }

    #[test]
    fn run_requests_decode_with_raw_tokens() {
        let req = parse_run_request(
            br#"{"params": {"nc": 6, "length_um": 2e2, "seed": "7"}, "format": "csv", "preset": "doped-local"}"#,
        )
        .unwrap();
        assert_eq!(req.format, OutputFormat::Csv);
        assert_eq!(req.preset.as_deref(), Some("doped-local"));
        assert_eq!(
            req.sets,
            vec![
                ("nc".to_string(), "6".to_string()),
                ("length_um".to_string(), "2e2".to_string()),
                ("seed".to_string(), "7".to_string()),
            ]
        );
        // Empty body = defaults.
        let empty = parse_run_request(b"").unwrap();
        assert_eq!(empty.format, OutputFormat::Json);
        assert!(empty.sets.is_empty() && empty.preset.is_none());
    }

    #[test]
    fn run_request_rejections_are_specific() {
        for (body, needle) in [
            (&b"[1,2]"[..], "must be a JSON object"),
            (b"{\"params\": 3}", "must be an object"),
            (b"{\"params\": {\"nc\": true}}", "number or string"),
            (b"{\"format\": \"text\"}", "valid: json csv"),
            (b"{\"preset\": 1}", "must be a string"),
            (b"{\"bogus\": 1}", "unknown member"),
            (b"{\"params\"", "invalid JSON"),
        ] {
            let err = parse_run_request(body).unwrap_err();
            assert!(err.contains(needle), "{err:?} missing {needle:?}");
        }
    }

    #[test]
    fn error_bodies_escape_and_terminate() {
        let body = error_json("a \"quoted\" failure");
        assert_eq!(body, "{\"error\":\"a \\\"quoted\\\" failure\"}\n");
    }

    #[test]
    fn shed_bodies_share_one_canonical_shape() {
        assert_eq!(
            busy_json("request queue"),
            "{\"error\":\"server busy: the request queue is full, retry shortly\"}\n"
        );
        assert_eq!(
            busy_json("job table"),
            "{\"error\":\"server busy: the job table is full, retry shortly\"}\n"
        );
    }
}
