//! The on-disk (and on-wire) JSON form of a cached sweep table.
//!
//! One object, `{"key":…,"columns":[…],"rows":[[…],…]}`, written and read
//! through the workspace codec, [`cnt_obs::json`]: numbers in Rust's
//! shortest round-trip `Display` (so `encode ∘ decode` is the identity on
//! every finite `f64`), non-finite values as `null` (read back as NaN).
//! Decoding parses any JSON, then checks that the document has exactly
//! this shape.

use crate::cache::Table;
use crate::{Error, Result};
use cnt_obs::json::{self, JsonValue};

/// Serializes a table to a JSON string (stable field order, no trailing
/// newline).
pub fn encode_table(table: &Table) -> String {
    let mut out = String::with_capacity(256 + table.rows.len() * 24);
    out.push_str("{\"key\":");
    json::push_string(&table.key, &mut out);
    out.push_str(",\"columns\":[");
    for (i, c) in table.columns.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        json::push_string(c, &mut out);
    }
    out.push_str("],\"rows\":[");
    for (i, row) in table.rows.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push('[');
        for (j, v) in row.iter().enumerate() {
            if j > 0 {
                out.push(',');
            }
            out.push_str(&json::number(*v));
        }
        out.push(']');
    }
    out.push_str("]}");
    out
}

/// Parses a table previously written by [`encode_table`].
///
/// # Errors
///
/// Returns [`Error::Parse`] on malformed JSON (with its byte offset) or a
/// wrong shape (offset 0).
pub fn decode_table(text: &str) -> Result<Table> {
    let doc = json::parse(text).map_err(|e| Error::Parse {
        message: e.message,
        offset: e.offset,
    })?;
    let JsonValue::Object(members) = doc else {
        return Err(shape("expected an object"));
    };
    let (mut key, mut columns, mut rows) = (None, None, None);
    for (name, value) in members {
        match name.as_str() {
            "key" => key = Some(string(value)?),
            "columns" => columns = Some(array(value, string)?),
            "rows" => rows = Some(array(value, |row| array(row, number))?),
            other => return Err(shape(format!("unknown member '{other}'"))),
        }
    }
    let table = Table {
        key: key.ok_or_else(|| shape("missing 'key'"))?,
        columns: columns.ok_or_else(|| shape("missing 'columns'"))?,
        rows: rows.ok_or_else(|| shape("missing 'rows'"))?,
    };
    for row in &table.rows {
        if row.len() != table.columns.len() {
            return Err(shape(format!(
                "row width {} disagrees with {} columns",
                row.len(),
                table.columns.len()
            )));
        }
    }
    Ok(table)
}

fn shape(message: impl Into<String>) -> Error {
    Error::Parse {
        message: message.into(),
        offset: 0,
    }
}

fn string(value: JsonValue) -> Result<String> {
    match value {
        JsonValue::String(s) => Ok(s),
        _ => Err(shape("expected a string")),
    }
}

fn number(value: JsonValue) -> Result<f64> {
    match value {
        JsonValue::Null => Ok(f64::NAN),
        JsonValue::Number(raw) => raw
            .parse::<f64>()
            .map_err(|e| shape(format!("bad number '{raw}': {e}"))),
        _ => Err(shape("expected a number or null")),
    }
}

fn array<T>(value: JsonValue, item: impl Fn(JsonValue) -> Result<T>) -> Result<Vec<T>> {
    match value {
        JsonValue::Array(items) => items.into_iter().map(item).collect(),
        _ => Err(shape("expected an array")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table() -> Table {
        Table {
            key: "abc123".to_string(),
            columns: vec!["D_nm".to_string(), "ratio \"q\"\n".to_string()],
            rows: vec![
                vec![10.0, 0.9012345678901234],
                vec![1e-300, -2.5e17],
                vec![0.1 + 0.2, f64::MAX],
            ],
        }
    }

    #[test]
    fn round_trip_is_exact() {
        let t = table();
        let text = encode_table(&t);
        let back = decode_table(&text).unwrap();
        assert_eq!(back.key, t.key);
        assert_eq!(back.columns, t.columns);
        assert_eq!(back.rows.len(), t.rows.len());
        for (a, b) in back.rows.iter().flatten().zip(t.rows.iter().flatten()) {
            assert_eq!(a.to_bits(), b.to_bits(), "{a} vs {b}");
        }
        // Encoding is also stable (byte-identical re-encode).
        assert_eq!(encode_table(&back), text);
    }

    #[test]
    fn non_finite_becomes_null_then_nan() {
        let t = Table {
            key: "k".to_string(),
            columns: vec!["x".to_string()],
            rows: vec![vec![f64::INFINITY]],
        };
        let text = encode_table(&t);
        assert!(text.contains("null"));
        assert!(decode_table(&text).unwrap().rows[0][0].is_nan());
    }

    #[test]
    fn rejects_malformed_input() {
        for bad in [
            "",
            "{",
            "{\"key\":\"k\"",
            "{\"key\":\"k\",\"columns\":[\"a\"],\"rows\":[[1,2]]}",
            "{\"wat\":1}",
            "{\"key\":\"k\",\"columns\":[\"a\"],\"rows\":[[1]]} trailing",
            "{\"key\":\"k\",\"columns\":[\"a\"],\"rows\":[[bad]]}",
        ] {
            assert!(decode_table(bad).is_err(), "accepted: {bad}");
        }
    }

    #[test]
    fn whitespace_tolerant() {
        let text = "{ \"key\" : \"k\" ,\n \"columns\" : [ \"a\" ] , \"rows\" : [ [ 1.5 ] ] }";
        let t = decode_table(text).unwrap();
        assert_eq!(t.rows, vec![vec![1.5]]);
    }

    #[test]
    fn escapes_round_trip() {
        let t = Table {
            key: "tab\t\"quote\"\\back\u{1}".to_string(),
            columns: vec![],
            rows: vec![],
        };
        let back = decode_table(&encode_table(&t)).unwrap();
        assert_eq!(back.key, t.key);
    }
}
