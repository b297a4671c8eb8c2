//! Tiny deterministic JSON formatting helpers.
//!
//! The exporters hand-roll their JSON because the workspace builds
//! offline (no serde_json). Numbers use Rust's shortest round-trip
//! float formatting, which is deterministic across runs and platforms;
//! non-finite values serialize as `null` to keep the output valid JSON.
//!
//! The artifact writers stream into one buffer per artifact through
//! [`push_esc`] and [`push_num`]; [`esc`] and [`num`] are the same
//! formatting returned as a fresh `String`.

use std::fmt::Write;

/// Appends `s` to `out`, escaped for inclusion inside a JSON string
/// literal.
pub fn push_esc(out: &mut String, s: &str) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
}

/// Escapes a string for inclusion inside a JSON string literal.
pub fn esc(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    push_esc(&mut out, s);
    out
}

/// Appends an `f64` to `out` as a JSON number (`null` if non-finite).
pub fn push_num(out: &mut String, v: f64) {
    if v.is_finite() {
        let _ = write!(out, "{v}");
    } else {
        out.push_str("null");
    }
}

/// Appends `,"key":value` to `out`, with `value` as a JSON number.
pub(crate) fn push_num_field(out: &mut String, key: &str, value: f64) {
    out.push_str(",\"");
    out.push_str(key);
    out.push_str("\":");
    push_num(out, value);
}

/// Formats an `f64` as a JSON number (`null` if non-finite).
pub fn num(v: f64) -> String {
    let mut out = String::new();
    push_num(&mut out, v);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escapes_specials() {
        assert_eq!(esc("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(esc("\u{1}"), "\\u0001");
        assert_eq!(esc("\r\t\u{1f}é"), "\\r\\t\\u001fé");
        assert_eq!(esc("plain"), "plain");
    }

    #[test]
    fn numbers_are_shortest_roundtrip() {
        assert_eq!(num(2.0), "2");
        assert_eq!(num(0.25), "0.25");
        assert_eq!(num(f64::NAN), "null");
        assert_eq!(num(f64::INFINITY), "null");
    }

    #[test]
    fn appenders_extend_the_buffer() {
        let mut out = String::from("[");
        push_num(&mut out, 0.1 + 0.2);
        out.push(',');
        push_num(&mut out, f64::NEG_INFINITY);
        out.push_str(",\"");
        push_esc(&mut out, "q\"\u{7}");
        out.push_str("\"]");
        assert_eq!(out, "[0.30000000000000004,null,\"q\\\"\\u0007\"]");
    }
}
