//! Flat-JSON field extraction for the committed `BENCH_*.json` baselines.
//!
//! The workspace carries no serde, and every baseline is a flat object
//! the writer formats itself, so a reader only needs "the value after
//! `"key":`". Lookups are index-free (slice-by-`get`), so callers in
//! crates pinned at zero detlint findings can use them directly.

/// The raw text after `"key":`, up to the value's end (`,`, `}` or EOL).
pub fn json_raw<'a>(text: &'a str, key: &str) -> Result<&'a str, String> {
    let needle = format!("\"{key}\"");
    let at = text
        .find(&needle)
        .ok_or_else(|| format!("missing key \"{key}\""))?;
    let rest = text.get(at + needle.len()..).unwrap_or_default();
    let rest = rest
        .trim_start()
        .strip_prefix(':')
        .ok_or_else(|| format!("no ':' after \"{key}\""))?
        .trim_start();
    let end = rest.find([',', '}', '\n']).unwrap_or(rest.len());
    Ok(rest.get(..end).unwrap_or(rest).trim())
}

/// A quoted string value.
pub fn json_str(text: &str, key: &str) -> Result<String, String> {
    let raw = json_raw(text, key)?;
    raw.strip_prefix('"')
        .and_then(|s| s.strip_suffix('"'))
        .map(str::to_string)
        .ok_or_else(|| format!("\"{key}\" is not a string: {raw}"))
}

/// An unsigned integer value.
pub fn json_u64(text: &str, key: &str) -> Result<u64, String> {
    let raw = json_raw(text, key)?;
    raw.parse()
        .map_err(|_| format!("\"{key}\" is not a u64: {raw}"))
}

/// A floating-point value.
pub fn json_f64(text: &str, key: &str) -> Result<f64, String> {
    let raw = json_raw(text, key)?;
    raw.parse()
        .map_err(|_| format!("\"{key}\" is not an f64: {raw}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    const DOC: &str = "{\n  \"name\": \"smoke\",\n  \"events\": 12345,\n  \
                       \"wall_s\": 0.25, \"last\": 7}";

    #[test]
    fn extracts_each_value_kind() {
        assert_eq!(json_str(DOC, "name"), Ok("smoke".to_string()));
        assert_eq!(json_u64(DOC, "events"), Ok(12345));
        assert_eq!(json_f64(DOC, "wall_s"), Ok(0.25));
        assert_eq!(
            json_u64(DOC, "last"),
            Ok(7),
            "value ends at the closing brace"
        );
        assert_eq!(json_raw(DOC, "wall_s"), Ok("0.25"));
    }

    #[test]
    fn malformed_input_is_an_error_not_a_panic() {
        assert!(json_raw(DOC, "missing").is_err());
        assert!(json_u64(DOC, "name").is_err(), "string is not a u64");
        assert!(json_str(DOC, "events").is_err(), "number is not a string");
        assert!(json_f64(DOC, "name").is_err());
        assert!(json_raw("{\"key\" 1}", "key").is_err(), "no colon");
        assert_eq!(json_raw("\"key\":", "key"), Ok(""), "value at end of input");
        assert!(json_u64("\"key\":", "key").is_err());
    }
}
