//! One flat, ordered record for every committed `BENCH_*.json` baseline.
//!
//! The workspace carries no serde. Every baseline is a flat JSON object
//! written one `"key": value` per line in a fixed key order, so each
//! baseline family declares that order once, as a [`Family`]: per key, its
//! value [`Kind`] and its [`Gate`]. The same declaration drives the writer
//! ([`BenchRecord::to_json`]), the strict reader ([`BenchRecord::parse`],
//! which accepts exactly what the writer writes), the gate
//! ([`BenchRecord::compare`]) and the success line
//! ([`BenchRecord::ok_line`]). Reader and gate are index-free, so crates
//! pinned at zero detlint findings can call them.

use std::fmt::{self, Write as _};

/// Floor-gated keys may not drop below this fraction of the baseline, and
/// ceiling-gated keys may not exceed baseline / ratio: loose enough that
/// CI noise does not flake, tight enough that an order-of-magnitude
/// slowdown fails.
pub const MIN_PERF_RATIO: f64 = 0.1;

/// How a key is gated against the committed baseline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Gate {
    /// Must equal the baseline (determinism: fingerprints, hashes, counts).
    Exact,
    /// May not fall below baseline × [`MIN_PERF_RATIO`] (throughput).
    Floor,
    /// May not exceed baseline / [`MIN_PERF_RATIO`] (latency); not gated
    /// when the baseline is 0.
    Ceiling,
    /// Recorded for context, never compared (wall clock, worker counts).
    Info,
}

/// The JSON type of a key's value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Unsigned integer.
    U64,
    /// Finite, non-negative float.
    F64,
    /// Quoted string.
    Str,
}

/// One value of a record. `Display` gives the value as written, without
/// the quotes around a string.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// An unsigned integer.
    U64(u64),
    /// A float, written in Rust's shortest round-trip form.
    F64(f64),
    /// A string, written verbatim between quotes (it holds no `"` or `\`).
    Str(String),
}

impl Value {
    fn kind(&self) -> Kind {
        match self {
            Value::U64(_) => Kind::U64,
            Value::F64(_) => Kind::F64,
            Value::Str(_) => Kind::Str,
        }
    }

    fn num(&self) -> f64 {
        match self {
            Value::U64(v) => *v as f64,
            Value::F64(v) => *v,
            Value::Str(_) => 0.0,
        }
    }

    fn written(&self) -> String {
        match self {
            Value::Str(s) => format!("\"{s}\""),
            v => v.to_string(),
        }
    }

    /// Read `raw` as a `kind` value, accepting only the form
    /// [`written`](Self::written) gives back byte for byte.
    fn read(kind: Kind, raw: &str) -> Option<Value> {
        let v = match kind {
            Kind::U64 => Value::U64(raw.parse().ok()?),
            Kind::F64 => Value::F64(
                raw.parse()
                    .ok()
                    .filter(|v: &f64| v.is_finite() && *v >= 0.0)?,
            ),
            Kind::Str => {
                let s = raw.strip_prefix('"')?.strip_suffix('"')?;
                if s.contains(['"', '\\']) {
                    return None;
                }
                Value::Str(s.to_string())
            }
        };
        (v.written() == raw).then_some(v)
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::U64(v) => write!(f, "{v}"),
            Value::F64(v) => write!(f, "{v}"),
            Value::Str(s) => f.write_str(s),
        }
    }
}

/// A baseline family: the keys one producer writes, in order, each with
/// its kind and gate. Declared once, next to the producer.
#[derive(Debug)]
pub struct Family {
    /// Family name, for messages.
    pub name: &'static str,
    /// Every key in written order.
    pub keys: &'static [(&'static str, Kind, Gate)],
    /// A check of the current run against itself rather than the
    /// baseline; [`BenchRecord::compare`] adds its message when it fails.
    pub same_run: Option<fn(&BenchRecord) -> Option<String>>,
}

impl Family {
    /// The error for `key` found where the key at position `at` belongs.
    fn misplaced(&self, key: &str, at: usize) -> String {
        let mut keys = self.keys.iter().map(|&(k, _, _)| k);
        let want = self.keys.get(at).map_or("", |&(k, _, _)| k);
        if keys.by_ref().take(at).any(|k| k == key) {
            format!("duplicate key \"{key}\"")
        } else if keys.any(|k| k == key) {
            format!("key \"{key}\" out of order: expected \"{want}\" here")
        } else {
            format!("unknown key \"{key}\"")
        }
    }
}

/// One baseline: a flat list of `(key, value, gate)` rows in its family's
/// key order.
#[derive(Debug, Clone)]
pub struct BenchRecord {
    family: &'static Family,
    values: Vec<Value>,
}

impl PartialEq for BenchRecord {
    fn eq(&self, other: &BenchRecord) -> bool {
        self.family.name == other.family.name && self.values == other.values
    }
}

impl BenchRecord {
    /// A record from `(key, value)` rows, which must follow the family's
    /// key order and kinds.
    pub fn new(family: &'static Family, rows: Vec<(&str, Value)>) -> BenchRecord {
        debug_assert!(
            rows.iter()
                .map(|(k, v)| (*k, v.kind()))
                .eq(family.keys.iter().map(|&(k, kind, _)| (k, kind))),
            "{} rows must follow the family's key order and kinds",
            family.name
        );
        BenchRecord {
            family,
            values: rows.into_iter().map(|(_, v)| v).collect(),
        }
    }

    /// Every `(key, value, gate)` row, in written order.
    pub fn rows(&self) -> impl Iterator<Item = (&'static str, &Value, Gate)> {
        self.family
            .keys
            .iter()
            .zip(&self.values)
            .map(|(&(key, _, gate), v)| (key, v, gate))
    }

    /// The value of `key`, if the family has it.
    pub fn get(&self, key: &str) -> Option<&Value> {
        self.rows().find(|(k, _, _)| *k == key).map(|(_, v, _)| v)
    }

    /// The numeric value of `key` (0 for a string or an absent key).
    pub fn num(&self, key: &str) -> f64 {
        self.get(key).map_or(0.0, Value::num)
    }

    /// The value of `key` as written, without a string's quotes (empty for
    /// an absent key).
    pub fn text(&self, key: &str) -> String {
        self.get(key).map(Value::to_string).unwrap_or_default()
    }

    /// The committed JSON form: one `"key": value` per line.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n");
        for (i, (key, value, _)) in self.rows().enumerate() {
            let sep = if i + 1 < self.values.len() { "," } else { "" };
            let _ = writeln!(out, "  \"{key}\": {}{sep}", value.written());
        }
        out.push_str("}\n");
        out
    }

    /// Read a `family` record, accepting exactly what
    /// [`to_json`](Self::to_json) writes. A missing, duplicated, unknown or
    /// reordered key, a value of the wrong kind or not in the writer's
    /// form, and truncated input are all errors.
    pub fn parse(family: &'static Family, text: &str) -> Result<BenchRecord, String> {
        let body = text
            .strip_prefix("{\n")
            .and_then(|t| t.strip_suffix("\n}\n"))
            .ok_or_else(|| {
                format!(
                    "{} record must open with '{{' and close with '}}' on lines of their own",
                    family.name
                )
            })?;
        let mut lines = body.split('\n');
        let mut values = Vec::new();
        for (at, &(want, kind, _)) in family.keys.iter().enumerate() {
            let line = lines
                .next()
                .ok_or_else(|| format!("missing key \"{want}\""))?;
            let (key, raw) = split_row(line)?;
            if key != want {
                return Err(family.misplaced(key, at));
            }
            let raw = if at + 1 < family.keys.len() {
                raw.strip_suffix(',')
                    .ok_or_else(|| format!("\"{key}\": no ',' after the value"))?
            } else {
                raw
            };
            let value = Value::read(kind, raw).ok_or_else(|| {
                format!("\"{key}\": {raw} is not a {kind:?} value as the writer writes it")
            })?;
            values.push(value);
        }
        match lines.next() {
            Some(line) => Err(family.misplaced(split_row(line)?.0, family.keys.len())),
            None => Ok(BenchRecord { family, values }),
        }
    }

    /// Gate this (current) record against a `baseline` of the same family:
    /// one message per violated gate, plus the family's same-run check;
    /// empty means the baseline holds.
    pub fn compare(&self, baseline: &BenchRecord) -> Vec<String> {
        let mut failures = Vec::new();
        for ((key, cur, gate), base) in self.rows().zip(&baseline.values) {
            let (c, b) = (cur.num(), base.num());
            match gate {
                Gate::Exact if cur != base => {
                    failures.push(format!("{key} {cur} != baseline {base}"));
                }
                Gate::Floor if c < b * MIN_PERF_RATIO => failures.push(format!(
                    "{key} {c:.3} is below {:.3} ({MIN_PERF_RATIO}x of baseline {b:.3})",
                    b * MIN_PERF_RATIO
                )),
                Gate::Ceiling if b > 0.0 && c > b / MIN_PERF_RATIO => failures.push(format!(
                    "{key} {c:.3} exceeds {:.3} (baseline {b:.3} / {MIN_PERF_RATIO})",
                    b / MIN_PERF_RATIO
                )),
                _ => {}
            }
        }
        failures.extend(self.family.same_run.and_then(|check| check(self)));
        failures
    }

    /// The one-line summary of a passing gate: the exact keys reproduced
    /// (naming the string-valued ones) and every floor/ceiling reading.
    pub fn ok_line(&self, baseline: &BenchRecord) -> String {
        let (mut exact, mut pinned, mut rates) = (0, Vec::new(), Vec::new());
        for ((key, cur, gate), base) in self.rows().zip(&baseline.values) {
            match (gate, cur) {
                (Gate::Exact, Value::Str(s)) => pinned.push(format!("{key} {s}")),
                (Gate::Floor | Gate::Ceiling, _) => rates.push(format!(
                    "{key} {:.3} ({gate:?}-gated, baseline {:.3})",
                    cur.num(),
                    base.num()
                )),
                _ => {}
            }
            exact += usize::from(gate == Gate::Exact);
        }
        format!(
            "{exact} exact keys reproduced ({}); {} at ratio {MIN_PERF_RATIO}",
            pinned.join(", "),
            rates.join(", ")
        )
    }
}

/// Split `  "key": raw` into its key and raw value text.
fn split_row(line: &str) -> Result<(&str, &str), String> {
    line.strip_prefix("  \"")
        .and_then(|rest| rest.split_once("\": "))
        .ok_or_else(|| format!("malformed line {line:?}: expected `  \"key\": value`"))
}

#[cfg(test)]
mod tests {
    use super::Gate::*;
    use super::Kind::*;
    use super::*;

    static TOY: Family = Family {
        name: "toy",
        keys: &[
            ("name", Str, Exact),
            ("count", U64, Exact),
            ("rate", F64, Floor),
            ("tail_ms", F64, Ceiling),
            ("wall_s", F64, Info),
        ],
        same_run: None,
    };

    fn toy(rate: f64, tail_ms: f64) -> BenchRecord {
        BenchRecord::new(
            &TOY,
            vec![
                ("name", Value::Str("smoke".into())),
                ("count", Value::U64(12345)),
                ("rate", Value::F64(rate)),
                ("tail_ms", Value::F64(tail_ms)),
                ("wall_s", Value::F64(1.0)),
            ],
        )
    }

    #[test]
    fn writer_bytes_are_pinned_and_read_back() {
        let r = toy(0.1 + 0.2, 0.0);
        let text = r.to_json();
        assert_eq!(
            text,
            "{\n  \"name\": \"smoke\",\n  \"count\": 12345,\n  \
             \"rate\": 0.30000000000000004,\n  \"tail_ms\": 0,\n  \"wall_s\": 1\n}\n"
        );
        assert_eq!(BenchRecord::parse(&TOY, &text), Ok(r.clone()));
        assert_eq!(r.text("name"), "smoke");
        assert_eq!(r.num("count"), 12345.0);
        assert_eq!(r.get("absent"), None);
    }

    #[test]
    fn values_not_in_the_writers_form_are_rejected() {
        for (kind, raw) in [
            (U64, "+5"),
            (U64, "05"),
            (U64, "-1"),
            (U64, "1.0"),
            (U64, "\"5\""),
            (F64, "1e3"),
            (F64, "1.50"),
            (F64, "NaN"),
            (F64, "inf"),
            (F64, "-2"),
            (Str, "smoke"),
            (Str, "\"a\"b\""),
            (Str, "\"a\\b\""),
            (Str, "\""),
        ] {
            assert_eq!(Value::read(kind, raw), None, "{kind:?} {raw}");
        }
        assert_eq!(Value::read(F64, "1"), Some(Value::F64(1.0)));
    }

    #[test]
    fn ceiling_is_not_gated_on_a_zero_baseline() {
        let base = toy(100.0, 0.0);
        assert!(toy(100.0, 1e9).compare(&base).is_empty());
        let base = toy(100.0, 0.5);
        assert_eq!(toy(100.0, 20.0).compare(&base).len(), 1);
    }
}
