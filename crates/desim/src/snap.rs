//! Canonical snapshot codec: sectioned `key=value` text with an FNV-1a
//! fingerprint over the exact bytes.
//!
//! Snapshots exist so replay can be O(journal tail) instead of O(journal):
//! a run serializes its full state at a watermark, and a restart restores
//! the state and folds only the records above it. For that to be *provably*
//! equivalent to from-scratch replay, the serialization must be canonical —
//! one state, one byte string — so equality of state reduces to equality of
//! one `u64` fingerprint, the same reduction the journal itself uses.
//!
//! The format is deliberately primitive: UTF-8 lines, `[section]` headers,
//! `key=value` pairs in a fixed order chosen by the writer. The reader is
//! *strict* — it demands exactly the keys the writer emitted, in order —
//! because a lenient reader would accept byte strings the writer never
//! produces, and then "restored fingerprint == snapshot fingerprint" would
//! stop implying "same state". Floats travel as exact bit patterns
//! (`{:016x}` of `f64::to_bits`), never decimal, for the same reason.
//!
//! Nothing here panics: the writer is infallible by construction and the
//! reader returns `Err(String)` on any malformed input, so a corrupted
//! snapshot file degrades into a diagnosable restore error, not a crash.

use crate::fnv::Fnv;
use std::fmt::Write;

/// Builds a canonical snapshot string and its fingerprint.
#[derive(Debug, Default)]
pub struct SnapWriter {
    buf: String,
}

impl SnapWriter {
    /// An empty snapshot.
    pub fn new() -> Self {
        SnapWriter { buf: String::new() }
    }

    /// Start a `[name]` section. Names must not contain `]` or newlines;
    /// offending characters are escaped like string values so the line
    /// structure survives arbitrary input.
    pub fn section(&mut self, name: &str) {
        self.buf.push('[');
        push_escaped(&mut self.buf, name);
        self.buf.push_str("]\n");
    }

    /// Write `key=<decimal u64>`.
    pub fn u64(&mut self, key: &str, v: u64) {
        self.key(key);
        // Formatting into a `String` cannot fail.
        let _ = writeln!(self.buf, "{v}");
    }

    /// Write `key=<decimal i64>`.
    pub fn i64(&mut self, key: &str, v: i64) {
        self.key(key);
        let _ = writeln!(self.buf, "{v}");
    }

    /// Write an `f64` as its exact bit pattern (`{:016x}`), so restore is
    /// bit-identical and no decimal rounding can perturb a fingerprint.
    pub fn f64(&mut self, key: &str, v: f64) {
        self.key(key);
        let _ = writeln!(self.buf, "{:016x}", v.to_bits());
    }

    /// Write a bool as `0`/`1`.
    pub fn bool(&mut self, key: &str, v: bool) {
        self.u64(key, u64::from(v));
    }

    /// Write a string with `\\`, `\n`, `\r` escaped so values stay on one
    /// line and decode losslessly.
    pub fn str(&mut self, key: &str, v: &str) {
        self.key(key);
        push_escaped(&mut self.buf, v);
        self.buf.push('\n');
    }

    /// FNV-1a fingerprint of the bytes written so far.
    pub fn fingerprint(&self) -> u64 {
        Fnv::new().write_bytes(self.buf.as_bytes()).finish()
    }

    /// The canonical snapshot text.
    pub fn finish(self) -> String {
        self.buf
    }

    fn key(&mut self, key: &str) {
        push_escaped(&mut self.buf, key);
        self.buf.push('=');
    }
}

fn push_escaped(buf: &mut String, s: &str) {
    // Copy the runs between escapable bytes in one go. Every escaped
    // character is ASCII, so the offsets a byte scan finds are char
    // boundaries.
    let mut rest = s;
    while let Some(i) = rest
        .bytes()
        .position(|b| matches!(b, b'\\' | b'\n' | b'\r' | b']' | b'='))
    {
        let (run, tail) = rest.split_at(i);
        buf.push_str(run);
        let (special, tail) = tail.split_at(1);
        buf.push_str(match special {
            "\\" => "\\\\",
            "\n" => "\\n",
            "\r" => "\\r",
            "]" => "\\b",
            _ => "\\e",
        });
        rest = tail;
    }
    buf.push_str(rest);
}

fn unescape(s: &str) -> Result<String, String> {
    let mut out = String::with_capacity(s.len());
    let mut chars = s.chars();
    while let Some(c) = chars.next() {
        if c != '\\' {
            out.push(c);
            continue;
        }
        match chars.next() {
            Some('\\') => out.push('\\'),
            Some('n') => out.push('\n'),
            Some('r') => out.push('\r'),
            Some('b') => out.push(']'),
            Some('e') => out.push('='),
            other => return Err(format!("snap: bad escape \\{:?}", other)),
        }
    }
    Ok(out)
}

/// Strict sequential reader over a [`SnapWriter`]-produced string.
///
/// Every accessor demands the *next* line match the expected shape
/// (section header or `key=value` with the expected key); any deviation is
/// an error naming the line, so truncation, reordering, and hand-edits are
/// all caught before a half-restored state can leak out.
#[derive(Debug)]
pub struct SnapReader<'a> {
    lines: std::str::Lines<'a>,
    /// 1-based line number of the last line consumed.
    line_no: usize,
}

impl<'a> SnapReader<'a> {
    /// Read `text` from the start.
    pub fn new(text: &'a str) -> Self {
        SnapReader {
            lines: text.lines(),
            line_no: 0,
        }
    }

    fn next_line(&mut self) -> Result<&'a str, String> {
        self.line_no += 1;
        self.lines
            .next()
            .ok_or_else(|| format!("snap: unexpected end of input at line {}", self.line_no))
    }

    /// Expect a `[name]` section header.
    pub fn section(&mut self, name: &str) -> Result<(), String> {
        let line = self.next_line()?;
        let inner = line
            .strip_prefix('[')
            .and_then(|r| r.strip_suffix(']'))
            .ok_or_else(|| {
                format!(
                    "snap: line {}: expected section [{name}], got {line:?}",
                    self.line_no
                )
            })?;
        let got = unescape(inner)?;
        if got != name {
            return Err(format!(
                "snap: line {}: expected section [{name}], got [{got}]",
                self.line_no
            ));
        }
        Ok(())
    }

    fn value(&mut self, key: &str) -> Result<&'a str, String> {
        let line = self.next_line()?;
        let (k, v) = line.split_once('=').ok_or_else(|| {
            format!(
                "snap: line {}: expected {key}=..., got {line:?}",
                self.line_no
            )
        })?;
        let got = unescape(k)?;
        if got != key {
            return Err(format!(
                "snap: line {}: expected key {key}, got {got}",
                self.line_no
            ));
        }
        Ok(v)
    }

    /// Read `key=<decimal u64>`.
    pub fn u64(&mut self, key: &str) -> Result<u64, String> {
        let v = self.value(key)?;
        v.parse::<u64>()
            .map_err(|e| format!("snap: line {}: {key}: bad u64 {v:?}: {e}", self.line_no))
    }

    /// Read `key=<decimal i64>`.
    pub fn i64(&mut self, key: &str) -> Result<i64, String> {
        let v = self.value(key)?;
        v.parse::<i64>()
            .map_err(|e| format!("snap: line {}: {key}: bad i64 {v:?}: {e}", self.line_no))
    }

    /// Read an `f64` stored as its `{:016x}` bit pattern.
    pub fn f64(&mut self, key: &str) -> Result<f64, String> {
        let v = self.value(key)?;
        let bits = u64::from_str_radix(v, 16).map_err(|e| {
            format!(
                "snap: line {}: {key}: bad f64 bits {v:?}: {e}",
                self.line_no
            )
        })?;
        Ok(f64::from_bits(bits))
    }

    /// Read a bool stored as `0`/`1`.
    pub fn bool(&mut self, key: &str) -> Result<bool, String> {
        match self.u64(key)? {
            0 => Ok(false),
            1 => Ok(true),
            n => Err(format!("snap: line {}: {key}: bad bool {n}", self.line_no)),
        }
    }

    /// Read an escaped string value.
    pub fn str(&mut self, key: &str) -> Result<String, String> {
        let v = self.value(key)?;
        unescape(v)
    }

    /// Expect end of input — trailing garbage is as fatal as truncation.
    pub fn done(&mut self) -> Result<(), String> {
        match self.lines.next() {
            None => Ok(()),
            Some(line) => Err(format!(
                "snap: line {}: trailing content {line:?}",
                self.line_no + 1
            )),
        }
    }
}

/// FNV-1a fingerprint of a snapshot string (equals
/// [`SnapWriter::fingerprint`] of the writer that produced it).
pub fn fingerprint(text: &str) -> u64 {
    Fnv::new().write_bytes(text.as_bytes()).finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_all_scalar_kinds() {
        let mut w = SnapWriter::new();
        w.section("hdr");
        w.u64("n", 42);
        w.i64("d", -7);
        w.f64("x", -0.125);
        w.bool("on", true);
        w.str("name", "a=b\nc\\d]e");
        let fp = w.fingerprint();
        let text = w.finish();
        assert_eq!(fingerprint(&text), fp);

        let mut r = SnapReader::new(&text);
        r.section("hdr").expect("section");
        assert_eq!(r.u64("n").expect("n"), 42);
        assert_eq!(r.i64("d").expect("d"), -7);
        assert_eq!(r.f64("x").expect("x"), -0.125);
        assert!(r.bool("on").expect("on"));
        assert_eq!(r.str("name").expect("name"), "a=b\nc\\d]e");
        r.done().expect("done");
    }

    #[test]
    fn f64_round_trip_is_bit_exact() {
        for v in [0.0, -0.0, f64::MIN_POSITIVE, 1.0e300, f64::NAN] {
            let mut w = SnapWriter::new();
            w.f64("v", v);
            let text = w.finish();
            let got = SnapReader::new(&text).f64("v").expect("v");
            assert_eq!(got.to_bits(), v.to_bits());
        }
    }

    #[test]
    fn writer_bytes_are_pinned_for_edge_values() {
        let mut w = SnapWriter::new();
        w.section("a]b=c");
        w.u64("max", u64::MAX);
        w.u64("zero", 0);
        w.i64("min", i64::MIN);
        w.i64("neg", -1);
        w.f64("negzero", -0.0);
        w.f64("nan", f64::NAN);
        w.f64("inf", f64::INFINITY);
        w.f64("neginf", f64::NEG_INFINITY);
        w.bool("t", true);
        w.str("k\\e\ny\r]=", "v\\a\nl\r]=ue");
        w.str("plain", "héllo wörld");
        w.str("utf8", "é=ü\nß");
        let text = w.finish();
        assert_eq!(
            text,
            "[a\\bb\\ec]\n\
             max=18446744073709551615\n\
             zero=0\n\
             min=-9223372036854775808\n\
             neg=-1\n\
             negzero=8000000000000000\n\
             nan=7ff8000000000000\n\
             inf=7ff0000000000000\n\
             neginf=fff0000000000000\n\
             t=1\n\
             k\\\\e\\ny\\r\\b\\e=v\\\\a\\nl\\r\\b\\eue\n\
             plain=héllo wörld\n\
             utf8=é\\eü\\nß\n"
        );
        let mut r = SnapReader::new(&text);
        r.section("a]b=c").expect("section");
        assert_eq!(r.u64("max").expect("max"), u64::MAX);
        assert_eq!(r.u64("zero").expect("zero"), 0);
        assert_eq!(r.i64("min").expect("min"), i64::MIN);
        assert_eq!(r.i64("neg").expect("neg"), -1);
        assert_eq!(
            r.f64("negzero").expect("negzero").to_bits(),
            (-0.0f64).to_bits()
        );
        assert_eq!(r.f64("nan").expect("nan").to_bits(), f64::NAN.to_bits());
        assert_eq!(r.f64("inf").expect("inf"), f64::INFINITY);
        assert_eq!(r.f64("neginf").expect("neginf"), f64::NEG_INFINITY);
        assert!(r.bool("t").expect("t"));
        assert_eq!(r.str("k\\e\ny\r]=").expect("escaped"), "v\\a\nl\r]=ue");
        assert_eq!(r.str("plain").expect("plain"), "héllo wörld");
        assert_eq!(r.str("utf8").expect("utf8"), "é=ü\nß");
        r.done().expect("done");
    }

    #[test]
    fn strict_reader_rejects_drift() {
        let mut w = SnapWriter::new();
        w.section("s");
        w.u64("a", 1);
        let text = w.finish();

        // Wrong section name.
        assert!(SnapReader::new(&text).section("t").is_err());
        // Wrong key.
        let mut r = SnapReader::new(&text);
        r.section("s").expect("section");
        assert!(r.u64("b").is_err());
        // Truncation.
        let mut r = SnapReader::new("[s]");
        r.section("s").expect("section");
        assert!(r.u64("a").is_err());
        // Trailing garbage.
        let mut extra = text.clone();
        extra.push_str("junk\n");
        let mut r2 = SnapReader::new(&extra);
        r2.section("s").expect("section");
        r2.u64("a").expect("a");
        assert!(r2.done().is_err());
    }

    #[test]
    fn fingerprint_is_sensitive_to_every_byte() {
        let mut a = SnapWriter::new();
        a.u64("n", 1);
        let mut b = SnapWriter::new();
        b.u64("n", 2);
        assert_ne!(a.fingerprint(), b.fingerprint());
    }
}
