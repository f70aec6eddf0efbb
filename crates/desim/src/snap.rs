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

/// Builds a canonical snapshot string and its fingerprint in one pass:
/// every byte is folded into a running FNV-1a at the moment it is
/// appended, so [`fingerprint`](Self::fingerprint) is O(1).
///
/// A [`digest_only`](Self::digest_only) writer folds the same bytes but
/// keeps no text, for callers that need the fingerprint of a state and
/// never its encoding.
#[derive(Debug)]
pub struct SnapWriter {
    /// The text written so far; `None` in digest-only mode.
    text: Option<String>,
    fnv: Fnv,
}

impl Default for SnapWriter {
    fn default() -> Self {
        Self::new()
    }
}

impl SnapWriter {
    /// An empty snapshot.
    pub fn new() -> Self {
        SnapWriter {
            text: Some(String::new()),
            fnv: Fnv::new(),
        }
    }

    /// A writer that folds every byte into the fingerprint and keeps no
    /// text: its [`fingerprint`](Self::fingerprint) equals that of a
    /// [`new`](Self::new) writer fed the same calls, and its
    /// [`finish`](Self::finish) is empty.
    pub fn digest_only() -> Self {
        SnapWriter {
            text: None,
            fnv: Fnv::new(),
        }
    }

    /// Start a `[name]` section. Names must not contain `]` or newlines;
    /// offending characters are escaped like string values so the line
    /// structure survives arbitrary input.
    pub fn section(&mut self, name: &str) {
        self.put("[");
        self.escaped(name);
        self.put("]\n");
    }

    /// Write `key=<decimal u64>`.
    pub fn u64(&mut self, key: &str, v: u64) {
        self.escaped(key);
        self.decimal(false, v);
    }

    /// Write `key=<decimal i64>`.
    pub fn i64(&mut self, key: &str, v: i64) {
        self.escaped(key);
        self.decimal(v < 0, v.unsigned_abs());
    }

    /// Write an `f64` as its exact bit pattern (`{:016x}`), so restore is
    /// bit-identical and no decimal rounding can perturb a fingerprint.
    pub fn f64(&mut self, key: &str, v: f64) {
        self.escaped(key);
        let bits = v.to_bits();
        // `=`, sixteen hex digits, newline.
        let mut tail = [b'\n'; 18];
        let mut bytes = tail.iter_mut();
        if let Some(eq) = bytes.next() {
            *eq = b'=';
        }
        for (slot, shift) in bytes.zip((0..16).rev()) {
            let nibble = ((bits >> (4 * shift)) & 0xf) as u8;
            *slot = if nibble < 10 {
                b'0' + nibble
            } else {
                b'a' + nibble - 10
            };
        }
        self.put_ascii(&tail);
    }

    /// Write a bool as `0`/`1`.
    pub fn bool(&mut self, key: &str, v: bool) {
        self.u64(key, u64::from(v));
    }

    /// Write a string with `\\`, `\n`, `\r` escaped so values stay on one
    /// line and decode losslessly.
    pub fn str(&mut self, key: &str, v: &str) {
        self.escaped(key);
        self.put("=");
        self.escaped(v);
        self.put("\n");
    }

    /// FNV-1a fingerprint of the bytes written so far.
    pub fn fingerprint(&self) -> u64 {
        self.fnv.finish()
    }

    /// The canonical snapshot text (empty for a digest-only writer).
    pub fn finish(self) -> String {
        self.text.unwrap_or_default()
    }

    /// Append `s` verbatim.
    fn put(&mut self, s: &str) {
        self.fnv.write_bytes(s.as_bytes());
        if let Some(text) = &mut self.text {
            text.push_str(s);
        }
    }

    /// Append ASCII bytes. Each byte is pushed as the `char` it encodes,
    /// which is one UTF-8 byte only for ASCII, so callers pass nothing else.
    fn put_ascii(&mut self, bytes: &[u8]) {
        self.fnv.write_bytes(bytes);
        if let Some(text) = &mut self.text {
            text.extend(bytes.iter().map(|&b| char::from(b)));
        }
    }

    /// Append `=`, `v` in decimal (after a `-` when `negative`) and the
    /// newline, without `core::fmt`.
    fn decimal(&mut self, negative: bool, mut v: u64) {
        // `=`, `-`, the 20 digits of u64::MAX, newline.
        const MAX: usize = 23;
        let mut tail = [b'\n'; MAX];
        let digits = v.checked_ilog10().map_or(1, |d| d as usize + 1);
        let used = 2 + usize::from(negative) + digits;
        let (_, line) = tail.split_at_mut(MAX - used);
        let mut bytes = line.iter_mut();
        if let Some(eq) = bytes.next() {
            *eq = b'=';
        }
        if negative {
            if let Some(sign) = bytes.next() {
                *sign = b'-';
            }
        }
        for slot in bytes.rev().skip(1) {
            *slot = b'0' + (v % 10) as u8;
            v /= 10;
        }
        self.put_ascii(line);
    }

    /// Append `s` with `\\`, `\n`, `\r`, `]` and `=` escaped.
    fn escaped(&mut self, s: &str) {
        // Copy the runs between escapable bytes in one go. Every escaped
        // character is ASCII, so the offsets a byte scan finds are char
        // boundaries.
        let mut rest = s;
        while let Some(i) = rest
            .bytes()
            .position(|b| matches!(b, b'\\' | b'\n' | b'\r' | b']' | b'='))
        {
            let (run, tail) = rest.split_at(i);
            self.put(run);
            let (special, tail) = tail.split_at(1);
            self.put(match special {
                "\\" => "\\\\",
                "\n" => "\\n",
                "\r" => "\\r",
                "]" => "\\b",
                _ => "\\e",
            });
            rest = tail;
        }
        self.put(rest);
    }
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

    /// One writer call, replayed identically into each writer under test.
    #[derive(Debug, Clone, Copy)]
    enum Op {
        Section(&'static str),
        U64(&'static str, u64),
        I64(&'static str, i64),
        F64(&'static str, u64),
        Bool(&'static str, bool),
        Str(&'static str, &'static str),
    }

    fn apply(w: &mut SnapWriter, ops: &[Op]) {
        for &op in ops {
            match op {
                Op::Section(n) => w.section(n),
                Op::U64(k, v) => w.u64(k, v),
                Op::I64(k, v) => w.i64(k, v),
                Op::F64(k, bits) => w.f64(k, f64::from_bits(bits)),
                Op::Bool(k, v) => w.bool(k, v),
                Op::Str(k, v) => w.str(k, v),
            }
        }
    }

    /// The encoding spelled out with `core::fmt` and `str::replace`,
    /// independent of the writer's own escaping and digit loops.
    fn reference(ops: &[Op]) -> String {
        let esc = |s: &str| {
            s.replace('\\', "\\\\")
                .replace('\n', "\\n")
                .replace('\r', "\\r")
                .replace(']', "\\b")
                .replace('=', "\\e")
        };
        let mut out = String::new();
        for &op in ops {
            out.push_str(&match op {
                Op::Section(n) => format!("[{}]\n", esc(n)),
                Op::U64(k, v) => format!("{}={v}\n", esc(k)),
                Op::I64(k, v) => format!("{}={v}\n", esc(k)),
                Op::F64(k, bits) => format!("{}={bits:016x}\n", esc(k)),
                Op::Bool(k, v) => format!("{}={}\n", esc(k), u8::from(v)),
                Op::Str(k, v) => format!("{}={}\n", esc(k), esc(v)),
            });
        }
        out
    }

    #[test]
    fn one_pass_fingerprint_agrees_in_both_writer_modes() {
        const KEYS: [&str; 7] = ["k", "a=b", "x]y", "back\\slash", "nl\ncr\r", "clé", ""];
        const STRS: [&str; 8] = [
            "",
            "plain",
            "é=ü\nß",
            "\\]=\r\n",
            "日本語",
            "tail\\",
            "🙂=🙃",
            "]]==",
        ];
        const U64S: [u64; 8] = [0, 1, 9, 10, 99, 100, u64::MAX - 1, u64::MAX];
        const I64S: [i64; 7] = [0, -1, 1, -10, i64::MIN, i64::MIN + 1, i64::MAX];
        const F64_BITS: [u64; 11] = [
            0x0000_0000_0000_0000, // +0
            0x8000_0000_0000_0000, // -0
            0x7ff8_0000_0000_0000, // quiet NaN
            0x7ff0_0000_0000_0001, // signalling NaN
            0xffff_ffff_ffff_ffff, // NaN, every bit set
            0x7ff0_0000_0000_0000, // +inf
            0xfff0_0000_0000_0000, // -inf
            0x0000_0000_0000_0001, // smallest subnormal
            0x800f_ffff_ffff_ffff, // largest negative subnormal
            0x0010_0000_0000_0000, // MIN_POSITIVE
            0x3ff0_0000_0000_0000, // 1.0
        ];
        let mut rng = crate::SimRng::seed_from_u64(0x5eed_0014);
        for case in 0..400 {
            let mut ops = Vec::new();
            for _ in 0..rng.gen_range_usize(48) {
                let key = *rng.choose(&KEYS);
                let value = *rng.choose(&STRS);
                // Half the numbers are edge values, half random of random width.
                let edge = rng.gen_bool(0.5);
                let wide = rng.next_u64() >> rng.gen_range_u64(64);
                ops.push(match rng.gen_range_u64(6) {
                    0 => Op::Section(key),
                    1 => Op::U64(key, if edge { *rng.choose(&U64S) } else { wide }),
                    2 => Op::I64(
                        key,
                        if edge {
                            *rng.choose(&I64S)
                        } else {
                            wide as i64
                        },
                    ),
                    3 => Op::F64(
                        key,
                        if edge {
                            *rng.choose(&F64_BITS)
                        } else {
                            rng.next_u64()
                        },
                    ),
                    4 => Op::Bool(key, rng.gen_bool(0.5)),
                    _ => Op::Str(key, value),
                });
            }
            let mut text = SnapWriter::new();
            apply(&mut text, &ops);
            let mut digest = SnapWriter::digest_only();
            apply(&mut digest, &ops);
            let fp = text.fingerprint();
            let out = text.finish();
            assert_eq!(out, reference(&ops), "case {case}: {ops:?}");
            assert_eq!(fp, fingerprint(&out), "case {case}: running fold");
            assert_eq!(digest.fingerprint(), fp, "case {case}: digest-only");
            assert!(digest.finish().is_empty(), "digest-only keeps no text");
        }
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
