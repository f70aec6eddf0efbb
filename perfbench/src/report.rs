//! Metric names, units, and the one-line JSON result.

/// End-to-end metrics printed with `--trace 0`: `(name, unit)`.
pub const END_TO_END: [(&str, &str); 5] = [
    ("jobs_per_s", "1/s"),
    ("setup_s", "s"),
    ("peak_heap_mb", "MB"),
    ("job_fail_ratio", "ratio"),
    ("occ_mean", "ratio"),
];

/// Per-layer metrics printed with `--trace 1`: `(name, unit)`.
pub const PER_LAYER: [(&str, &str); 60] = [
    ("workloads.generate.s", "s"),
    ("topo.place_best_fit.calls", "count"),
    ("topo.place_best_fit.s", "s"),
    ("topo.place_best_fit.fail_ratio", "ratio"),
    ("fabricd.ring_plan.s", "s"),
    ("fabricd.program_planned.calls", "count"),
    ("fabricd.program_planned.s", "s"),
    ("fabricd.program_planned.circuits", "count"),
    ("fabricd.cross.hit_ratio", "ratio"),
    ("fabricd.cross.fallbacks", "count"),
    ("fabricd.cross.resident", "count"),
    ("route.planlib.hit_ratio", "ratio"),
    ("route.planlib.fallbacks", "count"),
    ("route.planlib.stamped", "count"),
    ("fabricd.admit.calls", "count"),
    ("fabricd.admit.s", "s"),
    ("fabricd.admit.useful_ratio", "ratio"),
    ("fabricd.evict.s", "s"),
    ("fabricd.inject_failure.s", "s"),
    ("pod.policy.place.s", "s"),
    ("pod.snapshot.count", "count"),
    ("pod.snapshot.bytes", "bytes"),
    ("pod.snapshot.to_text.s", "s"),
    ("pod.snapshot.parse.s", "s"),
    ("pod.resume.s", "s"),
    ("fabricd.snapshot.count", "count"),
    ("fabricd.snapshot.bytes", "bytes"),
    ("fabricd.snapshot.to_text.s", "s"),
    ("fabricd.snapshot.parse.s", "s"),
    ("fabricd.replay_from.s", "s"),
    ("fabricd.replay.s", "s"),
    ("fabricd.journal.records", "count"),
    ("fabricd.journal.retained", "count"),
    ("fabricd.campaign.s", "s"),
    ("fabricd.retries", "count"),
    ("pod.events", "count"),
    ("pod.epochs", "count"),
    ("pod.delegations", "count"),
    ("pod.pool.speedup", "ratio"),
    ("pod.run.s", "s"),
    ("pod.stitch.admits", "count"),
    ("pod.stitch.rollbacks", "count"),
    ("pod.stitch.useful_ratio", "ratio"),
    ("verify.check_journal.s", "s"),
    ("verify.audit_errors", "count"),
    ("sim.wait_p50_s", "s"),
    ("sim.wait_p99_s", "s"),
    ("sim.wait_samples", "count"),
    ("sim.frag_mean", "ratio"),
    ("sim.repair_ok_ratio", "ratio"),
    ("restart.s", "s"),
    ("trace.wall.s", "s"),
    ("trace.coverage", "ratio"),
    ("trace.overhead", "ratio"),
    ("trace.reconcile_mismatches", "count"),
    ("shadow.events", "count"),
    ("shadow.admissions", "count"),
    ("shadow.circuits", "count"),
    ("shadow.cross_hits", "count"),
    ("shadow.plan_hits", "count"),
];

/// The result of one benchmark run.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Human-readable report lines, printed before the JSON line.
    pub text: Vec<String>,
    /// Output checks that failed; the run is correct when this is empty.
    pub problems: Vec<String>,
    /// Calls into the simulator (timed runs plus checking runs). A call
    /// that returns an error aborts the run before any result is printed,
    /// so a printed result always has `failed` = 0.
    pub attempted: u64,
    /// `(name, value)` of every metric, in the order of its name table.
    pub metrics: Vec<(&'static str, &'static str, f64)>,
}

impl Outcome {
    /// Fill `metrics` from `table`, looking each value up with `value`.
    /// A value that is not finite is reported as 0 and flagged.
    pub fn set_metrics(
        &mut self,
        table: &[(&'static str, &'static str)],
        value: impl Fn(&str) -> Option<f64>,
    ) {
        for &(name, unit) in table {
            let v = match value(name) {
                Some(v) if v.is_finite() => v,
                Some(v) => {
                    self.problems
                        .push(format!("metric {name} is not finite: {v}"));
                    0.0
                }
                None => {
                    self.problems
                        .push(format!("metric {name} was not measured"));
                    0.0
                }
            };
            self.metrics.push((name, unit, v));
        }
    }

    /// The final JSON line.
    pub fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, unit, v)| format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}"))
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": 0, \"metrics\": {{{}}}}}",
            self.problems.is_empty(),
            self.attempted,
            metrics.join(", ")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    /// A strict little JSON reader, enough to prove the result line
    /// parses: objects, strings without escapes, numbers, booleans.
    fn parse_value(s: &[u8], i: &mut usize) -> Result<(), String> {
        skip_ws(s, i);
        match s.get(*i) {
            Some(b'{') => {
                *i += 1;
                skip_ws(s, i);
                if s.get(*i) == Some(&b'}') {
                    *i += 1;
                    return Ok(());
                }
                loop {
                    skip_ws(s, i);
                    parse_string(s, i)?;
                    skip_ws(s, i);
                    expect(s, i, b':')?;
                    parse_value(s, i)?;
                    skip_ws(s, i);
                    match s.get(*i) {
                        Some(b',') => *i += 1,
                        Some(b'}') => {
                            *i += 1;
                            return Ok(());
                        }
                        _ => return Err(format!("expected , or }} at {i}")),
                    }
                }
            }
            Some(b'"') => parse_string(s, i),
            Some(b't') => literal(s, i, b"true"),
            Some(b'f') => literal(s, i, b"false"),
            Some(c) if c.is_ascii_digit() || *c == b'-' => {
                let start = *i;
                while s
                    .get(*i)
                    .is_some_and(|c| c.is_ascii_digit() || b"+-.eE".contains(c))
                {
                    *i += 1;
                }
                let text = std::str::from_utf8(&s[start..*i]).map_err(|e| e.to_string())?;
                text.parse::<f64>()
                    .map(|_| ())
                    .map_err(|_| format!("bad number {text:?}"))
            }
            _ => Err(format!("unexpected byte at {i}")),
        }
    }

    fn skip_ws(s: &[u8], i: &mut usize) {
        while s.get(*i).is_some_and(|c| c.is_ascii_whitespace()) {
            *i += 1;
        }
    }

    fn expect(s: &[u8], i: &mut usize, c: u8) -> Result<(), String> {
        if s.get(*i) == Some(&c) {
            *i += 1;
            Ok(())
        } else {
            Err(format!("expected {:?} at {i}", c as char))
        }
    }

    fn literal(s: &[u8], i: &mut usize, word: &[u8]) -> Result<(), String> {
        if s.get(*i..*i + word.len()) == Some(word) {
            *i += word.len();
            Ok(())
        } else {
            Err(format!("bad literal at {i}"))
        }
    }

    fn parse_string(s: &[u8], i: &mut usize) -> Result<(), String> {
        expect(s, i, b'"')?;
        while let Some(&c) = s.get(*i) {
            *i += 1;
            match c {
                b'"' => return Ok(()),
                b'\\' => return Err("escapes are never emitted".to_string()),
                _ => {}
            }
        }
        Err("unterminated string".to_string())
    }

    fn parses(line: &str) -> Result<(), String> {
        let mut i = 0;
        parse_value(line.as_bytes(), &mut i)?;
        skip_ws(line.as_bytes(), &mut i);
        if i == line.len() {
            Ok(())
        } else {
            Err(format!("trailing bytes at {i}"))
        }
    }

    #[test]
    fn result_line_parses_for_both_tables() {
        for table in [&END_TO_END[..], &PER_LAYER[..]] {
            let mut out = Outcome {
                attempted: 3,
                ..Outcome::default()
            };
            out.set_metrics(table, |n| Some(n.len() as f64 / 7.0));
            assert!(out.problems.is_empty());
            let line = out.json();
            assert_eq!(parses(&line), Ok(()), "{line}");
            assert!(line.starts_with("{\"correct\": true, \"attempted\": 3, \"failed\": 0,"));
        }
        assert!(parses("{\"a\": 1,}").is_err());
    }

    #[test]
    fn unmeasured_or_non_finite_metrics_make_the_run_incorrect() {
        let mut out = Outcome::default();
        out.set_metrics(&END_TO_END, |n| match n {
            "setup_s" => None,
            "jobs_per_s" => Some(f64::NAN),
            _ => Some(1.0),
        });
        assert_eq!(out.problems.len(), 2);
        assert!(out.json().starts_with("{\"correct\": false"));
    }

    /// The names the code prints are exactly the names BENCHMARK.json
    /// registers, in the same tables.
    #[test]
    fn metric_names_match_the_registration() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let section = |key: &str| -> BTreeSet<String> {
            let start = json.find(&format!("\"{key}\"")).expect("section present");
            let body = &json[start..];
            let end = body.find(']').expect("section closes");
            body[..end]
                .split("\"name\": \"")
                .skip(1)
                .filter_map(|s| s.split('"').next())
                .map(String::from)
                .collect()
        };
        let names = |t: &[(&str, &str)]| -> BTreeSet<String> {
            t.iter().map(|(n, _)| n.to_string()).collect()
        };
        assert_eq!(section("end_to_end"), names(&END_TO_END));
        assert_eq!(section("per_layer"), names(&PER_LAYER));
        assert_eq!(names(&END_TO_END).len(), END_TO_END.len(), "names unique");
        assert_eq!(names(&PER_LAYER).len(), PER_LAYER.len(), "names unique");
    }
}
