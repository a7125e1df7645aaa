//! The run's printed result: metrics by name and unit, operation counts,
//! provenance, and the final one-line JSON object.

use std::fmt::Write as _;

/// Named metrics in insertion order.
#[derive(Debug, Default)]
pub struct Metrics(Vec<(String, f64, &'static str)>);

impl Metrics {
    pub fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.0.push((name.into(), value, unit));
    }

    /// Names of metrics whose value is not a finite number.
    pub fn non_finite(&self) -> Vec<String> {
        self.0
            .iter()
            .filter(|(_, v, _)| !v.is_finite())
            .map(|(n, _, _)| n.clone())
            .collect()
    }

    pub fn json(&self) -> String {
        let mut s = String::from("{");
        for (i, (name, value, unit)) in self.0.iter().enumerate() {
            if i > 0 {
                s.push_str(", ");
            }
            let v = if value.is_finite() { *value } else { 0.0 };
            write!(s, "\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}")
                .expect("string write");
        }
        s.push('}');
        s
    }

    pub fn render(&self) -> String {
        self.0
            .iter()
            .map(|(n, v, u)| format!("  {n:<42} {v:>16.6} {u}\n"))
            .collect()
    }
}

/// Provenance fields, rendered as one JSON object of strings and numbers.
#[derive(Debug, Default)]
pub struct Provenance(Vec<(String, String)>);

impl Provenance {
    pub fn num(&mut self, key: impl Into<String>, v: f64) {
        let v = if v.is_finite() { v } else { 0.0 };
        self.0.push((key.into(), format!("{v:?}")));
    }

    pub fn int(&mut self, key: impl Into<String>, v: u64) {
        self.0.push((key.into(), v.to_string()));
    }

    pub fn text(&mut self, key: impl Into<String>, v: &str) {
        self.0.push((key.into(), json_string(v)));
    }

    pub fn json(&self) -> String {
        let body: Vec<String> = self
            .0
            .iter()
            .map(|(k, v)| format!("{}: {v}", json_string(k)))
            .collect();
        format!("{{{}}}", body.join(", "))
    }
}

/// Comma-separated values with six decimals, for provenance text fields.
pub fn join(values: &[f64]) -> String {
    values
        .iter()
        .map(|v| format!("{v:.6}"))
        .collect::<Vec<_>>()
        .join(",")
}

pub fn json_string(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => write!(out, "\\u{:04x}", c as u32).expect("string write"),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Everything one run reports.
#[derive(Debug, Default)]
pub struct RunReport {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Metrics,
    pub provenance: Provenance,
    /// Human-readable reasons for every failed operation or check.
    pub failures: Vec<String>,
}

impl RunReport {
    /// Count one checked operation.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.failures.push(what());
        }
    }

    pub fn correct(&self) -> bool {
        self.failures.is_empty()
    }

    pub fn result_line(&self) -> String {
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
            self.correct(),
            self.attempted,
            self.failed,
            self.metrics.json()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_is_the_contract_shape() {
        let mut r = RunReport {
            attempted: 3,
            ..RunReport::default()
        };
        r.metrics.put("latency_p50_ms", 1.25, "ms");
        r.metrics.put("setup_s", 0.5, "s");
        r.check(true, || unreachable!());
        assert_eq!(
            r.result_line(),
            "{\"correct\": true, \"attempted\": 4, \"failed\": 0, \"metrics\": \
             {\"latency_p50_ms\": {\"value\": 1.25, \"unit\": \"ms\"}, \
             \"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}}}"
        );
        r.check(false, || "bad".into());
        assert!(!r.correct());
        assert_eq!(r.failed, 1);
    }

    #[test]
    fn provenance_escapes_text() {
        let mut p = Provenance::default();
        p.text("cpu", "Xeon \"x\"");
        p.int("n", 3);
        assert_eq!(p.json(), "{\"cpu\": \"Xeon \\\"x\\\"\", \"n\": 3}");
    }
}
