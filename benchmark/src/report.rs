//! The result line the driver reads, and its inverse for the modes that
//! run the benchmark as a child (`--check`, `--repeat`).

/// One reported metric.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    /// Name as listed in `BENCHMARK.json`.
    pub name: String,
    /// Measured value, all digits.
    pub value: f64,
    /// Unit as listed in `BENCHMARK.json`.
    pub unit: String,
}

impl Metric {
    /// A metric.
    pub fn new(name: &str, value: f64, unit: &str) -> Self {
        Metric {
            name: name.to_owned(),
            value,
            unit: unit.to_owned(),
        }
    }
}

/// What one run reports.
#[derive(Clone, Debug, PartialEq)]
pub struct RunResult {
    /// Whether every output checked was right.
    pub correct: bool,
    /// Operations and checks attempted.
    pub attempted: u64,
    /// Operations that failed or returned a wrong result.
    pub failed: u64,
    /// The metrics, in catalogue order.
    pub metrics: Vec<Metric>,
}

impl RunResult {
    /// The value of the metric `name`, if reported.
    pub fn value(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }

    /// The single JSON object printed as the last line of standard output.
    ///
    /// # Errors
    ///
    /// A metric whose value is not finite: JSON cannot carry it and the
    /// run must fail instead.
    pub fn to_json_line(&self) -> Result<String, String> {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct, self.attempted, self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            if !m.value.is_finite() {
                return Err(format!("metric {} is not finite: {}", m.name, m.value));
            }
            if i > 0 {
                out.push_str(", ");
            }
            // `{:?}` prints the shortest text that reads back as the same
            // f64 and always keeps a decimal point or exponent.
            out.push_str(&format!(
                "\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            ));
        }
        out.push_str("}}");
        Ok(out)
    }

    /// Parses a line produced by [`RunResult::to_json_line`]. Not a JSON
    /// parser: it reads exactly the shape this benchmark prints.
    pub fn parse(line: &str) -> Option<RunResult> {
        let field = |key: &str| -> Option<&str> {
            let at = line.find(&format!("\"{key}\": "))? + key.len() + 4;
            let rest = &line[at..];
            Some(&rest[..rest.find([',', '}'])?])
        };
        let correct = field("correct")?.parse().ok()?;
        let attempted = field("attempted")?.parse().ok()?;
        let failed = field("failed")?.parse().ok()?;
        let body = &line[line.find("\"metrics\": {")? + 12..];
        let mut metrics = Vec::new();
        for part in body.split("\"}").filter(|p| p.contains("\"value\": ")) {
            let name_start = part.find('"')? + 1;
            let name_end = name_start + part[name_start..].find('"')?;
            let value_at = part.find("\"value\": ")? + 9;
            let value_end = value_at + part[value_at..].find(',')?;
            let unit_at = part.find("\"unit\": \"")? + 9;
            metrics.push(Metric::new(
                &part[name_start..name_end],
                part[value_at..value_end].parse().ok()?,
                &part[unit_at..],
            ));
        }
        Some(RunResult {
            correct,
            attempted,
            failed,
            metrics,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_round_trips() {
        let r = RunResult {
            correct: true,
            attempted: 1000,
            failed: 0,
            metrics: vec![
                Metric::new("op_p50_us", 1.2034, "us"),
                Metric::new("setup_s", 0.8127, "s"),
                Metric::new("ops_per_s", 12345.0, "1/s"),
            ],
        };
        let line = r.to_json_line().unwrap();
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 1000, \"failed\": 0, "));
        assert!(line.contains("\"ops_per_s\": {\"value\": 12345.0, \"unit\": \"1/s\"}"));
        assert_eq!(RunResult::parse(&line), Some(r));
    }

    #[test]
    fn non_finite_values_are_refused() {
        let r = RunResult {
            correct: true,
            attempted: 1,
            failed: 0,
            metrics: vec![Metric::new("x", f64::NAN, "us")],
        };
        assert!(r.to_json_line().is_err());
    }
}
