//! Parser for the Prometheus-style text exposition the registry renders.
//!
//! `peepul-cli top` diffs two expositions to show per-second rates, the
//! service smoke test asserts a live node's exposition parses, and the
//! registry concurrency test checks render/parse round-trips — all three
//! share this one hand-rolled parser (the workspace has no serde).

/// One parsed exposition sample.
#[derive(Clone, Debug, PartialEq)]
pub struct Sample {
    /// Metric family name (without the label block).
    pub name: String,
    /// Label pairs in source order, unescaped.
    pub labels: Vec<(String, String)>,
    /// Sample value.
    pub value: f64,
}

impl Sample {
    /// The value of label `key`, if present.
    pub fn label(&self, key: &str) -> Option<&str> {
        self.labels
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }
}

/// Parses a text exposition into samples, skipping comment (`#`) and
/// blank lines.
///
/// # Errors
///
/// A `String` describing the first malformed line: missing value,
/// unparsable number, or an unterminated label block.
pub fn parse_exposition(text: &str) -> Result<Vec<Sample>, String> {
    let mut samples = Vec::new();
    for (lineno, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let sample = parse_line(line).map_err(|e| format!("line {}: {e}", lineno + 1))?;
        samples.push(sample);
    }
    Ok(samples)
}

fn parse_line(line: &str) -> Result<Sample, String> {
    let (name_part, value_part) = match line.find('{') {
        Some(brace) => {
            let close = find_label_end(line, brace)?;
            (&line[..close + 1], line[close + 1..].trim())
        }
        None => {
            let sp = line
                .find(char::is_whitespace)
                .ok_or_else(|| "missing value".to_string())?;
            (&line[..sp], line[sp..].trim())
        }
    };
    let value: f64 = value_part
        .split_whitespace()
        .next()
        .ok_or_else(|| "missing value".to_string())?
        .parse()
        .map_err(|e| format!("bad value {value_part:?}: {e}"))?;
    let (name, labels) = match name_part.find('{') {
        Some(brace) => (
            name_part[..brace].to_string(),
            parse_labels(&name_part[brace + 1..name_part.len() - 1])?,
        ),
        None => (name_part.to_string(), Vec::new()),
    };
    if name.is_empty() {
        return Err("empty metric name".to_string());
    }
    Ok(Sample {
        name,
        labels,
        value,
    })
}

/// Finds the index of the `}` closing the label block that opens at
/// `brace`, honouring escapes inside quoted values.
fn find_label_end(line: &str, brace: usize) -> Result<usize, String> {
    let bytes = line.as_bytes();
    let mut in_quotes = false;
    let mut escaped = false;
    for (i, &b) in bytes.iter().enumerate().skip(brace + 1) {
        if escaped {
            escaped = false;
            continue;
        }
        match b {
            b'\\' if in_quotes => escaped = true,
            b'"' => in_quotes = !in_quotes,
            b'}' if !in_quotes => return Ok(i),
            _ => {}
        }
    }
    Err("unterminated label block".to_string())
}

/// Parses `k="v",k2="v2"` (the inside of a label block).
fn parse_labels(s: &str) -> Result<Vec<(String, String)>, String> {
    let mut labels = Vec::new();
    let mut rest = s.trim();
    while !rest.is_empty() {
        let eq = rest
            .find('=')
            .ok_or_else(|| format!("label without '=' in {s:?}"))?;
        let key = rest[..eq].trim().to_string();
        let after = rest[eq + 1..].trim_start();
        if !after.starts_with('"') {
            return Err(format!("unquoted label value in {s:?}"));
        }
        let (value, consumed) = parse_quoted(&after[1..])?;
        labels.push((key, value));
        rest = after[1 + consumed..].trim_start();
        if let Some(r) = rest.strip_prefix(',') {
            rest = r.trim_start();
        } else if !rest.is_empty() {
            return Err(format!("trailing junk after label value in {s:?}"));
        }
    }
    Ok(labels)
}

/// Escapes a label value for a `{key="value"}` block: `\\`, `\"` and
/// `\n`, the escapes the parser undoes.
pub fn escape_label_value(value: &str) -> String {
    let mut out = String::with_capacity(value.len());
    for c in value.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

/// Parses a quoted-string body up to its closing quote, unescaping
/// `\"`, `\\` and `\n`. Returns the value and the number of input bytes
/// consumed **including** the closing quote.
fn parse_quoted(s: &str) -> Result<(String, usize), String> {
    let mut out = String::new();
    let mut chars = s.char_indices();
    while let Some((i, c)) = chars.next() {
        match c {
            '"' => return Ok((out, i + 1)),
            '\\' => match chars.next() {
                Some((_, 'n')) => out.push('\n'),
                Some((_, other)) => out.push(other),
                None => return Err("dangling escape in label value".to_string()),
            },
            c => out.push(c),
        }
    }
    Err("unterminated label value".to_string())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Registry;

    #[test]
    fn parses_plain_and_labeled_samples() {
        let text = "# TYPE a counter\n\
                    a_total 41\n\
                    b{peer=\"node-b\",kind=\"get\"} 2.5\n\
                    \n\
                    c{q=\"0.5\"} 12\n";
        let samples = parse_exposition(text).unwrap();
        assert_eq!(samples.len(), 3);
        assert_eq!(samples[0].name, "a_total");
        assert_eq!(samples[0].value, 41.0);
        assert!(samples[0].labels.is_empty());
        assert_eq!(samples[1].name, "b");
        assert_eq!(samples[1].label("peer"), Some("node-b"));
        assert_eq!(samples[1].label("kind"), Some("get"));
        assert_eq!(samples[1].value, 2.5);
        assert_eq!(samples[2].label("q"), Some("0.5"));
    }

    #[test]
    fn rejects_malformed_lines() {
        assert!(parse_exposition("name_without_value").is_err());
        assert!(parse_exposition("name{unclosed 1").is_err());
        assert!(parse_exposition("name not_a_number").is_err());
    }

    #[test]
    fn escaped_label_values_roundtrip() {
        let samples = parse_exposition("m{l=\"a\\\"b\\\\c\"} 1").unwrap();
        assert_eq!(samples[0].label("l"), Some("a\"b\\c"));

        let raw = "a\"b\\c\nd";
        let line = format!("m{{l=\"{}\"}} 1", escape_label_value(raw));
        assert_eq!(parse_exposition(&line).unwrap()[0].label("l"), Some(raw));
    }

    #[test]
    fn registry_render_roundtrips() {
        let r = Registry::new();
        r.counter("peepul_store_commits_total").add(3);
        r.gauge("peepul_server_conns_active").set(2);
        r.histogram("peepul_server_req_micros{kind=\"get\"}")
            .observe(100);
        r.gauge_fn("peepul_store_memo_hit_rate", || 0.75);
        let text = r.render();
        let samples = parse_exposition(&text).unwrap();
        // counter + gauge + gauge_fn + (3 quantiles + count + sum) = 8.
        assert_eq!(samples.len(), 8);
        let commits = samples
            .iter()
            .find(|s| s.name == "peepul_store_commits_total")
            .unwrap();
        assert_eq!(commits.value, 3.0);
        let q95 = samples
            .iter()
            .find(|s| s.name == "peepul_server_req_micros" && s.label("quantile") == Some("0.95"))
            .unwrap();
        assert!(q95.value >= 100.0);
        assert_eq!(q95.label("kind"), Some("get"));
        let rate = samples
            .iter()
            .find(|s| s.name == "peepul_store_memo_hit_rate")
            .unwrap();
        assert_eq!(rate.value, 0.75);
    }
}
