//! `--name value` argument parsing (no dependency, no positional args).

use std::collections::BTreeMap;

/// Parsed command line: every `--name` maps to the token after it, or to
/// the empty string when it is a bare flag.
#[derive(Debug, Default)]
pub struct Args(BTreeMap<String, String>);

impl Args {
    /// Parses the process arguments.
    pub fn from_env() -> Result<Self, String> {
        Self::parse(std::env::args().skip(1))
    }

    /// Parses an explicit token list.
    pub fn parse(tokens: impl IntoIterator<Item = String>) -> Result<Self, String> {
        let mut map = BTreeMap::new();
        let mut tokens = tokens.into_iter().peekable();
        while let Some(tok) = tokens.next() {
            let Some(name) = tok.strip_prefix("--") else {
                return Err(format!("unexpected argument {tok:?}"));
            };
            // A value may start with one dash (a negative number), not two.
            let value = match tokens.peek() {
                Some(next) if !next.starts_with("--") => tokens.next().unwrap_or_default(),
                _ => String::new(),
            };
            if map.insert(name.to_owned(), value).is_some() {
                return Err(format!("--{name} given twice"));
            }
        }
        Ok(Args(map))
    }

    /// Whether `--name` was given at all.
    pub fn has(&self, name: &str) -> bool {
        self.0.contains_key(name)
    }

    /// The raw value of `--name`.
    pub fn get(&self, name: &str) -> Option<&str> {
        self.0.get(name).map(String::as_str)
    }

    /// `--seed`, or `default` when absent. A negative number is taken as
    /// its two's-complement bits, so any integer a driver passes is a seed.
    pub fn seed(&self, default: u64) -> Result<u64, String> {
        match self.get("seed") {
            None => Ok(default),
            Some(raw) => raw
                .parse::<u64>()
                .or_else(|_| raw.parse::<i64>().map(|n| n as u64))
                .map_err(|_| format!("--seed: cannot parse {raw:?}")),
        }
    }

    /// `--name` parsed as `T`, or `default` when absent.
    pub fn parsed<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, String> {
        match self.get(name) {
            None => Ok(default),
            Some(raw) => raw
                .parse()
                .map_err(|_| format!("--{name}: cannot parse {raw:?}")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(tokens: &[&str]) -> Result<Args, String> {
        Args::parse(tokens.iter().map(|t| (*t).to_owned()))
    }

    #[test]
    fn values_flags_and_seeds() {
        let a = parse(&[
            "--workload",
            "w",
            "--check",
            "--seed",
            "-3",
            "--seconds",
            "2.5",
        ])
        .unwrap();
        assert_eq!(a.get("workload"), Some("w"));
        assert!(a.has("check") && !a.has("trace"));
        assert_eq!(a.seed(1), Ok(-3i64 as u64));
        assert_eq!(a.parsed("seconds", 0.0), Ok(2.5));
        assert_eq!(a.parsed("trace", 7u8), Ok(7));
        assert!(parse(&["stray"]).is_err());
        assert!(parse(&["--seed", "1", "--seed", "2"]).is_err());
        assert!(parse(&["--seed", "x"]).unwrap().seed(0).is_err());
    }
}
